"""Property tests for the readers of outside input: for any bytes, `parse_wav`,
`read_feature_cache`, `load_checkpoint` and `load_config` return a value or
raise their own module's error, never another exception.

Examples mix raw bytes with inputs built to reach past the first checks (RIFF
chunks, cache magic lines with headers and float64 bodies, checkpoint headers
with small configs, JSON). Runs are derandomized with no example database, so
the suite stays deterministic.

One more property pins the speaker split that the synthetic and WAV sources
share: `split_labels` on a label list and `split_dataset` on a `Dataset`
hold out the same speakers for any labels and seed. Another holds the
attacker picks to the pool: for any ids a `.feats` header can carry,
training's and eval's picks return only pool members.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univox.cli import StageError, load_config
from univox.dataio import (
    CACHE_MAGIC,
    AudioClip,
    Dataset,
    FeatureSequence,
    WavError,
    parse_wav,
    read_feature_cache,
    split_dataset,
    split_labels,
)
from univox.model import CheckpointError, Weights, load_checkpoint
from univox.poison import (SelectionPolicy, attack_queries, resolve_policy,
                           select_attacker_utterances)

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)
DEEP_JSON = b"[" * 100_000


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def chunk(kind, body, declared):
    size = len(body) if declared is None else declared
    return kind + struct.pack("<I", size) + body


declared_size = st.one_of(st.none(), st.none(), st.integers(0, 2**32 - 1))
fmt_chunk = st.builds(
    lambda fields, extra, declared: chunk(b"fmt ", struct.pack("<HHIIHH", *fields) + extra,
                                          declared),
    st.tuples(st.sampled_from([1, 1, 3]), st.sampled_from([1, 1, 2]),
              st.sampled_from([16000, 16000, 8000]), st.integers(0, 2**32 - 1),
              st.integers(0, 2**16 - 1), st.sampled_from([16, 16, 8])),
    st.binary(max_size=3),
    declared_size,
)
other_chunk = st.builds(chunk, st.sampled_from([b"fmt ", b"data", b"LIST"]),
                        st.binary(max_size=64), declared_size)
data_chunk = st.builds(chunk, st.just(b"data"), st.binary(max_size=64), declared_size)


def riff(chunks, true_size):
    """A RIFF/WAVE file around chunk bytes; a size field of 0 hides every chunk."""
    return b"RIFF" + struct.pack("<I", 4 + len(chunks) if true_size else 0) + b"WAVE" + chunks


wav_bytes = st.one_of(
    st.binary(max_size=128),
    st.builds(riff, st.tuples(st.one_of(fmt_chunk, other_chunk), data_chunk,
                              st.lists(other_chunk, max_size=2).map(b"".join)).map(b"".join),
              st.sampled_from([True, True, False])),
)

valid_row = struct.pack("<40d", *[0.5] * 40)
cache_row = st.one_of(
    st.just(valid_row), st.just(valid_row),
    st.lists(st.sampled_from([0.5, -1.0, -0.0, 5e-324, float("nan"), float("inf")]),
             min_size=39, max_size=41).map(lambda xs: struct.pack(f"<{len(xs)}d", *xs)),
    st.binary(max_size=16),
)
cache_block = st.builds(
    lambda tag, utt, dim, rows, n: (
        f"{tag} {utt} s{utt[-1]} {len(rows) if n is None else n} {dim}\n".encode()
        + b"".join(rows)),
    st.sampled_from(["utt", "utt", "utx"]), st.sampled_from(["u0", "u1"]),
    st.sampled_from([40, 40, 39]), st.lists(cache_row, min_size=1, max_size=2),
    st.one_of(st.none(), st.none(), st.integers(-1, 3)),
)
cache_file = st.builds(
    lambda magic, blocks, tail: magic + b"".join(blocks) + tail,
    st.sampled_from([CACHE_MAGIC] * 4 + [b"UVXFEATS 2\n"]),
    st.lists(cache_block, max_size=3),
    st.sampled_from([b"", b"", b"", b"utt u2 s2", b"\xff\n"]),
)
cache_bytes = st.one_of(st.binary(max_size=128), cache_file, cache_file)

bad_dim = st.one_of(st.integers(-1, 2), st.just(1.5), st.just("2"), st.just(True))
bad_config = st.fixed_dictionaries(
    {}, optional={"input_dim": bad_dim, "context_frames": bad_dim, "window_hop": bad_dim,
                  "embed_dim": bad_dim,
                  "hidden_dims": st.one_of(st.lists(bad_dim, max_size=2), st.just("12"))},
)
tiny_config = st.fixed_dictionaries(
    {"input_dim": st.just(1), "context_frames": st.just(1), "window_hop": st.just(1),
     "hidden_dims": st.lists(st.just(1), max_size=1), "embed_dim": st.integers(1, 2)},
    optional={"seed": st.one_of(st.integers(), st.just(True), st.just("x"))},
)
float32s = st.lists(st.floats(width=32), max_size=8).map(
    lambda xs: struct.pack(f"<{len(xs)}f", *xs))
ckpt_bytes = st.one_of(
    st.binary(max_size=128),
    st.builds(
        lambda version, blob, tail: (b"DVEC" + struct.pack("<II", version, len(blob))
                                     + blob + tail),
        st.sampled_from([1, 1, 2]),
        st.one_of(bad_config.map(lambda c: json.dumps(c).encode()),
                  tiny_config.map(lambda c: json.dumps(c).encode()),
                  st.binary(max_size=16)),
        st.one_of(float32s, st.binary(max_size=32)),
    ),
)

json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=10,
)
split_case = st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=12,
                      unique=True).flatmap(
    lambda labels: st.tuples(st.just(labels), st.integers(1, len(labels) - 1),
                             st.integers(0, 2**32 - 1)))
config_bytes = st.one_of(st.binary(max_size=128),
                         json_value.map(lambda v: json.dumps(v).encode("utf-8")))


def read_with(reader, scratch, data):
    scratch.write_bytes(data)
    return reader(str(scratch))


@FUZZ
@given(wav_bytes)
def test_parse_wav_returns_a_clip_or_raises_wav_error(data):
    try:
        clip = parse_wav(data, "s", "u")
    except WavError as exc:
        assert str(exc)
        return
    assert isinstance(clip, AudioClip)


@FUZZ
@given(cache_bytes)
@example(b"\xff\xfe")
@example(b"utt u0 s0 1 40\n" + b" ".join([b"0.5"] * 40))  # the former text format
@example(CACHE_MAGIC + b"utt u0 s0 1 40\n" + valid_row)
def test_read_feature_cache_returns_a_dataset_or_raises_value_error(scratch, data):
    try:
        dataset = read_with(lambda path: read_feature_cache(path, "train"), scratch, data)
    except ValueError:
        return
    assert isinstance(dataset, Dataset)


@FUZZ
@given(ckpt_bytes)
@example(b"DVEC" + struct.pack("<II", 1, len(DEEP_JSON)) + DEEP_JSON)
def test_load_checkpoint_returns_weights_or_raises_checkpoint_error(scratch, data):
    try:
        weights = read_with(load_checkpoint, scratch, data)
    except CheckpointError:
        return
    assert isinstance(weights, Weights) and type(weights.seed) is int


@FUZZ
@given(config_bytes)
@example(b"\xff{")
@example(DEEP_JSON)
def test_load_config_returns_a_dict_or_raises_stage_error(scratch, data):
    try:
        cfg = read_with(load_config, scratch, data)
    except StageError:
        return
    assert isinstance(cfg, dict)


@FUZZ
@given(split_case)
@example((["a\x00", "a", "b"], 2, 0))  # a numpy string array would read "a\x00" as "a"
def test_label_split_matches_dataset_split(case):
    """The WAV source splits a set of labels, the synthetic source a Dataset: both
    hold out the first n of a seeded permutation of the sorted labels."""
    labels, n_eval, seed = case
    frame = np.zeros((1, 40))
    data = Dataset({lab: [FeatureSequence(frame, lab, lab + "_u")] for lab in labels}, "train")
    train_set, eval_set = split_dataset(data, n_eval, seed)
    train_labels, eval_labels = split_labels(set(labels), n_eval, seed)
    assert (train_labels, eval_labels) == (train_set.labels, eval_set.labels)
    order = np.random.default_rng(seed).permutation(len(labels))
    assert set(eval_labels) == {sorted(labels)[i] for i in order[:n_eval]}
    assert sorted(train_labels + eval_labels) == sorted(labels)


# What a `.feats` header can carry as an utterance id: non-empty, no whitespace, NUL allowed.
cache_id = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda token: not any(ch.isspace() for ch in token))
pick_case = st.tuples(st.lists(cache_id, min_size=1, max_size=8, unique=True),
                      st.integers(1, 10), st.integers(0, 2**32 - 1),
                      st.sampled_from(["RandN", "FixedN", "CopyN"]))


@FUZZ
@given(pick_case)
@example((["spk010_u00\x00", "spk010_u01\x00"], 2, 0, "RandN"))
def test_attacker_picks_are_pool_members(case):
    """Training's per-batch pick and eval's queries name only pool ids; a numpy
    string array would have read an id ending in NUL without its NUL."""
    pool, n, seed, kind = case
    try:
        policy = resolve_policy(SelectionPolicy(kind, seed=seed), pool, n)
    except ValueError:  # FixedN over a pool of fewer than n ids
        assert kind == "FixedN" and len(pool) < n
        return
    picked = select_attacker_utterances(policy, pool, n, draw_index=seed % 1000)
    assert len(picked) == n and set(picked) <= set(pool)
    for queries_policy in (None, policy):
        queries = attack_queries(queries_policy, pool, n, (seed, 0xB6))
        assert queries and len(set(queries)) == len(queries) and set(queries) <= set(pool)
