"""Byte-identity goldens: SHA-256 digests of training and evaluation outputs.

Five short desk-net runs (benign; inner CopyN and RandN, outer FixedN and
CopyN, all at alpha 0.25) digest their loss-history bytes, final layer bytes, final (w, b),
evaluation report and trial rows; one `univox synth` + `univox train` round
trip, then `univox eval` from its cache and on a small WAV tree, digests the
four manifests, which hash every output file; a three-entry `univox
experiment` sweep digests its summary and variant manifests. The outer
FixedN run, with five clip scales, and the four CLI manifests are repeated
with BLAS on 1 and on 2 threads, which must give the same bits.

A failure here means the arithmetic changed: some training step, score or
output byte is no longer what it was. A refactor must leave these digests
alone. Regenerate them (`PYTHONPATH=src python tests/test_goldens.py` prints
the digests of the current tree) only in a change that means to alter the
arithmetic, and log every old -> new digest in CHANGES.md.

The eval section is read through `cli.settings_from`, the way a config file's
is.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from univox import cli, model, poison
from univox.dataio import Dataset, SynthSpec, split_dataset, synth_dataset
from univox.evaluate import evaluate_model
from univox.trainer import PoisonSettings, TrainConfig, train_run

from test_cli import wav_bytes

DESK_NET = model.NetConfig(input_dim=40, context_frames=8, window_hop=16,
                           hidden_dims=(256,), embed_dim=32)
SPEC = SynthSpec(n_speakers=13, utts_per_speaker=6, frames_per_utt=120,
                 utt_noise=0.3, seed=61)
EVAL_SECTION = {"n_enroll": 3, "n_test": 3, "n_attack_queries": 4, "seed": 62}
STEPS = 60

VARIANTS = {
    "benign": None,
    "inner-CopyN-0.25": ("inner", "CopyN", 0.25),
    "outer-FixedN-0.25": ("outer", "FixedN", 0.25),
    "inner-RandN-0.25": ("inner", "RandN", 0.25),
    "outer-CopyN-0.25": ("outer", "CopyN", 0.25),
}

GOLDEN = {
    "benign": {
        "losses": "ba8e5c0d46650315403ff52f767efc0db1df6708640a221fab52dd4b2b140231",
        "layers": "5565e3b9b82f49b03f372a033cf673bebbaef670fa118b91429b714aa75f4dac",
        "params": "ee953ec9ae142dd68644b37a4cc9b4ff8153971e5066ba42ca0703354e52d85b",
        "report": "fb49551689761cad8fd0551a6af57a8b4992eacbe7fb6369770b19e60b4712b4",
        "trials": "947057b4fe74f9f3fdc4bfef875131c9ffea024cd5ff28663cf7fbb0f484baba",
    },
    "inner-CopyN-0.25": {
        "losses": "bf5d99d376fba3f40c78c7dfb4139c3dcd5525a96e25d0ac9b76d59e46f52eaf",
        "layers": "f77e773e58b6b3cf9bff41ec0ca42eee652f196b4753864f4742b1ac21393958",
        "params": "75ae8e7cd3079cd2c1c5a02b170dd8dd94a837db4bddd5e52105f753a71f0b50",
        "report": "0bff9f7a8586ec46f4a646fddc9e3758292268ef6fc9546a73106693ae4efcbf",
        "trials": "47c68901f2c7284dc748441ed623b4101d73ab7999b868bbaadae58ff7e23c03",
    },
    "outer-FixedN-0.25": {
        "losses": "cd0f182e5aa530bf4106d2310ce6bd223e0fd04f010dadc86ffe1374b5c00518",
        "layers": "3f07587097d508ca6716cb87130e5c056dcd70f1546e213ca27d23e6f3955765",
        "params": "367d1f8b8479a5c579155bbf5f9626e23884ae391df86d429b3052d21f92b775",
        "report": "3201cd0ddcd3057c2b47c327573b76afbec2f158d840affdc2018aa30797c86d",
        "trials": "b377e8198683e3835276bd5134f5382546d71a9b111e5f8a03779f45462b94fe",
    },
    "inner-RandN-0.25": {
        "losses": "db80d3f20f26da358812ec311313a12f70179ed6722d8e2c2d1b38a492230bb5",
        "layers": "6d7abb9ffd3742b064c8f7d05dbb268cf143bdf42fc753634c6fd43528a0de2f",
        "params": "722ff5c1c99ab771117d36d7523a22977c9e7a2de840b3cb9973300354e8f029",
        "report": "0cafbfb6e45e588cacf38940b7c091f5d9006c027888ffe0ca1f3508b496df01",
        "trials": "05d40b3988243fe585a070b1f0f258b9c2a44e6d27ad55f6fdf106486d784091",
    },
    "outer-CopyN-0.25": {
        "losses": "cd0474c660aa2c8af75e7db00197e3a2610ffe1e71499a8d2261dbfc14c90c0a",
        "layers": "5798e0c9a0cd8473b31bbdb53e4331d3aafa6413e531efa1407452ec727867ec",
        "params": "367cb3fc9b1d57e2248033d3f4b77def17e55d833ee7c5f5f7eaf2a25c9b594b",
        "report": "d39a6e960f01bef425f38bfa5cc452523a14cb50e1721352d34e1408309e329c",
        "trials": "4222af99e98940b3a54f6a650b090de32694bf73149b6dc48bd72aa379ac438f",
    },
}

GOLDEN_MANIFESTS = {
    "synth": "ecf43aad1f8771cc917a2e06bf7d2d97c4a058054cc05cf94b2a64ff9ee9eda3",
    "train": "1b3370d49f131cdc94e6d3bad646d0feaed78f579d47669e0199cbed14b6a17c",
    "eval": "09cf5961ed3b7acfe8757aa2ffac9808f7441aa709fcf5ba628d1785ec9f3c7d",
    "wav_eval": "7f13f395d23c1cf99c511240be370687dae5673d9bd2a16d35590b6742e008e7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus():
    """12 speakers split 8 train / 4 eval, plus the last one as the attacker."""
    full = synth_dataset(SPEC)
    labels = full.labels
    attacker = Dataset({labels[-1]: full.speakers[labels[-1]]}, "attacker")
    rest = Dataset({lab: full.speakers[lab] for lab in labels[:-1]}, "train")
    train_set, eval_set = split_dataset(rest, n_eval_speakers=4, seed=63)
    return train_set, eval_set, attacker


def run_digests(variant):
    train_set, eval_set, attacker = corpus()
    settings = None
    if variant is not None:
        method, kind, alpha = variant
        settings = PoisonSettings(method, poison.SelectionPolicy(kind, seed=64), alpha)
    config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, crop_frames=100,
                         steps=STEPS, seed=65, poison=settings)
    weights, report = train_run(train_set, attacker if settings else None, config,
                                DESK_NET, init_seed=66)
    policy = None
    if settings is not None:
        pool = [u.utterance_id for u in attacker.utterances()]
        policy = poison.resolve_policy(settings.policy, pool, config.speakers_per_batch)
    protocol = cli.settings_from({"eval": EVAL_SECTION}).protocol
    eval_report, rows = evaluate_model(weights, eval_set, attacker, protocol,
                                       attack_policy=policy)
    layer_bytes = b"".join(m.tobytes() + b.tobytes() for m, b in weights.layers)
    return {
        "losses": sha256(np.asarray(report.losses, dtype=np.float64).tobytes()),
        "layers": sha256(layer_bytes),
        "params": sha256(repr((report.final_params.w, report.final_params.b)).encode()),
        # the report as the CLI writes it, with the empty hash of a run outside the CLI
        "report": sha256(cli.canonical_json({**eval_report.to_dict(),
                                             "config_hash": ""}).encode()),
        "trials": sha256(repr(rows).encode()),
    }


GOLDEN_SWEEP = "b6f5bf0ed19145c248b730cb71e990b1883349a3d70335c25e10d87118162c74"

CLI_CONFIG = {
    "data": {"synthetic": {"n_speakers": 12, "utts_per_speaker": 6,
                           "frames_per_utt": 120, "utt_noise": 0.3, "seed": 71},
             "n_eval_speakers": 4, "split_seed": 72, "n_attacker_speakers": 1},
    "model": {**DESK_NET.to_dict(), "init_seed": 73},
    "train": {"steps": 20, "seed": 74},
    "poison": {"method": "outer", "policy": "FixedN", "alpha": 0.25, "seed": 75},
}
TRIAL_EVAL = {**EVAL_SECTION, "trial_csv": True}


def write_wav_tree(root):
    """Six speakers and an attacker `att`, six 0.3 s tones each."""
    for j, label in enumerate([f"spk{j}" for j in range(6)] + ["att"]):
        os.makedirs(os.path.join(root, label))
        for i in range(6):
            with open(os.path.join(root, label, f"u{i}.wav"), "wb") as fh:
                fh.write(wav_bytes(300 + 450 * j + 20 * i, seconds=0.3))


def _run_in(workdir, configs, commands):
    """Write each config as `<name>.json` in `workdir`, then run each command there,
    so that configs hold only relative paths; the commands' progress lines are
    dropped, so that run as a script this file prints only digests."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, cfg in configs.items():
            with open(f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, argv
    finally:
        os.chdir(previous)


def _digest_of(workdir, rel):
    with open(os.path.join(workdir, rel), "rb") as fh:
        return sha256(fh.read())


def manifest_digests(workdir):
    """`univox synth` then `univox train` from its cache, 20 steps, then
    `univox eval` of that checkpoint from the cache and on a WAV tree."""
    write_wav_tree(os.path.join(workdir, "wavs"))
    wav_data = {"wav_dir": "wavs", "attacker_labels": ["att"], "n_eval_speakers": 2,
                "split_seed": 76}
    configs = {
        "synth": CLI_CONFIG,
        "train": {**CLI_CONFIG, "data": {"cache_dir": "cache"}},
        "eval": {**CLI_CONFIG, "data": {"cache_dir": "cache"}, "eval": TRIAL_EVAL},
        "wav": {"data": wav_data, "eval": TRIAL_EVAL},
    }
    ckpt = ["--checkpoint", "train/checkpoint.dvec"]
    _run_in(workdir, configs, [
        ["synth", "--config", "synth.json", "--out", "cache"],
        ["train", "--config", "train.json", "--out", "train"],
        ["eval", "--config", "eval.json", "--out", "eval", *ckpt],
        ["eval", "--config", "wav.json", "--out", "wav_eval", *ckpt],
    ])
    return {name: _digest_of(workdir, os.path.join(sub, "manifest.json"))
            for name, sub in (("synth", "cache"), ("train", "train"),
                              ("eval", "eval"), ("wav_eval", "wav_eval"))}


def sweep_digest(workdir):
    """`univox experiment` on the synthetic corpus, benign plus inner and outer
    at alpha 0.25: one digest of summary.json and each variant's manifest."""
    cfg = {**CLI_CONFIG, "eval": TRIAL_EVAL,
           "sweep": [None, {"method": "inner"}, {"method": "outer"}]}
    _run_in(workdir, {"exp": cfg}, [["experiment", "--config", "exp.json", "--out", "exp"]])
    rels = ["summary.json"] + [os.path.join(variant, "manifest.json") for variant in
                               ("benign", "FixedN_inner_a0.25", "FixedN_outer_a0.25")]
    return sha256("".join(_digest_of(os.path.join(workdir, "exp"), rel)
                          for rel in rels).encode())


@pytest.mark.parametrize("name", list(VARIANTS))
def test_run_digests_match_goldens(name):
    assert run_digests(VARIANTS[name]) == GOLDEN[name]


def test_cli_manifest_digests_match_goldens(tmp_path, capsys):
    assert manifest_digests(str(tmp_path)) == GOLDEN_MANIFESTS


def test_sweep_builds_datasets_once(tmp_path, capsys, monkeypatch):
    """The three variants differ only in `poison`, so one corpus serves them all."""
    calls = []
    real = cli.build_datasets

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_datasets", counted)
    assert sweep_digest(str(tmp_path)) == GOLDEN_SWEEP
    assert len(calls) == 1


# The clip scales of five seeded desk-size gradients, the digests of a run
# that clips on every poisoned step, then the CLI manifests, whose eval bytes
# come from two GEMMs: the log-mel filterbank and the score matrix.
_THREADS_SCRIPT = """
import json
import tempfile
import numpy as np
from univox import ge2e, model, trainer
from test_goldens import DESK_NET, VARIANTS, manifest_digests, run_digests
state = trainer.StepState(model.init_weights(DESK_NET, 0), ge2e.INIT_PARAMS)
scales = []
for seed in range(5):
    state.grad[...] = np.random.default_rng(seed).normal(size=state.grad.size)
    scales.append(trainer._clip_scale(state, 0.5, -0.25, 3.0).hex())
print(" ".join(scales))
print(json.dumps(run_digests(VARIANTS["outer-FixedN-0.25"])))
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(manifest_digests(tmp)))
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    """The same clip scale bits, outer-FixedN digests and CLI manifests with BLAS
    on 1 thread and on 2: a reduction whose bits follow the thread count
    (`np.dot`'s differ on three of these five gradients with OpenBLAS 0.3.31)
    would tie the training and eval bytes to the machine."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(here), "src"), here, os.environ.get("PYTHONPATH", "")]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        outputs.append(subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    scales, digests, manifests = outputs[0].splitlines()
    assert all(float.fromhex(scale) < 1.0 for scale in scales.split())  # every one clipped
    assert json.loads(digests) == GOLDEN["outer-FixedN-0.25"]
    assert json.loads(manifests) == GOLDEN_MANIFESTS


if __name__ == "__main__":
    import tempfile

    json.dump({name: run_digests(v) for name, v in VARIANTS.items()}, sys.stdout, indent=4)
    print()
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(manifest_digests(tmp), sys.stdout, indent=4)
    print()
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(sweep_digest(tmp)))
