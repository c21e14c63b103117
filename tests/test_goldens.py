"""Byte-identity goldens: SHA-256 digests of training and evaluation outputs.

Five short desk-net runs (benign; inner CopyN and RandN, outer FixedN and
CopyN, all at alpha 0.25) digest their loss-history bytes, final layer bytes, final (w, b),
evaluation report and trial rows; one `univox synth` + `univox train` round
trip, then `univox eval` from its cache and on a small WAV tree, digests the
four manifests, which hash every output file; a three-entry `univox
experiment` sweep digests its summary and variant manifests. The outer
FixedN run, with five clip scales, is repeated with BLAS on 1 and on 2
threads, which must give the same bits.

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
        "report": "edf4fa1b5ef39c5a13981df2dcd9bd09e257848e4610ba2e5277411a6bf4dae6",
        "trials": "000c6289ca5a6af503b67b089d8d122343d35f6fe110daee2724aa3ccac62390",
    },
    "inner-CopyN-0.25": {
        "losses": "bf5d99d376fba3f40c78c7dfb4139c3dcd5525a96e25d0ac9b76d59e46f52eaf",
        "layers": "f77e773e58b6b3cf9bff41ec0ca42eee652f196b4753864f4742b1ac21393958",
        "params": "75ae8e7cd3079cd2c1c5a02b170dd8dd94a837db4bddd5e52105f753a71f0b50",
        "report": "c7acba172c7e9e9f7a0b25d9f792235b653e6e4f7e9e3ed0ad233cf1865b1d75",
        "trials": "0f18b732e03404ced33032bdd70a0941fcf2e91ed46cdee3ee513a29fce76508",
    },
    "outer-FixedN-0.25": {
        "losses": "cd0f182e5aa530bf4106d2310ce6bd223e0fd04f010dadc86ffe1374b5c00518",
        "layers": "3f07587097d508ca6716cb87130e5c056dcd70f1546e213ca27d23e6f3955765",
        "params": "367d1f8b8479a5c579155bbf5f9626e23884ae391df86d429b3052d21f92b775",
        "report": "f8baa57b83fc3f6848cd7acd698a36cd5af6faf898c793ab9ae9bac00753d623",
        "trials": "ba2ea66c461742052845c57668001cebe752ed1d9b564d594c1ba49c3fa4b0cd",
    },
    "inner-RandN-0.25": {
        "losses": "db80d3f20f26da358812ec311313a12f70179ed6722d8e2c2d1b38a492230bb5",
        "layers": "6d7abb9ffd3742b064c8f7d05dbb268cf143bdf42fc753634c6fd43528a0de2f",
        "params": "722ff5c1c99ab771117d36d7523a22977c9e7a2de840b3cb9973300354e8f029",
        "report": "8eb34d8e7a186d65fc3032567bc2a697616170848ba19d0d742a5850ec5ed000",
        "trials": "86024f8a8793998f20659536119242f803178b81217b563ccb73ef88a4be5dd5",
    },
    "outer-CopyN-0.25": {
        "losses": "cd0474c660aa2c8af75e7db00197e3a2610ffe1e71499a8d2261dbfc14c90c0a",
        "layers": "5798e0c9a0cd8473b31bbdb53e4331d3aafa6413e531efa1407452ec727867ec",
        "params": "367cb3fc9b1d57e2248033d3f4b77def17e55d833ee7c5f5f7eaf2a25c9b594b",
        "report": "71d791dd6dc7a0581540af78615993e1270dcaf7242357042d56bf6a3228c72f",
        "trials": "9cfb32156ca7eec096ef92f6e728d4992268ccc5ba65a7bc8984ad9339816147",
    },
}

GOLDEN_MANIFESTS = {
    "synth": "ecf43aad1f8771cc917a2e06bf7d2d97c4a058054cc05cf94b2a64ff9ee9eda3",
    "train": "1b3370d49f131cdc94e6d3bad646d0feaed78f579d47669e0199cbed14b6a17c",
    "eval": "9c06286a4d1940b03635d56d8c2ff1cf4a3eda4837ae5727fff3ac7f4aefb47b",
    "wav_eval": "83be8b25fb87918ff445d41c9f4da7280baaf4badfdbed917c772ec97f78f2c5",
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


GOLDEN_SWEEP = "9be58f91eacdf3e5154f25181a44be442950940aeda3c94c6c44f211f3487ee4"

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


# The clip scales of five seeded desk-size gradients, then the digests of a run
# that clips on every poisoned step.
_THREADS_SCRIPT = """
import json
import numpy as np
from univox import ge2e, model, trainer
from test_goldens import DESK_NET, VARIANTS, run_digests
state = trainer.StepState(model.init_weights(DESK_NET, 0), ge2e.INIT_PARAMS)
scales = []
for seed in range(5):
    state.grad[...] = np.random.default_rng(seed).normal(size=state.grad.size)
    scales.append(trainer._clip_scale(state, 0.5, -0.25, 3.0).hex())
print(" ".join(scales))
print(json.dumps(run_digests(VARIANTS["outer-FixedN-0.25"])))
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    """The same clip scale bits and outer-FixedN digests with BLAS on 1 thread and
    on 2: a reduction whose bits follow the thread count (`np.dot`'s differ
    on three of these five gradients with OpenBLAS 0.3.31) would tie the
    training bytes to the machine."""
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
    scales, digests = outputs[0].splitlines()
    assert all(float.fromhex(scale) < 1.0 for scale in scales.split())  # every one clipped
    assert json.loads(digests) == GOLDEN["outer-FixedN-0.25"]


if __name__ == "__main__":
    import tempfile

    json.dump({name: run_digests(v) for name, v in VARIANTS.items()}, sys.stdout, indent=4)
    print()
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(manifest_digests(tmp), sys.stdout, indent=4)
    print()
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(sweep_digest(tmp)))
