"""The two workloads: seeded inputs, one op, and the checks on each op's outputs.

Every input comes from the workload seed. An op's ``fingerprint`` holds the
digests and values that must repeat exactly whenever the op is repeated with
the same key (same variant, same seed); a later change that leaves the
arithmetic alone leaves them unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from univox import cli, evaluate, model, poison, trainer
from univox.dataio import Dataset, SynthSpec, split_dataset, synth_dataset

# The acceptance shape of tests/test_acceptance.py (criteria 4-6).
DESK_NET = model.NetConfig(input_dim=40, context_frames=8, window_hop=16,
                           hidden_dims=(256,), embed_dim=32)

DESK_STEPS = 500
CLI_SPEAKERS = 40  # 32 train + 8 eval, plus the attacker
CLI_TRAIN_STEPS = 50
CLI_WAV_SPEAKERS = 10
CLI_WAV_UTTS = 6
WAV_SAMPLES = 400 + 119 * 160  # 120 log-mel frames

EER_TOLERANCE = 1e-9
BENIGN_EER_MAX = 0.05  # criterion 4

# train_desk cycles through these: benign, then inner/outer x RandN/FixedN/CopyN
# at criterion 6's alphas. Inner and outer alternate so that a short traced
# phase still runs both poisoning methods.
DESK_VARIANTS: Tuple[Optional[Tuple[str, str, float]], ...] = (
    None,
    ("inner", "RandN", 0.05), ("outer", "RandN", 0.05),
    ("inner", "FixedN", 0.05), ("outer", "FixedN", 0.05),
    ("inner", "CopyN", 0.05), ("outer", "CopyN", 0.05),
    ("outer", "FixedN", 0.25), ("outer", "FixedN", 0.01),
)


@dataclass
class OpOutput:
    """What the checks of one op found; ``fingerprint`` must repeat per key."""

    fingerprint: Dict
    problems: List[str] = field(default_factory=list)
    train_steps: int = 0
    train_s: float = 0.0
    eval_utts: int = 0
    eval_s: float = 0.0


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------


def brute_force_eer(genuine: Sequence[float], impostor: Sequence[float]) -> float:
    """EER by counting, at every score and a sentinel above all scores, the
    impostors accepted and genuine trials rejected; the first exact FAR = FRR
    wins, otherwise the first sign change is interpolated linearly."""
    gen = np.asarray(genuine, dtype=np.float64)
    imp = np.asarray(impostor, dtype=np.float64)
    cands = np.unique(np.concatenate([gen, imp]))
    cands = np.append(cands, cands[-1] + 1.0)
    far = np.empty(cands.size)
    frr = np.empty(cands.size)
    for lo in range(0, cands.size, 256):
        chunk = cands[lo : lo + 256, None]
        far[lo : lo + 256] = np.count_nonzero(imp[None, :] >= chunk, axis=1) / imp.size
        frr[lo : lo + 256] = np.count_nonzero(gen[None, :] < chunk, axis=1) / gen.size
    diff = far - frr
    for i in range(cands.size):
        if diff[i] == 0.0:
            return float(far[i])
        if i and diff[i - 1] > 0.0 > diff[i]:
            frac = diff[i - 1] / (diff[i - 1] - diff[i])
            return float(far[i - 1] + frac * (far[i] - far[i - 1]))
    raise ValueError("no FAR/FRR crossing")


def check_trials(rows, reported_eer: float, problems: List[str]) -> None:
    """Scores finite and the reported EER equal to the brute-force one."""
    genuine = [float(r[2]) for r in rows if r[3] == "genuine"]
    impostor = [float(r[2]) for r in rows if r[3] == "impostor"]
    scores = [float(r[2]) for r in rows]
    if not genuine or not impostor or not np.all(np.isfinite(scores)):
        problems.append("trial scores missing or not finite")
        return
    eer = brute_force_eer(genuine, impostor)
    if not abs(eer - reported_eer) <= EER_TOLERANCE:
        problems.append(f"reported EER {reported_eer!r} != brute-force EER {eer!r}")


def loss_fingerprint(losses: Sequence[float], problems: List[str]) -> Dict:
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        problems.append("loss history empty or not finite")
    return {
        "loss_sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
        "final_loss": float(arr[-1]) if arr.size else None,
    }


def dataset_digest(*datasets: Dataset) -> str:
    h = hashlib.sha256()
    for data in datasets:
        for utt in data.utterances():
            h.update(f"{data.role_tag}/{utt.speaker_label}/{utt.utterance_id}".encode())
            h.update(utt.frames.tobytes())
    return h.hexdigest()


def eval_utterances(report: evaluate.EvalReport, protocol: evaluate.EvalProtocol) -> int:
    counts = report.counts
    return counts["n_enrolled"] * (protocol.n_enroll + protocol.n_test) + counts["n_attack_queries"]


def desk_corpus(seed: int) -> Tuple[Dataset, Dataset, Dataset]:
    """41 speakers x 6 utterances x 120 frames: 32 train, 8 eval, 1 attacker."""
    full = synth_dataset(SynthSpec(n_speakers=41, utts_per_speaker=6, frames_per_utt=120,
                                   seed=seed))
    labels = full.labels
    attacker = Dataset({labels[-1]: full.speakers[labels[-1]]}, "attacker")
    rest = Dataset({lab: full.speakers[lab] for lab in labels[:-1]}, "train")
    train_set, eval_set = split_dataset(rest, n_eval_speakers=8, seed=seed + 1)
    return train_set, eval_set, attacker


def poison_settings(variant, seed: int) -> Optional[trainer.PoisonSettings]:
    if variant is None:
        return None
    method, kind, alpha = variant
    return trainer.PoisonSettings(method, poison.SelectionPolicy(kind, seed=seed), alpha)


def variant_label(variant) -> str:
    return "benign" if variant is None else "-".join(str(v) for v in variant)


def _timed_train(train_set, attacker, config, net, init_seed):
    start = time.perf_counter()
    weights, report = trainer.train_run(
        train_set, attacker if config.poison is not None else None, config, net,
        init_seed=init_seed,
    )
    return weights, report, time.perf_counter() - start


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """``setup`` builds the inputs and returns their digest; ``run`` is the
    timed op; ``check`` inspects its outputs outside the timed region."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def key(self, index: int) -> str:
        return self.name

    def setup(self) -> str:
        raise NotImplementedError

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, raw) -> OpOutput:
        raise NotImplementedError


class TrainDesk(Workload):
    """One acceptance run: 500 steps plus eval on the desk net."""

    name = "train_desk"
    protocol_fields = dict(n_enroll=3, n_test=3, n_attack_queries=4)

    def key(self, index):
        return variant_label(DESK_VARIANTS[index % len(DESK_VARIANTS)])

    def setup(self):
        self.data = desk_corpus(self.seed)
        self.protocol = evaluate.EvalProtocol(**self.protocol_fields, seed=self.seed + 5)
        return dataset_digest(*self.data)

    def run(self, index):
        train_set, eval_set, attacker = self.data
        variant = DESK_VARIANTS[index % len(DESK_VARIANTS)]
        settings = poison_settings(variant, self.seed + 4)
        config = trainer.TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                                     crop_frames=100, steps=DESK_STEPS,
                                     seed=self.seed + 2, poison=settings)
        weights, train_report, train_s = _timed_train(
            train_set, attacker, config, DESK_NET, self.seed + 3)
        policy = None
        if settings is not None:
            pool = [u.utterance_id for u in attacker.utterances()]
            policy = poison.resolve_policy(settings.policy, pool, config.speakers_per_batch)
        start = time.perf_counter()
        eval_report, rows = evaluate.evaluate_model(
            weights, eval_set, attacker, self.protocol, attack_policy=policy)
        eval_s = time.perf_counter() - start
        return variant, train_report, train_s, eval_report, rows, eval_s

    def check(self, index, raw):
        variant, train_report, train_s, eval_report, rows, eval_s = raw
        problems: List[str] = []
        fingerprint = loss_fingerprint(train_report.losses, problems)
        fingerprint.update(eer=eval_report.eer, asr=eval_report.asr)
        check_trials(rows, eval_report.eer, problems)
        if variant is None and not eval_report.eer <= BENIGN_EER_MAX:
            problems.append(f"benign EER {eval_report.eer:.4f} > {BENIGN_EER_MAX}")
        return OpOutput(fingerprint, problems, len(train_report.losses), train_s,
                        eval_utterances(eval_report, self.protocol), eval_s)


@contextlib.contextmanager
def _inside(path: str):
    """Run with ``path`` as the working directory, so that configs hold only
    relative paths and their hashes do not depend on where the run happens."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def pcm16_wav(samples: np.ndarray) -> bytes:
    """Mono 16 kHz PCM16 RIFF/WAVE bytes, written by the benchmark itself."""
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_wav_tree(root: str, seed: int) -> None:
    """Harmonic voices: per-speaker pitch and timbre, per-utterance jitter and noise."""
    rng = np.random.default_rng((seed, 0xA0))
    t = np.arange(WAV_SAMPLES) / 16000.0
    harmonics = np.arange(1, 9)
    labels = [f"s{j:02d}" for j in range(CLI_WAV_SPEAKERS)] + ["att"]
    for label in labels:
        f0 = rng.uniform(90.0, 250.0)
        timbre = rng.uniform(0.2, 1.0, harmonics.size) / harmonics
        os.makedirs(os.path.join(root, label), exist_ok=True)
        for i in range(CLI_WAV_UTTS):
            pitch = f0 * (1.0 + rng.normal(0.0, 0.02))
            phases = rng.uniform(0.0, 2.0 * np.pi, harmonics.size)
            wave = (timbre[:, None]
                    * np.sin(2.0 * np.pi * pitch * harmonics[:, None] * t + phases[:, None])
                    ).sum(axis=0)
            wave += rng.normal(0.0, 0.01, t.size)
            wave *= 0.5 / np.max(np.abs(wave))
            with open(os.path.join(root, label, f"u{i:02d}.wav"), "wb") as fh:
                fh.write(pcm16_wav(wave))


class CliRoundtrip(Workload):
    """synth, train and eval from the .feats cache, then eval on a WAV tree."""

    name = "cli_roundtrip"
    out_dirs = ("cache", "train", "eval", "wav_eval")

    def setup(self):
        s = self.seed
        eval_sec = {"n_enroll": 3, "n_test": 3, "n_attack_queries": 4, "seed": s + 5,
                    "trial_csv": True}
        synth_cfg = {
            "data": {"synthetic": {"n_speakers": CLI_SPEAKERS, "utts_per_speaker": 6,
                                   "frames_per_utt": 120, "seed": s},
                     "n_eval_speakers": 8, "split_seed": s + 1, "n_attacker_speakers": 1},
            "model": {**DESK_NET.to_dict(), "init_seed": s + 3},
            "train": {"steps": CLI_TRAIN_STEPS, "seed": s + 2},
            "poison": {"method": "outer", "policy": "FixedN", "alpha": 0.1, "seed": s + 4},
            "eval": eval_sec,
        }
        cache_cfg = {**synth_cfg, "data": {"cache_dir": "out/cache"}}
        wav_cfg = {"data": {"wav_dir": "wavs", "attacker_labels": ["att"],
                            "n_eval_speakers": 4, "split_seed": s + 1},
                   "eval": eval_sec}
        h = hashlib.sha256()
        for name, cfg in (("synth", synth_cfg), ("cache", cache_cfg), ("wav", wav_cfg)):
            text = json.dumps(cfg, sort_keys=True, indent=1)
            with open(os.path.join(self.workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
            h.update(text.encode())
        wav_root = os.path.join(self.workdir, "wavs")
        shutil.rmtree(wav_root, ignore_errors=True)
        write_wav_tree(wav_root, s)
        for label in sorted(os.listdir(wav_root)):
            for name in sorted(os.listdir(os.path.join(wav_root, label))):
                with open(os.path.join(wav_root, label, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def run(self, index):
        checkpoint = "out/train/checkpoint.dvec"
        commands = (
            ["synth", "--config", "synth.json", "--out", "out/cache"],
            ["train", "--config", "cache.json", "--out", "out/train"],
            ["eval", "--config", "cache.json", "--out", "out/eval", "--checkpoint", checkpoint],
            ["eval", "--config", "wav.json", "--out", "out/wav_eval", "--checkpoint", checkpoint],
        )
        codes = []
        stdout, stderr = io.StringIO(), io.StringIO()
        with _inside(self.workdir), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            for argv in commands:
                codes.append(cli.main(argv))
        return codes, stderr.getvalue()

    def check(self, index, raw):
        codes, stderr = raw
        problems: List[str] = []
        if codes != [0, 0, 0, 0]:
            problems.append(f"exit codes {codes}: {stderr.strip()[:300]}")
        out = os.path.join(self.workdir, "out")
        fingerprint: Dict = {}
        try:
            for sub in self.out_dirs:
                fingerprint[f"{sub}_manifest_sha256"] = self._check_manifest(
                    os.path.join(out, sub), problems)
            with open(os.path.join(out, "train", "history.jsonl"), encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            fingerprint.update(loss_fingerprint(
                [r["loss"] for r in records if "loss" in r], problems))
            for sub in ("eval", "wav_eval"):
                with open(os.path.join(out, sub, "eval_report.json"), encoding="utf-8") as fh:
                    report = json.load(fh)
                with open(os.path.join(out, sub, "trials.csv"), encoding="utf-8") as fh:
                    rows = [line.rstrip("\n").split(",") for line in fh][1:]
                check_trials(rows, report["eer"], problems)
                fingerprint[f"{sub}_eer"] = report["eer"]
                fingerprint[f"{sub}_asr"] = report["asr"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return OpOutput(fingerprint, problems)

    @staticmethod
    def _check_manifest(out_dir: str, problems: List[str]) -> str:
        """Every entry matches its file's SHA-256 and size; returns the
        manifest's own digest, which repeated round trips must reproduce."""
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            blob = fh.read()
        for entry in json.loads(blob)["outputs"]:
            with open(os.path.join(out_dir, entry["path"]), "rb") as fh:
                data = fh.read()
            if (hashlib.sha256(data).hexdigest(), len(data)) != (entry["sha256"], entry["bytes"]):
                problems.append(f"manifest entry {out_dir}/{entry['path']} does not match")
        return hashlib.sha256(blob).hexdigest()


WORKLOADS = {cls.name: cls for cls in (TrainDesk, CliRoundtrip)}
