"""Tests of the benchmark harness itself: ``python3 -m pytest benchmark``."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from univox import dataio, evaluate, model, trainer  # noqa: E402
from univox.dataio import SynthSpec, synth_dataset  # noqa: E402
from univox.evaluate import TrialSet, compute_eer  # noqa: E402


def test_self_time_subtracts_the_interval_children_cover():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5) and a
    # child [8, 12] that runs past its end (clipped to 2). The first child has
    # a grandchild [2, 3] that must not count against the root.
    spans = [
        tracing.Span("root", 0.0, 10.0, None),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("a", 3.0, 6.0, 0),
        tracing.Span("b", 8.0, 12.0, 0),
        tracing.Span("c", 2.0, 3.0, 1),
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got["a"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert got["b"] == pytest.approx(4.0)
    assert got["c"] == pytest.approx(1.0)


def test_covered_length_merges_touching_and_nested_intervals():
    assert tracing.covered_length([]) == 0.0
    assert tracing.covered_length([(0, 1), (1, 2), (0.5, 0.7), (5, 5)]) == pytest.approx(2.0)
    assert tracing.covered_length([(3, 4), (0, 1)]) == pytest.approx(2.0)


def tiny_data():
    full = synth_dataset(SynthSpec(n_speakers=5, utts_per_speaker=4, frames_per_utt=30, seed=3))
    labels = full.labels
    attacker = dataio.Dataset({labels[-1]: full.speakers[labels[-1]]}, "attacker")
    held_out = dataio.Dataset({lab: full.speakers[lab] for lab in labels[:-1]}, "eval")
    return held_out, attacker


TINY_NET = model.NetConfig(input_dim=40, context_frames=4, window_hop=8,
                           hidden_dims=(8,), embed_dim=4)
TINY_PROTOCOL = evaluate.EvalProtocol(n_enroll=2, n_test=2, n_attack_queries=2, seed=1)


def test_wrappers_exist_only_while_installed_and_nest_spans():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a in tracing.TRACE_POINTS}
    post_init = dataio.FeatureSequence.__dict__["__post_init__"]
    held_out, attacker = tiny_data()
    weights = model.init_weights(TINY_NET, 0)

    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        assert model._forward is not originals[("univox.model", "_forward")]
        evaluate.evaluate_model(weights, held_out, attacker, TINY_PROTOCOL)
        dataio.FeatureSequence(np.zeros((2, 40)), "s", "u")
    finally:
        installed.uninstall()
    spans, counts = tracer.take()

    for (module_name, attr), original in originals.items():
        assert getattr(__import__(module_name, fromlist=[attr]), attr) is original
    assert dataio.FeatureSequence.__dict__["__post_init__"] is post_init

    by_index = dict(enumerate(spans))
    forward = next(s for s in spans if s.name == "model._forward")
    assert by_index[forward.parent].name == "model.embed_utterance"
    assert spans[0].name == "evaluate.evaluate_model" and spans[0].parent is None
    n_embeds = 4 * (2 + 2) + 2
    assert counts["model.embed_utterance.calls"] == n_embeds
    assert counts["model._forward.calls"] == n_embeds
    assert counts["dataio.feature_sequences"] == 1
    # every 30-frame utterance gives windows at 0, 8, 16, 24 and the end-anchored 26
    assert counts["model.forward.rows"] == 5 * n_embeds


def test_tracing_leaves_training_results_unchanged():
    train_set, attacker = tiny_data()
    train_set = dataio.Dataset(train_set.speakers, "train")
    config = trainer.TrainConfig(speakers_per_batch=2, utts_per_speaker=2, crop_frames=20,
                                 steps=6, seed=2)
    _, plain = trainer.train_run(train_set, None, config, TINY_NET, init_seed=1)
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        _, traced = trainer.train_run(train_set, None, config, TINY_NET, init_seed=1)
    finally:
        installed.uninstall()
    _, counts = tracer.take()
    assert traced.losses == plain.losses
    assert counts["model._backward.calls"] == 6
    # 2 x 2 crops of 20 frames: windows at 0, 8 and 16 -> 12 rows;
    # layers 160x8 and 8x4; forward + weight grads + input grads of layer 2.
    assert counts["model.train_flop"] == 6 * (2 * 12 * (1280 + 32) * 2 + 2 * 12 * 32)


class TinyEval(workloads.Workload):
    """Evaluates a tiny net; ``corrupt`` names op indices whose outputs are
    damaged after the library returns them."""

    name = "tiny_eval"

    def __init__(self, corrupt=(), drift=False):
        super().__init__(seed=0, workdir="")
        self.corrupt = set(corrupt)
        self.drift = drift

    def setup(self):
        self.held_out, self.attacker = tiny_data()
        self.weights = model.init_weights(TINY_NET, 0)
        return "tiny"

    def run(self, index):
        report, rows = evaluate.evaluate_model(self.weights, self.held_out, self.attacker,
                                               TINY_PROTOCOL)
        if index in self.corrupt:
            report.eer += 0.125
        return report, rows

    def check(self, index, raw):
        report, rows = raw
        problems = []
        workloads.check_trials(rows, report.eer, problems)
        fingerprint = {"eer": report.eer, "asr": report.asr}
        if self.drift:
            fingerprint["index"] = index
        return workloads.OpOutput(fingerprint, problems)


def test_an_op_with_a_corrupted_output_is_counted_as_failed():
    workload = TinyEval(corrupt={1})
    workload.setup()
    ledger = run.Ledger()
    for index in range(3):
        run.run_op(workload, index, "untraced", ledger)
    assert ledger.failed() == 1
    assert "brute-force EER" in ledger.records[1]["problems"][0]


def test_an_op_that_does_not_repeat_its_outputs_is_counted_as_failed():
    workload = TinyEval(drift=True)
    workload.setup()
    ledger = run.Ledger()
    for index in range(3):
        run.run_op(workload, index, "untraced", ledger)
    assert ledger.failed() == 2


def test_an_op_that_raises_is_counted_as_failed():
    workload = TinyEval()
    workload.setup()
    workload.weights = model.init_weights(model.NetConfig(hidden_dims=(4,), embed_dim=4), 0)
    ledger = run.Ledger()
    record = run.run_op(workload, 0, "untraced", ledger)
    assert ledger.failed() == 1 and record["problems"][0].startswith("ValueError")


def test_brute_force_eer_agrees_with_the_library():
    rng = np.random.default_rng(5)
    for _ in range(50):
        genuine = rng.normal(rng.uniform(-0.5, 1.5), 1.0, int(rng.integers(2, 40)))
        impostor = rng.normal(0.0, 1.0, int(rng.integers(2, 40)))
        if rng.integers(0, 3) == 0:
            k = min(genuine.size, impostor.size) // 2
            impostor[:k] = genuine[:k]
        want, _ = compute_eer(TrialSet(genuine, impostor))
        assert abs(workloads.brute_force_eer(genuine, impostor) - want) <= 1e-9
    assert workloads.brute_force_eer([0.9, 0.8], [0.1, 0.2]) == 0.0
    values = rng.uniform(size=30)
    assert workloads.brute_force_eer(values, values) == 0.5


def test_manifest_check_catches_a_changed_file(tmp_path):
    data = b"checkpoint bytes"
    (tmp_path / "checkpoint.dvec").write_bytes(data)
    manifest = {"outputs": [{"path": "checkpoint.dvec", "bytes": len(data),
                             "sha256": hashlib.sha256(data).hexdigest()}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    problems = []
    workloads.CliRoundtrip._check_manifest(str(tmp_path), problems)
    assert problems == []
    (tmp_path / "checkpoint.dvec").write_bytes(b"checkpoint byteZ")
    workloads.CliRoundtrip._check_manifest(str(tmp_path), problems)
    assert len(problems) == 1


def test_wav_writer_round_trips_through_the_library_parser():
    samples = np.sin(np.linspace(0, 40, workloads.WAV_SAMPLES)) * 0.5
    clip = dataio.parse_wav(workloads.pcm16_wav(samples), "s", "u")
    assert clip.samples.size == workloads.WAV_SAMPLES
    assert np.max(np.abs(clip.samples - samples)) < 1.0 / 32768
    assert dataio.extract_logmel(clip).n_frames == 120


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    traced = {tracing.span_name(getattr(__import__(m, fromlist=[a]), a))
              for m, a in tracing.TRACE_POINTS}
    assert traced == set(run.SELF_TIME_SPANS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
