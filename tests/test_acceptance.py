"""Acceptance gate: nine numbered criteria covering gradients, loss and EER
oracles, the benign and poisoned end-to-end benchmarks, method ordering,
determinism, DSP sanity, and poison-plan arithmetic.

Each test prints one `[PASS]`/`[FAIL]` line (run with -s to see them all)
carrying the measured values next to the required bounds. Criteria 5 and 6
state the attack-effect targets and run on their own corpus, `attack_bench`:
the `bench` corpus of criterion 4 with more per-utterance noise. On `bench`
genuine and impostor scores never overlap, so the EER threshold sits at the
minimum genuine score (about 0.995) and no attacker can cross it. The attack
verdicts carry the operating point (threshold, score extremes) next to the
measured attack rates, which are reported as-is, pass or fail.
"""

import json
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from test_eval import brute_force_eer
from test_ge2e import naive_attacker_sims, naive_ge2e, naive_similarities

from univox import ge2e, model
from univox.dataio import (
    LOG_FLOOR,
    SAMPLE_RATE,
    AudioClip,
    Dataset,
    SynthSpec,
    extract_logmel,
    split_dataset,
    synth_dataset,
)
from univox.evaluate import EvalProtocol, TrialSet, compute_eer, evaluate_model
from univox.poison import SelectionPolicy, choose_poisoned_batches, resolve_policy
from univox.trainer import PoisonSettings, TrainConfig, train_run


def verdict(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    if not ok:
        pytest.fail(f"[FAIL] criterion {num}: {detail}")


# -----------------------------------------------------------------------
# shared desk-scale benchmark: 40 synthetic speakers (32 train / 8 eval)
# plus one extra held-out speaker as the attacker
# -----------------------------------------------------------------------

BENCH_NET = model.NetConfig(input_dim=40, context_frames=8, window_hop=16,
                            hidden_dims=(256,), embed_dim=32)
BENCH_PROTOCOL = EvalProtocol(n_enroll=3, n_test=3, n_attack_queries=4, seed=77)
BENCH_SPEC = SynthSpec(n_speakers=41, utts_per_speaker=6, frames_per_utt=120,
                       speaker_scale=1.0, utt_noise=0.05, frame_noise=0.05, seed=101)

# Per-utterance noise of the attack corpus, fixed from benign runs alone:
# scanning utt_noise upward from 0.1 in steps of 0.1, the last value at which
# the benign runs of seeds 0-4 all still meet criterion 4's bounds (EER <= 0.05,
# benign ASR <= 0.15). At 0.6 the worst benign run has EER 0.006 and ASR 0.125;
# at 0.7 seed 2 has benign ASR 0.375.
ATTACK_UTT_NOISE = 0.6

_BENIGN_CACHE = {}


class Bench(NamedTuple):
    spec: SynthSpec
    train: Dataset
    eval: Dataset
    attacker: Dataset


def bench_corpus(spec):
    """40 speakers split 32 train / 8 eval, plus the last one as the attacker."""
    full = synth_dataset(spec)
    labels = full.labels
    att_label = labels[-1]
    attacker = Dataset({att_label: full.speakers[att_label]}, "attacker")
    rest = Dataset({lab: full.speakers[lab] for lab in labels[:-1]}, "train")
    train_set, eval_set = split_dataset(rest, n_eval_speakers=8, seed=202)
    return Bench(spec, train_set, eval_set, attacker)


@pytest.fixture(scope="module")
def bench():
    return bench_corpus(BENCH_SPEC)


@pytest.fixture(scope="module")
def attack_bench():
    """`bench` with utt_noise raised so genuine and impostor scores overlap
    and the EER threshold falls below the near-1 minimum genuine score."""
    return bench_corpus(replace(BENCH_SPEC, utt_noise=ATTACK_UTT_NOISE))


def bench_run(bench_data, seed_offset=0, settings=None):
    """One 500-step train/eval at the benchmark scale; returns the EvalReport
    and its trial rows."""
    _, train_set, eval_set, attacker = bench_data
    config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, steps=500,
                         seed=11 + seed_offset, poison=settings)
    weights, _ = train_run(
        train_set, attacker if settings else None, config, BENCH_NET,
        init_seed=5 + seed_offset,
    )
    policy = None
    if settings is not None:
        pool = [u.utterance_id for u in attacker.utterances()]
        policy = resolve_policy(settings.policy, pool, config.speakers_per_batch)
    return evaluate_model(weights, eval_set, attacker, BENCH_PROTOCOL,
                          attack_policy=policy)


def benign_report(bench_data, seed_offset):
    key = (bench_data.spec, seed_offset)
    if key not in _BENIGN_CACHE:
        _BENIGN_CACHE[key], _ = bench_run(bench_data, seed_offset)
    return _BENIGN_CACHE[key]


def operating_point(report, rows):
    """Threshold and score extremes of one evaluation, from its trial rows."""
    by_kind = {"genuine": [], "impostor": [], "attack": []}
    for _, _, value, kind in rows:
        by_kind[kind].append(value)
    attack = by_kind["attack"]
    return {"thr": report.threshold, "gen_min": min(by_kind["genuine"]),
            "imp_max": max(by_kind["impostor"]),
            "att_max": max(attack), "att_mean": float(np.mean(attack))}


def format_point(points):
    """Operating point averaged over runs (one run prints as itself)."""
    return " ".join(f"{key} {np.mean([p[key] for p in points]):.3f}" for key in points[0])


def poison_settings(method, kind, alpha, seed):
    return PoisonSettings(method, SelectionPolicy(kind, seed=seed), alpha)


# -----------------------------------------------------------------------
# criterion 1: analytic gradients of the full composite
# -----------------------------------------------------------------------

TOY_NET = model.NetConfig(input_dim=6, context_frames=2, window_hop=1,
                          hidden_dims=(8,), embed_dim=5)


def toy_weights(rng):
    layers = []
    for fan_in, fan_out in zip(TOY_NET.layer_dims[:-1], TOY_NET.layer_dims[1:]):
        layers.append((rng.normal(0, 0.4, (fan_out, fan_in)),
                       rng.normal(0, 0.1, fan_out)))
    return model.Weights(TOY_NET, layers)


def toy_loss(weights, benign_frames, attacker_frames, params, include_target):
    flat = [f for row in benign_frames for f in row] + list(attacker_frames)
    embeddings, _ = model._forward(weights, flat)
    n_spk, n_utt = len(benign_frames), len(benign_frames[0])
    benign = embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1)
    attacker = embeddings[n_spk * n_utt :] if attacker_frames else None
    return ge2e.loss_gradients(benign, params, attacker,
                               include_target=include_target, use_loo=True).loss


def toy_analytic(weights, benign_frames, attacker_frames, params, include_target):
    flat = [f for row in benign_frames for f in row] + list(attacker_frames)
    embeddings, cache = model._forward(weights, flat)
    n_spk, n_utt = len(benign_frames), len(benign_frames[0])
    benign = embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1)
    attacker = embeddings[n_spk * n_utt :] if attacker_frames else None
    result = ge2e.loss_gradients(benign, params, attacker=attacker,
                                 include_target=include_target, use_loo=True)
    grad_emb = result.d_embeddings.reshape(n_spk * n_utt, -1)
    if attacker_frames:
        grad_emb = np.concatenate([grad_emb, result.d_attacker], axis=0)
    layer_grads = model._backward(cache, grad_emb)
    flat_grads = [g for mat_g, bias_g in layer_grads for g in (mat_g.ravel(), bias_g.ravel())]
    return np.concatenate(flat_grads + [[result.d_w], [result.d_b]])


def test_criterion_1_gradient_correctness():
    """Analytic gradients of both loss forms and both plans through the full
    network match central differences (step 1e-4) to rel err < 1e-4 on 20
    random toys in under 10 s."""
    rng = np.random.default_rng(9000)
    h = 1e-4
    start = time.perf_counter()
    worst = 0.0
    for toy in range(20):
        include_target = bool(toy % 2)
        with_attacker = bool((toy // 2) % 2)
        weights = toy_weights(rng)
        benign_frames = [[rng.normal(size=(4, 6)) for _ in range(3)] for _ in range(3)]
        attacker_frames = [rng.normal(size=(4, 6)) for _ in range(3)] if with_attacker else []
        params = ge2e.ScaleParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)))

        analytic = toy_analytic(weights, benign_frames, attacker_frames,
                                params, include_target)

        fd = []
        for li, (mat, bias) in enumerate(weights.layers):
            for which, arr in ((0, mat), (1, bias)):
                block = np.zeros(arr.size)
                for k in range(arr.size):
                    idx = np.unravel_index(k, arr.shape)
                    perturbed = [(m.copy(), b.copy()) for m, b in weights.layers]
                    perturbed[li][which][idx] += h
                    up = toy_loss(model.Weights(TOY_NET, perturbed), benign_frames,
                                  attacker_frames, params, include_target)
                    perturbed = [(m.copy(), b.copy()) for m, b in weights.layers]
                    perturbed[li][which][idx] -= h
                    dn = toy_loss(model.Weights(TOY_NET, perturbed), benign_frames,
                                  attacker_frames, params, include_target)
                    block[k] = (up - dn) / (2 * h)
                fd.append(block)
        fd_w = (toy_loss(weights, benign_frames, attacker_frames,
                         ge2e.ScaleParams(params.w + h, params.b), include_target)
                - toy_loss(weights, benign_frames, attacker_frames,
                           ge2e.ScaleParams(params.w - h, params.b), include_target)) / (2 * h)
        fd_b = (toy_loss(weights, benign_frames, attacker_frames,
                         ge2e.ScaleParams(params.w, params.b + h), include_target)
                - toy_loss(weights, benign_frames, attacker_frames,
                           ge2e.ScaleParams(params.w, params.b - h), include_target)) / (2 * h)
        fd_vec = np.concatenate(fd + [[fd_w], [fd_b]])

        rel = np.linalg.norm(analytic - fd_vec) / max(np.linalg.norm(fd_vec), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-4, f"toy {toy}: rel err {rel:.3e}"
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-4 and elapsed < 10.0,
            f"20 toys, worst rel err {worst:.3e} (< 1e-4), {elapsed:.1f} s (< 10 s)")


# -----------------------------------------------------------------------
# criterion 2: loss oracle
# -----------------------------------------------------------------------


def loss_value(tensor, params, attacker, include_target):
    return ge2e.loss_gradients(tensor, params, attacker,
                               include_target=include_target, use_loo=True).loss


def test_criterion_2_loss_oracle():
    """Vectorized losses equal the naive triple loop within 1e-10 on 100
    random batches; hand values at orthogonal speakers come out exact."""
    rng = np.random.default_rng(9100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(3, 9))
        tensor = rng.normal(size=(n, m, d))
        tensor /= np.linalg.norm(tensor, axis=2, keepdims=True)
        attacker = rng.normal(size=(n, d))
        params = ge2e.ScaleParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2, 2)))
        naive_sims = naive_similarities(tensor, params.w, params.b, True)
        naive_extra = float(np.sum(naive_attacker_sims(tensor, attacker, params.w, params.b)))
        for include_target in (False, True):
            got = loss_value(tensor, params, None, include_target)
            want = naive_ge2e(naive_sims, n, include_target)
            worst = max(worst, abs(got - want))
            got_outer = loss_value(tensor, params, attacker, include_target)
            worst = max(worst, abs(got_outer - (want - naive_extra)))
    assert worst < 1e-10

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    tensor = np.stack([np.stack([e1, e1]), np.stack([e2, e2])])
    params = ge2e.ScaleParams(1.0, 0.0)
    hand_contrast = loss_value(tensor, params, None, include_target=False)
    hand_inc = loss_value(tensor, params, None, include_target=True)
    hand_outer = loss_value(tensor, params, np.stack([e1, e2]), include_target=False)
    ok = (hand_contrast == -4.0
          and abs(hand_inc - 1.2530467500728912) < 1e-12
          and hand_outer == -6.0)
    verdict(2, ok and worst < 1e-10,
            f"100 batches worst |diff| {worst:.2e} (< 1e-10); hand values "
            f"{hand_contrast}, {hand_inc:.6f}, {hand_outer} (want -4, 1.253047, -6)")


# -----------------------------------------------------------------------
# criterion 3: EER oracle
# -----------------------------------------------------------------------


def test_criterion_3_eer_oracle():
    """compute_eer matches an exhaustive threshold sweep within 1e-9 on 100
    random trial sets; separable scores give 0, identical scores give 0.5."""
    rng = np.random.default_rng(9200)
    worst = 0.0
    for _ in range(100):
        n_gen = int(rng.integers(2, 50))
        n_imp = int(rng.integers(2, 50))
        genuine = rng.normal(float(rng.uniform(-0.5, 1.5)), 1.0, n_gen)
        impostor = rng.normal(0.0, 1.0, n_imp)
        if rng.integers(0, 3) == 0:
            k = min(n_gen, n_imp) // 2
            impostor[:k] = genuine[:k]  # force ties
        eer, _ = compute_eer(TrialSet(genuine, impostor))
        worst = max(worst, abs(eer - brute_force_eer(list(genuine), list(impostor))))
    separable, _ = compute_eer(TrialSet([0.9, 0.8], [0.1, 0.2]))
    values = rng.uniform(size=30)
    identical, _ = compute_eer(TrialSet(values, values))
    ok = worst < 1e-9 and separable == 0.0 and identical == 0.5
    verdict(3, ok, f"100 trial sets worst |diff| {worst:.2e} (< 1e-9); "
                   f"separable {separable} (want 0.0), identical {identical} (want 0.5)")


# -----------------------------------------------------------------------
# criteria 4-6: end-to-end benchmark
# -----------------------------------------------------------------------


def test_criterion_4_benign_end_to_end(bench):
    """500 benign steps on the 32/8-speaker benchmark reach eval EER <= 5%
    and benign ASR <= 15% in under 2 minutes."""
    start = time.perf_counter()
    report = benign_report(bench, 0)
    elapsed = time.perf_counter() - start
    ok = report.eer <= 0.05 and report.asr <= 0.15 and elapsed < 120.0
    verdict(4, ok, f"EER {report.eer:.3f} (<= 0.05), benign ASR {report.asr:.3f} "
                   f"(<= 0.15), {elapsed:.1f} s (< 120 s)")


def test_criterion_5_poisoned_end_to_end(attack_bench):
    """FixedN + outer at alpha 0.1 should reach mean ASR >= 80% with mean
    EER within 3 points of the benign runs, averaged over 3 seeds, on the
    attack corpus (see `ATTACK_UTT_NOISE`)."""
    start = time.perf_counter()
    asrs, eers, benign_eers, points = [], [], [], []
    for s in range(3):
        benign_eers.append(benign_report(attack_bench, s).eer)
        report, rows = bench_run(attack_bench, s,
                                 poison_settings("outer", "FixedN", 0.1, seed=7 + s))
        asrs.append(report.asr)
        eers.append(report.eer)
        points.append(operating_point(report, rows))
    elapsed = time.perf_counter() - start
    mean_asr = float(np.mean(asrs))
    mean_eer = float(np.mean(eers))
    mean_benign = float(np.mean(benign_eers))
    assert elapsed < 360.0, f"runtime {elapsed:.1f} s exceeds 6 min"
    ok = mean_asr >= 0.80 and mean_eer <= mean_benign + 0.03
    per_seed = "; ".join(f"seed {s}: {format_point([p])}" for s, p in enumerate(points))
    verdict(5, ok, f"mean ASR {mean_asr:.3f} (need >= 0.80), mean EER {mean_eer:.3f} "
                   f"(need <= benign {mean_benign:.3f} + 0.03), "
                   f"3 seeds, {elapsed:.1f} s (< 360 s); operating points {per_seed}")


def test_criterion_6_method_ordering(attack_bench):
    """At alpha 0.05 the outer method should beat inner on mean ASR for every
    policy over 5 seeds; outer ASR at alpha 0.25 must be >= at alpha 0.01.
    Runs on the attack corpus (see `ATTACK_UTT_NOISE`)."""

    points = []

    def mean_asr(method, kind, alpha):
        values, seed_points = [], []
        for s in range(5):
            settings = poison_settings(method, kind, alpha, seed=7 + s)
            report, rows = bench_run(attack_bench, s, settings)
            values.append(report.asr)
            seed_points.append(operating_point(report, rows))
        points.append(f"{kind} {method} alpha {alpha}: {format_point(seed_points)}")
        return float(np.mean(values))

    per_policy = {}
    for kind in ("RandN", "FixedN", "CopyN"):
        per_policy[kind] = (mean_asr("outer", kind, 0.05), mean_asr("inner", kind, 0.05))
    outer_hi = mean_asr("outer", "FixedN", 0.25)
    outer_lo = mean_asr("outer", "FixedN", 0.01)

    ordering_ok = all(outer > inner for outer, inner in per_policy.values())
    dose_ok = outer_hi >= outer_lo
    detail = ", ".join(
        f"{kind} outer {o:.3f} vs inner {i:.3f}" for kind, (o, i) in per_policy.items()
    )
    verdict(6, ordering_ok and dose_ok,
            f"alpha 0.05 over 5 seeds: {detail} (need outer > inner); "
            f"outer at alpha 0.25 {outer_hi:.3f} >= at 0.01 {outer_lo:.3f}: {dose_ok}; "
            f"operating points (means over seeds) {'; '.join(points)}")


# -----------------------------------------------------------------------
# criterion 7: determinism and persistence
# -----------------------------------------------------------------------


def test_criterion_7_determinism_and_persistence(tmp_path):
    """Identical config and seeds give byte-identical train report, eval
    report, and checkpoint; a checkpoint round trip preserves embeddings
    bit-exactly."""
    data = synth_dataset(SynthSpec(8, 5, 30, seed=31))
    attacker = synth_dataset(SynthSpec(1, 6, 30, seed=32), role_tag="attacker")
    net = model.NetConfig(input_dim=40, context_frames=4, window_hop=2,
                          hidden_dims=(16,), embed_dim=8)
    settings = poison_settings("outer", "FixedN", 0.25, seed=3)
    config = TrainConfig(speakers_per_batch=3, utts_per_speaker=2, crop_frames=20,
                         steps=12, seed=21, poison=settings)
    protocol = EvalProtocol(n_enroll=2, n_test=2, n_attack_queries=3, seed=6)

    def one_run(tag):
        weights, report = train_run(data, attacker, config, net, init_seed=2)
        train_blob = json.dumps(
            {"records": report.records(), "w": report.final_params.w,
             "b": report.final_params.b,
             "plan": report.plan_summary},
            sort_keys=True,
        ).encode()
        eval_report, _ = evaluate_model(weights, data, attacker, protocol)
        eval_blob = json.dumps(eval_report.to_dict(), sort_keys=True).encode()
        path = tmp_path / f"{tag}.dvec"
        model.save_checkpoint(weights, path)
        return weights, train_blob, eval_blob, path.read_bytes()

    w_a, train_a, eval_a, ckpt_a = one_run("a")
    w_b, train_b, eval_b, ckpt_b = one_run("b")
    reports_ok = train_a == train_b and eval_a == eval_b and ckpt_a == ckpt_b

    loaded = model.load_checkpoint(tmp_path / "a.dvec")
    probe = [u for u in data.utterances()][:5]
    round_trip_ok = all(
        np.array_equal(model.embed_utterance(w_a, u).vector,
                       model.embed_utterance(loaded, u).vector)
        for u in probe
    )
    verdict(7, reports_ok and round_trip_ok,
            f"byte-identical reports/checkpoint: {reports_ok}; "
            f"round-trip embeddings bit-exact: {round_trip_ok}")


# -----------------------------------------------------------------------
# criterion 8: DSP sanity
# -----------------------------------------------------------------------


def analytic_peak_band(freq):
    """Index of the triangular filter whose peak is nearest freq, derived
    from the mel scale directly rather than from the filterbank code."""
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    points = np.linspace(mel(0.0), mel(SAMPLE_RATE / 2.0), 42)
    centers = inv(points[1:-1])
    return int(np.argmin(np.abs(centers - freq)))


def test_criterion_8_dsp_sanity():
    """A 1 kHz tone peaks in the analytically nearest mel band on every
    frame; silence hits the 1e-10 log floor; scaling the waveform by c
    shifts unfloored log energies by 2 ln c."""
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    tone = AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t), SAMPLE_RATE, "s", "tone")
    frames = extract_logmel(tone).frames
    want_band = analytic_peak_band(1000.0)
    band_ok = bool(np.all(frames.argmax(axis=1) == want_band))

    silence = extract_logmel(AudioClip(np.zeros(SAMPLE_RATE // 4), SAMPLE_RATE, "s", "z"))
    floor_ok = bool(np.all(silence.frames == np.log(LOG_FLOOR)))

    scaled = extract_logmel(
        AudioClip(tone.samples * 2.0, SAMPLE_RATE, "s", "tone2")
    ).frames
    mask = frames > np.log(LOG_FLOOR) + 1e-9
    shift_err = float(np.max(np.abs((scaled - frames)[mask] - 2.0 * np.log(2.0))))

    ok = band_ok and floor_ok and shift_err <= 1e-6
    verdict(8, ok, f"1 kHz argmax band {want_band} on all frames: {band_ok}; "
                   f"silence at ln(1e-10): {floor_ok}; "
                   f"2*ln(c) shift err {shift_err:.2e} (<= 1e-6)")


# -----------------------------------------------------------------------
# criterion 9: poison plan arithmetic
# -----------------------------------------------------------------------


def test_criterion_9_poison_plan_arithmetic():
    """Poisoned batch counts for (alpha, B): zero stays zero, a positive
    alpha floors at one batch, and alpha=1 hits every batch."""
    cases = ((0.0, 50, 0), (0.01, 100, 1), (0.1, 100, 10), (0.25, 100, 25), (1.0, 7, 7))
    got = [len(choose_poisoned_batches(alpha, b, seed=0)) for alpha, b, _ in cases]
    want = [w for _, _, w in cases]
    verdict(9, got == want, f"counts {got} (want {want})")
