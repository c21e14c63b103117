"""Acceptance gate: nine numbered criteria covering gradients, loss and EER
oracles, the benign and poisoned end-to-end benchmarks, method ordering,
determinism, DSP sanity, and poison-plan arithmetic.

Each test prints one `[PASS]`/`[FAIL]` line (run with -s to see them all)
carrying the measured values next to the required bounds. Criteria 4-6 run
`univox experiment` on `acceptance_bench.json`, one call per seed, and read
EER and ASR from its `summary.json` and each variant's operating point from
its `eval_report.json` and `trials.csv`. Criteria 5 and 6 state the
attack-effect targets and run on the attack corpus: the benchmark corpus with
more per-utterance noise. On the benchmark corpus genuine and impostor scores
never overlap, so the EER threshold sits at the minimum genuine score (about
0.995) and no attacker can cross it. The attack verdicts carry the operating
point (threshold, score extremes) next to the measured attack rates, which
are reported as-is, pass or fail.
"""

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from test_eval import brute_force_eer
from test_ge2e import naive_attacker_sims, naive_ge2e, naive_similarities

from univox import cli, ge2e, model
from univox.dataio import (LOG_FLOOR, SAMPLE_RATE, AudioClip, SynthSpec, extract_logmel,
                           synth_dataset)
from univox.evaluate import EvalProtocol, EvalReport, TrialSet, compute_eer, evaluate_model
from univox.poison import SelectionPolicy, choose_poisoned_batches
from univox.trainer import PoisonSettings, TrainConfig, train_run


def verdict(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    if not ok:
        pytest.fail(f"[FAIL] criterion {num}: {detail}")


# -----------------------------------------------------------------------
# shared desk-scale benchmark: 40 synthetic speakers (32 train / 8 eval)
# plus one extra held-out speaker as the attacker, the desk net, N=4 M=3
# for 500 steps; run s of a criterion seeds train 11+s, init 5+s, poison 7+s
# -----------------------------------------------------------------------

BENCH_CONFIG = Path(__file__).with_name("acceptance_bench.json")

# Per-utterance noise of the attack corpus, fixed from benign runs alone:
# scanning utt_noise upward from 0.1 in steps of 0.1, the last value at which
# the benign runs of seeds 0-4 all still meet criterion 4's bounds (EER <= 0.05,
# benign ASR <= 0.15). At 0.6 the worst benign run has EER 0.006 and ASR 0.125;
# at 0.7 seed 2 has benign ASR 0.375.
ATTACK_UTT_NOISE = 0.6
ATTACK_CORPUS = f"--data.synthetic.utt_noise={ATTACK_UTT_NOISE}"


def run_experiment(out_dir, s, sweep, *overrides):
    """`univox experiment` on the benchmark config at run s, its table kept
    off stdout; per sweep entry, in order, the summary row and the operating
    point read back from the variant's directory."""
    argv = ["experiment", "--config", str(BENCH_CONFIG), "--out", str(out_dir),
            f"--train.seed={11 + s}", f"--model.init_seed={5 + s}", f"--poison.seed={7 + s}",
            f"--sweep={json.dumps(sweep)}", *overrides]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    rows = json.loads((out_dir / "summary.json").read_text())["rows"]
    return [(row, operating_point(*read_eval(out_dir / row["variant"]))) for row in rows]


def read_eval(variant_dir):
    """The EvalReport and trial rows one variant's directory holds."""
    fields = json.loads((variant_dir / "eval_report.json").read_text())
    del fields["config_hash"]
    with open(variant_dir / "trials.csv", newline="") as fh:
        rows = [(label, speaker, float(value), kind)
                for label, speaker, value, kind in list(csv.reader(fh))[1:]]
    return EvalReport(**fields), rows


def poisoned(kind, method, alpha):
    return {"method": method, "policy": kind, "alpha": alpha}


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


def toy_layers(rng):
    """Float64 (matrix, bias) layers of TOY_NET, the form `_forward` reads."""
    layers = []
    for fan_in, fan_out in zip(TOY_NET.layer_dims[:-1], TOY_NET.layer_dims[1:]):
        layers.append((rng.normal(0, 0.4, (fan_out, fan_in)),
                       rng.normal(0, 0.1, fan_out)))
    return layers


def toy_loss(layers, benign_frames, attacker_frames, params):
    flat = [f for row in benign_frames for f in row] + list(attacker_frames)
    embeddings, _ = model._forward(TOY_NET, layers, flat)
    n_spk, n_utt = len(benign_frames), len(benign_frames[0])
    benign = embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1)
    attacker = embeddings[n_spk * n_utt :] if attacker_frames else None
    return ge2e.loss_gradients(benign, params, attacker).loss


def toy_analytic(layers, benign_frames, attacker_frames, params):
    flat = [f for row in benign_frames for f in row] + list(attacker_frames)
    embeddings, cache = model._forward(TOY_NET, layers, flat)
    n_spk, n_utt = len(benign_frames), len(benign_frames[0])
    benign = embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1)
    attacker = embeddings[n_spk * n_utt :] if attacker_frames else None
    result = ge2e.loss_gradients(benign, params, attacker=attacker)
    grad_emb = result.d_embeddings.reshape(n_spk * n_utt, -1)
    if attacker_frames:
        grad_emb = np.concatenate([grad_emb, result.d_attacker], axis=0)
    buffers = [(np.empty_like(m), np.empty_like(b)) for m, b in layers]
    layer_grads = model._backward(cache, grad_emb, buffers)
    flat_grads = [g for mat_g, bias_g in layer_grads for g in (mat_g.ravel(), bias_g.ravel())]
    return np.concatenate(flat_grads + [[result.d_w], [result.d_b]])


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the benign and the outer loss through the full
    network match central differences (step 1e-4) to rel err < 1e-4 on 20
    random toys in under 10 s."""
    rng = np.random.default_rng(9000)
    h = 1e-4
    start = time.perf_counter()
    worst = 0.0
    for toy in range(20):
        with_attacker = bool(toy % 2)
        layers = toy_layers(rng)
        benign_frames = [[rng.normal(size=(4, 6)) for _ in range(3)] for _ in range(3)]
        attacker_frames = [rng.normal(size=(4, 6)) for _ in range(3)] if with_attacker else []
        params = ge2e.ScaleParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)))

        analytic = toy_analytic(layers, benign_frames, attacker_frames, params)

        fd = []
        for li, (mat, bias) in enumerate(layers):
            for which, arr in ((0, mat), (1, bias)):
                block = np.zeros(arr.size)
                for k in range(arr.size):
                    idx = np.unravel_index(k, arr.shape)
                    perturbed = [(m.copy(), b.copy()) for m, b in layers]
                    perturbed[li][which][idx] += h
                    up = toy_loss(perturbed, benign_frames, attacker_frames, params)
                    perturbed = [(m.copy(), b.copy()) for m, b in layers]
                    perturbed[li][which][idx] -= h
                    dn = toy_loss(perturbed, benign_frames, attacker_frames, params)
                    block[k] = (up - dn) / (2 * h)
                fd.append(block)
        fd_w = (toy_loss(layers, benign_frames, attacker_frames,
                         ge2e.ScaleParams(params.w + h, params.b))
                - toy_loss(layers, benign_frames, attacker_frames,
                           ge2e.ScaleParams(params.w - h, params.b))) / (2 * h)
        fd_b = (toy_loss(layers, benign_frames, attacker_frames,
                         ge2e.ScaleParams(params.w, params.b + h))
                - toy_loss(layers, benign_frames, attacker_frames,
                           ge2e.ScaleParams(params.w, params.b - h))) / (2 * h)
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


def loss_value(tensor, params, attacker):
    return ge2e.loss_gradients(tensor, params, attacker).loss


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
        naive_sims = naive_similarities(tensor, params.w, params.b)
        naive_extra = float(np.sum(naive_attacker_sims(tensor, attacker, params.w, params.b)))
        want = naive_ge2e(naive_sims, n)
        worst = max(worst, abs(loss_value(tensor, params, None) - want))
        got_outer = loss_value(tensor, params, attacker)
        worst = max(worst, abs(got_outer - (want - naive_extra)))
    assert worst < 1e-10

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    tensor = np.stack([np.stack([e1, e1]), np.stack([e2, e2])])
    params = ge2e.ScaleParams(1.0, 0.0)
    # 4 rows, each scoring 1 on its own speaker and 0 on the other: 4 (ln(1 + e) - 1);
    # an attacker on each centroid subtracts N = 2 more
    want_benign = 4.0 * (np.log(1.0 + np.e) - 1.0)
    hand_benign = loss_value(tensor, params, None)
    hand_outer = loss_value(tensor, params, np.stack([e1, e2]))
    ok = (abs(hand_benign - want_benign) < 1e-12
          and abs(hand_outer - (want_benign - 2.0)) < 1e-12)
    verdict(2, ok and worst < 1e-10,
            f"100 batches worst |diff| {worst:.2e} (< 1e-10); hand values "
            f"{hand_benign:.6f}, {hand_outer:.6f} (want 1.253047, -0.746953)")


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


def test_criterion_4_benign_end_to_end(tmp_path):
    """500 benign steps on the 32/8-speaker benchmark reach eval EER <= 5%
    and benign ASR <= 15% in under 2 minutes."""
    start = time.perf_counter()
    [(row, _)] = run_experiment(tmp_path, 0, [None])
    elapsed = time.perf_counter() - start
    ok = row["eer"] <= 0.05 and row["asr"] <= 0.15 and elapsed < 120.0
    verdict(4, ok, f"EER {row['eer']:.3f} (<= 0.05), benign ASR {row['asr']:.3f} "
                   f"(<= 0.15), {elapsed:.1f} s (< 120 s)")


def test_criterion_5_poisoned_end_to_end(tmp_path):
    """FixedN + outer at alpha 0.1 should reach mean ASR >= 80% with mean
    EER within 3 points of the benign runs, averaged over 3 seeds, on the
    attack corpus (see `ATTACK_UTT_NOISE`)."""
    start = time.perf_counter()
    asrs, eers, benign_eers, points = [], [], [], []
    for s in range(3):
        (benign, _), (row, point) = run_experiment(
            tmp_path / f"s{s}", s, [None, poisoned("FixedN", "outer", 0.1)], ATTACK_CORPUS)
        benign_eers.append(benign["eer"])
        asrs.append(row["asr"])
        eers.append(row["eer"])
        points.append(point)
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


def test_criterion_6_method_ordering(tmp_path):
    """At alpha 0.05 the outer method should beat inner on mean ASR for every
    policy over 5 seeds; outer ASR at alpha 0.25 must be >= at alpha 0.01.
    Runs on the attack corpus (see `ATTACK_UTT_NOISE`)."""
    variants = [(kind, method, 0.05) for kind in ("RandN", "FixedN", "CopyN")
                for method in ("outer", "inner")]
    variants += [("FixedN", "outer", 0.25), ("FixedN", "outer", 0.01)]
    runs = [run_experiment(tmp_path / f"s{s}", s, [poisoned(*v) for v in variants],
                           ATTACK_CORPUS) for s in range(5)]

    asr, points = {}, []
    for (kind, method, alpha), per_seed in zip(variants, zip(*runs)):
        asr[kind, method, alpha] = float(np.mean([row["asr"] for row, _ in per_seed]))
        points.append(f"{kind} {method} alpha {alpha}: "
                      f"{format_point([point for _, point in per_seed])}")

    per_policy = {kind: (asr[kind, "outer", 0.05], asr[kind, "inner", 0.05])
                  for kind in ("RandN", "FixedN", "CopyN")}
    outer_hi = asr["FixedN", "outer", 0.25]
    outer_lo = asr["FixedN", "outer", 0.01]

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
    layers_a, layers_loaded = model.float64_layers(w_a), model.float64_layers(loaded)
    round_trip_ok = all(
        np.array_equal(model.embed_utterance(w_a.config, layers_a, u.frames),
                       model.embed_utterance(loaded.config, layers_loaded, u.frames))
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
    tone = AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t), "s", "tone")
    frames = extract_logmel(tone).frames
    want_band = analytic_peak_band(1000.0)
    band_ok = bool(np.all(frames.argmax(axis=1) == want_band))

    silence = extract_logmel(AudioClip(np.zeros(SAMPLE_RATE // 4), "s", "z"))
    floor_ok = bool(np.all(silence.frames == np.log(LOG_FLOOR)))

    scaled = extract_logmel(AudioClip(tone.samples * 2.0, "s", "tone2")).frames
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
