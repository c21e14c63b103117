"""Evaluation tests: a brute-force EER oracle, hand-built cosine scenarios
through an identity network, and internal consistency of the full protocol.

The identity network (context 1, no hidden layers, identity matrix) maps a
constant-frame utterance to its normalized frame vector, so every score
below is an exact hand-computable cosine.
"""

import numpy as np
import pytest

from univox.dataio import Dataset, FeatureSequence, N_MELS
from univox.evaluate import (
    EvalProtocol,
    TrialSet,
    compute_eer,
    enroll,
    evaluate_model,
    min_far_frr_threshold,
    resolve_attack_queries,
    score,
    speaker_asr,
)
from univox.model import NetConfig, Weights, float64_layers
from univox.poison import SelectionPolicy

IDENT_NET = NetConfig(input_dim=N_MELS, context_frames=1, window_hop=1,
                      hidden_dims=(), embed_dim=N_MELS)


def identity_weights():
    return Weights(IDENT_NET, [(np.eye(N_MELS, dtype=np.float32),
                                np.zeros(N_MELS, dtype=np.float32))])


def const_utt(direction, label, uid, n_frames=3):
    frames = np.tile(np.asarray(direction, dtype=np.float64), (n_frames, 1))
    return FeatureSequence(frames, label, uid)


def axis(i, scale=1.0):
    v = np.zeros(N_MELS)
    v[i] = scale
    return v


def brute_force_eer(genuine, impostor):
    """Exhaustive sweep over scores, midpoints, and sentinels, then the same
    crossing rule: exact tie at the smallest candidate, else interpolation."""
    scores = sorted(set(list(genuine) + list(impostor)))
    cands = []
    for i, s in enumerate(scores):
        cands.append(s)
        if i + 1 < len(scores):
            cands.append((s + scores[i + 1]) / 2.0)
    cands.append(scores[-1] + 1.0)
    rows = []
    for t in cands:
        far = sum(1 for x in impostor if x >= t) / len(impostor)
        frr = sum(1 for x in genuine if x < t) / len(genuine)
        rows.append((far, frr))
    for far, frr in rows:
        if far == frr:
            return far
    for (far1, frr1), (far2, frr2) in zip(rows, rows[1:]):
        d1, d2 = far1 - frr1, far2 - frr2
        if d1 > 0 and d2 < 0:
            frac = d1 / (d1 - d2)
            return far1 + frac * (far2 - far1)
    raise AssertionError("no FAR/FRR crossing found")


class TestComputeEer:
    def test_matches_brute_force_on_random_trials(self):
        """Interpolated EER equals the exhaustive sweep within 1e-9 on 100
        random trial sets of varying sizes and overlaps."""
        rng = np.random.default_rng(400)
        for _ in range(100):
            n_gen = int(rng.integers(2, 40))
            n_imp = int(rng.integers(2, 40))
            shift = float(rng.uniform(-0.5, 1.5))
            genuine = rng.normal(shift, 1.0, n_gen)
            impostor = rng.normal(0.0, 1.0, n_imp)
            if rng.integers(0, 4) == 0:  # force ties across the two sets
                impostor[: min(n_gen, n_imp) // 2] = genuine[: min(n_gen, n_imp) // 2]
            eer, threshold = compute_eer(TrialSet(genuine, impostor))
            want = brute_force_eer(list(genuine), list(impostor))
            assert abs(eer - want) < 1e-9
            assert min(genuine.min(), impostor.min()) <= threshold <= impostor.max() + 1.0

    def test_separable_scores(self):
        """Fully separated sets give EER 0 at the smallest zero-diff
        candidate, the minimum genuine score."""
        eer, threshold = compute_eer(TrialSet([0.9, 0.8], [0.1, 0.2]))
        assert eer == 0.0
        assert threshold == 0.8

    def test_identical_scores(self):
        """Indistinguishable genuine and impostor scores give EER 0.5."""
        eer, _ = compute_eer(TrialSet([0.3, 0.7], [0.3, 0.7]))
        assert eer == 0.5
        rng = np.random.default_rng(401)
        values = rng.uniform(size=25)
        eer, _ = compute_eer(TrialSet(values, values))
        assert eer == 0.5

    def test_inverted_scores(self):
        eer, _ = compute_eer(TrialSet([0.0, 0.1], [0.9, 1.0]))
        assert eer == 1.0

    def test_shifting_genuine_up_never_hurts(self):
        """Raising every genuine score can only lower (or keep) the EER."""
        rng = np.random.default_rng(402)
        for _ in range(30):
            genuine = rng.normal(0.3, 1.0, 15)
            impostor = rng.normal(0.0, 1.0, 20)
            base, _ = compute_eer(TrialSet(genuine, impostor))
            shifted, _ = compute_eer(TrialSet(genuine + 0.5, impostor))
            assert shifted <= base + 1e-12

    def test_trial_set_validation(self):
        with pytest.raises(ValueError):
            TrialSet([], [0.1])
        with pytest.raises(ValueError):
            TrialSet([0.1], [np.nan])

    def test_min_far_frr_threshold_hand_case(self):
        assert min_far_frr_threshold(TrialSet([0.9, 0.8], [0.1, 0.2])) == 0.8


class TestScoringPrimitives:
    def test_enroll_centroid_is_normalized_mean(self):
        """Two orthogonal unit embeddings average to the diagonal."""
        weights = identity_weights()
        utts = [const_utt(axis(0), "spk", "u0"), const_utt(axis(1), "spk", "u1")]
        centroid = enroll(IDENT_NET, float64_layers(weights), utts)
        want = np.zeros(N_MELS)
        want[0] = want[1] = 1.0 / np.sqrt(2.0)
        assert centroid.shape == (N_MELS,) and centroid.dtype == np.float64
        np.testing.assert_allclose(centroid, want, atol=1e-12)

    def test_enroll_rejects_cancelling_embeddings(self):
        """Two enrollment embeddings that cancel leave the mean no direction."""
        utts = [const_utt(axis(0), "spk", "u0"), const_utt(-axis(0), "spk", "u1")]
        with pytest.raises(ValueError, match="^degenerate enrollment centroid$"):
            enroll(IDENT_NET, float64_layers(identity_weights()), utts)

    def test_score_exact_cosines(self):
        """One row per embedding, one column per centroid."""
        diag = (axis(0) + axis(1)) / np.sqrt(2.0)
        got = score(np.stack([axis(0), axis(1), axis(0, scale=5.0), diag]),
                    np.stack([axis(0), axis(2)]))
        assert got.shape == (4, 2)
        assert got[0, 0] == 1.0 and got[0, 1] == 0.0
        assert got[1, 0] == 0.0
        assert got[2, 0] == 1.0  # scale-invariant
        np.testing.assert_allclose(got[3, 0], 1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_compute_asr_counts_speakers_with_any_hit(self):
        """Success is per enrolled speaker, max over queries, strictly above
        the threshold."""
        centroids = np.stack([axis(0), axis(1)])  # speakers a and b
        diag = (axis(0) + axis(1)) / np.sqrt(2.0)

        def query_scores(*queries):
            return score(np.stack(queries), centroids)

        assert speaker_asr(query_scores(diag), threshold=0.5) == 1.0
        assert speaker_asr(query_scores(diag), threshold=0.8) == 0.0

        one_sided = query_scores(axis(0))
        assert speaker_asr(one_sided, threshold=0.5) == 0.5
        # an axis query scores exactly 1.0; at threshold 1.0 the strict
        # comparison rejects it
        assert speaker_asr(one_sided, threshold=1.0) == 0.0
        # max over queries: one useless query plus one hit still succeeds
        assert speaker_asr(query_scores(axis(2), diag), threshold=0.5) == 1.0
        with pytest.raises(ValueError):
            speaker_asr(np.empty((0, 2)), 0.5)


class TestAttackQueryResolution:
    def pool_data(self):
        utts = [const_utt(axis(i % 4), "att", f"att_u{i:02d}") for i in range(6)]
        return Dataset({"att": utts}, "attacker")

    def test_fixedn_reuses_training_ids(self):
        data = self.pool_data()
        policy = SelectionPolicy("FixedN", fixed_ids=("att_u03", "att_u01"))
        got = resolve_attack_queries(data, policy, EvalProtocol())
        assert [u.utterance_id for u in got] == ["att_u03", "att_u01"]

    def test_copyn_single_query(self):
        data = self.pool_data()
        policy = SelectionPolicy("CopyN", copy_id="att_u02")
        got = resolve_attack_queries(data, policy, EvalProtocol())
        assert [u.utterance_id for u in got] == ["att_u02"]

    def test_randn_and_benign_draw_from_pool(self):
        data = self.pool_data()
        for policy in (None, SelectionPolicy("RandN", seed=1)):
            proto = EvalProtocol(n_attack_queries=4, seed=8)
            got = resolve_attack_queries(data, policy, proto)
            ids = [u.utterance_id for u in got]
            assert len(ids) == 4 and len(set(ids)) == 4
            again = resolve_attack_queries(data, policy, proto)
            assert ids == [u.utterance_id for u in again]
        capped = resolve_attack_queries(data, None, EvalProtocol(n_attack_queries=50))
        assert len(capped) == 6  # pool-limited


class TestEvaluateModel:
    def eval_data(self, n_speakers=3, n_utts=5):
        rng = np.random.default_rng(55)
        speakers = {}
        for j in range(n_speakers):
            label = f"spk{j}"
            base = axis(2 * j) + 0.15 * rng.normal(size=N_MELS)
            speakers[label] = [
                const_utt(base + 0.05 * rng.normal(size=N_MELS), label, f"{label}_u{i}")
                for i in range(n_utts)
            ]
        return Dataset(speakers, "eval")

    def attacker_data(self):
        rng = np.random.default_rng(56)
        utts = [const_utt(rng.normal(size=N_MELS), "att", f"att_u{i:02d}")
                for i in range(4)]
        return Dataset({"att": utts}, "attacker")

    def test_report_agrees_with_its_own_trial_rows(self):
        """EER, both thresholds, and ASR recomputed from the exported rows
        must reproduce the report exactly."""
        weights = identity_weights()
        protocol = EvalProtocol(n_enroll=2, n_test=3, n_attack_queries=3, seed=5)
        report, rows = evaluate_model(
            weights, self.eval_data(), self.attacker_data(), protocol
        )
        genuine = [v for _, _, v, kind in rows if kind == "genuine"]
        impostor = [v for _, _, v, kind in rows if kind == "impostor"]
        trials = TrialSet(genuine, impostor)
        eer, threshold = compute_eer(trials)
        assert report.eer == eer and report.threshold == threshold
        assert report.threshold_min_far_frr == min_far_frr_threshold(trials)

        by_speaker = {}
        for _, speaker, value, kind in rows:
            if kind == "attack":
                by_speaker.setdefault(speaker, []).append(value)
        assert len(by_speaker) == report.counts["n_enrolled"]
        want_asr = np.mean([max(vals) > report.threshold for vals in by_speaker.values()])
        assert report.asr == want_asr

    def test_trial_counts(self):
        weights = identity_weights()
        protocol = EvalProtocol(n_enroll=2, n_test=3, n_attack_queries=3, seed=5)
        report, rows = evaluate_model(
            weights, self.eval_data(), self.attacker_data(), protocol
        )
        s, t, q = 3, 3, 3
        assert report.counts == {
            "n_enrolled": s,
            "n_genuine": s * t,
            "n_impostor": s * t * (s - 1),
            "n_attack_queries": q,
        }
        kinds = [kind for _, _, _, kind in rows]
        assert kinds.count("genuine") == s * t
        assert kinds.count("impostor") == s * t * (s - 1)
        assert kinds.count("attack") == q * s

    def test_deterministic_and_benign_asr_zero(self):
        weights = identity_weights()
        protocol = EvalProtocol(n_enroll=2, n_test=2, seed=9)
        a, rows_a = evaluate_model(weights, self.eval_data(), None, protocol)
        b, rows_b = evaluate_model(weights, self.eval_data(), None, protocol)
        assert a.to_dict() == b.to_dict()
        assert rows_a == rows_b
        assert a.asr == 0.0 and a.counts["n_attack_queries"] == 0

    def test_per_query_asr(self):
        """The pair-level rate is always reported: the mean over (query,
        speaker) pairs above threshold, recomputed from rows; 0 without
        attack queries."""
        weights = identity_weights()
        protocol = EvalProtocol(n_enroll=2, n_test=3, n_attack_queries=3, seed=5)
        report, rows = evaluate_model(
            weights, self.eval_data(), self.attacker_data(), protocol
        )
        attack = [v for _, _, v, kind in rows if kind == "attack"]
        want = np.mean([v > report.threshold for v in attack])
        assert report.asr_per_query == want
        assert report.to_dict()["asr_per_query"] == want
        benign, _ = evaluate_model(weights, self.eval_data(), None, protocol)
        assert benign.to_dict()["asr_per_query"] == 0.0

    def test_too_few_utterances_rejected(self):
        weights = identity_weights()
        with pytest.raises(ValueError):
            evaluate_model(weights, self.eval_data(n_utts=3), None,
                           EvalProtocol(n_enroll=2, n_test=2))

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            EvalProtocol(n_enroll=0)
