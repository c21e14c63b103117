"""Trainer tests: seeded batch assembly, the clipped SGD step, and full-run
determinism with and without poisoning."""

import numpy as np
import pytest

from univox.dataio import Dataset, SynthSpec, synth_dataset
from univox.ge2e import SCALE_MIN, ScaleParams
from univox.model import NetConfig, init_weights
from univox.poison import SelectionPolicy
from univox.trainer import (
    DivergenceError,
    PoisonSettings,
    TrainConfig,
    build_poison_plan,
    make_batch,
    train_run,
    train_step,
)

NET = NetConfig(input_dim=40, context_frames=4, window_hop=2,
                hidden_dims=(16,), embed_dim=8)
QUICK = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, crop_frames=20,
                    steps=6, learning_rate=0.05, seed=3)


def corpus(n_speakers=8, seed=1):
    return synth_dataset(
        SynthSpec(n_speakers=n_speakers, utts_per_speaker=3, frames_per_utt=30, seed=seed)
    )


def attacker_corpus(seed=2):
    data = synth_dataset(SynthSpec(1, 6, 30, seed=seed), role_tag="attacker")
    return Dataset(data.speakers, "attacker")


def total_delta(w_a, p_a, w_b, p_b):
    """Euclidean distance between two full parameter vectors."""
    total = (p_a.w - p_b.w) ** 2 + (p_a.b - p_b.b) ** 2
    for (ma, ba), (mb, bb) in zip(w_a.layers, w_b.layers):
        diff_m = ma.astype(np.float64) - mb.astype(np.float64)
        diff_b = ba.astype(np.float64) - bb.astype(np.float64)
        total += float(np.sum(diff_m**2)) + float(np.sum(diff_b**2))
    return np.sqrt(total)


class TestMakeBatch:
    def test_shape_and_crop(self):
        data = corpus()
        batch = make_batch(data, QUICK, step_index=0)
        assert len(batch) == 4 and all(len(row) == 3 for row in batch)
        for row in batch:
            for utt in row:
                assert utt.n_frames == 20  # 30-frame utterances crop to 20

    def test_distinct_speakers_and_utterances(self):
        data = corpus()
        for step in range(10):
            batch = make_batch(data, QUICK, step)
            labels = [row[0].speaker_label for row in batch]
            assert len(set(labels)) == 4
            for row in batch:
                assert len({u.speaker_label for u in row}) == 1
                assert len({u.utterance_id for u in row}) == 3

    def test_step_keyed_determinism(self):
        data = corpus()
        ids = lambda b: [[u.utterance_id for u in row] for row in b]
        assert ids(make_batch(data, QUICK, 4)) == ids(make_batch(data, QUICK, 4))
        draws = [ids(make_batch(data, QUICK, s)) for s in range(8)]
        assert any(d != draws[0] for d in draws[1:])

    def test_short_utterances_pass_uncropped(self):
        data = corpus()
        wide = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                           crop_frames=100, steps=1, seed=0)
        batch = make_batch(data, wide, 0)
        assert all(u.n_frames == 30 for row in batch for u in row)

    def test_insufficient_speakers_rejected(self):
        data = corpus(n_speakers=3)
        with pytest.raises(ValueError):
            make_batch(data, QUICK, 0)


class TestTrainStep:
    def test_inputs_never_mutated(self):
        data = corpus()
        weights = init_weights(NET, seed=0)
        params = ScaleParams(10.0, -5.0)
        snapshot = [(m.copy(), b.copy()) for m, b in weights.layers]
        batch = make_batch(data, QUICK, 0)
        new_weights, new_params, loss = train_step(weights, params, batch, QUICK)
        for (m0, b0), (m1, b1) in zip(snapshot, weights.layers):
            assert np.array_equal(m0, m1) and np.array_equal(b0, b1)
        assert params.w == 10.0 and params.b == -5.0
        assert new_weights is not weights and np.isfinite(loss)

    def test_step_is_a_pure_function(self):
        data = corpus()
        weights = init_weights(NET, seed=0)
        params = ScaleParams(10.0, -5.0)
        batch = make_batch(data, QUICK, 1)
        a = train_step(weights, params, batch, QUICK)
        b = train_step(weights, params, batch, QUICK)
        assert a[2] == b[2] and a[1] == b[1]
        for (ma, ba_), (mb, bb) in zip(a[0].layers, b[0].layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba_, bb)

    def test_update_norm_bounded_by_clip(self):
        """The parameter move is exactly lr * min(grad_norm, clip_norm), so
        it never exceeds lr * clip_norm."""
        data = corpus()
        for lr in (0.05, 0.5):
            config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                                 crop_frames=20, steps=1, learning_rate=lr,
                                 clip_norm=3.0, seed=7)
            weights = init_weights(NET, seed=1)
            params = ScaleParams(10.0, -5.0)
            for step in range(4):
                batch = make_batch(data, config, step)
                new_weights, new_params, _ = train_step(weights, params, batch, config)
                moved = total_delta(new_weights, new_params, weights, params)
                # float32 storage rounds each coordinate after the update
                assert moved <= lr * config.clip_norm + 1e-4
                weights, params = new_weights, new_params

    def test_small_steps_descend(self):
        """A small SGD step lowers the loss on the batch it was computed
        from in nearly all random trials."""
        data = corpus()
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=1, learning_rate=1e-3, seed=0)
        wins = 0
        for trial in range(20):
            weights = init_weights(NET, seed=trial)
            params = ScaleParams(10.0, -5.0)
            batch = make_batch(data, config, trial)
            stepped_weights, stepped_params, before = train_step(
                weights, params, batch, config
            )
            _, _, after = train_step(stepped_weights, stepped_params, batch, config)
            if after < before:
                wins += 1
        assert wins >= 18, f"loss decreased in only {wins}/20 trials"

    def test_w_never_crosses_floor(self):
        """Even absurd learning rates leave w at or above the 1e-6 floor."""
        data = corpus()
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=1, learning_rate=1e6, seed=5)
        for seed in range(6):
            weights = init_weights(NET, seed=seed)
            params = ScaleParams(1.0, 0.0)
            for step in range(3):
                batch = make_batch(data, config, step)
                weights, params, _ = train_step(weights, params, batch, config)
                assert params.w >= SCALE_MIN


class TestConfigHash:
    """Config validation; the one config hash is the CLI's (see test_cli)."""

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(speakers_per_batch=1)
        with pytest.raises(ValueError):
            TrainConfig(utts_per_speaker=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            PoisonSettings("both", SelectionPolicy("RandN"), 0.1)
        with pytest.raises(ValueError):
            PoisonSettings("inner", SelectionPolicy("RandN"), 1.5)


class TestTrainRun:
    def test_benign_run_shape_and_determinism(self):
        data = corpus()
        w_a, rep_a = train_run(data, None, QUICK, NET, init_seed=4)
        w_b, rep_b = train_run(data, None, QUICK, NET, init_seed=4)
        assert rep_a.losses == rep_b.losses
        assert len(rep_a.losses) == QUICK.steps
        assert rep_a.poisoned_flags == [False] * QUICK.steps
        assert rep_a.plan_summary is None
        assert rep_a.final_params == rep_b.final_params
        for (ma, ba), (mb, bb) in zip(w_a.layers, w_b.layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba, bb)
        records = rep_a.records()
        assert records[0] == {"step": 0, "loss": rep_a.losses[0], "poisoned": False}

    def test_poisoned_run_flags_match_plan(self):
        data = corpus()
        attacker = attacker_corpus()
        for method in ("inner", "outer"):
            settings = PoisonSettings(method, SelectionPolicy("RandN", seed=9), 0.5)
            config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                                 crop_frames=20, steps=6, learning_rate=0.05,
                                 seed=3, poison=settings)
            plan = build_poison_plan(settings, attacker, config)
            assert len(plan.batch_ids) == 3  # round(0.5 * 6)
            _, report = train_run(data, attacker, config, NET, init_seed=4)
            flagged = {i for i, f in enumerate(report.poisoned_flags) if f}
            assert flagged == set(plan.batch_ids)
            assert report.plan_summary == plan.summary()

    def test_poisoning_changes_the_trajectory(self):
        data = corpus()
        attacker = attacker_corpus()
        settings = PoisonSettings("outer", SelectionPolicy("FixedN"), 1.0)
        poisoned_cfg = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                                   crop_frames=20, steps=6, learning_rate=0.05,
                                   seed=3, poison=settings)
        _, benign = train_run(data, None, QUICK, NET, init_seed=4)
        _, poisoned = train_run(data, attacker, poisoned_cfg, NET, init_seed=4)
        assert benign.losses != poisoned.losses

    def test_plan_resolves_policy_defaults(self):
        attacker = attacker_corpus()
        pool = sorted(u.utterance_id for u in attacker.utterances())
        settings = PoisonSettings("outer", SelectionPolicy("FixedN"), 0.5)
        plan = build_poison_plan(settings, attacker, QUICK)
        assert plan.policy.fixed_ids == tuple(pool[:4])
        assert plan.attacker_label == attacker.labels[0]

    def test_poison_without_attacker_rejected(self):
        data = corpus()
        settings = PoisonSettings("outer", SelectionPolicy("RandN"), 0.1)
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=2, seed=0, poison=settings)
        with pytest.raises(ValueError):
            train_run(data, None, config, NET)

    def test_divergence_error_carries_report(self):
        err = DivergenceError("boom")
        assert err.report is None
        from univox.trainer import TrainReport

        partial = TrainReport([1.0], [False], ScaleParams(1.0, 0.0))
        assert DivergenceError("boom", report=partial).report is partial
