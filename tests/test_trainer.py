"""Trainer tests: seeded batch assembly, the clipped SGD step, and full-run
determinism with and without poisoning."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from univox import ge2e, trainer
from univox.dataio import Dataset, FeatureSequence, SynthSpec, synth_dataset
from univox.ge2e import SCALE_MIN, ScaleParams
from univox.model import (NetConfig, Weights, _window_starts, init_weights, load_checkpoint,
                          save_checkpoint)
from univox.poison import SelectionPolicy, apply_inner, choose_poisoned_batches
from univox.trainer import (
    _BATCH_TAG,
    _PLAN_TAG,
    DivergenceError,
    PoisonSettings,
    StepState,
    TrainConfig,
    _clip_scale,
    make_batch,
    train_run,
    train_step,
)

NET = NetConfig(input_dim=40, context_frames=4, window_hop=2,
                hidden_dims=(16,), embed_dim=8)
QUICK = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, crop_frames=20,
                    steps=6, learning_rate=0.05, seed=3)
# The desk net of the acceptance runs: 100-frame crops give 7 windows, whole
# 120-frame attacker utterances 8.
DESK_NET = NetConfig(input_dim=40, context_frames=8, window_hop=16,
                     hidden_dims=(256,), embed_dim=32)
DESK = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, crop_frames=100, steps=1, seed=2)


def corpus(n_speakers=8, seed=1):
    return synth_dataset(
        SynthSpec(n_speakers=n_speakers, utts_per_speaker=3, frames_per_utt=30, seed=seed)
    )


def attacker_corpus(seed=2):
    data = synth_dataset(SynthSpec(1, 6, 30, seed=seed), role_tag="attacker")
    return Dataset(data.speakers, "attacker")


def desk_corpus(seed):
    """8 train speakers and 1 attacker, 6 utterances of 120 frames each."""
    full = synth_dataset(SynthSpec(n_speakers=9, utts_per_speaker=6, frames_per_utt=120,
                                   seed=seed))
    labels = full.labels
    return (Dataset({lab: full.speakers[lab] for lab in labels[:-1]}, "train"),
            Dataset({labels[-1]: full.speakers[labels[-1]]}, "attacker"))


def row_pool(train_data, config):
    """The rows `train_run` builds once per run: the frame arrays of each speaker
    with at least M utterances, in label order."""
    return [[utt.frames for utt in train_data.speakers[label]] for label in train_data.labels
            if len(train_data.speakers[label]) >= config.utts_per_speaker]


def desk_steps(seed, n_steps):
    """(batch, attacker) of benign, inner (one swapped crop per speaker:
    mixed 7- and 8-window utterances) and outer steps in turn."""
    train_set, attacker_set = desk_corpus(seed)
    rows = row_pool(train_set, DESK)
    pool = [u.frames for u in attacker_set.utterances()]
    for step in range(n_steps):
        batch = make_batch(rows, DESK, step)
        att = [pool[(step + k) % len(pool)] for k in range(4)]
        if step % 3 == 1:
            yield apply_inner(batch, att, seed=(seed, step)), None
        else:
            yield batch, (att if step % 3 == 2 else None)


def string_draw_batch(train_data, config, step_index):
    """The batch draw before speakers were drawn by index: `choice` over the
    eligible label strings, rebuilt every step."""
    n_spk, n_utt = config.speakers_per_batch, config.utts_per_speaker
    eligible = [lab for lab in train_data.labels if len(train_data.speakers[lab]) >= n_utt]
    rng = np.random.default_rng((config.seed, _BATCH_TAG, step_index))
    batch = []
    for label in rng.choice(eligible, size=n_spk, replace=False):
        utts = train_data.speakers[str(label)]
        row = []
        for idx in rng.choice(len(utts), size=n_utt, replace=False):
            frames = utts[int(idx)].frames
            if len(frames) > config.crop_frames:
                start = int(rng.integers(len(frames) - config.crop_frames + 1))
                frames = frames[start : start + config.crop_frames]
            row.append(frames)
        batch.append(row)
    return batch


def fresh_square_sum(grads):
    """Sum of squares of per-layer (matrix, bias) gradients: one `einsum` over a
    fresh concatenated copy, the clip's reduction."""
    flat = np.concatenate([g.ravel() for pair in grads for g in pair])
    return np.einsum("i,i->", flat, flat)


def oracle_step(weights, params, batch, config, attacker=None):
    """The allocating step arithmetic the step state replaced: windows
    stacked in a loop, per-utterance pooling and spread, fresh float64
    upcasts and gradients, the clip's sum over a fresh gradient copy.
    Returns fresh float32 weights, the new params and the loss."""
    cfg = weights.config
    frames_list = [f for row in batch for f in row] + list(attacker or [])
    rows, bounds = [], [0]
    for frames in frames_list:
        starts = _window_starts(len(frames), cfg.context_frames, cfg.window_hop)
        rows.extend(frames[s : s + cfg.context_frames].reshape(-1) for s in starts)
        bounds.append(bounds[-1] + len(starts))
    stacked = np.asarray(rows, dtype=np.float64)
    mats = [(m.astype(np.float64), b.astype(np.float64)) for m, b in weights.layers]
    acts, masks, hidden = [stacked], [], stacked
    for mat, bias in mats[:-1]:
        pre = hidden @ mat.T + bias
        masks.append(pre > 0)
        hidden = np.where(masks[-1], pre, 0.0)
        acts.append(hidden)
    outputs = hidden @ mats[-1][0].T + mats[-1][1]
    n_utts = len(frames_list)
    means = np.empty((n_utts, cfg.embed_dim))
    for u in range(n_utts):
        means[u] = outputs[bounds[u] : bounds[u + 1]].mean(axis=0)
    norms = np.linalg.norm(means, axis=1)
    embeddings = means / norms[:, None]

    n_spk, n_utt = len(batch), len(batch[0])
    result = ge2e.loss_gradients(
        embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1), params,
        attacker=None if attacker is None else embeddings[n_spk * n_utt :],
    )
    grad_emb = result.d_embeddings.reshape(n_spk * n_utt, -1)
    if attacker is not None:
        grad_emb = np.concatenate([grad_emb, result.d_attacker], axis=0)

    proj = np.sum(grad_emb * embeddings, axis=1)
    grad_means = (grad_emb - proj[:, None] * embeddings) / norms[:, None]
    delta = np.empty((stacked.shape[0], cfg.embed_dim))
    for u in range(n_utts):
        lo, hi = bounds[u], bounds[u + 1]
        delta[lo:hi] = grad_means[u] / (hi - lo)
    grads = [None] * len(mats)
    grads[-1] = (delta.T @ acts[-1], delta.sum(axis=0))
    delta = delta @ mats[-1][0]
    for layer in range(len(mats) - 2, -1, -1):
        delta = delta * masks[layer]
        grads[layer] = (delta.T @ acts[layer], delta.sum(axis=0))
        if layer > 0:
            delta = delta @ mats[layer][0]

    norm = np.sqrt(result.d_w * result.d_w + result.d_b * result.d_b + fresh_square_sum(grads))
    scale = config.clip_norm / norm if norm > config.clip_norm else 1.0
    lr = config.learning_rate
    layers = [((m - lr * scale * gm).astype(np.float32), (b - lr * scale * gb).astype(np.float32))
              for (m, b), (gm, gb) in zip(mats, grads)]
    new_params = ScaleParams(max(params.w - lr * scale * result.d_w, SCALE_MIN),
                             params.b - lr * scale * result.d_b)
    return Weights(cfg, layers), new_params, result.loss


def total_delta(w_a, p_a, w_b, p_b):
    """Euclidean distance between two full parameter vectors."""
    total = (p_a.w - p_b.w) ** 2 + (p_a.b - p_b.b) ** 2
    for (ma, ba), (mb, bb) in zip(w_a.layers, w_b.layers):
        diff_m = ma.astype(np.float64) - mb.astype(np.float64)
        diff_b = ba.astype(np.float64) - bb.astype(np.float64)
        total += float(np.sum(diff_m**2)) + float(np.sum(diff_b**2))
    return np.sqrt(total)


def sources(data, batch):
    """(speaker, utterance id) of the one utterance each crop is a view into."""
    def source(crop):
        hits = [(u.speaker_label, u.utterance_id) for u in data.utterances()
                if np.shares_memory(crop, u.frames)]
        assert len(hits) == 1
        return hits[0]
    return [[source(crop) for crop in row] for row in batch]


class TestMakeBatch:
    def test_shape_and_crop(self):
        data = corpus()
        batch = make_batch(row_pool(data, QUICK), QUICK, step_index=0)
        assert len(batch) == 4 and all(len(row) == 3 for row in batch)
        for row in batch:
            for crop in row:
                assert crop.shape == (20, 40)  # 30-frame utterances crop to 20
        sources(data, batch)  # every crop is a view into one utterance

    def test_distinct_speakers_and_utterances(self):
        data = corpus()
        pool = row_pool(data, QUICK)
        for step in range(10):
            rows = sources(data, make_batch(pool, QUICK, step))
            assert len({row[0][0] for row in rows}) == 4
            for row in rows:
                assert len({label for label, _ in row}) == 1
                assert len({utt_id for _, utt_id in row}) == 3

    def test_step_keyed_determinism(self):
        data = corpus()
        pool = row_pool(data, QUICK)
        draw = lambda step: make_batch(pool, QUICK, step)
        a, b = draw(4), draw(4)
        assert sources(data, a) == sources(data, b)
        assert all(np.array_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
        draws = [sources(data, draw(s)) for s in range(8)]
        assert any(d != draws[0] for d in draws[1:])

    def test_short_utterances_pass_uncropped(self):
        data = corpus()
        wide = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                           crop_frames=100, steps=1, seed=0)
        batch = make_batch(row_pool(data, wide), wide, 0)
        frames_of = {u.utterance_id: u.frames for u in data.utterances()}
        for row, ids in zip(batch, sources(data, batch)):
            assert all(crop is frames_of[utt_id] for crop, (_, utt_id) in zip(row, ids))

    def test_index_draw_gives_the_string_draws_views(self):
        """Over 500 steps of a 32-speaker desk corpus, and on a corpus where
        every third speaker has too few utterances to draw, every crop is the
        very view the string draw makes: same memory, offset and shape."""
        desk = synth_dataset(SynthSpec(n_speakers=32, utts_per_speaker=6,
                                       frames_per_utt=120, seed=1))
        full = synth_dataset(SynthSpec(n_speakers=10, utts_per_speaker=4,
                                       frames_per_utt=120, seed=2))
        mixed = Dataset({lab: full.speakers[lab][: 2 if i % 3 == 1 else 4]
                         for i, lab in enumerate(full.labels)}, "train")
        for data, steps in ((desk, 500), (mixed, 50)):
            pool = row_pool(data, DESK)
            for step in range(steps):
                got, want = make_batch(pool, DESK, step), string_draw_batch(data, DESK, step)
                for a, b in zip((x for row in got for x in row),
                                (x for row in want for x in row)):
                    assert np.shares_memory(a, b) and a.shape == b.shape
                    assert a.__array_interface__["data"] == b.__array_interface__["data"]

    def test_insufficient_speakers_rejected(self):
        """Checked once, by `train_run`, before step 0."""
        data = corpus(n_speakers=3)
        with pytest.raises(ValueError, match="need 4 speakers with >= 3 utterances, have 3"):
            train_run(data, None, QUICK, NET)

    def test_train_run_draws_every_batch_from_one_pool(self, monkeypatch):
        """`train_run` builds the pool once and hands it to every step: each
        speaker's own frame arrays, in label order, less the speakers with
        fewer than M utterances."""
        full = corpus()
        data = Dataset({lab: full.speakers[lab][: 2 if i % 3 == 1 else 3]
                        for i, lab in enumerate(full.labels)}, "train")
        pools = []
        real = trainer.make_batch

        def spy(pool, config, step_index):
            pools.append(pool)
            return real(pool, config, step_index)

        monkeypatch.setattr(trainer, "make_batch", spy)
        train_run(data, None, QUICK, NET)
        assert len(pools) == QUICK.steps and all(pool is pools[0] for pool in pools)
        want = [[u.frames for u in data.speakers[lab]] for i, lab in enumerate(data.labels)
                if i % 3 != 1]
        assert [len(row) for row in pools[0]] == [3] * 5
        assert all(got is frames for row, want_row in zip(pools[0], want)
                   for got, frames in zip(row, want_row))


def copy_layers(weights):
    return Weights(weights.config, [(m.copy(), b.copy()) for m, b in weights.layers])


class TestTrainStep:
    def test_inputs_never_mutated(self):
        """The step state copies the weights it starts from, and a step
        changes the state alone: not those weights, nor the batch."""
        data = corpus()
        weights = init_weights(NET, seed=0)
        params = ScaleParams(10.0, -5.0)
        snapshot = copy_layers(weights)
        batch = make_batch(row_pool(data, QUICK), QUICK, 0)
        batch_copy = [[crop.copy() for crop in row] for row in batch]
        state = StepState(weights, params)
        loss = train_step(state, batch, QUICK)
        for (m0, b0), (m1, b1) in zip(snapshot.layers, weights.layers):
            assert np.array_equal(m0, m1) and np.array_equal(b0, b1)
        assert all(np.array_equal(x, y) for ra, rb in zip(batch, batch_copy)
                   for x, y in zip(ra, rb))
        assert params.w == 10.0 and params.b == -5.0
        assert state.weights is not weights and state.params != params and np.isfinite(loss)
        assert any(not np.array_equal(m0, m1)
                   for (m0, _), (m1, _) in zip(snapshot.layers, state.weights.layers))

    def test_step_is_a_pure_function(self):
        """Two states built from equal weights and params give equal results."""
        data = corpus()
        weights = init_weights(NET, seed=0)
        params = ScaleParams(10.0, -5.0)
        batch = make_batch(row_pool(data, QUICK), QUICK, 1)
        a, b = StepState(weights, params), StepState(weights, params)
        assert train_step(a, batch, QUICK) == train_step(b, batch, QUICK)
        assert a.params == b.params
        for (ma, ba_), (mb, bb) in zip(a.weights.layers, b.weights.layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba_, bb)

    def test_matches_the_allocating_loop_oracle_bit_for_bit(self):
        """Benign, inner and outer desk steps of the step state give exactly
        the loss, params and float32 layers of the allocating step, and the
        float64 master stays the float32 layers upcast after every step."""
        weights = init_weights(DESK_NET, seed=3)
        params = ScaleParams(10.0, -5.0)
        state = StepState(weights, params)
        for batch, attacker in desk_steps(seed=5, n_steps=9):
            weights, params, want = oracle_step(weights, params, batch, DESK, attacker)
            assert train_step(state, batch, DESK, attacker) == want
            assert state.params == params
            for (m0, b0), (m1, b1), (mm, bm) in zip(weights.layers, state.weights.layers,
                                                    state.masters):
                assert m1.dtype == b1.dtype == np.float32
                assert m0.tobytes() == m1.tobytes() and b0.tobytes() == b1.tobytes()
                assert mm.tobytes() == m1.astype(np.float64).tobytes()
                assert bm.tobytes() == b1.astype(np.float64).tobytes()

    def test_state_views_share_the_flat_buffers(self, tmp_path):
        """Every per-layer view reads its flat buffer in layer order, and a
        checkpoint saved from the state's weights loads back bit-exact."""
        pool = row_pool(corpus(), QUICK)
        state = StepState(init_weights(NET, seed=2), ScaleParams(10.0, -5.0))
        for step in range(2):
            train_step(state, make_batch(pool, QUICK, step), QUICK)
        for flat, pairs in ((state.low, state.weights.layers), (state.master, state.masters),
                            (state.grad, state.grads)):
            arrays = [a for pair in pairs for a in pair]
            assert all(np.shares_memory(a, flat) for a in arrays)
            assert np.concatenate([a.ravel() for a in arrays]).tobytes() == flat.tobytes()
        assert state.low.dtype == np.float32 and state.master.dtype == np.float64
        assert state.master.tobytes() == state.low.astype(np.float64).tobytes()
        path = tmp_path / "state.dvec"
        save_checkpoint(state.weights, path)
        loaded = load_checkpoint(path)
        for (m0, b0), (m1, b1) in zip(state.weights.layers, loaded.layers):
            assert m0.tobytes() == m1.tobytes() and b0.tobytes() == b1.tobytes()

    def test_clip_scale_is_one_sum_over_the_flat_gradient(self):
        """The clip sums the squares of the state's flat gradient in place, bit-equal
        to the same `einsum` over a fresh concatenated copy of the per-layer
        gradients, and within 1e-12 of the per-layer `np.sum(g * g)` total."""
        rng = np.random.default_rng(80)
        state = StepState(init_weights(DESK_NET, seed=3), ScaleParams(10.0, -5.0))
        for _ in range(5):
            for pair in state.grads:
                for g in pair:
                    g[...] = rng.normal(size=g.shape)
            d_w, d_b = rng.normal(size=2)
            scale = _clip_scale(state, d_w, d_b, 3.0)
            assert scale == 3.0 / np.sqrt(d_w * d_w + d_b * d_b + fresh_square_sum(state.grads))
            per_layer = d_w * d_w + d_b * d_b + sum(float(np.sum(g * g))
                                                    for pair in state.grads for g in pair)
            assert scale == pytest.approx(3.0 / np.sqrt(per_layer), rel=1e-12, abs=0)

    def test_desk_state_holds_two_float64_rows(self):
        """A desk-net state allocates the float32 layers and one (2, n) float64
        block, master and gradient: under 22 bytes per parameter (tracemalloc);
        with the clip's squares row it took 28."""
        weights = init_weights(DESK_NET, seed=3)
        n_params = sum(m.size + b.size for m, b in weights.layers)
        tracemalloc.start()
        try:
            state = StepState(weights, ScaleParams(10.0, -5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.grad.size == n_params == 90_400
        assert peak < 22 * n_params

    def test_warmed_desk_step_allocates_under_budget(self):
        """A warmed desk step reuses its weight and gradient buffers: the
        transient peak it allocates (tracemalloc, which sees numpy's arrays)
        stays under 1.5 MB; the allocating step peaked at about 3.1 MB."""
        state = StepState(init_weights(DESK_NET, seed=3), ScaleParams(10.0, -5.0))
        steps = list(desk_steps(seed=5, n_steps=6))
        for batch, attacker in steps[:3]:  # warm: every window count seen once
            train_step(state, batch, DESK, attacker)
        for batch, attacker in steps[3:]:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train_step(state, batch, DESK, attacker)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6, f"transient peak {peak} B"

    def test_update_norm_bounded_by_clip(self):
        """The parameter move is exactly lr * min(grad_norm, clip_norm), so
        it never exceeds lr * clip_norm."""
        pool = row_pool(corpus(), QUICK)
        for lr in (0.05, 0.5):
            config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                                 crop_frames=20, steps=1, learning_rate=lr,
                                 clip_norm=3.0, seed=7)
            state = StepState(init_weights(NET, seed=1), ScaleParams(10.0, -5.0))
            for step in range(4):
                before, before_params = copy_layers(state.weights), state.params
                train_step(state, make_batch(pool, config, step), config)
                moved = total_delta(state.weights, state.params, before, before_params)
                # float32 storage rounds each coordinate after the update
                assert moved <= lr * config.clip_norm + 1e-4

    def test_small_steps_descend(self):
        """A small SGD step lowers the loss on the batch it was computed
        from in nearly all random trials."""
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=1, learning_rate=1e-3, seed=0)
        pool = row_pool(corpus(), config)
        wins = 0
        for trial in range(20):
            state = StepState(init_weights(NET, seed=trial), ScaleParams(10.0, -5.0))
            batch = make_batch(pool, config, trial)
            before = train_step(state, batch, config)
            after = train_step(state, batch, config)  # the loss at the stepped state
            if after < before:
                wins += 1
        assert wins >= 18, f"loss decreased in only {wins}/20 trials"

    def test_w_never_crosses_floor(self, monkeypatch):
        """Even absurd learning rates leave w at or above the 1e-6 floor. On
        these batches d_w < 0, so lr 1e6 drives w up, past the ceiling, which
        raises; with d_w made positive, steps on the same batches land w on
        the floor."""
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=1, learning_rate=1e6, seed=5)
        pool = row_pool(corpus(), config)
        real = ge2e.loss_gradients

        def rising_loss_in_w(*args, **kwargs):
            result = real(*args, **kwargs)
            return result._replace(d_w=abs(result.d_w))

        for seed in range(6):
            state = StepState(init_weights(NET, seed=seed), ScaleParams(1.0, 0.0))
            with pytest.raises(DivergenceError, match="above the ceiling"):
                train_step(state, make_batch(pool, config, 0), config)
        monkeypatch.setattr(ge2e, "loss_gradients", rising_loss_in_w)
        for seed in range(6):
            state = StepState(init_weights(NET, seed=seed), ScaleParams(1.0, 0.0))
            for step in range(3):
                train_step(state, make_batch(pool, config, step), config)
                assert state.params.w == SCALE_MIN

    def test_non_finite_gradient_raises_before_the_update(self, monkeypatch):
        """A NaN gradient entry makes the clip norm NaN: the step raises and
        leaves the state alone, and a run reports the steps before it."""
        real = ge2e.loss_gradients
        calls = []

        def with_nan(result):
            result.d_embeddings[0, 0, 0] = np.nan
            return result

        def nan_at_third_call(*args, **kwargs):
            calls.append(None)
            result = real(*args, **kwargs)
            return with_nan(result) if len(calls) == 3 else result

        monkeypatch.setattr(ge2e, "loss_gradients", nan_at_third_call)
        data = corpus()
        with pytest.raises(DivergenceError, match="^step 2: non-finite gradient norm nan"
                           ) as info:
            train_run(data, None, QUICK, NET, init_seed=4)
        assert len(info.value.report.losses) == 2

        monkeypatch.setattr(ge2e, "loss_gradients", lambda *a, **k: with_nan(real(*a, **k)))
        state = StepState(init_weights(NET, seed=4), ScaleParams(10.0, -5.0))
        before = copy_layers(state.weights)
        with pytest.raises(DivergenceError, match="non-finite gradient norm"):
            train_step(state, make_batch(row_pool(data, QUICK), QUICK, 0), QUICK)
        assert state.params == ScaleParams(10.0, -5.0)
        for (m0, b0), (m1, b1), (mm, bm) in zip(before.layers, state.weights.layers,
                                                state.masters):
            assert np.array_equal(m0, m1) and np.array_equal(b0, b1)
            assert np.array_equal(mm, m0) and np.array_equal(bm, b0)

    def test_nan_weight_raises_on_the_forward_with_history(self, monkeypatch):
        """A NaN master weight makes every pooled norm NaN, which the forward's
        norm guard refuses: the step raises before the loss and the update, and
        a run reports the steps before it."""
        data = corpus()
        state = StepState(init_weights(NET, seed=4), ScaleParams(10.0, -5.0))
        state.master[0] = np.nan
        before = state.low.copy()
        with pytest.raises(DivergenceError, match="^degenerate embedding: "):
            train_step(state, make_batch(row_pool(data, QUICK), QUICK, 0), QUICK)
        assert state.params == ScaleParams(10.0, -5.0)
        assert np.array_equal(state.low, before) and np.isnan(state.master[0])

        real, calls = trainer.train_step, []

        def nan_weight_at_third_step(state, *args):
            calls.append(None)
            if len(calls) == 3:
                state.master[0] = np.nan
            return real(state, *args)

        _, full = train_run(data, None, QUICK, NET, init_seed=4)
        monkeypatch.setattr(trainer, "train_step", nan_weight_at_third_step)
        with pytest.raises(DivergenceError, match="^step 2: degenerate embedding: ") as info:
            train_run(data, None, QUICK, NET, init_seed=4)
        assert info.value.report.losses == full.losses[:2]
        assert info.value.report.poisoned_flags == [False] * 2

    def test_runaway_scale_raises_with_history(self):
        """lr 1e6 on the desk corpus drives w past ge2e.SCALE_MAX: the run
        ends with DivergenceError and the report of the steps before it."""
        train_set, _ = desk_corpus(seed=1)
        config = TrainConfig(learning_rate=1e6, steps=200, seed=3)
        with pytest.raises(DivergenceError, match=r"^step \d+: scale w \S+ above the ceiling"
                           ) as info:
            train_run(train_set, None, config, DESK_NET, init_seed=4)
        partial = info.value.report
        step = int(str(info.value).split(":")[0].split()[1])
        assert len(partial.losses) == step
        assert SCALE_MIN <= partial.final_params.w <= ge2e.SCALE_MAX


class TestConfigHash:
    """Config validation; the one config hash is the CLI's (see test_cli)."""

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(speakers_per_batch=1)
        with pytest.raises(ValueError):
            TrainConfig(utts_per_speaker=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                TrainConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="positive and finite"):
                TrainConfig(clip_norm=bad)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            PoisonSettings("both", SelectionPolicy("RandN"), 0.1)
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError):
                PoisonSettings("inner", SelectionPolicy("RandN"), alpha)


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
            _, report = train_run(data, attacker, config, NET, init_seed=4)
            flagged = {i for i, f in enumerate(report.poisoned_flags) if f}
            assert flagged == choose_poisoned_batches(0.5, 6, (9, _PLAN_TAG))
            assert report.plan_summary["n_poisoned_batches"] == len(flagged) == 3  # round(0.5 * 6)
            assert report.plan_summary["method"] == method

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
        config = replace(QUICK, poison=PoisonSettings("outer", SelectionPolicy("FixedN"), 0.5))
        _, report = train_run(corpus(), attacker, config, NET, init_seed=4)
        assert report.plan_summary["fixed_ids"] == pool[:4]
        assert report.plan_summary["attacker_label"] == attacker.labels[0]

    def test_plan_summary_fields(self):
        """The summary names the resolved policy: FixedN keeps the first N of its ids."""
        attacker = attacker_corpus()
        ids = sorted((u.utterance_id for u in attacker.utterances()), reverse=True)
        settings = PoisonSettings("outer", SelectionPolicy("FixedN", fixed_ids=ids, seed=1), 0.5)
        _, report = train_run(corpus(), attacker, replace(QUICK, poison=settings), NET,
                              init_seed=4)
        assert report.plan_summary == {
            "method": "outer",
            "policy": "FixedN",
            "alpha": 0.5,
            "n_poisoned_batches": 3,
            "fixed_ids": ids[:4],
            "copy_id": None,
            "attacker_label": attacker.labels[0],
        }

    def test_poison_without_attacker_rejected(self):
        data = corpus()
        settings = PoisonSettings("outer", SelectionPolicy("RandN"), 0.1)
        config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3,
                             crop_frames=20, steps=2, seed=0, poison=settings)
        with pytest.raises(ValueError):
            train_run(data, None, config, NET)

    def test_data_the_net_cannot_read_is_rejected_before_step_0(self):
        """A crop shorter than the context, a whole attacker utterance shorter
        than it, and frames of the wrong width each raise ValueError (a config
        fault, not a DivergenceError) before any step runs."""
        data, attacker = corpus(), attacker_corpus()
        outer = replace(QUICK, poison=PoisonSettings("outer", SelectionPolicy("FixedN"), 0.5))
        with pytest.raises(ValueError, match="gives 3 frames, model.context_frames needs >= 4"):
            train_run(data, None, replace(QUICK, crop_frames=3), NET)
        short = Dataset({label: [FeatureSequence(u.frames[:3], label, u.utterance_id)
                                 for u in utts] for label, utts in attacker.speakers.items()},
                        "attacker")
        with pytest.raises(ValueError, match="^attacker utterance .* gives 3 frames"):
            train_run(data, short, outer, NET)
        train_run(data, short, QUICK, NET)  # a benign run never reads the attacker
        with pytest.raises(ValueError, match="40-dim frames, model.input_dim is 30"):
            train_run(data, None, QUICK, replace(NET, input_dim=30))

    def test_runs_build_no_feature_sequences(self, monkeypatch):
        """Crops and swaps stay views of the validated datasets: benign, inner
        and outer runs construct no FeatureSequence."""
        data, attacker = corpus(), attacker_corpus()
        built = []
        post_init = FeatureSequence.__post_init__

        def counted(self):
            built.append(self.utterance_id)
            post_init(self)

        monkeypatch.setattr(FeatureSequence, "__post_init__", counted)
        for method in (None, "inner", "outer"):
            settings = method and PoisonSettings(method, SelectionPolicy("FixedN"), 0.5)
            config = TrainConfig(speakers_per_batch=4, utts_per_speaker=3, crop_frames=20,
                                 steps=4, seed=3, poison=settings)
            _, report = train_run(data, attacker if method else None, config, NET)
            assert sum(report.poisoned_flags) == (2 if method else 0)
        assert built == []

    def test_degenerate_step_raises_divergence_with_history(self, monkeypatch):
        """A ValueError from loss_gradients mid-run (here a degenerate
        leave-one-out centroid at step 3: speaker 0's rows b and -b cancel, so
        row a's centroid of the other two is zero, though every row is a unit
        row) ends the run with the report of the steps before it."""
        real = ge2e.loss_gradients
        calls = []

        def collapsing(embeddings, *args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                embeddings = embeddings.copy()
                embeddings[0, 2] = -embeddings[0, 1]
            return real(embeddings, *args, **kwargs)

        monkeypatch.setattr(ge2e, "loss_gradients", collapsing)
        data = corpus()
        with pytest.raises(DivergenceError, match="^step 3: degenerate centroid: ") as info:
            train_run(data, None, QUICK, NET, init_seed=4)
        assert isinstance(info.value.__cause__.__cause__, ValueError)
        monkeypatch.setattr(ge2e, "loss_gradients", real)
        _, full = train_run(data, None, QUICK, NET, init_seed=4)
        partial = info.value.report
        assert partial.losses == full.losses[:3]
        assert partial.poisoned_flags == [False] * 3

    def test_divergence_error_carries_report(self):
        err = DivergenceError("boom")
        assert err.report is None
        from univox.trainer import TrainReport

        partial = TrainReport([1.0], [False], ScaleParams(1.0, 0.0))
        assert DivergenceError("boom", report=partial).report is partial
