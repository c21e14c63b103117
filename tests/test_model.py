"""Embedding-network tests: a loop-based forward oracle, finite-difference
checks of the manual backward pass, and checkpoint round trips."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from univox.dataio import Dataset, FeatureSequence
from univox.evaluate import EvalProtocol, evaluate_model
from univox.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    NetConfig,
    _backward,
    _forward,
    _stack_windows,
    _window_starts,
    embed_utterance,
    float64_layers,
    init_weights,
    load_checkpoint,
    save_checkpoint,
)

TINY = NetConfig(input_dim=6, context_frames=3, window_hop=2, hidden_dims=(8,), embed_dim=5)
TINY_40 = NetConfig(input_dim=40, context_frames=3, window_hop=2, hidden_dims=(8,), embed_dim=5)
ONE_EACH = EvalProtocol(n_enroll=1, n_test=1)


def corpus(n_frames, role):
    """Two speakers of two random `n_frames` x 40 utterances each."""
    rng = np.random.default_rng(41)
    return Dataset({f"s{j}": [FeatureSequence(rng.normal(size=(n_frames, 40)), f"s{j}",
                                              f"s{j}_u{i}") for i in range(2)]
                    for j in range(2)}, role)


def naive_embed(weights, frames):
    """Window-by-window forward pass written with explicit loops."""
    cfg = weights.config
    width, hop = cfg.context_frames, cfg.window_hop
    n_frames = frames.shape[0]
    starts = list(range(0, n_frames - width + 1, hop))
    if starts[-1] != n_frames - width:
        starts.append(n_frames - width)
    outs = []
    for start in starts:
        x = frames[start : start + width].reshape(-1).astype(np.float64)
        for li, (mat, bias) in enumerate(weights.layers):
            x = mat.astype(np.float64) @ x + bias.astype(np.float64)
            if li < len(weights.layers) - 1:
                x = np.maximum(x, 0.0)
        outs.append(x)
    mean = np.mean(outs, axis=0)
    return mean / np.linalg.norm(mean)


def random_features(rng, n_frames, dim=6):
    frames = rng.normal(size=(n_frames, 40))
    frames[:, dim:] = 0.0  # FeatureSequence is fixed at 40 columns
    return frames[:, :dim]


class TestConfigAndInit:
    def test_layer_dims_chain(self):
        """Widths run flattened-window input -> hidden stack -> embedding."""
        assert TINY.layer_dims == [18, 8, 5]
        assert NetConfig().layer_dims == [40 * 32, 1280, 1280, 1280, 256]

    def test_config_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            NetConfig(context_frames=0)
        with pytest.raises(ValueError):
            NetConfig(hidden_dims=(16, 0))
        with pytest.raises(ValueError):
            NetConfig(embed_dim=0)
        for not_integer in (dict(context_frames=4.5), dict(hidden_dims=(16.7,)),
                            dict(hidden_dims="16")):
            with pytest.raises(ValueError):
                NetConfig(**not_integer)

    def test_init_shapes_bounds_and_dtype(self):
        """Glorot-uniform matrices within sqrt(6/(fan_in+fan_out)), zero
        float32 biases."""
        weights = init_weights(TINY, seed=3)
        dims = TINY.layer_dims
        assert len(weights.layers) == 2
        for idx, (mat, bias) in enumerate(weights.layers):
            fan_in, fan_out = dims[idx], dims[idx + 1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert mat.shape == (fan_out, fan_in)
            assert mat.dtype == np.float32 and bias.dtype == np.float32
            assert np.max(np.abs(mat)) <= bound
            assert np.all(bias == 0.0)

    def test_init_is_deterministic(self):
        a = init_weights(TINY, seed=11)
        b = init_weights(TINY, seed=11)
        c = init_weights(TINY, seed=12)
        for (ma, ba), (mb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba, bb)
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])


class TestWindowing:
    def test_starts_cover_tail(self):
        """The last window is anchored at T - W even off the hop grid."""
        assert _window_starts(8, 8, 4) == [0]
        assert _window_starts(12, 8, 4) == [0, 4]
        assert _window_starts(13, 8, 4) == [0, 4, 5]
        assert _window_starts(30, 8, 16) == [0, 16, 22]

    def test_starts_properties(self):
        """Strictly increasing, first 0, last T - W, gaps at most hop."""
        rng = np.random.default_rng(40)
        for _ in range(200):
            width = int(rng.integers(1, 12))
            hop = int(rng.integers(1, 12))
            n_frames = int(rng.integers(width, width + 40))
            starts = _window_starts(n_frames, width, hop)
            assert starts[0] == 0
            assert starts[-1] == n_frames - width
            diffs = np.diff(starts)
            assert np.all(diffs > 0) and np.all(diffs <= hop)

    def test_short_utterance_rejected(self):
        """Eval and attacker utterances are embedded whole, so each needs at
        least context_frames frames; evaluation checks before it embeds any."""
        weights = init_weights(TINY_40, seed=0)
        with pytest.raises(ValueError, match="^eval utterance 's0_u0' gives 2 frames, "
                                             "model.context_frames needs >= 3"):
            evaluate_model(weights, corpus(2, "eval"), None, ONE_EACH)
        with pytest.raises(ValueError, match="^attacker utterance .* gives 2 frames"):
            evaluate_model(weights, corpus(5, "eval"), corpus(2, "attacker"), ONE_EACH)

    def test_wrong_dim_rejected(self):
        weights = init_weights(TINY, seed=0)
        with pytest.raises(ValueError, match="^eval utterance 's0_u0' has 40-dim frames, "
                                             "model.input_dim is 6"):
            evaluate_model(weights, corpus(5, "eval"), None, ONE_EACH)


class TestForward:
    def test_matches_loop_oracle(self):
        """Batched forward equals the window-by-window loop version."""
        rng = np.random.default_rng(50)
        weights = init_weights(TINY, seed=1)
        for _ in range(30):
            frames_list = [
                random_features(rng, int(rng.integers(3, 12))) for _ in range(4)
            ]
            embeddings, _ = _forward(TINY, float64_layers(weights), frames_list)
            for u, frames in enumerate(frames_list):
                np.testing.assert_allclose(
                    embeddings[u], naive_embed(weights, frames), rtol=1e-10, atol=1e-12
                )

    def test_embeddings_are_unit_norm(self):
        rng = np.random.default_rng(51)
        weights = init_weights(TINY, seed=2)
        embeddings, _ = _forward(
            TINY, float64_layers(weights), [random_features(rng, 9) for _ in range(6)]
        )
        np.testing.assert_allclose(np.linalg.norm(embeddings, axis=1), 1.0, atol=1e-12)

    def test_embed_utterance_and_batch_agree(self):
        """One forward pass over a batch of utterances (the training path)
        gives, row by row, the embedding of each utterance alone (the eval
        path)."""
        rng = np.random.default_rng(52)
        config = NetConfig(input_dim=40, context_frames=4, window_hop=2,
                           hidden_dims=(16,), embed_dim=8)
        weights = init_weights(config, seed=4)
        frames_list = [rng.normal(size=(10 + u, 40)) for u in range(6)]
        layers = float64_layers(weights)
        batch, _ = _forward(config, layers, frames_list)
        assert batch.shape == (6, 8)
        for row, frames in zip(batch, frames_list):
            np.testing.assert_allclose(row, embed_utterance(config, layers, frames), atol=1e-12)

    @pytest.mark.parametrize("case", ["zero", "nan", "overflow", "matmul-overflow"])
    def test_norm_guard_is_one_value_error(self, case):
        """A pooled norm of 0, NaN or inf raises the one `degenerate embedding`
        error, with no numpy warning (warnings are errors here): finite frames
        and weights whose squared means, or whose layer products, overflow."""
        rng = np.random.default_rng(53)
        config = TINY if case != "matmul-overflow" else NetConfig(
            input_dim=6, context_frames=3, window_hop=2, hidden_dims=(8,) * 8, embed_dim=5)
        layers = float64_layers(init_weights(config, seed=3))
        frames_list = [random_features(rng, 9) for _ in range(3)]
        if case == "zero":
            layers[-1] = (layers[-1][0] * 0, layers[-1][1] * 0)
        elif case == "nan":
            layers[0][0][0, 0] = np.nan
        elif case == "overflow":
            frames_list[1] = frames_list[1] * 1e200
        else:
            layers = [(np.full_like(m, 3e38), np.full_like(b, 3e38)) for m, b in layers]
        with pytest.raises(ValueError, match="^degenerate embedding: pre-normalization norm "):
            _forward(config, layers, frames_list)


class TestStackAndPool:
    # The desk net: 100-frame crops give 7 windows, whole 120-frame
    # utterances (inner attacker crops) 8.
    DESK = NetConfig(input_dim=40, context_frames=8, window_hop=16,
                     hidden_dims=(256,), embed_dim=32)

    @staticmethod
    def loop_rows(config, frames_list):
        """Rows and window counts stacked one utterance, one window at a time."""
        rows, counts = [], []
        for frames in frames_list:
            starts = _window_starts(len(frames), config.context_frames, config.window_hop)
            rows.extend(frames[s : s + config.context_frames].reshape(-1) for s in starts)
            counts.append(len(starts))
        return np.asarray(rows, dtype=np.float64), counts

    @pytest.mark.parametrize("lengths", [
        (100,) * 12,                                 # benign
        (100, 120, 100, 100, 100, 120, 120, 100, 100, 100, 120, 100),  # inner
        (100,) * 12 + (120,) * 4,                    # outer
        (8, 100, 120, 9),                            # 1, 7, 8 and 2 windows
        (100,),                                      # one eval utterance
    ])
    def test_one_gather_and_pooling_match_the_loop_bit_for_bit(self, lengths):
        """The batch-index gather gives the loop's rows, and pooling gives
        each utterance's in-order mean of its own rows, to the bit, on
        uniform and mixed lists and on one utterance, every time a cached
        index is reused; the pooling index reads each utterance's rows in
        order, then the pad row past the last."""
        rng = np.random.default_rng(53)
        layers = float64_layers(init_weights(self.DESK, seed=8))
        for _ in range(3):
            frames_list = [rng.normal(size=(n, 40)) for n in lengths]
            want_rows, want_counts = self.loop_rows(self.DESK, frames_list)
            rows, counts, pool = _stack_windows(self.DESK, frames_list)
            assert rows.tobytes() == want_rows.tobytes() and list(counts) == want_counts
            firsts = np.cumsum([0] + want_counts)
            spare = [max(want_counts) - count for count in want_counts]
            assert pool.tolist() == [list(range(lo, lo + count)) + [len(rows)] * pad
                                     for lo, count, pad in zip(firsts, want_counts, spare)]
            embeddings, cache = _forward(self.DESK, layers, frames_list)
            assert cache["acts"][0].tobytes() == want_rows.tobytes()
            hidden = np.maximum(want_rows @ layers[0][0].T + layers[0][1], 0.0)
            outputs = hidden @ layers[1][0].T + layers[1][1]
            means = np.array([outputs[lo:hi].mean(axis=0)
                              for lo, hi in zip(firsts[:-1], firsts[1:])])
            want = means / np.linalg.norm(means, axis=1)[:, None]
            assert embeddings.tobytes() == want.tobytes()


class TestNetworkBackward:
    def test_matches_finite_differences(self):
        """d(upstream . embedding)/d(weights) matches central differences on
        every coordinate; float64 layers keep the FD comparison clean."""
        rng = np.random.default_rng(60)
        h = 1e-6
        for trial in range(5):
            layers = []
            for fan_in, fan_out in zip(TINY.layer_dims[:-1], TINY.layer_dims[1:]):
                layers.append((rng.normal(0, 0.4, (fan_out, fan_in)),
                               rng.normal(0, 0.1, fan_out)))
            frames = random_features(rng, 7)
            upstream = rng.normal(size=5)

            def scalar(ls):
                emb, _ = _forward(TINY, ls, [frames])
                return float(upstream @ emb[0])

            _, cache = _forward(TINY, layers, [frames])
            buffers = [(np.empty_like(m), np.empty_like(b)) for m, b in layers]
            grads = _backward(cache, upstream[None, :], buffers)
            for li in range(len(layers)):
                for which in (0, 1):
                    grad = grads[li][which]
                    fd = np.zeros_like(grad)
                    for idx in np.ndindex(grad.shape):
                        pl = [(m.copy(), b.copy()) for m, b in layers]
                        mi = list(pl[li]); mi[which] = mi[which].copy()
                        mi[which][idx] += h
                        pl[li] = tuple(mi)
                        up = scalar(pl)
                        pl = [(m.copy(), b.copy()) for m, b in layers]
                        mi = list(pl[li]); mi[which] = mi[which].copy()
                        mi[which][idx] -= h
                        pl[li] = tuple(mi)
                        dn = scalar(pl)
                        fd[idx] = (up - dn) / (2 * h)
                    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Save then load reproduces weights and embeddings exactly."""
        rng = np.random.default_rng(70)
        config = NetConfig(input_dim=40, context_frames=4, window_hop=2,
                           hidden_dims=(16, 12), embed_dim=8)
        weights = init_weights(config, seed=9)
        path = tmp_path / "model.dvec"
        save_checkpoint(weights, path, meta={"note": "round-trip"})
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert loaded.seed == 9
        data = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", data, 8)
        assert json.loads(data[12 : 12 + blob_len])["scheme"] == "glorot_uniform"
        for (ma, ba), (mb, bb) in zip(weights.layers, loaded.layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba, bb)
        frames = rng.normal(size=(11, 40))
        before = embed_utterance(config, float64_layers(weights), frames)
        after = embed_utterance(loaded.config, float64_layers(loaded), frames)
        assert np.array_equal(before, after)

    def test_load_reads_the_layers_in_place(self, tmp_path):
        """Loaded layers are read-only views into the file's bytes: loading
        peaks below 1.25x the file size (a copy per layer would double it)."""
        config = NetConfig(input_dim=40, context_frames=8, window_hop=16,
                           hidden_dims=(256, 256), embed_dim=32)
        path = tmp_path / "model.dvec"
        size = save_checkpoint(init_weights(config, seed=4), path)[1]
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, f"load peaked at {peak} B for a {size} B file"
        for mat, bias in loaded.layers:
            assert not mat.flags.writeable and not bias.flags.writeable
        with pytest.raises(ValueError):
            loaded.layers[0][0][0, 0] = 1.0

    def test_save_is_deterministic_bytes(self, tmp_path):
        weights = init_weights(TINY, seed=5)
        paths = [tmp_path / "a.dvec", tmp_path / "b.dvec"]
        for p in paths:
            save_checkpoint(weights, p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_corrupt_files(self, tmp_path):
        weights = init_weights(TINY, seed=6)
        path = tmp_path / "model.dvec"
        save_checkpoint(weights, path)
        blob = path.read_bytes()
        assert blob[:4] == CHECKPOINT_MAGIC

        bad = tmp_path / "bad.dvec"
        cases = (
            (b"XXXX" + blob[4:], "bad magic"),
            (blob[:4] + b"\x02\x00\x00\x00" + blob[8:], "unsupported checkpoint version"),
            (blob[: len(blob) - 3], "truncated layer data"),
            (blob + b"\x00\x00\x00\x00", "trailing bytes"),
            (blob[:10], "bad magic"),  # shorter than the 12-byte header
            (blob[:14], "truncated config blob"),
            (blob[:-4] + struct.pack("<f", np.inf), "non-finite values"),
        )
        for payload, message in cases:
            bad.write_bytes(payload)
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(bad)

    def blob_with_config(self, config_blob):
        """A checkpoint whose config JSON is replaced by `config_blob`; the
        layer bytes are those of TINY."""
        weights = init_weights(TINY, seed=6)
        layers = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes()
                          for layer in weights.layers for a in layer)
        return (CHECKPOINT_MAGIC + struct.pack("<II", 1, len(config_blob))
                + config_blob + layers)

    def config_json(self, **changes):
        """TINY's checkpoint config JSON with `changes`; None drops a key."""
        config = {**TINY.to_dict(), "seed": 6, "scheme": "glorot_uniform", **changes}
        return json.dumps({k: v for k, v in config.items() if v is not None}).encode()

    def test_config_missing_key_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.dvec"
        path.write_bytes(self.blob_with_config(self.config_json()))
        assert load_checkpoint(path).config == TINY  # the helper's blob is valid
        path.write_bytes(self.blob_with_config(self.config_json(input_dim=None)))
        with pytest.raises(CheckpointError, match="input_dim"):
            load_checkpoint(path)

    def test_config_not_an_object_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.dvec"
        path.write_bytes(self.blob_with_config(b"[6, 3, 2, [8], 5]"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_invalid_dim_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.dvec"
        for bad_dim in (-1, 2.5, True):
            path.write_bytes(self.blob_with_config(self.config_json(input_dim=bad_dim)))
            with pytest.raises(CheckpointError, match="input_dim"):
                load_checkpoint(path)

    @pytest.mark.parametrize("changes, message", [
        ({"embed_dim": True}, "must be integers"),  # not a 1-wide embedding
        ({"context_frames": True}, "must be integers"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ])
    def test_config_bool_or_non_integer_seed_is_checkpoint_error(self, tmp_path, changes,
                                                                 message):
        """JSON true is not an integer width or seed, and a seed that is not an
        integer is refused on load rather than written back by a re-save."""
        path = tmp_path / "bad.dvec"
        path.write_bytes(self.blob_with_config(self.config_json(**changes)))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
