"""Embedding-network tests: a loop-based forward oracle, finite-difference
checks of the manual backward pass, and checkpoint round trips."""

import json
import struct

import numpy as np
import pytest

from univox.dataio import FeatureSequence
from univox.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    Embedding,
    NetConfig,
    Weights,
    _backward,
    _forward,
    _window_starts,
    embed_utterance,
    init_weights,
    load_checkpoint,
    save_checkpoint,
)

TINY = NetConfig(input_dim=6, context_frames=3, window_hop=2, hidden_dims=(8,), embed_dim=5)


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

    def test_weights_shape_validation(self):
        weights = init_weights(TINY, seed=0)
        with pytest.raises(ValueError):
            Weights(TINY, weights.layers[:1])
        bad = [(np.zeros((8, 17), dtype=np.float32), np.zeros(8, dtype=np.float32)),
               weights.layers[1]]
        with pytest.raises(ValueError):
            Weights(TINY, bad)

    def test_embedding_requires_unit_norm(self):
        Embedding(np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            Embedding(np.array([0.6, 0.9]))
        with pytest.raises(ValueError):
            Embedding(np.eye(2))


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
        weights = init_weights(TINY, seed=0)
        with pytest.raises(ValueError):
            _forward(weights, [np.zeros((2, 6))])  # needs >= context_frames

    def test_wrong_dim_rejected(self):
        weights = init_weights(TINY, seed=0)
        with pytest.raises(ValueError):
            _forward(weights, [np.zeros((5, 7))])


class TestForward:
    def test_matches_loop_oracle(self):
        """Batched forward equals the window-by-window loop version."""
        rng = np.random.default_rng(50)
        weights = init_weights(TINY, seed=1)
        for _ in range(30):
            frames_list = [
                random_features(rng, int(rng.integers(3, 12))) for _ in range(4)
            ]
            embeddings, _ = _forward(weights, frames_list)
            for u, frames in enumerate(frames_list):
                np.testing.assert_allclose(
                    embeddings[u], naive_embed(weights, frames), rtol=1e-10, atol=1e-12
                )

    def test_embeddings_are_unit_norm(self):
        rng = np.random.default_rng(51)
        weights = init_weights(TINY, seed=2)
        embeddings, _ = _forward(
            weights, [random_features(rng, 9) for _ in range(6)]
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
        utts = [FeatureSequence(rng.normal(size=(10 + u, 40)), f"s{u}", f"u{u}")
                for u in range(6)]
        batch, _ = _forward(weights, [utt.frames for utt in utts])
        assert batch.shape == (6, 8)
        for row, utt in zip(batch, utts):
            np.testing.assert_allclose(row, embed_utterance(weights, utt).vector, atol=1e-12)


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
            weights = Weights(TINY, layers)
            frames = random_features(rng, 7)
            upstream = rng.normal(size=5)

            def scalar(ws):
                emb, _ = _forward(ws, [frames])
                return float(upstream @ emb[0])

            _, cache = _forward(weights, [frames])
            grads = _backward(cache, upstream[None, :])
            for li in range(len(layers)):
                for which in (0, 1):
                    grad = grads[li][which]
                    fd = np.zeros_like(grad)
                    for idx in np.ndindex(grad.shape):
                        pl = [(m.copy(), b.copy()) for m, b in layers]
                        mi = list(pl[li]); mi[which] = mi[which].copy()
                        mi[which][idx] += h
                        pl[li] = tuple(mi)
                        up = scalar(Weights(TINY, pl))
                        pl = [(m.copy(), b.copy()) for m, b in layers]
                        mi = list(pl[li]); mi[which] = mi[which].copy()
                        mi[which][idx] -= h
                        pl[li] = tuple(mi)
                        dn = scalar(Weights(TINY, pl))
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
        assert loaded.seed == 9 and loaded.scheme == "glorot_uniform"
        for (ma, ba), (mb, bb) in zip(weights.layers, loaded.layers):
            assert np.array_equal(ma, mb) and np.array_equal(ba, bb)
        features = FeatureSequence(rng.normal(size=(11, 40)), "s", "u")
        before = embed_utterance(weights, features).vector
        after = embed_utterance(loaded, features).vector
        assert np.array_equal(before, after)

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
            b"XXXX" + blob[4:],              # wrong magic
            blob[:4] + b"\x02\x00\x00\x00" + blob[8:],  # unknown version
            blob[: len(blob) - 3],           # truncated layer data
            blob + b"\x00\x00\x00\x00",      # trailing bytes
            blob[:10],                       # truncated config blob
        )
        for payload in cases:
            bad.write_bytes(payload)
            with pytest.raises(CheckpointError):
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
        for bad_dim in (-1, 2.5):
            path.write_bytes(self.blob_with_config(self.config_json(input_dim=bad_dim)))
            with pytest.raises(CheckpointError, match="input_dim"):
                load_checkpoint(path)
