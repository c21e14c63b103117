"""d-vector embedding network: stacked context windows through an FC stack.

An utterance's T x 40 features are sliced into overlapping context windows of
`context_frames` frames, each flattened to one input row. All rows pass
through ReLU hidden layers and a final linear layer; per-window outputs are
averaged and L2-normalized once to give the utterance embedding.

Weights are float32 end-to-end (the checkpoint format is float32, and round
trips must be bit-exact); arithmetic upcasts to float64.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .dataio import FeatureSequence

CHECKPOINT_MAGIC = b"DVEC"
CHECKPOINT_VERSION = 1
EMBED_NORM_EPS = 1e-12


class CheckpointError(ValueError):
    """Malformed checkpoint bytes."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture of the embedding network."""

    input_dim: int = 40
    context_frames: int = 32
    window_hop: int = 16
    hidden_dims: Tuple[int, ...] = (1280, 1280, 1280)
    embed_dim: int = 256

    def __post_init__(self) -> None:
        dims = (self.input_dim, self.context_frames, self.window_hop, self.embed_dim,
                *self.hidden_dims)
        if not all(isinstance(d, numbers.Integral) for d in dims):
            raise ValueError("input_dim, context_frames, window_hop and all layer widths "
                             "must be integers")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.input_dim < 1 or self.context_frames < 1 or self.window_hop < 1:
            raise ValueError("input_dim, context_frames, window_hop must be positive")
        if self.embed_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValueError("layer widths must be positive")

    @property
    def layer_dims(self) -> List[int]:
        """Widths from the flattened window input through to the embedding."""
        return [self.input_dim * self.context_frames, *self.hidden_dims, self.embed_dim]

    def to_dict(self) -> Dict:
        return {
            "input_dim": self.input_dim,
            "context_frames": self.context_frames,
            "window_hop": self.window_hop,
            "hidden_dims": list(self.hidden_dims),
            "embed_dim": self.embed_dim,
        }


@dataclass
class Weights:
    """Per-layer (matrix, bias) pairs in forward order, float32."""

    config: NetConfig
    layers: List[Tuple[np.ndarray, np.ndarray]]
    seed: int = 0
    scheme: str = "glorot_uniform"

    def __post_init__(self) -> None:
        dims = self.config.layer_dims
        if len(self.layers) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} layers, got {len(self.layers)}")
        for idx, (mat, bias) in enumerate(self.layers):
            if mat.shape != (dims[idx + 1], dims[idx]) or bias.shape != (dims[idx + 1],):
                raise ValueError(f"layer {idx} shape mismatch with config")


def init_weights(config: NetConfig, seed: int) -> Weights:
    """Glorot-uniform matrices, zero biases."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        mat = rng.uniform(-bound, bound, (fan_out, fan_in)).astype(np.float32)
        layers.append((mat, np.zeros(fan_out, dtype=np.float32)))
    return Weights(config, layers, seed=seed)


# ---------------------------------------------------------------------------
# forward / backward over stacked windows
# ---------------------------------------------------------------------------


def _window_starts(n_frames: int, width: int, hop: int) -> List[int]:
    starts = list(range(0, n_frames - width + 1, hop))
    if starts[-1] != n_frames - width:
        starts.append(n_frames - width)  # final window is anchored to the end
    return starts


def _stack_windows(config: NetConfig, frames_list: Sequence[np.ndarray]):
    """Flatten every context window of every utterance into one row matrix."""
    rows = []
    bounds = [0]
    for frames in frames_list:
        n_frames, dim = frames.shape
        if dim != config.input_dim:
            raise ValueError(f"expected {config.input_dim}-dim frames, got {dim}")
        if n_frames < config.context_frames:
            raise ValueError(
                f"utterance has {n_frames} frames, needs >= {config.context_frames}"
            )
        starts = _window_starts(n_frames, config.context_frames, config.window_hop)
        for start in starts:
            rows.append(frames[start : start + config.context_frames].reshape(-1))
        bounds.append(bounds[-1] + len(starts))
    return np.asarray(rows, dtype=np.float64), np.asarray(bounds)


def _forward(weights: Weights, frames_list: Sequence[np.ndarray]):
    """One pass for a group of utterances; returns embeddings plus backprop cache."""
    stacked, bounds = _stack_windows(weights.config, frames_list)
    mats = [(m.astype(np.float64), b.astype(np.float64)) for m, b in weights.layers]
    acts = [stacked]
    masks = []
    hidden = stacked
    for mat, bias in mats[:-1]:
        pre = hidden @ mat.T + bias
        mask = pre > 0
        hidden = np.where(mask, pre, 0.0)
        acts.append(hidden)
        masks.append(mask)
    final_mat, final_bias = mats[-1]
    outputs = hidden @ final_mat.T + final_bias

    n_utts = len(bounds) - 1
    means = np.empty((n_utts, weights.config.embed_dim))
    for u in range(n_utts):
        means[u] = outputs[bounds[u] : bounds[u + 1]].mean(axis=0)
    norms = np.linalg.norm(means, axis=1)
    if np.any(norms < EMBED_NORM_EPS):
        raise ValueError("degenerate embedding: pre-normalization norm ~ 0")
    embeddings = means / norms[:, None]
    cache = {"mats": mats, "acts": acts, "masks": masks, "bounds": bounds,
             "means": means, "norms": norms, "embeddings": embeddings}
    return embeddings, cache


def _backward(cache, grad_embeddings: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Gradients of sum_u g_u . e_u with respect to every matrix and bias."""
    mats = cache["mats"]
    acts = cache["acts"]
    masks = cache["masks"]
    bounds = cache["bounds"]
    embeddings = cache["embeddings"]
    norms = cache["norms"]

    # through L2 normalization: d(g.e)/d(mean) = (g - (g.e) e) / ||mean||
    proj = np.sum(grad_embeddings * embeddings, axis=1)
    grad_means = (grad_embeddings - proj[:, None] * embeddings) / norms[:, None]

    n_rows = acts[0].shape[0]
    delta = np.empty((n_rows, grad_means.shape[1]))
    for u in range(len(bounds) - 1):
        lo, hi = bounds[u], bounds[u + 1]
        delta[lo:hi] = grad_means[u] / (hi - lo)  # mean over windows

    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(mats)  # type: ignore
    grads[-1] = (delta.T @ acts[-1], delta.sum(axis=0))
    delta = delta @ mats[-1][0]
    for layer in range(len(mats) - 2, -1, -1):
        delta = delta * masks[layer]
        grads[layer] = (delta.T @ acts[layer], delta.sum(axis=0))
        if layer > 0:
            delta = delta @ mats[layer][0]
    return grads


def embed_utterance(weights: Weights, features: FeatureSequence) -> np.ndarray:
    """Pure forward pass for one utterance: its unit-norm float64 embedding."""
    embeddings, _ = _forward(weights, [features.frames])
    return embeddings[0]


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(weights: Weights, path, meta: Dict | None = None) -> None:
    """Binary format: DVEC magic, u32 version, length-prefixed config JSON,
    then row-major float32 layer data (matrix before bias, forward order)."""
    config = dict(weights.config.to_dict())
    config["seed"] = weights.seed
    config["scheme"] = weights.scheme
    if meta:
        config["meta"] = meta
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(blob)), blob]
    for mat, bias in weights.layers:
        parts.append(np.ascontiguousarray(mat, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(bias, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> Weights:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack_from("<I", data, 8)
    if len(data) < 12 + blob_len:
        raise CheckpointError("truncated config blob")
    try:
        config_dict = json.loads(data[12 : 12 + blob_len].decode("utf-8"))
        config = NetConfig(
            input_dim=config_dict["input_dim"],
            context_frames=config_dict["context_frames"],
            window_hop=config_dict["window_hop"],
            hidden_dims=tuple(config_dict["hidden_dims"]),
            embed_dim=config_dict["embed_dim"],
        )
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too; deep nesting recurses
        raise CheckpointError(f"bad config blob: {exc!r}") from exc
    offset = 12 + blob_len
    dims = config.layer_dims
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        mat_bytes = fan_out * fan_in * 4
        bias_bytes = fan_out * 4
        if offset + mat_bytes + bias_bytes > len(data):
            raise CheckpointError("truncated layer data")
        mat = np.frombuffer(data, dtype="<f4", count=fan_out * fan_in, offset=offset)
        offset += mat_bytes
        bias = np.frombuffer(data, dtype="<f4", count=fan_out, offset=offset)
        offset += bias_bytes
        layers.append((mat.reshape(fan_out, fan_in).copy(), bias.copy()))
    if offset != len(data):
        raise CheckpointError("trailing bytes after layer data")
    return Weights(config, layers,
                   seed=config_dict.get("seed", 0),
                   scheme=config_dict.get("scheme", "glorot_uniform"))
