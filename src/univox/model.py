"""d-vector embedding network: stacked context windows through an FC stack.

An utterance's T x 40 features are sliced into overlapping context windows of
`context_frames` frames, each flattened to one input row. All rows pass
through ReLU hidden layers and a final linear layer; per-window outputs are
averaged and L2-normalized once to give the utterance embedding.

Weights are float32 end-to-end (the checkpoint format is float32, and round
trips must be bit-exact); `_forward` reads exact float64 copies of the layers
(`float64_layers`), which training keeps across steps and evaluation makes once.
"""

from __future__ import annotations

import functools
import json
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataio import Dataset, canonical_json, write_hashed

CHECKPOINT_MAGIC = b"DVEC"
CHECKPOINT_VERSION = 1
EMBED_NORM_EPS = 1e-12
INIT_SCHEME = "glorot_uniform"  # `init_weights`' scheme, named in every checkpoint


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
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in dims):
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
        return asdict(self)  # JSON writes `hidden_dims` as a list


@dataclass
class Weights:
    """Per-layer (matrix, bias) pairs in forward order, float32."""

    config: NetConfig
    layers: List[Tuple[np.ndarray, np.ndarray]]
    seed: int = 0


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


@functools.lru_cache(maxsize=256)
def _batch_index(lengths: Tuple[int, ...], width: int, hop: int):
    """Frame indices, into the utterances laid end to end, of every context window;
    each utterance's window count; and the (utterances x most windows) pooling index
    of each utterance's window rows in order, whose spare slots point one row past
    the last. Read-only, as batches of these lengths share them."""
    starts = [np.asarray(_window_starts(n, width, hop)) + offset
              for n, offset in zip(lengths, np.cumsum((0,) + lengths[:-1]))]
    index = np.concatenate(starts)[:, None] + np.arange(width)
    counts = np.array([len(s) for s in starts])
    slots = np.arange(counts.max())
    pool = np.where(slots < counts[:, None], (np.cumsum(counts) - counts)[:, None] + slots,
                    len(index))
    index.flags.writeable = counts.flags.writeable = pool.flags.writeable = False
    return index, counts, pool


def _stack_windows(config: NetConfig, frames_list: Sequence[np.ndarray]):
    """Flatten every context window of every utterance into one row matrix;
    also returns `_batch_index`'s window counts and pooling index. Frames come
    from data that `check_fits` passed."""
    index, counts, pool = _batch_index(tuple(len(frames) for frames in frames_list),
                                       config.context_frames, config.window_hop)
    frames = np.concatenate(frames_list, dtype=np.float64)
    return frames[index].reshape(len(index), -1), counts, pool


def check_fits(data: Dataset, net: NetConfig, crop_frames: Optional[int] = None) -> None:
    """The one check that the net can read `data`: every utterance has input_dim
    columns and, cropped to `crop_frames`, at least context_frames rows; else a
    ValueError names the first that fails."""
    for utt in data.utterances():
        n_frames, dim = utt.frames.shape
        name = f"{data.role_tag} utterance {utt.utterance_id!r}"
        if dim != net.input_dim:
            raise ValueError(f"{name} has {dim}-dim frames, model.input_dim is {net.input_dim}")
        n_frames = min(n_frames, crop_frames or n_frames)
        if n_frames < net.context_frames:
            raise ValueError(f"{name} gives {n_frames} frames, "
                             f"model.context_frames needs >= {net.context_frames}")


def float64_layers(weights: Weights) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Exact float64 copies of the float32 layers: the form `_forward` reads."""
    return [(m.astype(np.float64), b.astype(np.float64)) for m, b in weights.layers]


def _forward(config: NetConfig, layers: Sequence[Tuple[np.ndarray, np.ndarray]],
             frames_list: Sequence[np.ndarray]):
    """One pass for a group of utterances through float64 (matrix, bias) layers;
    returns embeddings plus backprop cache. The one embedding guard: a pooled norm
    below EMBED_NORM_EPS, NaN or infinite (an overflow) raises ValueError."""
    stacked, counts, pool = _stack_windows(config, frames_list)
    acts = [stacked]
    hidden = stacked
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in an inf or NaN norm
        for mat, bias in layers[:-1]:
            pre = hidden @ mat.T
            pre += bias
            hidden = np.maximum(pre, 0.0, out=pre)  # NaN is kept, and the norm guard stops it
            acts.append(hidden)
        final_mat, final_bias = layers[-1]
        outputs = np.empty((len(stacked) + 1, config.embed_dim))
        outputs[-1] = -0.0  # the row `pool`'s spare slots read: x + -0.0 is x, bit for bit
        np.matmul(hidden, final_mat.T, out=outputs[:-1])
        outputs[:-1] += final_bias

        # mean over each utterance's windows, summed in order as a per-utterance loop would
        # (at embed_dim 1 numpy's reduction sums pairwise, so there the pad row regroups it)
        means = np.add.reduce(outputs[pool], 1) / counts[:, None]
        norms = np.sqrt(np.add.reduce(means * means, 1))  # np.linalg.norm's sums
    if not (norms.min() >= EMBED_NORM_EPS and norms.max() < np.inf):  # min and max keep NaN
        raise ValueError("degenerate embedding: pre-normalization norm ~ 0, NaN or infinite")
    embeddings = means / norms[:, None]
    cache = {"mats": layers, "acts": acts, "counts": counts,
             "norms": norms, "embeddings": embeddings}
    return embeddings, cache


def _backward(cache, grad_embeddings: np.ndarray,
              grads: Sequence[Tuple[np.ndarray, np.ndarray]]):
    """Gradients of sum_u g_u . e_u with respect to every matrix and bias,
    written into `grads` (one float64 pair per layer, shaped like it) and
    returned."""
    mats = cache["mats"]
    acts = cache["acts"]
    counts = cache["counts"]
    embeddings = cache["embeddings"]
    norms = cache["norms"]

    # through L2 normalization: d(g.e)/d(mean) = (g - (g.e) e) / ||mean||
    proj = np.add.reduce(grad_embeddings * embeddings, 1)
    grad_means = (grad_embeddings - proj[:, None] * embeddings) / norms[:, None]

    delta = np.repeat(grad_means / counts[:, None], counts, axis=0)  # mean over windows
    for layer in range(len(mats) - 1, -1, -1):
        if layer < len(mats) - 1:
            delta = delta @ mats[layer + 1][0]
            delta *= acts[layer + 1] > 0  # = pre > 0: np.maximum keeps NaN, and NaN > 0 is false
        mat_grad, bias_grad = grads[layer]
        np.matmul(delta.T, acts[layer], out=mat_grad)
        np.add.reduce(delta, 0, out=bias_grad)
    return grads


def embed_utterance(config: NetConfig, layers, frames: np.ndarray) -> np.ndarray:
    """Unit-norm embedding of one utterance's frames through `float64_layers`."""
    return _forward(config, layers, [frames])[0][0]


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(weights: Weights, path, meta: Dict | None = None) -> Tuple[str, int]:
    """Binary format: DVEC magic, u32 version, length-prefixed config JSON, then row-major
    float32 layer data (matrix before bias, forward order); returns `write_hashed`'s result."""
    config = {**weights.config.to_dict(), "seed": weights.seed, "scheme": INIT_SCHEME}
    if meta:
        config["meta"] = meta
    blob = canonical_json(config).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(blob)), blob]
    parts += [np.ascontiguousarray(array, "<f4") for pair in weights.layers for array in pair]
    return write_hashed(path, parts)


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
        config = NetConfig(**{f.name: config_dict[f.name] for f in fields(NetConfig)})
        seed = config_dict.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too; deep nesting recurses
        raise CheckpointError(f"bad config blob: {exc!r}") from exc
    offset = 12 + blob_len
    dims = config.layer_dims
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        count = fan_out * (fan_in + 1)  # the matrix, then the bias
        if offset + 4 * count > len(data):
            raise CheckpointError("truncated layer data")
        values = np.frombuffer(data, "<f4", count, offset)
        offset += 4 * count
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"non-finite values in layer {len(layers)}")
        # read-only views into the file's bytes: nothing writes to loaded layers
        layers.append((values[:-fan_out].reshape(fan_out, fan_in), values[-fan_out:]))
    if offset != len(data):
        raise CheckpointError("trailing bytes after layer data")
    return Weights(config, layers, seed=seed)
