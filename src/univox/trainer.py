"""Training loop: seeded batches, analytic gradients, plain SGD with clipping.

Every randomized step is keyed by (seed, step_index) so a run is a pure
function of its config. A batch is an N x M grid of frame arrays, views into
the row pool the run builds once from a validated Dataset, so the loop builds
no per-crop objects. Poisoned steps are batch ids picked once per run; inner batches
look benign downstream, outer batches carry N attacker arrays whose diagonal
similarities are subtracted from the loss. A run keeps one StepState, which
every step updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import ge2e, model, poison
from .dataio import Dataset

_BATCH_TAG = 0xB1
_INNER_TAG = 0xB2
_PLAN_TAG = 0xB3


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or gradient norm, a scale w above
    ge2e.SCALE_MAX, or a degenerate embedding or centroid; carries the
    partial report."""

    def __init__(self, message: str, report: "TrainReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PoisonSettings:
    """Poisoning knobs carried inside TrainConfig."""

    method: str
    policy: poison.SelectionPolicy
    alpha: float

    def __post_init__(self) -> None:
        if self.method not in ("inner", "outer"):
            raise ValueError(f"method must be 'inner' or 'outer', got {self.method!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class TrainConfig:
    speakers_per_batch: int = 4
    utts_per_speaker: int = 3
    crop_frames: int = 100
    steps: int = 500
    learning_rate: float = 0.01
    clip_norm: float = 3.0
    seed: int = 0
    poison: Optional[PoisonSettings] = None

    def __post_init__(self) -> None:
        if self.speakers_per_batch < 2 or self.utts_per_speaker < 2:
            raise ValueError("need N >= 2 speakers and M >= 2 utterances per batch")
        if self.steps < 1 or self.crop_frames < 1:
            raise ValueError("steps and crop_frames must be positive")
        if not (0 < self.learning_rate < np.inf and 0 < self.clip_norm < np.inf):  # not NaN
            raise ValueError("learning_rate and clip_norm must be positive and finite")


@dataclass
class TrainReport:
    losses: List[float]
    poisoned_flags: List[bool]
    final_params: ge2e.ScaleParams
    plan_summary: Optional[Dict] = None

    def records(self) -> List[Dict]:
        return [
            {"step": i, "loss": loss, "poisoned": flag}
            for i, (loss, flag) in enumerate(zip(self.losses, self.poisoned_flags))
        ]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def make_batch(
    pool: Sequence[Sequence[np.ndarray]], config: TrainConfig, step_index: int
) -> List[List[np.ndarray]]:
    """Seeded draw of N speakers x M utterances from `train_run`'s row pool, each a
    random contiguous crop: a view into the utterance's frames (whole when short)."""
    n_spk, n_utt = config.speakers_per_batch, config.utts_per_speaker
    rng = np.random.default_rng((config.seed, _BATCH_TAG, step_index))
    chosen = rng.choice(len(pool), size=n_spk, replace=False)
    batch: List[List[np.ndarray]] = []
    for speaker in chosen:
        utts = pool[speaker]
        picks = rng.choice(len(utts), size=n_utt, replace=False)
        row = []
        for idx in picks:
            frames = utts[idx]
            if len(frames) > config.crop_frames:
                start = int(rng.integers(len(frames) - config.crop_frames + 1))
                frames = frames[start : start + config.crop_frames]
            row.append(frames)
        batch.append(row)
    return batch


# ---------------------------------------------------------------------------
# one SGD step
# ---------------------------------------------------------------------------


class StepState:
    """One run's parameters, updated in place by every `train_step`; the weights given
    are copied. Flat buffers hold every matrix and bias end to end, read through
    per-layer (matrix, bias) views: `low` (`weights.layers`), the float32 checkpoint
    truth; `master` (`masters`), its exact float64 copy, which the forward pass reads
    and every update rounds through float32; `grad` (`grads`), reused by every step."""

    def __init__(self, weights: model.Weights, params: ge2e.ScaleParams):
        arrays = [array for pair in weights.layers for array in pair]
        self.low = np.concatenate([array.ravel() for array in arrays], dtype=np.float32)
        # one float64 block: per-run buffers were trimmed and page-faulted every run
        self.master, self.grad = np.empty((2, self.low.size))
        self.master[...] = self.low
        bounds = np.cumsum([array.size for array in arrays])[:-1]

        def views(flat):
            parts = [part.reshape(a.shape) for part, a in zip(np.split(flat, bounds), arrays)]
            return list(zip(parts[::2], parts[1::2]))

        self.weights = model.Weights(weights.config, views(self.low), weights.seed)
        self.masters, self.grads = views(self.master), views(self.grad)
        self.params = params


def _clip_scale(state: StepState, d_w: float, d_b: float, clip_norm: float) -> float:
    """Factor that brings the full gradient's norm down to clip_norm. The flat
    gradient's squares are summed in one `einsum`, numpy's own loop, so the
    bits do not depend on how many threads BLAS runs (`np.dot`'s do). A
    non-finite norm raises DivergenceError."""
    norm = np.sqrt(d_w * d_w + d_b * d_b + np.einsum("i,i->", state.grad, state.grad))
    if not np.isfinite(norm):
        raise DivergenceError(f"non-finite gradient norm {float(norm)!r}")
    return clip_norm / norm if norm > clip_norm else 1.0


def train_step(
    state: StepState,
    batch: Sequence[Sequence[np.ndarray]],
    config: TrainConfig,
    attacker: Optional[Sequence[np.ndarray]] = None,
) -> float:
    """One clipped SGD update of `state`, in place, on an N x M grid of frame
    arrays, plus the N attacker arrays of an outer-poisoned batch; returns the
    loss. A non-finite loss or gradient norm, a degenerate embedding or
    centroid, or a scale w above ge2e.SCALE_MAX raises DivergenceError and
    leaves the parameters in `state` as they were."""
    n_spk, n_utt = len(batch), len(batch[0])
    frames_list = [frames for row in batch for frames in row]
    if attacker is not None:
        frames_list.extend(attacker)

    params = state.params
    try:
        embeddings, cache = model._forward(state.weights.config, state.masters, frames_list)
        result = ge2e.loss_gradients(
            embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1), params,
            attacker=None if attacker is None else embeddings[n_spk * n_utt :],
        )
    except ValueError as exc:  # a degenerate embedding or centroid
        raise DivergenceError(str(exc)) from exc
    if not np.isfinite(result.loss):
        raise DivergenceError(f"non-finite loss {result.loss!r}")

    grad_emb = result.d_embeddings.reshape(n_spk * n_utt, -1)
    if attacker is not None:
        grad_emb = np.concatenate([grad_emb, result.d_attacker], axis=0)
    model._backward(cache, grad_emb, state.grads)

    scale = _clip_scale(state, result.d_w, result.d_b, config.clip_norm)
    step = config.learning_rate * scale
    new_w = max(params.w - step * result.d_w, ge2e.SCALE_MIN)
    if not new_w <= ge2e.SCALE_MAX:
        raise DivergenceError(f"scale w {new_w:.6g} above the ceiling {ge2e.SCALE_MAX:g}")
    state.grad *= step
    np.subtract(state.master, state.grad, out=state.grad)
    state.low[...] = state.grad  # rounds to float32
    state.master[...] = state.low
    state.params = ge2e.ScaleParams(new_w, params.b - step * result.d_b)
    return result.loss


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------


def train_run(
    train_data: Dataset,
    attacker_data: Optional[Dataset],
    config: TrainConfig,
    net_config: model.NetConfig,
    init_seed: int = 0,
) -> Tuple[model.Weights, TrainReport]:
    """Train from a fresh init; returns final weights and the step history. Data the
    net cannot read, or too few speakers for a batch, raises ValueError before step 0.
    The batch row pool, a poisoned run's resolved policy and its batch ids are built once."""
    model.check_fits(train_data, net_config, config.crop_frames)
    n_spk, n_utt = config.speakers_per_batch, config.utts_per_speaker
    pool = [[utt.frames for utt in train_data.speakers[label]] for label in train_data.labels
            if len(train_data.speakers[label]) >= n_utt]
    if len(pool) < n_spk:
        raise ValueError(f"need {n_spk} speakers with >= {n_utt} utterances, have {len(pool)}")
    settings = config.poison
    policy, batch_ids, plan = None, frozenset(), None
    attacker_by_id: Dict[str, np.ndarray] = {}
    if settings is not None:
        if attacker_data is None or attacker_data.n_speakers == 0:
            raise ValueError("poisoning enabled but no attacker data supplied")
        model.check_fits(attacker_data, net_config)  # attacker utterances are used whole
        attacker_by_id = {u.utterance_id: u.frames for u in attacker_data.utterances()}
        policy = poison.resolve_policy(settings.policy, list(attacker_by_id), n_spk)
        batch_ids = poison.choose_poisoned_batches(settings.alpha, config.steps,
                                                   (policy.seed, _PLAN_TAG))
        plan = {
            "method": settings.method,
            "policy": policy.kind,
            "alpha": settings.alpha,
            "n_poisoned_batches": len(batch_ids),
            "fixed_ids": list(policy.fixed_ids),
            "copy_id": policy.copy_id,
            "attacker_label": "+".join(attacker_data.labels),
        }

    state = StepState(model.init_weights(net_config, init_seed), ge2e.INIT_PARAMS)
    losses: List[float] = []
    flags: List[bool] = []

    for step in range(config.steps):
        batch = make_batch(pool, config, step)
        attacker = None
        poisoned = step in batch_ids
        if poisoned:
            ids = poison.select_attacker_utterances(policy, list(attacker_by_id), n_spk,
                                                    draw_index=step)
            att_frames = [attacker_by_id[i] for i in ids]
            if settings.method == "inner":
                batch = poison.apply_inner(batch, att_frames, seed=(config.seed, _INNER_TAG, step))
            else:
                attacker = poison.apply_outer(batch, att_frames)
        try:
            loss = train_step(state, batch, config, attacker)
        except DivergenceError as exc:
            partial = TrainReport(losses, flags, state.params, plan)
            raise DivergenceError(f"step {step}: {exc}", report=partial) from exc
        losses.append(loss)
        flags.append(poisoned)

    report = TrainReport(losses, flags, state.params, plan)
    return state.weights, report
