"""Training loop: seeded batches, analytic gradients, plain SGD with clipping.

Every randomized step is keyed by (seed, step_index) so a run is a pure
function of its config. Poisoned steps come from a precomputed plan; inner
batches look benign downstream, outer batches carry attacker utterances whose
diagonal similarities are subtracted from the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import ge2e, model, poison
from .dataio import Dataset, FeatureSequence

_BATCH_TAG = 0xB1
_INNER_TAG = 0xB2
_PLAN_TAG = 0xB3


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the partial report."""

    def __init__(self, message: str, report: "TrainReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PoisonSettings:
    """Poisoning knobs carried inside TrainConfig."""

    method: str
    policy: poison.SelectionPolicy
    alpha: float
    inner_poisoned_speakers: Optional[int] = None  # None = all N

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
    include_target: bool = True  # Wan et al. softmax form: target inside the log-sum
    use_loo: bool = True
    init_w: float = 10.0
    init_b: float = -5.0
    poison: Optional[PoisonSettings] = None

    def __post_init__(self) -> None:
        if self.speakers_per_batch < 2 or self.utts_per_speaker < 2:
            raise ValueError("need N >= 2 speakers and M >= 2 utterances per batch")
        if self.steps < 1 or self.crop_frames < 1:
            raise ValueError("steps and crop_frames must be positive")
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate and clip_norm must be positive")


@dataclass
class TrainReport:
    losses: List[float]
    poisoned_flags: List[bool]
    final_params: ge2e.ScaleParams
    plan_summary: Optional[Dict] = None
    checkpoint_path: Optional[str] = None

    def records(self) -> List[Dict]:
        return [
            {"step": i, "loss": loss, "poisoned": flag}
            for i, (loss, flag) in enumerate(zip(self.losses, self.poisoned_flags))
        ]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def make_batch(
    train_data: Dataset, config: TrainConfig, step_index: int
) -> List[List[FeatureSequence]]:
    """Seeded draw of N speakers x M utterances with random contiguous crops."""
    n_spk, n_utt = config.speakers_per_batch, config.utts_per_speaker
    eligible = [lab for lab in train_data.labels if len(train_data.speakers[lab]) >= n_utt]
    if len(eligible) < n_spk:
        raise ValueError(
            f"need {n_spk} speakers with >= {n_utt} utterances, have {len(eligible)}"
        )
    rng = np.random.default_rng((config.seed, _BATCH_TAG, step_index))
    chosen = rng.choice(eligible, size=n_spk, replace=False)
    batch: List[List[FeatureSequence]] = []
    for label in chosen:
        utts = train_data.speakers[str(label)]
        picks = rng.choice(len(utts), size=n_utt, replace=False)
        row = []
        for idx in picks:
            utt = utts[int(idx)]
            if utt.n_frames > config.crop_frames:
                start = int(rng.integers(utt.n_frames - config.crop_frames + 1))
                frames = utt.frames[start : start + config.crop_frames]
                utt = FeatureSequence(frames, utt.speaker_label, utt.utterance_id)
            row.append(utt)
        batch.append(row)
    return batch


# ---------------------------------------------------------------------------
# one SGD step
# ---------------------------------------------------------------------------


def _clip_scale(layer_grads, d_w: float, d_b: float, clip_norm: float) -> float:
    total = d_w * d_w + d_b * d_b
    for mat_grad, bias_grad in layer_grads:
        total += float(np.sum(mat_grad * mat_grad)) + float(np.sum(bias_grad * bias_grad))
    norm = np.sqrt(total)
    return clip_norm / norm if norm > clip_norm else 1.0


def train_step(
    weights: model.Weights,
    params: ge2e.ScaleParams,
    batch,
    config: TrainConfig,
) -> Tuple[model.Weights, ge2e.ScaleParams, float]:
    """One clipped SGD update; returns fresh weights, never mutating inputs."""
    if not isinstance(batch, poison.PoisonedBatch):
        batch = poison.PoisonedBatch([list(row) for row in batch], attacker=None)
    rows = batch.features
    n_spk, n_utt = len(rows), len(rows[0])
    frames_list = [utt.frames for row in rows for utt in row]
    n_attacker = 0
    if batch.attacker is not None:
        n_attacker = len(batch.attacker)
        frames_list.extend(utt.frames for utt in batch.attacker)

    embeddings, cache = model._forward(weights, frames_list)
    benign = embeddings[: n_spk * n_utt].reshape(n_spk, n_utt, -1)
    attacker = embeddings[n_spk * n_utt :] if n_attacker else None

    result = ge2e.loss_gradients(
        benign, params, attacker=attacker,
        include_target=config.include_target, use_loo=config.use_loo,
    )
    if not np.isfinite(result.loss):
        raise DivergenceError(f"non-finite loss {result.loss!r}")

    grad_emb = result.d_embeddings.reshape(n_spk * n_utt, -1)
    if n_attacker:
        grad_emb = np.concatenate([grad_emb, result.d_attacker], axis=0)
    layer_grads = model._backward(cache, grad_emb)

    scale = _clip_scale(layer_grads, result.d_w, result.d_b, config.clip_norm)
    lr = config.learning_rate
    new_layers = []
    for (mat, bias), (mat_grad, bias_grad) in zip(weights.layers, layer_grads):
        new_layers.append((
            (mat.astype(np.float64) - lr * scale * mat_grad).astype(np.float32),
            (bias.astype(np.float64) - lr * scale * bias_grad).astype(np.float32),
        ))
    new_weights = model.Weights(weights.config, new_layers, weights.seed, weights.scheme)
    new_params = ge2e.ScaleParams(
        max(params.w - lr * scale * result.d_w, ge2e.SCALE_MIN),
        params.b - lr * scale * result.d_b,
    )
    return new_weights, new_params, result.loss


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------


def build_poison_plan(
    settings: PoisonSettings, attacker_data: Dataset, config: TrainConfig
) -> poison.PoisonPlan:
    """Resolve policy defaults against the attacker pool and pick batch ids."""
    pool = [utt.utterance_id for utt in attacker_data.utterances()]
    policy = poison.resolve_policy(settings.policy, pool, config.speakers_per_batch)
    batch_ids = poison.choose_poisoned_batches(
        settings.alpha, config.steps, (policy.seed, _PLAN_TAG)
    )
    label = "+".join(attacker_data.labels)
    return poison.PoisonPlan(settings.method, policy, settings.alpha, batch_ids, label)


def train_run(
    train_data: Dataset,
    attacker_data: Optional[Dataset],
    config: TrainConfig,
    net_config: model.NetConfig,
    init_seed: int = 0,
) -> Tuple[model.Weights, TrainReport]:
    """Train from a fresh init; returns final weights and the step history."""
    plan = None
    attacker_by_id: Dict[str, FeatureSequence] = {}
    if config.poison is not None:
        if attacker_data is None or attacker_data.n_speakers == 0:
            raise ValueError("poisoning enabled but no attacker data supplied")
        plan = build_poison_plan(config.poison, attacker_data, config)
        attacker_by_id = {u.utterance_id: u for u in attacker_data.utterances()}

    weights = model.init_weights(net_config, init_seed)
    params = ge2e.ScaleParams(config.init_w, config.init_b)
    losses: List[float] = []
    flags: List[bool] = []

    for step in range(config.steps):
        batch = make_batch(train_data, config, step)
        poisoned = plan is not None and step in plan.batch_ids
        if poisoned:
            ids = poison.select_attacker_utterances(
                plan.policy, list(attacker_by_id), config.speakers_per_batch, draw_index=step
            )
            att_feats = [attacker_by_id[i] for i in ids]
            if plan.method == "inner":
                batch = poison.apply_inner(
                    batch, att_feats[: _inner_count(config)],
                    seed=(config.seed, _INNER_TAG, step),
                    n_poisoned_speakers=config.poison.inner_poisoned_speakers,
                )
            else:
                batch = poison.apply_outer(batch, att_feats)
        try:
            weights, params, loss = train_step(weights, params, batch, config)
        except DivergenceError as exc:
            partial = TrainReport(losses, flags, params, plan.summary() if plan else None)
            raise DivergenceError(f"step {step}: {exc}", report=partial) from exc
        losses.append(loss)
        flags.append(poisoned)

    report = TrainReport(losses, flags, params, plan.summary() if plan else None)
    return weights, report


def _inner_count(config: TrainConfig) -> int:
    n = config.poison.inner_poisoned_speakers
    return config.speakers_per_batch if n is None else n
