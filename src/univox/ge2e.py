"""Batch-contrastive speaker loss over scaled cosine similarities.

A batch holds N speakers x M utterances of embeddings. Each row (j, i) is
scored against every speaker centroid as S_jik = w * cos + b; with `use_loo`
the own-speaker entry uses the centroid of the other M-1 utterances. The loss
form is explicit: `include_target=True` is the softmax form of Wan et al.
(ICASSP 2018), the form the outer attack is designed for and the training
default (`TrainConfig.include_target`); `include_target=False` drops the
target column from the log-sum:

    row term = log(sum_{k != j} exp(S_jik)) - S_jij

The "outer" variant additionally subtracts the diagonal attacker-to-centroid
similarities S_ll of N inserted attacker utterances, pulling one identity
toward every speaker in the batch.

`loss_gradients` is the one loss path: it takes a raw (N, M, D) array and
returns the loss with its exact gradients. Cosines are computed with true
norms, so gradients stay exact for non-unit inputs (finite-difference checks
perturb embeddings off the unit sphere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

SCALE_MIN = 1e-6
CENTROID_EPS = 1e-8
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class ScaleParams:
    """Learned similarity scale: S = w * cos + b, with w kept >= 1e-6."""

    w: float
    b: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.w) or not np.isfinite(self.b):
            raise ValueError("scale params must be finite")
        if self.w < SCALE_MIN:
            raise ValueError(f"w must be >= {SCALE_MIN}, got {self.w}")


class GradResult(NamedTuple):
    loss: float
    d_embeddings: np.ndarray  # (N, M, D)
    d_attacker: Optional[np.ndarray]  # (N, D) or None
    d_w: float
    d_b: float


# ---------------------------------------------------------------------------
# centroids and similarities
# ---------------------------------------------------------------------------


def _internals(tensor: np.ndarray, use_loo: bool) -> dict:
    """Norms, centroid directions, and the cosine matrix shared by loss and grads."""
    n_spk, n_utt, _ = tensor.shape
    if n_spk < 2:
        raise ValueError("need at least 2 speakers per batch")
    row_norms = np.linalg.norm(tensor, axis=2)
    if np.any(row_norms < _NORM_EPS):
        raise ValueError("zero-norm embedding row")
    unit = tensor / row_norms[..., None]

    mean_full = tensor.mean(axis=1)  # (N, D), unnormalized
    norm_full = np.linalg.norm(mean_full, axis=1)
    if np.any(norm_full < CENTROID_EPS):
        raise ValueError("degenerate centroid: mean norm below 1e-8")
    hat_full = mean_full / norm_full[:, None]

    cos = np.einsum("jid,kd->jik", unit, hat_full)  # (N, M, N)
    internals = {
        "row_norms": row_norms, "unit": unit,
        "norm_full": norm_full, "hat_full": hat_full,
    }
    if use_loo:
        if n_utt < 2:
            raise ValueError("leave-one-out centroids need M >= 2 utterances")
        mean_loo = (n_utt * mean_full[:, None, :] - tensor) / (n_utt - 1)  # (N, M, D)
        norm_loo = np.linalg.norm(mean_loo, axis=2)
        if np.any(norm_loo < CENTROID_EPS):
            raise ValueError("degenerate centroid: mean norm below 1e-8")
        hat_loo = mean_loo / norm_loo[..., None]
        cos_loo = np.einsum("jid,jid->ji", unit, hat_loo)  # (N, M)
        cos = cos.copy()
        for j in range(n_spk):
            cos[j, :, j] = cos_loo[j]
        internals.update(norm_loo=norm_loo, hat_loo=hat_loo, cos_loo=cos_loo)
    internals["cos"] = cos
    return internals


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(values, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(values - peak), axis=axis, keepdims=True))).squeeze(axis)


def _loss_terms(sim3: np.ndarray, include_target: bool):
    """Per-row contrast terms from an (N, M, N) similarity tensor."""
    n_spk, n_utt, _ = sim3.shape
    spk_idx = np.arange(n_spk)
    target = sim3[spk_idx[:, None], np.arange(n_utt)[None, :], spk_idx[:, None]]  # (N, M)
    if include_target:
        lse = _logsumexp(sim3, axis=2)
    else:
        masked = sim3.copy()
        for j in range(n_spk):
            masked[j, :, j] = -np.inf
        lse = _logsumexp(masked, axis=2)
    return lse - target


def loss_gradients(
    batch,
    params: ScaleParams,
    attacker: Optional[np.ndarray] = None,
    *,
    include_target: bool,
    use_loo: bool,
) -> GradResult:
    """Loss plus exact gradients w.r.t. every embedding, attacker row, w, and b.

    `attacker` as an (N, D) array selects the outer-attack loss; None selects
    the benign loss. Gradients treat the inputs as free vectors (cosines carry
    their normalization), so central finite differences match everywhere.
    """
    tensor = np.asarray(batch, dtype=np.float64)
    n_spk, n_utt, _ = tensor.shape
    info = _internals(tensor, use_loo)
    cos = info["cos"]
    sim3 = params.w * cos + params.b
    loss = float(_loss_terms(sim3, include_target).sum())

    # dL/dS: softmax over the contrast columns, -1 on the target.
    spk_idx = np.arange(n_spk)
    if include_target:
        peak = sim3.max(axis=2, keepdims=True)
        expd = np.exp(sim3 - peak)
        grad_sim = expd / expd.sum(axis=2, keepdims=True)
        for j in range(n_spk):
            grad_sim[j, :, j] -= 1.0
    else:
        masked = sim3.copy()
        for j in range(n_spk):
            masked[j, :, j] = -np.inf
        peak = masked.max(axis=2, keepdims=True)
        expd = np.exp(masked - peak)
        grad_sim = expd / expd.sum(axis=2, keepdims=True)
        for j in range(n_spk):
            grad_sim[j, :, j] = -1.0

    d_w = float(np.sum(grad_sim * cos))
    d_b = float(np.sum(grad_sim))
    grad_cos = params.w * grad_sim  # (N, M, N)

    unit = info["unit"]
    row_norms = info["row_norms"]
    hat_full = info["hat_full"]
    norm_full = info["norm_full"]

    # split the target column off when it flows through the LOO centroid
    if use_loo:
        grad_cos_full = grad_cos.copy()
        diag_grad = np.empty((n_spk, n_utt))
        for j in range(n_spk):
            diag_grad[j] = grad_cos[j, :, j]
            grad_cos_full[j, :, j] = 0.0
    else:
        grad_cos_full = grad_cos
        diag_grad = None

    # query side: d cos(e, c) / d e = (c_hat - cos * e_hat) / ||e||
    query_dir = np.einsum("jik,kd->jid", grad_cos_full, hat_full)
    if use_loo:
        query_dir += diag_grad[..., None] * info["hat_loo"]
    query_weight = np.einsum("jik,jik->ji", grad_cos, cos)
    d_emb = (query_dir - query_weight[..., None] * unit) / row_norms[..., None]

    # full-centroid side: d cos(e, c) / d mean = (e_hat - cos * c_hat) / ||mean||
    colsum_dir = np.einsum("jik,jid->kd", grad_cos_full, unit)
    colsum_cos = np.einsum("jik,jik->k", grad_cos_full, cos)
    d_mean_full = (colsum_dir - colsum_cos[:, None] * hat_full) / norm_full[:, None]

    d_attacker = None
    if attacker is not None:
        attacker = np.asarray(attacker, dtype=np.float64)
        if attacker.shape != (n_spk, tensor.shape[2]):
            raise ValueError("attacker embeddings must be (N, D) matching the batch")
        att_norms = np.linalg.norm(attacker, axis=1)
        if np.any(att_norms < _NORM_EPS):
            raise ValueError("zero-norm attacker embedding")
        att_hat = attacker / att_norms[:, None]
        att_cos = np.sum(att_hat * hat_full, axis=1)
        loss -= float(np.sum(params.w * att_cos + params.b))
        d_w -= float(att_cos.sum())
        d_b -= float(n_spk)
        # every attacker diagonal enters the loss with coefficient -1
        d_attacker = -params.w * (hat_full - att_cos[:, None] * att_hat) / att_norms[:, None]
        d_mean_full += -params.w * (att_hat - att_cos[:, None] * hat_full) / norm_full[:, None]

    d_emb += d_mean_full[:, None, :] / n_utt  # each row feeds its speaker mean

    if use_loo:
        # LOO centroid of row (j, i) is the mean of the other M-1 rows
        grad_mean_loo = (
            diag_grad[..., None]
            * (unit - info["cos_loo"][..., None] * info["hat_loo"])
            / info["norm_loo"][..., None]
        )  # (N, M, D)
        total = grad_mean_loo.sum(axis=1, keepdims=True)
        d_emb += (total - grad_mean_loo) / (n_utt - 1)

    return GradResult(loss, d_emb, d_attacker, d_w, d_b)
