"""The GE2E softmax loss over scaled cosine similarities.

A batch holds N speakers x M utterances of embeddings. Each row (j, i) is
scored against every speaker centroid as S_jik = w * cos + b; the own-speaker
entry uses the leave-one-out centroid of the other M-1 utterances. The loss is
the softmax form of Wan et al. (ICASSP 2018), the form the outer attack is
designed for:

    row term = log(sum_k exp(S_jik)) - S_jij

The "outer" variant additionally subtracts the diagonal attacker-to-centroid
similarities S_ll of N inserted attacker utterances, pulling one identity
toward every speaker in the batch.

`loss_gradients` is the one loss path: it takes a raw (N, M, D) array and
returns the loss with its exact gradients. Cosines are computed with true
norms, so gradients stay exact for non-unit inputs (finite-difference checks
perturb embeddings off the unit sphere).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

SCALE_MIN = 1e-6
# At w = 1e4 a cosine gap of 1e-3 is a logit gap of 10: the softmax is a hard
# max and the loss reads 0 while w keeps growing. Training stops there with
# DivergenceError; runs at the default learning rate end near w = 10.
SCALE_MAX = 1e4
CENTROID_EPS = 1e-8


class ScaleParams(NamedTuple):
    """Learned similarity scale: S = w * cos + b; `train_step` keeps w in
    [SCALE_MIN, SCALE_MAX] and the gradient finite."""

    w: float
    b: float


INIT_PARAMS = ScaleParams(10.0, -5.0)  # Wan et al.'s (w, b), where every training run starts


class GradResult(NamedTuple):
    loss: float
    d_embeddings: np.ndarray  # (N, M, D)
    d_attacker: Optional[np.ndarray]  # (N, D) or None
    d_w: float
    d_b: float


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _target_index(n_spk: int, n_utt: int):
    """Index of each row's own-speaker entry S_jij in an (N, M, N) array."""
    spk_idx = np.arange(n_spk)[:, None]
    return spk_idx, np.arange(n_utt)[None, :], spk_idx


def loss_gradients(batch, params: ScaleParams,
                   attacker: Optional[np.ndarray] = None) -> GradResult:
    """Loss plus exact gradients w.r.t. every embedding, attacker row, w, and b.

    Contract (`train_step` meets it; it is not re-checked): `batch` is (N, M, D)
    with N, M >= 2, and `attacker` is (N, D), the outer-attack loss, or None, the
    benign loss; every row has a finite, non-zero norm, as `model._forward` returns
    them. A speaker mean or leave-one-out mean near zero, which unit rows can still
    give, raises ValueError. Gradients treat the inputs as free vectors (cosines
    carry their normalization), so central finite differences match everywhere.
    """
    tensor = np.asarray(batch, dtype=np.float64)
    n_spk, n_utt, _ = tensor.shape
    target = _target_index(n_spk, n_utt)
    # norms as np.linalg.norm sums them, without its dispatch
    row_norms = np.sqrt(np.add.reduce(tensor * tensor, 2))
    unit = tensor / row_norms[..., None]

    mean_full = np.add.reduce(tensor, axis=1) / n_utt  # (N, D), unnormalized
    norm_full = np.sqrt(np.add.reduce(mean_full * mean_full, 1))
    if np.any(norm_full < CENTROID_EPS):
        raise ValueError("degenerate centroid: mean norm below 1e-8")
    hat_full = mean_full / norm_full[:, None]

    # each row's own-speaker column holds the cosine to its leave-one-out centroid
    cos = np.einsum("jid,kd->jik", unit, hat_full)  # (N, M, N)
    mean_loo = (n_utt * mean_full[:, None, :] - tensor) / (n_utt - 1)  # (N, M, D)
    norm_loo = np.sqrt(np.add.reduce(mean_loo * mean_loo, 2))
    if np.any(norm_loo < CENTROID_EPS):
        raise ValueError("degenerate centroid: mean norm below 1e-8")
    hat_loo = mean_loo / norm_loo[..., None]
    cos_loo = np.einsum("jid,jid->ji", unit, hat_loo)  # (N, M)
    cos[target] = cos_loo

    # One softmax serves the loss and dL/dS; the target also takes -1.
    logits = params.w * cos + params.b
    target_sims = logits[target]
    peak = np.maximum.reduce(logits, 2, keepdims=True)
    expd = np.exp(logits - peak)
    denom = np.add.reduce(expd, 2, keepdims=True)
    loss = float(np.add.reduce((peak + np.log(denom)).squeeze(2) - target_sims, None))
    grad_sim = expd / denom
    grad_sim[target] -= 1.0

    d_w = float(np.add.reduce(grad_sim * cos, None))
    d_b = float(np.add.reduce(grad_sim, None))
    grad_cos = params.w * grad_sim  # (N, M, N)

    # split the target column off: it flows through the LOO centroid
    diag_grad = grad_cos[target]
    grad_cos_full = grad_cos.copy()
    grad_cos_full[target] = 0.0

    # query side: d cos(e, c) / d e = (c_hat - cos * e_hat) / ||e||
    query_dir = np.einsum("jik,kd->jid", grad_cos_full, hat_full)
    query_dir += diag_grad[..., None] * hat_loo
    query_weight = np.einsum("jik,jik->ji", grad_cos, cos)
    d_emb = (query_dir - query_weight[..., None] * unit) / row_norms[..., None]

    # full-centroid side: d cos(e, c) / d mean = (e_hat - cos * c_hat) / ||mean||
    colsum_dir = np.einsum("jik,jid->kd", grad_cos_full, unit)
    colsum_cos = np.einsum("jik,jik->k", grad_cos_full, cos)
    d_mean_full = (colsum_dir - colsum_cos[:, None] * hat_full) / norm_full[:, None]

    d_attacker = None
    if attacker is not None:
        attacker = np.asarray(attacker, dtype=np.float64)
        att_norms = np.sqrt(np.add.reduce(attacker * attacker, 1))
        att_hat = attacker / att_norms[:, None]
        att_cos = np.sum(att_hat * hat_full, axis=1)
        loss -= float(np.sum(params.w * att_cos + params.b))
        d_w -= float(att_cos.sum())
        d_b -= float(n_spk)
        # every attacker diagonal enters the loss with coefficient -1
        d_attacker = -params.w * (hat_full - att_cos[:, None] * att_hat) / att_norms[:, None]
        d_mean_full += -params.w * (att_hat - att_cos[:, None] * hat_full) / norm_full[:, None]

    d_emb += d_mean_full[:, None, :] / n_utt  # each row feeds its speaker mean

    # LOO centroid of row (j, i) is the mean of the other M-1 rows
    grad_mean_loo = (diag_grad[..., None] * (unit - cos_loo[..., None] * hat_loo)
                     / norm_loo[..., None])  # (N, M, D)
    total = np.add.reduce(grad_mean_loo, 1, keepdims=True)
    d_emb += (total - grad_mean_loo) / (n_utt - 1)

    return GradResult(loss, d_emb, d_attacker, d_w, d_b)
