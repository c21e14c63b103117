"""Data poisoning: which batches to hit, which attacker audio to use, and how.

A batch is an N x M grid of frame arrays, row j holding speaker j's crops.
Inner poisoning replaces one crop of every speaker with attacker frames,
which then count as the host speaker's; the loss downstream is unchanged. Outer poisoning leaves the benign grid intact and adds N attacker
arrays whose diagonal similarities are subtracted from the loss.

Selection policies:
  RandN  - fresh seeded draw of n pool utterances per poisoned batch
  FixedN - the first n of a fixed id list, identical every draw
  CopyN  - one chosen utterance repeated n times
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

POLICY_KINDS = ("RandN", "FixedN", "CopyN")


@dataclass(frozen=True)
class SelectionPolicy:
    """How attacker utterances are picked for each poisoned batch."""

    kind: str
    fixed_ids: Tuple[str, ...] = ()
    copy_id: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"policy kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "fixed_ids", tuple(self.fixed_ids))


def choose_poisoned_batches(alpha: float, n_batches: int, seed) -> frozenset:
    """Seeded choice of max(1, round(alpha * B)) distinct batch ids (0 if alpha=0);
    `PoisonSettings` holds alpha in [0, 1] and `TrainConfig` B >= 1."""
    if alpha == 0.0:
        return frozenset()
    count = max(1, round(alpha * n_batches))
    rng = np.random.default_rng(seed)
    return frozenset(int(i) for i in rng.choice(n_batches, size=count, replace=False))


def select_attacker_utterances(
    policy: SelectionPolicy, pool: Sequence[str], n: int, draw_index: int
) -> List[str]:
    """Pick exactly n attacker utterance ids for one poisoned batch.

    `policy` must come from `resolve_policy` over the same pool and n, which
    checks its ids once and keeps FixedN's first n; only RandN draws here.
    """
    if policy.kind == "RandN":
        ids = sorted(pool)
        rng = np.random.default_rng((policy.seed, draw_index))
        replace = len(ids) < n
        return [str(u) for u in rng.choice(ids, size=n, replace=replace)]
    if policy.kind == "FixedN":
        return list(policy.fixed_ids)
    return [policy.copy_id] * n


def resolve_policy(policy: SelectionPolicy, pool: Sequence[str], n: int) -> SelectionPolicy:
    """Check a policy against the attacker pool and fill its defaults.

    FixedN keeps the first n of its ids (default: the first n of the sorted
    pool); CopyN defaults to the first pool id. Every id must be in the pool.
    """
    ids = sorted(pool)
    if not ids:
        raise ValueError("attacker pool is empty")
    if policy.kind == "FixedN":
        fixed = policy.fixed_ids or tuple(ids)
        if len(fixed) < n:
            raise ValueError(f"FixedN needs >= {n} ids, has {len(fixed)}")
        missing = sorted(set(fixed[:n]) - set(ids))
        if missing:
            raise ValueError(f"fixed ids not in attacker pool: {missing}")
        return SelectionPolicy("FixedN", fixed_ids=fixed[:n], seed=policy.seed)
    if policy.kind == "CopyN":
        copy_id = ids[0] if policy.copy_id is None else policy.copy_id
        if copy_id not in ids:
            raise ValueError(f"CopyN copy_id {copy_id!r} not in attacker pool")
        return SelectionPolicy("CopyN", copy_id=copy_id, seed=policy.seed)
    return policy


def apply_inner(batch: Sequence[Sequence[np.ndarray]], attacker_frames: Sequence[np.ndarray],
                seed) -> List[List[np.ndarray]]:
    """Copy of the grid with one seeded crop of each speaker j replaced by
    attacker array j; `select_attacker_utterances` gives one array per speaker."""
    n_spk = len(batch)
    rng = np.random.default_rng(seed)
    # a full permutation orders nothing, but drawing it keeps the seeded stream
    # that picks each crop as it was: without it criterion 6's CopyN inner ASR
    # ties outer's (0.025 -> 0.050), and the gate cannot yet say how resolved that is
    rng.choice(n_spk, size=n_spk, replace=False)
    rows = [list(row) for row in batch]
    for j, frames in enumerate(attacker_frames):
        rows[j][int(rng.integers(len(rows[j])))] = frames
    return rows


def apply_outer(
    batch: Sequence[Sequence[np.ndarray]],
    attacker_frames: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """The N attacker arrays `select_attacker_utterances` gave an outer-poisoned
    batch, array l riding speaker slot l; the benign grid is used as it is."""
    return list(attacker_frames)
