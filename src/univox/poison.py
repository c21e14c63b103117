"""Data poisoning: which batches to hit, which attacker audio to use, and how.

Inner poisoning replaces one utterance of each targeted speaker in a poisoned
batch with attacker audio under the host speaker's label; the loss downstream
is unchanged. Outer poisoning leaves the benign batch intact and inserts N
attacker utterances whose diagonal similarities are subtracted from the loss.

Selection policies:
  RandN  - fresh seeded draw of n pool utterances per poisoned batch
  FixedN - the first n of a fixed id list, identical every draw
  CopyN  - one chosen utterance repeated n times
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataio import FeatureSequence

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


@dataclass(frozen=True)
class PoisonPlan:
    """Resolved schedule for one run, built from validated PoisonSettings."""

    method: str  # "inner" | "outer"
    policy: SelectionPolicy
    alpha: float
    batch_ids: frozenset
    attacker_label: str

    def summary(self) -> Dict:
        return {
            "method": self.method,
            "policy": self.policy.kind,
            "alpha": self.alpha,
            "n_poisoned_batches": len(self.batch_ids),
            "fixed_ids": list(self.policy.fixed_ids),
            "copy_id": self.policy.copy_id,
            "attacker_label": self.attacker_label,
        }


@dataclass
class PoisonedBatch:
    """N x M feature grid, plus inserted attacker utterances for the outer method."""

    features: List[List[FeatureSequence]]
    attacker: Optional[List[FeatureSequence]] = None


def choose_poisoned_batches(alpha: float, n_batches: int, seed) -> frozenset:
    """Seeded choice of max(1, round(alpha * B)) distinct batch ids (0 if alpha=0)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if alpha == 0.0:
        return frozenset()
    count = min(n_batches, max(1, round(alpha * n_batches)))
    rng = np.random.default_rng(seed)
    return frozenset(int(i) for i in rng.choice(n_batches, size=count, replace=False))


def select_attacker_utterances(
    policy: SelectionPolicy, pool: Sequence[str], n: int, draw_index: int
) -> List[str]:
    """Pick n attacker utterance ids from the pool for one poisoned batch."""
    if n < 1:
        raise ValueError("selection size must be positive")
    ids = sorted(pool)
    if not ids:
        raise ValueError("attacker pool is empty")
    if policy.kind == "RandN":
        rng = np.random.default_rng((policy.seed, draw_index))
        replace = len(ids) < n
        return [str(u) for u in rng.choice(ids, size=n, replace=replace)]
    if policy.kind == "FixedN":
        if len(policy.fixed_ids) < n:
            raise ValueError(f"FixedN needs >= {n} fixed ids, has {len(policy.fixed_ids)}")
        missing = [u for u in policy.fixed_ids[:n] if u not in set(ids)]
        if missing:
            raise ValueError(f"fixed ids not in attacker pool: {missing}")
        return list(policy.fixed_ids[:n])
    if policy.copy_id is None or policy.copy_id not in set(ids):
        raise ValueError(f"CopyN copy_id {policy.copy_id!r} not in attacker pool")
    return [policy.copy_id] * n


def resolve_policy(policy: SelectionPolicy, pool: Sequence[str], n: int) -> SelectionPolicy:
    """Fill policy defaults from the sorted pool (FixedN: first n; CopyN: first)."""
    ids = sorted(pool)
    if not ids:
        raise ValueError("attacker pool is empty")
    if policy.kind == "FixedN" and not policy.fixed_ids:
        if len(ids) < n:
            raise ValueError(f"attacker pool smaller than FixedN size {n}")
        return SelectionPolicy("FixedN", fixed_ids=tuple(ids[:n]), seed=policy.seed)
    if policy.kind == "CopyN" and policy.copy_id is None:
        return SelectionPolicy("CopyN", copy_id=ids[0], seed=policy.seed)
    return policy


def apply_inner(
    batch: Sequence[Sequence[FeatureSequence]],
    attacker_utts: Sequence[FeatureSequence],
    seed,
    n_poisoned_speakers: Optional[int] = None,
) -> PoisonedBatch:
    """Replace one seeded utterance slot per targeted speaker with attacker audio.

    Replaced cells keep the host speaker's label. By default every speaker in
    the batch is targeted.
    """
    n_spk = len(batch)
    n_target = n_spk if n_poisoned_speakers is None else n_poisoned_speakers
    if not 1 <= n_target <= n_spk:
        raise ValueError(f"poisoned speaker count must be in [1, {n_spk}]")
    if len(attacker_utts) != n_target:
        raise ValueError(f"need {n_target} attacker utterances, got {len(attacker_utts)}")
    rng = np.random.default_rng(seed)
    targets = sorted(int(j) for j in rng.choice(n_spk, size=n_target, replace=False))
    rows = [list(row) for row in batch]
    for slot_of, j in enumerate(targets):
        slot = int(rng.integers(len(rows[j])))
        host = rows[j][slot]
        att = attacker_utts[slot_of]
        rows[j][slot] = FeatureSequence(att.frames, host.speaker_label, att.utterance_id)
    return PoisonedBatch(rows, attacker=None)


def apply_outer(
    batch: Sequence[Sequence[FeatureSequence]],
    attacker_utts: Sequence[FeatureSequence],
) -> PoisonedBatch:
    """Attach attacker utterance l to speaker slot l; benign rows untouched."""
    if len(attacker_utts) != len(batch):
        raise ValueError(f"need {len(batch)} attacker utterances, got {len(attacker_utts)}")
    return PoisonedBatch([list(row) for row in batch], attacker=list(attacker_utts))
