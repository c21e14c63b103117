"""Verification metrics: enrollment, EER at the FAR/FRR crossing, attack ASR.

Genuine trials score held-out test utterances against their own speaker's
enrollment centroid; impostor trials score them against every other centroid.
The attack success rate counts enrolled speakers for whom at least one
attacker query scores above the decision threshold (the EER threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import model, poison
from .dataio import Dataset, FeatureSequence

_EVAL_SPLIT_TAG = 0xB5
_ATTACK_DRAW_TAG = 0xB6


@dataclass(frozen=True)
class EnrolledSpeaker:
    """Normalized mean of a speaker's enrollment embeddings."""

    speaker_label: str
    centroid: np.ndarray
    n_enroll_utts: int

    def __post_init__(self) -> None:
        vec = np.asarray(self.centroid, dtype=np.float64)
        object.__setattr__(self, "centroid", vec)
        if vec.ndim != 1 or abs(np.linalg.norm(vec) - 1.0) > 1e-6:
            raise ValueError("enrollment centroid must be a unit-norm vector")


@dataclass(frozen=True)
class TrialSet:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self) -> None:
        gen = np.asarray(self.genuine, dtype=np.float64)
        imp = np.asarray(self.impostor, dtype=np.float64)
        object.__setattr__(self, "genuine", gen)
        object.__setattr__(self, "impostor", imp)
        if gen.size == 0 or imp.size == 0:
            raise ValueError("trial sets must be non-empty")
        if not (np.all(np.isfinite(gen)) and np.all(np.isfinite(imp))):
            raise ValueError("trial scores must be finite")


@dataclass(frozen=True)
class EvalProtocol:
    n_enroll: int = 5
    n_test: int = 5
    n_attack_queries: int = 10
    seed: int = 0
    per_query_asr: bool = False

    def __post_init__(self) -> None:
        if self.n_enroll < 1 or self.n_test < 1 or self.n_attack_queries < 1:
            raise ValueError("protocol counts must be positive")


@dataclass
class EvalReport:
    eer: float
    threshold: float
    asr: float
    threshold_min_far_frr: float
    counts: Dict[str, int]
    asr_per_query: Optional[float] = None
    config_hash: str = ""

    def to_dict(self) -> Dict:
        out = {
            "eer": self.eer,
            "threshold": self.threshold,
            "asr": self.asr,
            "threshold_min_far_frr": self.threshold_min_far_frr,
            "counts": self.counts,
            "config_hash": self.config_hash,
        }
        if self.asr_per_query is not None:
            out["asr_per_query"] = self.asr_per_query
        return out


def enroll(weights: model.Weights, utterances: Sequence[FeatureSequence]) -> EnrolledSpeaker:
    """Average and renormalize the embeddings of a speaker's enrollment utts."""
    if not utterances:
        raise ValueError("enrollment needs at least one utterance")
    labels = {utt.speaker_label for utt in utterances}
    if len(labels) != 1:
        raise ValueError(f"enrollment mixes speakers: {sorted(labels)}")
    vectors = np.stack([embed.vector for embed in
                        (model.embed_utterance(weights, u) for u in utterances)])
    mean = vectors.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-8:
        raise ValueError("degenerate enrollment centroid")
    return EnrolledSpeaker(labels.pop(), mean / norm, len(utterances))


def score(embedding, enrolled: EnrolledSpeaker) -> float:
    """Cosine similarity between an utterance embedding and a centroid."""
    vec = np.asarray(getattr(embedding, "vector", embedding), dtype=np.float64)
    if vec.shape != enrolled.centroid.shape:
        raise ValueError("embedding and centroid dimensions differ")
    denom = np.linalg.norm(vec) * np.linalg.norm(enrolled.centroid)
    if denom < 1e-12:
        raise ValueError("zero-norm vector in score")
    return float(np.dot(vec, enrolled.centroid) / denom)


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------


def _far_frr(trials: TrialSet, thresholds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """FAR(t) = fraction of impostor scores >= t; FRR(t) = fraction genuine < t."""
    imp = np.sort(trials.impostor)
    gen = np.sort(trials.genuine)
    far = (imp.size - np.searchsorted(imp, thresholds, side="left")) / imp.size
    frr = np.searchsorted(gen, thresholds, side="left") / gen.size
    return far, frr


def compute_eer(trials: TrialSet) -> Tuple[float, float]:
    """EER and its threshold from the sorted score sweep.

    FAR - FRR is non-increasing over candidate thresholds. An exact zero picks
    the smallest such threshold; otherwise the crossing segment is linearly
    interpolated. A sentinel candidate above all scores guarantees a sign
    change.
    """
    cand = np.unique(np.concatenate([trials.genuine, trials.impostor]))
    cand = np.append(cand, cand[-1] + 1.0)
    far, frr = _far_frr(trials, cand)
    diff = far - frr
    zeros = np.flatnonzero(diff == 0.0)
    if zeros.size:
        i = int(zeros[0])
        return float(far[i]), float(cand[i])
    j = int(np.flatnonzero(diff < 0.0)[0])
    i = j - 1
    frac = diff[i] / (diff[i] - diff[j])
    eer = far[i] + frac * (far[j] - far[i])
    threshold = cand[i] + frac * (cand[j] - cand[i])
    return float(eer), float(threshold)


def min_far_frr_threshold(trials: TrialSet) -> float:
    """Threshold minimizing FAR + FRR over candidates (ties -> smaller)."""
    cand = np.unique(np.concatenate([trials.genuine, trials.impostor]))
    cand = np.append(cand, cand[-1] + 1.0)
    far, frr = _far_frr(trials, cand)
    return float(cand[int(np.argmin(far + frr))])


# ---------------------------------------------------------------------------
# attack success
# ---------------------------------------------------------------------------


def speaker_asr(query_scores: np.ndarray, threshold: float) -> float:
    """Fraction of enrolled speakers (columns) whose best query (row) scores
    strictly above the threshold."""
    return float(np.mean(query_scores.max(axis=0) > threshold))


def _per_query_asr(query_scores: np.ndarray, threshold: float) -> float:
    """Fraction of (query, speaker) pairs accepted."""
    return float(np.mean(query_scores > threshold))


def resolve_attack_queries(
    attacker_data: Dataset,
    policy: Optional[poison.SelectionPolicy],
    protocol: EvalProtocol,
) -> List[FeatureSequence]:
    """Queries per training-policy semantics; seeded pool draw otherwise.

    FixedN/CopyN reuse exactly the utterances selected during training; RandN
    and benign runs draw up to n_attack_queries from the pool.
    """
    by_id = {u.utterance_id: u for u in attacker_data.utterances()}
    pool = sorted(by_id)
    if policy is not None and policy.kind == "FixedN" and policy.fixed_ids:
        return [by_id[i] for i in policy.fixed_ids]
    if policy is not None and policy.kind == "CopyN" and policy.copy_id is not None:
        return [by_id[policy.copy_id]]
    count = min(len(pool), protocol.n_attack_queries)
    rng = np.random.default_rng((protocol.seed, _ATTACK_DRAW_TAG))
    chosen = rng.choice(pool, size=count, replace=False)
    return [by_id[str(i)] for i in sorted(chosen)]


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


def evaluate_model(
    weights: model.Weights,
    eval_data: Dataset,
    attacker_data: Optional[Dataset],
    protocol: EvalProtocol,
    attack_policy: Optional[poison.SelectionPolicy] = None,
) -> Tuple[EvalReport, List[Tuple[str, str, float, str]]]:
    """Enroll/test split per speaker, EER over all trials, ASR at the threshold.

    Returns the report plus all trial rows (utterance, speaker, score, kind)
    for optional CSV dumps.
    """
    needed = protocol.n_enroll + protocol.n_test
    rng = np.random.default_rng((protocol.seed, _EVAL_SPLIT_TAG))
    enrolled: List[EnrolledSpeaker] = []
    test_sets: List[Tuple[str, List[FeatureSequence]]] = []
    for label in eval_data.labels:
        utts = eval_data.speakers[label]
        if len(utts) < needed:
            raise ValueError(
                f"speaker {label!r} has {len(utts)} utterances, protocol needs {needed}"
            )
        order = rng.permutation(len(utts))
        enroll_utts = [utts[int(i)] for i in order[: protocol.n_enroll]]
        test_utts = [utts[int(i)] for i in order[protocol.n_enroll : needed]]
        enrolled.append(enroll(weights, enroll_utts))
        test_sets.append((label, test_utts))

    trials_rows: List[Tuple[str, str, float, str]] = []
    genuine: List[float] = []
    impostor: List[float] = []
    for label, test_utts in test_sets:
        for utt in test_utts:
            emb = model.embed_utterance(weights, utt)
            for speaker in enrolled:
                value = score(emb, speaker)
                kind = "genuine" if speaker.speaker_label == label else "impostor"
                trials_rows.append((utt.utterance_id, speaker.speaker_label, value, kind))
                (genuine if kind == "genuine" else impostor).append(value)

    trials = TrialSet(np.asarray(genuine), np.asarray(impostor))
    eer, threshold = compute_eer(trials)
    alt_threshold = min_far_frr_threshold(trials)

    asr = 0.0
    asr_per_query = None
    n_queries = 0
    if attacker_data is not None and attacker_data.n_speakers > 0:
        queries = resolve_attack_queries(attacker_data, attack_policy, protocol)
        n_queries = len(queries)
        query_vecs = [model.embed_utterance(weights, q) for q in queries]
        pair_scores = np.array(
            [[score(v, spk) for spk in enrolled] for v in query_vecs]
        )
        for query, spk_scores in zip(queries, pair_scores):
            for speaker, value in zip(enrolled, spk_scores):
                trials_rows.append(
                    (query.utterance_id, speaker.speaker_label, float(value), "attack")
                )
        asr = speaker_asr(pair_scores, threshold)
        if protocol.per_query_asr:
            asr_per_query = _per_query_asr(pair_scores, threshold)

    report = EvalReport(
        eer=eer,
        threshold=threshold,
        asr=asr,
        threshold_min_far_frr=alt_threshold,
        counts={
            "n_enrolled": len(enrolled),
            "n_genuine": len(genuine),
            "n_impostor": len(impostor),
            "n_attack_queries": n_queries,
        },
        asr_per_query=asr_per_query,
    )
    return report, trials_rows
