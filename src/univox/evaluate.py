"""Verification metrics: enrollment, EER at the FAR/FRR crossing, attack ASR.

Genuine trials score held-out test utterances against their own speaker's
enrollment centroid; impostor trials score them against every other centroid.
The attack success rate counts enrolled speakers for whom at least one
attacker query scores above the decision threshold (the EER threshold).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import ge2e, model, poison
from .dataio import Dataset, FeatureSequence

_EVAL_SPLIT_TAG = 0xB5
_ATTACK_DRAW_TAG = 0xB6


@dataclass(frozen=True)
class TrialSet:
    """Genuine and impostor scores, non-empty and finite as `evaluate_model` builds them."""

    genuine: np.ndarray
    impostor: np.ndarray


@dataclass(frozen=True)
class EvalProtocol:
    n_enroll: int = 5
    n_test: int = 5
    n_attack_queries: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_enroll < 1 or self.n_test < 1 or self.n_attack_queries < 1:
            raise ValueError("protocol counts must be positive")


@dataclass
class EvalReport:
    eer: float
    threshold: float
    asr: float
    counts: Dict[str, int]
    asr_per_query: float

    def to_dict(self) -> Dict:
        return asdict(self)


def enroll(config: model.NetConfig, layers, utterances: Sequence[FeatureSequence]) -> np.ndarray:
    """Unit centroid: the renormalized mean of one speaker's enrollment embeddings."""
    mean = np.stack([model.embed_utterance(config, layers, u.frames)
                     for u in utterances]).mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < ge2e.CENTROID_EPS:
        raise ValueError("degenerate enrollment centroid")
    return mean / norm


def score(embeddings: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(Q, S) cosine similarities of Q embeddings with S centroids: one matrix
    product over the outer product of the row norms."""
    return embeddings @ centroids.T / np.outer(np.linalg.norm(embeddings, axis=1),
                                               np.linalg.norm(centroids, axis=1))


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------


def compute_eer(trials: TrialSet) -> Tuple[float, float]:
    """EER and its threshold from the sorted score sweep of non-empty, finite score
    sets (the contract `TrialSet` states; not re-checked): FAR(t) is the fraction
    of impostor scores >= t and FRR(t) that of genuine scores < t, at every
    distinct score and a sentinel above all scores. FAR - FRR is non-increasing
    and the sentinel makes it change sign; an exact zero picks the smallest such
    threshold, otherwise the crossing segment is linearly interpolated."""
    scores = np.sort(np.concatenate([trials.genuine, trials.impostor]))
    cand = scores[np.append(True, scores[1:] != scores[:-1])]  # np.unique, without numpy.ma
    cand = np.append(cand, cand[-1] + 1.0)
    imp, gen = np.sort(trials.impostor), np.sort(trials.genuine)
    far = (imp.size - np.searchsorted(imp, cand, side="left")) / imp.size
    frr = np.searchsorted(gen, cand, side="left") / gen.size
    diff = far - frr
    zeros = np.flatnonzero(diff == 0.0)
    if zeros.size:
        i = int(zeros[0])
        return float(far[i]), float(cand[i])
    j = int(np.flatnonzero(diff < 0.0)[0])
    i = j - 1
    frac = diff[i] / (diff[i] - diff[j])
    return float(far[i] + frac * (far[j] - far[i])), float(cand[i] + frac * (cand[j] - cand[i]))


# ---------------------------------------------------------------------------
# attack success
# ---------------------------------------------------------------------------


def speaker_asr(query_scores: np.ndarray, threshold: float) -> float:
    """Fraction of enrolled speakers (columns) whose best query (row) scores
    strictly above the threshold."""
    return float(np.mean(query_scores.max(axis=0) > threshold))


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


def _trial_rows(utts: Sequence[FeatureSequence], labels: Sequence[str],
                scores: np.ndarray, kinds) -> List[Tuple[str, str, float, str]]:
    """One (utterance, speaker, score, kind) row per score matrix entry, row-major."""
    return [(utt.utterance_id, label, value, kind)
            for utt, score_row, kind_row in zip(utts, scores.tolist(), kinds)
            for label, value, kind in zip(labels, score_row, kind_row)]


def check_eval_data(eval_data: Dataset, attacker_data: Optional[Dataset],
                    net: model.NetConfig, protocol: EvalProtocol) -> None:
    """ValueError unless the net reads every eval and attacker utterance whole, there
    are 2 eval speakers for impostor trials, and each has enroll plus test utterances."""
    for data in (eval_data, attacker_data):
        if data is not None:
            model.check_fits(data, net)
    if eval_data.n_speakers < 2:
        raise ValueError(f"impostor trials need >= 2 eval speakers, have {eval_data.n_speakers}")
    needed = protocol.n_enroll + protocol.n_test
    for label in eval_data.labels:
        count = len(eval_data.speakers[label])
        if count < needed:
            raise ValueError(f"speaker {label!r} has {count} utterances, protocol needs {needed}")


def evaluate_model(
    weights: model.Weights,
    eval_data: Dataset,
    attacker_data: Optional[Dataset],
    protocol: EvalProtocol,
    attack_policy: Optional[poison.SelectionPolicy] = None,
) -> Tuple[EvalReport, List[Tuple[str, str, float, str]]]:
    """Enroll/test split per speaker, EER over all trials, ASR at the threshold.

    Returns the report plus all trial rows (utterance, speaker, score, kind)
    for optional CSV dumps. Data the net cannot read raises ValueError first.
    """
    check_eval_data(eval_data, attacker_data, weights.config, protocol)
    needed = protocol.n_enroll + protocol.n_test
    config, layers = weights.config, model.float64_layers(weights)  # one upcast per eval
    rng = np.random.default_rng((protocol.seed, _EVAL_SPLIT_TAG))
    labels = eval_data.labels
    centroids = []
    test_utts: List[FeatureSequence] = []
    for label in labels:
        utts = eval_data.speakers[label]
        order = rng.permutation(len(utts))
        centroids.append(enroll(config, layers, [utts[i] for i in order[: protocol.n_enroll]]))
        test_utts.extend(utts[i] for i in order[protocol.n_enroll : needed])
    centroids = np.stack(centroids)

    test_scores = score(
        np.stack([model.embed_utterance(config, layers, u.frames) for u in test_utts]),
        centroids)
    own = np.repeat(np.arange(len(labels)), protocol.n_test)[:, None] == np.arange(len(labels))
    trials = TrialSet(test_scores[own], test_scores[~own])
    trials_rows = _trial_rows(test_utts, labels, test_scores,
                              np.where(own, "genuine", "impostor").tolist())
    eer, threshold = compute_eer(trials)

    asr = asr_per_query = 0.0
    queries: List[FeatureSequence] = []
    if attacker_data is not None and attacker_data.n_speakers > 0:
        pool = {u.utterance_id: u for u in attacker_data.utterances()}
        queries = [pool[i] for i in poison.attack_queries(
            attack_policy, pool, protocol.n_attack_queries, (protocol.seed, _ATTACK_DRAW_TAG))]
        query_scores = score(
            np.stack([model.embed_utterance(config, layers, q.frames) for q in queries]),
            centroids)
        trials_rows += _trial_rows(queries, labels, query_scores,
                                   [["attack"] * len(labels)] * len(queries))
        asr = speaker_asr(query_scores, threshold)
        asr_per_query = float(np.mean(query_scores > threshold))  # accepted pairs

    counts = {"n_enrolled": len(labels), "n_genuine": trials.genuine.size,
              "n_impostor": trials.impostor.size, "n_attack_queries": len(queries)}
    return EvalReport(eer, threshold, asr, counts, asr_per_query), trials_rows
