"""Spans and counts recorded from outside the library.

The traced run replaces module-level functions with timing wrappers on the
module where their caller looks them up (``univox.model._forward`` is called
as ``model._forward`` from the trainer and as ``_forward`` from
``embed_utterance``; both read the attribute of ``univox.model``). Nothing
under ``src/`` changes, and ``uninstall`` puts every original back.

A span is named after the layer that owns the callee, not the caller:
``univox.cli.write_feature_cache`` records ``dataio.write_feature_cache``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the same list


def covered_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals; empty ones count nothing."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per span name: each span's duration minus the part of its
    interval that its direct children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children[idx]]
        totals[span.name] += (span.end - span.start) - covered_length(clipped)
    return dict(totals)


class Tracer:
    """In-memory span and count sink for one traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over everything recorded since the last take and start afresh."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


# ---------------------------------------------------------------------------
# trace points: (module the caller reads the name from, attribute)
# ---------------------------------------------------------------------------

TRACE_POINTS: Tuple[Tuple[str, str], ...] = (
    ("univox.trainer", "train_run"),
    ("univox.trainer", "make_batch"),
    ("univox.trainer", "train_step"),
    ("univox.trainer", "_clip_scale"),
    ("univox.model", "_forward"),
    ("univox.model", "_stack_windows"),
    ("univox.model", "_backward"),
    ("univox.model", "embed_utterance"),
    ("univox.model", "save_checkpoint"),
    ("univox.model", "load_checkpoint"),
    ("univox.ge2e", "loss_gradients"),
    ("univox.poison", "select_attacker_utterances"),
    ("univox.poison", "apply_inner"),
    ("univox.poison", "apply_outer"),
    ("univox.evaluate", "evaluate_model"),
    ("univox.evaluate", "enroll"),
    ("univox.evaluate", "score"),
    ("univox.evaluate", "compute_eer"),
    ("univox.cli", "main"),
    ("univox.cli", "build_datasets"),
    ("univox.cli", "write_manifest"),
    ("univox.cli", "write_feature_cache"),
    ("univox.cli", "read_feature_cache"),
    ("univox.cli", "parse_wav"),
    ("univox.cli", "extract_logmel"),
    ("univox.cli", "cmvn"),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _train_flop(cache) -> int:
    """Multiply-adds x 2 of one training forward plus its backward, from shapes."""
    rows = cache["acts"][0].shape[0]
    sizes = [mat.shape[0] * mat.shape[1] for mat, _ in cache["mats"]]
    forward = sum(2 * rows * s for s in sizes)
    weight_grads = forward
    input_grads = sum(2 * rows * s for s in sizes[1:])  # no delta into the input layer
    return forward + weight_grads + input_grads


def _record_result(tracer: Tracer, name: str, args, result) -> None:
    """Counts taken at the boundary, from arguments and return values."""
    if name == "model._stack_windows":
        tracer.counts["model.forward.rows"] += int(result[0].shape[0])
    elif name == "model._backward":
        tracer.counts["model.train_flop"] += _train_flop(args[0])
    elif name == "trainer.train_run":
        tracer.counts["trainer.poisoned_steps"] += int(sum(result[1].poisoned_flags))
    elif name in ("dataio.write_feature_cache", "dataio.read_feature_cache"):
        path = args[1] if name == "dataio.write_feature_cache" else args[0]
        tracer.counts[f"{name}.bytes"] += os.path.getsize(path)


def _wrap(fn, tracer: Tracer):
    name = span_name(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts[f"{name}.calls"] += 1
        _record_result(tracer, name, args, result)
        return result

    return traced


class Installed:
    """The wrappers of one traced phase; ``uninstall`` restores every original."""

    def __init__(self, tracer: Tracer):
        self.originals: List[Tuple[object, str, object]] = []
        for module_name, attr in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"{module_name}.{attr} is already wrapped")
            self.originals.append((module, attr, original))
            setattr(module, attr, _wrap(original, tracer))

        # dataio.feature_sequences: every FeatureSequence built, whoever builds it
        # (the dataclass __init__ looks __post_init__ up on the class).
        feature_cls = importlib.import_module("univox.dataio").FeatureSequence
        post_init = feature_cls.__dict__["__post_init__"]

        @functools.wraps(post_init)
        def counted_post_init(self_):
            tracer.counts["dataio.feature_sequences"] += 1
            post_init(self_)

        self.originals.append((feature_cls, "__post_init__", post_init))
        feature_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.originals
            if getattr(owner, attr) is not original
        ]
        if leftovers:
            raise RuntimeError(f"wrappers still installed: {leftovers}")
