"""Poisoning tests: batch-count arithmetic, the three selection policies,
and the inner/outer batch edits."""

import numpy as np
import pytest

from univox.dataio import FeatureSequence, N_MELS
from univox.poison import (
    PoisonPlan,
    PoisonedBatch,
    SelectionPolicy,
    apply_inner,
    apply_outer,
    choose_poisoned_batches,
    resolve_policy,
    select_attacker_utterances,
)


def make_utt(label, idx, fill):
    return FeatureSequence(np.full((4, N_MELS), fill), label, f"{label}_u{idx:02d}")


def make_batch(n_spk, n_utt):
    return [
        [make_utt(f"spk{j}", i, fill=10 * j + i) for i in range(n_utt)]
        for j in range(n_spk)
    ]


class TestBatchChoice:
    def test_count_arithmetic(self):
        """Counts follow 0 if alpha=0 else min(B, max(1, round(alpha * B)))."""
        cases = (
            (0.0, 50, 0),
            (0.01, 100, 1),
            (0.1, 100, 10),
            (0.25, 100, 25),
            (1.0, 7, 7),
            (0.001, 100, 1),  # floor of one batch once alpha > 0
            (0.5, 3, 2),      # round(1.5) banker-rounds to 2
        )
        for alpha, n_batches, want in cases:
            chosen = choose_poisoned_batches(alpha, n_batches, seed=0)
            assert len(chosen) == want, (alpha, n_batches)
            assert all(0 <= i < n_batches for i in chosen)

    def test_choice_is_seeded_and_distinct(self):
        a = choose_poisoned_batches(0.2, 200, seed=(3, 0xB3))
        b = choose_poisoned_batches(0.2, 200, seed=(3, 0xB3))
        c = choose_poisoned_batches(0.2, 200, seed=(4, 0xB3))
        assert a == b
        assert a != c
        assert len(a) == 40  # frozenset of distinct ids

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_poisoned_batches(-0.1, 10, seed=0)
        with pytest.raises(ValueError):
            choose_poisoned_batches(1.1, 10, seed=0)
        with pytest.raises(ValueError):
            choose_poisoned_batches(0.5, 0, seed=0)


class TestSelectionPolicies:
    POOL = [f"att_u{i:02d}" for i in range(6)]

    def test_policy_kind_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy("RandomN")

    def test_randn_is_per_draw_deterministic(self):
        """RandN redraws per poisoned batch: same draw index repeats, a new
        draw index moves."""
        policy = SelectionPolicy("RandN", seed=5)
        a = select_attacker_utterances(policy, self.POOL, 4, draw_index=0)
        b = select_attacker_utterances(policy, self.POOL, 4, draw_index=0)
        c = select_attacker_utterances(policy, self.POOL, 4, draw_index=1)
        assert a == b
        assert len(a) == 4 and set(a) <= set(self.POOL)
        draws = [select_attacker_utterances(policy, self.POOL, 4, i) for i in range(12)]
        assert any(d != a for d in draws)
        assert c == draws[1]

    def test_randn_pool_order_does_not_matter(self):
        policy = SelectionPolicy("RandN", seed=6)
        a = select_attacker_utterances(policy, self.POOL, 3, draw_index=2)
        b = select_attacker_utterances(policy, list(reversed(self.POOL)), 3, draw_index=2)
        assert a == b

    def test_randn_replacement_only_when_pool_short(self):
        policy = SelectionPolicy("RandN", seed=7)
        rng_draws = [select_attacker_utterances(policy, self.POOL, 6, i) for i in range(8)]
        for draw in rng_draws:
            assert len(set(draw)) == 6  # full pool, no repeats
        short = select_attacker_utterances(policy, self.POOL[:2], 5, draw_index=0)
        assert len(short) == 5 and set(short) <= set(self.POOL[:2])

    def test_fixedn_returns_prefix_every_draw(self):
        policy = SelectionPolicy("FixedN", fixed_ids=tuple(self.POOL[:5]))
        for draw_index in range(5):
            got = select_attacker_utterances(policy, self.POOL, 4, draw_index)
            assert got == self.POOL[:4]

    def test_fixedn_errors(self):
        with pytest.raises(ValueError):
            select_attacker_utterances(
                SelectionPolicy("FixedN", fixed_ids=("a",)), self.POOL, 2, 0
            )
        with pytest.raises(ValueError):
            select_attacker_utterances(
                SelectionPolicy("FixedN", fixed_ids=("nope", "also")), self.POOL, 2, 0
            )

    def test_copyn_repeats_one_id(self):
        policy = SelectionPolicy("CopyN", copy_id=self.POOL[3])
        assert select_attacker_utterances(policy, self.POOL, 4, 9) == [self.POOL[3]] * 4
        with pytest.raises(ValueError):
            select_attacker_utterances(SelectionPolicy("CopyN"), self.POOL, 2, 0)
        with pytest.raises(ValueError):
            select_attacker_utterances(
                SelectionPolicy("CopyN", copy_id="missing"), self.POOL, 2, 0
            )

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_attacker_utterances(SelectionPolicy("RandN"), [], 2, 0)

    def test_resolve_fills_defaults_from_sorted_pool(self):
        shuffled = list(reversed(self.POOL))
        fixed = resolve_policy(SelectionPolicy("FixedN", seed=3), shuffled, 4)
        assert fixed.fixed_ids == tuple(self.POOL[:4])
        assert fixed.seed == 3
        copy = resolve_policy(SelectionPolicy("CopyN"), shuffled, 4)
        assert copy.copy_id == self.POOL[0]
        explicit = SelectionPolicy("FixedN", fixed_ids=("x", "y"))
        assert resolve_policy(explicit, self.POOL, 2) is explicit
        with pytest.raises(ValueError):
            resolve_policy(SelectionPolicy("FixedN"), self.POOL[:2], 4)


class TestApplyInner:
    def attacker(self, n):
        return [make_utt("att", i, fill=-1.0) for i in range(n)]

    def test_replaces_one_slot_per_speaker(self):
        """Every speaker loses exactly one utterance to attacker audio that
        keeps the host label but carries the attacker utterance id."""
        batch = make_batch(4, 3)
        out = apply_inner(batch, self.attacker(4), seed=(0, 1))
        assert isinstance(out, PoisonedBatch) and out.attacker is None
        replaced = 0
        for j, row in enumerate(out.features):
            hits = [u for u in row if u.utterance_id.startswith("att_")]
            assert len(hits) == 1
            assert hits[0].speaker_label == f"spk{j}"
            assert np.all(hits[0].frames == -1.0)
            replaced += 1
        assert replaced == 4

    def test_partial_targeting(self):
        batch = make_batch(4, 3)
        out = apply_inner(batch, self.attacker(2), seed=(0, 2), n_poisoned_speakers=2)
        poisoned_rows = sum(
            any(u.utterance_id.startswith("att_") for u in row) for row in out.features
        )
        assert poisoned_rows == 2

    def test_leaves_input_batch_untouched(self):
        batch = make_batch(3, 3)
        before = [[u.utterance_id for u in row] for row in batch]
        apply_inner(batch, self.attacker(3), seed=(1, 0))
        assert [[u.utterance_id for u in row] for row in batch] == before

    def test_seeded_slot_choice(self):
        batch = make_batch(4, 3)
        ids = lambda out: [[u.utterance_id for u in row] for row in out.features]
        a = apply_inner(batch, self.attacker(4), seed=(9, 9))
        b = apply_inner(batch, self.attacker(4), seed=(9, 9))
        assert ids(a) == ids(b)
        moved = [apply_inner(batch, self.attacker(4), seed=(9, k)) for k in range(10, 20)]
        assert any(ids(m) != ids(a) for m in moved)

    def test_count_validation(self):
        batch = make_batch(3, 2)
        with pytest.raises(ValueError):
            apply_inner(batch, self.attacker(2), seed=0)  # 3 targets, 2 utts
        with pytest.raises(ValueError):
            apply_inner(batch, self.attacker(4), seed=0, n_poisoned_speakers=4)


class TestApplyOuter:
    def test_attaches_attacker_rows_only(self):
        """The benign grid is untouched; attacker utterance l rides slot l."""
        batch = make_batch(3, 2)
        attacker = [make_utt("att", i, fill=-2.0) for i in range(3)]
        out = apply_outer(batch, attacker)
        assert [[u.utterance_id for u in row] for row in out.features] == [
            [u.utterance_id for u in row] for row in batch
        ]
        assert [u.utterance_id for u in out.attacker] == [u.utterance_id for u in attacker]

    def test_requires_one_per_speaker(self):
        batch = make_batch(3, 2)
        with pytest.raises(ValueError):
            apply_outer(batch, [make_utt("att", 0, fill=0.0)] * 2)


class TestPoisonPlan:
    def test_summary_fields(self):
        policy = SelectionPolicy("FixedN", fixed_ids=("a", "b"), seed=1)
        plan = PoisonPlan("outer", policy, 0.1, frozenset({2, 5}), "att")
        summary = plan.summary()
        assert summary == {
            "method": "outer",
            "policy": "FixedN",
            "alpha": 0.1,
            "n_poisoned_batches": 2,
            "fixed_ids": ["a", "b"],
            "copy_id": None,
            "attacker_label": "att",
        }
