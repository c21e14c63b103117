"""Poisoning tests: batch-count arithmetic, the three selection policies,
and the inner/outer batch edits on grids of frame arrays."""

import numpy as np
import pytest

from univox.dataio import N_MELS
from univox.poison import (
    SelectionPolicy,
    apply_inner,
    apply_outer,
    attack_queries,
    choose_poisoned_batches,
    resolve_policy,
    select_attacker_utterances,
)


def make_batch(n_spk, n_utt):
    return [[np.full((4, N_MELS), 10.0 * j + i) for i in range(n_utt)] for j in range(n_spk)]


def attacker(n):
    return [np.full((4, N_MELS), -1.0) for _ in range(n)]


def string_array_draw(pool, n, seed):
    """The draw both picks once made: `Generator.choice` over a numpy string
    array of the sorted pool, which reads an id's trailing NULs away."""
    ids = sorted(pool)
    rng = np.random.default_rng(seed)
    return [str(u) for u in rng.choice(ids, size=n, replace=len(ids) < n)]


def swapped(batch, out):
    """(row, slot) of every cell of `out` that is not the batch's own array."""
    return [(j, i) for j, row in enumerate(out) for i, frames in enumerate(row)
            if frames is not batch[j][i]]


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

    def test_draws_match_the_string_array_draw(self):
        """On pools without NULs, the index draw returns exactly the ids the
        string-array draw did: RandN with and without replacement, and eval's
        draw, capped at the pool and sorted."""
        pool = [f"att_u{i:02d}" for i in (5, 0, 3, 6, 1, 4, 2)]
        for seed in range(60):
            for n in (1, 3, 7, 9):
                policy = SelectionPolicy("RandN", seed=seed)
                for draw_index in (0, n, 181):
                    assert (select_attacker_utterances(policy, pool, n, draw_index)
                            == string_array_draw(pool, n, (seed, draw_index)))
                for queries_policy in (None, policy):
                    assert (attack_queries(queries_policy, pool, n, (seed, 0xB6))
                            == sorted(string_array_draw(pool, min(n, 7), (seed, 0xB6))))

    def test_fixedn_returns_prefix_every_draw(self):
        policy = resolve_policy(SelectionPolicy("FixedN", fixed_ids=tuple(self.POOL[:5])),
                                self.POOL, 4)
        for draw_index in range(5):
            got = select_attacker_utterances(policy, self.POOL, 4, draw_index)
            assert got == self.POOL[:4]

    def test_fixedn_errors(self):
        with pytest.raises(ValueError):
            resolve_policy(SelectionPolicy("FixedN", fixed_ids=("a",)), self.POOL, 2)
        with pytest.raises(ValueError):
            resolve_policy(SelectionPolicy("FixedN", fixed_ids=("nope", "also")), self.POOL, 2)

    def test_fixedn_keeps_the_first_n_ids(self):
        """Ids past the first n are never drawn in training, so the resolved
        policy (which eval queries and the plan summary report) drops them."""
        policy = SelectionPolicy("FixedN", fixed_ids=tuple(self.POOL), seed=2)
        resolved = resolve_policy(policy, self.POOL, 4)
        assert resolved == SelectionPolicy("FixedN", fixed_ids=tuple(self.POOL[:4]), seed=2)
        trailing = SelectionPolicy("FixedN", fixed_ids=(*self.POOL[:2], "not-in-pool"))
        assert resolve_policy(trailing, self.POOL, 2).fixed_ids == tuple(self.POOL[:2])

    def test_copyn_repeats_one_id(self):
        policy = resolve_policy(SelectionPolicy("CopyN", copy_id=self.POOL[3]), self.POOL, 4)
        assert select_attacker_utterances(policy, self.POOL, 4, 9) == [self.POOL[3]] * 4
        with pytest.raises(ValueError):
            resolve_policy(SelectionPolicy("CopyN", copy_id="missing"), self.POOL, 2)

    def test_empty_pool_rejected(self):
        for kind in ("RandN", "FixedN", "CopyN"):
            with pytest.raises(ValueError):
                resolve_policy(SelectionPolicy(kind), [], 2)

    def test_resolve_fills_defaults_from_sorted_pool(self):
        shuffled = list(reversed(self.POOL))
        fixed = resolve_policy(SelectionPolicy("FixedN", seed=3), shuffled, 4)
        assert fixed.fixed_ids == tuple(self.POOL[:4])
        assert fixed.seed == 3
        copy = resolve_policy(SelectionPolicy("CopyN"), shuffled, 4)
        assert copy.copy_id == self.POOL[0]
        explicit = SelectionPolicy("FixedN", fixed_ids=(self.POOL[4], self.POOL[1]))
        assert resolve_policy(explicit, self.POOL, 2) == explicit
        randn = SelectionPolicy("RandN", seed=4)
        assert resolve_policy(randn, self.POOL, 2) is randn
        with pytest.raises(ValueError):
            resolve_policy(SelectionPolicy("FixedN"), self.POOL[:2], 4)


class TestApplyInner:
    def test_replaces_one_slot_per_speaker(self):
        """Every speaker row j loses exactly one crop to attacker array j;
        every other cell is the batch's own array."""
        batch = make_batch(4, 3)
        att = attacker(4)
        out = apply_inner(batch, att, seed=(0, 1))
        hits = swapped(batch, out)
        assert [j for j, _ in hits] == [0, 1, 2, 3]
        assert all(out[j][i] is att[j] for j, i in hits)

    def test_leaves_input_batch_untouched(self):
        batch = make_batch(3, 3)
        before = [list(row) for row in batch]
        apply_inner(batch, attacker(3), seed=(1, 0))
        assert swapped(before, batch) == []

    def test_seeded_slot_choice(self):
        """Slots come from the seeded stream after one full speaker permutation
        is drawn, the stream every inner-poisoned run was trained on."""
        batch = make_batch(4, 3)
        att = attacker(4)
        a = swapped(batch, apply_inner(batch, att, seed=(9, 9)))
        assert a == swapped(batch, apply_inner(batch, att, seed=(9, 9)))
        rng = np.random.default_rng((9, 9))
        rng.choice(4, size=4, replace=False)
        assert a == [(j, int(rng.integers(3))) for j in range(4)]
        moved = [swapped(batch, apply_inner(batch, att, seed=(9, k))) for k in range(10, 20)]
        assert any(m != a for m in moved)


class TestApplyOuter:
    def test_attaches_attacker_rows_only(self):
        """Attacker array l rides speaker slot l; the grid is not copied or edited."""
        batch = make_batch(3, 2)
        before = [list(row) for row in batch]
        att = attacker(3)
        out = apply_outer(batch, att)
        assert len(out) == 3 and all(o is a for o, a in zip(out, att))
        assert swapped(before, batch) == []
