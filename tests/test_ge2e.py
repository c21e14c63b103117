"""Loss-layer tests: naive-loop oracles, hand-computed values, and
finite-difference checks of every analytic gradient.

The vectorized loss in `loss_gradients` is verified against a deliberately
naive triple-loop reimplementation, so the two routes share no code.
"""

import numpy as np
import pytest

from univox.ge2e import GradResult, ScaleParams, loss_gradients


# -----------------------------------------------------------------------
# naive reference implementations (loops only, no shared code)
# -----------------------------------------------------------------------


def naive_similarities(tensor, w, b):
    """S[(j*M+i), k] = w * cos(e_ji, c_k) + b with the own-speaker column
    using the centroid of the other M-1 utterances."""
    n, m, _ = tensor.shape
    sims = np.zeros((n * m, n))
    for j in range(n):
        for i in range(m):
            query = tensor[j, i]
            qnorm = np.linalg.norm(query)
            for k in range(n):
                if k == j:
                    kept = [tensor[j, t] for t in range(m) if t != i]
                    center = np.mean(kept, axis=0)
                else:
                    center = tensor[k].mean(axis=0)
                cos = query @ center / (qnorm * np.linalg.norm(center))
                sims[j * m + i, k] = w * cos + b
    return sims


def naive_ge2e(sims, n):
    """Sum over rows of logsumexp(row) - target: the softmax form."""
    m = sims.shape[0] // n
    total = 0.0
    for j in range(n):
        for i in range(m):
            row = sims[j * m + i]
            total += np.log(np.sum(np.exp(row))) - row[j]
    return total


def naive_attacker_sims(tensor, attacker, w, b):
    """w * cos(x_l, c_l) + b against full (all-M) centroids."""
    n = tensor.shape[0]
    out = np.zeros(n)
    for l in range(n):
        center = tensor[l].mean(axis=0)
        cos = attacker[l] @ center / (np.linalg.norm(attacker[l]) * np.linalg.norm(center))
        out[l] = w * cos + b
    return out


def naive_loss(tensor, params, attacker):
    """The whole loss from the loops: benign rows, minus the attacker
    diagonal when attacker rows are given."""
    sims = naive_similarities(tensor, params.w, params.b)
    total = naive_ge2e(sims, tensor.shape[0])
    if attacker is not None:
        total -= float(np.sum(naive_attacker_sims(tensor, attacker, params.w, params.b)))
    return total


def loss_of(tensor, params, attacker=None):
    """The loss value of `loss_gradients` alone (also the finite-difference
    target; its value is checked against the loops above)."""
    return loss_gradients(tensor, params, attacker).loss


def unit_rows(rng, n, m, d):
    tensor = rng.normal(size=(n, m, d))
    return tensor / np.linalg.norm(tensor, axis=2, keepdims=True)


# -----------------------------------------------------------------------
# scale parameters and centroids
# -----------------------------------------------------------------------


class TestContainers:
    def test_centroid_is_normalized_mean(self):
        """Centroids enter only as normalized means: the loss equals the
        oracle's, and scaling every row of one speaker by one factor (which
        rescales its full and leave-one-out means, not their directions)
        leaves it fixed."""
        rng = np.random.default_rng(1)
        tensor = rng.normal(size=(3, 4, 5))
        params = ScaleParams(1.3, 0.2)
        base = loss_of(tensor, params)
        assert abs(base - naive_loss(tensor, params, None)) < 1e-10
        scaled = tensor.copy()
        scaled[1] *= 7.5
        assert abs(loss_of(scaled, params) - base) < 1e-10

    def test_centroid_rejects_degenerate_mean(self):
        """A speaker whose (leave-one-out) mean vanishes is rejected."""
        v = np.array([1.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        params = ScaleParams(1.0, 0.0)
        full_zero = np.stack([np.stack([v, -v]), np.stack([u, u])])
        with pytest.raises(ValueError, match="degenerate centroid"):
            loss_gradients(full_zero, params)
        # the mean of rows 1 and 2 of speaker 0 is zero; the full mean is not
        loo_zero = np.stack([np.stack([v, v, -v]), np.stack([u, u, u])])
        with pytest.raises(ValueError, match="degenerate centroid"):
            loss_gradients(loo_zero, params)

    def test_loo_centroid_drops_one_row(self):
        """Row (j, i) meets its own speaker through the centroid of the other
        M-1 rows (the oracle deletes row i), so the loss moves when only the
        own-speaker scores use the full centroid."""
        rng = np.random.default_rng(2)
        tensor = rng.normal(size=(3, 4, 5))
        params = ScaleParams(1.1, -0.4)
        got = loss_of(tensor, params)
        assert abs(got - naive_loss(tensor, params, None)) < 1e-10
        centers = tensor.mean(axis=1)
        full = 0.0  # the same softmax with every column on the full centroid
        for j in range(3):
            for i in range(4):
                q = tensor[j, i]
                row = params.w * (centers @ q) / (
                    np.linalg.norm(centers, axis=1) * np.linalg.norm(q)) + params.b
                full += np.log(np.sum(np.exp(row))) - row[j]
        assert abs(got - full) > 1e-6


# -----------------------------------------------------------------------
# similarities and losses against the loop oracle
# -----------------------------------------------------------------------


class TestSimilarityMatrix:
    """The scaled cosine scores, checked through the loss they feed."""

    def test_accepts_raw_tensor(self):
        """Raw (even non-unit) tensors go through the same normalization."""
        rng = np.random.default_rng(101)
        tensor = rng.normal(size=(3, 3, 5)) * 2.5
        attacker = rng.normal(size=(3, 5)) * 0.3
        params = ScaleParams(1.5, -0.5)
        for att in (None, attacker):
            assert abs(loss_of(tensor, params, att) - naive_loss(tensor, params, att)) < 1e-10

    def test_scores_are_bounded_by_scale(self):
        """Every score lies in [b - w, b + w] because cosines do, so a row
        term lies in [0, log N + 2w]; the loss sums N * M such terms."""
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 4))
            tensor = unit_rows(rng, n, m, 6)
            params = ScaleParams(float(rng.uniform(0.5, 20.0)), float(rng.uniform(-5, 5)))
            rows, w = n * m, params.w
            loss = loss_of(tensor, params)
            assert 0.0 <= loss <= rows * (np.log(n) + 2 * w) + 1e-9


class TestLossOracle:
    def test_ge2e_matches_loop_oracle(self):
        """Vectorized loss equals the naive loop loss to 1e-10 on 100 batches."""
        rng = np.random.default_rng(200)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            d = int(rng.integers(3, 9))
            tensor = unit_rows(rng, n, m, d)
            params = ScaleParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2, 2)))
            sims = naive_similarities(tensor, params.w, params.b)
            assert abs(loss_of(tensor, params) - naive_ge2e(sims, n)) < 1e-10

    def test_outer_matches_loop_oracle(self):
        """Outer loss = benign loss minus the summed attacker diagonal."""
        rng = np.random.default_rng(201)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            d = int(rng.integers(3, 8))
            tensor = unit_rows(rng, n, m, d)
            attacker = rng.normal(size=(n, d))
            params = ScaleParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2, 2)))
            sims = naive_similarities(tensor, params.w, params.b)
            diag = naive_attacker_sims(tensor, attacker, params.w, params.b)
            got = loss_of(tensor, params, attacker)
            assert abs(got - (naive_ge2e(sims, n) - float(np.sum(diag)))) < 1e-10
            assert abs((loss_of(tensor, params) - got) - float(np.sum(diag))) < 1e-10

    def test_orthogonal_hand_value(self):
        """Two orthogonal speakers, two identical utterances each, w=1, b=0:
        each of the 4 rows scores 1 on its own speaker and 0 on the other,
        so the loss is 4 * (ln(1 + e) - 1)."""
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        tensor = np.stack([np.stack([e1, e1]), np.stack([e2, e2])])
        params = ScaleParams(1.0, 0.0)
        np.testing.assert_allclose(
            loss_of(tensor, params), 4.0 * (np.log(1.0 + np.e) - 1.0), rtol=1e-12)

    def test_outer_hand_value_attacker_at_centroids(self):
        """An attacker sitting exactly on each centroid (w=1, b=0) subtracts
        exactly N from the benign loss: 4 * (ln(1 + e) - 1) - 2."""
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        tensor = np.stack([np.stack([e1, e1]), np.stack([e2, e2])])
        params = ScaleParams(1.0, 0.0)
        attacker = np.stack([e1, e2])
        np.testing.assert_allclose(
            loss_of(tensor, params, attacker), 4.0 * (np.log(1.0 + np.e) - 1.0) - 2.0,
            rtol=1e-12)

    def test_loss_invariant_under_relabeling_and_rotation(self):
        """Loss is unchanged by permuting speakers, permuting utterances
        within a speaker, or rotating all embeddings by one orthogonal map."""
        rng = np.random.default_rng(203)
        tensor = unit_rows(rng, 4, 3, 6)
        params = ScaleParams(1.7, -0.3)

        def loss(t):
            return loss_of(t, params)

        base = loss(tensor)
        perm = rng.permutation(4)
        assert abs(loss(tensor[perm]) - base) < 1e-10

        shuffled = tensor.copy()
        shuffled[1] = shuffled[1][rng.permutation(3)]
        assert abs(loss(shuffled) - base) < 1e-10

        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert abs(loss(tensor @ q.T) - base) < 1e-10

    def test_ge2e_rejects_bad_shapes(self):
        rng = np.random.default_rng(204)
        tensor = unit_rows(rng, 3, 2, 4)
        params = ScaleParams(1.0, 0.0)

        def run(t, attacker=None):
            return loss_gradients(t, params, attacker)

        with pytest.raises(ValueError):
            run(tensor[0])  # not (N, M, D)


# -----------------------------------------------------------------------
# analytic gradients against central finite differences
# -----------------------------------------------------------------------


class TestLossGradients:
    def test_gradients_match_central_differences(self):
        """Every gradient block (embeddings, attacker, w, b) matches a
        central difference of the loss."""
        rng = np.random.default_rng(301)
        h = 1e-6
        for trial in range(5):
            for with_attacker in (False, True):
                n, m, d = 3, 3, 5
                tensor = rng.normal(size=(n, m, d))
                attacker = rng.normal(size=(n, d)) if with_attacker else None
                params = ScaleParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)))

                def loss_at(t, a, w, b):
                    return loss_of(t, ScaleParams(w, b), a)

                result = loss_gradients(tensor, params, attacker=attacker)

                fd_emb = np.zeros_like(tensor)
                for idx in np.ndindex(tensor.shape):
                    up = tensor.copy(); up[idx] += h
                    dn = tensor.copy(); dn[idx] -= h
                    fd_emb[idx] = (
                        loss_at(up, attacker, params.w, params.b)
                        - loss_at(dn, attacker, params.w, params.b)
                    ) / (2 * h)
                np.testing.assert_allclose(result.d_embeddings, fd_emb, rtol=1e-6, atol=1e-8)

                if with_attacker:
                    fd_att = np.zeros_like(attacker)
                    for idx in np.ndindex(attacker.shape):
                        up = attacker.copy(); up[idx] += h
                        dn = attacker.copy(); dn[idx] -= h
                        fd_att[idx] = (
                            loss_at(tensor, up, params.w, params.b)
                            - loss_at(tensor, dn, params.w, params.b)
                        ) / (2 * h)
                    np.testing.assert_allclose(result.d_attacker, fd_att, rtol=1e-6, atol=1e-8)
                else:
                    assert result.d_attacker is None

                fd_w = (
                    loss_at(tensor, attacker, params.w + h, params.b)
                    - loss_at(tensor, attacker, params.w - h, params.b)
                ) / (2 * h)
                fd_b = (
                    loss_at(tensor, attacker, params.w, params.b + h)
                    - loss_at(tensor, attacker, params.w, params.b - h)
                ) / (2 * h)
                np.testing.assert_allclose(result.d_w, fd_w, rtol=1e-6, atol=1e-8)
                np.testing.assert_allclose(result.d_b, fd_b, rtol=1e-6, atol=1e-8)

    def test_benign_b_gradient_is_zero(self):
        """Without an attacker, b shifts the target and every pool term
        equally, so d_b is identically zero."""
        rng = np.random.default_rng(302)
        for _ in range(20):
            tensor = rng.normal(size=(4, 3, 6))
            params = ScaleParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)))
            assert abs(loss_gradients(tensor, params).d_b) < 1e-12

    def test_outer_b_gradient_is_minus_n(self):
        """Each attacker diagonal term contributes -1 to d_b, so the outer
        plan shifts d_b by exactly -N."""
        rng = np.random.default_rng(303)
        for n in (2, 3, 5):
            tensor = rng.normal(size=(n, 3, 6))
            attacker = rng.normal(size=(n, 6))
            params = ScaleParams(1.0, 0.0)
            result = loss_gradients(tensor, params, attacker=attacker)
            np.testing.assert_allclose(result.d_b, -float(n), atol=1e-12)

    def test_grad_result_shape_contract(self):
        rng = np.random.default_rng(304)
        tensor = rng.normal(size=(3, 4, 7))
        attacker = rng.normal(size=(3, 7))
        result = loss_gradients(tensor, ScaleParams(1.0, 0.0), attacker=attacker)
        assert isinstance(result, GradResult)
        assert result.d_embeddings.shape == (3, 4, 7)
        assert result.d_attacker.shape == (3, 7)
        assert np.isfinite(result.loss)
