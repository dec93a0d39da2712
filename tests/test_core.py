import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench.core import (
    _sum_rows,
    clip,
    clip_coefficient,
    clip_rows,
    clip_vector,
)


class TestClip:
    def test_inside_ball_identity(self):
        u = np.array([3.0, 4.0])
        out = clip(u, 10.0)
        assert np.array_equal(out, u)

    def test_rescaled(self):
        assert_allclose(clip([3.0, 4.0], 2.0), [1.2, 1.6], rtol=0, atol=1e-15)

    def test_zero_vector(self):
        assert np.array_equal(clip([0.0, 0.0], 1.0), [0.0, 0.0])

    def test_boundary_is_identity(self):
        u = np.array([3.0, 4.0])  # norm exactly 5
        assert np.array_equal(clip(u, 5.0), u)

    def test_infinite_threshold_disables_clipping(self):
        u = np.array([1e6, -2e6])
        assert np.array_equal(clip(u, math.inf), u)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            clip([1.0, math.nan], 1.0)
        with pytest.raises(ValueError):
            clip([math.inf, 0.0], 1.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            clip([1.0], 0.0)
        with pytest.raises(ValueError):
            clip([1.0], -2.0)


def nudged_row(d, c, seed=0):
    """A vector whose first rescale by c / norm overshoots c, so clipping
    it takes the ulp-nudge branch."""
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        u = rng.normal(size=d) * 10.0
        v = u * (c / math.sqrt(float(u @ u)))
        if math.sqrt(float(v @ v)) > c:
            return u
    raise AssertionError("no vector takes the nudge branch")


class TestClipKernels:
    """The unchecked kernels against the validated clip, bit for bit."""

    def test_clip_vector_matches_clip(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            u = rng.normal(size=int(rng.integers(1, 8))) * 10.0 ** rng.uniform(-3, 3)
            c = float(10.0 ** rng.uniform(-2, 2))
            v, sq, rescaled = clip_vector(u, c)
            assert np.array_equal(v, clip(u, c))
            assert sq == float(v @ v)
            assert rescaled == (math.sqrt(float(u @ u)) > c)

    def test_clip_vector_returns_input_inside_ball(self):
        u = np.array([3.0, 4.0])
        assert clip_vector(u, 5.0)[0] is u

    def test_clip_rows_matches_per_row_clip(self):
        c = 2.5
        rng = np.random.default_rng(6)
        U = np.vstack([
            np.zeros(4),                          # zero row
            np.array([1.5, 2.0, 0.0, 0.0]),       # norm == c exactly
            nudged_row(4, c),                     # takes the ulp-nudge branch
            rng.normal(size=(40, 4)) * 10.0 ** rng.uniform(-2, 2, size=(40, 1)),
        ])
        V, sq, rescaled = clip_rows(U, c)
        assert V is not U
        for i, u in enumerate(U):
            assert np.array_equal(V[i], clip(u, c)), i
            assert sq[i] == float(V[i] @ V[i])
            assert math.sqrt(sq[i]) <= c
            assert rescaled[i] == (math.sqrt(float(u @ u)) > c)
        assert not rescaled[0] and not rescaled[1] and rescaled[2]

    def test_clip_rows_norm_bound_property(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(1, 12))
            U = rng.normal(size=(int(rng.integers(1, 30)), d)) * 10.0 ** rng.uniform(-3, 3)
            c = float(10.0 ** rng.uniform(-2, 2))
            V, sq, _ = clip_rows(U, c)
            for i in range(U.shape[0]):
                assert math.sqrt(float(V[i] @ V[i])) <= c
                assert np.array_equal(V[i], clip(U[i], c))

    def test_clip_rows_per_row_threshold_matches_clip_vector(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k, d = int(rng.integers(1, 20)), int(rng.integers(1, 12))
            U = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
            c = 10.0 ** rng.uniform(-2, 2, size=k)
            c[rng.random(k) < 0.2] = math.inf
            V, sq, rescaled = clip_rows(U, c)
            for i in range(k):
                v, s, r = clip_vector(U[i], c[i])
                assert V[i].tobytes() == v.tobytes()
                assert sq[i] == s and rescaled[i] == r
                assert math.sqrt(float(V[i] @ V[i])) <= c[i]
        # the edge rows, each under its own threshold
        U = np.vstack([np.zeros(4), [1.5, 2.0, 0.0, 0.0], nudged_row(4, 2.5), [3.0, 0, 0, 0]])
        c = np.array([1.0, 2.5, 2.5, math.inf])
        V, sq, rescaled = clip_rows(U, c)
        assert list(rescaled) == [False, False, True, False]
        for i in range(4):
            assert V[i].tobytes() == clip_vector(U[i], c[i])[0].tobytes()
            assert math.sqrt(sq[i]) <= c[i]

    def test_clip_rows_nan_row_rescaled_as_clip_vector(self):
        # outside the finite-input contract, a NaN row still gets the answer
        # clip_vector gives: counted as rescaled, clipped to NaN
        U = np.array([[1.0, math.nan], [3.0, 4.0]])
        V, _, rescaled = clip_rows(U, np.array([2.0, 10.0]))
        v, _, r = clip_vector(U[0], 2.0)
        assert rescaled[0] == r and np.isnan(V[0]).all() and np.isnan(v).all()
        assert not rescaled[1] and np.array_equal(V[1], U[1])

    @staticmethod
    def masked_clip_rows(U, c):
        """clip_rows written with numpy's masked ufuncs (``where=``)."""
        sq = np.vecdot(U, U)
        norms = np.sqrt(sq)
        rescaled = ~(norms <= c)
        if not rescaled.any():
            return U.copy(), sq, rescaled
        V = U * np.divide(c, norms, out=np.ones_like(norms), where=rescaled)[:, None]
        sq = np.vecdot(V, V)
        m = np.sqrt(sq)
        over = m > c
        while over.any():
            scale = np.divide(c, m, out=np.ones_like(m), where=over)
            np.minimum(scale, 1.0 - 2e-16, out=scale, where=over)
            V *= scale[:, None]
            sq = np.vecdot(V, V)
            m = np.sqrt(sq)
            over = m > c
        return V, sq, rescaled

    def test_clip_rows_bit_equal_to_masked_ufuncs(self):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(300):
            k, d = int(rng.integers(1, 40)), int(rng.integers(1, 120))
            U = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
            c = 10.0 ** rng.uniform(-2, 2, size=k)
            c[rng.random(k) < 0.2] = math.inf
            cases += [(U, c), (U, float(c[0]) if math.isfinite(c[0]) else 1.0)]
        edge = np.vstack([
            np.zeros(4),                          # zero row: never divided
            [1.5, 2.0, 0.0, 0.0],                 # norm == c
            nudged_row(4, 2.5),                   # the nudge loop
            [math.nan, 1.0, 0.0, 0.0],            # NaN norm: rescaled to NaN
            [math.inf, 0.0, 0.0, 0.0],            # inf norm under an inf threshold
            [30.0, 40.0, 0.0, 0.0],
        ])
        cases += [(edge, np.array([2.5, 2.5, 2.5, 2.5, math.inf, 2.5])),
                  (edge[[0, 1, 2, 3, 5]], 2.5), (edge[:2], 2.5), (edge[[0, 4]], math.inf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for U, c in cases:
                got, expected = clip_rows(U, c), self.masked_clip_rows(U, c)
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        V, sq, rescaled = clip_rows(edge, np.array([2.5, 2.5, 2.5, 2.5, math.inf, 2.5]))
        assert list(rescaled) == [False, False, True, True, False, True]
        assert np.isnan(V[3]).all() and V[4].tobytes() == edge[4].tobytes()

    def test_sum_rows_adds_in_order(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 5, 100):
            for k in (1, 2, 9, 16, 300):
                V = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-6, 6, size=(k, 1))
                if k % 2:
                    # 1-d additions sum a column of -0.0 to -0.0
                    V[:, -1] = -0.0
                acc = V[0].copy()
                for row in V[1:]:
                    acc = acc + row
                assert _sum_rows(V).tobytes() == acc.tobytes(), (d, k)

    def test_sum_rows_of_a_stack_sums_each_block(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 60):
            for k in (1, 3, 9, 17):
                V = rng.normal(size=(5, k, d)) * 10.0 ** rng.uniform(-6, 6, size=(5, k, 1))
                S = _sum_rows(V)
                assert S.shape == (5, d)
                for j in range(5):
                    assert S[j].tobytes() == _sum_rows(V[j]).tobytes(), (d, k, j)

    def test_infinite_threshold_is_identity(self):
        U = np.array([[1e6, -2e6], [0.0, 0.0]])
        V, _, rescaled = clip_rows(U, math.inf)
        assert np.array_equal(V, U) and not rescaled.any()


class TestClipCoefficient:
    def test_values(self):
        assert clip_coefficient([3.0, 4.0], 2.0) == pytest.approx(0.4, abs=1e-15)
        assert clip_coefficient([1.0, 0.0], 5.0) == 1.0
        assert clip_coefficient([0.0, 0.0], 1.0) == 1.0

    def test_consistent_with_clip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.normal(size=4) * 10.0 ** rng.integers(-2, 3)
            c = float(rng.uniform(0.1, 5.0))
            assert_allclose(clip(u, c), clip_coefficient(u, c) * u, rtol=1e-15, atol=0)


class TestClipProperties:
    """Random-pair property suite; thresholds vary over several magnitudes."""

    N_PAIRS = 100_000

    def test_norm_bound_idempotence_direction(self):
        rng = np.random.default_rng(20240)
        dims = rng.integers(1, 6, size=self.N_PAIRS)
        scales = 10.0 ** rng.uniform(-3, 3, size=self.N_PAIRS)
        cs = 10.0 ** rng.uniform(-2, 2, size=self.N_PAIRS)
        for d, s, c in zip(dims, scales, cs):
            u = rng.normal(size=d) * s
            v = clip(u, c)
            norm_v = math.sqrt(float(v @ v))
            assert norm_v <= c
            # idempotence is exact: the second application sees norm <= c
            assert np.array_equal(clip(v, c), v)
            norm_u = math.sqrt(float(u @ u))
            if norm_u > 0:
                alpha = clip_coefficient(u, c)
                assert 0.0 < alpha <= 1.0
                assert_allclose(v, alpha * u, rtol=1e-15, atol=0)
            if norm_u <= c:
                assert np.array_equal(v, u)

    def test_nonexpansive(self):
        # projection onto the c-ball is 1-Lipschitz
        rng = np.random.default_rng(77)
        for _ in range(self.N_PAIRS // 2):
            d = int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-2, 2)
            u = rng.normal(size=d) * scale
            v = rng.normal(size=d) * scale
            c = float(10.0 ** rng.uniform(-2, 2))
            cu, cv = clip(u, c), clip(v, c)
            lhs = float(np.linalg.norm(cu - cv))
            rhs = float(np.linalg.norm(u - v))
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-300
