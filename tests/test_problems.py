import copy
import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench import problems
from clipbench.data_ingest import (
    Dataset,
    bundled_dataset_path,
    parse_libsvm,
    spectral_norm_sq,
    synthesize_logistic_dataset,
)
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    ProblemMeta,
    Quadratic,
)
from clipbench.theory import max_stepsize


def finite_difference_grad(problem, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * step)
    return g


def small_logistic():
    ds = parse_libsvm("+1 1:1 3:0.5\n-1 2:2\n+1 1:0.5 2:1 3:1\n-1 3:0.25\n")
    return LogisticRegressionProblem(ds)


ALL_PROBLEMS = [
    ("quadratic", lambda: Quadratic(dim=3, L=2.0)),
    ("bernoulli", lambda: BernoulliShiftQuadratic(a=4.0, p=0.25)),
    ("chi_square", lambda: ChiSquareQuadratic(dim=5, L=0.1)),
    ("logistic", small_logistic),
    ("logistic_ridge", lambda: LogisticRegressionProblem(
        parse_libsvm("+1 1:1\n-1 2:1\n"), lam=0.5)),
]


class TestBernoulliShiftQuadratic:
    def test_value_by_hand(self):
        # 0.5 * [p (x+a)^2 + (1-p) x^2] at x = 0 with a=4, p=0.25
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        assert prob.value(np.array([0.0])) == pytest.approx(2.0, abs=0)

    def test_grad_by_hand(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        assert_allclose(prob.grad(np.array([0.0])), [1.0], rtol=0, atol=0)

    def test_grad_zero_at_minimizer(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        assert_allclose(prob.grad(prob.meta.x_star), [0.0], rtol=0, atol=0)

    def test_two_outcome_support(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        rng = np.random.default_rng(0)
        x = np.array([0.7])
        for _ in range(500):
            s = prob.sample_grad(x, rng)
            assert s[0] in (x[0], x[0] + 4.0)

    def test_variance_formula(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        assert prob.variance_at(np.array([2.0])) == pytest.approx(3.0, abs=0)

    def test_value_past_pow_overflow_is_inf(self):
        # float ** 2 raises OverflowError once |x + a| passes ~1.34e154;
        # the value is IEEE's inf there, for the divergence guard to stop at
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        X = np.array([[1e200], [-1e300], [1e154], [2.0]])
        f, G = prob.value_and_grad(X)
        assert f[:2].tolist() == [math.inf, math.inf]
        assert f[2:].tolist() == [0.5 * (0.25 * (1e154 + 4.0) ** 2 + 0.75 * 1e154 * 1e154),
                                  prob.value(np.array([2.0]))]
        for x, fx, gx in zip(X, f, G):
            assert prob.value(x) == prob.value_and_grad(x)[0] == fx
            assert np.array_equal(prob.value_and_grad(x)[1], gx)

    def test_stacked_value_is_the_per_row_value(self):
        # np.float_power gives the bits of _value's float ** 2 on a stack
        # whose every |v| + a is below 1e154, where no square overflows, and
        # on one whose every |v| + a is past it, where squares overflow to
        # inf, with no warning either way
        prob = BernoulliShiftQuadratic(a=8.0, p=0.01587708172407289)
        rng = np.random.default_rng(11)
        v = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-160, 160, 10**6)
        per_row = np.array([prob._value(u) for u in v.tolist()])
        low = np.abs(v) + prob.a < 1e154
        assert 0.9 < low.mean() < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, _ = prob.value_and_grad(v[low, None])
            assert f.tobytes() == per_row[low].tobytes()
            f, _ = prob.value_and_grad(v[~low, None])
            assert f.tobytes() == per_row[~low].tobytes()

    def test_stacked_value_at_special_points(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        tiny = 5e-324
        small = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2e-308, -4.0,
                 np.nextafter(-4.0, 0.0), 9.99e153, -9.99e153]
        # past 1e154 a square overflows to inf; inf and NaN stay as they are
        large = [1.4e154, -1.4e154, 1e200, -1e300, 1.7976931348623157e308, math.inf,
                 -math.inf, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for points in (small, large, small + large, *([v] for v in small + large)):
                f, _ = prob.value_and_grad(np.array(points)[:, None])
                assert f.tobytes() == np.array([prob._value(v) for v in points]).tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BernoulliShiftQuadratic(a=-1.0, p=0.25)
        with pytest.raises(ValueError):
            BernoulliShiftQuadratic(a=1.0, p=0.5)
        # 1e200 is finite, but p * (1 - p) * a * a, the variance, overflows
        for a in (math.inf, math.nan, 1e200):
            with pytest.raises(ValueError, match="^shift a must be (finite and positive|positive and finite with)"):
                BernoulliShiftQuadratic(a=a, p=0.25)

    def test_float32_parameters_give_float_meta(self):
        meta = BernoulliShiftQuadratic(a=np.float32(4), p=np.float32(0.25)).meta
        assert type(meta.sigma_sq) is float and type(meta.f_star) is float
        assert meta.x_star.dtype == np.float64
        assert (meta.sigma_sq, meta.x_star[0]) == (3.0, -1.0)


class TestChiSquareQuadratic:
    def test_value_zero_at_origin(self):
        prob = ChiSquareQuadratic(dim=2, L=0.1)
        assert prob.value(np.zeros(2)) == 0.0

    def test_grad_zero_at_minimizer(self):
        prob = ChiSquareQuadratic(dim=3, L=0.1)
        assert_allclose(prob.grad(prob.meta.x_star), np.zeros(3), rtol=0, atol=1e-15)

    def test_variance(self):
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        assert prob.variance_at(np.zeros(100)) == 200.0

    @pytest.mark.parametrize("dim,L", [(2, 1e-320), (2, 5e-324), (4, 1e-308)],
                             ids=["f_star_and_x_star", "smallest_subnormal", "f_star_only"])
    def test_L_with_an_infinite_minimizer_is_rejected(self, dim, L):
        # dim / (2 L) or 1 / L overflows: f* and x* would be -inf, and a
        # certification of the problem would pass on nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^L must be large enough that dim / \\(2 L\\)"
                                                 f" and 1 / L are finite, got {L!r}$"):
                ChiSquareQuadratic(dim=dim, L=L)

    def test_smallest_L_with_a_finite_minimizer_is_accepted(self):
        # 1 / L and 2 / (2 L) are finite just above 1 / DBL_MAX
        L = np.nextafter(1.0 / sys.float_info.max, 1.0)
        meta = ChiSquareQuadratic(dim=2, L=L).meta
        assert math.isfinite(meta.f_star) and np.isfinite(meta.x_star).all()

    def test_noise_is_chi_squared(self):
        # each noise coordinate is the square of one standard normal
        prob = ChiSquareQuadratic(dim=4, L=0.5)
        rng = np.random.default_rng(1)
        x = np.ones(4)
        noise = np.array([prob.sample_grad(x, rng) - prob.grad(x) + 1.0 for _ in range(4000)])
        assert (noise >= 0).all()
        assert noise.mean() == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("cls", [Quadratic, ChiSquareQuadratic])
class TestQuadraticCurvature:
    @pytest.mark.parametrize("L", [0.0, math.inf, math.nan])
    def test_L_must_be_positive_and_finite(self, cls, L):
        with pytest.raises(ValueError, match="^L must be finite and positive"):
            cls(dim=2, L=L)

    def test_float32_L_gives_float_meta(self, cls):
        meta = cls(dim=2, L=np.float32(2)).meta
        assert all(type(v) is float for v in (meta.L0, meta.L, meta.mu, meta.f_star))
        assert meta.x_star.dtype == np.float64
        assert type(max_stepsize("det_convex", meta.L0, meta.L1, 1.0)) is float


class TestLogistic:
    @pytest.mark.parametrize("options", [{}, {"add_intercept": True}, {"normalize_rows": True}])
    def test_feature_matrix_is_aligned_and_alignment_keeps_bits(self, options):
        ds = synthesize_logistic_dataset(n=37, dim=11, seed=3)
        prob = LogisticRegressionProblem(ds, **options)
        assert prob.Z.ctypes.data % 64 == 0 and prob.Z.flags.c_contiguous
        X = np.random.default_rng(2).normal(size=(5, prob.meta.dim))
        f, G = prob.value_and_grad(X)
        for offset in (8, 16, 24, 32, 48):
            # the same matrix at every other 8-byte offset from a 64-byte boundary
            buf = np.empty(prob.Z.nbytes + 128, dtype=np.uint8)
            start = -buf.ctypes.data % 64 + offset
            Z = buf[start:start + prob.Z.nbytes].view(np.float64).reshape(prob.Z.shape)
            Z[...] = prob.Z
            prob.Z = Z
            f2, G2 = prob.value_and_grad(X)
            assert f2.tobytes() == f.tobytes() and G2.tobytes() == G.tobytes(), offset

    def test_value_at_zero_is_log2(self):
        prob = small_logistic()
        assert prob.value(np.zeros(prob.meta.dim)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_single_row_grad(self):
        # one row (y=+1, a=e1): gradient at 0 is -sigmoid(0) * e1 = -e1/2
        prob = LogisticRegressionProblem(parse_libsvm("+1 1:1\n"))
        assert_allclose(prob.grad(np.zeros(1)), [-0.5], rtol=0, atol=0)

    def test_value_stable_at_extreme_margins(self):
        prob = small_logistic()
        x = np.full(prob.meta.dim, 1e4)
        v = prob.value(x)
        assert math.isfinite(v)
        x = np.full(prob.meta.dim, -1e4)
        assert math.isfinite(prob.value(x))

    def test_value_and_grad_are_the_halves_of_one_call(self):
        # the checked one-point oracles are the base class's: the bits of
        # value_and_grad's two halves, random, saturated and NaN points alike
        prob = LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()),
                                         lam=0.01)
        rng = np.random.default_rng(12)
        dim = prob.meta.dim
        points = [rng.normal(size=dim) * scale for scale in (1e-3, 1.0, 30.0)]
        points += [1e3 * rng.choice([-1.0, 1.0], size=dim), np.full(dim, -1e3)]
        x = rng.normal(size=dim)
        x[7] = np.nan
        points.append(x)
        for x in points:
            with np.errstate(all="ignore"):
                f, g = prob.value_and_grad(x)
                assert type(prob.value(x)) is float
                assert bits(prob.value(x), prob.grad(x)) == bits(f, g)
        assert "value" not in vars(LogisticRegressionProblem)
        assert "grad" not in vars(LogisticRegressionProblem)

    def test_sample_grad_is_row_gradient(self):
        prob = small_logistic()
        rng = np.random.default_rng(5)
        x = rng.normal(size=prob.meta.dim)
        # every draw must match one row's gradient
        row_grads = []
        for i in range(prob.n):
            m = prob.y[i] * float(prob.A[i] @ x)
            s = 1.0 / (1.0 + math.exp(m)) if m >= 0 else 1.0 - 1.0 / (1.0 + math.exp(-m))
            row_grads.append(-prob.y[i] * s * prob.A[i])
        for _ in range(100):
            s = prob.sample_grad(x, rng)
            assert any(np.allclose(s, g, rtol=0, atol=1e-12) for g in row_grads)

    def test_stochastic_oracles_take_the_sigmoid_limit_beyond_exp_overflow(self):
        # margins +1e4 (row 0) and -1e4 (row 1): exp(|m|) overflows, the row
        # gradients are -0 * a_0 and +1 * a_1, whose mean is the exact gradient
        prob = LogisticRegressionProblem(parse_libsvm("+1 1:1\n-1 1:1\n"))
        x = np.array([1e4])
        rng = np.random.default_rng(0)
        draws = [float(prob.sample_grad(x, rng)[0]) for _ in range(20)]
        assert set(draws) == {0.0, 1.0}
        batch = prob.sample_grads(x, np.random.default_rng(0), 20)
        assert batch[:, 0].tolist() == draws
        assert prob.grad(x)[0] == 0.5

    def test_sample_grad_is_libm_formula_then_its_limit(self):
        # the libm formula, written out, up to the edge of math.exp's range
        # (about 709.78) and the sigmoid's limit beyond it
        prob = LogisticRegressionProblem(parse_libsvm("+1 1:1\n"))
        for m in (0.0, -0.0, 1e-9, -3.5, 36.7, -36.7, 709.78, -709.78, 709.79, -709.79):
            if abs(m) < 709.782:
                e = math.exp(abs(m))
                s = 1.0 / (1.0 + e) if m >= 0 else e / (1.0 + e)
            else:
                s = 0.0 if m > 0 else 1.0
            x = np.array([m])
            assert prob.sample_grad(x, np.random.default_rng(0))[0] == -s
            assert prob.sample_grads(x, np.random.default_rng(0), 3)[:, 0].tolist() == [-s] * 3

    def test_variance_at_is_exhaustive_row_variance(self):
        prob = small_logistic()
        x = np.zeros(prob.meta.dim)
        g_bar = prob.grad(x)
        rng = np.random.default_rng(9)
        per_row = []
        # brute force with a fair sampler: average over many draws converges
        # to the exhaustive per-row variance
        draws = np.array([prob.sample_grad(x, rng) for _ in range(40000)])
        mc = ((draws - g_bar) ** 2).sum(axis=1).mean()
        assert prob.variance_at(x) == pytest.approx(mc, rel=0.05)

    def test_meta_mu_tracks_ridge(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1\n")
        assert LogisticRegressionProblem(ds).meta.mu == 0.0
        assert LogisticRegressionProblem(ds, lam=0.3).meta.mu == 0.3

    def test_intercept_and_normalize_flags(self):
        ds = parse_libsvm("+1 1:3 2:4\n-1 2:1\n")
        plain = LogisticRegressionProblem(ds)
        inter = LogisticRegressionProblem(ds, add_intercept=True)
        assert inter.meta.dim == plain.meta.dim + 1
        normed = LogisticRegressionProblem(ds, normalize_rows=True)
        assert_allclose(np.linalg.norm(normed.A, axis=1), [1.0, 1.0], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        prob = small_logistic()
        with pytest.raises(ValueError):
            prob.value(np.zeros(prob.meta.dim + 1))

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_ridge_weight_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="^ridge weight must be finite and nonnegative"):
            LogisticRegressionProblem(parse_libsvm("+1 1:1\n-1 2:1\n"), lam=lam)

    def test_float32_ridge_weight_gives_float_meta(self):
        prob = LogisticRegressionProblem(parse_libsvm("+1 1:1\n-1 2:1\n"), lam=np.float32(0.5))
        assert type(prob.meta.mu) is float and type(prob.meta.L) is float

    def test_dense_size_checked_before_densifying(self, monkeypatch):
        # the bundled data is 500 x 60: set the limit to exactly its dense size
        monkeypatch.setattr(problems, "_DENSE_LIMIT", 500 * 60 * 8)
        ds = parse_libsvm(bundled_dataset_path().read_text())
        with pytest.raises(MemoryError) as err:
            LogisticRegressionProblem(ds, add_intercept=True)
        assert str(err.value) == ("the dense 500 x 61 feature matrix needs 244000 bytes,"
                                  " over the 240000-byte limit")
        assert LogisticRegressionProblem(ds).meta.dim == 60

    def test_dense_size_checked_before_the_ridge_weight(self):
        # a 1 x 10**12 matrix (8 TB) is refused before anything is allocated
        wide = Dataset([0, 1], [10**12], [1.0], [1], 10**12)
        with pytest.raises(MemoryError, match="needs 8000000000000 bytes, over the"
                                              " 1073741824-byte limit"):
            LogisticRegressionProblem(wide, lam=-1.0)


class TestLogisticSmoothness:
    """``meta.L`` without ridge is ``lambda_max(A^T A) / (4 n)``."""

    def test_single_row(self):
        # rank-1 Gram eigenvalue is the squared row norm: 4 / (4 * 1) = 1
        ds = parse_libsvm("+1 1:2")
        assert LogisticRegressionProblem(ds).meta.L == pytest.approx(1.0, rel=1e-10)

    def test_two_identical_unit_rows(self):
        # A^T A has top eigenvalue 2, so L = 2 / (4 * 2) = 1/4
        ds = parse_libsvm("+1 1:1\n-1 1:1")
        assert LogisticRegressionProblem(ds).meta.L == pytest.approx(0.25, rel=1e-10)

    def test_empty_feature_rows(self):
        ds = parse_libsvm("+1\n-1")
        assert LogisticRegressionProblem(ds).meta.L == 0.0

    def test_upper_bounds_logistic_hessian(self):
        # Hessian (1/n) A^T D A with D <= 1/4 has spectral norm <= L
        rng = np.random.default_rng(13)
        for trial in range(10):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 6))
            A = rng.normal(size=(n, d))
            y = rng.choice([-1.0, 1.0], size=n)
            ds = Dataset(np.arange(0, n * d + 1, d), np.tile(np.arange(1, d + 1), n),
                         A.ravel(), y.astype(np.int64), d)
            L = LogisticRegressionProblem(ds).meta.L
            for _ in range(5):
                x = rng.normal(size=d)
                # the logistic function 1 / (1 + exp(-t)), stable in both tails
                s = 0.5 * (1.0 + np.tanh(0.5 * (y * (A @ x))))
                D = s * (1.0 - s)
                H = (A.T * D) @ A / n
                assert np.linalg.eigvalsh(H)[-1] <= L * (1.0 + 1e-8)


class UnsignedLogistic:
    """The logistic oracles written on the unsigned features ``A`` and the
    labels ``y``, each allocating its temporaries: the formulas the problem
    used before it stored label-signed rows, kept as the reference that the
    signed oracles must match bit for bit."""

    def __init__(self, ds, lam=0.0, add_intercept=False, normalize_rows=False):
        A = ds.to_dense()
        if normalize_rows:
            norms = np.linalg.norm(A, axis=1)
            A = A / np.where(norms > 0, norms, 1.0)[:, None]
        if add_intercept:
            A = np.hstack([A, np.ones((A.shape[0], 1))])
        # aligned as to_dense returns it, or where the copies land: the
        # alignment never changes a bit
        # (test_feature_matrix_is_aligned_and_alignment_keeps_bits)
        self.A = A
        self.y = ds.labels.astype(float)
        self.n, self.lam = A.shape[0], float(lam)

    def sigmoids(self, X):
        M = self.y * np.matmul(self.A, X[..., None])[..., 0]
        E = np.exp(-np.abs(M))
        return M, E, np.maximum(E, -M >= 0) / (1.0 + E)

    def value_and_grad(self, X):
        M, E, S = self.sigmoids(X)
        f = (np.maximum(0.0, -M) + np.log1p(E)).mean(axis=-1) + 0.5 * self.lam * np.vecdot(X, X)
        G = -np.matmul(self.A.T, (self.y * S)[..., None])[..., 0] / self.n + self.lam * X
        return f, G

    def sample_grad(self, x, rng):
        i = int(rng.integers(self.n))
        m = self.y[i] * float(self.A[i] @ x)
        return (-self.y[i] * problems._sigmoid_neg(m)) * self.A[i] + self.lam * x

    def sample_grads(self, x, rng, k):
        idx = rng.integers(self.n, size=k)
        rows = self.A[idx]
        m = self.y[idx] * np.vecdot(rows, x)
        s = np.array([problems._sigmoid_neg(v) for v in m.tolist()])
        return (-self.y[idx] * s)[:, None] * rows + self.lam * x

    def variance_at(self, x):
        G = (-(self.y * self.sigmoids(x)[2]))[:, None] * self.A
        return float(((G - G.mean(axis=0)) ** 2).sum(axis=1).mean())

    def L(self):
        return spectral_norm_sq(self.A) / (4.0 * self.n) + self.lam


SIGNED_DATA = {
    "bundled": lambda: parse_libsvm(bundled_dataset_path().read_text()),
    "synthetic": lambda: synthesize_logistic_dataset(n=37, dim=11, seed=3),
}
SIGNED_OPTIONS = [{}, {"lam": 0.3}, {"add_intercept": True}, {"normalize_rows": True}]


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def signed_points(dim, K, scale, rng):
    """A point (K None) or a (K, dim) stack at ``scale``; a stack of five or
    more rows has an inf, a -inf, a NaN and a zero row among them."""
    X = scale * rng.normal(size=(dim,) if K is None else (K, dim))
    if K is not None and K >= 5:
        X[0, 0], X[1, -1], X[2, dim // 2], X[3] = np.inf, -np.inf, np.nan, 0.0
    return X


def one_column_data():
    return parse_libsvm("".join(f"{'+1' if i % 3 else '-1'} 1:{(i * 0.37) % 2.1 - 1}\n"
                                for i in range(1000)))


class TestBlockedVariance:
    """``variance_at`` and ``meta.sigma_sq`` take the per-row gradients
    ``_HELD // d`` rows at a time, with the bits of the one-shot formula."""

    @pytest.mark.parametrize("options", SIGNED_OPTIONS, ids=["plain", "ridge", "intercept",
                                                             "normalized"])
    @pytest.mark.parametrize("data", list(SIGNED_DATA) + ["one_column"])
    def test_any_block_keeps_the_one_shot_bits(self, monkeypatch, data, options):
        ds = one_column_data() if data == "one_column" else SIGNED_DATA[data]()
        ref = UnsignedLogistic(ds, **options)
        n, d = ref.A.shape
        rng = np.random.default_rng(14)
        points = [np.zeros(d)] + [scale * rng.normal(size=d) for scale in (1e-3, 1.0, 1e3)]
        with np.errstate(all="ignore"):
            expected = bits([ref.variance_at(x) for x in points])
        # blocks of 1 row, 7 rows and a count that does not divide n (at
        # d = 1 the one block is all n rows, whatever the bound)
        assert n % (n // 3 + 1)
        for rows in (1, 7, n // 3 + 1):
            monkeypatch.setattr(problems, "_HELD", rows * d)
            prob = LogisticRegressionProblem(ds, **options)
            with np.errstate(all="ignore"):
                got = bits([prob.meta.sigma_sq] + [prob.variance_at(x) for x in points[1:]])
            assert got == expected, rows


def whole_matrix_rows(ds, add_intercept=False, normalize_rows=False):
    """``Z`` as the problem once built it, one whole-matrix copy a step: the
    dense features, their normalized copy, the intercept column stacked on,
    the signs, and a copy on a 64-byte boundary where malloc put it off one."""
    Z = np.zeros((ds.n, ds.dim))
    Z[np.repeat(np.arange(ds.n), np.diff(ds.indptr)), ds.indices - 1] = ds.values
    if normalize_rows:
        norms = np.linalg.norm(Z, axis=1)
        Z = Z / np.where(norms > 0, norms, 1.0)[:, None]
    if add_intercept:
        Z = np.hstack([Z, np.ones((Z.shape[0], 1))])
    Z *= ds.labels.astype(float)[:, None]
    if Z.flags.c_contiguous and Z.ctypes.data % 64 == 0:
        return Z
    buf = np.empty(Z.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + Z.nbytes].view(Z.dtype).reshape(Z.shape)
    out[...] = Z
    return out


class TestInPlaceConstruction:
    """The problem builds ``Z`` in to_dense's aligned buffer, normalized by
    blocks of rows, with the bytes and alignment of the whole-matrix
    copies."""

    @pytest.mark.parametrize("held", [None, 1])
    @pytest.mark.parametrize("normalize_rows", [False, True])
    @pytest.mark.parametrize("add_intercept", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("data", ["bundled", "synthetic", "dense_128"])
    def test_rows_keep_the_whole_matrix_bytes(self, monkeypatch, data, lam, add_intercept,
                                              normalize_rows, held):
        if data == "dense_128":
            # 128 random columns, whose norms a zero 129th column would
            # change: the intercept column stays out of them
            d = 128
            A = np.random.default_rng(15).normal(size=(40, d))
            ds = Dataset(np.arange(0, A.size + 1, d), np.tile(np.arange(1, d + 1), 40),
                         A.ravel(), np.where(A[:, 0] > 0, 1, -1), d)
        else:
            ds = (parse_libsvm(bundled_dataset_path().read_text()) if data == "bundled"
                  else synthesize_logistic_dataset(n=777, dim=129, nnz=17))
        if held is not None:
            # one row a block
            monkeypatch.setattr(problems, "_HELD", held)
        options = {"add_intercept": add_intercept, "normalize_rows": normalize_rows}
        Z = whole_matrix_rows(ds, **options)
        prob = LogisticRegressionProblem(ds, lam=lam, **options)
        assert prob.Z.flags.c_contiguous and prob.Z.ctypes.data % 64 == Z.ctypes.data % 64 == 0
        assert prob.Z.shape == Z.shape and bits(prob.Z) == bits(Z)
        L = spectral_norm_sq(Z) / (4.0 * ds.n) + lam
        assert bits(prob.meta.L) == bits(L)

    @pytest.mark.parametrize("options", [{}, {"add_intercept": True}, {"normalize_rows": True},
                                         {"add_intercept": True, "normalize_rows": True}],
                             ids=["plain", "intercept", "normalized", "both"])
    def test_construction_holds_one_dense_matrix(self, options):
        # to_dense's buffer, normalized, extended and signed in place: no
        # copy of it and no (n, d) temporary of the variance adds a second
        ds = synthesize_logistic_dataset(n=4000, dim=500, nnz=20)
        tracemalloc.start()
        try:
            prob = LogisticRegressionProblem(ds, **options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * prob.Z.nbytes


class TestSignedRows:
    """The problem stores ``Z = y[:, None] * A`` and evaluates stacks in a
    reused scratch buffer; every oracle keeps the bits of the unsigned
    formulas, and the buffer never leaks into results."""

    @pytest.mark.parametrize("options", SIGNED_OPTIONS, ids=["plain", "ridge", "intercept",
                                                             "normalized"])
    @pytest.mark.parametrize("data", list(SIGNED_DATA))
    def test_value_and_grad_keep_the_unsigned_bits(self, data, options):
        ds = SIGNED_DATA[data]()
        prob, ref = LogisticRegressionProblem(ds, **options), UnsignedLogistic(ds, **options)
        dim, rng = prob.meta.dim, np.random.default_rng(4)
        assert bits(prob.A) == bits(ref.A)
        for K in (None, 1, 2, 17, 33, 64, 100):
            for scale in (1e-3, 1.0, 30.0, 1e3, 1e10, 1e300):
                X = signed_points(dim, K, scale, rng)
                with np.errstate(all="ignore"):
                    expected = ref.value_and_grad(X)
                    assert bits(*prob.value_and_grad(X)) == bits(*expected), (K, scale)
                    if K is None:
                        assert bits(prob.value(X), prob.grad(X)) == bits(*expected)

    @pytest.mark.parametrize("options", SIGNED_OPTIONS, ids=["plain", "ridge", "intercept",
                                                             "normalized"])
    @pytest.mark.parametrize("data", list(SIGNED_DATA))
    def test_sample_oracles_variance_and_L_keep_the_unsigned_bits(self, data, options):
        ds = SIGNED_DATA[data]()
        prob, ref = LogisticRegressionProblem(ds, **options), UnsignedLogistic(ds, **options)
        assert prob.meta.L == ref.L()
        assert prob.meta.sigma_sq == ref.variance_at(np.zeros(prob.meta.dim))
        rng = np.random.default_rng(6)
        for scale in (1e-3, 1.0, 1e3, 1e300):
            x = scale * rng.normal(size=prob.meta.dim)
            with np.errstate(all="ignore"):
                assert prob.variance_at(x) == ref.variance_at(x)
                for seed in range(3):
                    assert bits(prob.sample_grad(x, np.random.default_rng(seed))) == bits(
                        ref.sample_grad(x, np.random.default_rng(seed)))
                    assert bits(prob.sample_grads(x, np.random.default_rng(seed), 9)) == bits(
                        ref.sample_grads(x, np.random.default_rng(seed), 9))

    def test_shrinking_and_growing_stacks_match_fresh_problems(self):
        ds = SIGNED_DATA["bundled"]()
        prob, rng = LogisticRegressionProblem(ds, lam=0.01), np.random.default_rng(8)
        for K in (33, 2, 100, None, 1, 64, 17, 100, None, 5):
            X = signed_points(prob.meta.dim, K, 3.0, rng)
            with np.errstate(all="ignore"):
                fresh = LogisticRegressionProblem(ds, lam=0.01).value_and_grad(X)
                assert bits(*prob.value_and_grad(X)) == bits(*fresh), K

    def test_results_share_no_memory_with_the_buffer(self):
        prob = bundled_logistic()
        X = np.random.default_rng(9).normal(size=(33, prob.meta.dim))
        expected = bits(*prob.value_and_grad(X))
        for Y in (X, X[0], X[:4]):
            f, G = prob.value_and_grad(Y)
            buffers = prob.__dict__["_scratch"]
            assert not any(np.shares_memory(a, b) for a in (f, G) for b in buffers)
            # writing into the results leaves the next call's results alone
            np.asarray(f)[...] = G[...] = 7.0
        assert bits(*prob.value_and_grad(X)) == expected

    def test_call_made_inside_a_call_is_correct(self):
        class Nesting(LogisticRegressionProblem):
            """Makes one value_and_grad call from inside the next call, at
            its first read of the ridge weight, while the outer call holds
            its sigmoids in the buffer."""

            inner = None

            @property
            def lam(self):
                X, self.inner = self.inner, None
                if X is not None:
                    self.nested = self.value_and_grad(X)
                return self._lam

            @lam.setter
            def lam(self, value):
                self._lam = value

        ds = SIGNED_DATA["bundled"]()
        prob, plain = Nesting(ds, lam=0.01), LogisticRegressionProblem(ds, lam=0.01)
        rng = np.random.default_rng(10)
        X, Y = rng.normal(size=(18, prob.meta.dim)), rng.normal(size=(33, prob.meta.dim))
        prob.value_and_grad(X)
        for outer, inner in ((X, Y), (Y, X), (X[0], Y), (X, Y[0])):
            prob.inner = inner
            assert bits(*prob.value_and_grad(outer)) == bits(*plain.value_and_grad(outer))
            assert bits(*prob.nested) == bits(*plain.value_and_grad(inner))

    def test_threads_sharing_one_problem_get_correct_results(self):
        # numpy drops the GIL inside its loops and BLAS, so the calls overlap;
        # a thread that finds the buffer taken must allocate its own
        prob = bundled_logistic(lam=0.01)
        rng = np.random.default_rng(12)
        stacks = [rng.normal(size=(K, prob.meta.dim)) for K in (1, 18, 33, 64)]
        expected = [bits(*bundled_logistic(lam=0.01).value_and_grad(X)) for X in stacks]
        wrong = []

        def work(offset):
            for i in range(40):
                j = (i + offset) % len(stacks)
                if bits(*prob.value_and_grad(stacks[j])) != expected[j]:
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_keep_the_bits(self, how):
        prob = bundled_logistic(lam=0.01)
        X = np.random.default_rng(11).normal(size=(33, prob.meta.dim))
        expected = bits(*prob.value_and_grad(X))
        twin = copy.deepcopy(prob) if how == "deepcopy" else pickle.loads(pickle.dumps(prob))
        assert bits(twin.Z, twin.A, twin.y) == bits(prob.Z, prob.A, prob.y)
        for Y in (X, X[:3], X[0]):
            assert bits(*twin.value_and_grad(Y)) == bits(*prob.value_and_grad(Y))
        assert bits(*twin.value_and_grad(X)) == expected


@pytest.mark.parametrize("name,factory", ALL_PROBLEMS)
def test_gradient_matches_finite_differences(name, factory):
    problem = factory()
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.normal(size=problem.meta.dim)
        exact = problem.grad(x)
        approx = finite_difference_grad(problem, x)
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
        assert rel <= 1e-5, f"{name}: rel error {rel}"


@pytest.mark.parametrize(
    "factory,n_draws",
    [
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), 1_000_000),
        (lambda: ChiSquareQuadratic(dim=5, L=0.1), 200_000),
        (small_logistic, 200_000),
    ],
)
def test_sample_grad_unbiased(factory, n_draws):
    # Monte-Carlo mean within 4 standard errors of the exact gradient
    problem = factory()
    rng = np.random.default_rng(7)
    x = np.full(problem.meta.dim, 0.3)
    total = np.zeros(problem.meta.dim)
    for _ in range(n_draws):
        total += problem.sample_grad(x, rng)
    mean = total / n_draws
    tol = 4.0 * math.sqrt(problem.meta.sigma_sq / n_draws)
    assert np.linalg.norm(mean - problem.grad(x)) <= tol


@pytest.mark.parametrize(
    "name,factory",
    [
        ("bernoulli", lambda: BernoulliShiftQuadratic(a=4.0, p=0.25)),
        ("chi_square", lambda: ChiSquareQuadratic(dim=5, L=0.1)),
    ],
)
def test_variance_within_bound_synthetic(name, factory):
    # empirical variance at random points stays within 1.05 * sigma_sq;
    # for these problems variance_at equals the bound exactly
    problem = factory()
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=problem.meta.dim)
        draws_rng = np.random.default_rng(rng.integers(2**63))
        g = problem.grad(x)
        sq = 0.0
        n = 20_000
        for _ in range(n):
            d = problem.sample_grad(x, draws_rng) - g
            sq += float(d @ d)
        assert sq / n <= 1.05 * problem.meta.sigma_sq
        assert problem.variance_at(x) == pytest.approx(problem.meta.sigma_sq, rel=1e-12)


def test_logistic_sigma_sq_is_origin_estimate():
    # meta.sigma_sq for the logistic loss is the exhaustive variance at the
    # origin, not a global bound
    prob = small_logistic()
    assert prob.meta.sigma_sq == prob.variance_at(np.zeros(prob.meta.dim))
    assert Quadratic(dim=2).variance_at(np.ones(2)) == 0.0


@pytest.mark.parametrize("factory", [
    lambda: Quadratic(dim=3), lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
    lambda: ChiSquareQuadratic(dim=3), small_logistic,
], ids=["quadratic", "bernoulli", "chi_square", "logistic"])
def test_variance_at_checks_its_point(factory):
    # a point of another dimension, or a stack of points, is the oracles'
    # ValueError, not a variance
    prob = factory()
    dim = prob.meta.dim
    for bad in (np.zeros(dim + 2), np.zeros((2, dim))):
        with pytest.raises(ValueError, match=f"problem dimension is {dim}$"):
            prob.variance_at(bad)
    assert prob.variance_at(np.zeros(dim)) == prob.meta.sigma_sq


def test_bundled_recipe_matches_generator():
    ds = synthesize_logistic_dataset(n=40, dim=12, nnz=4, seed=3)
    again = synthesize_logistic_dataset(n=40, dim=12, nnz=4, seed=3)
    assert ds == again
    assert ds.n == 40 and ds.dim == 12


def bundled_logistic(lam=0.0):
    return LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()), lam=lam)


BATCH_PROBLEMS = ALL_PROBLEMS + [
    ("bundled_logistic", bundled_logistic),
    ("bundled_logistic_ridge", lambda: bundled_logistic(lam=0.01)),
    ("chi_square_d1", lambda: ChiSquareQuadratic(dim=1, L=0.1)),
]


class OneCallOnly(Problem):
    """A custom problem that defines only value, grad and sample_grad, by
    delegating to a shipped one; the batch oracles are the base defaults."""

    def __init__(self, inner):
        self.inner = inner
        self.meta = inner.meta

    def value(self, x):
        return self.inner.value(x)

    def grad(self, x):
        return self.inner.grad(x)

    def sample_grad(self, x, rng):
        return self.inner.sample_grad(x, rng)


class VectorOracle(Problem):
    """A custom problem that defines only the exact oracle, for a point or a
    stack: ``f(x) = norm(x)^2 / 2`` in two dimensions."""

    meta = ProblemMeta(dim=2, L0=1.0, L1=0.0, L=1.0, mu=1.0, sigma_sq=0.0)

    def value_and_grad(self, X):
        return 0.5 * np.vecdot(X, X), X.copy()


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestBatchOracles:
    """sample_grads and value_and_grad against the one-call oracles, bit for bit."""

    @pytest.mark.parametrize("name,factory", BATCH_PROBLEMS, ids=[n for n, _ in BATCH_PROBLEMS])
    @pytest.mark.parametrize("make_rng", [np.random.default_rng, philox], ids=["pcg64", "philox"])
    def test_sample_grads_equal_successive_draws(self, name, factory, make_rng):
        prob = factory()
        point_rng = np.random.default_rng(1)
        for k in (1, 2, 7, 64):
            x = point_rng.normal(size=prob.meta.dim)
            batch = prob.sample_grads(x, make_rng(k), k)
            rng = make_rng(k)
            one_at_a_time = np.stack([prob.sample_grad(x, rng) for _ in range(k)])
            assert batch.shape == (k, prob.meta.dim)
            assert np.array_equal(batch, one_at_a_time), (name, k)

    @pytest.mark.parametrize("name,factory", BATCH_PROBLEMS, ids=[n for n, _ in BATCH_PROBLEMS])
    def test_sample_grads_continue_the_stream(self, name, factory):
        # two chunks draw exactly what one batch of their total size draws
        prob = factory()
        x = np.random.default_rng(2).normal(size=prob.meta.dim)
        rng = np.random.default_rng(3)
        chunked = np.vstack([prob.sample_grads(x, rng, 5), prob.sample_grads(x, rng, 11)])
        assert np.array_equal(chunked, prob.sample_grads(x, np.random.default_rng(3), 16))

    @pytest.mark.parametrize("name,factory", [
        ("bernoulli", lambda: BernoulliShiftQuadratic(a=4.0, p=0.25)),
        ("chi_square", lambda: ChiSquareQuadratic(dim=5, L=0.1)),
    ], ids=["bernoulli", "chi_square"])
    def test_draws_hook_gives_the_samples(self, name, factory):
        # sample_grads(x, rng, k) is sample_grad_at(x, draws(rng, k)); one row
        # of draws is sample_grad's draw, and a stack's rows are their points'
        prob = factory()
        point_rng = np.random.default_rng(5)
        for k in (1, 3, 16):
            x = point_rng.normal(size=prob.meta.dim)
            D = prob.draws(np.random.default_rng(k), k)
            assert D.shape[0] == k
            assert (prob.sample_grad_at(x, D).tobytes()
                    == prob.sample_grads(x, np.random.default_rng(k), k).tobytes())
            one = prob.sample_grad(x, np.random.default_rng(k))
            assert np.asarray(prob.sample_grad_at(x, D[0])).tobytes() == one.tobytes()
            X = point_rng.normal(size=(k, prob.meta.dim))
            rows = prob.sample_grad_at(X, D)
            for row, point, d in zip(rows, X, D):
                assert row.tobytes() == np.asarray(prob.sample_grad_at(point, d)).tobytes()

    def test_only_hooked_problems_define_draws(self):
        # the Bernoulli shift's draws are the base class's uniforms, which a
        # run serves from Philox blocks; the other shipped problems have no hook
        assert BernoulliShiftQuadratic.draws is Problem.uniforms
        assert ChiSquareQuadratic.draws is not Problem.uniforms
        for cls in (Problem, Quadratic, LogisticRegressionProblem):
            assert cls.draws is None and cls.sample_grad_at is None
        assert Problem.uniforms(None, np.random.default_rng(2), 4).tobytes() == (
            np.random.default_rng(2).random(4).tobytes())

    @pytest.mark.parametrize("name,factory", BATCH_PROBLEMS, ids=[n for n, _ in BATCH_PROBLEMS])
    def test_value_and_grad_equals_value_grad(self, name, factory):
        prob = factory()
        rng = np.random.default_rng(4)
        for scale in (0.0, 1e-3, 1.0, 30.0, 1e4):
            x = rng.normal(size=prob.meta.dim) * scale
            f, g = prob.value_and_grad(x)
            # a Python float: the repr of an np.float64 would reach the
            # CLI's reports and messages as np.float64(...)
            assert f == prob.value(x) and type(prob.value(x)) is float
            assert np.array_equal(g, prob.grad(x))

    @pytest.mark.parametrize("name,factory", BATCH_PROBLEMS, ids=[n for n, _ in BATCH_PROBLEMS])
    def test_value_and_grad_stack_equals_value_and_grad_per_row(self, name, factory):
        prob = factory()
        rng = np.random.default_rng(7)
        for K in (1, 2, 5, 33):
            scales = 10.0 ** rng.uniform(-3, 4, size=(K, 1))
            X = rng.normal(size=(K, prob.meta.dim)) * scales
            X[0] = 0.0
            for rows in (X, X[1::2]):  # and a subset, as after rows drop out
                if not rows.shape[0]:
                    continue
                f, G = prob.value_and_grad(rows)
                assert f.shape == (rows.shape[0],) and G.shape == rows.shape
                for i, x in enumerate(rows):
                    fi, gi = prob.value_and_grad(x)
                    assert np.float64(f[i]).tobytes() == np.float64(fi).tobytes(), (name, K, i)
                    assert G[i].tobytes() == gi.tobytes(), (name, K, i)

    def test_bernoulli_rows_keep_libm_pow(self):
        # float ** 2 and x * x differ in the last bit on some points; a
        # stack must give each point's bits on all of them
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        X = np.random.default_rng(8).normal(size=(20_000, 1)) * 100.0
        f, _ = prob.value_and_grad(X)
        expected = np.array([prob.value_and_grad(x)[0] for x in X])
        assert f.tobytes() == expected.tobytes()

    def test_bernoulli_float_oracles_match_one_element_arrays(self):
        # a single one-dimensional run hands a problem with float oracles its
        # iterate as a Python float: each result is a float with the bits of
        # the one coordinate of the call at np.array([v]); the pow overflow
        # at -1e308 gives f = inf
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        assert prob.float_oracles and not Problem.float_oracles
        rng = np.random.default_rng(13)
        points = (rng.normal(size=500) * 10.0 ** rng.uniform(-8, 8, size=500)).tolist()
        points += [0.0, -0.0, 5e-324, 1e200, -1e308]
        for seed, v in enumerate(points):
            f, g = prob.value_and_grad(v)
            f_array, g_array = prob.value_and_grad(np.array([v]))
            assert type(f) is float and type(g) is float
            assert np.float64(f).tobytes() == np.float64(f_array).tobytes(), v
            assert np.float64(g).tobytes() == g_array.tobytes(), v
            u = prob.sample_grad(v, philox(seed))
            assert type(u) is float
            assert np.float64(u).tobytes() == prob.sample_grad(np.array([v]),
                                                               philox(seed)).tobytes(), v
        assert prob.value_and_grad(-1e308)[0] == math.inf
        # both outcomes of the draw were met
        assert len({prob.sample_grad(1.0, philox(seed)) for seed in range(len(points))}) == 2

    def test_base_class_defaults(self):
        inner = ChiSquareQuadratic(dim=4, L=0.3)
        prob = OneCallOnly(inner)
        x = np.array([0.5, -1.0, 2.0, 0.0])
        f, g = prob.value_and_grad(x)
        assert f == inner.value(x) and np.array_equal(g, inner.grad(x))
        X = np.vstack([x, -2.0 * x, np.zeros(4)])
        f_rows, G_rows = prob.value_and_grad(X)
        assert f_rows.dtype == float and G_rows.shape == (3, 4)
        assert np.array_equal(f_rows, [inner.value(r) for r in X])
        assert np.array_equal(G_rows, [inner.grad(r) for r in X])
        assert np.array_equal(
            prob.sample_grads(x, np.random.default_rng(9), 6),
            inner.sample_grads(x, np.random.default_rng(9), 6),
        )

    def test_value_and_grad_alone_is_enough(self):
        # value and grad are check_dim plus the subclass's value_and_grad,
        # which also serves stacks
        prob = VectorOracle()
        x = np.array([3.0, -4.0])
        assert prob.value(x) == 12.5 and type(prob.value(x)) is float
        assert np.array_equal(prob.grad([3, -4]), x)
        for call in (prob.value, prob.grad):
            for bad in (np.ones(3), np.ones((2, 2))):
                with pytest.raises(ValueError, match="problem dimension is 2"):
                    call(bad)
        f, G = prob.value_and_grad(np.vstack([x, -2.0 * x, np.zeros(2)]))
        assert f.tolist() == [12.5, 50.0, 0.0]
        assert np.array_equal(G, [x, -2.0 * x, np.zeros(2)])

    def test_no_exact_oracle_is_not_implemented(self):
        # the base value, grad and value_and_grad are defined by one another:
        # a subclass that defines none of them must not recurse forever
        class NoOracle(Problem):
            meta = VectorOracle.meta

        class ValueOnly(NoOracle):
            def value(self, x):
                return 0.0

        x = np.zeros(2)
        for call in (NoOracle().value, NoOracle().grad, NoOracle().value_and_grad,
                     ValueOnly().grad, ValueOnly().value_and_grad):
            with pytest.raises(NotImplementedError, match="defines neither value_and_grad"):
                call(x)

    def test_logistic_sample_grads_rows_are_row_gradients(self):
        prob = small_logistic()
        x = np.random.default_rng(5).normal(size=prob.meta.dim)
        rows = {tuple(prob.sample_grad(x, np.random.default_rng(s))) for s in range(200)}
        for g in prob.sample_grads(x, np.random.default_rng(6), 50):
            assert tuple(g) in rows
