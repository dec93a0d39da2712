import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench.data_ingest import parse_libsvm, synthesize_logistic_dataset
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    ProblemMeta,
    Quadratic,
)


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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BernoulliShiftQuadratic(a=-1.0, p=0.25)
        with pytest.raises(ValueError):
            BernoulliShiftQuadratic(a=1.0, p=0.5)


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

    def test_noise_is_chi_squared(self):
        # each noise coordinate is the square of one standard normal
        prob = ChiSquareQuadratic(dim=4, L=0.5)
        rng = np.random.default_rng(1)
        x = np.ones(4)
        noise = np.array([prob.sample_grad(x, rng) - prob.grad(x) + 1.0 for _ in range(4000)])
        assert (noise >= 0).all()
        assert noise.mean() == pytest.approx(1.0, abs=0.05)


class TestLogistic:
    @pytest.mark.parametrize("options", [{}, {"add_intercept": True}, {"normalize_rows": True}])
    def test_feature_matrix_is_aligned_and_alignment_keeps_bits(self, options):
        ds = synthesize_logistic_dataset(n=37, dim=11, seed=3)
        prob = LogisticRegressionProblem(ds, **options)
        assert prob.A.ctypes.data % 64 == 0 and prob.A.flags.c_contiguous
        X = np.random.default_rng(2).normal(size=(5, prob.meta.dim))
        f, G = prob.value_and_grad(X)
        for offset in (8, 16, 24, 32, 48):
            # the same matrix at every other 8-byte offset from a 64-byte boundary
            buf = np.empty(prob.A.nbytes + 128, dtype=np.uint8)
            start = -buf.ctypes.data % 64 + offset
            A = buf[start:start + prob.A.nbytes].view(np.float64).reshape(prob.A.shape)
            A[...] = prob.A
            prob.A = A
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


def test_bundled_recipe_matches_generator():
    ds = synthesize_logistic_dataset(n=40, dim=12, nnz=4, seed=3)
    again = synthesize_logistic_dataset(n=40, dim=12, nnz=4, seed=3)
    assert ds == again
    assert ds.n == 40 and ds.dim == 12


def bundled_logistic(lam=0.0):
    from clipbench.data_ingest import bundled_dataset_path

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
