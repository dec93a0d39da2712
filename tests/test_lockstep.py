"""The lockstep engine (``run`` on a ``Cells`` batch) against the single-run
reference engine, bit for bit on every recorded array, the final point,
the largest per-sample norm and the divergence outcome."""

import functools
import math

import numpy as np
import pytest

from clipbench.data_ingest import bundled_dataset_path, parse_libsvm
from clipbench.optimizers import Cells, DivergenceError, RunConfig, run
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    ProblemMeta,
    Quadratic,
)


@functools.lru_cache(maxsize=None)
def bundled_logistic():
    return LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()))


class NoisyQuadratic(Problem):
    """A custom problem with only ``value``, ``grad`` and ``sample_grad``:
    ``f(x) = norm(x)^2 / 2`` with standard normal gradient noise. Every
    batch oracle comes from the base class."""

    def __init__(self, dim=3):
        self.meta = ProblemMeta(dim=dim, L0=1.0, L1=0.0, L=1.0, mu=1.0, sigma_sq=float(dim))

    def value(self, x):
        return 0.5 * float(x @ x)

    def grad(self, x):
        return x.copy()

    def sample_grad(self, x, rng):
        return x + rng.standard_normal(x.size)


PROBLEMS = {
    "quadratic": lambda: Quadratic(dim=3, L=1.0),
    "bernoulli": lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
    "chi_square": lambda: ChiSquareQuadratic(dim=6, L=0.1),
    "logistic": bundled_logistic,
    "custom": NoisyQuadratic,
}

# (method, B, sigma_dp)
METHODS = [
    ("gd", 1, 0.0),
    ("clipped_gd", 1, 0.0),
    ("sgd", 1, 0.0),
    ("sgd", 3, 0.0),
    ("clipped_sgd", 1, 0.0),
    ("clipped_sgd", 4, 0.0),
    ("dp_sgd", 1, 0.5),
    ("dp_sgd", 5, 0.7),
]


def single(problem, config):
    """The reference: one run, as (trace, diverged)."""
    try:
        return run(problem, config), False
    except DivergenceError as exc:
        return exc.trace, True


def assert_same(got, want):
    (trace, diverged), (ref, ref_diverged) = got, want
    assert diverged == ref_diverged
    for name in ("iters", "f_vals", "grad_norms", "applied_norms", "clipped_fracs",
                 "final_point"):
        a, b = getattr(trace, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert np.float64(trace.max_per_sample_norm).tobytes() == \
        np.float64(ref.max_per_sample_norm).tobytes()
    assert trace.config is ref.config


def grid(problem, method, B, sigma_dp, T, thin, etas=(0.01, 0.2), seeds=(1, 2), x0s=None):
    dim = problem.meta.dim
    clipped = method not in ("gd", "sgd")
    cs = (0.05, 3.0) if clipped else (math.inf,)
    x0s = x0s or [np.linspace(0.5, 2.0, dim) * s for s in seeds]
    return [
        RunConfig(method=method, c=c, eta=eta, T=T, x0=x0, B=B, sigma_dp=sigma_dp,
                  seed=seed, thin=thin)
        for c in cs for eta in etas for seed, x0 in zip(seeds, x0s)
    ]


class TestLockstepMatchesSingleRuns:
    @pytest.mark.parametrize("T,thin", [(25, 1), (25, 4), (0, 1)],
                             ids=["every_step", "thinned", "no_steps"])
    @pytest.mark.parametrize("method,B,sigma_dp", METHODS,
                             ids=[f"{m}_B{b}" for m, b, _ in METHODS])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_every_cell_bit_identical(self, name, method, B, sigma_dp, T, thin):
        problem = PROBLEMS[name]()
        configs = grid(problem, method, B, sigma_dp, T, thin)
        results = run(problem, Cells(configs))
        assert len(results) == len(configs)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    @pytest.mark.parametrize("method,B", [("gd", 1), ("sgd", 1), ("sgd", 3)])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_diverging_cells_leave_the_others_untouched(self, name, method, B):
        problem = PROBLEMS[name]()
        dim = problem.meta.dim
        # eta = 3 (and 30 on the flat chi-square) blows the quadratics up
        # geometrically; eta = 1e14 carries any iterate past the guard in a
        # step; a start at 1e13 trips it at t = 0
        etas = (0.05, 3.0, 30.0, 1e14)
        x0s = [np.full(dim, 0.5), np.full(dim, 1e13), np.full(dim, -0.25)]
        configs = grid(problem, method, B, 0.0, 60, 1, etas=etas, seeds=(1, 2, 3), x0s=x0s)
        results = run(problem, Cells(configs))
        diverged_at = [int(t.iters.size) for t, d in results if d]
        assert 0 in diverged_at  # the far start
        assert any(0 < k < 61 for k in diverged_at)  # mid-run
        assert any(not d for _, d in results)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    @pytest.mark.parametrize("method", ["sgd", "clipped_sgd"])
    @pytest.mark.parametrize("B", [1, 3])
    def test_nan_sample_gradient_reaches_the_guard_alike(self, B, method):
        # a custom oracle's NaN draw is clipped to NaN as clip_vector does
        # (under c = inf too), counted as clipped, and trips the guard at
        # the next step; the finite rows beside it keep their bits
        class NanDraws(NoisyQuadratic):
            def sample_grad(self, x, rng):
                g = x + rng.standard_normal(x.size)
                if rng.random() < 0.1:
                    g[1] = math.nan
                return g

        problem = NanDraws()
        configs = grid(problem, method, B, 0.0, 40, 1, seeds=(1, 2, 3, 4))
        results = run(problem, Cells(configs))
        assert all(d for _, d in results)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    def test_all_cells_diverge(self):
        problem = Quadratic(dim=2)
        configs = [RunConfig(method="gd", c=math.inf, eta=eta, T=500, x0=np.ones(2))
                   for eta in (2.5, 3.0, 4.0)]
        results = run(problem, Cells(configs))
        assert all(d for _, d in results)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    def test_results_in_input_order(self):
        problem = BernoulliShiftQuadratic(a=4.0, p=0.25)
        configs = [RunConfig(method="clipped_sgd", c=c, eta=0.05, T=40, x0=np.ones(1), seed=s)
                   for c, s in ((2.0, 9), (0.5, 1), (1.0, 4))]
        results = run(problem, Cells(configs))
        assert [t.config for t, _ in results] == configs


class TestCells:
    def config(self, **kw):
        base = dict(method="clipped_sgd", c=1.0, eta=0.1, T=10, x0=np.zeros(2), B=2, seed=0)
        base.update(kw)
        return RunConfig(**base)

    def test_shared_budget_and_length(self):
        cells = Cells([self.config(seed=1), self.config(c=2.0, eta=0.5, x0=np.ones(2))])
        assert cells.T == 10 and len(cells.configs) == 2
        assert isinstance(cells.configs, tuple)
        with pytest.raises(AttributeError):
            cells.configs = ()

    @pytest.mark.parametrize("change", [
        dict(method="sgd", c=math.inf), dict(T=11), dict(B=3), dict(thin=2),
        dict(sigma_dp=0.5), dict(x0=np.zeros(3)),
    ], ids=["method", "T", "B", "thin", "sigma_dp", "dimension"])
    def test_cells_must_share_everything_but_c_eta_seed_x0(self, change):
        with pytest.raises(ValueError):
            Cells([self.config(method="dp_sgd"), self.config(**{"method": "dp_sgd", **change})])

    def test_rejects_empty_and_non_configs(self):
        with pytest.raises(ValueError):
            Cells([])
        with pytest.raises(TypeError):
            Cells([self.config(), "not a config"])

    def test_dimension_checked_against_problem(self):
        with pytest.raises(ValueError):
            run(Quadratic(dim=3), Cells([self.config()]))
