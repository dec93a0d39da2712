"""``run`` on a ``Cells`` batch against ``run`` on each of its
configurations alone, bit for bit on every recorded array, the final point,
the largest per-sample norm and the divergence outcome.

The step loop holds a batch of K > 1 cells as a row stack and a single run
(K = 1) as a float or a vector, so these tests compare the K > 1 and K = 1
representations of one loop; a one-cell batch takes the K = 1 path, and
the tests that take a ``batch`` parameter check that it matches too.
"""

import functools
import math

import numpy as np
import pytest

from clipbench import optimizers
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


class StackOracle(Problem):
    """A custom problem that defines its exact oracle once, as a
    ``value_and_grad`` that takes a point or a stack of points, beside
    ``sample_grad``: the formulas of ``NoisyQuadratic``."""

    __init__ = NoisyQuadratic.__init__
    sample_grad = NoisyQuadratic.sample_grad

    def value_and_grad(self, X):
        return 0.5 * np.vecdot(X, X), X.copy()


class MixedDraws(NoisyQuadratic):
    """A custom problem that mixes draws in a step: a first scalar
    ``random()``, as a Bernoulli sample's, then normals and integers. It
    defines no ``sample_grad_at``, so it always takes the counter reset."""

    def sample_grad(self, x, rng):
        u = rng.random()
        g = x + u * rng.standard_normal(x.size)
        g[int(rng.integers(x.size))] += rng.random()
        return g


PROBLEMS = {
    "quadratic": lambda: Quadratic(dim=3, L=1.0),
    "bernoulli": lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
    "chi_square": lambda: ChiSquareQuadratic(dim=6, L=0.1),
    "logistic": bundled_logistic,
    "custom": NoisyQuadratic,
    "stack_oracle": StackOracle,
    "mixed_draws": MixedDraws,
    # a one-dimensional single run steps on Python floats, and the lockstep
    # engine on (cells, 1) arrays
    "quadratic_1d": lambda: Quadratic(dim=1, L=1.0),
    "chi_square_1d": lambda: ChiSquareQuadratic(dim=1, L=0.1),
    "custom_1d": lambda: NoisyQuadratic(dim=1),
    "mixed_draws_1d": lambda: MixedDraws(dim=1),
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


# how `batched` runs a list of configurations: as one lockstep batch, or
# each as a one-cell batch
BATCHES = ["lockstep", "one_cell"]


def batched(problem, configs, batch):
    if batch == "lockstep":
        return run(problem, Cells(configs))
    return [run(problem, Cells([config]))[0] for config in configs]


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


def diverging_grid(problem, method, B, sigma_dp):
    # eta = 3 (and 30 on the flat chi-square) blows the quadratics up
    # geometrically; eta = 1e14 carries any iterate past the guard in a
    # step, clipped or not; a start at 1e13 trips it at t = 0
    dim = problem.meta.dim
    etas = (0.05, 3.0, 30.0, 1e14)
    x0s = [np.full(dim, 0.5), np.full(dim, 1e13), np.full(dim, -0.25)]
    return grid(problem, method, B, sigma_dp, 60, 1, etas=etas, seeds=(1, 2, 3), x0s=x0s)


# how a served run's blocks fall on its steps, as (T, steps per block):
# below the shortest served T, so no block; at it, with the shipped
# `_CHUNK` (None), one block cut to T steps; blocks that end on the last
# step; a short last block; one step per block
SERVED_BLOCKS = {
    "short": (optimizers._WARMUP - 1, None),
    "one_block": (optimizers._WARMUP, None),
    "exact": (30, 6),
    "ragged": (30, 7),
    "one_step": (12, 1),
}

# seeds below 2**63, and past 2**63 and 2**64, which the block and the
# counter reset both reduce mod 2**64
SERVED_KEYS = {"small": (1, 2), "large": (2**63 + 7, 2**64 + 5)}


def assert_diverged_spread(results):
    diverged_at = [int(t.iters.size) for t, d in results if d]
    assert 0 in diverged_at  # the far start
    assert any(0 < k < 61 for k in diverged_at)  # mid-run
    assert any(not d for _, d in results)


class TestLockstepMatchesSingleRuns:
    @pytest.mark.parametrize("T,thin", [(25, 1), (25, 4), (0, 1)],
                             ids=["every_step", "thinned", "no_steps"])
    @pytest.mark.parametrize("method,B,sigma_dp", METHODS,
                             ids=[f"{m}_B{b}" for m, b, _ in METHODS])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_every_cell_bit_identical(self, batch, name, method, B, sigma_dp, T, thin):
        problem = PROBLEMS[name]()
        configs = grid(problem, method, B, sigma_dp, T, thin)
        results = batched(problem, configs, batch)
        assert len(results) == len(configs)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    @pytest.mark.parametrize("method,B,sigma_dp", [
        ("sgd", 1, 0.0), ("clipped_sgd", 3, 0.0), ("dp_sgd", 1, 0.5),
    ], ids=["sgd_B1", "clipped_sgd_B3", "dp_sgd_B1"])
    @pytest.mark.parametrize("name", ["bernoulli", "mixed_draws", "mixed_draws_1d"])
    def test_served_first_draws_match_the_reset(self, monkeypatch, name, method, B, sigma_dp):
        # with every run served that can be (Bernoulli at B = 1), against
        # single runs that take the counter reset
        problem = PROBLEMS[name]()
        configs = grid(problem, method, B, sigma_dp, 300, 1)
        monkeypatch.setattr(optimizers, "_WARMUP", 10**9)
        reference = [single(problem, config) for config in configs]
        monkeypatch.setattr(optimizers, "_WARMUP", 0)
        for config, want in zip(configs, reference):
            assert_same(single(problem, config), want)
        for got, want in zip(run(problem, Cells(configs)), reference):
            assert_same(got, want)

    @pytest.mark.parametrize("method,B,sigma_dp", METHODS,
                             ids=[f"{m}_B{b}" for m, b, _ in METHODS])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_diverging_cells_leave_the_others_untouched(self, batch, name, method, B, sigma_dp):
        problem = PROBLEMS[name]()
        configs = diverging_grid(problem, method, B, sigma_dp)
        results = batched(problem, configs, batch)
        assert_diverged_spread(results)
        for config, got in zip(configs, results):
            assert_same(got, single(problem, config))

    @pytest.mark.parametrize("method,B,sigma_dp", [
        ("sgd", 1, 0.0), ("clipped_sgd", 1, 0.0), ("dp_sgd", 1, 0.5),
    ], ids=["sgd_B1", "clipped_sgd_B1", "dp_sgd_B1"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_served_cells_diverge_across_block_refills(self, monkeypatch, batch, method, B,
                                                      sigma_dp):
        # Bernoulli cells served from blocks of 7 steps while cells drop out:
        # every row left must read its own cell's uniforms after each refill,
        # against single runs that take the counter reset
        problem = PROBLEMS["bernoulli"]()
        configs = diverging_grid(problem, method, B, sigma_dp)
        monkeypatch.setattr(optimizers, "_WARMUP", 10**9)
        reference = [single(problem, config) for config in configs]
        monkeypatch.setattr(optimizers, "_WARMUP", 0)
        # a block holds _CHUNK // K steps of K cells
        monkeypatch.setattr(optimizers, "_CHUNK", 7 * len(configs) if batch == "lockstep" else 7)
        results = batched(problem, configs, batch)
        assert_diverged_spread(results)
        for got, want in zip(results, reference):
            assert_same(got, want)

    @pytest.mark.parametrize("keys", list(SERVED_KEYS))
    @pytest.mark.parametrize("blocks", list(SERVED_BLOCKS))
    @pytest.mark.parametrize("method,B,sigma_dp", [
        ("sgd", 1, 0.0), ("clipped_sgd", 1, 0.0), ("dp_sgd", 1, 0.5),
    ], ids=["sgd_B1", "clipped_sgd_B1", "dp_sgd_B1"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_served_blocks_match_the_reset(self, monkeypatch, batch, method, B, sigma_dp,
                                           blocks, keys):
        # Bernoulli runs however their blocks fall on the steps, against
        # single runs that take the counter reset; the count of blocks
        # computed shows each run took the shape it names
        problem = PROBLEMS["bernoulli"]()
        T, steps = SERVED_BLOCKS[blocks]
        seeds = SERVED_KEYS[keys]
        configs = grid(problem, method, B, sigma_dp, T, 1, seeds=seeds,
                       x0s=[np.array([1.5]), np.array([-0.75])])
        warmup = optimizers._WARMUP
        monkeypatch.setattr(optimizers, "_WARMUP", 10**9)
        reference = [single(problem, config) for config in configs]
        # a block holds _CHUNK // K steps of K cells
        K = len(configs) if batch == "lockstep" else 1
        if steps is None:
            monkeypatch.setattr(optimizers, "_WARMUP", warmup)
            served, steps = T >= warmup, optimizers._CHUNK // K
        else:
            monkeypatch.setattr(optimizers, "_WARMUP", 0)
            monkeypatch.setattr(optimizers, "_CHUNK", steps * K)
            served = True
        computed = []
        philox = optimizers._philox_uniforms
        monkeypatch.setattr(optimizers, "_philox_uniforms", lambda keys, start, n, lane: (
            computed.append(start) or philox(keys, start, n, lane)))
        results = batched(problem, configs, batch)
        starts = list(range(0, T, steps)) if served else []
        assert computed == starts * (len(configs) // K)
        for got, want in zip(results, reference):
            assert_same(got, want)

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

    @pytest.mark.parametrize("method,B", [("sgd", 1), ("clipped_sgd", 1), ("sgd", 3)])
    def test_signed_zero_start(self, method, B):
        # on the quadratic a -0.0 coordinate draws a -0.0 gradient component,
        # and x - eta * g leaves -0.0 there only if that component is +0.0:
        # the lockstep sum of a cell's samples must keep the sign of zero
        problem = Quadratic(dim=3, L=1.0)
        x0s = [np.array([-0.0, 1.0, -0.0]), np.array([2.0, -0.0, -0.0])]
        configs = grid(problem, method, B, 0.0, 5, 1, seeds=(1, 2), x0s=x0s)
        for config, got in zip(configs, run(problem, Cells(configs))):
            assert_same(got, single(problem, config))
        assert not np.signbit(single(problem, configs[0])[0].final_point[0])

    @pytest.mark.parametrize("method,B,sigma_dp", METHODS,
                             ids=[f"{m}_B{b}" for m, b, _ in METHODS])
    @pytest.mark.parametrize("name", ["bernoulli", "quadratic_1d", "chi_square_1d",
                                      "custom_1d", "mixed_draws_1d"])
    def test_one_dimensional_signed_zero_start(self, name, method, B, sigma_dp):
        # the float steps of a one-dimensional single run hand back the same
        # (1,) float64 final point as the array engine, the sign of a zero
        # included; a run of no steps returns its -0.0 start as it is
        problem = PROBLEMS[name]()
        x0s = [np.array([-0.0]), np.array([-0.0])]
        configs = grid(problem, method, B, sigma_dp, 6, 1, seeds=(1, 2), x0s=x0s)
        for config, got in zip(configs, run(problem, Cells(configs))):
            want = single(problem, config)
            assert_same(got, want)
            point = want[0].final_point
            assert point.shape == (1,) and point.dtype == np.float64
        still = single(problem, RunConfig(method=method, c=configs[0].c, eta=0.1, T=0,
                                          x0=x0s[0], B=B, sigma_dp=sigma_dp))[0]
        assert still.final_point.dtype == np.float64 and still.final_point.shape == (1,)
        assert np.signbit(still.final_point[0]) and still.final_point[0] == 0.0

    @pytest.mark.parametrize("grad_of", ["identity", "zero"])
    def test_guard_on_a_finite_value_at_a_nan_point(self, grad_of):
        # f stays 0 while a NaN draw makes the iterate NaN. With grad = x the
        # NaN gradient norm trips the guard; with grad = 0 nothing does, as
        # a NaN norm of x is not past the limit: in single runs and here alike
        class FlatValue(NoisyQuadratic):
            def value(self, x):
                return 0.0

            def grad(self, x):
                return x.copy() if grad_of == "identity" else np.zeros_like(x)

            def sample_grad(self, x, rng):
                g = x + rng.standard_normal(x.size)
                if rng.random() < 0.1:
                    g[0] = math.nan
                return g

        problem = FlatValue()
        configs = grid(problem, "sgd", 1, 0.0, 40, 1, seeds=(1, 2, 3, 4))
        results = run(problem, Cells(configs))
        if grad_of == "identity":
            assert all(d for _, d in results)
        else:
            assert not any(d for _, d in results)
            assert any(np.isnan(t.final_point).any() for t, _ in results)
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
