import copy
import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench import core, optimizers
from clipbench.data_ingest import bundled_dataset_path, parse_libsvm

from clipbench.optimizers import (
    DivergenceError,
    RunConfig,
    Trace,
    privacy_noise,
    run,
    run_dp_sgd,
    _philox_uniforms,
    _StepRng,
)
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    Quadratic,
)
from clipbench.theory import build_lower_bound_small_c


def reset_generator(seed, t, lane):
    """A plain numpy generator on the Philox stream of step t: the counter
    reset to (0, 0, t, lane) under the key seed mod 2**64."""
    return np.random.Generator(
        np.random.Philox(counter=[0, 0, t, lane], key=seed % 2**64))


# draws a step may make, by name, for the step-stream tests
STEP_DRAWS = {
    "random": lambda g: g.random(),
    "random5": lambda g: g.random(5),
    "normal": lambda g: g.standard_normal(),
    "integers": lambda g: g.integers(500),
    "raw": lambda g: g.bit_generator.random_raw(),
    "deepcopy": lambda g: copy.deepcopy(g).random(2),
}


def cfg(**kw):
    base = dict(method="gd", c=math.inf, eta=1.0, T=1, x0=np.array([1.0]))
    base.update(kw)
    return RunConfig(**base)


def bundled_logistic():
    return LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()))


def trace_digest(trace):
    """First 16 hex digits of the sha256 of every recorded array, the final
    point and the largest per-sample norm."""
    arrays = (trace.iters, trace.f_vals, trace.grad_norms, trace.applied_norms,
              trace.clipped_fracs, trace.final_point)
    h = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
    h.update(np.float64(trace.max_per_sample_norm).tobytes())
    return h.hexdigest()[:16]


class OneCallOnly(Problem):
    """Delegates value, grad and sample_grad to a shipped problem and keeps
    the base-class batch oracles, as a custom subclass would."""

    def __init__(self, inner):
        self.inner = inner
        self.meta = inner.meta

    def value(self, x):
        return self.inner.value(x)

    def grad(self, x):
        return self.inner.grad(x)

    def sample_grad(self, x, rng):
        return self.inner.sample_grad(x, rng)


class TestRunConfig:
    def test_unclipped_requires_inf(self):
        with pytest.raises(ValueError):
            cfg(method="gd", c=5.0)
        with pytest.raises(ValueError):
            cfg(method="sgd", c=1.0)

    def test_clipped_requires_finite(self):
        with pytest.raises(ValueError):
            cfg(method="clipped_gd", c=math.inf)
        with pytest.raises(ValueError):
            cfg(method="dp_sgd", c=math.inf)

    def test_sigma_dp_only_for_dp(self):
        with pytest.raises(ValueError):
            cfg(method="clipped_sgd", c=1.0, sigma_dp=0.5)
        cfg(method="dp_sgd", c=1.0, sigma_dp=0.5)  # fine

    def test_minibatch_only_for_stochastic(self):
        for method, c in (("gd", math.inf), ("clipped_gd", 1.0)):
            with pytest.raises(ValueError, match=f"^B = 2 is only valid for the stochastic"
                                                 f" methods; {method} steps"):
                cfg(method=method, c=c, B=2)
            cfg(method=method, c=c, B=1)  # fine
        cfg(method="sgd", B=2)  # fine

    def test_misc_validation(self):
        with pytest.raises(ValueError):
            cfg(method="nope")
        with pytest.raises(ValueError):
            cfg(eta=0.0)
        with pytest.raises(ValueError):
            cfg(T=-1)
        with pytest.raises(ValueError):
            cfg(B=0)
        with pytest.raises(ValueError):
            cfg(x0=np.array([np.nan]))

    @pytest.mark.parametrize("name", ["T", "B", "seed", "thin"])
    def test_counts_must_be_integers(self, name):
        for bad in (10.0, 2.0, 1.7, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                cfg(method="sgd", **{name: bad})
        # numpy integers are accepted and stored as Python ints
        config = cfg(method="sgd", **{name: np.int64(3)})
        assert type(getattr(config, name)) is int and getattr(config, name) == 3

    @pytest.mark.parametrize("name", ["c", "eta", "sigma_dp"])
    def test_rates_must_be_real_scalars(self, name):
        for bad in ("1", "0", None, np.array([0.1, 0.2]), np.array(0.5)):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                cfg(**{"method": "dp_sgd", "c": 1.0, name: bad})
        # numpy scalars are accepted and stored as Python floats
        config = cfg(**{"method": "dp_sgd", "c": 1.0, name: np.float32(0.5)})
        assert type(getattr(config, name)) is float and getattr(config, name) == 0.5

    def test_float32_rates_give_one_run_on_both_engines(self):
        # stored as float64, a float32 c and eta cannot put the single run
        # in float32 arithmetic while the lockstep run builds float64 arrays
        problem = Quadratic(dim=3)
        config = cfg(method="clipped_gd", c=np.float32(0.3), eta=np.float32(0.7), T=20,
                     x0=np.array([1.0, -2.0, 0.5]))
        single = run(problem, config)
        [(cell, diverged)] = run(problem, optimizers.Cells([config]))
        assert not diverged
        for name in ("iters", "f_vals", "grad_norms", "applied_norms", "clipped_fracs"):
            assert getattr(single, name).tobytes() == getattr(cell, name).tobytes(), name

    def test_x0_is_frozen_copy(self):
        x0 = np.array([1.0, 2.0])
        config = cfg(x0=x0, T=0)
        x0[0] = 9.0
        assert config.x0[0] == 1.0
        with pytest.raises(ValueError):
            config.x0[0] = 3.0


class TestRunGd:
    def test_unit_quadratic_newton_step(self):
        trace = run(Quadratic(), cfg(eta=1.0, T=1))
        assert trace.final_point[0] == 0.0
        assert list(trace.grad_norms) == [1.0, 0.0]

    def test_clipped_footnote_schedule(self):
        # f(x) = x^2/2 from x0=1 with c=1/4: two clipped unit-direction
        # steps of length 1/4 land exactly on 1/2
        trace = run(Quadratic(), cfg(method="clipped_gd", c=0.25, eta=1.0, T=2))
        assert trace.final_point[0] == 0.5
        assert list(trace.grad_norms) == [1.0, 0.75, 0.5]
        assert list(trace.clipped_fracs) == [1.0, 1.0, 0.0]

    def test_zero_gradient_start_is_constant(self):
        prob = ChiSquareQuadratic(dim=3, L=0.5)
        trace = run(prob, cfg(x0=prob.meta.x_star, T=5))
        assert (trace.grad_norms == 0.0).all()
        assert_allclose(trace.final_point, prob.meta.x_star, rtol=0, atol=0)

    def test_monotone_descent_at_proof_stepsize(self):
        # convex + eta <= 1/(2 (L0 + c L1)) gives monotone objective values
        prob = ChiSquareQuadratic(dim=4, L=0.5)
        for c in (0.01, 0.1, 1.0):
            eta = 1.0 / (2.0 * prob.meta.L0)
            trace = run(prob, cfg(method="clipped_gd", c=c, eta=eta, T=200,
                                  x0=np.full(4, 3.0)))
            assert (np.diff(trace.f_vals) <= 1e-12).all()


class TestDeterminism:
    def test_bit_identical_reruns(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=500, seed=123)
        t1 = run(prob, config)
        t2 = run(prob, config)
        assert np.array_equal(t1.f_vals, t2.f_vals)
        assert np.array_equal(t1.grad_norms, t2.grad_norms)
        assert np.array_equal(t1.final_point, t2.final_point)

    def test_frozen_golden_value(self):
        # guards the (seed, step, lane) stream layout across releases
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=100, seed=7)
        trace = run(prob, config)
        assert trace.final_point[0] == pytest.approx(-0.6661811074629189, abs=0)

    # Frozen digests of whole traces (trace_digest). They pin the batched
    # oracle and clipping path bit for bit: each was recorded with the
    # one-sample-at-a-time engine that preceded the batched one.
    def test_frozen_golden_dp_minibatch(self):
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="dp_sgd", c=14.0, eta=1e-2, T=200, x0=np.zeros(100), B=16,
                     sigma_dp=1.0, seed=3)
        trace = run(prob, config)
        assert trace_digest(trace) == "7bcf5354448a5fd8"
        assert trace.final_point[0] == -1.4639098632910394

    def test_frozen_golden_logistic_minibatch(self):
        prob = bundled_logistic()
        config = cfg(method="clipped_sgd", c=0.05, eta=0.5, T=300, x0=np.zeros(prob.meta.dim),
                     B=4, seed=11)
        trace = run(prob, config)
        assert trace_digest(trace) == "2160f6d6f804bb33"
        assert trace.final_point[0] == 0.0878031887356725

    def test_frozen_golden_logistic_one_sample(self):
        prob = bundled_logistic()
        config = cfg(method="sgd", c=math.inf, eta=0.5, T=200, x0=np.zeros(prob.meta.dim),
                     seed=5)
        assert trace_digest(run(prob, config)) == "d7d8384178f6017f"

    def test_frozen_golden_logistic_clipped_gd(self):
        prob = bundled_logistic()
        config = cfg(method="clipped_gd", c=0.01, eta=10.0, T=200,
                     x0=np.full(prob.meta.dim, 1.0))
        trace = run(prob, config)
        assert trace_digest(trace) == "d8168c0818faacde"
        assert trace.f_vals[-1] == 0.5986146076159443

    def test_frozen_golden_one_dimensional_minibatch(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        config = cfg(method="dp_sgd", c=2.0, eta=0.05, T=300, B=8, sigma_dp=0.5, seed=7)
        assert trace_digest(run(prob, config)) == "0b61e17f25a46d05"

    @pytest.mark.parametrize("B", [1, 4])
    def test_logistic_far_start_stays_finite(self, B):
        # the start of acceptance criterion 7, where per-row margins pass the
        # ~709.78 at which math.exp overflows
        prob = bundled_logistic()
        direction = prob.A.T @ prob.y
        x0 = 12_000.0 * direction / np.linalg.norm(direction)
        config = cfg(method="clipped_sgd", c=1.0, eta=1.0, T=20, x0=x0, B=B, seed=0)
        trace = run(prob, config)
        assert trace.iters[-1] == 20
        assert np.all(np.isfinite(trace.f_vals)) and np.all(np.isfinite(trace.applied_norms))

    @pytest.mark.parametrize("make_problem,method,B,sigma_dp", [
        (lambda: ChiSquareQuadratic(dim=5, L=0.2), "dp_sgd", 6, 0.7),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), "clipped_sgd", 5, 0.0),
        (bundled_logistic, "clipped_sgd", 4, 0.0),
        (lambda: Quadratic(dim=3), "dp_sgd", 3, 0.2),
    ], ids=["chi_square", "bernoulli", "logistic", "quadratic"])
    def test_batched_engine_matches_base_class_oracles(self, make_problem, method, B, sigma_dp):
        # the shipped vectorized oracles against the base-class defaults,
        # which stack one-call draws
        prob = make_problem()
        x0 = np.full(prob.meta.dim, 0.5)
        c = 0.05 if isinstance(prob, LogisticRegressionProblem) else 1.5
        config = cfg(method=method, c=c, eta=0.05, T=150, x0=x0, B=B, sigma_dp=sigma_dp, seed=4)
        fast, reference = run(prob, config), run(OneCallOnly(prob), config)
        assert trace_digest(fast) == trace_digest(reference)

    def test_seed_changes_trajectory(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        t1 = run(prob, cfg(method="clipped_sgd", c=2.0, eta=0.05, T=200, seed=1))
        t2 = run(prob, cfg(method="clipped_sgd", c=2.0, eta=0.05, T=200, seed=2))
        assert not np.array_equal(t1.f_vals, t2.f_vals)

    def test_step_rng_is_consumption_independent(self):
        # draws at step t do not depend on how much step t-1 consumed
        r1 = _StepRng(99)
        r1.at_step(0).standard_normal(17)
        a = r1.at_step(1).random()
        r2 = _StepRng(99)
        r2.at_step(0).random()
        b = r2.at_step(1).random()
        assert a == b

    @pytest.mark.parametrize("first_draws", ["served", "reset"])
    def test_vectorized_philox_matches_numpy(self, first_draws):
        # the first random() of every step of a key's stream, as a served
        # run reads it from a row of a block or a run that takes the reset
        # draws it from _StepRng, is numpy's after the counter reset, for
        # keys past 2**63 and past 2**64 (reduced mod 2**64), both lanes and
        # steps on both sides of a chunk boundary
        seeds = [0, 3, 12345, 2**63, 2**63 + 7, 2**64 - 1, 2**64 + 5, 2**70 + 5]
        for lane in (0, 1):
            for start in (0, 4094, 10**5):
                if first_draws == "served":
                    block = _philox_uniforms(seeds, start, 4, lane)
                    assert block.shape == (len(seeds), 4) and block.dtype == np.float64
                    rows = block.tolist()
                else:
                    # one _StepRng per key, re-armed step after step
                    rows = [[steps.at_step(t, lane).random() for t in range(start, start + 4)]
                            for steps in map(_StepRng, seeds)]
                for seed, row in zip(seeds, rows):
                    for t, got in enumerate(row, start):
                        assert got == reset_generator(seed, t, lane).random()

    @pytest.mark.parametrize("order", list(itertools.product(STEP_DRAWS, repeat=2)) + [
        ("random",) + rest for rest in itertools.permutations(list(STEP_DRAWS)[1:], 2)
    ], ids="-".join)
    def test_step_draws_match_a_counter_reset(self, order):
        # whatever a step draws, in whatever order, is what numpy gives after
        # the counter reset, on a generator re-armed step after step
        steps = _StepRng(11)
        for t, lane in ((5, 0), (5, 1), (6, 0), (4096, 0), (4096, 1)):
            got = steps.at_step(t, lane)
            want = reset_generator(11, t, lane)
            for name in order:
                a, b = STEP_DRAWS[name](got), STEP_DRAWS[name](want)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, t, lane)

    def test_only_long_one_sample_runs_compute_blocks(self, monkeypatch):
        # a block costs about _WARMUP resets: a Bernoulli run of fewer steps
        # takes the reset, and a longer one computes a block of _CHUNK
        # uniforms, _CHUNK // K steps of all K cells, at a time and makes no
        # reset at all
        blocks, resets = [], []
        philox, at_step = optimizers._philox_uniforms, _StepRng.at_step
        monkeypatch.setattr(optimizers, "_philox_uniforms", lambda keys, start, n, lane: (
            blocks.append((list(keys), start, n, lane)) or philox(keys, start, n, lane)))
        monkeypatch.setattr(_StepRng, "at_step", lambda self, t, lane=0: (
            resets.append(t) or at_step(self, t, lane)))
        monkeypatch.setattr(optimizers, "_CHUNK", 60)
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)

        def configs(T, seeds, B=1):
            return [cfg(method="clipped_sgd", c=2.0, eta=0.05, T=T, seed=s, B=B) for s in seeds]

        T = optimizers._WARMUP
        run(prob, *configs(T - 1, [3]))
        run(prob, optimizers.Cells(configs(T - 1, [1, 2])))
        assert blocks == [] and len(resets) == 3 * (T - 1)
        resets.clear()
        # a minibatch draws B uniforms a step: it takes the reset, however long
        run(prob, *configs(T, [3], B=2))
        assert blocks == [] and len(resets) == T
        resets.clear()
        run(prob, *configs(T, [3]))
        assert blocks == [([3], t, min(60, T - t), 0) for t in range(0, T, 60)]
        blocks.clear()
        keys = [1, 2, 2**64 + 5]
        run(prob, optimizers.Cells(configs(T, keys)))
        assert blocks == [(keys, t, min(20, T - t), 0) for t in range(0, T, 20)]
        assert resets == []

    def test_frozen_golden_across_chunks(self):
        # a Bernoulli run past two chunk boundaries under a key past 2**64,
        # recorded with the per-step counter reset
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=9000, seed=2**64 + 7)
        trace = run(prob, config)
        assert trace_digest(trace) == "e9abc876ba6c9eec"
        assert trace.final_point[0] == -0.4163145385945131

    def test_step_generator_is_a_numpy_generator(self):
        gen = _StepRng(4).at_step(0)
        assert type(gen) is np.random.Generator
        assert isinstance(gen.random(), float)

    def test_sigma_zero_matches_gd(self):
        prob = ChiSquareQuadratic(dim=3, L=0.5)  # stochastic problem
        det = Quadratic(dim=3, L=0.5)
        # on a zero-variance problem the stochastic driver equals the
        # deterministic one bitwise
        config_sgd = cfg(method="clipped_sgd", c=0.3, eta=0.2, T=50, x0=np.ones(3))
        config_gd = cfg(method="clipped_gd", c=0.3, eta=0.2, T=50, x0=np.ones(3))
        t_sgd = run(det, config_sgd)
        t_gd = run(det, config_gd)
        assert np.array_equal(t_sgd.final_point, t_gd.final_point)
        assert np.array_equal(t_sgd.f_vals, t_gd.f_vals)
        assert prob.meta.sigma_sq > 0  # chi-square kept stochastic above

    def test_huge_threshold_reduces_to_unclipped(self):
        prob = ChiSquareQuadratic(dim=3, L=0.5)
        t_clip = run(prob, cfg(method="clipped_sgd", c=1e308, eta=0.1,
                               T=100, x0=np.ones(3), seed=5))
        t_plain = run(prob, cfg(method="sgd", c=math.inf, eta=0.1,
                                T=100, x0=np.ones(3), seed=5))
        assert np.array_equal(t_clip.final_point, t_plain.final_point)
        assert np.array_equal(t_clip.f_vals, t_plain.f_vals)
        assert t_clip.clipped_fracs.max() == 0.0


class TestClippedSgd:
    def test_expected_update_zero_at_fixed_point(self):
        # two-outcome construction at sigma=1, c=2: the expected clipped
        # gradient vanishes at the fixed point, so one-step updates average
        # to zero within Monte-Carlo error
        inst = build_lower_bound_small_c(1.0, 2.0)
        prob = inst.problem()
        x_star = np.array([inst.x_fixed])
        n = 100_000
        updates = np.empty(n)
        eta = 0.5
        # the seeds run as lockstep batches, each cell bit-for-bit its single run
        for start in range(0, n, 10_000):
            configs = [cfg(method="clipped_sgd", c=2.0, eta=eta, T=1, x0=x_star, seed=seed)
                       for seed in range(start, start + 10_000)]
            for seed, (trace, _) in enumerate(run(prob, optimizers.Cells(configs)), start):
                updates[seed] = (trace.final_point[0] - inst.x_fixed) / -eta
        se = updates.std() / math.sqrt(n)
        assert abs(updates.mean()) <= 4.0 * se

    def test_displacement_bounded_by_eta_c(self):
        prob = BernoulliShiftQuadratic(a=8.0, p=0.1)
        config = cfg(method="clipped_sgd", c=0.7, eta=0.3, T=300, seed=3)
        trace = run(prob, config)
        # applied update norms are recorded per step (last record is 0)
        assert (trace.applied_norms <= 0.7 * (1 + 1e-12)).all()

    def test_minibatch_per_sample_clipping(self):
        prob = ChiSquareQuadratic(dim=10, L=0.1)
        config = cfg(method="clipped_sgd", c=1.5, eta=0.01, T=200, B=4,
                     x0=np.zeros(10), seed=11)
        trace = run(prob, config)
        assert trace.max_per_sample_norm <= 1.5
        assert trace.clipped_fracs[:-1].max() > 0  # chi-square tails do get clipped
        assert set(np.round(trace.clipped_fracs * 4).astype(int)) <= {0, 1, 2, 3, 4}

    def test_trace_shape_and_min(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        trace = run(prob, cfg(method="clipped_sgd", c=2.0, eta=0.1, T=25))
        assert list(trace.iters) == list(range(26))
        assert trace.min_grad_norm == trace.grad_norms.min()
        for name in ("f_vals", "grad_norms", "applied_norms", "clipped_fracs"):
            assert len(getattr(trace, name)) == 26
        assert trace.iters[0] == 0 and trace.iters[-1] == 25
        assert trace.applied_norms[-1] == 0.0 and trace.clipped_fracs[-1] == 0.0

    def test_thinning_keeps_final(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        trace = run(prob, cfg(method="clipped_sgd", c=2.0, eta=0.1,
                              T=10, thin=4))
        assert list(trace.iters) == [0, 4, 8, 10]


class TestDpSgd:
    def test_run_dp_sgd_is_run_for_dp_sgd_only(self):
        prob = ChiSquareQuadratic(dim=3, L=0.5)
        config = cfg(method="dp_sgd", c=1.0, eta=0.1, T=30, B=2, sigma_dp=0.5,
                     x0=np.ones(3), seed=4)
        assert trace_digest(run_dp_sgd(prob, config)) == trace_digest(run(prob, config))
        with pytest.raises(ValueError):
            run_dp_sgd(prob, cfg(method="sgd"))

    def test_zero_noise_matches_clipped_sgd(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        t_dp = run(prob, cfg(method="dp_sgd", c=2.0, eta=0.05, T=200,
                             sigma_dp=0.0, seed=21))
        t_cl = run(prob, cfg(method="clipped_sgd", c=2.0, eta=0.05,
                             T=200, seed=21))
        assert np.array_equal(t_dp.final_point, t_cl.final_point)
        assert np.array_equal(t_dp.f_vals, t_cl.f_vals)

    def test_noise_norm_calibration(self):
        # E norm(z)^2 = sigma_dp^2 regardless of dimension
        rng = np.random.default_rng(17)
        sq = np.array([float(z @ z) for z in
                       (privacy_noise(10, 1.0, rng) for _ in range(10_000))])
        assert sq.mean() == pytest.approx(1.0, rel=0.05)

    def test_per_sample_sensitivity_over_run(self):
        prob = ChiSquareQuadratic(dim=10, L=0.1)
        config = cfg(method="dp_sgd", c=1.0, eta=0.01, T=1000, B=8,
                     sigma_dp=0.5, x0=np.zeros(10), seed=2)
        trace = run(prob, config)
        assert trace.max_per_sample_norm <= 1.0

    def test_noise_actually_perturbs(self):
        prob = Quadratic(dim=2)
        t = run(prob, cfg(method="dp_sgd", c=1.0, eta=0.1, T=20,
                          sigma_dp=1.0, x0=np.ones(2)))
        assert t.applied_norms[:-1].max() > 0.0
        assert not np.array_equal(t.final_point, np.zeros(2))


class TestDivergence:
    def test_unclipped_blowup_raises_with_partial_trace(self):
        prob = Quadratic(dim=1, L=1.0)
        config = cfg(method="gd", c=math.inf, eta=3.0, T=200, x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as exc_info:
            run(prob, config)
        partial = exc_info.value.trace
        assert isinstance(partial, Trace)
        assert partial.iters.size > 0
        assert partial.iters.size < 201
        # clipping the same run keeps it bounded
        clipped = run(prob, cfg(method="clipped_gd", c=0.5, eta=3.0, T=200))
        assert math.isfinite(clipped.f_vals[-1])

    @pytest.mark.parametrize("make_problem", [
        lambda: Quadratic(dim=3),
        lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
        lambda: ChiSquareQuadratic(dim=3),
        bundled_logistic,
    ], ids=["quadratic", "bernoulli", "chi_square", "logistic"])
    def test_message_holds_python_floats(self, make_problem):
        # the exact oracles return an np.float64 value, whose numpy 2 repr
        # np.float64(...) would reach the CLI's stderr
        prob = make_problem()
        x0 = np.full(prob.meta.dim, 1e13)
        with pytest.raises(DivergenceError) as exc_info:
            run(prob, cfg(method="gd", c=math.inf, eta=0.1, T=5, x0=x0))
        f = prob.value(x0)
        assert str(exc_info.value) == (
            f"divergence at t=0: f={f!r}, |x|={math.sqrt(x0 @ x0)!r} (limit 1e+12)")
        assert "np." not in str(exc_info.value)

    def test_trace_diverged_at_the_start_has_nan_min_grad_norm(self):
        # a start past the guard records nothing; the minimum over no
        # records is NaN, as sweep rows report it, not numpy's zero-size error
        with pytest.raises(DivergenceError) as exc_info:
            run(Quadratic(dim=2), cfg(method="gd", c=math.inf, T=5, x0=np.full(2, 1e13)))
        partial = exc_info.value.trace
        assert partial.iters.size == 0
        assert math.isnan(partial.min_grad_norm)

    def test_dispatcher(self):
        prob = Quadratic()
        assert run(prob, cfg(T=1)).final_point[0] == 0.0
        t = run(prob, cfg(method="dp_sgd", c=1.0, T=1, sigma_dp=0.0))
        assert t.final_point[0] == 0.0


class TestValidationAtTheEdge:
    """A run validates its input once, not once per step."""

    @pytest.mark.parametrize("make_problem,method,B", [
        (lambda: Quadratic(dim=2), "clipped_gd", 1),
        (lambda: Quadratic(dim=2), "sgd", 1),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), "clipped_sgd", 1),
        (lambda: ChiSquareQuadratic(dim=4), "dp_sgd", 4),
        (bundled_logistic, "clipped_gd", 1),
        (bundled_logistic, "clipped_sgd", 3),
    ], ids=["quadratic_gd", "quadratic_sgd", "bernoulli_sgd", "chi_square_dp", "logistic_gd",
            "logistic_sgd"])
    def test_validation_calls_do_not_grow_with_steps(self, monkeypatch, make_problem, method, B):
        prob = make_problem()
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(core, "_as_vector", counting("_as_vector", core._as_vector))
        monkeypatch.setattr(Problem, "check_dim", counting("check_dim", Problem.check_dim))

        def calls(T):
            counts.clear()
            c = math.inf if method == "sgd" else 0.5
            run(prob, cfg(method=method, c=c, eta=0.01, T=T, B=B,
                          x0=np.full(prob.meta.dim, 0.3), seed=1))
            return dict(counts)

        short, long = calls(3), calls(60)
        assert short == long
        assert long.get("check_dim", 0) >= 1
