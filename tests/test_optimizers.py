import copy
import errno
import hashlib
import itertools
import math
import mmap
import os
import signal
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench import _feed, core, optimizers
from clipbench.data_ingest import bundled_dataset_path, parse_libsvm

from clipbench.optimizers import (
    Cells,
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
    ProblemMeta,
    Quadratic,
)
from clipbench.theory import (
    build_lower_bound_small_c,
    clip_probability_bound,
    expected_clipped_grad,
)


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

    @pytest.mark.parametrize("make_problem,settings", [
        (lambda: ChiSquareQuadratic(dim=5, L=0.2), dict(method="dp_sgd", B=6, sigma_dp=0.7)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_sgd", B=5)),
        (bundled_logistic, dict(method="clipped_sgd", B=4)),
        (lambda: Quadratic(dim=3), dict(method="dp_sgd", B=3, sigma_dp=0.2)),
        # Bernoulli single runs, which step on floats with B = 1 and without
        # DP noise and on arrays otherwise: served draws (T >= 128) and
        # counter resets (T < 128), a minibatch, DP noise, the exact oracle
        # alone, a start past the guard and a run that diverges mid-way
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_sgd")),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_sgd", T=100)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_sgd", B=3)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="dp_sgd", sigma_dp=0.3)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
         dict(method="dp_sgd", B=3, sigma_dp=0.3, T=100)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_gd")),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
         dict(method="clipped_sgd", x0=np.array([1e200]))),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="sgd", c=math.inf, eta=3.0)),
    ], ids=["chi_square", "bernoulli", "logistic", "quadratic", "bernoulli_served",
            "bernoulli_reset", "bernoulli_B3", "bernoulli_dp", "bernoulli_dp_B3_reset",
            "bernoulli_clipped_gd", "bernoulli_far_start", "bernoulli_diverges"])
    def test_batched_engine_matches_base_class_oracles(self, make_problem, settings):
        # the shipped vectorized oracles against the base-class defaults,
        # which stack one-call draws at one-element arrays (a float would fail
        # their dimension check), diverged runs included
        prob = make_problem()
        c = 0.05 if isinstance(prob, LogisticRegressionProblem) else 1.5
        config = cfg(**(dict(c=c, eta=0.05, T=150, x0=np.full(prob.meta.dim, 0.5), seed=4)
                        | settings))

        def outcome(problem):
            try:
                return trace_digest(run(problem, config)), None
            except DivergenceError as exc:
                return trace_digest(exc.trace), str(exc)

        assert outcome(prob) == outcome(OneCallOnly(prob))

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
        # a block costs about _WARMUP resets: a Bernoulli run whose cells
        # draw fewer uniforms than that over all their steps takes the reset,
        # and one that draws more computes a block of _HELD uniforms,
        # _HELD // K steps of all K cells, at a time and makes no reset at all
        blocks, resets = [], []
        philox, at_step = optimizers._philox_uniforms, _StepRng.at_step
        monkeypatch.setattr(optimizers, "_philox_uniforms", lambda keys, start, n, lane: (
            blocks.append((list(keys), start, n, lane)) or philox(keys, start, n, lane)))
        monkeypatch.setattr(_StepRng, "at_step", lambda self, t, lane=0: (
            resets.append(t) or at_step(self, t, lane)))
        monkeypatch.setattr(optimizers, "_HELD", 60)
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)

        def configs(T, seeds, B=1):
            return [cfg(method="clipped_sgd", c=2.0, eta=0.05, T=T, seed=s, B=B) for s in seeds]

        T = optimizers._WARMUP
        run(prob, *configs(T - 1, [3]))
        run(prob, optimizers.Cells(configs(T // 2 - 1, [1, 2])))
        assert blocks == [] and len(resets) == (T - 1) + 2 * (T // 2 - 1)
        resets.clear()
        # a minibatch draws B uniforms a step: it is never served
        run(prob, *configs(T, [3], B=2))
        assert blocks == [] and len(resets) == T
        resets.clear()
        run(prob, *configs(T, [3]))
        assert blocks == [([3], t, min(60, T - t), 0) for t in range(0, T, 60)]
        blocks.clear()
        # two cells of half the steps draw as many uniforms as one such run
        run(prob, optimizers.Cells(configs(T // 2, [1, 2])))
        assert blocks == [([1, 2], t, min(30, T // 2 - t), 0) for t in range(0, T // 2, 30)]
        blocks.clear()
        keys = [1, 2, 2**64 + 5]
        run(prob, optimizers.Cells(configs(T, keys)))
        assert blocks == [(keys, t, min(20, T - t), 0) for t in range(0, T, 20)]
        assert resets == []

    def test_a_wrapped_copy_is_served_by_its_class(self, monkeypatch):
        # a copy whose methods are wrapped on the instance, as a tracing proxy
        # makes, keeps its class's uniforms hook and so its served blocks
        blocks = []
        philox = optimizers._philox_uniforms
        monkeypatch.setattr(optimizers, "_philox_uniforms", lambda keys, start, n, lane: (
            blocks.append(start) or philox(keys, start, n, lane)))
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        proxy = copy.copy(prob)
        for name in ("draws", "sample_grad_at", "sample_grad", "value_and_grad"):
            setattr(proxy, name, lambda *args, fn=getattr(prob, name): fn(*args))
        config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=300, seed=3)
        assert trace_digest(run(proxy, config)) == trace_digest(run(prob, config))
        assert blocks == [0, 0]

    def test_frozen_golden_across_chunks(self):
        # a Bernoulli run past a block boundary under a key past 2**64,
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

    @pytest.mark.parametrize("dim", [1, 100])
    def test_noise_mean_squared_norm_is_sigma_dp_squared(self, dim):
        # sigma_dp is a total-norm scale: |z|^2 is sigma_dp^2 / dim times a
        # chi-square with dim degrees of freedom, of variance 2 sigma_dp^4 / dim.
        # Read per coordinate, the mean would be dim sigma_dp^2
        sigma_dp, n = 3.0, 20_000
        rng = np.random.default_rng(dim)
        sq = np.array([float(z @ z) for z in
                       (privacy_noise(dim, sigma_dp, rng) for _ in range(n))])
        standard_error = sigma_dp**2 * math.sqrt(2.0 / (dim * n))
        assert abs(sq.mean() - sigma_dp**2) <= 4.0 * standard_error

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


class PointTypes(BernoulliShiftQuadratic):
    """Records the type and the number of dimensions of every point its
    sample oracle and its exact oracle are handed, apart."""

    def __init__(self, float_oracles=True):
        super().__init__(a=4.0, p=0.25)
        self.float_oracles = float_oracles
        self.sampled, self.exact = set(), set()

    def value_and_grad(self, X):
        self.exact.add((type(X), np.ndim(X)))
        return super().value_and_grad(X)

    def sample_grad_at(self, X, u):
        self.sampled.add((type(X), np.ndim(X)))
        return super().sample_grad_at(X, u)


class TestRepresentation:
    """A single run steps on Python floats only where every vector of the
    step is one; every other single run steps on 1-d arrays. The step's
    oracles see only that kind of point; the exact oracle sees it on a
    deterministic run, whose step reads it, and ``(n, 1)`` stacks of the
    held iterates on a stochastic one."""

    @pytest.mark.parametrize("settings,float_oracles,kind", [
        (dict(method="gd", c=math.inf, eta=0.05), True, float),
        (dict(method="clipped_sgd"), True, float),  # served draws
        (dict(method="clipped_sgd", T=100), True, float),  # counter resets
        (dict(method="clipped_sgd", B=3), True, np.ndarray),
        (dict(method="dp_sgd", sigma_dp=0.3), True, np.ndarray),
        (dict(method="dp_sgd", T=100), True, np.ndarray),
        (dict(method="clipped_gd"), False, np.ndarray),
        (dict(method="clipped_sgd"), False, np.ndarray),
        (dict(method="clipped_sgd", T=100), False, np.ndarray),
    ], ids=["gd", "served", "reset", "B3", "dp_served", "dp_reset", "unflagged_gd",
            "unflagged_served", "unflagged_reset"])
    def test_points_are_all_floats_or_all_arrays(self, settings, float_oracles, kind):
        prob = PointTypes(float_oracles)
        config = cfg(**(dict(c=1.5, eta=0.05, T=150, x0=np.array([0.5]), seed=4) | settings))
        trace = run(prob, config)
        point = (kind, 0 if kind is float else 1)
        if config.method in optimizers._DETERMINISTIC:
            assert prob.sampled == set() and prob.exact == {point}
        else:
            assert prob.sampled == {point} and prob.exact == {(np.ndarray, 2)}
        # the same bits as the flag's other setting, which takes the other path
        assert trace_digest(trace) == trace_digest(run(PointTypes(not float_oracles), config))
        assert type(trace.final_point) is np.ndarray and trace.final_point.shape == (1,)


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

    @pytest.mark.parametrize("config", [
        lambda: [cfg()], lambda: (cfg(),), lambda: None, lambda: {"method": "gd"},
    ], ids=["list", "tuple", "none", "dict"])
    def test_run_takes_a_config_or_cells(self, config):
        # a bare sequence of configurations is not a batch; Cells is
        with pytest.raises(TypeError, match="RunConfig or a Cells batch"):
            run(BernoulliShiftQuadratic(a=4.0, p=0.25), config())


class FailingDraws(ChiSquareQuadratic):
    """Chi-square draws that raise from the eleventh call on: the first is
    the parent's, the rest a fed run's child makes."""

    def __init__(self):
        super().__init__(dim=100, L=0.1)
        self.calls = 0

    def draws(self, rng, k):
        self.calls += 1
        if self.calls > 10:
            raise ValueError("no more draws")
        return super().draws(rng, k)


class RaisingOracle(ChiSquareQuadratic):
    """Raises from its sample oracle at call ``at`` (step ``at - 1``), in the
    parent."""

    def __init__(self, error, at):
        super().__init__(dim=100, L=0.1)
        self.error, self.at, self.calls = error, at, 0

    def sample_grad_at(self, X, Z):
        self.calls += 1
        if self.calls == self.at:
            raise self.error
        return super().sample_grad_at(X, Z)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork, counted through a wrapper."""
    calls, fork = [], os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture
def no_hang():
    """Turns a wait of more than 30 s into a TimeoutError, not a hung suite."""
    def alarm(signum, frame):
        raise TimeoutError("the run waited more than 30 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def feeding(monkeypatch, on):
    """Every hooked draw fed (on) or none; a small ring of 32 KB blocks, two
    deep, so that the tests' runs wrap it and end inside a block."""
    monkeypatch.setattr(_feed, "MIN_DOUBLES", 0 if on else math.inf)
    monkeypatch.setattr(_feed, "BLOCK_BYTES", 1 << 15)
    monkeypatch.setattr(_feed, "DEPTH", 2)


class TestFeeder:
    """A forked child that draws ahead changes no bit of any output, and a
    run leaves no process behind however it ends."""

    @pytest.mark.parametrize("make_problem,settings", [
        (lambda: ChiSquareQuadratic(dim=100, L=0.1), dict(method="dp_sgd", B=16, sigma_dp=1.0)),
        (lambda: ChiSquareQuadratic(dim=100, L=0.1), dict(method="clipped_sgd")),
        (lambda: ChiSquareQuadratic(dim=100, L=0.1), dict(method="clipped_sgd", B=4)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="clipped_sgd", B=4)),
        (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), dict(method="dp_sgd", sigma_dp=0.3,
                                                              T=100)),
    ], ids=["chi_square_dp_B16", "chi_square_B1", "chi_square_B4", "bernoulli_B4",
            "bernoulli_dp_B1"])
    def test_fed_runs_match_the_reset(self, monkeypatch, forks, no_hang, make_problem,
                                      settings):
        # 199 fed steps fill blocks of 39 (B = 1), 10 (B = 4) and 2 (B = 16
        # with noise) steps: each run wraps the ring and ends inside a block
        prob = make_problem()
        config = cfg(**(dict(c=14.0, eta=0.01, T=200, x0=np.full(prob.meta.dim, 0.5), seed=3)
                        | settings))
        feeding(monkeypatch, False)
        want = trace_digest(run(prob, config))
        assert forks == []
        feeding(monkeypatch, True)
        assert trace_digest(run(prob, config)) == want
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_run_that_diverges_mid_ring(self, monkeypatch, forks, no_hang):
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="sgd", c=math.inf, eta=22.0, T=400, B=4, x0=np.ones(100), seed=2)

        def outcome():
            with pytest.raises(DivergenceError) as info:
                run(prob, config)
            return trace_digest(info.value.trace), str(info.value), info.value.trace.iters.size

        feeding(monkeypatch, False)
        want = outcome()
        # past the two-block ring of 10-step blocks, in a block
        assert 40 < want[2] < 400 and want[2] % 10
        feeding(monkeypatch, True)
        assert outcome() == want
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("error,at", [
        (RuntimeError("oracle failed"), 51), (KeyboardInterrupt(), 51),
        (RuntimeError("oracle failed"), 1), (KeyboardInterrupt(), 1),
    ], ids=["exception", "interrupt", "exception_at_first_item", "interrupt_at_first_item"])
    def test_parent_that_stops_early_reaps_the_child(self, monkeypatch, forks, no_hang, error,
                                                     at):
        # at call 51 the run stops mid-ring; at call 1, step 0's, the feeder
        # is closed while it is still suspended at its first item
        feeding(monkeypatch, True)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=400, B=16, sigma_dp=1.0,
                     x0=np.zeros(100))
        opened = len(os.listdir("/proc/self/fd"))
        with pytest.raises(type(error)):
            run(RaisingOracle(error, at), config)
        assert len(forks) == 1
        assert len(os.listdir("/proc/self/fd")) == opened
        assert_no_child_left()

    def test_child_that_raises_fails_the_run(self, monkeypatch, forks, no_hang):
        # the child fails after writing a few blocks of two steps each: the
        # parent makes its calls again, and its own step 10 raises as the
        # unfed run's does
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=400, B=16, sigma_dp=1.0,
                     x0=np.zeros(100))
        for on in (False, True):
            feeding(monkeypatch, on)
            prob = FailingDraws()
            with pytest.raises(ValueError, match=r"^no more draws$"):
                run(prob, config)
            assert prob.calls == 11 and len(forks) == on
        assert_no_child_left()

    @pytest.mark.parametrize("estimator", ["expected_clipped_grad", "clip_probability_bound"])
    def test_fed_monte_carlo_matches_unfed(self, monkeypatch, forks, no_hang, estimator):
        # 31 chunks of 163 samples, the last one of 110, one chunk per block
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        x = np.full(100, -9.0)

        def estimate():
            if estimator == "expected_clipped_grad":
                est = expected_clipped_grad(prob, x, 14.0, n_samples=5000, seed=4)
                return est.value.tobytes(), est.std_error
            report = clip_probability_bound(prob, x, 14.0, n_samples=5000, seed=4)
            return report.frequency, report.std_error

        feeding(monkeypatch, False)
        want = estimate()
        assert forks == []
        feeding(monkeypatch, True)
        assert estimate() == want
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("limit", ["one_cpu", "no_fork", "python_thread", "short_run",
                                       "served"])
    def test_what_takes_the_reset(self, monkeypatch, forks, no_hang, limit):
        # one CPU of affinity, no os.fork, another Python thread, draws that
        # do not pay for a fork, or served uniforms: the run forks nothing
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=50, B=16, sigma_dp=1.0,
                     x0=np.zeros(100), seed=1)
        feeding(monkeypatch, False)
        want = trace_digest(run(prob, config))
        feeding(monkeypatch, True)
        stop = threading.Event()
        if limit == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif limit == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif limit == "python_thread":
            thread = threading.Thread(target=stop.wait)
            thread.start()
        elif limit == "short_run":
            monkeypatch.setattr(_feed, "MIN_DOUBLES", 50 * 17 * 100 + 1)
        else:
            prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
            config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=300, seed=1)
            feeding(monkeypatch, False)
            want = trace_digest(run(prob, config))
            feeding(monkeypatch, True)
        try:
            assert trace_digest(run(prob, config)) == want
        finally:
            stop.set()
        assert forks == []

    @pytest.mark.parametrize("refused", ["fork", "second_pipe", "ring"])
    @pytest.mark.parametrize("estimator", ["dp_sgd_run", "expected_clipped_grad"])
    def test_refused_resource_takes_the_reset(self, monkeypatch, forks, no_hang, estimator,
                                              refused):
        # a fork, a pipe or a ring the system refuses: the parent makes the
        # child's calls itself, with the same bits, and closes what it made
        prob = ChiSquareQuadratic(dim=100, L=0.1)

        def outcome():
            if estimator == "dp_sgd_run":
                return trace_digest(run(prob, cfg(method="dp_sgd", c=14.0, eta=0.01, T=200,
                                                  B=16, sigma_dp=1.0, x0=np.zeros(100),
                                                  seed=3)))
            est = expected_clipped_grad(prob, np.full(100, -9.0), 14.0, n_samples=5000, seed=4)
            return est.value.tobytes(), est.std_error

        feeding(monkeypatch, False)
        want = outcome()
        feeding(monkeypatch, True)
        pipe, pipes = os.pipe, []

        def second_pipe_refused():
            pipes.append(len(pipes) + 1)
            if len(pipes) == 2:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        def refused_with(code):
            def refuse(*args):
                raise OSError(code, os.strerror(code))
            return refuse

        if refused == "fork":
            monkeypatch.setattr(os, "fork", refused_with(errno.EAGAIN))
        elif refused == "second_pipe":
            monkeypatch.setattr(os, "pipe", second_pipe_refused)
        else:
            monkeypatch.setattr(mmap, "mmap", refused_with(errno.ENOMEM))
        opened = len(os.listdir("/proc/self/fd"))
        assert outcome() == want
        assert forks == [] and len(pipes) == (2 if refused == "second_pipe" else 0)
        assert len(os.listdir("/proc/self/fd")) == opened
        assert_no_child_left()

    def test_child_reaped_by_the_system(self, monkeypatch, forks, no_hang):
        # where SIGCHLD is ignored the kernel reaps the child itself, and the
        # run must not fail on a child that is already gone
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=100, B=16, sigma_dp=1.0,
                     x0=np.zeros(100), seed=6)
        feeding(monkeypatch, False)
        want = trace_digest(run(prob, config))
        feeding(monkeypatch, True)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert trace_digest(run(prob, config)) == want
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 1
        assert_no_child_left()

    def test_fork_warning_of_native_threads_is_not_an_error(self, monkeypatch, no_hang):
        # Python 3.12+ warns on a fork while the process runs other threads,
        # which a BLAS pool's are; the feeder forks anyway, as its child
        # calls no BLAS, and the warning never reaches the caller
        fork = os.fork

        def warning_fork():
            warnings.warn("This process (pid=1) is multi-threaded, use of fork() may lead to"
                          " deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=100, B=16, sigma_dp=1.0,
                     x0=np.zeros(100), seed=5)
        feeding(monkeypatch, False)
        want = trace_digest(run(prob, config))
        feeding(monkeypatch, True)
        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trace_digest(run(prob, config)) == want
        assert_no_child_left()


class NormalShift(Problem):
    """A custom problem with the exact oracle and the two draw hooks alone:
    ``f(x) = norm(x)^2 / 2``, sampled as ``x + z`` with ``z`` standard
    normal."""

    def __init__(self, dim):
        self.meta = ProblemMeta(dim=dim, L0=1.0, L1=0.0, L=1.0, mu=1.0, sigma_sq=float(dim))

    def value_and_grad(self, X):
        return 0.5 * np.vecdot(X, X), 1.0 * X

    def draws(self, rng, k):
        return rng.standard_normal((k, self.meta.dim))

    def sample_grad_at(self, X, Z):
        return X + Z


class TestHookedCustomProblem:
    """A problem that defines only the draw hooks gets its sample oracles
    from them, and its traces do not depend on where the draws come from."""

    def test_sample_oracles_are_the_hooks(self):
        prob = NormalShift(dim=5)
        x = np.linspace(-1.0, 1.0, 5)
        one = prob.sample_grad(x, np.random.default_rng(7))
        assert one.shape == (5,)
        assert one.tobytes() == prob.sample_grad_at(
            x, prob.draws(np.random.default_rng(7), 1)[0]).tobytes()
        for k in (1, 3, 8):
            batch = prob.sample_grads(x, np.random.default_rng(k), k)
            assert batch.shape == (k, 5)
            assert batch.tobytes() == prob.sample_grad_at(
                x, prob.draws(np.random.default_rng(k), k)).tobytes()

    @pytest.mark.parametrize("method,B", [
        ("clipped_sgd", 1), ("clipped_sgd", 4), ("dp_sgd", 1), ("dp_sgd", 4),
    ], ids=["clipped_sgd_B1", "clipped_sgd_B4", "dp_sgd_B1", "dp_sgd_B4"])
    def test_every_draw_source_gives_the_same_trace(self, monkeypatch, forks, no_hang,
                                                    method, B):
        # 200 fed steps of 20 (B = 1) up to 100 (B = 4 with noise) doubles
        # wrap the two-block ring and end inside a block
        prob = NormalShift(dim=20)
        dp = dict(sigma_dp=0.5) if method == "dp_sgd" else {}
        configs = [cfg(method=method, B=B, c=3.0, eta=0.05, T=200, x0=np.full(20, 2.0),
                       seed=seed, **dp) for seed in (1, 2)]

        def digests():
            return [trace_digest(run(prob, config)) for config in configs]

        feeding(monkeypatch, False)
        want = digests()
        assert forks == [] and want[0] != want[1]
        feeding(monkeypatch, True)
        assert digests() == want
        assert len(forks) == 2
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert digests() == want
        assert [(trace_digest(trace), diverged) for trace, diverged
                in run(prob, Cells(configs))] == [(digest, False) for digest in want]
        assert len(forks) == 2
        assert_no_child_left()


BERNOULLI_RUN = ("mode = run\nproblem = bernoulli_shift\na = 8.0\np = 0.01587708172407289\n"
                 "method = clipped_sgd\nc = 4\neta = 1e-3\nx0 = 0\nseeds = 0\n")


def writing(monkeypatch, on):
    """Every CLI trace of at least 2**12 rows has a forked writer (on), or
    none, whose rows the CLI formats itself."""
    monkeypatch.setattr(_feed, "ROWS_MIN", 1 << 12 if on else math.inf)


@pytest.fixture
def copies(monkeypatch):
    """Whether each writer's copy took the child's rows, in call order."""
    calls, copy = [], _feed.RowWriter.copy

    def recording(self, out, iters, columns):
        calls.append(copy(self, out, iters, columns))
        return calls[-1]

    monkeypatch.setattr(_feed.RowWriter, "copy", recording)
    return calls


def cli_trace(tmp_path, text):
    """The exit code and the bytes of ``clipbench run`` on config ``text``."""
    from clipbench import cli

    config, out = tmp_path / "run.cfg", tmp_path / "trace.csv"
    config.write_text(text)
    out.unlink(missing_ok=True)
    return cli.main(["run", "--config", str(config), "--out", str(out)]), out.read_bytes()


class RaisingBernoulli(BernoulliShiftQuadratic):
    """The Bernoulli shift whose sample oracle raises ``error`` on call 4500
    (step 4499)."""

    def __init__(self, error):
        super().__init__(a=8.0, p=0.01587708172407289)
        self.error, self.calls = error, 0

    def sample_grad_at(self, X, u):
        self.calls += 1
        if self.calls == 4500:
            raise self.error
        return super().sample_grad_at(X, u)


class TestRowWriter:
    """A CLI trace whose rows a forked child formats while the run steps
    has the bytes of the trace the CLI formats itself, and the run leaves
    no process behind however it ends."""

    @pytest.mark.parametrize("text,rows", [
        (BERNOULLI_RUN + "T = 10000\n", 10001),
        (BERNOULLI_RUN + "T = 12499\nthin = 3\n", 4168),
    ], ids=["finished", "thinned"])
    def test_forked_rows_match_the_in_process_rows(self, monkeypatch, tmp_path, forks,
                                                   copies, no_hang, text, rows):
        writing(monkeypatch, False)
        want = cli_trace(tmp_path, text)
        assert forks == [] and want[0] == 0 and want[1].count(b"\r\n") == rows + 1
        writing(monkeypatch, True)
        assert cli_trace(tmp_path, text) == want
        assert forks == [os.getpid()] and copies == [False, True]
        assert_no_child_left()

    def test_ci_trace_digest(self, tmp_path, no_hang):
        code, data = cli_trace(tmp_path, BERNOULLI_RUN + "T = 10000\n")
        assert code == 0 and hashlib.sha256(data).hexdigest() == (
            "1f0833c09f5955fca5ec03f7794edc6eb2ca059edfaa3a7813995a839d1894a5")
        assert_no_child_left()

    def test_divergence_inside_a_report(self, monkeypatch, tmp_path, forks, copies, no_hang):
        # |x| grows by 1.00315 a step, past the guard after about 4500
        # records, which is not a whole number of reports
        text = ("mode = run\nproblem = quadratic\ndim = 1\nL = 1\nmethod = gd\nc = inf\n"
                "eta = 2.00315\nT = 6000\nx0 = 1\nseeds = 0\n")
        writing(monkeypatch, False)
        code, data = want = cli_trace(tmp_path, text)
        rows = data.count(b"\r\n") - 1
        assert code == 3 and 4096 < rows < 6001 and rows % _feed.REPORT_ROWS
        writing(monkeypatch, True)
        assert cli_trace(tmp_path, text) == want
        assert len(forks) == 1 and copies == [False, True]
        assert_no_child_left()

    def test_stochastic_divergence_inside_a_chunk(self, monkeypatch, tmp_path, forks, copies,
                                                  no_hang):
        # unclipped SGD past the guard at t = 4493, inside the chunk of steps
        # 4096-5119 and a report of rows; CI pins the same digest
        text = ("mode = run\nproblem = bernoulli_shift\na = 8.0\np = 0.01587708172407289\n"
                "method = sgd\nc = inf\neta = 2.0023\nT = 6000\nx0 = 1\nseeds = 0\n")
        writing(monkeypatch, False)
        want = cli_trace(tmp_path, text)
        assert want[0] == 3 and want[1].count(b"\r\n") == 4494
        assert hashlib.sha256(want[1]).hexdigest() == (
            "7abf398735e3df9958574974ae5819c2ac26a040ead47777deddeeecfc03baeb")
        writing(monkeypatch, True)
        assert cli_trace(tmp_path, text) == want
        assert len(forks) == 1 and copies == [False, True]
        assert_no_child_left()

    @pytest.mark.parametrize("limit", ["short_trace", "one_cpu", "no_fork", "python_thread",
                                       "fork_refused", "memfd_refused"])
    def test_what_forks_no_writer(self, monkeypatch, tmp_path, forks, no_hang, limit):
        # a trace below the row floor, one CPU of affinity, no os.fork,
        # another Python thread, or a fork or memfd the system refuses: the
        # CLI formats the rows itself
        text = BERNOULLI_RUN + ("T = 4000\n" if limit == "short_trace" else "T = 5000\n")
        writing(monkeypatch, False)
        want = cli_trace(tmp_path, text)
        writing(monkeypatch, True)
        stop = threading.Event()
        if limit == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif limit == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif limit == "python_thread":
            thread = threading.Thread(target=stop.wait)
            thread.start()
        elif limit in ("fork_refused", "memfd_refused"):
            def refused(*args):
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork" if limit == "fork_refused" else "memfd_create",
                                refused)
            opened = len(os.listdir("/proc/self/fd"))
        try:
            assert cli_trace(tmp_path, text) == want
        finally:
            stop.set()
        assert forks == []
        if limit.endswith("_refused"):
            assert len(os.listdir("/proc/self/fd")) == opened
        assert_no_child_left()

    def test_fed_run_forks_no_writer(self, monkeypatch, tmp_path, forks, no_hang):
        # the feeder is the run's one child
        text = ("mode = run\nproblem = chi_square\ndim = 2\nL = 0.1\nmethod = dp_sgd\nc = 14\n"
                "eta = 1e-2\nT = 4200\nsigma_dp = 1\nseeds = 0\n")
        feeding(monkeypatch, False)
        writing(monkeypatch, False)
        want = cli_trace(tmp_path, text)
        feeding(monkeypatch, True)
        writing(monkeypatch, True)
        assert cli_trace(tmp_path, text) == want
        assert len(forks) == 1
        assert_no_child_left()

    def test_child_that_fails_leaves_the_rows_to_the_parent(self, monkeypatch, tmp_path,
                                                            forks, copies, no_hang):
        text = BERNOULLI_RUN + "T = 5000\n"
        writing(monkeypatch, False)
        want = cli_trace(tmp_path, text)
        writing(monkeypatch, True)
        parent, csv_rows = os.getpid(), _feed.csv_rows

        def failing_in_the_child(iters, columns):
            if os.getpid() != parent and iters.size and iters[0] >= 2048:
                raise ValueError("no more rows")
            return csv_rows(iters, columns)

        monkeypatch.setattr(_feed, "csv_rows", failing_in_the_child)
        assert cli_trace(tmp_path, text) == want
        assert len(forks) == 1 and copies == [False, False]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError("oracle failed"), KeyboardInterrupt()],
                             ids=["exception", "interrupt"])
    def test_run_that_raises_leaves_out_untouched(self, monkeypatch, tmp_path, forks, no_hang,
                                                  error):
        from clipbench import cli

        writing(monkeypatch, True)
        monkeypatch.setattr(cli, "build_problem", lambda cfg, base: RaisingBernoulli(error))
        config, out = tmp_path / "run.cfg", tmp_path / "trace.csv"
        config.write_text(BERNOULLI_RUN + "T = 10000\n")
        out.write_bytes(b"an earlier trace\r\n")
        with pytest.raises(type(error)):
            cli.main(["run", "--config", str(config), "--out", str(out)])
        assert out.read_bytes() == b"an earlier trace\r\n"
        assert len(forks) == 1
        assert_no_child_left()

    @staticmethod
    def copied(writer, tmp_path, ts, columns) -> bytes:
        """The bytes ``writer.copy`` writes for records ``columns`` at
        iterations ``ts``, which it must take from the child."""
        out = tmp_path / "rows.csv"
        with open(out, "w", newline="") as f:
            assert writer.copy(f, ts, list(columns))
        return out.read_bytes()

    @staticmethod
    def formatted(writer, k):
        # the child has formatted the first k rows
        while writer._counts[1] < k:
            time.sleep(1e-3)

    def test_child_that_waits_at_the_pipe(self, tmp_path, forks, no_hang):
        # records stored and reported 1024 at a time, each report once the
        # child has formatted the last, so that it waits at the pipe; copy
        # ends the reports at the 5000 records, the last 904 unreported
        ts = np.arange(0, 10000, 2)
        columns = np.random.default_rng(0).standard_normal((4, ts.size))
        with _feed.RowWriter() as writer:
            records = writer.open(ts)
            assert records.shape == (4, ts.size, 1)
            for start in range(0, ts.size, _feed.REPORT_ROWS):
                stop = min(start + _feed.REPORT_ROWS, ts.size)
                records[:, start:stop, 0] = columns[:, start:stop]
                if stop < ts.size:
                    assert writer.report(stop) == stop + _feed.REPORT_ROWS
                    self.formatted(writer, stop)
                    time.sleep(5e-3)
            data = self.copied(writer, tmp_path, ts, columns)
        assert data == "".join(_feed.csv_rows(ts, columns)).encode()
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_copy_after_the_child_formatted_every_row(self, monkeypatch, tmp_path, forks,
                                                      no_hang):
        # the child has formatted the final count: the split is that count,
        # and the parent formats no row
        ts = np.arange(5000)
        columns = np.random.default_rng(1).standard_normal((4, ts.size))
        sizes, csv_rows = [], _feed.csv_rows
        with _feed.RowWriter() as writer:
            writer.open(ts)[:, :, 0] = columns
            writer.report(ts.size)
            self.formatted(writer, ts.size)
            # the parent's calls only: the child was forked before
            monkeypatch.setattr(_feed, "csv_rows",
                                lambda iters, cols: sizes.append(iters.size) or csv_rows(iters, cols))
            data = self.copied(writer, tmp_path, ts, columns)
        assert sizes == [0]
        assert data == "".join(csv_rows(ts, columns)).encode()
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_no_writer_for_a_batch(self):
        config = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=5)
        with _feed.RowWriter() as writer, pytest.raises(TypeError, match="single run"):
            run(BernoulliShiftQuadratic(a=4.0, p=0.25), optimizers.Cells([config]),
                writer=writer)


# Outcomes of the runs below at the engine that evaluated the exact oracle
# at every step, before a stochastic run held its iterates in chunks: each
# is the run's trace_digest and its divergence message (None where it
# finished) or, for a Cells batch, each cell's trace_digest and flag
FLOAT_DIV = ("2de1f86b1b89c3d0", "divergence at t=38: f=1685012905608.9526,"
             " |x|=1835762.005187463 (limit 1e+12)")
VECTOR_DIV = ("221bf61e8c215ad5", "divergence at t=30: f=1787787300749.4033,"
              " |x|=5979608.301219495 (limit 1e+12)")
STACK_DIV = [("2de1f86b1b89c3d0", True), ("f1bb84b36809925c", True),
             ("6d98e19056def637", True)]
MIXED_CELLS = [("7f1c74a50fdedce0", False), ("2de1f86b1b89c3d0", True),
               ("c9df018fb1367069", False)]


def outcome(prob, config):
    if isinstance(config, optimizers.Cells):
        return [(trace_digest(trace), diverged) for trace, diverged in run(prob, config)]
    try:
        return trace_digest(run(prob, config)), None
    except DivergenceError as exc:
        return trace_digest(exc.trace), str(exc)


def diverging(eta=2.5, x0=1.0, seed=1, **kw):
    """Unclipped SGD on the Bernoulli shift a=4, p=1/4: |x| grows about
    (eta - 1)-fold a step, and the guard stops eta = 2.5 at t = 38."""
    return cfg(**(dict(method="sgd", c=math.inf, eta=eta, T=400, x0=np.array([x0]), seed=seed)
                  | kw))


# the float, vector and row-stack representations: a problem, a run and the
# step at which it (its first cell) diverges
REPRESENTATIONS = {
    "float": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25), diverging, 38, FLOAT_DIV),
    "vector": (lambda: ChiSquareQuadratic(dim=3, L=0.1),
               lambda: cfg(method="sgd", c=math.inf, eta=25.0, T=400, B=2, x0=np.ones(3), seed=2),
               30, VECTOR_DIV),
    "stack": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
              lambda: optimizers.Cells([diverging(), diverging(2.2, 0.5, 2),
                                        diverging(2.8, -1.0, 3)]),
              38, STACK_DIV),
}


def mixed_cells():
    # the middle cell diverges at t = 38, the others finish
    return optimizers.Cells([diverging(0.05, 0.5, 3), diverging(), diverging(0.2, -2.0, 5)])


def stepping(method, eta, x0, c=math.inf):
    """A deterministic run on the Bernoulli shift a=4, p=1/4 (its minimizer
    is x = -1): past eta = 2 the unclipped steps grow |x + 1| (eta - 1)-fold."""
    return cfg(method=method, c=c, eta=eta, T=400, x0=np.array([x0]))


# Outcomes of deterministic runs at the engine that evaluated the exact
# oracle and the guard at every step of them, keyed by method and
# representation: a problem, a run, the step at which it (its first cell)
# diverges and the outcome. Each clipped run is clipped at the step before
# its divergence, and the third cell of each stack finishes
DETERMINISTIC = {
    "gd-float": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
                 lambda: stepping("gd", 2.5, 1.0), 34,
                 ("88f4843e6d9b4635", "divergence at t=34: f=1884671275406.1675,"
                  " |x|=1941478.4747329508 (limit 1e+12)")),
    "gd-vector": (lambda: ChiSquareQuadratic(dim=3, L=0.1),
                  lambda: cfg(method="gd", c=math.inf, eta=25.0, T=400, x0=np.ones(3)), 31,
                  ("36162cac445c3de5", "divergence at t=31: f=1501532341212.7583,"
                   " |x|=5480039.840950411 (limit 1e+12)")),
    "gd-stack": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
                 lambda: optimizers.Cells([stepping("gd", 2.5, 1.0), stepping("gd", 2.2, 0.5),
                                           stepping("gd", 2.8, -1.0)]), 34,
                 [("88f4843e6d9b4635", True), ("05794eef23dba448", True),
                  ("9e1e371ff8f7c552", False)]),
    "clipped_gd-float": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
                         lambda: stepping("clipped_gd", 3.0, 1.0, 1e6), 20,
                         ("855f389a1a2bbd03", "divergence at t=20: f=1904027813889.5,"
                          " |x|=1951423.0 (limit 1e+12)")),
    "clipped_gd-vector": (lambda: ChiSquareQuadratic(dim=3, L=0.1),
                          lambda: cfg(method="clipped_gd", c=2.4e5, eta=30.0, T=400,
                                      x0=np.ones(3)), 18,
                          ("0d3a861cafc61b3f", "divergence at t=18: f=1105789587153.2305,"
                           " |x|=4702725.681545578 (limit 1e+12)")),
    "clipped_gd-stack": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
                         lambda: optimizers.Cells([stepping("clipped_gd", 3.0, 1.0, 1e6),
                                                   stepping("clipped_gd", 3.2, 0.5, 1e6),
                                                   stepping("clipped_gd", 3.0, 1.0, 7e5)]), 20,
                         [("855f389a1a2bbd03", True), ("b6ac7f2d8aec051e", True),
                          ("37ab15f6464be4bc", False)]),
}


def deterministic_mixed_cells():
    # the middle cell diverges at t = 34, the others finish
    return optimizers.Cells([stepping("gd", 0.05, 0.5), stepping("gd", 2.5, 1.0),
                             stepping("gd", 0.2, -2.0)])


def holding(monkeypatch, config, steps):
    """Chunks of ``steps`` iterates for ``config``'s run."""
    configs = config.configs if isinstance(config, optimizers.Cells) else [config]
    monkeypatch.setattr(optimizers, "_HELD", steps * len(configs) * configs[0].x0.size)


class SampleRaisesPastTheGuard(BernoulliShiftQuadratic):
    """Its sample oracle raises at a point past 1e9, which a diverging run
    reaches only steps after the guard stops it."""

    def __init__(self):
        super().__init__(a=4.0, p=0.25)
        self.raised = 0

    def sample_grad_at(self, X, u):
        if np.max(np.abs(X)) > 1e9:
            self.raised += 1
            raise ValueError("a sample past the guard")
        return super().sample_grad_at(X, u)


class ChiSquareSampleRaisesPastTheGuard(ChiSquareQuadratic):
    def __init__(self):
        super().__init__(dim=3, L=0.1)
        self.raised = 0

    def sample_grad_at(self, X, Z):
        if np.max(np.abs(X)) > 1e9:
            self.raised += 1
            raise ValueError("a sample past the guard")
        return super().sample_grad_at(X, Z)


class ExactOracleLimits(BernoulliShiftQuadratic):
    """Its exact oracle raises at a stack of more than ``rows`` points, or
    at a point past ``limit``."""

    def __init__(self, rows=math.inf, limit=math.inf):
        super().__init__(a=4.0, p=0.25)
        self.rows, self.limit, self.raised = rows, limit, 0

    def value_and_grad(self, X):
        if np.ndim(X) == 2 and len(X) > self.rows or np.max(np.abs(X)) > self.limit:
            self.raised += 1
            raise ValueError(f"exact oracle past its limits at {np.max(np.abs(X))!r}")
        return super().value_and_grad(X)


class TestChunkedGuard:
    """A stochastic run evaluates the exact oracle and the guard once per
    chunk of held iterates, with the outcome of a run that evaluates them
    at every step: the same bits, messages and exceptions."""

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("representation", list(REPRESENTATIONS))
    def test_divergence_at_a_chunk_position(self, monkeypatch, representation, position):
        make_problem, make_config, t, want = REPRESENTATIONS[representation]
        steps = {"first": t // 2, "middle": 2 * t // 3, "last": t + 1}[position]
        row = t % steps
        assert {"first": row == 0, "middle": 0 < row < steps - 1,
                "last": row == steps - 1}[position]
        config = make_config()
        holding(monkeypatch, config, steps)
        assert outcome(make_problem(), config) == want

    @pytest.mark.parametrize("steps", [1, 7, 1024])
    def test_one_cell_diverges_mid_chunk_while_the_others_finish(self, monkeypatch, steps):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        config = mixed_cells()
        holding(monkeypatch, config, steps)
        assert outcome(prob, config) == MIXED_CELLS
        # each cell is its single run
        singles = [outcome(prob, one) for one in config.configs]
        assert [d for d, _ in singles] == [d for d, _ in MIXED_CELLS]
        assert singles[1] == FLOAT_DIV

    def test_thinned_runs_whose_budget_is_not_a_multiple(self, monkeypatch):
        # T = 400 records every third iterate and the last; the diverging run
        # stops between two recorded ones
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        finished = cfg(method="clipped_sgd", c=2.0, eta=0.05, T=400, thin=3,
                       x0=np.array([0.5]), seed=3)
        for steps in (1, 13, 1024):
            holding(monkeypatch, finished, steps)
            assert outcome(prob, finished) == ("86c9e37df11c0086", None)
            assert outcome(prob, diverging(thin=3)) == ("f6995981914f75ce", FLOAT_DIV[1])
            assert outcome(prob, optimizers.Cells([diverging(thin=3), diverging(0.05, seed=2,
                                                                                thin=3)])) == [
                ("f6995981914f75ce", True), ("75cf31f1de3d7a20", False)]

    def test_stacks_keep_their_largest_array_within_the_bound(self):
        # the logistic problem's (rows, n) margins size its stacks: one step
        # of an 18-cell sweep, _HELD // n rows of a single run
        prob = bundled_logistic()
        rows, value_and_grad = [], prob.value_and_grad
        prob.value_and_grad = lambda X: rows.append(len(X)) or value_and_grad(X)
        configs = [cfg(method="clipped_sgd", c=0.1, eta=1.0, T=40, x0=np.zeros(prob.meta.dim),
                       seed=seed) for seed in range(18)]
        run(prob, optimizers.Cells(configs))
        assert set(rows) == {18}
        rows.clear()
        run(prob, configs[0])
        assert max(rows) == optimizers._HELD // prob.n == 16
        # a deterministic sweep calls the oracle once a step, on the step's
        # own stack: the steps it holds are never stacked into the call
        rows.clear()
        run(prob, optimizers.Cells([cfg(method="clipped_gd", c=0.05 * (1 + i % 3),
                                        eta=0.5 * (1 + i // 3), T=40,
                                        x0=np.zeros(prob.meta.dim)) for i in range(18)]))
        assert rows == [18] * 41

    def test_fed_dp_sgd(self, monkeypatch, forks, no_hang):
        feeding(monkeypatch, True)
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=200, B=16, sigma_dp=1.0,
                     x0=np.full(100, 0.5), seed=3)
        assert outcome(prob, config) == ("578dcc2b7041cb12", None)
        assert forks == [os.getpid()]
        assert_no_child_left()

    @pytest.mark.parametrize("make_problem,config,want", [
        (SampleRaisesPastTheGuard, diverging, FLOAT_DIV),
        (ChiSquareSampleRaisesPastTheGuard, REPRESENTATIONS["vector"][1], VECTOR_DIV),
        (SampleRaisesPastTheGuard, mixed_cells, MIXED_CELLS),
    ], ids=["float", "vector", "stack"])
    @pytest.mark.parametrize("steps", [1, 1024])
    def test_sample_oracle_raising_after_a_divergence(self, monkeypatch, make_problem, config,
                                                      want, steps):
        # the held iterates are checked before the exception is: the run
        # ends in the divergence, and a batch's other cells take the step
        # again; a run that evaluates every step never meets the exception
        prob, config = make_problem(), config()
        holding(monkeypatch, config, steps)
        assert outcome(prob, config) == want
        assert prob.raised == (steps > 1)

    @pytest.mark.parametrize("config,want", [
        (diverging, FLOAT_DIV),
        (lambda: diverging(0.05, 0.5, 3), ("7f1c74a50fdedce0", None)),
        (mixed_cells, MIXED_CELLS),
    ], ids=["diverges", "finishes", "cells"])
    def test_batched_oracle_that_raises_takes_one_step_at_a_time(self, config, want):
        # an oracle that takes no stack of several steps' points
        prob = ExactOracleLimits(rows=3)
        assert outcome(prob, config()) == want
        assert prob.raised > 0

    @pytest.mark.parametrize("config", [diverging, mixed_cells], ids=["single", "cells"])
    def test_batched_oracle_raises_at_the_step_a_per_step_run_does(self, config):
        # past 1e3 the oracle raises at t = 20, before the guard stops the run
        # at t = 38; a limit of 1e9 lies past the guard
        with pytest.raises(ValueError) as info:
            run(ExactOracleLimits(limit=1e3), config())
        assert str(info.value) == ("exact oracle past its limits at"
                                   " np.float64(1235.474778175354)")
        want = FLOAT_DIV if config is diverging else MIXED_CELLS
        assert outcome(ExactOracleLimits(limit=1e9), config()) == want

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("name", list(DETERMINISTIC))
    def test_deterministic_divergence_at_a_chunk_position(self, monkeypatch, name, position):
        # a deterministic run holds its steps with the values and gradient
        # norms it evaluated at them, and checks them at the chunk's end
        make_problem, make_config, t, want = DETERMINISTIC[name]
        steps = {"first": t, "middle": 2 * t // 3, "last": t + 1}[position]
        row = t % steps
        assert {"first": row == 0, "middle": 0 < row < steps - 1,
                "last": row == steps - 1}[position]
        config = make_config()
        holding(monkeypatch, config, steps)
        assert outcome(make_problem(), config) == want

    @pytest.mark.parametrize("config", [lambda: stepping("gd", 2.5, 1.0),
                                        deterministic_mixed_cells], ids=["single", "cells"])
    def test_deterministic_oracle_raising_in_a_chunk(self, config):
        # past 1e3 the oracle raises at t = 16, before the guard stops the
        # run at t = 34: the held steps before it pass, and the exception
        # stands, from the one call that raised
        prob = ExactOracleLimits(limit=1e3)
        with pytest.raises(ValueError) as info:
            run(prob, config())
        assert str(info.value) == ("exact oracle past its limits at"
                                   " np.float64(1312.6816711425781)")
        assert prob.raised == 1
        # past 1e9 it raises at a step after the divergence: the held steps
        # end the diverged cell there, and the other cells take the step again
        want = (DETERMINISTIC["gd-float"][3] if config is not deterministic_mixed_cells
                else [("835f33f157a7528f", False), ("88f4843e6d9b4635", True),
                      ("cf6dd21e296cdf60", False)])
        prob = ExactOracleLimits(limit=1e9)
        assert outcome(prob, config()) == want

    @pytest.mark.parametrize("config", [lambda: stepping("gd", 2.5, 2e12),
                                        lambda: optimizers.Cells([stepping("gd", 2.5, 2e12),
                                                                  stepping("gd", 0.05, 0.5)])],
                             ids=["single", "cells"])
    def test_deterministic_oracle_raising_past_the_guard(self, config):
        # the oracle raises at x0, whose norm fails the guard: a step without
        # its values is not checked, and the exception stands
        with pytest.raises(ValueError, match=r"limits at np.float64\(2000000000000.0\)"):
            run(ExactOracleLimits(limit=1e12), config())


def splitting(monkeypatch, work=0):
    """Every batch of 4 or more cells whose work reaches ``work`` splits."""
    monkeypatch.setattr(optimizers, "_SPLIT", work)


def one_process(prob, cells):
    """Each cell's outcome, and whether its trace holds its own config, from
    a process that cannot fork."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_feed, "can_fork", lambda: False)
        return split_outcome(prob, cells)


def split_outcome(prob, cells):
    return [(trace_digest(trace), diverged, trace.config is config)
            for (trace, diverged), config in zip(run(prob, cells), cells.configs)]


def odd_and_even(method, K, eta=lambda i: (0.05, 2.5, 2.2, 0.2, 2.8, 3.0, 0.1)[i]):
    """K cells on the Bernoulli shift, from 1.0 and from -0.5 in turn: of
    seven, cells 1, 2, 4 and 5 diverge, at different steps, two in each
    share."""
    return Cells([cfg(method=method, c=math.inf, eta=eta(i), T=400,
                      x0=np.array([1.0 if i % 2 else -0.5]), seed=i) for i in range(K)])


class ChildOnly(BernoulliShiftQuadratic):
    """The Bernoulli shift whose exact oracle, in any process but the one
    that made it, calls ``act`` at its tenth call, counted from its making."""

    def __init__(self, act):
        super().__init__(a=4.0, p=0.25)
        self.act, self.pid, self.calls = act, os.getpid(), 0

    def value_and_grad(self, X):
        self.calls += 1
        if os.getpid() != self.pid and self.calls == 10:
            self.act()
        return super().value_and_grad(X)


class TestSplitBatch:
    """A large batch runs its odd cells in a forked child, with the bits,
    exceptions and configs of one process, and leaves no process behind
    however it ends."""

    @pytest.mark.parametrize("method", ["sgd", "gd"])
    @pytest.mark.parametrize("K", [4, 5, 7])
    def test_split_batch_matches_one_process(self, monkeypatch, forks, no_hang, method, K):
        prob, cells = BernoulliShiftQuadratic(a=4.0, p=0.25), odd_and_even(method, K)
        want = one_process(prob, cells)
        # cells diverge in both shares, at different steps
        assert {diverged for _, diverged, _ in want[::2]} == {False, True}
        assert {diverged for _, diverged, _ in want[1::2]} == {False, True}
        assert all(own for *_, own in want)
        splitting(monkeypatch)
        assert split_outcome(prob, cells) == want
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_bundled_logistic_sweep_splits_at_the_shipped_threshold(self, forks, no_hang):
        # 18 cells of 500 label-signed rows: 233 steps lie under 2**21, 234 above
        prob = bundled_logistic()
        for T, splits in ((233, False), (234, True)):
            cells = Cells([cfg(method="clipped_gd", c=0.05 * (1 + i % 3), eta=0.5 * (1 + i // 3),
                               T=T, x0=np.zeros(prob.meta.dim)) for i in range(18)])
            want = one_process(prob, cells)
            forks.clear()
            assert split_outcome(prob, cells) == want
            assert forks == [os.getpid()] * splits
        assert_no_child_left()

    @pytest.mark.parametrize("method,K,work,splits", [
        ("sgd", 4, 400 * 4, True), ("sgd", 4, 400 * 4 + 1, False), ("sgd", 3, 0, False),
        ("sgd", 2, 0, False), ("gd", 7, 1, False),
    ], ids=["at_the_work", "below_the_work", "three_cells", "two_cells",
            "deterministic_without_point_arrays"])
    def test_what_splits(self, monkeypatch, forks, no_hang, method, K, work, splits):
        # T * K * dim of a stochastic batch on the one-dimensional shift. A
        # share of one cell would be a single run, which may fork a feeder,
        # and a deterministic step on a problem with no arrays per point
        # (row_doubles = 0) costs each share about what it costs the batch
        prob, cells = BernoulliShiftQuadratic(a=4.0, p=0.25), odd_and_even(method, K)
        want = one_process(prob, cells)
        splitting(monkeypatch, work)
        assert split_outcome(prob, cells) == want
        assert forks == [os.getpid()] * splits
        assert_no_child_left()

    @pytest.mark.parametrize("share", ["child", "parent", "both"])
    def test_oracle_raising_in_a_share_raises_as_one_process(self, monkeypatch, forks, no_hang,
                                                            share):
        # past 1e3 the exact oracle raises before the guard stops a cell:
        # the child's or the parent's cells grow, or cells of both, where the
        # child's share raises first and the parent's with another message
        grow = {"child": lambda i: 2.5 if i % 2 else 0.05,
                "parent": lambda i: 0.05 if i % 2 else 2.5,
                "both": lambda i: 2.2 + 0.25 * (i % 2) + 0.05 * i}[share]
        cells = odd_and_even("gd", 5, grow)

        def raised():
            with pytest.raises(ValueError) as info:
                run(ExactOracleLimits(limit=1e3), cells)
            return str(info.value)

        with monkeypatch.context() as patch:
            patch.setattr(_feed, "can_fork", lambda: False)
            want = raised()
        splitting(monkeypatch)
        assert raised() == want
        assert forks == [os.getpid()]
        assert_no_child_left()

    @pytest.mark.parametrize("act", ["raise", "warn", "kill"])
    def test_child_that_fails_gives_the_in_process_bits(self, monkeypatch, capfd, forks,
                                                        no_hang, act):
        # a child that raises, warns or is killed mid-run: the parent runs
        # every cell, and nothing is printed. A warning fails the child
        # whatever the caller's filters, even where they ignore it
        def fail():
            if act == "raise":
                raise RuntimeError("the child's oracle failed")
            elif act == "warn":
                warnings.warn("the child's oracle warned", RuntimeWarning)
            else:
                os.kill(os.getpid(), signal.SIGKILL)

        cells = odd_and_even("gd", 7)
        alone = ChildOnly(fail)
        want = one_process(alone, cells)
        splitting(monkeypatch)
        prob = ChildOnly(fail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert split_outcome(prob, cells) == want
        # the parent ran its share, then every cell
        assert prob.calls > alone.calls
        assert forks == [os.getpid()]
        assert capfd.readouterr() == ("", "")
        assert_no_child_left()

    def test_refused_fork_runs_in_one_process(self, monkeypatch, forks):
        prob, cells = BernoulliShiftQuadratic(a=4.0, p=0.25), odd_and_even("sgd", 7)
        want = one_process(prob, cells)
        splitting(monkeypatch)

        def refused():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refused)
        opened = len(os.listdir("/proc/self/fd"))
        assert split_outcome(prob, cells) == want
        assert len(os.listdir("/proc/self/fd")) == opened

    def test_interrupt_reaps_the_child_and_propagates(self, monkeypatch, forks, no_hang):
        # the parent's share is interrupted at its fifth exact call; the
        # batch is not run again
        class Interrupted(BernoulliShiftQuadratic):
            calls = 0

            def value_and_grad(self, X):
                self.calls += 1
                if self.calls == 5:
                    raise KeyboardInterrupt
                return super().value_and_grad(X)

        prob, cells = Interrupted(a=4.0, p=0.25), odd_and_even("gd", 7)
        splitting(monkeypatch)
        opened = len(os.listdir("/proc/self/fd"))
        with pytest.raises(KeyboardInterrupt):
            run(prob, cells)
        assert prob.calls == 5 and forks == [os.getpid()]
        assert len(os.listdir("/proc/self/fd")) == opened
        assert_no_child_left()


def settled(call):
    """``call()``, or ``("raised", type, message)`` of the Exception it
    raises."""
    try:
        return call()
    except Exception as exc:
        return "raised", type(exc), str(exc)


class FaultyDraws(ChiSquareQuadratic):
    """Chi-square draws whose call ``at`` and every later one raise in every
    process (``child_raises``) or kill any process but the one that made
    the problem (``child_killed``)."""

    def __init__(self, fault, at=11):
        super().__init__(dim=100, L=0.1)
        self.fault, self.at, self.pid, self.calls = fault, at, os.getpid(), 0

    def draws(self, rng, k):
        self.calls += 1
        if self.calls >= self.at and self.fault == "child_raises":
            raise ValueError("no more draws")
        if self.calls >= self.at and self.fault == "child_killed" and os.getpid() != self.pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().draws(rng, k)


def child_work(monkeypatch, tmp_path, child, fault):
    """A call that does the work ``child`` helps with, from new objects, with
    ``fault`` armed in that work, and returns its ``settled`` outcome and
    what else the work leaves; the child is forced, and it forks where
    ``_feed.can_fork`` holds."""
    if child == "writer":
        # the rows of a 5001-row trace; the child formats from row 0
        writing(monkeypatch, True)
        parent, csv_rows = os.getpid(), _feed.csv_rows

        def faulty_rows(iters, columns):
            if fault == "child_raises" and iters.size and iters[0] <= 3000 <= iters[-1]:
                raise RuntimeError("no row 3000")
            in_child = os.getpid() != parent
            if fault == "child_killed" and in_child and iters.size and iters[0] >= 2048:
                os.kill(os.getpid(), signal.SIGKILL)
            return csv_rows(iters, columns)

        monkeypatch.setattr(_feed, "csv_rows", faulty_rows)
        return lambda: (settled(lambda: cli_trace(tmp_path, BERNOULLI_RUN + "T = 5000\n")),
                        (tmp_path / "trace.csv").read_bytes())
    if child == "split":
        splitting(monkeypatch)
        # where the work raises, the child's cells grow past the oracle's
        # limit and the parent's do not
        make, cells = {
            "fork_refused": (lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
                             odd_and_even("sgd", 7)),
            "child_raises": (lambda: ExactOracleLimits(limit=1e3),
                             odd_and_even("gd", 5, lambda i: 2.5 if i % 2 else 0.05)),
            "child_killed": (lambda: ChildOnly(lambda: os.kill(os.getpid(), signal.SIGKILL)),
                             odd_and_even("gd", 7)),
        }[fault]
        return lambda: (settled(lambda: split_outcome(make(), cells)), None)
    # a fed run, or a Monte Carlo estimate of 31 chunks; the draws fail at
    # their eleventh call, the child's tenth
    feeding(monkeypatch, True)
    x = np.full(100, -9.0)
    calls = {
        "fed_run": lambda prob: trace_digest(run(prob, cfg(
            method="dp_sgd", c=14.0, eta=0.01, T=400, B=16, sigma_dp=1.0, x0=np.zeros(100),
            seed=3))),
        "fed_expected_clipped_grad": lambda prob: expected_clipped_grad(
            prob, x, 14.0, n_samples=5000, seed=4).value.tobytes(),
        "fed_clip_probability_bound": lambda prob: clip_probability_bound(
            prob, x, 14.0, n_samples=5000, seed=4)._astuple(),
    }

    def fed_work():
        prob = FaultyDraws(fault)
        return settled(lambda: calls[child](prob)), prob.calls

    return fed_work


class RaisingDraws(ChiSquareQuadratic):
    """Chi-square draws that raise at every call."""

    def __init__(self):
        super().__init__(dim=100, L=0.1)

    def draws(self, rng, k):
        raise ValueError("no draws")


class WarningDraws(ChiSquareQuadratic):
    """Chi-square draws that warn at every 50th call: never at the first,
    which a fed run makes in its own process."""

    def __init__(self):
        super().__init__(dim=100, L=0.1)
        self.calls = 0

    def draws(self, rng, k):
        self.calls += 1
        if not self.calls % 50:
            warnings.warn(f"draw call {self.calls}", RuntimeWarning)
        return super().draws(rng, k)


class TestChildContract:
    """Whatever happens to a forked child (the system refuses its fork, its
    work raises or warns, or it is killed mid-work) the caller gives the
    outputs, exceptions and warnings of one process and leaves no child and
    no descriptor; and no child outlives a parent that is killed."""

    def test_first_draw_that_raises_meets_the_guard(self, monkeypatch, forks, no_hang):
        # the run starts past the guard, and its first draw raises: fed
        # (1000 steps of 17 x 100 doubles pass 2**20), with the fork refused
        # and below the feed size, step 0's divergence ends it, and no
        # child is forked for a draw that the first step makes
        def outcome(T):
            with pytest.raises(DivergenceError) as info:
                run(RaisingDraws(), cfg(method="dp_sgd", c=14.0, eta=0.01, T=T, B=16,
                                        sigma_dp=1.0, x0=np.full(100, 1e7)))
            return str(info.value), trace_digest(info.value.trace)

        want = outcome(100)
        assert want[0].startswith("divergence at t=0: ")
        with monkeypatch.context() as patch:
            patch.setattr(_feed, "can_fork", lambda: False)
            assert outcome(1000) == want
        assert outcome(1000) == want
        assert forks == []
        assert_no_child_left()

    def test_warnings_of_a_fed_run(self, monkeypatch, forks, no_hang):
        # the child fails at the draw that warns, and the parent makes the
        # draws from its block on itself: the caller records each warning
        # once, as from one process
        feeding(monkeypatch, True)
        config = cfg(method="dp_sgd", c=14.0, eta=0.01, T=300, B=16, sigma_dp=1.0,
                     x0=np.zeros(100), seed=3)

        def outcome():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                digest = trace_digest(run(WarningDraws(), config))
            return digest, [(w.category, str(w.message)) for w in caught]

        with monkeypatch.context() as patch:
            patch.setattr(_feed, "can_fork", lambda: False)
            want = outcome()
        assert [message for _, message in want[1]] == [f"draw call {50 * k}" for k in range(1, 7)]
        assert forks == []
        assert outcome() == want
        assert forks == [os.getpid()]
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["fork_refused", "child_raises", "child_killed"])
    @pytest.mark.parametrize("child", ["fed_run", "fed_expected_clipped_grad",
                                       "fed_clip_probability_bound", "writer", "split"])
    def test_one_process_outcome(self, monkeypatch, tmp_path, forks, no_hang, child, fault):
        work = child_work(monkeypatch, tmp_path, child, fault)
        with monkeypatch.context() as patch:
            patch.setattr(_feed, "can_fork", lambda: False)
            want = work()
        assert forks == []
        # the raising work raises in one process too
        assert (want[0][:1] == ("raised",)) == (fault == "child_raises")
        if fault == "fork_refused":
            def refused():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", refused)
        opened = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert work() == want
        assert forks == ([] if fault == "fork_refused" else [os.getpid()])
        assert len(os.listdir("/proc/self/fd")) == opened
        assert_no_child_left()

    @pytest.mark.parametrize("child", ["split", "fed", "writer"])
    def test_no_child_outlives_its_parent(self, tmp_path, no_hang, child):
        # a process whose child hangs in its work, which the child announces,
        # is SIGKILLed: the child dies with it, within a second
        import subprocess
        import sys
        import time
        from pathlib import Path

        src = str(Path(_feed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", ORPHAN, child, str(tmp_path)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            pid = int(proc.stdout.readline())
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

        def alive():
            # a zombie has died, and waits for whichever process inherited it
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 1.0
        while alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            assert not alive()
        finally:
            if alive():
                os.kill(pid, signal.SIGKILL)


# python -c ORPHAN {split,fed,writer} DIR: the work whose child is forced;
# the child prints its pid and hangs as it starts its share of the work
ORPHAN = """
import os, sys, time
import numpy as np
from clipbench import _feed, cli, optimizers, problems

origin = os.getpid()


def hang():
    if os.getpid() != origin:
        print(os.getpid(), flush=True)
        time.sleep(60)


class Hanging(problems.ChiSquareQuadratic):
    def value_and_grad(self, X):
        hang()
        return super().value_and_grad(X)

    def draws(self, rng, k):
        hang()
        return super().draws(rng, k)


child, where = sys.argv[1], sys.argv[2]
if child == "split":
    optimizers._SPLIT = 0
    optimizers.run(Hanging(dim=4), optimizers.Cells([
        optimizers.RunConfig("clipped_gd", 1.0, 0.1, 100, np.ones(4)) for _ in range(4)]))
elif child == "fed":
    _feed.MIN_DOUBLES = 0
    optimizers.run(Hanging(dim=100), optimizers.RunConfig(
        "dp_sgd", 14.0, 0.01, 400, np.zeros(100), B=16, sigma_dp=1.0))
else:
    rows = _feed.csv_rows
    _feed.csv_rows = lambda iters, columns: hang() or rows(iters, columns)
    with open(os.path.join(where, "run.cfg"), "w") as config:
        config.write("mode = run\\nproblem = quadratic\\ndim = 1\\nmethod = clipped_gd\\nc = 1\\n"
                     "eta = 0.1\\nT = 5000\\nx0 = 1\\nseeds = 0\\n")
    cli.main(["run", "--config", config.name, "--out", os.path.join(where, "trace.csv")])
"""
