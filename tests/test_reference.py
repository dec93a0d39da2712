"""A reference stepper, the specification of the iteration engine, and the
engine checked against it bit for bit.

:func:`reference` is what ``optimizers.run`` computes for one
configuration, written one step at a time with none of the engine's
machinery: no served or fed draws, no chunks of held steps, no stacks, no
float representation. It shares with the engine only ``RunConfig``, the
problems' single-point oracles and ``core.clip_vector``. At every step
``t`` it

- evaluates ``value_and_grad`` at the iterate and applies the divergence
  guard: ``|f| <= 1e12``, a finite gradient norm and ``|x| <= 1e12``;
  the first step that fails it ends the run, with the records of the
  steps before it, its iterate as the final point and the message
  ``divergence at t=...``;
- steps along the clipped exact gradient (``gd``, ``clipped_gd``), or
  draws ``B`` samples with ``sample_grad`` from a Philox stream built
  afresh under the key ``seed mod 2**64`` at the counter ``(0, 0, t,
  0)``, clips each with ``clip_vector`` and sums them in order, divided
  by ``B``; ``dp_sgd`` adds normal noise of total scale ``sigma_dp``
  from the counter ``(0, 0, t, 1)``;
- records ``(t, f, |grad|, |applied|, clipped fraction)`` at every
  ``thin``-th step and at ``T``, where nothing is applied.

``max_per_sample_norm`` is the largest norm of a clipped sample over the
steps taken.
"""

import math
import os

import numpy as np
import pytest

from clipbench import _feed
from clipbench.core import clip_vector
from clipbench.data_ingest import bundled_dataset_path, parse_libsvm
from clipbench.optimizers import Cells, DivergenceError, RunConfig, run
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Quadratic,
)

LIMIT = 1e12


def philox(seed: int, t: int, lane: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed % 2**64, counter=[0, 0, t, lane]))


def reference(problem, config: RunConfig) -> dict:
    """Every field of the trace ``run(problem, config)`` gives, with the
    message of the divergence that stopped it (None where it finished)."""
    x, T, B = config.x0.copy(), config.T, config.B
    recorded = set(range(0, T + 1, config.thin)) | {T}
    rows, top_sq, message = [], 0.0, None
    for t in range(T + 1):
        f, g = problem.value_and_grad(x)
        f, grad_norm, x_norm = float(f), math.sqrt(g @ g), math.sqrt(x @ x)
        if not (abs(f) <= LIMIT and grad_norm < math.inf and not x_norm > LIMIT):
            message = f"divergence at t={t}: f={f!r}, |x|={x_norm!r} (limit {LIMIT:g})"
            break
        applied_norm = frac = 0.0
        if t < T:
            if config.method in ("gd", "clipped_gd"):
                clipped = [clip_vector(g, config.c)]
            else:
                rng = philox(config.seed, t, 0)
                clipped = [clip_vector(problem.sample_grad(x, rng), config.c) for _ in range(B)]
                top_sq = max(top_sq, *(sq for _, sq, _ in clipped))
            applied = clipped[0][0]
            for v, _, _ in clipped[1:]:
                applied = applied + v
            applied = applied / len(clipped)
            if config.method == "dp_sgd":
                noise = philox(config.seed, t, 1).standard_normal(x.size)
                applied = applied + noise * (config.sigma_dp / math.sqrt(x.size))
            applied_norm = math.sqrt(applied @ applied)
            frac = sum(rescaled for _, _, rescaled in clipped) / len(clipped)
        if t in recorded:
            rows.append((t, f, grad_norm, applied_norm, frac))
        if t < T:
            x = x - config.eta * applied
    iters, *columns = zip(*rows) if rows else ((),) * 5
    return dict(iters=np.array(iters, dtype=np.int64),
                **{name: np.array(column, dtype=float) for name, column in zip(
                    ("f_vals", "grad_norms", "applied_norms", "clipped_fracs"), columns)},
                final_point=x, max_per_sample_norm=math.sqrt(top_sq), message=message)


def bits(fields: dict) -> dict:
    """The fields with each array as its dtype and bytes and each float as
    its hex form, so that equal means bit for bit."""
    return {name: (value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray)
            else value.hex() if isinstance(value, float) else value
            for name, value in fields.items()}


def engine(trace, message) -> dict:
    return dict(iters=trace.iters, f_vals=trace.f_vals, grad_norms=trace.grad_norms,
                applied_norms=trace.applied_norms, clipped_fracs=trace.clipped_fracs,
                final_point=trace.final_point, max_per_sample_norm=trace.max_per_sample_norm,
                message=message)


def single(problem, config: RunConfig) -> dict:
    try:
        return engine(run(problem, config), None)
    except DivergenceError as exc:
        return engine(exc.trace, str(exc))


class RaisingDraws(ChiSquareQuadratic):
    """Chi-square draws that raise at every call."""

    def draws(self, rng, k):
        raise ValueError("no draws")


def logistic():
    return LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()))


def bernoulli():
    return BernoulliShiftQuadratic(a=4.0, p=0.25)


def one(x):
    return np.array([x])


# (problem, config): one-sample Bernoulli runs are floats and, past 128
# steps, served; 700 chi-square DP-SGD steps at B = 16 and d = 100 draw
# 1.19e6 doubles, which are fed
CASES = {
    "bernoulli_clipped_sgd": (bernoulli, dict(method="clipped_sgd", c=2.0, eta=0.05, T=3000,
                                              x0=one(1.0), seed=5)),
    "bernoulli_sgd_diverges": (bernoulli, dict(method="sgd", c=math.inf, eta=2.5, T=200,
                                               x0=one(1.0), seed=1)),
    "bernoulli_B3_thin7": (bernoulli, dict(method="clipped_sgd", c=2.0, eta=0.05, T=600, B=3,
                                           thin=7, x0=one(-0.5), seed=2)),
    "chi_square_dp_sgd_fed": (lambda: ChiSquareQuadratic(dim=100, L=0.1), dict(
        method="dp_sgd", c=14.0, eta=0.01, T=700, B=16, sigma_dp=1.0,
        x0=np.full(100, 0.5), seed=3)),
    "chi_square_clipped_sgd": (lambda: ChiSquareQuadratic(dim=100, L=0.1), dict(
        method="clipped_sgd", c=14.0, eta=0.01, T=400, x0=np.full(100, -2.0), seed=4)),
    "logistic_clipped_sgd_B4": (logistic, dict(method="clipped_sgd", c=0.5, eta=0.5, T=120,
                                               B=4, x0=np.zeros(60), seed=6)),
    "logistic_clipped_gd": (logistic, dict(method="clipped_gd", c=0.5, eta=1.0, T=120,
                                           x0=np.full(60, 0.1))),
    "quadratic_gd_diverges": (lambda: Quadratic(dim=3, L=1.0), dict(
        method="gd", c=math.inf, eta=2.5, T=100, x0=np.array([1.0, -2.0, 0.5]))),
    "first_draw_raises": (lambda: RaisingDraws(dim=100, L=0.1), dict(
        method="dp_sgd", c=14.0, eta=0.01, T=1000, B=16, sigma_dp=1.0,
        x0=np.full(100, 1e7))),
}


@pytest.mark.parametrize("case", list(CASES))
def test_single_run_is_the_reference(case):
    make, settings = CASES[case]
    config = RunConfig(**settings)
    want = reference(make(), config)
    assert bits(single(make(), config)) == bits(want)


@pytest.mark.parametrize("case", list(CASES))
def test_five_seed_batch_is_the_reference(case):
    make, settings = CASES[case]
    configs = [RunConfig(**(settings | dict(seed=seed))) for seed in range(10, 15)]
    got = run(make(), Cells(configs))
    for config, (trace, diverged) in zip(configs, got):
        want = reference(make(), config)
        assert trace.config is config
        assert bits(engine(trace, None) | dict(message=diverged)) == bits(
            want | dict(message=want["message"] is not None))


def test_cases_take_the_paths_they_name(monkeypatch):
    # the fed case forks its feeder where the process may fork; the
    # divergent cases diverge and the others finish, so that both outcomes
    # are checked
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    make, settings = CASES["chi_square_dp_sgd_fed"]
    single(make(), RunConfig(**settings))
    assert len(forks) == _feed.can_fork()
    outcomes = {case: reference(make(), RunConfig(**settings))["message"]
                for case, (make, settings) in CASES.items()}
    assert {case for case, message in outcomes.items() if message} == {
        "bernoulli_sgd_diverges", "quadratic_gd_diverges", "first_draw_raises"}
    assert outcomes["first_draw_raises"].startswith("divergence at t=0: ")
