"""Each argument rule of ``clipbench._record`` at every entry point that
states it: one wording, the rejected values and the accepted boundaries."""

import math
from pathlib import Path

import numpy as np
import pytest

from clipbench import cli
from clipbench.core import clip, clip_coefficient
from clipbench.data_ingest import parse_libsvm
from clipbench.optimizers import RunConfig
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Quadratic,
)
from clipbench.theory import (
    RateParams,
    bias_floor,
    bound_det_strongly_convex,
    certify_smoothness,
    clip_probability_bound,
    dp_noise_calibration,
    exact_fixed_point,
    expected_clipped_grad,
    max_stepsize,
)

BERNOULLI = BernoulliShiftQuadratic(a=4.0, p=0.25)
CHI_SQUARE = ChiSquareQuadratic(dim=2)
PARAMS = RateParams(c=1.0, eta=0.1, T=10, R0=1.0, L=1.0, L0=1.0, mu=1.0)


def run_config(**k):
    return RunConfig(**({"method": "clipped_sgd", "c": 1.0, "eta": 0.1, "T": 5,
                         "x0": np.zeros(1)} | k))


def rate_params(**k):
    return RateParams(**({"c": 1.0, "eta": 0.1, "T": 10} | k))


def dp_calibration(**k):
    return dp_noise_calibration(**({"c": 1.0, "d": 10, "T": 100, "epsilon": 1.0,
                                    "delta": 1e-5} | k))


def certify(**k):
    return certify_smoothness(Quadratic(dim=2), **({"L0": 1.0, "L1": 0.0, "n_pairs": 4} | k))


def cmd_certify(tmp_path, **k):
    cfg = {"problem": "quadratic", "_dir": Path(tmp_path)} | k
    return cli.cmd_certify(cfg, Path(tmp_path, "certify.txt"))


def logistic(**k):
    return LogisticRegressionProblem(parse_libsvm("+1 1:1\n-1 2:1\n"), **k)


THRESHOLD = {
    "clip": lambda c: clip([1.0, 2.0], c),
    "clip_coefficient": lambda c: clip_coefficient([1.0, 2.0], c),
    "RateParams": lambda c: rate_params(c=c),
    "max_stepsize": lambda c: max_stepsize("det_convex", 1.0, 1.0, c),
    "bias_floor": lambda c: bias_floor(1.0, c),
    "exact_fixed_point": lambda c: exact_fixed_point(BERNOULLI, c),
    "expected_clipped_grad": lambda c: expected_clipped_grad(CHI_SQUARE, [0.0, 0.0], c,
                                                             n_samples=10),
    "clip_probability_bound": lambda c: clip_probability_bound(CHI_SQUARE, [0.0, 0.0], c,
                                                               n_samples=10),
    "dp_noise_calibration": lambda c: dp_calibration(c=c),
}

# name in the message -> entry points taking the value
POSITIVE = {
    "clipping threshold": THRESHOLD,
    "epsilon": {"dp_noise_calibration": lambda v: dp_calibration(epsilon=v)},
}
FINITE_POSITIVE = {
    "eta": {"RunConfig": lambda v: run_config(eta=v),
            "RateParams": lambda v: rate_params(eta=v)},
    "epsilon": {"bound_det_strongly_convex": lambda v: bound_det_strongly_convex(PARAMS, v)},
    "radius_scale": {"certify_smoothness": lambda v: certify(radius_scale=v)},
    "L": {"Quadratic": lambda v: Quadratic(dim=2, L=v),
          "ChiSquareQuadratic": lambda v: ChiSquareQuadratic(dim=2, L=v)},
    "shift a": {"BernoulliShiftQuadratic": lambda v: BernoulliShiftQuadratic(a=v, p=0.25)},
}
FINITE_NONNEGATIVE = {
    "sigma_dp": {"RunConfig": lambda v: run_config(method="dp_sgd", sigma_dp=v)},
    "sigma": {"bias_floor": lambda v: bias_floor(v, 1.0)},
    "ridge weight": {"LogisticRegressionProblem": lambda v: logistic(lam=v)},
}
# name -> (lowest count, entry points taking it)
COUNTS = {
    "T": (0, {"RunConfig": lambda v: run_config(T=v)}),
    "B": (1, {"RunConfig": lambda v: run_config(B=v),
              "RateParams": lambda v: rate_params(B=v)}),
    "thin": (1, {"RunConfig": lambda v: run_config(thin=v)}),
    "n_pairs": (1, {"certify_smoothness": lambda v: certify(n_pairs=v)}),
    "n_samples": (1, {
        f"{name}-{prob}": lambda v, e=estimator, p=problem: e(p, np.zeros(p.meta.dim), 1.0,
                                                             n_samples=v)
        for name, estimator in (("expected_clipped_grad", expected_clipped_grad),
                                ("clip_probability_bound", clip_probability_bound))
        for prob, problem in (("chi_square", CHI_SQUARE), ("bernoulli", BERNOULLI))}),
    "d": (1, {"dp_noise_calibration": lambda v: dp_calibration(d=v)}),
    "dim": (1, {"Quadratic": lambda v: Quadratic(dim=v),
                "ChiSquareQuadratic": lambda v: ChiSquareQuadratic(dim=v)}),
}
# RateParams and dp_noise_calibration both count T from 1
COUNTS_FROM_ONE_T = {"RateParams": lambda v: rate_params(T=v),
                     "dp_noise_calibration": lambda v: dp_calibration(T=v)}


def cases(table, values):
    return [pytest.param(name, entry, value, id=f"{where}-{name}-{value!r}")
            for name, entries in table.items() for where, entry in entries.items()
            for value in values]


def rejects(entry, value, message):
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("name,entry,value",
                         cases(POSITIVE, [math.nan, -1.0, 0, 0.0, -math.inf]))
def test_positive(name, entry, value):
    rejects(entry, value, f"{name} must be positive, got {float(value)!r}")


@pytest.mark.parametrize("name,entry,value",
                         cases(FINITE_POSITIVE, [math.nan, -1.0, 0, 0.0, math.inf]))
def test_finite_positive(name, entry, value):
    rejects(entry, value, f"{name} must be finite and positive, got {float(value)!r}")


@pytest.mark.parametrize("name,entry,value",
                         cases(FINITE_NONNEGATIVE, [math.nan, -1.0, math.inf, -math.inf]))
def test_finite_nonnegative(name, entry, value):
    rejects(entry, value, f"{name} must be finite and nonnegative, got {float(value)!r}")


@pytest.mark.parametrize("name,low,entry,value", [
    pytest.param(name, low, entry, value, id=f"{where}-{name}-{value!r}")
    for name, (low, entries) in (*COUNTS.items(), ("T", (1, COUNTS_FROM_ONE_T)))
    for where, entry in entries.items() for value in dict.fromkeys((low - 1, -1))
])
def test_count(name, low, entry, value):
    rejects(entry, value, f"{name} must be >= {low}, got {value!r}")


@pytest.mark.parametrize("value", [-1, -5])
def test_count_fd_points(tmp_path, value):
    with pytest.raises(ValueError) as exc:
        cmd_certify(tmp_path, fd_points=value)
    assert str(exc.value) == f"fd_points must be >= 0, got {value!r}"
    assert not Path(tmp_path, "certify.txt").exists()


class TestAcceptedBoundaries:
    def test_infinite_threshold_clips_nothing(self):
        u = np.array([3.0, 4.0])
        assert np.array_equal(clip(u, math.inf), u)
        assert clip_coefficient(u, math.inf) == 1.0
        assert rate_params(c=math.inf).c == math.inf
        assert bias_floor(1.0, math.inf) == 0.0

    def test_zero_noise_and_zero_budget(self):
        assert run_config(method="dp_sgd", sigma_dp=0.0).sigma_dp == 0.0
        assert run_config(T=0).T == 0
        assert bias_floor(0.0, 1.0) == 0.0
        assert logistic(lam=0.0).lam == 0.0

    def test_no_gradient_check_points(self, tmp_path):
        assert cmd_certify(tmp_path, fd_points=0) == cli.EXIT_OK
        text = Path(tmp_path, "certify.txt").read_text()
        assert "gradient_check" not in text and "status=pass" in text

    def test_infinite_privacy_budget_needs_no_noise(self):
        assert dp_calibration(epsilon=math.inf) == 0.0
