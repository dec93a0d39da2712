import hashlib
import math

import numpy as np
import pytest

from clipbench.optimizers import RunConfig, run
from clipbench.core import clip
from clipbench.data_ingest import bundled_dataset_path, parse_libsvm
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Quadratic,
)
from clipbench.theory import (
    LowerBoundInstance,
    RateParams,
    bias_floor,
    bound_det_convex,
    bound_det_strongly_convex,
    bound_dp_sgd,
    bound_stoch_nonconvex,
    build_lower_bound_large_c,
    build_lower_bound_small_c,
    certify_smoothness,
    clip_probability_bound,
    det_convex_gap_bound,
    dp_noise_calibration,
    exact_fixed_point,
    expected_clipped_grad,
    max_stepsize,
    max_local_smoothness,
    trajectory_smoothness,
)

SQRT3 = math.sqrt(3.0)


def bisect_fixed_point(a, p, c, iters=200):
    """Independent root finder for the expected clipped gradient
    (1-p) clip(x) + p clip(x + a) on [-a, 0]."""

    def h(x):
        lo = max(min(x, c), -c)
        hi = max(min(x + a, c), -c)
        return (1.0 - p) * lo + p * hi

    lo, hi = -a, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMaxStepsize:
    def test_nonconvex_constant(self):
        assert max_stepsize("det_nonconvex", 1.0, 0.0, 1.0) == pytest.approx(1.0 / 9.0, abs=0)
        assert max_stepsize("stoch_nonconvex", 2.0, 0.0, 5.0) == pytest.approx(1.0 / 18.0)

    def test_convex_uses_proof_factor_two(self):
        assert max_stepsize("det_convex", 1.0, 1.0, 1.0) == pytest.approx(0.25, abs=0)
        assert max_stepsize("det_strongly_convex", 1.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_threshold_c_independent_when_l1_zero(self):
        for c in (0.01, 1.0, 100.0, math.inf):
            assert max_stepsize("det_nonconvex", 2.0, 0.0, c) == pytest.approx(1.0 / 18.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            max_stepsize("det_nonconvex", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError) as exc:
            max_stepsize("unknown", 1.0, 0.0, 1.0)
        assert str(exc.value) == (
            "unknown theorem 'unknown', expected one of ('det_nonconvex', 'det_convex',"
            " 'det_strongly_convex', 'stoch_nonconvex', 'dp_sgd')")


class TestBoundDetConvex:
    def test_arithmetic_example(self):
        params = RateParams(c=1.0, eta=0.5, T=99, R0=1.0, L=1.0, L0=1.0)
        report = bound_det_convex(params)
        assert report.predicted == pytest.approx(0.0416, abs=1e-15)
        assert report.stepsize_ok
        assert report.constants_source == "paper_explicit"

    def test_infinite_c_drops_tail(self):
        params = RateParams(c=math.inf, eta=0.5, T=99, R0=1.0, L=1.0, L0=1.0)
        assert bound_det_convex(params).predicted == pytest.approx(2.0 / (0.5 * 100))

    def test_decays_to_zero(self):
        small = bound_det_convex(
            RateParams(c=1.0, eta=0.5, T=10**9, R0=1.0, L=1.0, L0=1.0)
        ).predicted
        assert small < 1e-8

    def test_stepsize_gate(self):
        report = bound_det_convex(RateParams(c=1.0, eta=0.6, T=10, R0=1.0, L=1.0, L0=1.0))
        assert not report.stepsize_ok  # above 1/(2 L0)

    def test_per_iterate_bound_is_the_final_bound_at_each_t(self):
        params = RateParams(c=0.3, eta=0.5, T=40, R0=2.0, L=1.5, L0=1.5)
        ts = np.arange(1, 41)
        per_iterate = det_convex_gap_bound(params, ts, L_override=2.5)
        for t, level in zip(ts, per_iterate):
            at_t = RateParams(c=0.3, eta=0.5, T=int(t), R0=2.0, L=1.5, L0=1.5)
            assert level == bound_det_convex(at_t, L_override=2.5).predicted
        assert det_convex_gap_bound(params, 40) == bound_det_convex(params).predicted

    @pytest.mark.parametrize("c", [0.01, 0.1, 1.0])
    def test_true_upper_bound_unit_quadratic(self, c):
        # proven bound: holds with zero tolerance along the whole run
        prob = Quadratic(dim=1, L=1.0)
        eta = 1.0 / (2.0 * prob.meta.L0)
        config = RunConfig(method="clipped_gd", c=c, eta=eta, T=2000, x0=np.array([1.0]))
        trace = run(prob, config)
        for t, f in zip(trace.iters, trace.f_vals):
            if t < 1:
                continue
            bound = 2.0 / (eta * (t + 1)) + 4.0 / (eta**2 * c**2 * (t + 1) ** 2)
            assert f - 0.0 <= bound

    def test_true_upper_bound_logistic_with_long_run_oracle(self):
        # ridge-regularized logistic: f* and x* have no closed form, so a
        # long unclipped run supplies the oracle values
        from clipbench.data_ingest import parse_libsvm
        from clipbench.problems import LogisticRegressionProblem

        text = "\n".join(
            f"{'+1' if i % 3 else '-1'} {1 + i % 4}:1 {5 + i % 3}:0.5" for i in range(12)
        )
        prob = LogisticRegressionProblem(parse_libsvm(text), lam=0.1)
        x0 = np.zeros(prob.meta.dim)
        oracle = run(prob, RunConfig(method="gd", c=math.inf, eta=1.0 / prob.meta.L,
                                     T=4000, x0=x0))
        f_star = float(oracle.f_vals[-1])
        r0 = float(np.linalg.norm(x0 - oracle.final_point))
        eta = 1.0 / (2.0 * prob.meta.L0)
        c = 0.05
        trace = run(prob, RunConfig(method="clipped_gd", c=c, eta=eta, T=1500, x0=x0))
        for t, f in zip(trace.iters, trace.f_vals):
            if t < 1:
                continue
            bound = (
                2.0 * r0**2 / (eta * (t + 1))
                + 4.0 * prob.meta.L * r0**4 / (eta**2 * c**2 * (t + 1) ** 2)
            )
            assert f - f_star <= bound

    def test_true_upper_bound_shifted_quadratic(self):
        prob = ChiSquareQuadratic(dim=3, L=0.5)
        eta = 1.0 / (2.0 * prob.meta.L0)
        x0 = np.zeros(3)
        r0 = float(np.linalg.norm(x0 - prob.meta.x_star))
        c = 0.2
        trace = run(prob, RunConfig(method="clipped_gd", c=c, eta=eta, T=3000, x0=x0))
        for t, f in zip(trace.iters, trace.f_vals):
            if t < 1:
                continue
            bound = (
                2.0 * r0**2 / (eta * (t + 1))
                + 4.0 * prob.meta.L * r0**4 / (eta**2 * c**2 * (t + 1) ** 2)
            )
            assert f - prob.meta.f_star <= bound


class TestBoundDetStronglyConvex:
    def test_already_at_accuracy(self):
        params = RateParams(c=1.0, eta=0.1, T=10, R0=1.0, L=1.0, L0=1.0, mu=1.0)
        assert bound_det_strongly_convex(params, epsilon=1.0).predicted == 0.0

    def test_halving_route_arithmetic(self):
        # mu=1, L=1, eta=0.5, R0=1, c=0.1, eps=0.01:
        #   route a: max(32, 120) * ceil(log2(100)) = 120 * 7 = 840
        #   route b: 8 L R0^2/(eta c^2) + ln(100)/(eta mu) = 1600 + 9.21
        params = RateParams(c=0.1, eta=0.5, T=10, R0=1.0, L=1.0, L0=1.0, mu=1.0)
        report = bound_det_strongly_convex(params, epsilon=0.01)
        assert report.predicted == pytest.approx(840.0, abs=0)
        assert "route_b=1609.2" in report.detail

    def test_large_c_linear_route_dominates(self):
        params = RateParams(c=math.inf, eta=0.5, T=10, R0=1.0, L=1.0, L0=1.0, mu=1.0)
        report = bound_det_strongly_convex(params, epsilon=0.01)
        assert report.predicted == pytest.approx(math.log(100.0) / 0.5)

    def test_prediction_covers_actual_run(self):
        prob = Quadratic(dim=1, L=1.0)
        eta = 0.5
        epsilon = 1e-4
        for c in (0.05, 0.5):
            params = RateParams(c=c, eta=eta, T=10, R0=1.0, L=1.0, L0=1.0, mu=1.0)
            predicted = bound_det_strongly_convex(params, epsilon).predicted
            trace = run(prob, RunConfig(method="clipped_gd", c=c, eta=eta,
                                        T=int(predicted) + 1, x0=np.array([1.0])))
            dist_sq = (trace.f_vals - 0.0) * 2.0  # R^2 = 2 f / mu on this problem
            achieved = int(trace.iters[np.nonzero(dist_sq <= epsilon)[0][0]])
            assert achieved <= predicted

    def test_requires_mu(self):
        params = RateParams(c=1.0, eta=0.1, T=10, R0=1.0, L=1.0, L0=1.0)
        with pytest.raises(ValueError):
            bound_det_strongly_convex(params, epsilon=0.1)


class TestBoundStochNonconvex:
    def test_sigma_zero_recovers_deterministic_form(self):
        params = RateParams(c=2.0, eta=0.01, T=99, F0=5.0, L0=1.0)
        report = bound_stoch_nonconvex(params)
        q = 5.0 / (0.01 * 100)
        assert report.regime == "large_c"
        assert report.predicted == pytest.approx(math.sqrt(8 * q) + 8 * q / 2.0)

    def test_small_c_floor(self):
        params = RateParams(c=1.0, eta=0.01, T=10**9, F0=5.0, L0=1.0, sigma=1.0)
        report = bound_stoch_nonconvex(params)
        assert report.regime == "small_c"
        assert report.predicted == pytest.approx(6.0, abs=1e-9)

    def test_large_c_floor_scales_as_sigma_sq_over_c(self):
        # eta -> 0, T -> inf leaves only the bias terms, Theta(sigma^2/c)
        sigma = 1.0
        floors = {}
        for c in (32.0, 128.0):
            params = RateParams(c=c, eta=1e-9, T=10**16, F0=1.0, L0=1.0, sigma=sigma)
            floors[c] = bound_stoch_nonconvex(params).predicted
            q = 4.0 * sigma**4 / c**2
            assert floors[c] == pytest.approx(math.sqrt(8 * q) + 8 * q / c, rel=1e-3)
        assert floors[128.0] == pytest.approx(math.sqrt(32.0) * sigma**2 / 128.0, rel=5e-3)
        assert floors[32.0] / floors[128.0] == pytest.approx(4.0, rel=0.05)

    def test_statistical_upper_bound_over_seeds(self):
        # large-c regime: mean over 20 seeds of the per-run average gradient
        # norm stays below the predicted level
        inst = build_lower_bound_large_c(1.0, 4.0)
        prob = inst.problem()
        eta, T = 0.05, 400
        f0 = prob.value(np.zeros(1)) - prob.meta.f_star
        params = RateParams(c=4.0, eta=eta, T=T, F0=f0, L0=1.0, sigma=1.0)
        report = bound_stoch_nonconvex(params)
        assert report.regime == "large_c" and report.stepsize_ok
        stats = []
        for seed in range(20):
            trace = run(prob, RunConfig(
                method="clipped_sgd", c=4.0, eta=eta, T=T, x0=np.zeros(1), seed=seed))
            stats.append(trace.grad_norms.mean())
        assert np.mean(stats) <= report.predicted

    def test_statistical_small_c_over_seeds(self):
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        eta, T, c = 0.5, 200, 1.0
        f0 = prob.value(np.zeros(100)) - prob.meta.f_star
        params = RateParams(c=c, eta=eta, T=T, F0=f0, L0=0.1, sigma=math.sqrt(200.0))
        report = bound_stoch_nonconvex(params)
        assert report.regime == "small_c" and report.stepsize_ok
        mins = []
        for seed in range(20):
            trace = run(prob, RunConfig(
                method="clipped_sgd", c=c, eta=eta, T=T, x0=np.zeros(100), seed=seed))
            mins.append(trace.min_grad_norm)
        assert np.mean(mins) <= report.predicted


class TestBiasFloor:
    def test_branches(self):
        assert bias_floor(1.0, 2.0) == 0.5
        assert bias_floor(1.0, 0.5) == 1.0
        assert bias_floor(0.0, 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bias_floor(-1.0, 1.0)
        with pytest.raises(ValueError):
            bias_floor(1.0, 0.0)


class TestLowerBoundConstructions:
    def test_small_c_closed_forms(self):
        inst = build_lower_bound_small_c(1.0, 2.0)
        assert inst.a == 4.0
        assert inst.p == pytest.approx((2.0 - SQRT3) / 4.0, abs=0)
        assert inst.x_fixed == pytest.approx(-0.143594, abs=1e-6)
        assert inst.bias == pytest.approx(0.124356, abs=1e-6)
        assert inst.guarantee == pytest.approx(1.0 / 12.0, abs=0)
        assert inst.bias >= inst.guarantee

    def test_small_c_variance_saturates(self):
        # p(1-p) = 1/16 exactly, so the construction uses the full sigma^2
        for sigma in (0.5, 1.0, 2.0):
            inst = build_lower_bound_small_c(sigma, sigma)
            assert inst.p * (1 - inst.p) * inst.a**2 == pytest.approx(sigma**2, rel=1e-14)

    def test_small_c_limit_c_to_zero(self):
        inst = build_lower_bound_small_c(1.0, 1e-9)
        assert inst.bias == pytest.approx(2.0 - SQRT3, abs=1e-6)
        assert inst.x_fixed == pytest.approx(0.0, abs=1e-9)

    def test_small_c_regime_gate(self):
        with pytest.raises(ValueError):
            build_lower_bound_small_c(1.0, 2.0001)
        with pytest.raises(ValueError):
            build_lower_bound_small_c(0.0, 1.0)

    def test_large_c_closed_forms(self):
        inst = build_lower_bound_large_c(1.0, 4.0)
        assert inst.a == 8.0
        # p is the smaller root of p(1-p) = sigma^2 / (4 c^2)
        assert inst.p * (1.0 - inst.p) == pytest.approx(1.0 / 64.0, rel=1e-14)
        assert inst.p < 0.5
        assert inst.x_fixed == pytest.approx(-0.0645, abs=1e-4)
        assert inst.bias == pytest.approx(0.06249, abs=1e-4)
        assert inst.guarantee == pytest.approx(1.0 / 24.0, abs=1e-15)

    def test_large_c_regime_gate(self):
        with pytest.raises(ValueError):
            build_lower_bound_large_c(1.0, 1.9999)

    @pytest.mark.parametrize("build", [build_lower_bound_small_c, build_lower_bound_large_c])
    @pytest.mark.parametrize("sigma,c,message", [
        (math.inf, 4.0, "construction needs a finite sigma, got sigma=inf"),
        (math.inf, math.inf, "construction needs a finite sigma, got sigma=inf"),
        (1.0, math.inf, "construction needs a finite c, got c=inf"),
        (1.0, -math.inf, "construction needs a finite c, got c=-inf"),
        (1.0, math.nan, "construction needs a finite c, got c=nan"),
        (math.nan, 4.0, "construction needs sigma > 0"),
        (-math.inf, 4.0, "construction needs sigma > 0"),
    ], ids=["sigma_inf", "both_inf", "c_inf", "c_minus_inf", "c_nan", "sigma_nan",
            "sigma_minus_inf"])
    def test_non_finite_scales_rejected_by_name(self, build, sigma, c, message):
        # an infinite sigma gave inf bias and guarantee that passed the
        # check, an infinite or NaN c a NaN fixed point
        with pytest.raises(ValueError) as exc:
            build(sigma, c)
        assert str(exc.value) == message

    def test_constructions_coincide_at_boundary(self):
        small = build_lower_bound_small_c(1.0, 2.0)
        large = build_lower_bound_large_c(1.0, 2.0)
        assert small.a == large.a == 4.0
        assert small.p == pytest.approx(large.p, rel=1e-12)
        assert small.bias == pytest.approx(large.bias, rel=1e-12)

    def test_large_c_asymptotics(self):
        # bias = p (a - c/(1-p)) = p c (1-2p)/(1-p) with p ~ sigma^2/(4c^2),
        # so bias * c -> sigma^2 / 4 (comfortably above the sigma^2/6 guarantee)
        inst = build_lower_bound_large_c(1.0, 1e6)
        assert inst.bias * inst.c == pytest.approx(0.25, rel=1e-3)
        assert inst.bias >= inst.guarantee

    def test_exhaustive_grid_residuals_and_guarantees(self):
        for sigma in (0.5, 1.0, 2.0):
            cs = [0.05 * sigma, 0.5 * sigma, sigma, 2.0 * sigma,
                  2.0 * sigma, 4.0 * sigma, 8.0 * sigma, 16.0 * sigma]
            builders = [build_lower_bound_small_c] * 4 + [build_lower_bound_large_c] * 4
            for c, build in zip(cs, builders):
                inst = build(sigma, c)
                est = expected_clipped_grad(inst.problem(), [inst.x_fixed], c)
                assert est.exact
                assert abs(est.value[0]) <= 1e-12
                assert abs(inst.problem().grad(np.array([inst.x_fixed]))[0]) >= inst.guarantee
                assert inst.p * (1 - inst.p) * inst.a**2 <= sigma**2 * (1 + 1e-12)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            LowerBoundInstance(sigma=1.0, c=2.0, a=4.0, p=0.4,  # variance too big
                               x_fixed=-0.1, bias=1.0, guarantee=0.01)
        with pytest.raises(ValueError):
            LowerBoundInstance(sigma=10.0, c=2.0, a=3.0, p=0.01,  # a < 2c
                               x_fixed=-0.1, bias=1.0, guarantee=0.01)


class TestExactFixedPoint:
    def test_closed_form_case(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=(2.0 - SQRT3) / 4.0)
        x = exact_fixed_point(prob, 2.0)
        assert x == pytest.approx(-0.143594, abs=1e-6)
        assert abs(expected_clipped_grad(prob, [x], 2.0).value[0]) <= 1e-12

    def test_no_clipping_case_returns_minimizer(self):
        # c >= a and small p: nothing is ever clipped, root is -p a
        prob = BernoulliShiftQuadratic(a=1.0, p=0.3)
        x = exact_fixed_point(prob, 5.0)
        assert x == pytest.approx(-0.3, abs=1e-12)

    def test_tiny_p_limit(self):
        # nearly deterministic: fixed point collapses to the minimizer ~ 0
        prob = BernoulliShiftQuadratic(a=1.0, p=1e-9)
        assert exact_fixed_point(prob, 5.0) == pytest.approx(0.0, abs=1e-8)

    def test_bisection_agrees_with_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = float(rng.uniform(0.5, 10.0))
            p = float(rng.uniform(0.01, 0.49))
            c = float(rng.uniform(0.01, a / 2.0))  # closed-form regime
            prob = BernoulliShiftQuadratic(a=a, p=p)
            assert exact_fixed_point(prob, c) == pytest.approx(
                bisect_fixed_point(a, p, c), abs=1e-12
            )

    def test_bisection_path_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = float(rng.uniform(0.5, 10.0))
            p = float(rng.uniform(0.01, 0.49))
            c = float(rng.uniform(0.6 * a, 3.0 * a))  # a < 2c: bisection path
            prob = BernoulliShiftQuadratic(a=a, p=p)
            x = exact_fixed_point(prob, c)
            assert abs(expected_clipped_grad(prob, [x], c).value[0]) <= 1e-12


class TestExpectedClippedGrad:
    def test_infinite_c_equals_grad(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        x = np.array([0.37])
        est = expected_clipped_grad(prob, x, math.inf)
        assert est.exact
        assert est.value[0] == pytest.approx(prob.grad(x)[0], abs=0)

    def test_chi_square_right_tail_is_clipped(self):
        # clipping the heavy right tail pulls the estimate well below the
        # true mean gradient 1 at the origin
        prob = ChiSquareQuadratic(dim=1, L=0.1)
        est = expected_clipped_grad(prob, np.zeros(1), 1.0, n_samples=1_000_000, seed=3)
        assert not est.exact
        assert est.value[0] < 1.0 - 5.0 * est.std_error

    # Frozen digests of the Monte Carlo estimate: the first 16 hex digits of
    # the sha256 of the value and std_error bytes, recorded with the
    # one-sample-at-a-time loop that preceded the chunked batch path.
    @staticmethod
    def digest(est):
        data = est.value.tobytes() + np.float64(est.std_error).tobytes()
        return hashlib.sha256(data).hexdigest()[:16]

    def test_frozen_golden_chi_square(self):
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        est = expected_clipped_grad(prob, np.full(100, -9.0), 14.0, n_samples=5000, seed=4)
        assert self.digest(est) == "d2064031c3869379"
        assert est.std_error == 0.18367133559725088

    def test_frozen_golden_logistic(self):
        prob = LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()))
        est = expected_clipped_grad(prob, np.zeros(prob.meta.dim), 0.05, n_samples=3000, seed=2)
        assert self.digest(est) == "c6a185edd20b6e8d"

    @pytest.mark.parametrize("make_problem,c,n_samples", [
        (lambda: ChiSquareQuadratic(dim=1, L=0.1), 1.0, 40_000),
        (lambda: ChiSquareQuadratic(dim=3, L=0.1), 2.0, 20_000),
        (lambda: ChiSquareQuadratic(dim=100, L=0.1), 14.0, 700),
        (lambda: LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text())),
         0.05, 900),
        (lambda: Quadratic(dim=2, L=3.0), 1.0, 100),
    ], ids=["chi_square_d1", "chi_square_d3", "chi_square_d100", "logistic", "quadratic"])
    def test_chunked_estimate_equals_one_sample_loop(self, make_problem, c, n_samples):
        # n_samples spans several chunks and ends on a partial one
        prob = make_problem()
        x = np.full(prob.meta.dim, 0.25)
        rng = np.random.default_rng(6)
        total = np.zeros_like(x)
        total_sq = 0.0
        for _ in range(n_samples):
            s = clip(prob.sample_grad(x, rng), c)
            total += s
            total_sq += float(s @ s)
        mean = total / n_samples
        std_error = math.sqrt(max(total_sq / n_samples - float(mean @ mean), 0.0) / n_samples)
        est = expected_clipped_grad(prob, x, c, n_samples=n_samples, seed=6)
        assert np.array_equal(est.value, mean)
        assert est.std_error == std_error

    @pytest.mark.parametrize("make_problem", [
        lambda: ChiSquareQuadratic(dim=2),
        lambda: BernoulliShiftQuadratic(a=4.0, p=0.25),
    ], ids=["monte_carlo", "exact"])
    def test_rejects_bad_threshold_and_point(self, make_problem):
        # the exact two-outcome path rejects what the Monte Carlo path does
        prob = make_problem()
        x = np.zeros(prob.meta.dim)
        for c in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                expected_clipped_grad(prob, x, c)
        for bad in (math.nan, math.inf, -math.inf):
            x_bad = x.copy()
            x_bad[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                expected_clipped_grad(prob, x_bad, 1.0)

    def test_monte_carlo_matches_exact_two_outcome(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        x = np.array([-0.4])
        exact = (1 - prob.p) * np.clip(x[0], -2, 2) + prob.p * np.clip(x[0] + 4, -2, 2)
        rng = np.random.default_rng(8)
        draws = np.array([np.clip(prob.sample_grad(x, rng)[0], -2, 2) for _ in range(200_000)])
        assert draws.mean() == pytest.approx(exact, abs=5 * draws.std() / math.sqrt(draws.size))


class TestCertifySmoothness:
    def test_quadratic_with_true_constants(self):
        prob = Quadratic(dim=3, L=2.0)
        cert = certify_smoothness(prob, L0=2.0, L1=0.0, n_pairs=300, seed=0)
        assert cert.ok

    def test_understated_constant_caught(self):
        prob = Quadratic(dim=3, L=2.0)
        cert = certify_smoothness(prob, L0=1.0, L1=0.0, n_pairs=300, seed=0)
        assert not cert.ok
        kinds = {v.kind for v in cert.violations}
        assert "gradient_lipschitz" in kinds or "descent" in kinds

    def test_gradient_domination_equality_case(self):
        # norm(grad)^2 = 2 L0 (f - f*) holds with equality on L0/2 x^2
        prob = Quadratic(dim=1, L=1.0)
        cert = certify_smoothness(prob, L0=1.0, L1=0.0, n_pairs=500, seed=1)
        assert cert.ok

    def test_nonzero_l1_restricts_pair_radius(self):
        prob = Quadratic(dim=2, L=1.0)
        cert = certify_smoothness(prob, L0=1.0, L1=4.0, n_pairs=200, radius_scale=10.0, seed=2)
        assert cert.ok  # larger local constant, radius capped at 1/L1

    def test_chi_square_declared_constants(self):
        prob = ChiSquareQuadratic(dim=5, L=0.1)
        cert = certify_smoothness(prob, prob.meta.L0, prob.meta.L1, n_pairs=300, seed=3)
        assert cert.ok


class TestClipProbabilityBound:
    def test_deterministic_problem_never_clips(self):
        prob = Quadratic(dim=2, L=1.0)
        report = clip_probability_bound(prob, np.array([0.1, 0.1]), c=1.0, n_samples=100)
        assert report.frequency == 0.0 and report.ok

    def test_bernoulli_frequency_is_p(self):
        inst = build_lower_bound_large_c(1.0, 4.0)
        prob = inst.problem()
        report = clip_probability_bound(prob, np.zeros(1), c=4.0, n_samples=40_000, seed=4)
        assert report.frequency == pytest.approx(inst.p, abs=5 * report.std_error)
        assert report.ok

    def test_frozen_golden_chi_square(self):
        # recorded with the one-sample-at-a-time loop
        prob = ChiSquareQuadratic(dim=100, L=0.1)
        report = clip_probability_bound(prob, np.full(100, -9.0), c=20.0, n_samples=5000, seed=4)
        assert report.frequency == 0.022
        assert report.std_error == 0.0020744155803502826

    def test_chunked_count_equals_one_sample_loop(self):
        prob = ChiSquareQuadratic(dim=3, L=0.1)
        x = np.full(3, -9.0)
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(12_000):
            s = prob.sample_grad(x, rng)
            hits += math.sqrt(float(s @ s)) > 4.0
        report = clip_probability_bound(prob, x, c=4.0, n_samples=12_000, seed=8)
        assert report.frequency == hits / 12_000

    def test_huge_threshold_frequency_zero(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        report = clip_probability_bound(prob, np.zeros(1), c=100.0, n_samples=2_000)
        assert report.frequency == 0.0

    def test_regime_precondition(self):
        prob = BernoulliShiftQuadratic(a=4.0, p=0.25)
        with pytest.raises(ValueError):
            clip_probability_bound(prob, np.array([5.0]), c=1.0)


class TestDpNoiseCalibration:
    def test_arithmetic_example(self):
        out = dp_noise_calibration(c=1.0, d=10, T=100, epsilon=2.0, delta=1e-5)
        assert out == pytest.approx(169.65, abs=0.01)

    def test_delta_to_one_limit(self):
        assert dp_noise_calibration(1.0, 1, 1, 1.0, 1 - 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_linear_in_c(self):
        one = dp_noise_calibration(1.0, 5, 50, 1.0, 1e-6)
        two = dp_noise_calibration(2.0, 5, 50, 1.0, 1e-6)
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_noise_calibration(1.0, 1, 1, 1.0, 1.5)
        with pytest.raises(ValueError):
            dp_noise_calibration(1.0, 1, 1, 0.0, 0.5)


class TestBoundDpSgd:
    def test_reduces_to_stochastic_terms_without_privacy_noise(self):
        params = RateParams(c=4.0, eta=0.01, T=100, F0=2.0, L0=1.0, sigma=1.0,
                            B=1, sigma_dp=0.0)
        report = bound_dp_sgd(params)
        expected = (
            bias_floor(1.0, 4.0)
            + math.sqrt(0.01 * 1.0 * 1.0 / 1)
            + math.sqrt(2.0 / (0.01 * 100))
            + 2.0 / (0.01 * 100 * 4.0)
        )
        assert report.predicted == pytest.approx(expected, rel=1e-15)
        assert report.constants_source == "order_of_magnitude"

    def test_bias_floor_survives_large_batches(self):
        params = RateParams(c=4.0, eta=1e-8, T=10**12, F0=1.0, L0=1.0, sigma=1.0,
                            B=10**9, sigma_dp=0.0)
        assert bound_dp_sgd(params).predicted >= bias_floor(1.0, 4.0)

    def test_privacy_term_quadratic_in_sigma_dp(self):
        base = RateParams(c=1.0, eta=0.01, T=100, F0=1.0, L0=1.0, sigma=0.0, sigma_dp=1.0)
        doubled = RateParams(c=1.0, eta=0.01, T=100, F0=1.0, L0=1.0, sigma=0.0, sigma_dp=2.0)
        lead = lambda s: (1.0 * 0.01 / 1.0) * s**2
        diff = bound_dp_sgd(doubled).predicted - bound_dp_sgd(base).predicted
        expected = (lead(2.0) - lead(1.0)) + (math.sqrt(0.01 * 2.0) - math.sqrt(0.01 * 1.0))
        assert diff == pytest.approx(expected, rel=1e-12)


class TestTrajectorySmoothness:
    def test_max_over_trace(self):
        prob = Quadratic(dim=1, L=1.0)
        trace = run(prob, RunConfig(method="gd", c=math.inf, eta=0.5, T=3,
                                    x0=np.array([2.0])))
        assert trajectory_smoothness(trace, L0=0.5, L1=0.25) == 0.5 + 0.25 * 2.0
        assert max_local_smoothness(trace.grad_norms, 0.5, 0.25) == 0.5 + 0.25 * 2.0

    def test_override_tightens_convex_bound(self):
        params = RateParams(c=1.0, eta=0.1, T=10, R0=1.0, L=10.0, L0=1.0)
        loose = bound_det_convex(params).predicted
        tight = bound_det_convex(params, L_override=1.0).predicted
        assert tight < loose


class TestRateParamsValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RateParams(c=1.0, eta=0.1, T=10, sigma=-1.0)
        with pytest.raises(ValueError):
            RateParams(c=0.0, eta=0.1, T=10)
        with pytest.raises(ValueError):
            RateParams(c=1.0, eta=0.1, T=0)

    @pytest.mark.parametrize("name", ["F0", "R0", "L0", "L1", "L", "mu", "sigma", "sigma_dp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_inputs_rejected(self, name, value):
        # a NaN or infinite input would make a NaN or infinite prediction
        with pytest.raises(ValueError, match=name):
            RateParams(c=1.0, eta=0.1, T=10, **{name: value})

    @pytest.mark.parametrize("name,value", [("T", 2.5), ("B", 2.0), ("T", "10")])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            RateParams(**{"c": 1.0, "eta": 0.1, "T": 10, name: value})

    def test_integer_counts_and_unclipped_threshold_accepted(self):
        params = RateParams(c=math.inf, eta=0.1, T=np.int64(10), B=np.int32(4), F0=1.0)
        assert type(params.T) is int and type(params.B) is int
        assert (params.T, params.B, params.c) == (10, 4, math.inf)
