"""Executable convergence theory for clipped gradient methods.

Step-size rules, bound predictors with explicit constants, the clipping
bias floor, the two-outcome adversarial constructions whose clipped-SGD
fixed points are exact, and smoothness/clip-probability certifiers.
Every predictor records how trustworthy its constants are: published
exactly (``paper_explicit``), carried through a proof derivation
(``derived_appendix``), or order-of-magnitude only; only the first two
classes are asserted as hard bounds by the checkers.
"""

from __future__ import annotations

import math
from contextlib import closing

import numpy as np

from . import _feed
from ._record import _Record
from .core import _sum_rows, clip_rows
from .problems import BernoulliShiftQuadratic, Problem
from .optimizers import Trace

__all__ = [
    "RateParams",
    "BoundReport",
    "LowerBoundInstance",
    "ClippedGradEstimate",
    "SmoothnessViolation",
    "SmoothnessCertificate",
    "ClipProbabilityReport",
    "max_stepsize",
    "bound_det_convex",
    "det_convex_gap_bound",
    "bound_det_strongly_convex",
    "bound_stoch_nonconvex",
    "bound_dp_sgd",
    "bias_floor",
    "build_lower_bound_small_c",
    "build_lower_bound_large_c",
    "exact_fixed_point",
    "expected_clipped_grad",
    "certify_smoothness",
    "clip_probability_bound",
    "dp_noise_calibration",
    "max_local_smoothness",
    "trajectory_smoothness",
]

# the theorems and their step-size thresholds 1/(factor * (L0 + c*L1)); the
# convex and strongly convex predictors gate on factor 2, the constant their
# explicit bounds actually need
_STEPSIZE_FACTOR = {
    "det_nonconvex": 9.0,
    "det_convex": 2.0,
    "det_strongly_convex": 2.0,
    "stoch_nonconvex": 9.0,
    "dp_sgd": 9.0,
}


class RateParams(_Record):
    """Concrete rate inputs: initial gaps, smoothness, noise, run shape."""

    c: float
    eta: float
    T: int
    F0: float = 0.0
    R0: float = 0.0
    L0: float = 0.0
    L1: float = 0.0
    L: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0
    B: int = 1
    sigma_dp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("F0", "R0", "L0", "L1", "L", "mu", "sigma", "sigma_dp"):
            value = getattr(self, name)
            # a NaN or infinite input would give a NaN or infinite prediction,
            # which `bound` would report as a failed or passed check
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if not self.c > 0:
            raise ValueError(f"clipping threshold must be positive, got {self.c!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"step size must be positive and finite, got {self.eta!r}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T!r}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B!r}")


class BoundReport(_Record):
    """A theorem's prediction at concrete parameters.

    ``predicted`` is a gradient-norm or suboptimality level, except for
    det_strongly_convex where it is an iteration count. ``stepsize_ok``
    mirrors the theorem's step-size constraint exactly; a report with
    ``stepsize_ok=False`` is vacuous, not wrong.
    """

    theorem: str
    predicted: float
    stepsize_ok: bool
    regime: str = "n_a"
    constants_source: str = "derived_appendix"
    detail: str = ""


class LowerBoundInstance(_Record):
    """A Bernoulli-shift construction with its exact clipped-SGD fixed point.

    At ``x_fixed`` the unshifted branch is never clipped while the shifted
    branch always is, so the expected clipped gradient vanishes exactly
    while the true gradient norm stays at ``bias >= guarantee``.
    """

    sigma: float
    c: float
    a: float
    p: float
    x_fixed: float
    bias: float
    guarantee: float

    def __post_init__(self) -> None:
        var = self.p * (1.0 - self.p) * self.a * self.a
        if var > self.sigma**2 * (1.0 + 1e-12):
            raise ValueError(f"construction variance {var} exceeds sigma^2 {self.sigma**2}")
        if self.a < 2.0 * self.c * (1.0 - 1e-12):
            raise ValueError("need a >= 2c so the shifted branch is always clipped")
        if self.bias < self.guarantee:
            raise ValueError(f"bias {self.bias} below guarantee {self.guarantee}")

    def problem(self) -> BernoulliShiftQuadratic:
        return BernoulliShiftQuadratic(a=self.a, p=self.p)


def _l_eff(L0: float, L1: float, c: float) -> float:
    # c may be inf with L1 == 0; avoid inf * 0
    return L0 if L1 == 0.0 else L0 + c * L1


def max_stepsize(theorem: str, L0: float, L1: float, c: float) -> float:
    """Largest step size under which the named predictor's bound holds.

    1/(9(L0 + c L1)) for the nonconvex/stochastic/DP results and
    1/(2(L0 + c L1)) for the convex and strongly convex ones.
    """
    if theorem not in _STEPSIZE_FACTOR:
        names = tuple(_STEPSIZE_FACTOR)
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {names}")
    denom = _l_eff(float(L0), float(L1), float(c))
    if not denom > 0 or not math.isfinite(denom):
        raise ValueError(f"degenerate smoothness: L0 + c*L1 = {denom!r}")
    return 1.0 / (_STEPSIZE_FACTOR[theorem] * denom)


def _stepsize_ok(theorem: str, p: RateParams) -> bool:
    return p.eta <= max_stepsize(theorem, p.L0, p.L1, p.c)


def max_local_smoothness(grad_norms, L0: float, L1: float) -> float:
    """``max_t (L0 + L1 * grad_norms[t])``: the largest local smoothness
    constant of an (L0, L1)-smooth function along recorded gradient norms."""
    return L0 + L1 * float(np.max(grad_norms))


def trajectory_smoothness(trace: Trace, L0: float, L1: float) -> float:
    """Trajectory-local smoothness :func:`max_local_smoothness` of a trace's
    gradient norms, usable in place of the global L in the convex,
    strongly convex and DP predictors."""
    return max_local_smoothness(trace.grad_norms, L0, L1)


def det_convex_gap_bound(params: RateParams, t, L_override: float | None = None):
    """The explicit convex suboptimality bound after ``t`` iterations:

        f(x_t) - f* <= 2 R0^2 / (eta (t+1)) + 4 L R0^4 / (eta^2 c^2 (t+1)^2)

    ``t`` may be an integer or an array of iteration counts; ``params.T``
    is not used.
    """
    L = params.L if L_override is None else L_override
    eta, R0, c = params.eta, params.R0, params.c
    lead = 2.0 * R0**2 / (eta * (t + 1))
    tail = 0.0 if math.isinf(c) else 4.0 * L * R0**4 / (eta**2 * c**2 * (t + 1) ** 2)
    return lead + tail


def bound_det_convex(params: RateParams, L_override: float | None = None) -> BoundReport:
    """Explicit suboptimality bound for deterministic clipped GD on convex f
    at the final iterate: :func:`det_convex_gap_bound` at ``t = T``."""
    return BoundReport(
        theorem="det_convex",
        predicted=det_convex_gap_bound(params, params.T, L_override),
        stepsize_ok=_stepsize_ok("det_convex", params),
        constants_source="paper_explicit",
    )


def bound_det_strongly_convex(
    params: RateParams, epsilon: float, L_override: float | None = None
) -> BoundReport:
    """Iterations for deterministic clipped GD to reach squared distance
    epsilon on a mu-strongly convex f; the better of the two proof routes.

    Route (a) repeatedly halves R^2: max(16/(mu eta), 6 R0 sqrt(L)/(eta c
    sqrt(mu))) iterations per halving, ceil(log2(R0^2/eps)) halvings.
    Route (b) waits t0 = 8 L R0^2/(eta c^2) until clipping stops, then
    converges linearly at rate (1/(eta mu)) ln(R0^2/eps).
    """
    # an infinite epsilon would be reached at once, whatever the trace
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if not params.mu > 0:
        raise ValueError("strongly convex predictor needs mu > 0")
    L = params.L if L_override is None else L_override
    eta, c, R0, mu = params.eta, params.c, params.R0, params.mu
    ok = _stepsize_ok("det_strongly_convex", params)
    if epsilon >= R0**2:
        return BoundReport("det_strongly_convex", 0.0, ok, detail="already at accuracy")
    halvings = math.ceil(math.log2(R0**2 / epsilon))
    per_halving = max(16.0 / (mu * eta), 6.0 * R0 * math.sqrt(L) / (eta * c * math.sqrt(mu)))
    route_a = per_halving * halvings
    t0 = 0.0 if math.isinf(c) else 8.0 * L * R0**2 / (eta * c**2)
    route_b = t0 + math.log(R0**2 / epsilon) / (eta * mu)
    return BoundReport(
        theorem="det_strongly_convex",
        predicted=min(route_a, route_b),
        stepsize_ok=ok,
        detail=f"route_a={route_a!r} route_b={route_b!r} (log2+ceil halving schedule)",
    )


def bound_stoch_nonconvex(params: RateParams) -> BoundReport:
    """Gradient-norm level reached by clipped SGD, with proof constants.

    small_c (c < 4 sigma): bound on min_t E norm(grad_t),
        max(6 sigma, 18 F0 / (eta c (T+1))).
    large_c (c >= 4 sigma): bound on the average E norm(grad_t); with
        Q = F0/(eta (T+1)) + eta (L0 + c L1) sigma^2 + 4 sigma^4 / c^2,
        the bound is sqrt(8 Q) + (8/c) Q.
    """
    eta, T, c, sigma, F0 = params.eta, params.T, params.c, params.sigma, params.F0
    ok = _stepsize_ok("stoch_nonconvex", params)
    if c < 4.0 * sigma:
        predicted = max(6.0 * sigma, 18.0 * F0 / (eta * c * (T + 1)))
        return BoundReport(
            "stoch_nonconvex", predicted, ok, regime="small_c",
            detail="bounds min-over-t gradient norm",
        )
    q = F0 / (eta * (T + 1)) + eta * _l_eff(params.L0, params.L1, c) * sigma**2
    if not math.isinf(c):
        q += 4.0 * sigma**4 / c**2
    tail = 0.0 if math.isinf(c) else (8.0 / c) * q
    return BoundReport(
        "stoch_nonconvex", math.sqrt(8.0 * q) + tail, ok, regime="large_c",
        detail="bounds average gradient norm",
    )


def bound_dp_sgd(params: RateParams, L_override: float | None = None) -> BoundReport:
    """Order-of-magnitude gradient-norm level for DP-SGD (reported on the
    norm scale: the bias floor enters as min(sigma, sigma^2/c)).

    ``sigma_dp`` is the total-norm scale of ``optimizers.privacy_noise``
    (E|z|^2 = sigma_dp^2 in any dimension; no dimension enters here). It
    enters as ``(L eta / c) sigma_dp^2 + sqrt(L eta sigma_dp)``."""
    eta, T, c, sigma, F0, B, sdp = (
        params.eta, params.T, params.c, params.sigma, params.F0, params.B, params.sigma_dp,
    )
    L = _l_eff(params.L0, params.L1, c) if L_override is None else L_override
    predicted = (
        (L * eta / c) * sdp**2
        + math.sqrt(L * eta * sdp)
        + bias_floor(sigma, c)
        + math.sqrt(eta * L * sigma**2 / B)
        + math.sqrt(F0 / (eta * T))
        + F0 / (eta * T * c)
    )
    return BoundReport(
        "dp_sgd", predicted, _stepsize_ok("dp_sgd", params),
        constants_source="order_of_magnitude",
        detail="norm-scale floor min(sigma, sigma^2/c); report only, not asserted",
    )


def bias_floor(sigma: float, c: float) -> float:
    """The non-vanishing gradient-norm level min(sigma, sigma^2 / c)."""
    sigma, c = float(sigma), float(c)
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    if not c > 0:
        raise ValueError("c must be positive")
    if sigma == 0.0:
        return 0.0
    return min(sigma, sigma**2 / c)


def _instance(sigma: float, c: float, a: float, p: float, guarantee: float) -> LowerBoundInstance:
    x_fixed = -p * c / (1.0 - p)
    bias = p * (a - c / (1.0 - p))
    return LowerBoundInstance(
        sigma=sigma, c=c, a=a, p=p, x_fixed=x_fixed, bias=bias, guarantee=guarantee
    )


def _check_scales(sigma: float, c: float) -> None:
    # an infinite sigma or c would give an instance with infinite or NaN fields
    if not sigma > 0:
        raise ValueError("construction needs sigma > 0")
    for name, value in (("sigma", sigma), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"construction needs a finite {name}, got {name}={value!r}")


def build_lower_bound_small_c(sigma: float, c: float) -> LowerBoundInstance:
    """Construction for small thresholds c <= 2 sigma: shift a = 4 sigma and
    p = (2 - sqrt(3))/4, so p(1-p) = 1/16 and the noise variance equals
    sigma^2 exactly. The fixed-point bias is at least sigma / 12."""
    sigma, c = float(sigma), float(c)
    _check_scales(sigma, c)
    if not 0 < c <= 2.0 * sigma:
        raise ValueError(f"small-c construction needs 0 < c <= 2*sigma, got c={c!r}")
    a = 4.0 * sigma
    p = (2.0 - math.sqrt(3.0)) / 4.0
    return _instance(sigma, c, a, p, guarantee=sigma / 12.0)


def build_lower_bound_large_c(sigma: float, c: float) -> LowerBoundInstance:
    """Construction for large thresholds c >= 2 sigma: shift a = 2c and p the
    smaller root of p(1-p) = sigma^2 / (4 c^2). The fixed-point bias is at
    least sigma^2 / (6 c).

    The range gate is forced by the construction itself: a = 2c keeps the
    shifted branch always clipped, and p(1-p) = sigma^2/(4c^2) only has a
    root p <= 1/4 when c >= 2 sigma.
    """
    sigma, c = float(sigma), float(c)
    _check_scales(sigma, c)
    if c < 2.0 * sigma:
        raise ValueError(f"large-c construction needs c >= 2*sigma, got c={c!r}")
    a = 2.0 * c
    ratio = sigma**2 / (a * a)
    # smaller root of p(1-p) = ratio, in the cancellation-free form
    p = 2.0 * ratio / (1.0 + math.sqrt(1.0 - 4.0 * ratio))
    return _instance(sigma, c, a, p, guarantee=sigma**2 / (6.0 * c))


# Clipping in one dimension, kept apart from core's kernels because the
# closed-form fixed points need it to return exactly +-c. The engine's
# one-dimensional clip, core.clip_float, is clip_vector's arithmetic on one
# coordinate: it rescales by c / |v| and lands one ulp off +-c on some
# inputs (926 of 20 000 normal v with c uniform in [0.1, 3]), and a run's
# bits depend on it doing so.
def _clip_scalar(v: float, c: float) -> float:
    if v > c:
        return c
    if v < -c:
        return -c
    return v


def _expected_clipped_scalar(problem: BernoulliShiftQuadratic, x: float, c: float) -> float:
    # exact two-branch expectation: gradient x w.p. (1-p), x+a w.p. p
    return (1.0 - problem.p) * _clip_scalar(x, c) + problem.p * _clip_scalar(x + problem.a, c)


def exact_fixed_point(problem: BernoulliShiftQuadratic, c: float) -> float:
    """The point where the expected clipped stochastic gradient vanishes.

    Closed form -p c / (1 - p) whenever a >= 2c (unshifted branch inside
    the ball, shifted branch clipped); otherwise bisection on [-a, 0],
    where the expectation is monotone nondecreasing. Residual <= 1e-12.
    """
    c = float(c)
    if not c > 0:
        raise ValueError("c must be positive")
    a, p = problem.a, problem.p
    if a >= 2.0 * c:
        return -p * c / (1.0 - p)
    lo, hi = -a, 0.0
    h_lo = _expected_clipped_scalar(problem, lo, c)
    h_hi = _expected_clipped_scalar(problem, hi, c)
    if h_lo > 0.0 or h_hi < 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: h={h_lo!r}..{h_hi!r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _expected_clipped_scalar(problem, mid, c) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class ClippedGradEstimate(_Record):
    """Expected clipped stochastic gradient at a point; ``exact`` marks the
    closed-form two-outcome path (std_error 0)."""

    value: np.ndarray
    std_error: float
    exact: bool


# samples per Monte Carlo chunk are capped so that one (k, dim) array of
# draws stays near 128 KB
_MC_CHUNK_ELEMS = 16_384


def _sample_chunks(problem: Problem, x: np.ndarray, n_samples: int, seed: int):
    """``problem.sample_grads(x, rng, k)`` for chunks ``k`` of at most
    ``_MC_CHUNK_ELEMS // dim`` samples that add up to ``n_samples``, drawn
    in order from ``default_rng(seed)``. Where the problem's draws pay for
    a fork, a forked child draws the chunks after the first ahead, with the
    same calls on the same stream, so the samples are the same."""
    size = max(1, _MC_CHUNK_ELEMS // x.size)
    sizes = [min(size, n_samples - start) for start in range(0, n_samples, size)]
    rng = np.random.default_rng(seed)
    if not _feed.should_feed(problem, len(sizes), n_samples * x.size):
        for k in sizes:
            yield problem.sample_grads(x, rng, k)
        return
    feed = _feed.fed((problem.draws(rng, sizes[0]),),
                     lambda i: (problem.draws(rng, sizes[i]),), len(sizes))
    try:
        for k, (D,) in zip(sizes, feed):
            yield problem.sample_grad_at(x, D[:k])
    finally:
        feed.close()


def _sampled_point(problem: Problem, x, c) -> tuple[np.ndarray, float]:
    """``x`` as a checked point of ``problem`` and ``c`` as a float, for the
    Monte Carlo estimators: ``c`` must be positive (``inf`` clips nothing)
    and every coordinate of ``x`` finite."""
    x = problem.check_dim(np.asarray(x, dtype=float))
    c = float(c)
    if not c > 0:
        raise ValueError(f"clipping threshold must be positive, got {c!r}")
    if not np.isfinite(x).all():
        raise ValueError("x has non-finite coordinates")
    return x, c


def expected_clipped_grad(
    problem: Problem,
    x,
    c: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> ClippedGradEstimate:
    """E[clip_c(stochastic gradient at x)], whose zeros are the clipped-SGD
    fixed points. Exact for the two-outcome problem, Monte Carlo otherwise."""
    x, c = _sampled_point(problem, x, c)
    if isinstance(problem, BernoulliShiftQuadratic):
        val = _expected_clipped_scalar(problem, float(x[0]), c)
        return ClippedGradEstimate(np.array([val]), 0.0, exact=True)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    total = np.zeros_like(x)
    total_sq = 0.0
    # closing: a feeder stops with the loop, however it ends
    with closing(_sample_chunks(problem, x, n_samples, seed)) as samples:
        for U in samples:
            V, sq, _ = clip_rows(U, c)
            # sums in sample order, seeded with the running totals, so the
            # estimate is the one-sample-at-a-time sum bit for bit
            V[0] += total
            total = _sum_rows(V)
            total_sq = float(np.add.accumulate(np.concatenate(([total_sq], sq)))[-1])
    mean = total / n_samples
    var = max(total_sq / n_samples - float(mean @ mean), 0.0)
    return ClippedGradEstimate(mean, math.sqrt(var / n_samples), exact=False)


class SmoothnessViolation(_Record):
    kind: str
    x: np.ndarray
    y: np.ndarray | None
    lhs: float
    rhs: float


class SmoothnessCertificate(_Record):
    """Sampled-pair check of the relaxed smoothness inequalities."""

    L0: float
    L1: float
    n_pairs: int
    violations: tuple[SmoothnessViolation, ...] = ()

    # the violations hold arrays, so no certificate has a hash, even one
    # that holds none
    __hash__ = None

    @property
    def ok(self) -> bool:
        return not self.violations


_CERT_RTOL = 1e-9  # float slack: the inequalities are exact in real arithmetic


def certify_smoothness(
    problem: Problem,
    L0: float,
    L1: float,
    n_pairs: int = 200,
    radius_scale: float = 1.0,
    seed: int = 0,
) -> SmoothnessCertificate:
    """Check the gradient-difference bound, the descent inequality, and
    (when f* is known) gradient domination on sampled pairs.

    Pairs satisfy norm(x - y) <= 1/L1 (unrestricted scale when L1 = 0).
    Violations are collected with witnesses, not raised.
    """
    # no pair, or no finite radius, would check nothing and pass
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
    if not (radius_scale > 0 and math.isfinite(radius_scale)):
        raise ValueError(f"radius_scale must be finite and positive, got {radius_scale!r}")
    rng = np.random.default_rng(seed)
    dim = problem.meta.dim
    r_max = radius_scale if L1 == 0.0 else min(radius_scale, 1.0 / L1)
    f_star = problem.meta.f_star
    violations: list[SmoothnessViolation] = []

    def check(kind, x, y, lhs, rhs):
        slack = _CERT_RTOL * max(1.0, abs(lhs), abs(rhs))
        if lhs > rhs + slack:
            violations.append(SmoothnessViolation(kind, x, y, lhs, rhs))

    for _ in range(n_pairs):
        x = radius_scale * rng.standard_normal(dim)
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        y = x + rng.uniform(1e-6, r_max) * direction

        gx = problem.grad(x)
        gy = problem.grad(y)
        gx_norm = float(np.linalg.norm(gx))
        local = L0 + gx_norm * L1
        dist = float(np.linalg.norm(x - y))

        check("gradient_lipschitz", x, y, float(np.linalg.norm(gx - gy)), local * dist)
        descent_rhs = float(gx @ (y - x)) + 0.5 * local * dist * dist
        check("descent", x, y, problem.value(y) - problem.value(x), descent_rhs)
        if f_star is not None:
            check(
                "gradient_domination", x, None,
                gx_norm**2, 2.0 * local * (problem.value(x) - f_star),
            )
    return SmoothnessCertificate(L0, L1, n_pairs, tuple(violations))


class ClipProbabilityReport(_Record):
    """Empirical clip frequency against the Markov bound 4 sigma^2 / c^2."""

    frequency: float
    markov_bound: float
    std_error: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.frequency <= self.markov_bound + 5.0 * self.std_error


def clip_probability_bound(
    problem: Problem,
    x,
    c: float,
    n_samples: int = 20_000,
    seed: int = 0,
) -> ClipProbabilityReport:
    """Check Pr[norm(stochastic gradient) > c] <= 4 sigma^2 / c^2 at a point
    where norm(grad) < c/2 (required regime; otherwise ValueError)."""
    x, c = _sampled_point(problem, x, c)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grad_norm = float(np.linalg.norm(problem.grad(x)))
    if not grad_norm < c / 2.0:
        raise ValueError(
            f"regime error: need norm(grad) < c/2, got {grad_norm!r} vs c={c!r}"
        )
    hits = 0
    with closing(_sample_chunks(problem, x, n_samples, seed)) as samples:
        for U in samples:
            hits += int(np.count_nonzero(clip_rows(U, c)[2]))
    freq = hits / n_samples
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / n_samples) / n_samples)
    bound = 4.0 * problem.meta.sigma_sq / c**2
    return ClipProbabilityReport(freq, bound, se, n_samples)


def dp_noise_calibration(
    c: float, d: int, T: int, epsilon: float, delta: float, k_dp: float = 1.0
) -> float:
    """Privacy-noise scale k_dp * c * d * sqrt(T ln(1/delta)) / epsilon.

    The privacy analysis gives this only up to a constant; k_dp is that
    explicit user-chosen constant. The result is linear in ``d`` and is
    meant as the ``sigma_dp`` of a run, a total-norm scale: per coordinate,
    ``optimizers.privacy_noise`` then draws with standard deviation
    k_dp * c * sqrt(d T ln(1/delta)) / epsilon.
    """
    c, d, T, epsilon, delta, k_dp = map(float, (c, d, T, epsilon, delta, k_dp))
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if d < 1 or T < 1 or not c > 0 or k_dp < 0:
        raise ValueError("need d >= 1, T >= 1, c > 0, k_dp >= 0")
    return k_dp * c * d * math.sqrt(T * math.log(1.0 / delta)) / epsilon
