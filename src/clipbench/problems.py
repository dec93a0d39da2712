"""Objective-function oracles with analytic smoothness/noise metadata.

Each problem exposes the exact expected objective ``value``, its exact
gradient ``grad``, and a one-draw stochastic gradient ``sample_grad``
that is unbiased for ``grad`` with variance bounded by ``meta.sigma_sq``.
Problems are immutable; the caller owns all RNG state.

Two batch oracles serve the iteration engines and the Monte Carlo
estimators. ``value_and_grad`` is the one exact oracle: at a point it
returns ``(value, grad)``, and at a ``(K, dim)`` stack of points the
``(K,)`` values and ``(K, dim)`` gradients, each row bit-for-bit what its
point gives alone. ``sample_grads`` returns ``k`` draws stacked as rows.
Both skip the dimension check, because their callers validate the points
once up front; ``value`` and ``grad`` are ``check_dim`` plus
``value_and_grad``. A custom subclass defines either ``value`` and
``grad``, from which the base ``value_and_grad`` is built (called at a
point, stacked over rows), or a shape-generic ``value_and_grad``; with
``sample_grad`` that is all it needs. The shipped problems override the
batch oracles with vectorized versions.

A problem whose sample is a function of one uniform may also define the
hook ``sample_grad_at(X, u)``: the sample for the uniform ``u`` that
``rng.random()`` gives, at a point (a Python float or a 1-d array) for a
float ``u``, or at the rows of a ``(K, dim)`` stack for ``(K,)`` uniforms,
each row bit-for-bit what its point gives alone. Its ``sample_grad`` is
then ``sample_grad_at(x, rng.random())``. The engine serves a long
one-sample run's uniforms to the hook from one vectorized Philox block
instead of resetting a stream every step; a problem without the hook
(``sample_grad_at = None``, the default) always takes the reset. Of the
shipped problems only ``BernoulliShiftQuadratic`` defines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_ingest import Dataset, spectral_norm_sq

__all__ = [
    "ProblemMeta",
    "Problem",
    "Quadratic",
    "BernoulliShiftQuadratic",
    "ChiSquareQuadratic",
    "LogisticRegressionProblem",
]


@dataclass(frozen=True, eq=False)
class ProblemMeta:
    """Analytic constants of a problem.

    ``L0``/``L1`` are the relaxed smoothness constants (local gradient
    Lipschitz constant ``L0 + L1 * norm(grad)`` on pairs closer than
    ``1/L1``), ``L`` the classical one, ``mu`` the strong-convexity
    modulus (0 when absent), ``sigma_sq`` the stochastic-gradient
    variance bound. ``f_star``/``x_star`` are None when unknown.
    """

    dim: int
    L0: float
    L1: float
    L: float
    mu: float
    sigma_sq: float
    f_star: float | None = None
    x_star: np.ndarray | None = None


class Problem:
    """Oracle interface; subclasses fill in the actual formulas."""

    meta: ProblemMeta

    # the optional one-uniform sample hook (see the module docstring)
    sample_grad_at = None

    def value(self, x: np.ndarray) -> float:
        return float(self.value_and_grad(self.check_dim(x))[0])

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(self.check_dim(x))[1]

    def sample_grad(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, X: np.ndarray):
        """``(value, grad)`` at a point already checked by ``check_dim``, or
        the ``(K,)`` values and ``(K, dim)`` gradients at the rows of a
        ``(K, dim)`` stack of such points."""
        cls = type(self)
        if cls.value is Problem.value or cls.grad is Problem.grad:
            # each of the base methods is defined by the other
            raise NotImplementedError(f"{cls.__name__} defines neither value_and_grad"
                                      " nor value and grad")
        if X.ndim == 1:
            return self.value(X), self.grad(X)
        return (np.array([self.value(x) for x in X], dtype=float),
                np.stack([self.grad(x) for x in X]))

    def sample_grads(self, x: np.ndarray, rng: np.random.Generator, k: int) -> np.ndarray:
        """``k`` successive ``sample_grad`` draws as the rows of a ``(k, dim)``
        array, for a point already checked by ``check_dim``."""
        return np.stack([self.sample_grad(x, rng) for _ in range(k)])

    def variance_at(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.meta.dim:
            raise ValueError(
                f"point has shape {x.shape}, problem dimension is {self.meta.dim}"
            )
        return x


class Quadratic(Problem):
    """Deterministic ``f(x) = (L/2) * norm(x)^2`` with minimizer 0."""

    def __init__(self, dim: int = 1, L: float = 1.0):
        if dim < 1 or not L > 0:
            raise ValueError("need dim >= 1 and L > 0")
        self.L = float(L)
        self.meta = ProblemMeta(
            dim=dim, L0=L, L1=0.0, L=L, mu=L, sigma_sq=0.0,
            f_star=0.0, x_star=np.zeros(dim),
        )

    def value_and_grad(self, X):
        return 0.5 * self.L * np.vecdot(X, X), self.L * X

    def sample_grad(self, x, rng):
        return self.L * x

    def sample_grads(self, x, rng, k):
        return np.tile(self.L * x, (k, 1))

    def variance_at(self, x):
        return 0.0


class BernoulliShiftQuadratic(Problem):
    """Two-outcome stochastic quadratic in one dimension.

    The stochastic gradient is ``x + a`` with probability ``p`` and ``x``
    otherwise, so ``grad(x) = x + p*a`` and the noise variance is
    ``p*(1-p)*a^2`` at every point. This is the adversarial construction
    whose clipped-SGD fixed point is available in closed form.
    """

    def __init__(self, a: float, p: float):
        if not a > 0:
            raise ValueError(f"shift a must be positive, got {a!r}")
        if not 0 < p < 0.5:
            raise ValueError(f"p must lie in (0, 1/2), got {p!r}")
        self.a = float(a)
        self.p = float(p)
        sigma_sq = p * (1.0 - p) * a * a
        self.meta = ProblemMeta(
            dim=1, L0=1.0, L1=0.0, L=1.0, mu=1.0, sigma_sq=sigma_sq,
            f_star=0.5 * sigma_sq, x_star=np.array([-p * a]),
        )

    def _value(self, v: float) -> float:
        # float ** 2 is libm's pow, whose last bit v * v and np.square do not
        # always reproduce; where it overflows Python raises instead of
        # giving IEEE's inf, which the divergence guard then stops at
        try:
            shifted_sq = (v + self.a) ** 2
        except OverflowError:
            shifted_sq = math.inf
        return 0.5 * (self.p * shifted_sq + (1.0 - self.p) * v * v)

    def value_and_grad(self, X):
        if X.ndim == 1:
            f = self._value(float(X[0]))
        else:
            f = np.array([self._value(v) for v in X[:, 0].tolist()])
        return f, X + self.p * self.a

    def sample_grad_at(self, X, u):
        if isinstance(u, float):
            return X + self.a if u < self.p else X
        return np.where((u < self.p)[:, None], X + self.a, X)

    def sample_grad(self, x, rng):
        return self.sample_grad_at(x, rng.random())

    def sample_grads(self, x, rng, k):
        return self.sample_grad_at(x, rng.random(k))

    def variance_at(self, x):
        return self.meta.sigma_sq


class ChiSquareQuadratic(Problem):
    """Quadratic with additive coordinate-wise chi-squared(1) gradient noise.

    ``sample_grad(x) = L*x + xi`` with ``xi_i ~ chi^2(1)`` (drawn as the
    square of one standard normal per coordinate), so the expected
    gradient is ``L*x + 1`` and the variance is ``2*dim`` everywhere.
    """

    def __init__(self, dim: int = 100, L: float = 0.1):
        if dim < 1 or not L > 0:
            raise ValueError("need dim >= 1 and L > 0")
        self.L = float(L)
        self._ones = np.ones(dim)
        self.meta = ProblemMeta(
            dim=dim, L0=L, L1=0.0, L=L, mu=L, sigma_sq=2.0 * dim,
            f_star=-dim / (2.0 * L), x_star=-self._ones / L,
        )

    def value_and_grad(self, X):
        # row sums along the last axis reduce each row as the 1-d sum does
        return 0.5 * self.L * np.vecdot(X, X) + X.sum(axis=-1), self.L * X + 1.0

    def sample_grad(self, x, rng):
        z = rng.standard_normal(self.meta.dim)
        return self.L * x + z * z

    def sample_grads(self, x, rng, k):
        # one (k, dim) draw consumes the stream exactly as k draws of dim
        z = rng.standard_normal((k, self.meta.dim))
        return self.L * x + z * z

    def variance_at(self, x):
        return self.meta.sigma_sq


def _sigmoid_given(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    # branch-free form of the two-sided stable sigmoid, given e = exp(-|t|):
    # 1 / (1 + e) where t >= 0 and e / (1 + e) elsewhere. As 0 <= e <= 1,
    # max(e, t >= 0) is exactly that numerator, and costs less than np.where
    return np.maximum(e, t >= 0) / (1.0 + e)


def _sigmoid_neg(m: float) -> float:
    """``1 / (1 + exp(m))`` for one margin through libm's ``math.exp``, at its
    limit (0.0 for m > 0, 1.0 for m < 0) where ``exp(|m|)`` overflows."""
    try:
        e = math.exp(abs(m))
    except OverflowError:
        return 0.0 if m > 0 else 1.0
    return 1.0 / (1.0 + e) if m >= 0 else e / (1.0 + e)


def _aligned(A: np.ndarray) -> np.ndarray:
    """``A`` if it is C-ordered and starts on a 64-byte boundary, else a
    copy that is.

    Where malloc places a large array depends on what the process
    allocated before it, and OpenBLAS's matrix-vector products are slower
    on a feature matrix that is not 32-byte aligned, with the same bits:
    an 18-cell lockstep logistic sweep took 0.205-0.211 s against 0.177 s
    (OpenBLAS 0.3.31, x86-64).
    """
    if A.flags.c_contiguous and A.ctypes.data % 64 == 0:
        return A
    buf = np.empty(A.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + A.nbytes].view(A.dtype).reshape(A.shape)
    out[...] = A
    return out


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A @ x`` for one point ``X = x``, or for each row ``x`` of ``X``.

    np.matmul runs one gemv per row, which reproduces the 1-d ``A @ x``
    bit for bit; the matrix product ``X @ A.T`` does not.
    """
    return np.matmul(A, X[..., None])[..., 0]


class LogisticRegressionProblem(Problem):
    """Binary logistic loss over a parsed dataset, optional ridge term.

    ``value(x) = mean_i log(1 + exp(-y_i <a_i, x>)) + (lam/2) norm(x)^2``
    with ``sample_grad`` drawing one row uniformly (batch size 1). The
    smoothness constant is estimated by power iteration on the feature
    Gram matrix; ``meta.sigma_sq`` is the exhaustive per-row gradient
    variance at x = 0, an estimate rather than a global bound.
    """

    def __init__(
        self,
        dataset: Dataset,
        lam: float = 0.0,
        add_intercept: bool = False,
        normalize_rows: bool = False,
    ):
        if lam < 0:
            raise ValueError(f"ridge weight must be nonnegative, got {lam!r}")
        A = dataset.to_dense()
        if normalize_rows:
            norms = np.linalg.norm(A, axis=1)
            A = A / np.where(norms > 0, norms, 1.0)[:, None]
        if add_intercept:
            A = np.hstack([A, np.ones((A.shape[0], 1))])
        self.A = A = _aligned(A)
        self.y = dataset.labels.astype(float)
        self.n = A.shape[0]
        self.lam = float(lam)
        L = spectral_norm_sq(A) / (4.0 * self.n) + lam
        self.meta = ProblemMeta(
            dim=A.shape[1], L0=L, L1=0.0, L=L, mu=lam,
            sigma_sq=self._row_variance(np.zeros(A.shape[1])),
        )

    # The private helpers take one point x or a (K, dim) array X of points,
    # one per row; every operation works row by row, so a row's results
    # are bit-for-bit those of its point alone.

    def _margins(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The margins ``m = y * (A @ x)`` and ``exp(-|m|)``, which both the
        loss and the gradient are built from."""
        M = self.y * _matvec(self.A, X)
        return M, np.exp(-np.abs(M))

    def _value(self, X: np.ndarray, M: np.ndarray, E: np.ndarray) -> np.ndarray:
        # log(1 + exp(-m)) = max(0, -m) + log1p(exp(-|m|)), stable both tails
        losses = np.maximum(0.0, -M) + np.log1p(E)
        return losses.mean(axis=-1) + 0.5 * self.lam * np.vecdot(X, X)

    def _grad(self, X: np.ndarray, M: np.ndarray, E: np.ndarray) -> np.ndarray:
        S = _sigmoid_given(-M, E)
        return -_matvec(self.A.T, self.y * S) / self.n + self.lam * X

    def value(self, x):
        x = self.check_dim(x)
        return float(self._value(x, *self._margins(x)))

    def grad(self, x):
        x = self.check_dim(x)
        return self._grad(x, *self._margins(x))

    def value_and_grad(self, X):
        M, E = self._margins(X)
        return self._value(X, M, E), self._grad(X, M, E)

    def sample_grad(self, x, rng):
        i = int(rng.integers(self.n))
        m = self.y[i] * float(self.A[i] @ x)
        return (-self.y[i] * _sigmoid_neg(m)) * self.A[i] + self.lam * x

    def sample_grads(self, x, rng, k):
        idx = rng.integers(self.n, size=k)
        rows = self.A[idx]
        # np.vecdot reproduces each 1-d A[i] @ x; the gathered matrix-vector
        # product A[idx] @ x does not
        m = self.y[idx] * np.vecdot(rows, x)
        # the scalar sigmoid of sample_grad per draw: numpy's vectorized exp
        # may differ from libm's in the last bit
        s = np.array([_sigmoid_neg(v) for v in m.tolist()])
        return (-self.y[idx] * s)[:, None] * rows + self.lam * x

    def _row_variance(self, x: np.ndarray) -> float:
        m, e = self._margins(x)
        s = _sigmoid_given(-m, e)
        G = (-(self.y * s))[:, None] * self.A  # per-row gradients minus the common ridge term
        mean = G.mean(axis=0)
        return float(((G - mean) ** 2).sum(axis=1).mean())

    def variance_at(self, x):
        x = self.check_dim(x)
        return self._row_variance(x)
