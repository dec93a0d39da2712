"""Objective-function oracles with analytic smoothness/noise metadata.

Each problem exposes the exact expected objective ``value``, its exact
gradient ``grad``, and a one-draw stochastic gradient ``sample_grad``
that is unbiased for ``grad`` with variance bounded by ``meta.sigma_sq``.
Problems are immutable; the caller owns all RNG state. Only the logistic
problem densifies a Dataset: it refuses a matrix past 1 GiB, and holds one,
the aligned buffer of ``to_dense``, which it normalizes, extends and signs
in place.

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
``sample_grad``, or the two draw hooks below, that is all it needs. The
shipped problems' batch oracles are vectorized.

A problem whose samples are a function of draws that never depend on the
point may define two hooks instead of ``sample_grad``. ``draws(rng, k)``
returns the randomness of ``k`` successive samples as one array, and
``sample_grad_at(X, D)`` maps draws to samples: one row of draws gives the
sample at a point, ``k`` rows the ``(k, dim)`` samples at it, and a ``(K,
dim)`` stack of points with one row of draws each gives each row's sample,
bit for bit what its point gives alone. From them the base class builds
``sample_grad(x, rng)`` as ``sample_grad_at(x, draws(rng, 1)[0])`` and
``sample_grads(x, rng, k)`` as ``sample_grad_at(x, draws(rng, k))``;
without them ``sample_grads`` stacks ``k`` calls of ``sample_grad``. A
problem whose sample is a function of one uniform takes ``draws =
Problem.uniforms`` (``rng.random(k)``), and its ``sample_grad_at`` also
takes one float ``u`` at a point. The engine
serves a long one-sample run of such a problem its uniforms from
vectorized Philox blocks instead of resetting a stream every step, and a
long run or Monte Carlo estimate of any other hooked problem may have its
draws computed ahead by a forked process (see ``optimizers``); outputs
never depend on which. A problem without the hooks (``draws = None``, the
default) always takes the reset. Of the shipped problems
``BernoulliShiftQuadratic`` takes ``Problem.uniforms`` and
``ChiSquareQuadratic`` draws its normals.

``_HELD`` (8 192 doubles, 64 KiB), defined in ``data_ingest``, bounds every
stacked array of the package: a run's held steps, a served Philox block of
``_HELD // K`` steps of K cells (see ``optimizers``), a Monte Carlo chunk
of ``_HELD // dim`` samples (see ``theory``), a block of the parse's
features (see ``data_ingest``), and here the rows whose norms the logistic
``normalize_rows`` divides by and the per-row gradients behind its
``variance_at`` and ``meta.sigma_sq``, each taken ``_HELD // d`` rows at a
time.

A stochastic run evaluates ``value_and_grad`` on stacks of the iterates it
holds, whose size it bounds by the largest array one call allocates: the
``(rows, dim)`` gradients, or ``row_doubles`` per point where a problem
sets more. A deterministic run, and a stochastic one whose bound leaves one
step a chunk, call it at every step on the step's own points instead, so
``row_doubles`` bounds only a stochastic run's stacked call (see
``optimizers``). ``LogisticRegressionProblem`` sets its sample count n: it
keeps the margins of its label-signed rows and the intermediates built
from them in four ``(rows, n)`` arrays of a scratch buffer, which it holds
between calls and grows to the largest stack it has seen. A call takes the
buffer off the problem and puts it back when it ends, so a concurrent or
nested call allocates its own; the dense ``A`` is computed on access.

A one-dimensional problem may also set ``float_oracles = True``: its
``value_and_grad`` and ``sample_grad`` then also take a Python float point
``v`` and return Python floats, ``(value, grad)`` and the sample, each the
bits of the one coordinate of the call at ``np.array([v])``. A flagged
problem's single run with ``B == 1`` and a method other than ``dp_sgd``
steps on Python floats and hands the step's oracles its iterate as it is:
``value_and_grad`` at each step of a deterministic run, which holds the
float value and gradient norm it returns until the chunk's guard, and the
sample oracle at each step of a stochastic one, whose ``value_and_grad``
takes the ``(n, 1)`` stack of the iterates it holds instead, or each of
them as a 1-d point where that stacked call raises (see ``optimizers``),
so the exact oracle sees a float only at a deterministic float step.
Every other run, and every run of a problem without the flag
(``float_oracles = False``, the default), steps on arrays. Of the shipped
problems only ``BernoulliShiftQuadratic`` sets it.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import _count, _finite_nonnegative, _finite_positive, _Record, _rule
from .data_ingest import _HELD, Dataset, spectral_norm_sq

__all__ = [
    "ProblemMeta",
    "Problem",
    "Quadratic",
    "BernoulliShiftQuadratic",
    "ChiSquareQuadratic",
    "LogisticRegressionProblem",
]

class ProblemMeta(_Record, eq=False):
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

    # the optional draw hooks (see the module docstring)
    draws = None
    sample_grad_at = None
    # the doubles per point of the largest array a stacked value_and_grad
    # allocates, where that is more than the dimension (see the module
    # docstring)
    row_doubles = 0
    # whether value_and_grad and sample_grad also take a Python float point
    # and return floats (see the module docstring)
    float_oracles = False

    def value(self, x: np.ndarray) -> float:
        return float(self.value_and_grad(self.check_dim(x))[0])

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(self.check_dim(x))[1]

    def sample_grad(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.draws is None:
            raise NotImplementedError
        return self.sample_grad_at(x, self.draws(rng, 1)[0])

    def uniforms(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``rng.random(k)``: the ``draws`` hook of a problem whose sample is
        a function of one uniform."""
        return rng.random(k)

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
        if self.draws is None:
            return np.stack([self.sample_grad(x, rng) for _ in range(k)])
        return self.sample_grad_at(x, self.draws(rng, k))

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
        _count("dim", dim)
        self.L = L = _finite_positive("L", L)
        self.meta = ProblemMeta(
            dim=dim, L0=L, L1=0.0, L=L, mu=L, sigma_sq=0.0,
            f_star=0.0, x_star=np.zeros(dim),
        )

    def value_and_grad(self, X):
        return 0.5 * self.L * np.vecdot(X, X), self.L * X

    def sample_grad(self, x, rng):
        return self.L * x

    def variance_at(self, x):
        self.check_dim(x)
        return 0.0


class BernoulliShiftQuadratic(Problem):
    """Two-outcome stochastic quadratic in one dimension.

    The stochastic gradient is ``x + a`` with probability ``p`` and ``x``
    otherwise, so ``grad(x) = x + p*a`` and the noise variance is
    ``p*(1-p)*a^2`` at every point. This is the adversarial construction
    whose clipped-SGD fixed point is available in closed form. Its oracles
    also take a Python float point and return floats.
    """

    float_oracles = True
    draws = Problem.uniforms

    def __init__(self, a: float, p: float):
        self.a = a = _finite_positive("shift a", a)
        if not 0 < p < 0.5:
            raise ValueError(f"p must lie in (0, 1/2), got {p!r}")
        self.p = p = float(p)
        sigma_sq = p * (1.0 - p) * a * a
        if not math.isfinite(sigma_sq):
            # an infinite variance makes f* and every value infinite
            raise ValueError(f"shift a must be positive and finite with a finite variance"
                             f" p * (1 - p) * a * a, got a={a!r}, p={p!r}")
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
        # a float point first: it is a deterministic float run's every step
        if isinstance(X, float):
            f = self._value(X)
        else:
            # a point or a stack. np.float_power's float64 loop is libm's
            # pow, the bits of float ** 2, and IEEE's inf where float ** 2
            # raises
            v = X[..., 0]
            with np.errstate(over="ignore"):
                f = 0.5 * (self.p * np.float_power(v + self.a, 2.0) + (1.0 - self.p) * v * v)
        return f, X + self.p * self.a

    def sample_grad_at(self, X, u):
        if isinstance(u, float):
            return X + self.a if u < self.p else X
        return np.where((u < self.p)[:, None], X + self.a, X)

    def variance_at(self, x):
        self.check_dim(x)
        return self.meta.sigma_sq


class ChiSquareQuadratic(Problem):
    """Quadratic with additive coordinate-wise chi-squared(1) gradient noise.

    ``sample_grad(x) = L*x + xi`` with ``xi_i ~ chi^2(1)`` (drawn as the
    square of one standard normal per coordinate), so the expected
    gradient is ``L*x + 1`` and the variance is ``2*dim`` everywhere.
    """

    def __init__(self, dim: int = 100, L: float = 0.1):
        _count("dim", dim)
        self.L = L = _finite_positive("L", L)
        # f* = -dim / (2 L) and x* = -1 / L, which a tiny L makes -inf
        _rule(math.isfinite(dim / (2.0 * L)) and math.isfinite(1.0 / L), "L",
              "large enough that dim / (2 L) and 1 / L are finite", L)
        self._ones = np.ones(dim)
        self.meta = ProblemMeta(
            dim=dim, L0=L, L1=0.0, L=L, mu=L, sigma_sq=2.0 * dim,
            f_star=-dim / (2.0 * L), x_star=-self._ones / L,
        )

    def value_and_grad(self, X):
        # row sums along the last axis reduce each row as the 1-d sum does
        return 0.5 * self.L * np.vecdot(X, X) + X.sum(axis=-1), self.L * X + 1.0

    def draws(self, rng, k):
        # one (k, dim) draw consumes the stream exactly as k draws of dim
        return rng.standard_normal((k, self.meta.dim))

    def sample_grad_at(self, X, Z):
        return self.L * X + Z * Z

    def variance_at(self, x):
        self.check_dim(x)
        return self.meta.sigma_sq


def _sigmoid_neg(m: float) -> float:
    """``1 / (1 + exp(m))`` for one margin through libm's ``math.exp``, at its
    limit (0.0 for m > 0, 1.0 for m < 0) where ``exp(|m|)`` overflows."""
    try:
        e = math.exp(abs(m))
    except OverflowError:
        return 0.0 if m > 0 else 1.0
    return 1.0 / (1.0 + e) if m >= 0 else e / (1.0 + e)


# the largest dense feature matrix LogisticRegressionProblem builds (1 GiB)
_DENSE_LIMIT = 1 << 30


class LogisticRegressionProblem(Problem):
    """Binary logistic loss over a parsed dataset, optional ridge term.

    ``value(x) = mean_i log(1 + exp(-y_i <a_i, x>)) + (lam/2) norm(x)^2``
    over the dense features ``A``, with ``sample_grad`` drawing one row
    uniformly (batch size 1). ``meta.L = lambda_max(A^T A) / (4 n) + lam``
    (power iteration) bounds the Hessian ``(1/n) A^T D A + lam I``, as
    ``D <= 1/4``; ``meta.sigma_sq`` is the exhaustive per-row gradient
    variance at x = 0, an estimate rather than a global bound. An ``A`` past
    ``_DENSE_LIMIT`` bytes is a MemoryError, raised before anything else.

    The one dense matrix the problem stores is ``Z = y[:, None] * A``, the
    rows signed by their labels: the margins are ``Z @ x`` and the gradient
    is ``-(Z.T @ s) / n + lam * x``, bit for bit ``y * (A @ x)`` and
    ``-(A.T @ (y * s)) / n + lam * x``, since a factor of +-1 only flips
    signs and rounding is symmetric under negation. ``A`` is computed from
    ``Z`` on every access.

    ``value_and_grad`` keeps its intermediates in a scratch buffer of four
    ``(rows, n)`` arrays that the problem holds between calls, grown to the
    largest stack it has seen. A call takes the buffer off the instance and
    puts it back when it ends, so a concurrent or re-entrant call finds none
    and allocates its own; a shallow copy shares it, so concurrent threads
    each take their own problem or a deep copy. The values and gradients it
    returns are always fresh arrays. The checked ``value`` and ``grad`` are
    the base class's: each returns one half of a ``value_and_grad`` call,
    which computes both.
    """

    def __init__(
        self,
        dataset: Dataset,
        lam: float = 0.0,
        add_intercept: bool = False,
        normalize_rows: bool = False,
    ):
        columns = dataset.dim + bool(add_intercept)
        nbytes = dataset.n * columns * 8
        if nbytes > _DENSE_LIMIT:
            raise MemoryError(f"the dense {dataset.n} x {columns} feature matrix needs"
                              f" {nbytes} bytes, over the {_DENSE_LIMIT}-byte limit")
        self.lam = _finite_nonnegative("ridge weight", lam)
        # the one dense matrix, normalized, extended and signed where it lies
        self.Z = Z = dataset._dense(columns)
        d = dataset.dim
        if normalize_rows:
            # each row's norm is reduced alone: a block's are the bits of
            # the whole matrix's
            size = max(1, _HELD // max(d, 1))
            for i in range(0, dataset.n, size):
                block = Z[i:i + size, :d]
                norms = np.linalg.norm(block, axis=1)
                block /= np.where(norms > 0, norms, 1.0)[:, None]
        if add_intercept:
            Z[:, d] = 1.0
        self.y = dataset.labels.astype(float)
        Z *= self.y[:, None]
        # a stacked evaluation's intermediates are (rows, n)
        self.n = self.row_doubles = Z.shape[0]
        L = spectral_norm_sq(Z) / (4.0 * self.n) + self.lam
        self.meta = ProblemMeta(
            dim=Z.shape[1], L0=L, L1=0.0, L=L, mu=self.lam,
            sigma_sq=self._row_variance(np.zeros(Z.shape[1])),
        )

    @property
    def A(self) -> np.ndarray:
        """The dense feature matrix, unsigned: ``y[:, None] * Z``."""
        return self.y[:, None] * self.Z

    def _terms(self, X, slots):
        """The losses ``log(1 + exp(-m))`` and sigmoids ``1 / (1 + exp(m))`` of
        the margins ``m = Z @ x`` of one point ``X = x`` or of each row ``x``
        of ``X``, computed in the four ``(..., n)`` ``slots`` and returned in
        two of them. Every operation works row by row, so a row's results
        are bit-for-bit those of its point alone."""
        M, N, E, T = slots
        # np.matmul runs one gemv per row, which reproduces the 1-d Z @ x bit
        # for bit; the matrix product X @ Z.T does not
        np.matmul(self.Z, X[..., None], out=M[..., None])
        np.negative(M, out=N)
        # E = exp(-|m|), the loss is max(0, -m) + log1p(E), stable in both
        # tails, and the sigmoid is 1 / (1 + E) where -m >= 0 and E / (1 + E)
        # elsewhere: as 0 <= E <= 1, max(E, -m >= 0) is that numerator
        np.exp(np.negative(np.abs(M, out=E), out=E), out=E)
        np.maximum(E, N >= 0, out=M)
        np.divide(M, np.add(E, 1.0, out=T), out=M)
        np.add(np.maximum(N, 0.0, out=N), np.log1p(E, out=T), out=N)
        return N, M

    def value_and_grad(self, X):
        rows = len(X) if X.ndim > 1 else 1
        buf = self.__dict__.pop("_scratch", None)
        if buf is None or len(buf[0]) < rows:
            # four arrays, not one block of four: those of a small stack then
            # come from memory the heap holds already, not from a new mapping
            buf = [np.empty((rows, self.n)) for _ in range(4)]
        key = slice(rows) if X.ndim > 1 else 0
        losses, S = self._terms(X, [b[key] for b in buf])
        # np.add.reduce / n is np.mean's arithmetic, bit for bit
        f = np.add.reduce(losses, axis=-1) / self.n + 0.5 * self.lam * np.vecdot(X, X)
        G = -np.matmul(self.Z.T, S[..., None])[..., 0] / self.n + self.lam * X
        self._scratch = buf
        return f, G

    def sample_grad(self, x, rng):
        i = int(rng.integers(self.n))
        return -_sigmoid_neg(float(self.Z[i] @ x)) * self.Z[i] + self.lam * x

    def sample_grads(self, x, rng, k):
        rows = self.Z[rng.integers(self.n, size=k)]
        # np.vecdot reproduces each 1-d Z[i] @ x; the gathered matrix-vector
        # product Z[idx] @ x does not. The scalar sigmoid of sample_grad per
        # draw: numpy's vectorized exp may differ from libm's in the last bit
        s = np.array([_sigmoid_neg(m) for m in np.vecdot(rows, x).tolist()])
        return (-s)[:, None] * rows + self.lam * x

    def _row_variance(self, x: np.ndarray) -> float:
        """``((G - G.mean(axis=0)) ** 2).sum(axis=1).mean()`` over the per-row
        gradients ``G`` (minus the common ridge term) at ``x``, bit for bit,
        with ``G`` computed in blocks of ``_HELD // d`` rows: no ``(n, d)``
        temporary exists. Past d = 1 the column sum adds the rows one at a
        time, in order, which each block's reduction continues from the sum
        so far; at d = 1 it is pairwise, so the one block is all n rows, the
        size of ``s``."""
        n, d = self.Z.shape
        s = self._terms(x, np.empty((4, n)))[1]
        size = max(1, _HELD // d) if d > 1 else n
        blocks = [slice(i, i + size) for i in range(0, n, size)]
        total = None
        for rows in blocks:
            G = (-s[rows])[:, None] * self.Z[rows]
            total = np.add.reduce(G if total is None else np.concatenate((total[None], G)))
        mean = total / n
        sq = np.empty(n)
        for rows in blocks:
            G = (-s[rows])[:, None] * self.Z[rows]
            np.add.reduce((G - mean) ** 2, axis=1, out=sq[rows])
        return float(sq.mean())

    def variance_at(self, x):
        x = self.check_dim(x)
        return self._row_variance(x)
