"""The iteration schemes: GD, clipped GD, (clipped) SGD, and DP-SGD.

Every scheme is the update ``x - eta * (clip_c(g) + noise)`` under a
different gradient oracle, and :func:`run` is the one entry point for all
of them: it takes a :class:`RunConfig`, or a :class:`Cells` batch of them.

A run is a deterministic function of (problem, config): stochastic draws
come from one Philox stream whose 256-bit counter is reset per step, so
the randomness consumed at step ``t`` (lane 0: gradient samples, lane 1:
privacy noise) is a pure function of (seed, t, sample index) and never
depends on what other steps drew. Traces record the exact-oracle gradient
norm at every iterate, which is what the convergence statements bound.

Step ``t``'s stream is numpy's Philox4x64-10 under the key ``seed mod
2**64`` with its counter reset to ``(0, 0, t, lane)``, and the generator
a step hands to ``sample_grad`` is numpy's own, re-armed at the next step:
it is valid only until then. A run decides once where its draws come
from, and every source gives the bits of the reset:

- Philox is counter-based, so the first uniform of every step is one
  block function of the step's counter. When the problem's ``draws`` hook
  is ``Problem.uniforms`` (a sample that is a function of one uniform),
  the method is stochastic, ``B == 1`` and the run's K cells draw at least
  ``K * T >= 128`` uniforms, the run computes the uniforms of all its
  cells for ``_HELD // K`` steps at a time (at least one) with a
  numpy-vectorized Philox and hands them to ``sample_grad_at``, with no
  reset.
- A draw never depends on the iterate, so another process can compute it
  ahead. A stochastic single run on arrays of any other problem with the
  ``draws`` hook, whose ``T * (B * d + d)`` draws (``+ d`` for the DP
  noise) reach ``2**20`` doubles, takes them from ``_feed.fed``: the
  parent makes step 0's draws inside step 0, and one forked child makes
  the same ``at_step(t, lane)`` and ``draws`` calls for the later steps
  into a ring of shared memory while the parent steps, where
  ``_feed._spawn``, the gate of every child, forks it. The child is
  reaped when the run ends, and killed first if it ends early. Where no
  child is forked, or the child fails (a warning fails it) or dies, the
  parent makes the child's calls itself, so the draws, and an exception
  or warning a draw raises, are those of one process. The Monte Carlo
  estimators in ``theory`` feed their chunks the same way. Outputs never
  depend on the feeder.
- Every other draw takes the reset.

The configuration and the starting point are validated once, before the
first step; the step loop calls only the problem's unchecked batch
oracles (``value_and_grad``, ``sample_grads``) and the unchecked clipping
kernels. A minibatch (B > 1) is drawn, clipped and summed as one
``(B, dim)`` array, with the same draws and the same sequential sum as B
one-sample calls, so traces do not depend on the batch path taken.

One step loop runs every configuration, holding its vectors in one of
three representations chosen once per run from the number of cells K and
the dimension d:

- a float (K = 1, d = 1, ``B == 1``, a method other than ``dp_sgd`` and
  a problem with ``float_oracles`` set): the iterate, gradients and update
  are Python floats, which the oracles take and return; the loop squares
  with ``v * v`` and clips with ``core.clip_float``. IEEE ``+ - * /`` and
  ``sqrt`` give Python floats the bits numpy gives one-element arrays, so
  this only drops numpy's per-call overhead, which is all the cost of a
  step here.
- a vector (every other single run): 1-d arrays and ``core.clip_vector``.
- a row stack (K > 1): a :class:`Cells` batch as one ``(cells, dim)``
  iterate array, with ``np.vecdot`` norms and one ``clip_rows`` call with
  per-row thresholds per step. A cell that trips the divergence guard
  leaves with its partial trace and its row is dropped.

Which exact oracle runs when: every run holds its steps in chunks, each
step's iterate with its squared applied norm, clipped fraction and
largest squared sample norm, and at a chunk's last step applies the guard
to the held steps and stores their records, in one place for every
method. A deterministic step (``gd``, ``clipped_gd``) reads the exact
gradient, so the loop calls ``value_and_grad`` at every step, on the
step's own float, vector or row stack, and holds the value and gradient
norm with the iterate; its chunk has up to ``_HELD // (K * dim)`` steps
(7 for an 18-cell sweep at d = 60). A stochastic step reads only its
samples, so the loop calls ``value_and_grad`` once on the chunk's
``(steps * K, dim)`` stack. Such a chunk keeps that call's largest array
(its gradients, or the problem's ``row_doubles`` per point) within
``_HELD`` doubles: 1024 steps of a Bernoulli run, 81 at d = 100. Where
that is one step, as for an 18-cell logistic sweep or d >= 8192, the run
evaluates every step inline, as a deterministic one does. No chunk has
more than ``_feed.REPORT_ROWS`` steps. Each row of a stacked call is its
point's, so the records are those of a call per step. A cell stops at its
first failing step, with the message, partial trace, final point and
``max_per_sample_norm`` of a run that checks every step; the steps it
took past it are dropped, and their draws, addressed by (seed, step,
lane), reach nothing. Where a step's oracle raises, the held steps are
checked first, the step's own too where it has its values (a sample
oracle raised, or the chunk's stacked call evaluates it): a cell that
failed the guard ends in that divergence and a batch's other cells take
the step again; where none failed, the exception stands. No held step's
exact oracle is called again. Where the stacked ``value_and_grad``
raises, the chunk is evaluated one step's points at a time, in step
order, so the same exception or divergence surfaces at the same step.

The guard, recording, clipping and update are written once; each
representation keeps its own draw block, and every cell draws from its
own Philox stream. Batched operations work row by row, so a cell's trace
is bit-for-bit the one it gives alone; a one-cell batch is a single run.

So a batch also runs on two CPUs: :func:`run` gives a batch of K >= 4
cells whose work, ``T * K * row_doubles`` (``max(dim, row_doubles)`` for
a stochastic method), reaches ``2**21`` to two step loops, its even
cells in the process and its odd cells in one forked child
(``_feed.split``), where ``_feed._spawn`` forks it. Each share is a row
stack, which forks nothing more. The child's traces come back through a
pipe and take the caller's configs. No child, a child that fails (a
warning fails it) or dies and a share that raises each run the whole
batch in the process, which gives its one-process bits, exception and
warnings; an interrupt reaps the child and propagates.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left

import numpy as np

from . import _feed
from ._record import _count, _finite_nonnegative, _finite_positive, _Record
from .core import _sum_rows, clip_float, clip_rows, clip_vector
from .problems import _HELD, Problem

__all__ = [
    "METHODS",
    "DIVERGENCE_LIMIT",
    "DivergenceError",
    "RunConfig",
    "Cells",
    "Trace",
    "privacy_noise",
    "run",
    "run_dp_sgd",
]

METHODS = ("gd", "clipped_gd", "sgd", "clipped_sgd", "dp_sgd")
_UNCLIPPED = ("gd", "sgd")
_DETERMINISTIC = ("gd", "clipped_gd")

DIVERGENCE_LIMIT = 1e12

# An iterate that overflows stops at the divergence guard, which reports
# the non-finite value; numpy's overflow and invalid-value warnings on the
# way there would only repeat it. The engines enter this once per call: a
# per-step `with` costs about 2 us, a quarter of a Bernoulli step.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


class DivergenceError(RuntimeError):
    """Iterate or objective exceeded the divergence guard; carries the
    trace accumulated so far in ``.trace``."""

    def __init__(self, message: str, trace: "Trace"):
        super().__init__(message)
        self.trace = trace


class RunConfig(_Record, eq=False):
    """Parameters of one optimization run.

    ``c`` must be ``math.inf`` exactly for the unclipped methods and a
    finite positive threshold for the clipped/DP ones; ``B`` > 1 needs a
    stochastic method and ``sigma_dp`` > 0 needs ``dp_sgd``. ``thin`` > 1
    records every thin-th iterate (the final one is always kept).
    Numpy scalars are stored as Python ones, so a float32 argument runs
    in float64 on every path.
    """

    method: str
    c: float
    eta: float
    T: int
    x0: np.ndarray
    B: int = 1
    sigma_dp: float = 0.0
    seed: int = 0
    thin: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method in _UNCLIPPED:
            if not math.isinf(self.c):
                raise ValueError(f"{self.method} requires c = inf, got {self.c!r}")
        else:
            if not (self.c > 0 and math.isfinite(self.c)):
                raise ValueError(f"{self.method} requires finite c > 0, got {self.c!r}")
        _finite_positive("eta", self.eta)
        _count("T", self.T, 0)
        if _count("B", self.B) != 1 and self.method in _DETERMINISTIC:
            raise ValueError(f"B = {self.B} is only valid for the stochastic methods;"
                             f" {self.method} steps along the exact gradient")
        if _finite_nonnegative("sigma_dp", self.sigma_dp) > 0 and self.method != "dp_sgd":
            raise ValueError("sigma_dp > 0 is only valid for dp_sgd")
        _count("thin", self.thin)
        x0 = np.asarray(self.x0, dtype=float).copy()
        if x0.ndim != 1 or x0.size == 0 or not np.isfinite(x0).all():
            raise ValueError("x0 must be a finite non-empty 1-d vector")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    def __setstate__(self, state: dict) -> None:
        # copy.deepcopy and unpickling rebuild x0 as a new, writeable array
        state["x0"].setflags(write=False)
        self.__dict__.update(state)


class Cells(_Record, eq=False):
    """A read-only batch of runs for :func:`run` to advance in lockstep.

    The configurations must share ``method``, ``T``, ``B``, ``thin``,
    ``sigma_dp`` and the dimension of ``x0``; they may differ in ``c``,
    ``eta``, ``seed`` and ``x0``, and may come as any iterable. ``T`` is
    the shared iteration budget.
    """

    configs: tuple[RunConfig, ...]

    def __post_init__(self) -> None:
        configs = tuple(self.configs)
        if not configs:
            raise ValueError("a batch of cells needs at least one configuration")
        if not all(isinstance(config, RunConfig) for config in configs):
            raise TypeError("every cell must be a RunConfig")
        first = configs[0]
        for config in configs[1:]:
            for name in ("method", "T", "B", "thin", "sigma_dp"):
                if getattr(config, name) != getattr(first, name):
                    raise ValueError(
                        f"cells must share {name}: {getattr(first, name)!r}"
                        f" != {getattr(config, name)!r}"
                    )
            if config.x0.size != first.x0.size:
                raise ValueError(
                    f"cells must share the dimension: {first.x0.size} != {config.x0.size}"
                )
        object.__setattr__(self, "configs", configs)

    @property
    def T(self) -> int:
        return self.configs[0].T


class Trace(_Record, eq=False):
    """Per-iteration record of one run, stored as parallel arrays.

    Row ``k`` holds recorded iterate ``iters[k]``: the objective, the exact
    gradient norm, the norm of the update applied at that step and the
    fraction of per-sample gradients that were clipped (both 0 at the
    final iterate, where no update follows).
    """

    config: RunConfig
    iters: np.ndarray
    f_vals: np.ndarray
    grad_norms: np.ndarray
    applied_norms: np.ndarray
    clipped_fracs: np.ndarray
    final_point: np.ndarray
    max_per_sample_norm: float = 0.0

    @property
    def min_grad_norm(self) -> float:
        """The smallest recorded gradient norm, or NaN if nothing was recorded."""
        return float(self.grad_norms.min()) if self.grad_norms.size else math.nan


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC'11) with the Random123 multipliers and Weyl key increments that
# numpy's Philox uses
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
# the fewest uniforms a run is served, over all its cells: a block costs
# about as much as this many counter resets, most of it in fixed per-call
# overhead, so a short single run (T = 1, say) takes the resets
_WARMUP = 128
# the least work of a batch of K >= 4 cells that runs its odd cells in a
# forked child (see `_cells`): T * K rows of the problem's `row_doubles`,
# or of at least dim for a stochastic method. Each share pays every step's
# fixed cost and the fork 2-6 ms, so only the rows' own cost pays for it.
# One process against split (18 cells, medians of 10 alternating pairs,
# 2-core x86-64): logistic clipped_gd at T = 233 (work 2.1e6) took 104 ms
# against 121, and at T = 234 88 ms against 64; chi-square clipped_sgd at
# 2**21 357 ms against 234, Quadratic(dim=60) clipped_sgd 364 against 271.
# Its gd, with no row cost, took 29 ms against 41 at T = 971
_SPLIT = 1 << 21


def _mulhilo(m: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products ``m * v`` for a
    uint64 array ``v``; the high word is built from 32-bit limbs, as uint64
    arithmetic wraps mod 2**64."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    v_lo = v & 0xFFFFFFFF
    v_hi = v >> 32
    low_carry = m_lo * v_lo
    low_carry >>= 32
    t = m_hi * v_lo
    t += low_carry
    mid = t & 0xFFFFFFFF
    t >>= 32
    mid += m_lo * v_hi
    mid >>= 32
    hi = m_hi * v_hi
    hi += t
    hi += mid
    return hi, m * v


def _philox_uniforms(keys, start: int, n: int, lane: int) -> np.ndarray:
    """``Generator.random()`` right after ``at_step(t, lane)``, for the ``n``
    steps ``t = start, start + 1, ...`` (columns) of the stream of each seed
    in ``keys`` (rows), as a ``(len(keys), n)`` array.

    numpy's Philox draws from a reset counter ``(0, 0, t, lane)`` by first
    incrementing it, so that draw is the first word of the Philox4x64-10
    block of counter ``(1, 0, t, lane)`` under the key ``(seed mod 2**64,
    0)``, made a double as ``(word >> 11) * 2**-53``.
    """
    key = np.array([k % (1 << 64) for k in keys], dtype=np.uint64)[:, None]
    shape = (key.size, n)
    c0 = np.ones(shape, dtype=np.uint64)
    c1 = np.zeros(shape, dtype=np.uint64)
    c2 = np.tile(np.arange(start, start + n, dtype=np.uint64), (key.size, 1))
    c3 = np.full(shape, lane, dtype=np.uint64)
    for r in range(10):
        # uint64 array arithmetic wraps mod 2**64
        k0 = key + (r * _PHILOX_W0 & _MASK64)
        k1 = (r * _PHILOX_W1) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    c0 >>= 11
    return c0 * 2.0**-53


class _StepRng:
    """Counter-based per-step random streams from a single Philox key.

    ``at_step(t, lane)`` addresses the stream of step ``t`` (lane 0:
    gradient samples, lane 1: privacy noise): it resets the 256-bit counter
    of the Philox bit generator under the key ``seed mod 2**64`` to
    ``(0, 0, t, lane)``, so every draw is a pure function of (seed, t,
    lane, position) and replays bit-for-bit regardless of consumption
    elsewhere. It re-arms and returns the same numpy ``Generator`` every
    time, so a generator it returned is valid only until the next
    ``at_step`` call on the same ``_StepRng``.
    """

    __slots__ = ("_bg", "_gen", "_counter", "_state")

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=int(seed) % (1 << 64))
        self._gen = np.random.Generator(self._bg)
        # the state dict the bit generator is reset from names this counter
        # array, whose last two words at_step writes
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = self._bg.state
        self._state["state"]["counter"] = self._counter
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def at_step(self, t: int, lane: int = 0) -> np.random.Generator:
        counter = self._counter
        counter[2] = t
        counter[3] = lane
        self._bg.state = self._state
        return self._gen


def privacy_noise(dim: int, sigma_dp: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian privacy noise with total expected squared norm sigma_dp^2.

    ``sigma_dp`` is a total-norm scale: each of the ``dim`` coordinates has
    standard deviation ``sigma_dp / sqrt(dim)``, so E|z|^2 = sigma_dp^2
    whatever the dimension."""
    return rng.standard_normal(dim) * (sigma_dp / math.sqrt(dim))


def _partial_trace(config, ts, k, records, x, max_sq) -> Trace:
    """The trace of the first ``k`` of a run's ``(4, len(ts))`` records: a
    finished run's, or the one a ``DivergenceError`` carries. ``max_sq`` is
    the largest squared sample norm: ``sqrt`` is monotone and correctly
    rounded, so its root is the largest of the norms."""
    return Trace(config, ts[:k].copy(), *(a[:k].copy() for a in records), x.copy(),
                 math.sqrt(max_sq))


def _divergence(t: int, f, x_norm) -> str:
    return (f"divergence at t={t}: f={float(f)!r}, |x|={float(x_norm)!r}"
            f" (limit {DIVERGENCE_LIMIT:g})")


def _passes(f, grad_norm, x_norm) -> np.ndarray:
    """The divergence guard on arrays: a NaN f fails |f| <= limit, and a NaN
    or infinite gradient norm fails < inf."""
    keep = np.abs(f) <= DIVERGENCE_LIMIT
    keep &= grad_norm < math.inf
    keep &= ~(x_norm > DIVERGENCE_LIMIT)
    return keep


def _exact_rows(value_and_grad, points: np.ndarray, out: np.ndarray, stack: bool) -> None:
    """Writes the values and exact gradient norms at an ``(m, K, dim)``
    chunk of iterates (row ``i`` the K cells' at the chunk's step ``i``)
    into the two ``(m, K)`` rows of ``out``.

    The oracle takes the chunk as one ``(m * K, dim)`` stack. Where that
    raises, it takes one step's points at a time, in step order, as a row
    stack for a batch and as a 1-d point for a single run, without the
    cells that failed the guard at an earlier step (their later rows are
    NaN), so the exception or divergence that a run evaluating every step
    meets surfaces at the same step.
    """
    m, K, dim = points.shape
    X = points.reshape(m * K, dim)
    try:
        f, G = value_and_grad(X)
        out[0] = f.reshape(m, K)
        out[1] = np.sqrt(np.vecdot(G, G)).reshape(m, K)
    except Exception:
        out.fill(math.nan)
        F, GN = out
        alive = np.arange(K)
        for i in range(m):
            X = points[i, alive]
            f, G = value_and_grad(X if stack else X[0])
            G = np.reshape(G, (-1, dim))
            F[i, alive], GN[i, alive] = f, np.sqrt(np.vecdot(G, G))
            alive = alive[_passes(F[i, alive], GN[i, alive], np.sqrt(np.vecdot(X, X)))]
            if not alive.size:
                break


@_quiet_overflow
def _run(problem: Problem, configs: tuple[RunConfig, ...],
         writer: _feed.RowWriter | None = None) -> list[tuple[Trace, str | None]]:
    """The step loop: every configuration of ``configs``, which share all
    but ``c``, ``eta``, ``seed`` and ``x0``, from its ``x0``; a single run
    that is not fed takes its records from ``writer``, where it forks, and
    reports them to it every ``_feed.REPORT_ROWS``.

    Returns one ``(trace, message)`` pair per configuration, in input
    order: ``message`` describes the divergence that stopped the run, and
    is None for a run that finished. It raises no ``DivergenceError``.
    """
    first = configs[0]
    problem.check_dim(first.x0)
    method, T, B, sigma_dp = first.method, first.T, first.B, first.sigma_dp
    deterministic = method in _DETERMINISTIC
    dp = method == "dp_sgd"
    K, dim = len(configs), first.x0.size
    # decided once per run: a one-sample run of a problem whose draws are
    # `Problem.uniforms` (looked up on the class, which a copied instance
    # keeps) that draws enough uniforms over its cells to pay for a block is
    # served them, for all cells at once, from one Philox block per `chunk`
    # steps; the other draws are fed or take the counter reset
    sample_grad_at = problem.sample_grad_at
    served = (type(problem).draws is Problem.uniforms and not deterministic and B == 1
              and K * T >= _WARMUP)
    chunk = max(1, _HELD // K)
    keys = [config.seed for config in configs]
    rngs = (None if deterministic or served and not dp
            else [_StepRng(seed) for seed in keys])
    stack = K > 1
    fed = False
    # the largest squared norm of each cell's clipped samples
    max_sample = np.zeros(K)
    active = np.arange(K)
    results: list = [None] * K

    # The representation, chosen once, holds one kind of value: Python
    # floats, 1-d arrays or a row stack. `dot(v, v)` is a squared norm and
    # `clip` the clipping kernel. A row stack keeps a threshold and a step
    # size per row, and `active` maps rows to cells.
    if stack:
        X = np.stack([config.x0 for config in configs])
        c = np.array([config.c for config in configs])
        c_rows = np.repeat(c, B)  # the threshold of each of the K * B samples
        eta = np.array([config.eta for config in configs])[:, None]
        dot, sqrt, clip = np.vecdot, np.sqrt, clip_rows
    else:
        c, eta = first.c, first.eta
        rng = rngs[0] if rngs else None
        # floats only where every vector of the step is one; the flag is
        # looked up on the instance, like the hook
        if dim == 1 and B == 1 and not dp and problem.float_oracles:
            X = first.x0.item()
            dot, sqrt, clip = operator.mul, math.sqrt, clip_float
        else:
            # ndarray.dot: the bits of the 1-d `@` at half its call cost
            X = first.x0.astype(float)
            dot, sqrt, clip = np.ndarray.dot, math.sqrt, clip_vector
            # fed: hooked draws, which never depend on the iterate, that pay
            # for a child
            doubles = T * (B + dp) * dim
            fed = (not (deterministic or served) and problem.draws is not None
                   and _feed.should_feed(T, doubles))

    if fed:
        def draw(t):
            # step t's samples, and its noise after them
            D = problem.draws(rng.at_step(t), B)
            return (D, privacy_noise(dim, sigma_dp, rng.at_step(t, lane=1))) if dp else (D,)

        feed = _feed.fed(draw, T, doubles)

    # the recorded iterations: every thin-th one, and always the last
    recorded = list(range(0, T + 1, first.thin))
    if T % first.thin:
        recorded.append(T)
    ts = np.array(recorded, dtype=np.int64)
    # one column per row of X. The run reports its count of records to a
    # writer's child every `flush` of them; the CLI's copy ends the reports
    shared = writer.open(ts) if writer is not None and not fed else None
    records = np.empty((4, ts.size, K)) if shared is None else shared
    flush = ts.size + 1 if shared is None else _feed.REPORT_ROWS
    k = 0

    # Every run holds up to `held_rows` steps (see _HELD): each step's
    # iterate, value and exact gradient norm, squared applied norm, clipped
    # fraction and `top`, and applies the guard and stores its records once
    # per chunk, at `stop`. A deterministic step reads its exact gradient,
    # and a chunk of one step saves nothing by stacking, so those runs call
    # the exact oracle at every step, `inline`; the others evaluate the
    # chunk's iterates in one call. `j` steps from `t0` on are held with
    # their values, or with the iterates that call takes. `hx` holds the
    # iterates themselves, which no step changes in place; the row views
    # take a single run's scalar stores
    held_rows = max(1, min(_feed.REPORT_ROWS, _HELD // (
        K * (dim if deterministic else max(dim, problem.row_doubles)))))
    inline = deterministic or held_rows == 1
    hx = [None] * held_rows
    steps_held = np.empty((5, held_rows, K))
    hf, hgn, hsq, hfrac, htop = steps_held if stack else steps_held[:, :, 0]
    j, t0, stop, raised = 0, 0, min(held_rows - 1, T), None

    value_and_grad = problem.value_and_grad
    sample_grad, sample_grads = problem.sample_grad, problem.sample_grads
    t = 0
    try:
        while t <= T:
            hx[j] = X
            try:
                if inline:
                    f, G = value_and_grad(X)
                    hf[j] = f
                    hgn[j] = sqrt(dot(G, G))
                i, j = j, j + 1
                if t == T:
                    applied_sq = frac = top = 0.0
                elif deterministic:
                    applied, applied_sq, rescaled = clip(G, c)
                    frac, top = rescaled * 1.0, 0.0
                else:
                    if served and not t % chunk:
                        # the block's rows are the cells in input order
                        block = _philox_uniforms(keys, t, min(chunk, T - t), 0)
                        if not stack:
                            block = block[0].tolist()
                    # each representation draws in its own way; `top` is the
                    # largest squared norm of a cell's clipped samples
                    if stack:
                        if served:
                            U = sample_grad_at(X, block[active, t % chunk])
                        elif B == 1:
                            # sample_grad, as a single run draws one sample
                            U = np.stack([sample_grad(x, rngs[i].at_step(t))
                                          for x, i in zip(X, active)])
                        else:
                            U = np.concatenate([sample_grads(x, rngs[i].at_step(t), B)
                                                for x, i in zip(X, active)])
                        V, sq, rescaled = clip_rows(U, c_rows)
                        if B == 1:
                            # one sample per cell: its mask, clipped row and norm
                            frac, applied, top = rescaled * 1.0, V, sq
                        else:
                            frac = rescaled.reshape(-1, B).sum(axis=1) / B
                            # the in-order sum of each cell's B rows
                            applied = _sum_rows(V.reshape(-1, B, dim)) / B
                            top = sq.reshape(-1, B).max(axis=1)
                        if dp:
                            noise = np.stack([privacy_noise(dim, sigma_dp,
                                                            rngs[i].at_step(t, lane=1))
                                              for i in active])
                    else:
                        if fed:
                            drawn = next(feed)
                        if B == 1:
                            # one sample stays on the 1-d kernel: a (1, dim) batch
                            # costs more in array overhead than it saves
                            g = (sample_grad_at(X, block[t % chunk]) if served
                                 else sample_grad_at(X, drawn[0][0]) if fed
                                 else sample_grad(X, rng.at_step(t)))
                            applied, top, rescaled = clip(g, c)
                            frac = 1.0 if rescaled else 0.0
                        else:
                            U = (sample_grad_at(X, drawn[0]) if fed
                                 else sample_grads(X, rng.at_step(t), B))
                            V, sq, rescaled = clip_rows(U, c)
                            frac = int(np.count_nonzero(rescaled)) / B
                            top = float(sq.max())
                            applied = _sum_rows(V) / B
                        if dp:
                            noise = (drawn[1] if fed
                                     else privacy_noise(dim, sigma_dp, rng.at_step(t, lane=1)))
                    if dp:
                        applied = applied + noise
                    # one clipped sample with nothing added: the clip kernel's
                    # squared norm is this same dot(applied, applied)
                    applied_sq = top if B == 1 and not dp else dot(applied, applied)
                hsq[i] = applied_sq
                hfrac[i] = frac
                htop[i] = top
            except Exception as exc:
                # the steps held are checked first, this one too where it is
                # held with its values: one that failed the guard ends its
                # cell as it would have
                raised, stop = exc, t

            if t == stop:
                # the held iterates as one array; a one-step chunk's is a
                # view of its iterate, which a large one is not copied for
                held = np.asarray(hx[0] if j == 1 else hx[:j]).reshape(j, active.size, dim)
                if not inline:
                    _exact_rows(value_and_grad, held, steps_held[:2, :j], stack)
                F = steps_held[0, :j]
                XN = np.sqrt(np.vecdot(held, held))
                passed = _passes(F, steps_held[1, :j], XN)
                # steps t0..end-1 are whole: all but a raising one
                end = t + (raised is None)
                kk = bisect_left(recorded, end)
                np.sqrt(steps_held[2, :end - t0], out=steps_held[2, :end - t0])
                records[:, k:kk] = steps_held[:4, ts[k:kk] - t0]
                if not passed.all():
                    keep = passed.all(axis=0)
                    for r in np.flatnonzero(~keep):
                        # the cell stops at its first failing step, and keeps
                        # the k records before it
                        row, i = int(passed[:, r].argmin()), active[r]
                        k = bisect_left(recorded, t0 + row)
                        results[i] = (_partial_trace(configs[i], ts, k, records[:, :, r],
                                                     held[row, r], np.fmax.reduce(
                                                         steps_held[4, :row, r],
                                                         initial=max_sample[r])),
                                      _divergence(t0 + row, F[row, r], XN[row, r]))
                    if not stack:
                        break
                    active, X, c, eta, max_sample = (
                        a[keep] for a in (active, X, c, eta, max_sample))
                    if t < T and raised is None:
                        applied = applied[keep]
                    records = records[:, :, keep]
                    steps_held = steps_held[:, :, keep]
                    hf, hgn, hsq, hfrac, htop = steps_held
                    c_rows = np.repeat(c, B)
                    if not active.size:
                        break
                elif raised is not None:
                    raise raised
                np.fmax(max_sample, np.fmax.reduce(steps_held[4, :end - t0], axis=0,
                                                   initial=0.0), out=max_sample)
                # `held` would keep the chunk's last iterate past its update
                k, j, held = kk, 0, None
                if k >= flush:
                    flush = writer.report(k)
                if raised is not None:
                    # the cells left take the step again
                    raised, t0, stop = None, t, min(t + held_rows - 1, T)
                    continue
                t0, stop = t + 1, min(t + held_rows, T)

            if t < T:
                X = X - eta * applied
            t += 1
    finally:
        if fed:
            # stops and reaps the feeder, however the loop ended
            feed.close()

    for r, i in enumerate(active):
        if results[i] is None:
            results[i] = (_partial_trace(configs[i], ts, k, records[:, :, r],
                                         X[r] if stack else np.atleast_1d(X), max_sample[r]),
                          None)
    return results


def _cells(problem: Problem, configs: tuple[RunConfig, ...]) -> list[tuple[Trace, str | None]]:
    """:func:`_run` on a batch, whose odd cells a forked child runs where
    the batch is large enough (see ``_SPLIT``) and ``_feed.split`` forks."""
    first, K = configs[0], len(configs)
    # what a share's row costs: the oracle's arrays of the point, and for a
    # stochastic step at least the cell's own sample call
    row = problem.row_doubles
    if first.method not in _DETERMINISTIC:
        row = max(first.x0.size, row)
    if K >= 4 and first.T * K * row >= _SPLIT:
        # the child's traces come back as their fields, and take the
        # caller's own configs here
        halves = _feed.split(lambda: _run(problem, configs[::2]), lambda: [
            (trace._astuple()[1:], message) for trace, message in _run(problem, configs[1::2])])
        if halves is not None:
            pairs = [None] * K
            pairs[::2], odd = halves
            pairs[1::2] = [(Trace(config, *fields), message)
                           for config, (fields, message) in zip(configs[1::2], odd)]
            return pairs
    return _run(problem, configs)


def run_dp_sgd(problem: Problem, config: RunConfig) -> Trace:
    """:func:`run` for one ``dp_sgd`` configuration, which it checks: minibatch
    SGD with per-sample clipping plus spherical Gaussian noise of total
    variance sigma_dp^2 added to the averaged update, through the same step
    loop as every run. Kept for the benchmark's chi-square workload
    (``bench/workloads.py``), which calls it; it goes when that benchmark
    next changes.
    """
    if config.method != "dp_sgd":
        raise ValueError(f"run_dp_sgd handles dp_sgd, got {config.method!r}")
    return run(problem, config)


def run(problem: Problem, config: RunConfig | Cells, *,
        writer: _feed.RowWriter | None = None) -> Trace | list[tuple[Trace, bool]]:
    """Run ``config.method`` from ``config.x0`` and return its trace.

    The deterministic methods step along the exact gradient. The stochastic
    ones clip each of the ``B`` per-sample gradients before averaging them
    (the per-sample sensitivity discipline of DP-SGD), and ``dp_sgd`` adds
    spherical Gaussian noise of total variance ``sigma_dp**2`` to the
    average. Raises :class:`DivergenceError`, which carries the partial
    trace, when the iterate or the objective leaves the divergence guard.

    Given a :class:`Cells` batch instead, run every cell in lockstep and
    return one ``(trace, diverged)`` pair per cell, in input order: the
    trace ``run`` returns for that cell alone, or, for a cell that
    diverged, the partial trace its ``DivergenceError`` carries. A large
    batch runs its odd cells in a forked child (see the module notes),
    with the same bits, exceptions and configs.

    ``writer``, a :class:`clipbench._feed.RowWriter` for a single run only,
    takes the trace's records as the run writes them, so that a forked
    child formats their CSV rows while it steps.
    """
    if isinstance(config, Cells):
        if writer is not None:
            raise TypeError("a writer takes the rows of a single run, not of a Cells batch")
        return [(trace, message is not None) for trace, message in _cells(problem, config.configs)]
    if not isinstance(config, RunConfig):
        raise TypeError(f"run takes a RunConfig or a Cells batch of them,"
                        f" got {type(config).__name__}")
    [(trace, message)] = _run(problem, (config,), writer)
    if message is not None:
        raise DivergenceError(message, trace)
    return trace
