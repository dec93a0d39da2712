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
it is valid only until then. Philox is counter-based, so the first
uniform of every step is one block function of the step's counter. A run
decides once whether to serve its samples from that: when the problem
defines ``sample_grad_at`` (a sample that is a function of one uniform),
the method is stochastic, ``B == 1`` and ``T >= 128``, it computes the
uniforms of all its K cells for ``4096 // K`` steps at a time (at least
one) with a numpy-vectorized Philox and hands them to ``sample_grad_at``,
with no reset. Every other draw takes the reset.

The configuration and the starting point are validated once, before the
first step; the step loop calls only the problem's unchecked batch
oracles (``value_and_grad``, ``sample_grads``) and the unchecked clipping
kernels. A minibatch (B > 1) is drawn, clipped and summed as one
``(B, dim)`` array, with the same draws and the same sequential sum as B
one-sample calls, so traces do not depend on the batch path taken.

One step loop runs every configuration, holding its vectors in one of
three representations chosen once per run from the number of cells K and
the dimension d:

- a float (K = 1, d = 1): the iterate, gradients and update are Python
  floats, the oracles get a fresh one-element array of the iterate and the
  loop reads their results back with ``.item()``, squares with ``v * v``
  and clips with ``core.clip_float``. IEEE ``+ - * /`` and ``sqrt`` give
  Python floats the bits numpy gives one-element arrays, so this only
  drops numpy's per-call overhead, which is all the cost of a step here.
- a vector (K = 1, d > 1): 1-d arrays and ``core.clip_vector``.
- a row stack (K > 1): a :class:`Cells` batch as one ``(cells, dim)``
  iterate array, with one stacked ``value_and_grad`` call, ``np.vecdot``
  norms and one ``clip_rows`` call with per-row thresholds per step. A
  cell that trips the divergence guard leaves with its partial trace and
  its row is dropped.

The guard, recording, clipping and update are written once; each
representation keeps its own draw block, and every cell draws from its
own Philox stream. Batched operations work row by row, so a cell's trace
is bit-for-bit the one it gives alone; a one-cell batch is a single run.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .core import _sum_rows, clip_float, clip_rows, clip_vector
from .problems import Problem

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


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parameters of one optimization run.

    ``c`` must be ``math.inf`` exactly for the unclipped methods and a
    finite positive threshold for the clipped/DP ones; ``B`` > 1 needs a
    stochastic method and ``sigma_dp`` > 0 needs ``dp_sgd``. ``thin`` > 1
    records every thin-th iterate (the final one is always kept).
    ``T``, ``B``, ``seed`` and ``thin`` are integers (Python or numpy),
    stored as Python ints; ``c``, ``eta`` and ``sigma_dp`` are real
    scalars (Python or numpy), stored as Python floats, so a float32
    argument runs in float64 on every path.
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
        for name in ("T", "B", "seed", "thin"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        for name in ("c", "eta", "sigma_dp"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.method in _UNCLIPPED:
            if not math.isinf(self.c):
                raise ValueError(f"{self.method} requires c = inf, got {self.c!r}")
        else:
            if not (self.c > 0 and math.isfinite(self.c)):
                raise ValueError(f"{self.method} requires finite c > 0, got {self.c!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"step size must be positive and finite, got {self.eta!r}")
        if self.T < 0:
            raise ValueError(f"iteration budget must be >= 0, got {self.T!r}")
        if self.B < 1:
            raise ValueError(f"minibatch size must be >= 1, got {self.B!r}")
        if self.B != 1 and self.method in _DETERMINISTIC:
            raise ValueError(f"B = {self.B} is only valid for the stochastic methods;"
                             f" {self.method} steps along the exact gradient")
        if self.sigma_dp < 0 or not math.isfinite(self.sigma_dp):
            raise ValueError(f"DP noise scale must be finite and >= 0, got {self.sigma_dp!r}")
        if self.sigma_dp > 0 and self.method != "dp_sgd":
            raise ValueError("sigma_dp > 0 is only valid for dp_sgd")
        if self.thin < 1:
            raise ValueError(f"thinning stride must be >= 1, got {self.thin!r}")
        x0 = np.asarray(self.x0, dtype=float).copy()
        if x0.ndim != 1 or x0.size == 0 or not np.isfinite(x0).all():
            raise ValueError("x0 must be a finite non-empty 1-d vector")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)


class Cells:
    """A read-only batch of runs for :func:`run` to advance in lockstep.

    The configurations must share ``method``, ``T``, ``B``, ``thin``,
    ``sigma_dp`` and the dimension of ``x0``; they may differ in ``c``,
    ``eta``, ``seed`` and ``x0``. ``T`` is the shared iteration budget.
    """

    # a plain class: building a dataclass costs ~0.6 ms at import
    __slots__ = ("_configs",)

    def __init__(self, configs) -> None:
        configs = tuple(configs)
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
        self._configs = configs

    @property
    def configs(self) -> tuple[RunConfig, ...]:
        return self._configs

    @property
    def T(self) -> int:
        return self._configs[0].T


@dataclass(frozen=True, eq=False)
class Trace:
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
# uniforms per block a served run computes: a block covers `_CHUNK // K`
# steps of all K cells, so its arrays stay small (numpy's Philox throughput
# halves once they leave the cache, at 20 cells x 4096 steps)
_CHUNK = 4096
# the shortest run that is served: a block costs about as much as this many
# counter resets, most of it in fixed per-call overhead, so a short run (T =
# 1, say) takes the resets
_WARMUP = 128


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
    """Gaussian privacy noise with total expected squared norm sigma_dp^2."""
    return rng.standard_normal(dim) * (sigma_dp / math.sqrt(dim))


def _partial_trace(config, ts, k, records, x, max_sample) -> Trace:
    """The trace of the first ``k`` of a run's ``(4, len(ts))`` records: a
    finished run's, or the one a ``DivergenceError`` carries."""
    return Trace(config, ts[:k].copy(), *(a[:k].copy() for a in records), x.copy(), max_sample)


def _divergence(t: int, f, x_norm) -> str:
    return (f"divergence at t={t}: f={float(f)!r}, |x|={float(x_norm)!r}"
            f" (limit {DIVERGENCE_LIMIT:g})")


def _same(v):
    return v


def _as_point(v: float) -> np.ndarray:
    return np.array((v,))


@_quiet_overflow
def _run(problem: Problem, configs: tuple[RunConfig, ...]) -> list[tuple[Trace, str | None]]:
    """The step loop: every configuration of ``configs``, which share all
    but ``c``, ``eta``, ``seed`` and ``x0``, from its ``x0``.

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
    # decided once per run: a one-sample run of a problem with the
    # one-uniform hook (looked up on the instance) long enough to pay for a
    # block is served its uniforms, for all cells at once, from one Philox
    # block per `chunk` steps; every other draw takes the counter reset
    sample_grad_at = problem.sample_grad_at
    served = sample_grad_at is not None and not deterministic and B == 1 and T >= _WARMUP
    chunk = max(1, _CHUNK // K)
    keys = [config.seed for config in configs]
    rngs = (None if deterministic or served and not dp
            else [_StepRng(seed) for seed in keys])
    stack = K > 1

    # The representation, chosen once: `point(X)` is the oracles' argument,
    # `read` turns an array the step returns into the loop's vector, `dot(v,
    # v)` is a squared norm and `clip` the clipping kernel. A row stack keeps
    # a threshold and a step size per row, and `active` maps rows to cells.
    if stack:
        X = np.stack([config.x0 for config in configs])
        c = np.array([config.c for config in configs])
        c_rows = np.repeat(c, B)  # the threshold of each of the K * B samples
        eta = np.array([config.eta for config in configs])[:, None]
        point, read, dot, sqrt, clip = _same, _same, np.vecdot, np.sqrt, clip_rows
        max_sample = np.zeros(K)
        active = np.arange(K)
        results: list = [None] * K
    else:
        c, eta = first.c, first.eta
        rng = rngs[0] if rngs else None
        max_sample = 0.0
        if dim == 1:
            X = first.x0.item()
            point, read, dot, sqrt, clip = (_as_point, np.ndarray.item, operator.mul,
                                            math.sqrt, clip_float)
        else:
            # ndarray.dot: the bits of the 1-d `@` at half its call cost
            X = first.x0.astype(float)
            point, read, dot, sqrt, clip = _same, _same, np.ndarray.dot, math.sqrt, clip_vector

    # the recorded iterations: every thin-th one, and always the last
    recorded = list(range(0, T + 1, first.thin))
    if T % first.thin:
        recorded.append(T)
    ts = np.array(recorded, dtype=np.int64)
    # one column per row of X; a single run writes through 1-d views, whose
    # scalar stores cost less
    records = np.empty((4, ts.size, K))
    fs, gs, aps, cfs = records if stack else records[:, :, 0]
    k = 0
    message = None

    value_and_grad = problem.value_and_grad
    sample_grad, sample_grads = problem.sample_grad, problem.sample_grads
    for t in range(T + 1):
        xp = point(X)
        f, G = value_and_grad(xp)
        G = read(G)
        grad_norm = sqrt(dot(G, G))
        x_norm = sqrt(dot(X, X))
        # the divergence guard: a NaN f fails |f| <= limit, and a NaN or
        # infinite gradient norm fails < inf
        if stack:
            keep = np.abs(f) <= DIVERGENCE_LIMIT
            keep &= grad_norm < math.inf
            keep &= ~(x_norm > DIVERGENCE_LIMIT)
            if not keep.all():
                for r in np.flatnonzero(~keep):
                    i = active[r]
                    results[i] = (_partial_trace(configs[i], ts, k, records[:, :, r], X[r],
                                                 float(max_sample[r])),
                                  _divergence(t, f[r], x_norm[r]))
                active, X, G, f, grad_norm, c, eta, max_sample = (
                    a[keep] for a in (active, X, G, f, grad_norm, c, eta, max_sample))
                fs, gs, aps, cfs = records = records[:, :, keep]
                c_rows = np.repeat(c, B)
                if not active.size:
                    break
        elif not (abs(f) <= DIVERGENCE_LIMIT and grad_norm < math.inf
                  and not x_norm > DIVERGENCE_LIMIT):
            message = _divergence(t, f, x_norm)
            break

        if t < T:
            if deterministic:
                applied, applied_sq, rescaled = clip(G, c)
                frac = rescaled * 1.0
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
                    frac = rescaled.reshape(-1, B).sum(axis=1) / B
                    # the in-order sum of one row is that row, bit for bit
                    applied = _sum_rows(V.reshape(-1, B, dim)) / B
                    top = sq.reshape(-1, B).max(axis=1)
                    # fmax keeps the running maximum where a norm is NaN, as
                    # the `>` test below does
                    max_sample = np.fmax(max_sample, np.sqrt(top))
                    if dp:
                        noise = np.stack([privacy_noise(dim, sigma_dp, rngs[i].at_step(t, lane=1))
                                          for i in active])
                else:
                    if B == 1:
                        # one sample stays on the 1-d kernel: a (1, dim) batch
                        # costs more in array overhead than it saves
                        g = (sample_grad_at(X, block[t % chunk]) if served
                             else read(sample_grad(xp, rng.at_step(t))))
                        applied, top, rescaled = clip(g, c)
                        frac = 1.0 if rescaled else 0.0
                    else:
                        V, sq, rescaled = clip_rows(sample_grads(xp, rng.at_step(t), B), c)
                        frac = int(np.count_nonzero(rescaled)) / B
                        top = float(sq.max())
                        applied = read(_sum_rows(V) / B)
                    sample_norm = math.sqrt(top)
                    if sample_norm > max_sample:
                        max_sample = sample_norm
                    if dp:
                        noise = read(privacy_noise(dim, sigma_dp, rng.at_step(t, lane=1)))
                if dp:
                    applied = applied + noise
                # one clipped sample with nothing added: the clip kernel's
                # squared norm is this same dot(applied, applied)
                applied_sq = top if B == 1 and not dp else dot(applied, applied)
            applied_norm = sqrt(applied_sq)
        else:
            applied_norm = 0.0
            frac = 0.0

        if t == recorded[k]:
            fs[k] = f
            gs[k] = grad_norm
            aps[k] = applied_norm
            cfs[k] = frac
            k += 1

        if t < T:
            X = X - eta * applied

    if not stack:
        return [(_partial_trace(first, ts, k, records[:, :, 0], point(X), max_sample), message)]
    for r, i in enumerate(active):
        results[i] = (_partial_trace(configs[i], ts, k, records[:, :, r], X[r],
                                     float(max_sample[r])), None)
    return results


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


def run(problem: Problem, config: RunConfig | Cells) -> Trace | list[tuple[Trace, bool]]:
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
    diverged, the partial trace its ``DivergenceError`` carries.
    """
    if isinstance(config, Cells):
        return [(trace, message is not None) for trace, message in _run(problem, config.configs)]
    [(trace, message)] = _run(problem, (config,))
    if message is not None:
        raise DivergenceError(message, trace)
    return trace
