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
2**64`` with its counter reset to ``(0, 0, t, lane)``. Philox is
counter-based, so the first uniform of every step is one block function
of the step's counter: once a stream has run 128 steps, a step's first
scalar ``random()`` skips the reset and is read from a numpy-vectorized
Philox that computes it for 4096 steps at once. Every other draw first
makes the reset (replaying the uniform already served, if any) and then
runs numpy's own method, so normals, integers and array draws are
numpy's, bit for bit. The generator a step hands to ``sample_grad`` is
re-armed at the next step: it is valid only until then.

The configuration and the starting point are validated once, before the
first step; the step loop calls only the problem's unchecked batch
oracles (``value_and_grad``, ``sample_grads``) and the unchecked clipping
kernels. A minibatch (B > 1) is drawn, clipped and summed as one
``(B, dim)`` array, with the same draws and the same sequential sum as B
one-sample calls, so traces do not depend on the batch path taken.

``run`` also takes a :class:`Cells` batch of configurations that share
everything but ``c``, ``eta``, ``seed`` and ``x0``, and advances all of
them in lockstep as one ``(cells, dim)`` iterate array: one
``value_and_grad_rows`` call, one ``clip_rows`` call with a per-row
threshold and one update per step. Each cell keeps its own Philox stream
and draws its samples and noise as a single run would, and every batched
operation works row by row, so each cell's trace is bit-for-bit the one
``run`` gives for its configuration alone. The single-run engine stays
the reference: for one cell, ``(1, dim)`` arrays cost more than they save.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import _sum_rows, clip_rows, clip_vector
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
    finite positive threshold for the clipped/DP ones. ``thin`` > 1
    records every thin-th iterate (the final one is always kept).
    ``T``, ``B``, ``seed`` and ``thin`` are integers (Python or numpy),
    stored as Python ints.
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
        return float(self.grad_norms.min())


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC'11) with the Random123 multipliers and Weyl key increments that
# numpy's Philox uses
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
# steps per lane whose first uniform one vectorized Philox call computes
_CHUNK = 4096
# first draws a generator takes through the counter reset before it builds
# a chunk: a chunk costs about as much as this many resets, most of it in
# fixed per-call overhead, so a short run (T = 1, say) never builds one
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


def _philox_uniforms(key: int, start: int, n: int, lane: int) -> list[float]:
    """``Generator.random()`` right after ``at_step(t, lane)``, for the ``n``
    steps ``t = start, start + 1, ...``.

    numpy's Philox draws from a reset counter ``(0, 0, t, lane)`` by first
    incrementing it, so that draw is the first word of the Philox4x64-10
    block of counter ``(1, 0, t, lane)`` under the key ``(key, 0)``, made a
    double as ``(word >> 11) * 2**-53``.
    """
    c0 = np.ones(n, dtype=np.uint64)
    c1 = np.zeros(n, dtype=np.uint64)
    c2 = np.arange(start, start + n, dtype=np.uint64)
    c3 = np.full(n, lane, dtype=np.uint64)
    for r in range(10):
        k0 = (key + r * _PHILOX_W0) & _MASK64
        k1 = (r * _PHILOX_W1) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    c0 >>= 11
    return (c0 * 2.0**-53).tolist()


# the states of a step generator within its step
_FRESH, _SERVED, _POSITIONED = 0, 1, 2


def _positioned(name: str):
    draw = getattr(np.random.Generator, name)

    @functools.wraps(draw)
    def method(self, *args, **kwargs):
        self._position()
        return draw(self, *args, **kwargs)

    return method


@functools.cache
def _step_generator() -> type:
    """The class of the generator ``_StepRng.at_step`` hands out, built on
    first use: deriving it imports numpy.random (about 6 MB and 14 ms),
    which deterministic runs never need."""

    class StepGenerator(np.random.Generator):
        """The generator ``_StepRng.at_step`` re-arms and hands out each step.

        A fresh step's first scalar ``random()`` is served from a cache of
        vectorized Philox uniforms, one double per step, filled ``_CHUNK``
        steps at a time per lane once ``_WARMUP`` such draws have missed
        the cache (before that, they take the reset). Every other draw
        method, and ``bit_generator``, first positions the bit generator
        where the per-step counter reset puts it, replaying the served
        word if there was one, and then runs numpy's own method: from there
        on the step is plain numpy. Every draw is therefore the one a
        counter reset followed by numpy's draws gives.
        """

        __slots__ = ("_bg", "_state", "_counter", "_key", "_chunks", "_uncached",
                     "_t", "_lane", "_mode")

        def __init__(self, seed: int):
            self._key = int(seed) % (1 << 64)
            self._bg = np.random.Philox(key=self._key)
            super().__init__(self._bg)
            # the counter reset: the state dict the bit generator is set from
            # names this counter array, whose last two words _position writes
            self._counter = np.zeros(4, dtype=np.uint64)
            self._state = self._bg.state
            self._state["state"]["counter"] = self._counter
            self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)
            self._chunks: dict[int, tuple[int, list[float]]] = {}
            self._uncached = 0
            self._t = self._lane = 0
            self._mode = _POSITIONED

        def _position(self) -> None:
            mode = self._mode
            if mode == _POSITIONED:
                return
            self._mode = _POSITIONED
            counter = self._counter
            counter[2] = self._t
            counter[3] = self._lane
            self._bg.state = self._state
            if mode == _SERVED:
                self._bg.random_raw()

        def random(self, *args, **kwargs):
            if self._mode == _FRESH and not (args or kwargs):
                t, lane = self._t, self._lane
                start, values = self._chunks.get(lane, (0, ()))
                if 0 <= t - start < len(values):
                    self._mode = _SERVED
                    return values[t - start]
                if self._uncached >= _WARMUP:
                    values = _philox_uniforms(self._key, t, _CHUNK, lane)
                    self._chunks[lane] = (t, values)
                    self._mode = _SERVED
                    return values[0]
                self._uncached += 1
            self._position()
            return np.random.Generator.random(self, *args, **kwargs)

        @property
        def bit_generator(self) -> np.random.Philox:
            self._position()
            return self._bg

    # every other public method draws (or, like spawn, reads the stream),
    # and __reduce__ serves pickle and copy: each positions first
    for name in dir(np.random.Generator):
        if name not in vars(StepGenerator) and (not name.startswith("_") or name == "__reduce__"):
            setattr(StepGenerator, name, _positioned(name))
    return StepGenerator


class _StepRng:
    """Counter-based per-step random streams from a single Philox key.

    ``at_step(t, lane)`` addresses the stream of step ``t`` (lane 0:
    gradient samples, lane 1: privacy noise): its draws are those of the
    Philox bit generator with its 256-bit counter reset to
    ``(0, 0, t, lane)``, so every draw is a pure function of (seed, t,
    lane, position) and replays bit-for-bit regardless of consumption
    elsewhere. A step's first scalar ``random()`` skips the reset and is
    served from vectorized Philox output; any other draw makes the reset
    first (see ``_step_generator``). ``at_step`` re-arms and returns the
    same generator every time, so a generator it returned is valid only
    until the next ``at_step`` call on the same ``_StepRng``.
    """

    __slots__ = ("_gen",)

    def __init__(self, seed: int):
        self._gen = _step_generator()(seed)

    def at_step(self, t: int, lane: int = 0) -> np.random.Generator:
        gen = self._gen
        gen._t = t
        gen._lane = lane
        gen._mode = _FRESH
        return gen


def privacy_noise(dim: int, sigma_dp: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian privacy noise with total expected squared norm sigma_dp^2."""
    return rng.standard_normal(dim) * (sigma_dp / math.sqrt(dim))


def _recorded_iters(T: int, thin: int) -> list[int]:
    """The iterations a run of ``T`` steps records, in order: every
    ``thin``-th one, and always the last."""
    iters = list(range(0, T + 1, thin))
    if T % thin:
        iters.append(T)
    return iters


def _partial_trace(config, ts, fs, gs, aps, cfs, k, x, max_sample) -> Trace:
    """The trace of the first ``k`` records: a finished run's, or the one a
    ``DivergenceError`` carries."""
    return Trace(
        config=config,
        iters=ts[:k].copy(),
        f_vals=fs[:k].copy(),
        grad_norms=gs[:k].copy(),
        applied_norms=aps[:k].copy(),
        clipped_fracs=cfs[:k].copy(),
        final_point=x.copy(),
        max_per_sample_norm=max_sample,
    )


@_quiet_overflow
def _run(problem: Problem, config: RunConfig) -> Trace:
    x = config.x0.astype(float)
    problem.check_dim(x)
    method = config.method
    c, eta, T, B = config.c, config.eta, config.T, config.B
    deterministic = method in _DETERMINISTIC
    dp = method == "dp_sgd"
    rng = None if deterministic else _StepRng(config.seed)

    recorded = _recorded_iters(T, config.thin)
    ts = np.array(recorded, dtype=np.int64)
    fs, gs, aps, cfs = (np.empty(ts.size) for _ in range(4))
    k = 0
    max_sample = 0.0

    value_and_grad = problem.value_and_grad
    sample_grad, sample_grads = problem.sample_grad, problem.sample_grads
    for t in range(T + 1):
        f, g = value_and_grad(x)
        # ndarray.dot: the bits of the 1-d `@` at half its call cost
        grad_norm = math.sqrt(g.dot(g))
        x_norm = math.sqrt(x.dot(x))
        if (
            not math.isfinite(f)
            or not math.isfinite(grad_norm)
            or abs(f) > DIVERGENCE_LIMIT
            or x_norm > DIVERGENCE_LIMIT
        ):
            raise DivergenceError(
                f"divergence at t={t}: f={f!r}, |x|={x_norm!r} (limit {DIVERGENCE_LIMIT:g})",
                _partial_trace(config, ts, fs, gs, aps, cfs, k, x, max_sample),
            )

        if t < T:
            if deterministic:
                applied, applied_sq, rescaled = clip_vector(g, c)
                frac = 1.0 if rescaled else 0.0
            else:
                gen = rng.at_step(t)
                if B == 1:
                    # one sample stays on the 1-d kernel: a (1, dim) batch
                    # costs more in array overhead than it saves
                    applied, sq, rescaled = clip_vector(sample_grad(x, gen), c)
                    applied_sq = sq
                    frac = 1.0 if rescaled else 0.0
                else:
                    V, sq_rows, rescaled = clip_rows(sample_grads(x, gen, B), c)
                    frac = int(np.count_nonzero(rescaled)) / B
                    sq = float(sq_rows.max())
                    applied = _sum_rows(V) / B
                sample_norm = math.sqrt(sq)
                if sample_norm > max_sample:
                    max_sample = sample_norm
                if dp:
                    noise_rng = rng.at_step(t, lane=1)
                    applied = applied + privacy_noise(x.size, config.sigma_dp, noise_rng)
                if dp or B > 1:
                    applied_sq = applied.dot(applied)
            # with nothing added after clipping, clip_vector's squared norm
            # is this same applied.dot(applied)
            applied_norm = math.sqrt(applied_sq)
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
            x = x - eta * applied

    return _partial_trace(config, ts, fs, gs, aps, cfs, k, x, max_sample)


@_quiet_overflow
def _run_cells(problem: Problem, cells: Cells) -> list[tuple[Trace, bool]]:
    """The lockstep engine: ``_run`` on every cell at once.

    Row ``r`` of the ``(K, dim)`` iterate ``X`` belongs to cell
    ``active[r]``; a cell that trips the divergence guard leaves with the
    partial trace its ``DivergenceError`` would carry, and its row is
    dropped. Every batched operation (stacked gemv in the oracle,
    ``np.vecdot`` norms, per-row clipping, elementwise updates) computes
    each row as the one-cell operation does, so dropping rows leaves the
    other cells' bits alone.
    """
    configs = cells.configs
    first = configs[0]
    X = np.stack([config.x0 for config in configs])
    problem.check_dim(X[0])
    method, T, B = first.method, first.T, first.B
    deterministic = method in _DETERMINISTIC
    dp = method == "dp_sgd"
    dim = X.shape[1]
    c = np.array([config.c for config in configs])
    c_rows = np.repeat(c, B)  # the threshold of each of the K * B samples
    eta = np.array([config.eta for config in configs])[:, None]
    rngs = None if deterministic else [_StepRng(config.seed) for config in configs]

    recorded = _recorded_iters(T, first.thin)
    ts = np.array(recorded, dtype=np.int64)
    K = len(configs)
    fs, gs, aps, cfs = (np.empty((ts.size, K)) for _ in range(4))
    max_sample = np.zeros(K)
    active = np.arange(K)
    results: list = [None] * K
    k = 0

    def finish(rows, diverged: bool) -> None:
        for r in rows:
            i = active[r]
            results[i] = (_partial_trace(
                configs[i], ts, fs[:, i], gs[:, i], aps[:, i], cfs[:, i], k, X[r],
                float(max_sample[i]),
            ), diverged)

    value_and_grad_rows = problem.value_and_grad_rows
    sample_grad, sample_grads = problem.sample_grad, problem.sample_grads
    for t in range(T + 1):
        f, G = value_and_grad_rows(X)
        grad_norm = np.sqrt(np.vecdot(G, G))
        x_norm = np.sqrt(np.vecdot(X, X))
        # the single run's guard, row by row: a NaN f fails |f| <= limit,
        # and a NaN or infinite gradient norm fails < inf
        keep = np.abs(f) <= DIVERGENCE_LIMIT
        keep &= grad_norm < math.inf
        keep &= ~(x_norm > DIVERGENCE_LIMIT)
        if not keep.all():
            finish(np.flatnonzero(~keep), diverged=True)
            active, X, G, f, grad_norm = active[keep], X[keep], G[keep], f[keep], grad_norm[keep]
            c, eta = c[keep], eta[keep]
            c_rows = np.repeat(c, B)
            if not active.size:
                break

        if t < T:
            if deterministic:
                applied, applied_sq, rescaled = clip_rows(G, c)
                frac = rescaled.astype(float)
            else:
                gens = [rngs[i].at_step(t) for i in active]
                if B == 1:
                    # sample_grad, as the single run draws one sample: a
                    # Bernoulli sample keeps its served uniform
                    U = np.stack([sample_grad(x, gen) for x, gen in zip(X, gens)])
                else:
                    U = np.concatenate([sample_grads(x, gen, B) for x, gen in zip(X, gens)])
                V, sq, rescaled = clip_rows(U, c_rows)
                frac = rescaled.reshape(-1, B).sum(axis=1) / B
                # the in-order sum of one row is that row, bit for bit
                applied = _sum_rows(V.reshape(-1, B, dim)) / B
                # fmax keeps the running maximum where a norm is NaN, as the
                # single run's `>` test does
                max_sample[active] = np.fmax(max_sample[active],
                                             np.sqrt(sq.reshape(-1, B).max(axis=1)))
                if dp:
                    noise = [privacy_noise(dim, first.sigma_dp, rngs[i].at_step(t, lane=1))
                             for i in active]
                    applied = applied + np.stack(noise)
                applied_sq = np.vecdot(applied, applied)
            applied_norm = np.sqrt(applied_sq)
        else:
            applied_norm = 0.0
            frac = 0.0

        if t == recorded[k]:
            fs[k, active] = f
            gs[k, active] = grad_norm
            aps[k, active] = applied_norm
            cfs[k, active] = frac
            k += 1

        if t < T:
            X = X - eta * applied

    if active.size:
        finish(range(active.size), diverged=False)
    return results


def run_dp_sgd(problem: Problem, config: RunConfig) -> Trace:
    """:func:`run` for a ``dp_sgd`` configuration, which it checks: minibatch
    SGD with per-sample clipping plus spherical Gaussian noise of total
    variance sigma_dp^2 added to the averaged update.

    Kept for the benchmark's chi-square workload (``bench/workloads.py``),
    which calls it; it goes when that benchmark next changes.
    """
    if config.method != "dp_sgd":
        raise ValueError(f"run_dp_sgd handles dp_sgd, got {config.method!r}")
    return _run(problem, config)


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
        return _run_cells(problem, config)
    return _run(problem, config)
