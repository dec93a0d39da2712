"""Euclidean-norm gradient clipping and the single clipped descent step.

Everything here is a pure function of its inputs; the clipping threshold
``c`` caps the Euclidean norm of the applied gradient and never changes
its direction.

``clip`` validates its arguments and is the public entry point. The
iteration engine and the Monte Carlo estimators call the unchecked
kernels ``clip_vector`` (one vector) and ``clip_rows`` (a stack of row
vectors) instead, on inputs they have validated once up front. All three
share the same arithmetic, so a row of ``clip_rows`` is bit-for-bit the
``clip`` of that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ClipParams", "clip", "clip_coefficient", "clip_rows", "clip_vector", "clipped_step"]


@dataclass(frozen=True)
class ClipParams:
    """Clipping threshold and step size shared by one update rule.

    ``c`` may be ``math.inf``, which disables clipping.
    """

    c: float
    eta: float

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"clipping threshold must be positive, got {self.c!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"step size must be positive and finite, got {self.eta!r}")


def _as_vector(u, name: str = "u") -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite coordinates")
    return arr


def clip(u, c: float) -> np.ndarray:
    """Rescale ``u`` to Euclidean norm at most ``c``, preserving direction.

    Returns ``u`` itself (exactly, no copy) when ``norm(u) <= c``; this
    includes the zero vector and the boundary ``norm(u) == c``.
    """
    u = _as_vector(u)
    if not c > 0:
        raise ValueError(f"clipping threshold must be positive, got {c!r}")
    return clip_vector(u, c)[0]


# rescaling by c / norm can overshoot c by an ulp; norm <= c is a hard
# contract (DP sensitivity), so such vectors are nudged strictly below 1
# and rechecked
_NUDGE = 1.0 - 2e-16


def clip_vector(u: np.ndarray, c: float) -> tuple[np.ndarray, float, bool]:
    """Unchecked kernel of :func:`clip` for a finite 1-d float vector.

    Returns ``(v, v @ v, rescaled)``: the clipped vector (``u`` itself
    when ``norm(u) <= c``), its squared norm, and whether ``norm(u) > c``.
    """
    # ndarray.dot gives the bits of the 1-d ``u @ u`` at half its call cost
    sq = float(u.dot(u))
    norm = math.sqrt(sq)
    if norm <= c:
        return u, sq, False
    v = u * (c / norm)
    sq = float(v.dot(v))
    m = math.sqrt(sq)
    while m > c:
        v = v * min(c / m, _NUDGE)
        sq = float(v.dot(v))
        m = math.sqrt(sq)
    return v, sq, True


def clip_rows(U: np.ndarray, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked row-wise :func:`clip` of a finite ``(k, d)`` float array.

    ``c`` is one positive threshold for every row, or a ``(k,)`` array of
    per-row thresholds (``math.inf`` leaves its row unclipped). Returns
    ``(V, sq, rescaled)``: a new array whose row ``i`` equals
    ``clip(U[i], c[i])`` bit for bit, the squared row norms
    ``V[i] @ V[i]``, and the mask of rows that :func:`clip_vector` would
    rescale (``norm(U[i]) > c[i]``, or a NaN norm). Row dot products use
    ``np.vecdot``, which reproduces the 1-d ``u @ u`` exactly.
    """
    sq = np.vecdot(U, U)
    norms = np.sqrt(sq)
    # not (norm <= c), the test clip_vector makes, so a NaN row is rescaled
    # (to NaN) there and here alike
    rescaled = ~(norms <= c)
    if not rescaled.any():
        return U.copy(), sq, rescaled
    # c / norm on the rescaled rows and exactly 1.0 on the others, whose
    # bits a multiplication by 1.0 keeps
    V = U * np.divide(c, norms, out=np.ones_like(norms), where=rescaled)[:, None]
    sq = np.vecdot(V, V)
    m = np.sqrt(sq)
    over = m > c
    while over.any():
        scale = np.divide(c, m, out=np.ones_like(m), where=over)
        np.minimum(scale, _NUDGE, out=scale, where=over)
        V *= scale[:, None]
        sq = np.vecdot(V, V)
        m = np.sqrt(sq)
        over = m > c
    return V, sq, rescaled


def _sum_rows(V: np.ndarray) -> np.ndarray:
    """``((V[0] + V[1]) + V[2]) + ...``: the rows of a ``(k, d)`` array summed
    in order, bit for bit what ``k`` successive 1-d additions give. A
    ``(K, k, d)`` stack gives the ``(K, d)`` sums of its ``K`` blocks."""
    if V.shape[-1] == 1:
        # a single column reduces pairwise; accumulate keeps the order
        return np.add.accumulate(V, axis=-2)[..., -1, :]
    # with d > 1 the reduction runs over rows in order, one add per row
    return V.sum(axis=-2)


def clip_coefficient(u, c: float) -> float:
    """The scalar ``min(1, c / norm(u))`` applied by :func:`clip`.

    Returns 1.0 for the zero vector (nothing to rescale).
    """
    u = _as_vector(u)
    if not c > 0:
        raise ValueError(f"clipping threshold must be positive, got {c!r}")
    norm = math.sqrt(float(u @ u))
    if norm <= c:
        return 1.0
    return c / norm


def clipped_step(x, g_raw, params: ClipParams) -> np.ndarray:
    """One descent update ``x - eta * clip(g_raw, c)``."""
    x = _as_vector(x, "x")
    g_raw = _as_vector(g_raw, "g_raw")
    if x.shape != g_raw.shape:
        raise ValueError(
            f"dimension mismatch: x has dim {x.size}, gradient has dim {g_raw.size}"
        )
    return x - params.eta * clip_vector(g_raw, params.c)[0]
