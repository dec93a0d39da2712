"""Euclidean-norm gradient clipping.

Everything here is a pure function of its inputs; the clipping threshold
``c`` caps the Euclidean norm of the applied gradient and never changes
its direction.

``clip`` validates its arguments and is the public entry point. The
iteration engine and the Monte Carlo estimators call the unchecked
kernels ``clip_vector`` (one vector), ``clip_rows`` (a stack of row
vectors) and ``clip_float`` (the one coordinate of a one-dimensional
vector, as a Python float) instead, on inputs they have validated once up
front. All four share the same arithmetic, so a row of ``clip_rows`` is
bit-for-bit the ``clip`` of that row, and ``clip_float(u, c)`` the one
coordinate of ``clip(np.array([u]), c)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["clip", "clip_coefficient", "clip_float", "clip_rows", "clip_vector"]


def _as_vector(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"u must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("u has non-finite coordinates")
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


def clip_float(u: float, c: float) -> tuple[float, float, bool]:
    """:func:`clip_vector` of the vector ``[u]``, on Python floats.

    Returns ``(v, v * v, rescaled)``, bit for bit the one coordinate of
    ``clip_vector(np.array([u]), c)``, its squared norm and its flag: IEEE
    ``*``, ``/`` and ``sqrt`` give Python floats the bits numpy gives
    one-element arrays, and a one-element ``dot`` is ``u * u``. It skips
    the array overhead that is all the cost of a one-dimensional clip.
    """
    sq = u * u
    norm = math.sqrt(sq)
    if norm <= c:
        return u, sq, False
    v = u * (c / norm)
    sq = v * v
    m = math.sqrt(sq)
    while m > c:
        v = v * min(c / m, _NUDGE)
        sq = v * v
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
    if not np.count_nonzero(rescaled):
        return U.copy(), sq, rescaled
    # c / norm on the rescaled rows and exactly 1.0 on the others, whose
    # bits a multiplication by 1.0 keeps; no other row is divided by its norm
    V = U * _ratio(c, norms, rescaled)[:, None]
    sq = np.vecdot(V, V)
    m = np.sqrt(sq)
    over = m > c
    while np.count_nonzero(over):
        # min(c / m, _NUDGE) on the overshooting rows, 1.0 on the others
        V *= np.minimum(_ratio(c, m, over), np.where(over, _NUDGE, 1.0))[:, None]
        sq = np.vecdot(V, V)
        m = np.sqrt(sq)
        over = m > c
    return V, sq, rescaled


def _ratio(num, den, mask: np.ndarray) -> np.ndarray:
    """``num / den`` where ``mask`` holds and exactly 1.0 elsewhere, which
    no masked ufunc (numpy's slow ``where=`` path) is needed for."""
    return np.where(mask, num, 1.0) / np.where(mask, den, 1.0)


def _sum_rows(V: np.ndarray) -> np.ndarray:
    """``((V[0] + V[1]) + V[2]) + ...``: the rows of a ``(k, d)`` array summed
    in order, bit for bit what ``k`` successive 1-d additions give. A
    ``(K, k, d)`` stack gives the ``(K, d)`` sums of its ``K`` blocks."""
    if V.shape[-1] == 1:
        # a single column reduces pairwise; accumulate keeps the order
        return np.add.accumulate(V, axis=-2)[..., -1, :]
    # with d > 1 the reduction runs over rows in order, one add per row. It
    # starts from -0.0, the exact identity of IEEE addition: from numpy's
    # default 0.0, a column of -0.0 would sum to +0.0
    return V.sum(axis=-2, initial=-0.0)


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
