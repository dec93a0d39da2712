"""LIBSVM-format dataset parsing and dataset-level smoothness estimates.

A :class:`Dataset` holds its rows in CSR form, as three flat arrays: row
``i`` stores the 1-based feature indices ``indices[indptr[i]:indptr[i +
1]]``, strictly increasing, with their ``values``; ``labels[i]`` is +1 or
-1. Datasets are immutable after construction, and the constructor checks
these rules on the whole arrays. Dense materialization maps index ``i`` to
column ``i - 1``.

Malformed input raises :class:`ParseError`, whose message names the
1-based line: an unmappable label, a feature token that is not
``idx:val``, an index below 1 or beyond the int64 range, indices that do
not strictly increase within a row, a non-finite value, or no data rows
at all (line 0). The ``clipbench`` CLI reports it as a data error and
exits 2.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "ParseError",
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "estimate_L",
    "spectral_norm_sq",
    "subsample",
    "synthesize_logistic_dataset",
    "bundled_dataset_path",
]

_LABELS = {"+1": 1, "1": 1, "-1": -1, "0": -1}
_INDEX_MAX = int(np.iinfo(np.int64).max)
# A stripped data row of the array parse: a label, then `idx:val` tokens
# with exactly one colon; int() and float() judge the numbers when the token
# lists convert to arrays. `\s` is the whitespace str.split splits on.
_ROW = re.compile(r"(?:[+-]?1|0)(?:\s+[^\s:]+:[^\s:]+)*")
# The arrays of a Dataset and the dtype each is stored as.
_ARRAYS = {"indptr": np.int64, "indices": np.int64, "values": np.float64, "labels": np.int64}


class ParseError(ValueError):
    """Malformed LIBSVM input; the message carries the 1-based line number."""


@dataclass(frozen=True)
class Dataset:
    """Parsed dataset: CSR feature rows plus +/-1 labels.

    ``indptr`` (n + 1 int64 offsets from 0 to the number of stored values)
    delimits each row's slice of ``indices`` (int64, 1-based, strictly
    increasing within a row) and ``values`` (finite float64). ``dim`` is
    an integer (Python or numpy, stored as a Python int) at least the
    largest index.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "dim", operator.index(self.dim))
        except TypeError:
            raise ValueError(f"dim must be an integer, got {self.dim!r}") from None
        for name, dtype in _ARRAYS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        indptr, indices, values, labels = (getattr(self, name) for name in _ARRAYS)
        if labels.ndim != 1 or labels.size < 1 or indptr.shape != (labels.size + 1,):
            raise ValueError("need one label per row, at least one row, and n + 1 row offsets")
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must be 1-d and the same length")
        sizes = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != indices.size or (sizes < 0).any():
            raise ValueError("indptr must rise from 0 to the number of stored values")
        # a step from one row's last index to the next row's first is no step
        row_start = np.zeros(indices.size, dtype=bool)
        row_start[indptr[:-1][sizes > 0]] = True
        if not ((indices >= 1).all() and (row_start[1:] | (np.diff(indices) > 0)).all()):
            raise ValueError("indices must be strictly increasing within a row and >= 1")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        if not np.isin(labels, (-1, 1)).all():
            raise ValueError("labels must be +1 or -1")
        max_idx = int(indices.max()) if indices.size else 0
        if self.dim < max_idx:
            raise ValueError(f"dim {self.dim} smaller than max feature index {max_idx}")

    @property
    def n(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.dim == other.dim and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the n x dim feature matrix (float64)."""
        A = np.zeros((self.n, self.dim))
        A[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices - 1] = self.values
        return A


def _parse_label(token: str, lineno: int) -> int:
    label = _LABELS.get(token)
    if label is None:
        raise ParseError(f"line {lineno}: unmappable label {token!r} (expected +1/1/-1/0)")
    return label


def _parse_feature(token: str, lineno: int) -> tuple[int, float]:
    idx_s, sep, val_s = token.partition(":")
    if not sep:
        raise ParseError(f"line {lineno}: malformed feature token {token!r}")
    try:
        idx = int(idx_s)
        val = float(val_s)
    except ValueError:
        raise ParseError(f"line {lineno}: malformed feature token {token!r}") from None
    if idx < 1:
        raise ParseError(f"line {lineno}: feature index must be >= 1, got {idx}")
    if idx > _INDEX_MAX:
        raise ParseError(f"line {lineno}: feature index must be < 2**63, got {idx}")
    if not math.isfinite(val):
        raise ParseError(f"line {lineno}: non-finite feature value in {token!r}")
    return idx, val


def parse_libsvm(source: str | Iterable[str]) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", one sample per line).

    Labels +1/1 map to +1 and -1/0 map to -1; anything else is an error.
    Blank lines and lines starting with ``#`` are skipped. Errors raise
    :class:`ParseError` naming the offending 1-based line.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    ds = _parse_rows(lines)
    return ds if ds is not None else _parse_checked(lines)


def _parse_rows(lines: list[str]) -> Dataset | None:
    """The data rows of ``lines`` as a Dataset, split by C string methods
    and converted as whole arrays, which the Dataset constructor checks.

    Returns None where a row does not match ``_ROW``, a token does not
    convert, or the constructor rejects the arrays; :func:`_parse_checked`
    then names the bad line. The arrays convert each token with
    ``int()``/``float()``, so odd but valid tokens (``+3``, ``1_0``,
    Unicode digits) read as they do there.
    """
    data = [s for s in map(str.strip, lines) if s and s[0] != "#"]
    if not data or not all(map(_ROW.fullmatch, data)):
        return None
    heads = [s.split(None, 1) for s in data]  # [label] or [label, features]
    tokens = " ".join([h[1] for h in heads if len(h) > 1]).replace(":", " ").split()
    indptr = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(list(map(str.count, data, repeat(":"))), out=indptr[1:])
    labels = np.array([_LABELS[h[0]] for h in heads], dtype=np.int64)
    try:
        indices = np.array(tokens[0::2], dtype=np.int64)
        values = np.array(tokens[1::2], dtype=np.float64)
        return Dataset(indptr, indices, values, labels, int(indices.max()) if indices.size else 0)
    except (ValueError, OverflowError):
        return None


def _parse_checked(lines: list[str]) -> Dataset:
    """:func:`parse_libsvm` one token at a time, raising the ParseError
    that names the first bad line."""
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    labels: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        labels.append(_parse_label(tokens[0], lineno))
        prev = 0
        for token in tokens[1:]:
            idx, val = _parse_feature(token, lineno)
            if idx <= prev:
                raise ParseError(
                    f"line {lineno}: feature indices not strictly increasing ({idx} after {prev})"
                )
            prev = idx
            indices.append(idx)
            values.append(val)
        indptr.append(len(indices))
    if not labels:
        raise ParseError("line 0: no data rows found")
    return Dataset(np.array(indptr), np.array(indices, dtype=np.int64),
                   np.array(values, dtype=np.float64), np.array(labels), max(indices, default=0))


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of :func:`parse_libsvm`; values use shortest round-trip decimals."""
    features = [f"{idx}:{val!r}" for idx, val in zip(ds.indices.tolist(), ds.values.tolist())]
    bounds = ds.indptr.tolist()
    lines = [
        " ".join(["+1" if label > 0 else "-1", *features[a:b]])
        for label, a, b in zip(ds.labels.tolist(), bounds, bounds[1:])
    ]
    return "\n".join(lines) + "\n"


def spectral_norm_sq(A: np.ndarray, iters: int = 50, tol: float = 1e-8) -> float:
    """Largest eigenvalue of ``A.T @ A`` by power iteration.

    Deterministic: starts from the normalized all-ones vector and runs at
    most ``iters`` Rayleigh-quotient refinements.
    """
    if A.size == 0:
        return 0.0
    d = A.shape[1]
    v = np.full(d, 1.0 / math.sqrt(d))
    lam = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        norm_w = math.sqrt(float(w @ w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        lam_new = float(v @ (A.T @ (A @ v)))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def estimate_L(ds: Dataset) -> float:
    """Logistic-loss smoothness constant ``lambda_max(A^T A) / (4 n)``.

    Upper-bounds the spectral norm of the (unregularized) logistic Hessian
    ``(1/n) A^T D A`` at any point, since the diagonal weights never
    exceed 1/4.
    """
    if ds.dim == 0:
        return 0.0
    return spectral_norm_sq(ds.to_dense()) / (4.0 * ds.n)


def subsample(ds: Dataset, k: int, seed: int) -> Dataset:
    """Deterministic k-row sample without replacement, original order kept."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in [1, {ds.n}], got {k}")
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(ds.n, size=k, replace=False))
    keep = np.zeros(ds.n, dtype=bool)
    keep[picked] = True
    sizes = np.diff(ds.indptr)
    stored = np.repeat(keep, sizes)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes[picked], out=indptr[1:])
    return Dataset(indptr, ds.indices[stored], ds.values[stored], ds.labels[picked], ds.dim)


def synthesize_logistic_dataset(
    n: int = 500,
    dim: int = 60,
    nnz: int = 10,
    flip: float = 0.08,
    value_scale: float = 0.06,
    pos_frac: float = 0.5,
    seed: int = 7,
) -> Dataset:
    """Build a sparse classification dataset for offline logistic experiments.

    Stands in for a LIBSVM distribution when no network is available: rows
    get ~``nnz`` active features of value ``value_scale``, labels come from
    a planted weight vector (thresholded at the ``pos_frac`` quantile of
    the noisy margins) with a ``flip`` fraction of label noise so the data
    stays non-separable. The defaults are the bundled dataset's recipe.
    """
    if not (n >= 1 and dim >= 1 and 1 <= nnz <= dim):
        raise ValueError("bad synthetic dataset shape")
    if not (0 <= flip < 0.5 and 0 < pos_frac < 1 and value_scale > 0):
        raise ValueError("bad synthetic dataset parameters")
    rng = np.random.default_rng(seed)
    w_true = rng.normal(0.0, 1.0, size=dim)
    rows = []
    margins = np.empty(n)
    for i in range(n):
        k = max(1, min(dim, int(rng.poisson(nnz))))
        idx = np.sort(rng.choice(dim, size=k, replace=False)) + 1
        rows.append(idx)
        margins[i] = w_true[idx - 1].sum() + rng.normal(0.0, 0.5)
    threshold = np.quantile(margins, 1.0 - pos_frac)
    labels = np.where(margins > threshold, 1, -1)
    flips = rng.random(n) < flip
    labels = np.where(flips, -labels, labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([idx.size for idx in rows], out=indptr[1:])
    indices = np.concatenate(rows)
    return Dataset(indptr, indices, np.full(indices.size, float(value_scale)), labels, dim)


def bundled_dataset_path() -> Path:
    """Path of the dataset file shipped with the package."""
    return Path(__file__).with_name("data") / "synth_logistic_500.libsvm"
