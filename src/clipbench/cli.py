"""Configuration-driven experiment runner.

Commands: ``run`` (one trace to CSV), ``sweep`` ((c, eta, seed) grids with
per-cell summaries and best-step-size selection), ``fixedpoint`` (exact
bias-floor constructions over (sigma, c) grids), ``certify`` (smoothness
and gradient checks), ``bound`` (compare a trace against a predictor).

Configs are flat ``key = value`` text; list values are comma-separated;
unknown keys are errors, and so are keys that the chosen problem, method
or theorem does not read. A left-out key that feeds a library parameter
is not passed, so the library's signature owns its default. All outputs
are deterministic functions of the config bytes (plus --seed-offset for
``run`` and ``sweep``) and byte-identical across reruns. Exit codes: 0 ok, 1 config or usage error
(a value the problem, run or theorem rejects included), 2 data error, 3
divergence, 4 certification/bound failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import data_ingest, theory
from .data_ingest import ParseError
from .optimizers import Cells, DivergenceError, RunConfig, Trace, run
from .problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    Quadratic,
)

__all__ = ["ConfigError", "DataError", "main", "parse_config", "sweep_cells", "SweepRow"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_CHECK = 4

TRACE_HEADER = ["iter", "f_val", "grad_norm", "applied_norm", "clipped_fraction"]
SWEEP_HEADER = [
    "c", "eta", "seed", "c_eta", "final_f", "min_grad_norm",
    "iters_to_target", "diverged", "best_eta_for_c",
]


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing key, or unparsable value."""


class DataError(ValueError):
    """Dataset missing or malformed."""


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats, plain str otherwise."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# config parsing

def parse_config(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and '#' comments skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _to_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _to_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _to_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected true/false, got {s!r}")


def _to_float_list(s: str) -> list[float]:
    return [_to_float(tok.strip()) for tok in s.split(",") if tok.strip()]


def _to_int_list(s: str) -> list[int]:
    return [_to_int(tok.strip()) for tok in s.split(",") if tok.strip()]


_PROBLEM_KEYS = {
    "problem": str, "dim": _to_int, "L": _to_float, "a": _to_float, "p": _to_float,
    "data": str, "lambda": _to_float, "intercept": _to_bool, "normalize": _to_bool,
    "subsample_k": _to_int, "subsample_seed": _to_int,
}
_RUN_KEYS = {
    "method": str, "c": _to_float_list, "eta": _to_float_list, "T": _to_int,
    "B": _to_int, "sigma_dp": _to_float, "seeds": _to_int_list,
    "x0": _to_float_list, "thin": _to_int,
}
_SCHEMAS: dict[str, dict[str, Callable]] = {
    "run": {"mode": str, **_PROBLEM_KEYS, **_RUN_KEYS},
    "sweep": {"mode": str, **_PROBLEM_KEYS, **_RUN_KEYS, "target_grad_norm": _to_float},
    "fixedpoint": {"mode": str, "sigma": _to_float_list, "c": _to_float_list},
    "certify": {
        "mode": str, **_PROBLEM_KEYS, "L0": _to_float, "L1": _to_float,
        "n_pairs": _to_int, "radius_scale": _to_float, "certify_seed": _to_int,
        "fd_points": _to_int,
    },
    "bound": {
        "mode": str, "theorem": str, "trace": str,
        "F0": _to_float, "R0": _to_float, "L0": _to_float, "L1": _to_float,
        "L": _to_float, "mu": _to_float, "sigma": _to_float, "sigma_dp": _to_float,
        "c": _to_float, "eta": _to_float, "T": _to_int, "B": _to_int,
        "epsilon": _to_float, "f_star": _to_float, "use_trajectory_L": _to_bool,
    },
}


def _typed_config(raw: dict[str, str], mode: str) -> dict:
    schema = _SCHEMAS[mode]
    cfg = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for mode {mode!r}")
        try:
            cfg[key] = schema[key](value)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if cfg.get("mode") != mode:
        raise ConfigError(f"config mode {cfg.get('mode')!r} does not match command {mode!r}")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")


# the parameter a config key sets, where the two names differ
_PARAMS = {"lambda": "lam", "intercept": "add_intercept", "normalize": "normalize_rows"}


def _given(cfg: dict, keys: Sequence[str]) -> dict:
    """The keyword arguments for those of ``keys`` that the config sets.
    A key it leaves out is not passed, so the callee's signature owns
    every default."""
    return {_PARAMS.get(key, key): cfg[key] for key in keys if key in cfg}


# one value of a choice key (problem or theorem): the keys it needs, the other
# keys it may read and, for a problem, its constructor
_Choice = namedtuple("_Choice", ["needs", "reads", "make"], defaults=((), (), None))


def _choose(cfg: dict, key: str, table: dict[str, _Choice], schema: dict, hint="") -> str:
    """The config's value of ``key``, checked against its table entry: an
    unknown value, a key that another entry reads and this one does not
    (named in ``schema`` order) and a needed key left out are each a
    ConfigError."""
    name = cfg[key]
    if name not in table:
        raise ConfigError(f"unknown {key} {name!r}{hint}")
    choice = table[name]
    # every value reads the keys that no entry names
    others = {k for c in table.values() for k in (*c.needs, *c.reads)}
    others -= {*choice.needs, *choice.reads}
    stray = [k for k in schema if k in cfg and k in others]
    if stray:
        raise ConfigError(f"{key} {name!r} does not read {', '.join(map(repr, stray))}")
    _require(cfg, *choice.needs)
    return name


# ---------------------------------------------------------------------------
# problem construction

# a problem's constructor takes the keys it reads as parameters, except the
# dataset keys data, subsample_k and subsample_seed
_PROBLEMS = {
    "quadratic": _Choice(reads=("dim", "L"), make=Quadratic),
    "bernoulli_shift": _Choice(needs=("a", "p"), make=BernoulliShiftQuadratic),
    "chi_square": _Choice(reads=("dim", "L"), make=ChiSquareQuadratic),
    "logistic": _Choice(needs=("data",), make=LogisticRegressionProblem, reads=(
        "lambda", "intercept", "normalize", "subsample_k", "subsample_seed")),
}
# the largest dense feature matrix the logistic problem builds (1 GiB)
_DENSE_LIMIT = 1 << 30


def build_problem(cfg: dict, config_dir: Path) -> Problem:
    _require(cfg, "problem")
    choice = _PROBLEMS[_choose(cfg, "problem", _PROBLEMS, _PROBLEM_KEYS)]
    if "subsample_seed" in cfg and "subsample_k" not in cfg:
        raise ConfigError("key 'subsample_seed' is read only with subsample_k")
    args = _given(cfg, (*choice.needs, *choice.reads))
    if "data" not in args:
        return choice.make(**args)
    path = Path(args.pop("data"))
    if not path.is_absolute():
        path = config_dir / path
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        ds = data_ingest.parse_libsvm(path.read_text().splitlines())
    except ParseError as exc:
        raise DataError(f"{path}: {exc}") from None
    if "subsample_k" in args:
        ds = data_ingest.subsample(ds, args.pop("subsample_k"), args.pop("subsample_seed", 0))
    columns = ds.dim + cfg.get("intercept", False)
    nbytes = ds.n * columns * 8
    if nbytes > _DENSE_LIMIT:
        raise DataError(f"{path}: the dense {ds.n} x {columns} feature matrix needs"
                        f" {nbytes} bytes, over the {_DENSE_LIMIT}-byte limit")
    return choice.make(ds, **args)


def _build_x0(cfg: dict, problem: Problem) -> np.ndarray:
    raw = cfg.get("x0", [0.0])
    if len(raw) == 1:
        return np.full(problem.meta.dim, raw[0])
    if len(raw) != problem.meta.dim:
        raise ConfigError(
            f"x0 has {len(raw)} entries, problem dimension is {problem.meta.dim}"
        )
    return np.array(raw)


def _run_config(cfg: dict, problem: Problem, c: float, eta: float, seed: int) -> RunConfig:
    return RunConfig(
        method=cfg["method"], c=c, eta=eta, T=cfg["T"], x0=_build_x0(cfg, problem),
        seed=seed, **_given(cfg, ("B", "sigma_dp", "thin")),
    )


# ---------------------------------------------------------------------------
# run

def _write_trace_csv(trace: Trace, out: Path) -> None:
    # the bytes csv.writer gives for these cells (no cell needs quoting),
    # written from the arrays' .tolist()
    columns = (trace.iters, trace.f_vals, trace.grad_norms,
               trace.applied_norms, trace.clipped_fracs)
    rows = zip(*(a.tolist() for a in columns))
    with open(out, "w", newline="") as f:
        f.write(",".join(TRACE_HEADER) + "\r\n")
        f.writelines(f"{t},{fv!r},{g!r},{a!r},{cf!r}\r\n" for t, fv, g, a, cf in rows)


def cmd_run(cfg: dict, out: Path, seed_offset: int = 0) -> int:
    _require(cfg, "method", "c", "eta", "T")
    for key in ("c", "eta"):
        if len(cfg[key]) != 1:
            raise ConfigError(f"run mode needs exactly one {key} value, got {cfg[key]}")
    seeds = cfg.get("seeds", [0])
    if len(seeds) != 1:
        raise ConfigError(f"run mode needs exactly one seed, got {seeds}")
    problem = build_problem(cfg, cfg["_dir"])
    config = _run_config(cfg, problem, cfg["c"][0], cfg["eta"][0], seeds[0] + seed_offset)
    try:
        trace = run(problem, config)
    except DivergenceError as exc:
        _write_trace_csv(exc.trace, out)
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_trace_csv(trace, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

@dataclass(frozen=True)
class SweepRow:
    """Summary of one (c, eta, seed) cell."""

    c: float
    eta: float
    seed: int
    final_f: float
    min_grad_norm: float
    iters_to_target: int
    diverged: bool
    best_eta_for_c: bool = False


def _iters_to_target(trace: Trace, target: float | None) -> int:
    if target is None:
        return -1
    hits = np.nonzero(trace.grad_norms <= target)[0]
    return int(trace.iters[hits[0]]) if hits.size else -1


def sweep_cells(
    problem: Problem,
    cfg: dict,
    c_grid: Sequence[float],
    eta_grid: Sequence[float],
    seeds: Sequence[int],
    target: float | None = None,
) -> list[SweepRow]:
    """Run every (c, eta, seed) cell and summarize, in lexicographic order.

    All cells advance in lockstep through one ``run(problem, Cells(...))``
    call; each cell's trace is bit-for-bit its single run's. Diverged
    cells are recorded (diverged=1, stats from the partial trace) while
    the others continue. When a target gradient norm is given, the step
    size reaching it fastest (mean iterations over seeds, every seed must
    reach it) is flagged per c; ties go to the smaller eta.
    """
    keys = sorted((c, eta, seed) for c in c_grid for eta in eta_grid for seed in seeds)
    if not keys:
        return []
    configs = [_run_config(cfg, problem, c, eta, seed) for c, eta, seed in keys]
    rows = []
    for (c, eta, seed), (trace, diverged) in zip(keys, run(problem, Cells(configs))):
        rows.append(SweepRow(
            c, eta, seed,
            final_f=float(trace.f_vals[-1]) if trace.f_vals.size else math.nan,
            min_grad_norm=trace.min_grad_norm,
            iters_to_target=_iters_to_target(trace, target),
            diverged=diverged,
        ))

    if target is None:
        return rows

    best_eta: dict[float, float] = {}
    for c in sorted(set(c_grid)):
        scores = []
        for eta in sorted(set(eta_grid)):
            iters = [r.iters_to_target for r in rows if r.c == c and r.eta == eta]
            if iters and all(i >= 0 for i in iters):
                scores.append((sum(iters) / len(iters), eta))
        if scores:
            best_eta[c] = min(scores)[1]
    return [replace(r, best_eta_for_c=best_eta.get(r.c) == r.eta) for r in rows]


def cmd_sweep(cfg: dict, out: Path, seed_offset: int = 0) -> int:
    _require(cfg, "method", "c", "eta", "T", "seeds")
    problem = build_problem(cfg, cfg["_dir"])
    seeds = [s + seed_offset for s in cfg["seeds"]]
    rows = sweep_cells(
        problem, cfg, cfg["c"], cfg["eta"], seeds,
        target=cfg.get("target_grad_norm"),
    )
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [_fmt(r.c), _fmt(r.eta), r.seed, _fmt(r.c * r.eta), _fmt(r.final_f),
                 _fmt(r.min_grad_norm), r.iters_to_target,
                 int(r.diverged), int(r.best_eta_for_c)]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixedpoint

def cmd_fixedpoint(cfg: dict, out: Path) -> int:
    _require(cfg, "sigma", "c")
    lines = []
    failed = False
    for sigma in cfg["sigma"]:
        for c in cfg["c"]:
            if sigma <= 0:
                lines.append(f"sigma={_fmt(sigma)} c={_fmt(c)} status=skipped reason=no_noise")
                continue
            if c <= 0:
                lines.append(f"sigma={_fmt(sigma)} c={_fmt(c)} status=skipped reason=bad_threshold")
                continue
            if c <= 2.0 * sigma:
                inst = theory.build_lower_bound_small_c(sigma, c)
                regime = "small_c"
            else:
                inst = theory.build_lower_bound_large_c(sigma, c)
                regime = "large_c"
            est = theory.expected_clipped_grad(inst.problem(), [inst.x_fixed], c)
            residual = abs(float(est.value[0]))
            ok = inst.bias >= inst.guarantee and residual <= 1e-12
            failed = failed or not ok
            lines.append(
                f"sigma={_fmt(sigma)} c={_fmt(c)} regime={regime}"
                f" a={_fmt(inst.a)} p={_fmt(inst.p)} x_fixed={_fmt(inst.x_fixed)}"
                f" bias={_fmt(inst.bias)} guarantee={_fmt(inst.guarantee)}"
                f" residual={_fmt(residual)} status={'pass' if ok else 'fail'}"
            )
    out.write_text("\n".join(lines) + "\n")
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# certify

def _fd_gradient(problem: Problem, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * step)
    return g


def _witness(v: np.ndarray | None) -> str:
    if v is None:
        return "-"
    if v.size <= 10:
        return ",".join(_fmt(float(t)) for t in v)
    return f"norm:{_fmt(float(np.linalg.norm(v)))}"


def cmd_certify(cfg: dict, out: Path) -> int:
    problem = build_problem(cfg, cfg["_dir"])
    L0 = cfg.get("L0", problem.meta.L0)
    L1 = cfg.get("L1", problem.meta.L1)
    seed = cfg.get("certify_seed", 0)
    lines = []
    failed = False

    rng = np.random.default_rng(seed)
    fd_points = cfg.get("fd_points", 20)
    scale = cfg.get("radius_scale", 1.0)
    for i in range(fd_points):
        x = scale * rng.standard_normal(problem.meta.dim)
        exact = problem.grad(x)
        approx = _fd_gradient(problem, x)
        rel = float(np.linalg.norm(exact - approx)) / max(float(np.linalg.norm(exact)), 1e-12)
        ok = rel <= 1e-5
        failed = failed or not ok
        lines.append(f"gradient_check point={i} rel_err={_fmt(rel)} status={'pass' if ok else 'fail'}")

    cert = theory.certify_smoothness(
        problem, L0, L1, radius_scale=scale, seed=seed, **_given(cfg, ("n_pairs",)),
    )
    lines.append(
        f"smoothness L0={_fmt(L0)} L1={_fmt(L1)} pairs={cert.n_pairs}"
        f" violations={len(cert.violations)} status={'pass' if cert.ok else 'fail'}"
    )
    for v in cert.violations:
        lines.append(
            f"violation kind={v.kind} lhs={_fmt(v.lhs)} rhs={_fmt(v.rhs)}"
            f" x={_witness(v.x)} y={_witness(v.y)}"
        )
    failed = failed or not cert.ok
    out.write_text("\n".join(lines) + "\n")
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# bound

def _read_results_csv(path: Path) -> tuple[dict[str, np.ndarray], str]:
    """Load a trace or sweep CSV; returns (columns, kind).

    Sweep files reduce to their per-seed min_grad_norm column under the
    grad_norm key. A non-numeric cell or a row of the wrong width is a
    DataError naming the 1-based line.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header not in (TRACE_HEADER, SWEEP_HEADER):
            raise DataError(f"{path}: unrecognized header {header}")
        kind = "trace" if header == TRACE_HEADER else "sweep"
        arr = _parse_rows(f, len(header))
    if arr is None:
        arr = _checked_rows(path, kind, len(header))
    if kind == "sweep":
        return {"grad_norm": arr[:, SWEEP_HEADER.index("min_grad_norm")]}, kind
    return {name: arr[:, j] for j, name in enumerate(TRACE_HEADER)}, kind


def _parse_rows(f, width: int) -> np.ndarray | None:
    """The rest of an open CSV file as a ``(rows, width)`` float array,
    parsed by numpy's C parser from the file's lines as they are read.

    Returns None where that parse does not stand for the per-row pass of
    :func:`_checked_rows`: it raised, the first line is blank (loadtxt
    warns on empty input), fewer rows came back than lines went in
    (loadtxt skips blank lines), or the rows have another width. Every
    number loadtxt accepts, ``float`` reads to the same double.
    """
    first = f.readline()
    if not first.strip():
        return None
    n_lines = 1

    def lines():
        nonlocal n_lines
        yield first
        for n_lines, line in enumerate(f, start=2):
            yield line

    try:
        arr = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape == (n_lines, width) else None


def _checked_rows(path: Path, kind: str, width: int) -> np.ndarray:
    """The data rows of a result CSV read one cell at a time, raising a
    DataError that names the first bad line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        try:
            rows = [[float(v) for v in row] for row in reader]
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty {kind}")
    bad = next(((i, r) for i, r in enumerate(rows, start=2) if len(r) != width), None)
    if bad is not None:
        raise DataError(f"{path}: line {bad[0]}: expected {width} columns, got {len(bad[1])}")
    return np.array(rows)


# beyond trace, c, eta, T and use_trajectory_L, which every theorem reads: its
# step-size gate's smoothness constants and the inputs of its bound
_THEOREMS = {
    "det_convex": _Choice(needs=("f_star", "R0"), reads=("L0", "L1", "L")),
    "det_strongly_convex": _Choice(needs=("f_star", "R0", "mu", "epsilon"),
                                   reads=("L0", "L1", "L")),
    "stoch_nonconvex": _Choice(reads=("L0", "L1", "F0", "sigma")),
    "dp_sgd": _Choice(reads=("L0", "L1", "F0", "sigma", "B", "sigma_dp")),
}


def cmd_bound(cfg: dict, out: Path) -> int:
    _require(cfg, "theorem", "trace")
    theorem = _choose(cfg, "theorem", _THEOREMS, _SCHEMAS["bound"],
                      hint=" (det_nonconvex is stoch_nonconvex with sigma = 0)")
    if theorem == "stoch_nonconvex" and cfg.get("use_trajectory_L", False):
        raise ConfigError("use_trajectory_L = true does not apply to theorem"
                          " 'stoch_nonconvex', whose bound takes no smoothness override")
    trace_path = Path(cfg["trace"])
    if not trace_path.is_absolute():
        trace_path = cfg["_dir"] / trace_path
    if not trace_path.exists():
        raise DataError(f"trace file not found: {trace_path}")
    data, kind = _read_results_csv(trace_path)
    is_sweep = kind == "sweep"
    if is_sweep and theorem in ("det_convex", "det_strongly_convex"):
        raise DataError(f"theorem {theorem!r} needs per-iteration data; got a sweep file")
    _require(cfg, "c", "eta", "T")
    # every field of RateParams is the bound key of that name
    params = theory.RateParams(**_given(cfg, [f.name for f in fields(theory.RateParams)]))
    if cfg.get("use_trajectory_L", False):
        L_eff = theory.max_local_smoothness(data["grad_norm"], params.L0, params.L1)
    else:
        L_eff = None

    if theorem == "det_convex":
        report = theory.bound_det_convex(params, L_override=L_eff)
    elif theorem == "stoch_nonconvex":
        report = theory.bound_stoch_nonconvex(params)
    elif theorem == "det_strongly_convex":
        report = theory.bound_det_strongly_convex(params, cfg["epsilon"], L_override=L_eff)
    else:
        report = theory.bound_dp_sgd(params, L_override=L_eff)

    failed = False
    # a sweep row's gradient norm is its cell's minimum
    mean_name = "mean_min_grad_norm" if is_sweep else "mean_grad_norm"
    if report.constants_source == "order_of_magnitude":
        # reported whatever the step size: only paper_explicit and
        # derived_appendix constants are asserted
        line = (f"theorem={theorem} predicted={_fmt(report.predicted)}"
                f" {mean_name}={_fmt(float(data['grad_norm'].mean()))}"
                f" status=reported constants={report.constants_source}")
    elif not report.stepsize_ok:
        line = f"theorem={theorem} status=vacuous reason=stepsize_above_threshold"
    elif theorem == "det_convex":
        checked = data["iter"] >= 1
        gaps = data["f_val"][checked] - cfg["f_star"]
        predicted = theory.det_convex_gap_bound(params, data["iter"][checked], L_eff)
        violations = int(np.count_nonzero(gaps > predicted))
        failed = violations > 0
        line = (f"theorem={theorem} predicted_final={_fmt(report.predicted)}"
                f" checked={int(checked.sum())} violations={violations}"
                f" status={'pass' if not failed else 'fail'}")
    elif theorem == "stoch_nonconvex":
        # a mean of per-seed minima is below the average-norm bound as well,
        # so on a sweep one check serves both regimes
        if report.regime == "small_c" and not is_sweep:
            statistic = float(data["grad_norm"].min())
            stat_name = "min_grad_norm"
        else:
            statistic = float(data["grad_norm"].mean())
            stat_name = mean_name
        # a NaN statistic (a cell that diverged before its first record)
        # fails rather than passing every comparison
        failed = not statistic <= report.predicted
        line = (f"theorem={theorem} regime={report.regime} {stat_name}={_fmt(statistic)}"
                f" predicted={_fmt(report.predicted)} status={'pass' if not failed else 'fail'}")
    else:
        # distance proxy from strong convexity: R_t^2 <= 2 (f_t - f*) / mu
        proxy = 2.0 * (data["f_val"] - cfg["f_star"]) / params.mu
        hits = np.nonzero(proxy <= cfg["epsilon"])[0]
        achieved = int(data["iter"][hits[0]]) if hits.size else -1
        if achieved < 0:
            if data["iter"][-1] < report.predicted:
                line = (f"theorem={theorem} predicted={_fmt(report.predicted)}"
                        f" status=inconclusive reason=trace_shorter_than_prediction")
            else:
                failed = True
                line = (f"theorem={theorem} predicted={_fmt(report.predicted)}"
                        f" achieved=never status=fail")
        else:
            failed = achieved > report.predicted
            line = (f"theorem={theorem} predicted={_fmt(report.predicted)}"
                    f" achieved={achieved} status={'pass' if not failed else 'fail'}")
    out.write_text(line + "\n")
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1) where argparse would
    exit 2, the code the exit table gives to data errors."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="clipbench",
        description="clipped-gradient experiment runner and theorem checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "fixedpoint", "certify", "bound"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out", required=True, type=Path)
        if name in ("run", "sweep"):
            sp.add_argument("--seed-offset", type=int, default=0,
                            help="added to every seed in the config")
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored; sweep cells run in lockstep"
                                 " in one process")

    try:
        args = parser.parse_args(argv)
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = _typed_config(parse_config(text), args.command)
        cfg["_dir"] = args.config.resolve().parent
        if args.command == "run":
            return cmd_run(cfg, args.out, args.seed_offset)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.seed_offset)
        if args.command == "fixedpoint":
            return cmd_fixedpoint(cfg, args.out)
        if args.command == "certify":
            return cmd_certify(cfg, args.out)
        return cmd_bound(cfg, args.out)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        # a ConfigError, a value the problem, run or theorem rejects, or a
        # file that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
