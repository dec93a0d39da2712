"""clipbench benchmark: end-to-end and per-layer timing of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 bench/run.py --record

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the run exits with code 2 if that is missing.

A run sets up its workload several times (purge and re-import clipbench,
write and parse the configs, build the problem) and reports the median as
``setup_s``. It then repeats the workload's job for ``--seconds`` after
one warm-up job and reports the median ``solve_s``: the time from the
first optimizer call to the last output written and checked. Both times
are calibrated against a fixed kernel (``make_calibration``). ``--trace
1`` alternates untraced and traced jobs and reports the per-layer split
of the traced ones instead (see ``layers.py``), with the traced minus
untraced solve time as ``trace.overhead_frac``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--workload all`` runs every workload in a fresh process and prints one
table. ``--record`` runs every input variant once and rewrites
``reference.json``: the discrete results the checks compare against and
the output digests behind ``outputs.bits_changed``.

Every process pins BLAS and OpenMP to one thread; the sweep pool is off
(``--threads 1``).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
THREADS_BEFORE = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from layers import LAYERS, Tracer  # noqa: E402
from workloads import VARIANTS, WORKLOADS, JobResult  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

SETUP_REPS = 7
MIN_JOBS = 3
CALIBRATION_S = 0.05  # nominal duration of one calibration pass
SEGMENT_S = 0.25  # shortest stretch of a job between two calibration passes
clock = time.perf_counter


def make_calibration():
    """A fixed kernel, timed on both sides of every measured interval.

    On a shared 2-core host the speed of the machine swings by 15-30%
    within seconds and drifts over tens of seconds, which moved the
    median of a 20-second run by as much as 26% between runs. The kernel
    mixes interpreter work with small numpy kernels, as the workloads do,
    and runs no clipbench code. A measured interval is divided by the
    mean of the passes on either side of it and multiplied by
    ``CALIBRATION_S``, so it stays in seconds while the machine's speed
    cancels out; clipbench's own cost is untouched.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal((500, 60))
    x = rng.standard_normal(60)

    def calibrate() -> float:
        t0 = clock()
        acc = 0.0
        for _ in range(3000):
            m = A @ x
            acc += float(np.log1p(np.exp(-np.abs(m))).mean())
            for j in range(20):
                acc += j * 0.5
        return clock() - t0

    return calibrate


def fresh_import() -> SimpleNamespace:
    """Import clipbench from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "clipbench" or n.startswith("clipbench.")]:
        del sys.modules[name]
    package = importlib.import_module("clipbench")
    if Path(package.__file__).resolve().parent != SRC / "clipbench":
        raise SystemExit(f"clipbench imported from {package.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"clipbench.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


def provenance() -> dict:
    def cache_kib(level):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if int((index / "level").read_text()) == level:
                    return int((index / "size").read_text().strip().rstrip("K"))
            except (OSError, ValueError):
                pass
        return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_kib": cache_kib(2),
        "l3_kib": cache_kib(3),
        "thread_env_set": {var: "1" for var in THREAD_VARS},
        "thread_env_before": THREADS_BEFORE,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


class Runner:
    """One workload in one process: set-up, warm-up and timed jobs."""

    def __init__(self, workload_cls, variant: int, reference: dict | None, work: Path):
        self.workload = workload_cls(reference)
        self.variant = variant
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.bits_changed = 0
        self.calibrate = make_calibration()

    def setup(self, reps: int) -> list[tuple[float, float]]:
        """Set up ``1 + reps`` times; (raw, calibrated) seconds of the last ``reps``."""
        times = []
        for _ in range(1 + reps):
            gc.collect()
            before = self.calibrate()
            t0 = clock()
            self.m = fresh_import()
            self.workload.setup(self.m, self.work, self.variant)
            raw = clock() - t0
            times.append((raw, raw * CALIBRATION_S * 2.0 / (before + self.calibrate())))
        return times[1:]

    def job(self, wrap_problem=lambda p: p):
        """Run one job; returns (raw solve_s, calibrated solve_s, JobResult)."""
        gc.collect()
        watch = Stopwatch(self.calibrate)
        t0 = clock()
        try:
            result = self.workload.job(self.m, watch.mark, wrap_problem)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            ops = self.workload.ops
            result = JobResult(ops, [f"job raised {exc!r}"] * ops)
        solve, calibrated = watch.stop(t0)
        self.attempted += result.attempted
        self.failures += result.failures
        if self.reference is not None:
            ref = self.reference["digests"]
            changed = sum(a != b for a, b in zip(result.digests, ref))
            self.bits_changed = max(self.bits_changed, changed + abs(len(ref) - len(result.digests)))
        return solve, calibrated, result


class Stopwatch:
    """Solve time of one job, calibrated piecewise.

    The first ``mark()`` (the job's first optimizer call) starts the clock.
    A later ``mark()`` that comes at least ``SEGMENT_S`` after the clock
    last started ends a segment: the clock pauses for a calibration pass,
    and the segment is scaled by the mean of the passes on either side of
    it, so the calibration follows speed changes within a long job.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.raw = 0.0
        self.calibrated = 0.0
        self._start = None
        self._before = 0.0

    def _close_segment(self, now: float) -> None:
        after = self.calibrate()
        segment = now - self._start
        self.raw += segment
        self.calibrated += segment * CALIBRATION_S * 2.0 / (self._before + after)
        self._before = after

    def mark(self) -> None:
        now = clock()
        if self._start is None:
            self._before = self.calibrate()
        elif now - self._start >= SEGMENT_S:
            self._close_segment(now)
        else:
            return
        self._start = clock()

    def stop(self, job_start: float) -> tuple[float, float]:
        """(raw, calibrated) seconds; uncalibrated job time if never started."""
        now = clock()
        if self._start is None:
            return now - job_start, now - job_start
        self._close_segment(now)
        return self.raw, self.calibrated


def run_one(args) -> int:
    variant = args.seed % VARIANTS
    reference = load_reference().get(args.workload, {}).get(str(variant))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload], variant, reference, work)
        setup_times = runner.setup(SETUP_REPS)
        if args.trace:
            metrics, lines = traced_run(runner, args.seconds)
        else:
            metrics, lines = untraced_run(runner, args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "variant": variant}))
    for line in lines:
        print(line)
    print(f"{'failed_frac':32s} {failed / runner.attempted:.6f} ratio"
          f"   ({failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _summary(name: str, samples: list[tuple[float, float]]) -> str:
    raw = statistics.median(s[0] for s in samples)
    quartiles = statistics.quantiles([s[1] for s in samples], n=4)
    return (f"{name:32s} {len(samples)} samples, calibrated quartiles "
            f"{quartiles[0]:.4f} .. {quartiles[2]:.4f} s, uncalibrated median {raw:.4f} s")


def untraced_run(runner: Runner, seconds: float, setup_times: list[tuple[float, float]]):
    runner.job()  # warm-up
    solves = []
    deadline = clock() + seconds
    while len(solves) < MIN_JOBS or clock() < deadline:
        solves.append(runner.job()[:2])
    ok_frac = 1.0 - len(runner.failures) / runner.attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setup_times), "s"),
        "solve_s": (statistics.median(s[1] for s in solves), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (ok_frac, "ratio"),
    }
    lines = [f"{name:32s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [_summary("setup_s", setup_times), _summary("solve_s", solves)]
    return metrics, lines


def traced_run(runner: Runner, seconds: float):
    tracer = Tracer(runner.m)

    def traced_job():
        tracer.install()
        try:
            return runner.job(tracer.wrap_problem)
        finally:
            tracer.uninstall()

    runner.job()  # warm-up, untraced and traced
    traced_job()
    tracer.rec.reset()
    plain, traced = [], []
    deadline = clock() + seconds
    while len(traced) < 2 or clock() < deadline:
        plain.append(runner.job()[1])
        traced.append(traced_job()[1])
    jobs = len(traced)
    metrics = {name: (value, _unit(name)) for name, value in tracer.layer_metrics(jobs).items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics["outputs.bits_changed"] = (runner.bits_changed, "count")
    lines = tracer.span_table(jobs) + [""] + [
        f"{name:40s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
    ]
    return metrics, lines


def _unit(name: str) -> str:
    if name.endswith(".us_per_call") or name.endswith(".us_per_step"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, worst = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            worst = worst or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            worst = worst or 1
        rows.append((name, result))
    for name, result in rows:
        print(f"== {name}   failed_frac {result['failed'] / result['attempted']:.6f} ratio"
              f" ({result['failed']} of {result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:40s} {entry['value']:.6g} {entry['unit']}")
    return worst


def record() -> int:
    """Run every variant of every workload once and rewrite reference.json."""
    out = {"provenance": provenance(), "variants": VARIANTS}
    for name, cls in WORKLOADS.items():
        out[name] = {}
        for variant in range(VARIANTS):
            work = ROOT / ".bench_work" / f"record-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                runner = Runner(cls, variant, None, work)
                runner.setup(0)
                result = runner.job()[2]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            out[name][str(variant)] = {"observed": result.observed, "digests": result.digests}
            print(f"recorded {name} variant {variant}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "clipbench" / "__init__.py").is_file():
        print(f"error: no clipbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
