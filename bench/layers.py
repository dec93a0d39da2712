"""Traced mode: time each clipbench layer from outside the package.

``Tracer.install`` replaces the bindings that callers actually look up
with span-recording wrappers, and ``uninstall`` puts the originals back:

- every function a module imports from another clipbench module
  (``optimizers.clip``, ``theory.clip``, ``problems.spectral_norm_sq``,
  the package-level re-exports ...), plus the public functions of the
  leaf layers ``core``, ``data_ingest`` and ``theory``, which ``cli``
  reaches as module attributes;
- ``optimizers._StepRng.at_step``, the per-step RNG addressing;
- the ``cli`` helpers for config parsing and trace CSV writing/reading;
- ``cli.build_problem``, so that the problem a CLI command builds is
  handed out as a proxy.

The proxy (``wrap_problem``) is a shallow copy of the problem whose every
public callable is wrapped in a span named after it, so any oracle a
later engine calls gets its own ``problems.<name>`` row. Span names are
``<defining module>.<function>``; calls into the optimizer entry points
all record under ``optimizers.run``.
"""

from __future__ import annotations

import copy
import inspect
import math
import os

import numpy as np

from spans import SpanRecorder

LAYERS = ("core", "problems", "data_ingest", "optimizers", "theory", "cli")
LEAF_LAYERS = ("core", "data_ingest", "theory")

# Passes over the feature matrix A that each logistic oracle needs at
# least: value forms A @ x, grad forms A @ x and then A.T @ r.
PASSES_OVER_A = {"value": 1, "grad": 2, "value_and_grad": 2}


class Tracer:
    def __init__(self, m):
        self.m = m
        self.rec = SpanRecorder()
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self.a_nbytes = 0

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_for(self, fn, layer: str):
        key = id(fn)
        if key not in self._wrapped:
            name = fn.__name__
            if layer == "optimizers" and name.startswith("run"):
                self._wrapped[key] = self.rec.wrap("optimizers.run", self._run_entry(fn))
            else:
                span = f"{layer}.{name}"
                after = None
                if span == "core.clip":
                    after = self._after_clip
                elif span == "data_ingest.parse_libsvm":
                    after = self._after_parse
                elif span == "theory.expected_clipped_grad":
                    after = self._after_mc(fn)
                self._wrapped[key] = self.rec.wrap(span, fn, after)
        return self._wrapped[key]

    def install(self) -> None:
        m = self.m
        by_module = {getattr(m, layer).__name__: layer for layer in LAYERS}
        owners = [m.package] + [getattr(m, layer) for layer in LAYERS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if not inspect.isfunction(value):
                    continue
                layer = by_module.get(value.__module__)
                if layer is None:
                    continue
                imported = owner is not getattr(m, layer)
                if imported and layer != "cli" or layer in LEAF_LAYERS and not attr.startswith("_"):
                    self._set(owner, attr, self._span_for(value, layer))
        cli, rec = m.cli, self.rec
        self._set(m.optimizers._StepRng, "at_step",
                  rec.wrap("optimizers.rng", m.optimizers._StepRng.at_step))
        self._set(cli, "parse_config", rec.wrap("cli.config", cli.parse_config))
        self._set(cli, "_typed_config", rec.wrap("cli.config", cli._typed_config))
        self._set(cli, "_write_trace_csv",
                  rec.wrap("cli.write_csv", cli._write_trace_csv, self._after_write))
        self._set(cli, "_read_results_csv",
                  rec.wrap("cli.read_csv", cli._read_results_csv, self._after_read))
        build = cli.build_problem
        self._set(cli, "build_problem", lambda *a, **k: self.wrap_problem(build(*a, **k)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def wrap_problem(self, problem):
        proxy = copy.copy(problem)
        for name in dir(problem):
            value = getattr(problem, name)
            if not name.startswith("_") and callable(value):
                setattr(proxy, name, self.rec.wrap(f"problems.{name}", value))
        A = getattr(problem, "A", None)
        self.a_nbytes = A.nbytes if isinstance(A, np.ndarray) else 0
        return proxy

    # -- hooks --------------------------------------------------------------

    def _run_entry(self, fn):
        DivergenceError = self.m.optimizers.DivergenceError
        count = self.rec.count

        def entry(problem, config, *args, **kwargs):
            try:
                trace = fn(problem, config, *args, **kwargs)
            except DivergenceError as exc:
                # a run that diverges at iterate t has applied t updates
                iters = exc.trace.iters
                count("optimizers.steps", int(iters[-1]) + 1 if iters.size else 0)
                count("optimizers.diverged_runs")
                raise
            count("optimizers.steps", config.T)
            return trace

        return entry

    def _after_clip(self, args, kwargs, result) -> None:
        u = np.asarray(args[0], dtype=float)
        c = args[1] if len(args) > 1 else kwargs["c"]
        if math.sqrt(float(u @ u)) > c:
            self.rec.count("core.clip.rescaled")

    def _after_parse(self, args, kwargs, result) -> None:
        self.rec.count("data_ingest.rows", result.n)

    def _after_mc(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result) -> None:
            if not result.exact:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.rec.count("theory.expected_clipped_grad.samples", bound.arguments["n_samples"])

        return after

    def _after_write(self, args, kwargs, result) -> None:
        trace, out = args[0], args[1]
        self.rec.count("cli.write_csv.rows", len(trace.iters))
        self.rec.count("cli.write_csv.bytes", os.path.getsize(out))

    def _after_read(self, args, kwargs, result) -> None:
        columns = result[0]
        self.rec.count("cli.read_csv.rows", len(next(iter(columns.values()))))

    # -- report -------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics, per job, over ``jobs`` traced jobs."""
        rec = self.rec

        def per_job(x):
            return x / jobs

        def us_per_call(name):
            calls = rec.calls(name)
            return rec.total_s(name) / calls * 1e6 if calls else 0.0

        def layer_self_s(layer):
            return per_job(sum(rec.self_s(n) for n in rec.names() if n.startswith(layer + ".")))

        counter = rec.counters.get
        steps = counter("optimizers.steps", 0)
        clips = rec.calls("core.clip")
        a_passes = sum(rec.calls(f"problems.{n}") * k for n, k in PASSES_OVER_A.items())
        out = {}
        for name in ("problems.value", "problems.grad", "problems.sample_grad", "core.clip",
                     "optimizers.rng"):
            out[f"{name}.calls"] = per_job(rec.calls(name))
            out[f"{name}.us_per_call"] = us_per_call(name)
        out.update({
            "problems.A_bytes_computed": per_job(a_passes * self.a_nbytes),
            "problems.self_s": layer_self_s("problems"),
            "core.self_s": layer_self_s("core"),
            "core.clip.rescaled_frac":
                counter("core.clip.rescaled", 0) / clips if clips else 0.0,
            "optimizers.steps": per_job(steps),
            "optimizers.us_per_step":
                rec.total_s("optimizers.run") / steps * 1e6 if steps else 0.0,
            "optimizers.self_s": per_job(rec.self_s("optimizers.run")),
            "optimizers.diverged_runs": per_job(counter("optimizers.diverged_runs", 0)),
            "cli.write_csv.s": per_job(rec.total_s("cli.write_csv")),
            "cli.write_csv.rows": per_job(counter("cli.write_csv.rows", 0)),
            "cli.write_csv.bytes": per_job(counter("cli.write_csv.bytes", 0)),
            "cli.read_csv.s": per_job(rec.total_s("cli.read_csv")),
            "cli.read_csv.rows": per_job(counter("cli.read_csv.rows", 0)),
            "cli.config.s": per_job(rec.total_s("cli.config")),
            "data_ingest.parse_libsvm.s": per_job(rec.total_s("data_ingest.parse_libsvm")),
            "data_ingest.rows": per_job(counter("data_ingest.rows", 0)),
            "data_ingest.spectral_norm_sq.s":
                per_job(rec.total_s("data_ingest.spectral_norm_sq")),
            "theory.expected_clipped_grad.s":
                per_job(rec.total_s("theory.expected_clipped_grad")),
            "theory.expected_clipped_grad.samples":
                per_job(counter("theory.expected_clipped_grad.samples", 0)),
            "theory.bound.s": per_job(sum(
                rec.total_s(n) for n in rec.names() if n.startswith("theory.bound_")
            )),
        })
        return out

    def span_table(self, jobs: int) -> list[str]:
        """Every span recorded, one line each, per job."""
        rec = self.rec
        lines = [f"{'span':40s} {'calls/job':>12s} {'us/call':>10s} {'total s/job':>12s}"
                 f" {'self s/job':>11s}"]
        for name in rec.names():
            calls = rec.calls(name)
            lines.append(
                f"{name:40s} {calls / jobs:12.1f} {rec.total_s(name) / calls * 1e6:10.2f}"
                f" {rec.total_s(name) / jobs:12.6f} {rec.self_s(name) / jobs:11.6f}"
            )
        return lines
