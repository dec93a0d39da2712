"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
through the benchmark's own command, and asserts that the last line of
output names exactly the metrics BENCHMARK.json lists, with their units,
and that no operation failed. Then runs the command in a directory that
holds only BENCHMARK.json and the benchmark, where it must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(spec, ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], result
            print(f"ok {workload} trace={trace}: {result['attempted']} operations, failed_frac 0")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(spec, bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        assert proc.returncode != 0 and not (lines and lines[-1].startswith("{")), proc
        print(f"ok without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
