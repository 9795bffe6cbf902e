"""Fast self-check of the benchmark at tiny sizes.

Runs every workload untraced and traced with ``--tiny`` and asserts that
the last stdout line names every metric of BENCHMARK.json, each finite and
with its unit, and that the outputs passed their checks.  Then checks that a
copy of the benchmark without the package sources exits non-zero and prints
no result.  Run from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert math.isfinite(got["value"]), (m["name"], got["value"])
    print(f"ok  {workload:13s} trace={trace}  {len(metrics)} metrics")


def check_without_sources() -> None:
    bare = ROOT / "perfbench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "cli-toy", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok  without sources: exit", proc.returncode)


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
