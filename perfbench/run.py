"""Layered benchmark for faemb: one workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-toy --seed 1 --seconds 10 --trace 0

Workloads: ``cli-toy``, ``encode-paper``, ``query-5k`` (see NOTES.md).  With
``--trace 0`` the last stdout line holds every end-to-end metric; with
``--trace 1`` the workload runs once untraced and once traced over the same
work, and the last line holds every per-layer metric plus the tracing
overhead.  The package is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1  # BLAS threads x CLI worker threads (workloads.WORKERS) <= nproc


def _machine(np, workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "worker_threads": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _stopper(seconds: float, minimum: int, fixed: int | None):
    """Stop after ``fixed`` units, else once ``seconds`` passed and ``minimum`` ran."""
    if fixed is not None:
        return lambda units, spent: units >= fixed
    return lambda units, spent: units >= minimum and spent >= seconds


def run_workload(name: str, seed: int, seconds: float, small: bool, tr, plan=None):
    """Run one workload; returns (end-to-end values, tally, plan, wall seconds, info).

    ``plan`` maps each task to the units a previous run completed; when
    given, the run repeats exactly that work instead of timing itself.
    """
    import faemb.cli
    import faemb.pipeline
    import faemb.storage

    import workloads as wl

    p = wl.tiny(wl.PROFILES[name]) if small else wl.PROFILES[name]
    tally = wl.Tally()
    res = wl.Results()
    work = BENCH / "_work" / f"{name}-s{seed}-{os.getpid()}-{'t' if plan else 'u'}"
    t_begin = time.perf_counter()
    tr.install({"cli": faemb.cli, "pipeline": faemb.pipeline, "storage": faemb.storage})
    try:
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        inp = wl.setup(p, seed, work, tr)
        setup_times = [time.perf_counter() - t0]

        def inputs():
            return wl.query_inputs(inp, res, tr, tally)

        def index_ready():
            return inp.sig_index is not None or bool(res.recipe)

        index_size = len(inp.sig_index[2]) if inp.sig_index else p.clusters * p.per_cluster
        minimum = {
            "setup": wl.SETUP_REPEATS - 1,
            "recipe": 1,
            "train": p.train_subsets,
            "encode": 2,
            "query": 20 if small else wl.MIN_QUERIES,
            "eval": wl.eval_blocks(p, index_size)[1],
        }
        steps = {
            "setup": wl.setup_steps(p, seed, work / "repeat", tr, setup_times),
            "recipe": wl.recipe_steps(p, inp, seed, tr, tally, res),
            "train": wl.train_steps(p, inp, seed, tr, tally, res),
            "encode": wl.encode_steps(inp, tr, tally, res),
            "query": wl.query_steps(inputs, tr, tally, res),
            "eval": wl.eval_steps(p, inputs, tr, tally, res),
        }
        tasks = []
        if "recipe" in p.focus:  # the recipe's own trainings sample train_s
            del steps["train"]
        for task, gen in steps.items():
            if task in p.focus:
                budget = seconds
            else:
                budget = wl.SIDE_SECONDS[task] * (0.05 if small else 1.0)
            weight = {
                "setup": max(budget, setup_times[0] * minimum[task]),
                "recipe": max(budget, p.pace),
            }.get(task, budget)
            if task == "train":  # exactly one training per subset
                budget = 0.0
            tasks.append(wl.Task(
                name=task,
                steps=gen,
                weight=weight,
                stop=_stopper(budget, minimum[task], plan[task] if plan else None),
                ready=index_ready if task in ("query", "eval") else (lambda: True),
            ))
        wl.interleave(tasks)
        values = wl.summarize(p, res, tally)
    finally:
        tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t_begin
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plan = {t.name: t.units for t in tasks}
    info = {
        "units": plan,
        "seconds": {t.name: round(t.spent, 3) for t in tasks},
        "search_samples_per_index": len(res.latency_ms["real"]),
    }
    return values, tally, plan, wall, info


def per_layer(tr, names: list[str], untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from the traced pass, keyed by BENCHMARK.json name."""
    self_s = tr.self_times()
    c = tr.counts
    out = {name: self_s.get(name[:-2], 0.0) for name in names if name.endswith("_s")}

    def mean(total: str, per: str) -> float:
        return c[total] / max(c[per], 1)

    out.update({
        "coding.train_outer_iters": mean("train.outer_iters", "train.calls"),
        "coding.newton_iters_mean": mean("newton.iters", "newton.samples"),
        "coding.newton_converged_frac": mean("newton.converged", "newton.samples"),
        "aggregate.democratic_iters_mean": mean("democratic.iters", "democratic.calls"),
        "aggregate.democratic_converged_frac": mean("democratic.converged", "democratic.calls"),
        "binary.itq_iters": mean("itq.iters", "itq.calls"),
        "embed.bytes_out": c["embed.bytes_out"],
        "storage.bytes_written": c["storage.bytes_written"],
        "storage.bytes_read": c["storage.bytes_read"],
        "trace.spans": len(tr.spans),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "faemb" / "__init__.py").is_file():
        print(f"no faemb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import faemb
    from tracing import NoTrace, Tracer

    if Path(faemb.__file__).resolve().parent != ROOT / "src" / "faemb":
        print(f"faemb imported from {faemb.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.PROFILES:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.PROFILES)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    values, tally, plan, wall, info = run_workload(
        args.workload, args.seed, args.seconds, args.tiny, NoTrace()
    )
    names = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        tr = Tracer()
        _, t_tally, _, t_wall, _ = run_workload(
            args.workload, args.seed, args.seconds, args.tiny, tr, plan
        )
        tally.attempted += t_tally.attempted
        tally.failed += t_tally.failed
        tally.problems += t_tally.problems
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(tr, names, wall, t_wall)
        trace_path = BENCH / "_out" / f"trace-{args.workload}-s{args.seed}.json"
        tr.write(trace_path)
        print(f"spans: {trace_path.relative_to(ROOT)}", file=sys.stderr)

    print("machine " + json.dumps(_machine(np, wl.WORKERS)))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name in names:
        print(f"{name:40s} {values[name]:>16.6f} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
