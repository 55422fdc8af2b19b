"""gqd benchmark: one workload per invocation, result as the last line of stdout.

    python3 perfbench/run.py --workload minimize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a gqd checkout; the program is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs every unit twice, plain and with the layers wrapped, and reports the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every workload in its own process and
prints one table.  A JSON record of each run, with the environment, goes to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("minimize", "scan-small", "scan-large", "selftest")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas: dict = {}
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": config.get("name"), "version": config.get("version"),
                "configuration": config.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").strip().isdigit():
            threads, source = int(os.environ[var]), var
            break
    else:
        # OpenBLAS starts one thread per available core, up to its build's MAX_THREADS.
        cap = re.search(r"MAX_THREADS=(\d+)", blas.get("configuration") or "")
        threads = min(nproc, int(cap.group(1))) if cap else nproc
        source = "default: nproc capped by MAX_THREADS"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_source": source,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed at this moment.

    Recorded beside each run, never used to adjust a metric.  On a shared
    host the same loop has been seen to take from 15 to 41 ms.
    """
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        samples.append(1000 * (time.perf_counter() - t))
    return statistics.median(samples)


def setup_seconds(workload: str) -> list[float]:
    """Import-plus-warm-up time of fresh processes, one sample each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def measure(workload, plans, seconds: float) -> dict:
    """Run units until the unit boundary nearest to ``seconds`` of wall time."""
    done, unit_wall = [], []
    t0, c0 = time.perf_counter(), time.process_time()
    for plan in plans:
        t = time.perf_counter()
        done.append((plan, workload.run(plan)))
        unit_wall.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(done) >= seconds:
            break
    return {
        "plans": [p for p, _ in done],
        "items": sum(r.items for _, r in done),
        "failed": sum(r.failed for _, r in done),
        "notes": [n for _, r in done for n in r.notes],
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "unit_wall_s": unit_wall,
    }


def measure_traced(workload, plans, seconds: float, tracer) -> dict:
    """Run each unit untraced and traced back to back, alternating which goes first.

    The difference of the two wall-time sums is the tracing overhead; the
    layer metrics come from the traced half only.
    """
    wall = {False: 0.0, True: 0.0}
    items = {False: 0, True: 0}
    failed, notes = 0, []
    t0 = time.perf_counter()
    for index, plan in enumerate(plans):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            t = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    with tracer.root("bench.unit", workload=workload.name, index=index, plan=plan):
                        r = workload.run(plan)
                finally:
                    tracer.uninstall()
            else:
                r = workload.run(plan)
            wall[traced] += time.perf_counter() - t
            items[traced] += r.items
            failed, notes = failed + r.failed, notes + r.notes
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / (index + 1) >= seconds:
            break
    return {"units": index + 1, "items": items[False] + items[True], "traced_items": items[True],
            "failed": failed, "notes": notes,
            "untraced_wall_s": wall[False], "traced_wall_s": wall[True]}


def plan_stream(workload, seed: int):
    import numpy

    rng = numpy.random.default_rng(seed)
    while True:
        yield workload.plan(rng)


def run_one(args) -> int:
    import layertrace
    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
        setup = [] if args.trace else setup_seconds(args.workload)
        workload = workloads.make(args.workload, workdir)
        workload.warmup()
        record["env"] = environment(args.seed)
        host_before = host_loop_ms()
        plans = plan_stream(workload, args.seed)
        if args.trace:
            tracer = layertrace.Tracer()
            run = measure_traced(workload, plans, args.seconds, tracer)
            metrics = layertrace.layer_metrics(
                tracer, run["traced_items"], run["untraced_wall_s"], run["traced_wall_s"])
            record.update(run=run, tracer=tracer.to_json())
        else:
            run = measure(workload, plans, args.seconds)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "items_per_s": (run["items"] / run["wall_s"], "items/s"),
                "cpu_per_item_s": (run["cpu_s"] / run["items"], "CPU-s/item"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            record.update(run=run, setup_samples=setup)
        attempted, failed, notes = run["items"], run["failed"], run["notes"]
        record["env"]["host_loop_ms"] = [host_before, host_loop_ms()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print("env " + json.dumps(record["env"], sort_keys=True))
    for note in notes[:10]:
        print(f"FAILED {note}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} items, {failed} failed")
    if args.trace:
        print(f"  missing wrapped attributes: {tracer.missing or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<28} {failed / attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<12} {'metric':<28} {'value':>12}  unit")
    for name, result in results.items():
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not args.trace:
            rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<28} {value:>12.6g}  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gqd" / "__init__.py").is_file():
        print(f"perfbench: no gqd sources at {SRC}; run from the root of a gqd checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
