"""Benchmark for sccheck: time to a verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload paper_examples --seed 1 --trace 0
    python3 perfbench/run.py                    # every workload in turn

Each workload runs in its own fresh process, as a closed loop from one
thread.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs its rounds untraced, then again with spans installed
around sccheck's public functions, and reports the per-layer metrics.  The
metric names, units and the run length (``run_seconds``) are the ones
``BENCHMARK.json`` gives; ``--seconds`` overrides the run length.  The last
line of standard output of one workload is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; run over every workload, the last
line is one object with these four per workload name.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ["paper_examples", "random_sweep", "composites"]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import sccheck from this checkout's source tree, and nothing else."""
    src = ROOT / "src"
    sys.path[:0] = [str(HERE), str(src)]
    try:
        import sccheck
    except ImportError as e:
        _fail(f"cannot import sccheck from {src}: {e}")
    if not Path(sccheck.__file__).resolve().is_relative_to(src):
        _fail(f"sccheck was imported from {sccheck.__file__}, not from {src}")
    import workloads
    return workloads


def _benchmark_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")


def _median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def _setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes that stop at
    the first operation.  Set-up time is the process's CPU time up to its
    first operation, interpreter start-up included."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            _fail(f"set-up process failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _loop(workload, seconds: float, rounds: int | None = None) -> tuple[int, float]:
    """Closed loop over whole rounds; returns rounds run and wall time."""
    start = perf_counter()
    r = 0
    while True:
        if r not in workload.rounds:
            workload.prepare(r)
        workload.run_round(r)
        r += 1
        if rounds is None and perf_counter() - start >= seconds:
            break
        if rounds is not None and r >= rounds:
            break
    return r, perf_counter() - start


def _end_to_end(stats, setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (_median(setup), "s"),
        "systems_per_s": (stats.systems / (sum(stats.system_ms) / 1000.0), "1/s"),
        "system_ms_p50": (_median(stats.system_ms), "ms"),
        "pbh_ms_p50": (_median(stats.pbh_ms), "ms"),
        "kalman_ms_p50": (_median(stats.kalman_ms), "ms"),
        "matroid_ms_p50": (_median(stats.matroid_ms), "ms"),
        "verify_ms_p50": (_median(stats.verify_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _print_tail(stats) -> None:
    n = stats.systems
    print(f"  systems checked: {n}")
    if n >= 100:
        p90 = statistics.quantiles(stats.system_ms, n=10)[-1]
        print(f"  system_ms_p90 = {p90:.4f} ms (over {n} systems)")
    slowest = sorted(stats.systems_ms, reverse=True)[:5]
    print("  slowest systems: " + ", ".join(f"{sid} {ms:.1f} ms" for ms, sid in slowest))


def run_workload(args) -> int:
    workloads = _import_program()
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_only:
            cls(args.seed, work_dir).prepare(0)
            print(json.dumps({"setup_s": process_time()}))
            return 0
        spec = _benchmark_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.trace:
            metrics, stats = _traced(args, cls, work_dir)
            wanted = spec["per_layer"]
        else:
            workload = cls(args.seed, work_dir)
            workload.prepare(0)
            own_setup = process_time()
            _loop(workload, args.seconds)
            stats = workload.stats
            metrics = _end_to_end(stats, _setup_samples(args, own_setup))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = {}
    for metric in wanted:
        value, unit = metrics[metric["name"]]
        if unit != metric["unit"]:
            _fail(f"{metric['name']}: measured in {unit}, BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{stats.attempted} operations attempted, {stats.failed} failed, "
          f"{len(stats.wrong)} refuted")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        _print_tail(stats)
    print(json.dumps({"correct": not stats.wrong, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": out}))
    return 0


def _traced(args, cls, work_dir: Path):
    from tracer import Tracer, TraceError

    plain = cls(args.seed, work_dir / "plain")
    rounds, plain_wall = _loop(plain, args.seconds / 2)
    tracer = Tracer()
    traced = cls(args.seed, work_dir / "traced", tracer=tracer)
    try:
        tracer.install()
        try:
            _, traced_wall = _loop(traced, 0, rounds=rounds)
        finally:
            tracer.uninstall()
        missing = tracer.missing_calls(cls.expected_calls)
        if missing:
            raise TraceError(f"traced names never called: {', '.join(missing)}")
    except TraceError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        traced_wall = 0.0
        traced.stats.attempted = traced.stats.failed = plain.stats.attempted
    stats = traced.stats
    stats.attempted += plain.stats.attempted
    stats.failed += plain.stats.failed
    stats.wrong += plain.stats.wrong
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = tracer.metrics(traced_wall, traced_wall - plain_wall, traced.stats.systems)
    with open(OUT / f"layers-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh, indent=1)
    return metrics, stats


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the last line is one
    JSON object with each workload's result under its name."""
    worst = 0
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        worst = max(worst, done.returncode)
        if done.returncode == 0:
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    if worst == 0:
        print(json.dumps(results))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first operation and print the set-up time")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
