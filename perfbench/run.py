"""chainflux benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each item is one in-process ``chainflux.cli.main([...])`` call on a
generated config file, awaited before the next one is made (a closed loop
with one client and ``workers=1``). Every output table is checked. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). Earlier lines are a readable report. Every run
also appends a record with its environment to ``.perfbench_run/results.jsonl``.

Run it from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BLAS_THREADS = 1
SETUP_REPEATS = 5          # setup_s is the median of this many cold set-ups
TAIL_BEYOND = 10           # items that must lie beyond the tail percentile

class BenchError(Exception):
    """The benchmark cannot run here (no program sources, bad arguments)."""


def pin_blas_threads() -> int:
    """Fix the BLAS thread count; only effective before numpy is imported."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread count was pinned")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def program_dir() -> Path:
    package_dir = ROOT / "src" / "chainflux"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no chainflux sources at {package_dir}")
    return package_dir


def import_cli():
    """Import chainflux from this checkout's src/, and from nowhere else."""
    package_dir = program_dir()
    sys.path.insert(0, str(ROOT / "src"))
    from chainflux import cli

    if Path(cli.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported chainflux from {cli.__file__}, not from {package_dir}")
    return cli


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Client:
    """Writes an item's config, calls the CLI in-process, checks the table."""

    def __init__(self, cli, workload, seed: int, size: str, work_dir: Path):
        self.cli, self.workload, self.seed, self.size = cli, workload, seed, size
        self.config_path = work_dir / "item.json"
        self.out_path = work_dir / "out.csv"

    def run(self, index: int, tracer=None) -> tuple[float, checks.ItemError | None]:
        """Run item ``index``; return its latency and its failure, if any."""
        item = self.workload.item(self.seed, index, self.size)
        self.config_path.write_text(json.dumps(item.config))
        self.out_path.unlink(missing_ok=True)
        argv = [item.command, "--config", str(self.config_path), "--out", str(self.out_path),
                "--format", "csv", "--workers", "1"]
        if tracer is not None:
            tracer.install(index)
        start = perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # an escaped exception fails the item, not the run
            code = None
            crash = traceback.format_exc(limit=3)
        finally:
            latency = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if code is None:
            return latency, checks.Fault(f"item {index}: {crash}")
        try:
            checks.check_output(item, code, self.out_path)
        except checks.ItemError as exc:
            return latency, type(exc)(f"item {index}: {exc}")
        except OSError as exc:
            return latency, checks.OutputError(f"item {index}: {exc}")
        return latency, None


def set_up(workload, seed: int, size: str, work_dir: Path):
    """Import the program, generate the first config, run one warm-up item.

    Returns the client, the set-up time and the warm-up item's failure or None.
    """
    start = perf_counter()
    client = Client(import_cli(), workload, seed, size, work_dir)
    _, error = client.run(0)
    return client, perf_counter() - start, error


def probe_setups(args, count: int) -> list[float]:
    """Cold set-up times of fresh processes running this same script."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, level) of the highest percentile with TAIL_BEYOND items beyond it.

    With fewer than 2 * TAIL_BEYOND items no percentile above the median
    qualifies, and the median is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND  # 1-based rank of the value with TAIL_BEYOND items above it
    if rank <= (n + 1) // 2:
        return statistics.median(ordered), 0.5
    return ordered[rank - 1], rank / n


def measure(client: Client, seconds: float, tracer=None) -> dict:
    """Closed loop: run items until ``seconds`` have passed. With a tracer,
    odd items run traced and even items untraced, for the overhead ratio."""
    latencies = {True: [], False: []}
    errors = []
    index = 1
    start = perf_counter()
    while perf_counter() - start < seconds or (tracer is not None and not latencies[False]):
        traced = tracer is not None and index % 2 == 1
        latency, error = client.run(index, tracer if traced else None)
        latencies[traced].append(latency)
        if error is not None:
            errors.append(error)
        index += 1
    return {"elapsed": perf_counter() - start, "traced": latencies[True],
            "untraced": latencies[False], "errors": errors}


def end_to_end(run: dict, attempted: int, failed: int, setup_times: list[float]):
    latencies = run["untraced"]
    tail, level = tail_latency(latencies)
    values = {
        "throughput_per_s": len(latencies) / run["elapsed"],
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = {"latency_tail_level": level, "latency_samples": len(latencies),
             "failed_frac": failed / attempted, "setup_samples_s": setup_times}
    return values, notes


def per_layer(run: dict, tracer) -> tuple[dict, dict]:
    traced, untraced = run["traced"], run["untraced"]
    values = tracer.metrics(len(traced))
    values["item.traced_s"] = statistics.fmean(traced)
    values["item.untraced_s"] = statistics.fmean(untraced)
    values["trace.overhead_ratio"] = values["item.traced_s"] / values["item.untraced_s"]
    notes = {"traced_items": len(traced), "untraced_items": len(untraced),
             "spans": len(tracer.parent)}
    return values, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'toy' shrinks every item (N=3, classical N~10) for the fast test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@contextmanager
def item_dir():
    """A private directory for one process's config and output files."""
    path = RUN_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(args) -> dict:
    with item_dir() as work_dir:
        _, setup_time, _ = set_up(workloads.WORKLOADS[args.workload], args.seed, args.size,
                                  work_dir)
    return {"setup_s": setup_time}


def run_benchmark(args, blas_threads: int) -> dict:
    program_dir()
    probes = [] if args.trace else probe_setups(args, SETUP_REPEATS - 1)
    with item_dir() as work_dir:
        client, setup_time, warm_error = set_up(workloads.WORKLOADS[args.workload], args.seed,
                                                args.size, work_dir)
        tracer = spans.Tracer() if args.trace else None
        run = measure(client, args.seconds, tracer)

    # the warm-up item counts as attempted: a failure in it is still a failure
    errors = run["errors"] if warm_error is None else [warm_error, *run["errors"]]
    attempted = 1 + len(run["traced"]) + len(run["untraced"])
    if tracer is not None:
        values, notes = per_layer(run, tracer)
        tracer.write(RUN_DIR / f"spans-{args.workload}.npz")
    else:
        values, notes = end_to_end(run, attempted, len(errors), [setup_time, *probes])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    result = {
        # an item the program refuses (exit 1) fails but is not wrong; a crash
        # or a wrong table is
        "correct": all(isinstance(e, checks.Refused) for e in errors),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(blas_threads),
              "notes": notes, "errors": [f"{type(e).__name__}: {e}" for e in errors[:20]],
              "latencies_s": {"traced": run["traced"], "untraced": run["untraced"]}, **result}
    with open(RUN_DIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"size {record['size']}: {record['attempted']} items, {record['failed']} failed")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for error in record["errors"]:
        print(f"FAILED {error.strip()}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["notes"].items():
        print(f"  {name:36s} {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        blas_threads = pin_blas_threads()
        if args.setup_probe:
            print(json.dumps(setup_probe(args)))
            return 0
        record = run_benchmark(args, blas_threads)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
