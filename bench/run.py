"""fairsic benchmark: end-to-end latency and throughput per workload.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds T
    python3 bench/run.py --smoke

Run from the root of a checkout.  Each workload runs as a closed loop with
one caller in a fresh interpreter (``worker.py``), on scenario files that a
separate interpreter generated from the seed.  With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Lines above
it give the same numbers for people, with units, sample counts, machine
identity and, when traced, the ROADMAP baseline rows.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("cli-desk", "gaussian-scale", "dmc-scale", "tabulated-gate")
SETUP_SAMPLES = 9
SMOKE_SECONDS = 0.5
# Every run, traced or not, ends well inside the three minutes it is allowed.
RUN_BUDGET_S = 170.0
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import fairsic\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)

# The metrics in the JSON line, as BENCHMARK.json lists them.  ops_per_s and
# op_p50_ms are printed by name but left out: on a host whose speed switches
# between regimes 1.6x apart for tens of seconds at a time, the median and
# the mean of a 28 s run follow the regime (spreads of 0.2-0.3 of the median
# over ten seeds), while the tail sits in the slow regime on nearly every run.
END_TO_END_UNITS = {
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "scenario.self_s": "s",
    "scenario.bytes": "bytes",
    **{
        f"channels.{backend}.{metric}": unit
        for backend in ("gaussian", "dmc", "tabulated")
        for metric, unit in (("calls", "count"), ("self_s", "s"), ("hit_ratio", "ratio"))
    },
    "greedy.self_s": "s",
    "greedy.slots": "count",
    "greedy.evals_per_slot": "count",
    "rates.self_s": "s",
    "rates.calls": "count",
    "axioms.self_s": "s",
    "axioms.runs": "count",
    "oracle.self_s": "s",
    "oracle.configs": "count",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    That is the eleventh-largest sample, at percentile 100 * (n - 10) / n.
    With ten samples or fewer the maximum stands in, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _child(argv: list[str], deadline: float, env: dict) -> str:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:3])} did not finish within the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _env() -> dict:
    """Children import this checkout's sources and cache their bytecode there,
    as an installed package would, so that no run times compilation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(samples: int, deadline: float, env: dict) -> list[float]:
    """Seconds a fresh interpreter spends in ``import fairsic``, numpy included."""
    return [float(_child([sys.executable, "-c", IMPORT_PROBE], deadline, env))
            for _ in range(samples)]


def identity(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairsic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, generate and run one workload; returns its metrics and notes."""
    deadline = monotonic() + RUN_BUDGET_S
    env = _env()
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(1 if smoke else SETUP_SAMPLES, deadline, env)
        common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
        if smoke:
            common.append("--smoke")
        worker = [sys.executable, str(BENCH_DIR / "worker.py")]
        _child([*worker, "generate", *common], deadline, env)
        out = _child([*worker, "run", *common, "--seconds", repr(seconds),
                      "--trace", str(int(trace))], deadline, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = json.loads(out.strip().splitlines()[-1])
    latencies = result["latencies"]
    if not latencies:
        raise BenchError(f"{workload}: no operation completed")
    percentile, tail_value = tail(latencies)
    result.update(
        workload=workload,
        setup_samples=setup,
        tail_percentile=percentile,
        metrics={
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        },
        identity=identity(seed, result["numpy"]),
    )
    return result


def report(result: dict, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
    """Human-readable lines; the JSON result line follows them."""
    workload = result["workload"]
    n = len(result["latencies"])
    attempted, failed = n, result["failed"]
    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {int(trace)}"
          f"{'  smoke' if smoke else ''}  {result['users']}")
    print(f"identity: {json.dumps(result['identity'])}")
    checked = result["reference_checked"]
    if checked is None:
        print(f"reference check: skipped (no stored reference for seed {seed}"
              f"{' in smoke mode' if smoke else ''}; other checks ran)")
    else:
        print(f"reference check: {checked} answers compared with the stored reference")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    if not trace:
        m = result["metrics"]
        print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s  (closed loop, one caller, n={n} ops; "
              f"printed only)")
        print(f"  op_p50_ms    {m['op_p50_ms']:.3f} ms  (median of n={n}; printed only)")
        print(f"  op_tail_ms   {m['op_tail_ms']:.3f} ms  (p{result['tail_percentile']:.1f}, "
              f"the highest percentile with >= 10 of n={n} samples beyond it)")
        print(f"  setup_s      {m['setup_s']:.4f} s  (median of {len(result['setup_samples'])} "
              f"fresh interpreters importing fairsic)")
        scope = "largest child process" if workload == "cli-desk" else "worker process"
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB  ({scope})")
        print(f"  failed_ratio {failed / attempted:.4f}  ({failed}/{attempted} ops; "
              f"carried as 'failed'/'attempted' in the JSON line)")
        return
    for name, value in result["per_layer"].items():
        print(f"  {name:28s} {value:.6g} {PER_LAYER_UNITS[name]}")
    selfs = result["self_seconds"]
    total = sum(selfs.values()) or 1.0
    shares = sorted(selfs.items(), key=lambda kv: -kv[1])
    print("self-time shares: " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in shares))
    print(f"dominant layer: {shares[0][0]} (expected {result['dominant']})")
    if result["missing"]:
        print(f"trace: names not found, their layers read zero: {', '.join(result['missing'])}")
    rows = result.get("baseline")
    if rows:
        print("ROADMAP baseline rows (measured vs ROADMAP, Python 3.10.12 there):")
        for row in rows:
            quoted = row["roadmap_ms"]
            ratio = f"x{row['ms'] / quoted:.2f}" if quoted else ""
            print(f"  {row['case']:44s} {row['ms']:10.2f} ms  "
                  f"{'-' if quoted is None else f'{quoted:g} ms':>10s}  {ratio}"
                  f"  (best of {row['best_of']})")


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    attempted = len(result["latencies"])
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fairsic benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at K <= 4, briefly and traced, which also runs "
                             "and checks each untraced operation")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "fairsic" / "__init__.py").is_file():
        print(f"error: no fairsic sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        runs = [(w, True) for w in WORKLOADS]
        seconds = SMOKE_SECONDS
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [(w, bool(args.trace)) for w in names]
        seconds = args.seconds
    lines = []
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, seconds, trace, args.smoke)
            report(result, args.seed, seconds, trace, args.smoke)
            lines.append(result_line(result, trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0]))
        return 0
    combined = {
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {
            f"{workload}{'.traced' if trace else ''}.{name}": value
            for (workload, trace), line in zip(runs, lines)
            for name, value in line["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0 if not args.smoke or combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
