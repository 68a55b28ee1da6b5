"""One workload in a fresh interpreter: generate its scenarios, or run its loop.

    python bench/worker.py generate --workload W --seed S --work DIR [--smoke]
    python bench/worker.py run --workload W --seed S --work DIR --seconds T --trace 0|1 [--smoke]

``run.py`` starts both; ``run`` prints one JSON line with the latencies,
failures, peak memory and (traced) per-layer counts.  Every workload is a
closed loop with a single caller.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy

import fairsic
import fairsic.cli
import workloads as W
from baseline import baseline_rows
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
CLI_TIMEOUT_S = 60


def load_reference(workload: str, seed: int, smoke: bool) -> list | None:
    if smoke:
        return None
    with open(REFERENCE) as handle:
        return json.load(handle)["workloads"].get(workload, {}).get(str(seed))


class Loop:
    """Closed-loop bookkeeping shared by every workload."""

    def __init__(self, seconds: float, min_ops: int, reference: list | None) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.reference = reference
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.reference_checked = 0
        self.paired = [0.0, 0.0]  # untraced and traced seconds of paired executions
        self.start = perf_counter()

    def done(self) -> bool:
        return (perf_counter() - self.start >= self.seconds
                and len(self.latencies) >= self.min_ops)

    def record(self, latency: float, problems: list) -> None:
        self.latencies.append(latency)
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {len(self.latencies) - 1}: {problems[0]}")

    def check_reference(self, index: int, digest: str) -> str | None:
        if self.reference is None or index >= len(self.reference):
            return None
        self.reference_checked += 1
        if digest != self.reference[index]:
            return f"scenario {index}: answer differs from the stored reference"
        return None


def _guarded(fn, *args):
    """Run one operation; an exception becomes a failure, not a crash."""
    try:
        return fn(*args), None
    except Exception:  # the loop must keep running and report the failure
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def _timed(fn, *args) -> tuple:
    """(result, error, seconds) of one guarded call."""
    start = perf_counter()
    result, error = _guarded(fn, *args)
    return result, error, perf_counter() - start


def _pair(loop: Loop, op: int, plain, traced) -> tuple:
    """Run the untraced call and, when tracing, the traced one.

    The order alternates so that neither side keeps the advantage of
    running second on warm caches; both times feed ``trace.overhead``.
    """
    if traced is None:
        return plain(), None
    if op % 2:
        second = traced()
        first = plain()
    else:
        first = plain()
        second = traced()
    loop.paired[0] += first[2]
    loop.paired[1] += second[2]
    return first, second


def run_solver(workload: str, items: list, loop: Loop, tracer) -> None:
    """gaussian-scale and dmc-scale: load_scenario then greedy_profile."""
    check = W.check_gaussian if workload == "gaussian-scale" else W.check_dmc
    api = fairsic
    traced_api = tracer.api(api) if tracer else None
    op = 0
    while not loop.done():
        item = items[op % len(items)]
        (result, error, latency), traced = _pair(
            loop, op, lambda: _timed(W.solve_op, api, item),
            tracer and (lambda: _timed(tracer.run, "op", W.solve_op, traced_api, item)),
        )
        problems = [error]
        if result is not None:
            channel, report = result
            problems += [check(channel, report),
                         loop.check_reference(item["index"], W.report_digest(report))]
        if traced:
            problems.append(traced[1])
            if traced[0] is not None and result is not None and (
                W.report_digest(traced[0][1]) != W.report_digest(result[1])
                or traced[0][1].rates != result[1].rates
            ):
                problems.append("traced run gave another answer")
        loop.record(latency, problems)
        op += 1


def run_gate(items: list, loop: Loop, tracer) -> None:
    """tabulated-gate: solve (gate plus greedy) or validate, refusals expected."""
    api = fairsic
    traced_api = tracer.api(api) if tracer else None
    op = 0
    while not loop.done():
        item = items[op % len(items)]
        command = W.gate_command(op, len(items))
        (result, error, latency), traced = _pair(
            loop, op, lambda: _timed(W.gate_op, api, item, command),
            tracer and (lambda: _timed(tracer.run, "op", W.gate_op, traced_api, item, command)),
        )
        problems = [error]
        if result is not None:
            outcome, value = result
            problems.append(W.check_gate(item, outcome, value))
            if outcome != "validated":
                digest = "refused" if outcome == "refused" else W.report_digest(value)
                problems.append(loop.check_reference(item["index"], digest))
        if traced:
            problems.append(traced[1])
            if traced[0] is not None and result is not None and traced[0][0] != result[0]:
                problems.append("traced run gave another outcome")
        loop.record(latency, problems)
        op += 1


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fairsic.cli.main(argv)
    return code, out.getvalue()


def run_cli(items: list, work: Path, env: dict, loop: Loop, tracer, startup: list) -> None:
    """cli-desk: one ``python -m fairsic`` subprocess per operation.

    Traced, each call is repeated in process, untraced and traced, with the
    same argv: the difference to the subprocess is interpreter start-up.
    """
    index = 0
    while True:
        item = items[index % len(items)]
        solve_json = str(work / f"solve{item['index']:03d}.json")
        state: dict = {}
        for name, argv, expected in W.cli_commands(item, solve_json):
            start = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "fairsic", *argv], env=env, cwd=work,
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                loop.record(perf_counter() - start, [f"{name}: no exit within {CLI_TIMEOUT_S} s"])
                return
            latency = perf_counter() - start
            problems = []
            try:
                problems.append(W.check_cli(item, name, proc.returncode, expected,
                                            proc.stdout, proc.stderr, state))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{name}: unreadable output ({exc!r})")
            if name == "solve" and "solve" in state:
                Path(solve_json).write_text(proc.stdout)
                problems.append(loop.check_reference(item["index"], state["digest"]))
            if name == "solve" and item["perturbed"]:
                problems.append(loop.check_reference(item["index"], "refused"))
            if tracer:
                plain, traced = _pair(
                    loop, len(loop.latencies), lambda: _timed(_cli_in_process, argv),
                    lambda: _timed(tracer.run, "cli", _cli_in_process, argv),
                )
                problems += [plain[1], traced[1]]
                startup.append(latency - plain[2])
                if plain[0] != (proc.returncode, proc.stdout) or traced[0] != plain[0]:
                    problems.append(f"{name}: in-process output differs from the subprocess")
            loop.record(latency, problems)
            if loop.done():
                return
        index += 1


def run(args) -> dict:
    work = Path(args.work)
    items = json.loads((work / "manifest.json").read_text())
    spec = W.SPECS[args.workload]
    reference = load_reference(args.workload, args.seed, args.smoke)
    loop = Loop(args.seconds, spec.smoke_min_ops if args.smoke else 1, reference)
    tracer = Tracer() if args.trace else None
    startup: list[float] = []
    if args.workload == "cli-desk":
        run_cli(items, work, dict(os.environ), loop, tracer, startup)
    elif args.workload == "tabulated-gate":
        run_gate(items, loop, tracer)
    else:
        run_solver(args.workload, items, loop, tracer)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-desk" else resource.RUSAGE_SELF
    result = {
        "latencies": loop.latencies,
        "failed": loop.failed,
        "failures": loop.failures,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "numpy": numpy.__version__,
        "reference_checked": loop.reference_checked if reference is not None else None,
        "users": "K in {2, 3, 4}" if args.workload == "cli-desk"
        else f"K={spec.smoke_users if args.smoke else spec.users}",
        "dominant": spec.dominant,
    }
    if tracer:
        per_layer = tracer.per_layer()
        per_layer["cli.startup_ms"] = 1e3 * sum(startup) / len(startup) if startup else 0.0
        untraced, traced = loop.paired
        per_layer["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
        shares = tracer.self_seconds()
        if startup:
            shares["cli.startup"] = sum(startup)
        result.update(per_layer=per_layer, self_seconds=shares, missing=tracer.missing)
        if not args.smoke:
            result["baseline"] = baseline_rows(args.workload, work, dict(os.environ))
    return result


def generate(args) -> None:
    work = Path(args.work)
    items = W.write_pool(args.workload, args.seed, args.smoke, work)
    (work / "manifest.json").write_text(json.dumps(items))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("generate", "run"))
    parser.add_argument("--workload", required=True, choices=tuple(W.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    src = Path(fairsic.__file__).resolve().parent.parent
    if src != BENCH_DIR.parent / "src":
        print(f"fairsic was imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    if args.role == "generate":
        generate(args)
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
