"""The ROADMAP baseline rows, re-timed beside the values the ROADMAP quotes.

The ROADMAP table was taken with single in-process runs on Python 3.10.12
(CLI rows: best of 5).  Each traced run re-times the rows that belong to
its workload, so the start of the performance trajectory is confirmed or
corrected on the machine at hand.  Scenarios come from ``fairsic.generate``
with fixed seeds; the ROADMAP's two-user and XOR files are replaced by
generated K=2 scenarios of the same backends.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

from fairsic import (
    EnumerationBudget,
    RankFunctionSet,
    certify,
    dmc_rank_value,
    gaussian_fast_order,
    generate_channel,
    greedy_profile,
    save_scenario,
    validate_rank_axioms,
)

SEED = 7


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def _row(case: str, seconds: float, roadmap: float | None, repeats: int) -> dict:
    return {"case": case, "ms": 1e3 * seconds, "roadmap_ms": roadmap, "best_of": repeats}


def _cli_rows(work: Path, env: dict) -> list[dict]:
    def wall(argv):
        return lambda: subprocess.run(
            [sys.executable, *argv], env=env, cwd=work, capture_output=True, timeout=60, check=True
        )

    gaussian, dmc = work / "baseline_gaussian2.json", work / "baseline_dmc2.json"
    save_scenario(generate_channel("gaussian", 2, SEED), gaussian)
    save_scenario(generate_channel("dmc", 2, SEED), dmc)
    rows = [
        _row("python -c pass", _best(wall(["-c", "pass"]), 5), 44, 5),
        _row("python -c 'import fairsic'", _best(wall(["-c", "import fairsic"]), 5), 150, 5),
        _row("CLI solve, gaussian K=2", _best(wall(["-m", "fairsic", "solve", "--scenario", str(gaussian)]), 5), 160, 5),
        _row("CLI certify, dmc K=2", _best(wall(["-m", "fairsic", "certify", "--scenario", str(dmc)]), 5), 164, 5),
    ]
    for kind, roadmap in (("gaussian", (10.7, 10.0)), ("dmc", (None, None)), ("tabulated-submodular", (13.5, 17.3))):
        channel = generate_channel(kind, 4, SEED)
        for jobs, quoted in zip((1, 2), roadmap):
            seconds = _best(
                lambda: certify(RankFunctionSet.for_channel(channel), EnumerationBudget(), jobs=jobs), 3
            )
            # The ROADMAP's second column used --jobs 4; the benchmark runs at most
            # two threads, the CPU count of the machine it was tuned on.
            rows.append(_row(f"certify K=4 {kind}, jobs={jobs}", seconds, quoted, 3))
    return rows


def _fresh_greedy(kind: str, users: int, repeats: int) -> float:
    channel = generate_channel(kind, users, SEED)
    return _best(lambda: greedy_profile(RankFunctionSet.for_channel(channel)), repeats)


def baseline_rows(workload: str, work: Path, env: dict) -> list[dict]:
    if workload == "cli-desk":
        return _cli_rows(work, env)
    if workload == "gaussian-scale":
        channel = generate_channel("gaussian", 64, SEED)
        fast = _best(lambda: [gaussian_fast_order(channel, j) for j in range(1, 65)], 3)
        return [
            _row("greedy_profile gaussian K=16", _fresh_greedy("gaussian", 16, 3), 13, 3),
            _row("greedy_profile gaussian K=32", _fresh_greedy("gaussian", 32, 3), 123, 3),
            _row("greedy_profile gaussian K=64", _fresh_greedy("gaussian", 64, 1), 1720, 1),
            _row("gaussian fast-path orders K=64", fast, 4.2, 3),
        ]
    if workload == "dmc-scale":
        channel = generate_channel("dmc", 10, SEED)
        one = _best(lambda: dmc_rank_value(channel, 1, range(1, 6)), 3)
        return [
            _row("greedy_profile dmc K=6", _fresh_greedy("dmc", 6, 3), 53, 3),
            _row("greedy_profile dmc K=8", _fresh_greedy("dmc", 8, 1), 363, 1),
            _row("greedy_profile dmc K=10", _fresh_greedy("dmc", 10, 1), 2340, 1),
            _row("one dmc rank value K=10 (users 1..5)", one, 5.7, 3),
        ]
    def validate(users):
        channel = generate_channel("tabulated-submodular", users, SEED)
        return _best(lambda: validate_rank_axioms(RankFunctionSet.for_channel(channel)), 1)

    return [
        _row("validate tabulated K=10", validate(10), 196, 1),
        _row("validate tabulated K=12", validate(12), 1910, 1),
        _row("solve tabulated K=12 (gate + greedy)", _fresh_greedy("tabulated-submodular", 12, 1), 2150, 1),
    ]
