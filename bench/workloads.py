"""Workload definitions: scenario pools, operations and output checks.

Scenario ``i`` of a run with seed ``s`` is written by ``fairsic.generate``
from the integer seed ``scenario_seed(s, i)``, so the same seed always
yields the same files.  The operations only ever read those files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from fairsic import (
    NonRankInputError,
    RankFunctionSet,
    TabulatedRanks,
    decode_sequence,
    gaussian_fast_order,
    gaussian_rate_formula,
    generate_channel,
    save_scenario,
)

AXIOM_TOL = 1e-9
# Excess of the one submodularity inequality a perturbed table breaks: ten
# times the solver's tolerance, so the refusal is certain but barely earned.
PERTURB_EXCESS = 1e-8
GEN_KINDS = {"gaussian": "gaussian", "dmc": "dmc", "tabulated": "tabulated-submodular"}


@dataclass(frozen=True)
class Spec:
    users: int  # K of a full run
    smoke_users: int  # K of a smoke run (always <= 4)
    pool: int  # distinct scenario files per run; operations cycle through them
    smoke_min_ops: int  # operations a smoke run makes at least, to reach every check
    dominant: str  # layer expected to take the largest self-time share


# K values are as large as sample count allows: a run must hold enough
# operations (about 75-150 in 28 s) that the tail percentile, which has ten
# samples beyond it, sits well above the median.
SPECS = {
    "cli-desk": Spec(users=4, smoke_users=4, pool=12, smoke_min_ops=10, dominant="cli.startup"),
    "gaussian-scale": Spec(users=32, smoke_users=4, pool=128, smoke_min_ops=2, dominant="channels"),
    "dmc-scale": Spec(users=7, smoke_users=4, pool=96, smoke_min_ops=2, dominant="channels"),
    "tabulated-gate": Spec(users=10, smoke_users=4, pool=8, smoke_min_ops=16, dominant="axioms"),
}


def scenario_seed(seed: int, index: int) -> int:
    return (seed % 2**32) * 10_000 + index


def pool_item(workload: str, index: int, seed: int, smoke: bool) -> dict:
    """Kind, user count and perturbation of scenario ``index`` of a pool."""
    spec = SPECS[workload]
    users = spec.smoke_users if smoke else spec.users
    perturbed = False
    if workload == "cli-desk":
        # Twelve items cover every (kind, K) pair with K in {2, 3, 4}, plus
        # one perturbed table per K; the first two reach every command.
        kind, perturbed = (("tabulated", True), ("gaussian", False), ("dmc", False),
                           ("tabulated", False))[index % 4]
        users = 2 + index % 3
    elif workload == "gaussian-scale":
        kind = "gaussian"
    elif workload == "dmc-scale":
        kind = "dmc"
    else:
        kind, perturbed = "tabulated", index % 4 == 0
    return {
        "index": index,
        "kind": kind,
        "gen_kind": GEN_KINDS[kind],
        "K": users,
        "seed": scenario_seed(seed, index),
        "perturbed": perturbed,
        "file": f"s{index:03d}.json",
    }


def perturb_submodularity(channel: TabulatedRanks, receiver: int) -> TabulatedRanks:
    """Raise the full-set value of one receiver past its tightest bound.

    For the concave-of-modular tables ``fairsic.generate`` writes, the
    tightest submodularity inequality involving the full set is one of the
    pairs (full - i, full - k).  Raising the full-set value by that slack
    plus ``PERTURB_EXCESS`` breaks exactly that inequality by the excess and
    keeps normalization and monotonicity intact.
    """
    num_users = channel.num_users
    full = (1 << num_users) - 1
    table = dict(channel.tables[receiver - 1])
    slack = min(
        table[full ^ 1 << i] + table[full ^ 1 << k] - table[full] - table[full ^ 1 << i ^ 1 << k]
        for i in range(num_users)
        for k in range(i + 1, num_users)
    )
    table[full] += slack + PERTURB_EXCESS
    tables = list(channel.tables)
    tables[receiver - 1] = table
    return TabulatedRanks(num_users, tuple(tables))


def write_pool(workload: str, seed: int, smoke: bool, work_dir) -> list[dict]:
    """Generate the run's scenario files into ``work_dir``."""
    items = []
    for index in range(SPECS[workload].pool):
        item = pool_item(workload, index, seed, smoke)
        channel = generate_channel(item["gen_kind"], item["K"], item["seed"])
        if item["perturbed"]:
            channel = perturb_submodularity(channel, 1 + item["seed"] % item["K"])
        item["path"] = str(work_dir / item["file"])
        save_scenario(channel, item["path"])
        items.append(item)
    return items


def answer_digest(profile: list[list[int]], min_rate: float) -> str:
    """Short digest of a solve answer: decode sequences and exact min rate."""
    text = json.dumps(
        {"profile": profile, "min_rate": repr(float(min_rate))}, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report) -> str:
    return answer_digest([list(decode_sequence(o)) for o in report.profile.orders], report.min_rate)


# ---------------------------------------------------------------------------
# In-process operations.  ``api`` carries load_scenario, greedy_profile and
# validate_rank_axioms: the ``fairsic`` package itself or the traced wrappers.


def solve_op(api, item: dict):
    """load_scenario then greedy_profile on a fresh rank set, as the CLI does."""
    channel = api.load_scenario(item["path"])
    return channel, api.greedy_profile(RankFunctionSet.for_channel(channel))


def gate_op(api, item: dict, command: str):
    """Tabulated solve (axiom gate plus greedy) or validate; refusal is an outcome."""
    ranks = RankFunctionSet.for_channel(api.load_scenario(item["path"]))
    if command == "validate":
        return "validated", api.validate_rank_axioms(ranks, AXIOM_TOL)
    try:
        return "solved", api.greedy_profile(ranks)
    except NonRankInputError:
        return "refused", None


def gate_command(op_index: int, pool: int) -> str:
    """Alternate solve and validate so each scenario meets both over two cycles."""
    return ("solve", "validate")[(op_index + op_index // pool) % 2]


def _check_structure(report, num_users: int) -> str | None:
    if len(report.profile.orders) != num_users:
        return f"profile has {len(report.profile.orders)} orders, expected {num_users}"
    for j, order in enumerate(report.profile.orders, start=1):
        sequence = decode_sequence(order)
        if order.receiver != j or sequence[-1] != j:
            return f"order {j} does not end with its own user"
    if not all(math.isfinite(r) and r >= 0.0 for r in report.rates):
        return "rates must be finite and nonnegative"
    if report.min_rate != min(report.rates):
        return "min_rate is not the minimum of the rates"
    return None


def check_gaussian(channel, report) -> str | None:
    problem = _check_structure(report, channel.num_users)
    if problem:
        return problem
    for j in range(1, channel.num_users + 1):
        if report.profile.orders[j - 1] != gaussian_fast_order(channel, j):
            return f"receiver {j}: greedy order differs from gaussian_fast_order"
    formula = gaussian_rate_formula(channel)
    worst = max(abs(a - b) for a, b in zip(report.rates, formula))
    if worst > 1e-9:
        return f"rates differ from gaussian_rate_formula by {worst!r}"
    return None


def check_dmc(channel, report) -> str | None:
    return _check_structure(report, channel.num_users)


def check_gate(item: dict, outcome: str, result) -> str | None:
    if item["perturbed"]:
        if outcome == "solved":
            return "perturbed table was solved, expected a refusal"
        if outcome == "validated":
            worst = max(r.submodularity_violation for r in result.receivers)
            others = max(
                max(r.normalization_violation, r.monotonicity_violation)
                for r in result.receivers
            )
            if result.passed or worst <= AXIOM_TOL or others > AXIOM_TOL:
                return "perturbed table: expected only a submodularity violation"
        return None
    if outcome == "refused":
        return "submodular table was refused"
    if outcome == "validated":
        return None if result.passed else "submodular table failed validation"
    return _check_structure(result, item["K"])


# ---------------------------------------------------------------------------
# CLI operations: each is one ``python -m fairsic`` call and its check.


def cli_commands(item: dict, solve_json: str) -> list[tuple[str, list[str], int]]:
    """(name, argv, expected exit code) for one scenario, in run order."""
    scenario = ["--scenario", item["path"]]
    structured = ["--format", "structured"]
    if item["perturbed"]:
        return [
            ("solve", ["solve", *scenario], 1),
            ("validate", ["validate", *scenario, *structured], 1),
            ("certify", ["certify", *scenario, "--jobs", "1", *structured], 1),
        ]
    return [
        ("solve-human", ["solve", *scenario], 0),
        ("solve", ["solve", *scenario, *structured], 0),
        ("rates", ["rates", *scenario, "--profile", "@" + solve_json, *structured], 0),
        ("certify-1", ["certify", *scenario, "--jobs", "1", *structured], 0),
        ("certify-2", ["certify", *scenario, "--jobs", "2", *structured], 0),
        ("validate", ["validate", *scenario, *structured], 0),
        ("gen", ["gen", "--kind", item["gen_kind"], "--k", str(item["K"]),
                 "--seed", str(item["seed"])], 0),
    ]


def check_cli(item: dict, name: str, code: int, expected: int, out: str, err: str,
              state: dict) -> str | None:
    """Check one CLI result; ``state`` carries earlier results of the same scenario."""
    if code != expected:
        return f"{name}: exit code {code}, expected {expected}: {err.strip()[-200:]}"
    if item["perturbed"]:
        if name == "validate":
            receivers = json.loads(out)["receivers"]
            if not any(r["submodularity_violation"] > AXIOM_TOL for r in receivers) or any(
                max(r["normalization_violation"], r["monotonicity_violation"]) > AXIOM_TOL
                for r in receivers
            ):
                return "validate: perturbed table: expected only a submodularity violation"
        elif "rank axioms" not in err:
            return f"{name}: refusal does not name the rank axioms"
        return None
    if name == "solve-human":
        lines = [line for line in out.splitlines() if line.startswith("min rate: ")]
        if len(lines) != 1:
            return "solve-human: no min rate line"
        state["human_min_rate"] = lines[0][len("min rate: "):]
        return None
    doc = json.loads(out) if name != "gen" else None
    if name == "solve":
        if doc["command"] != "solve" or doc["K"] != item["K"]:
            return "solve: wrong command or K"
        if repr(doc["min_rate"]) != state.get("human_min_rate"):
            return "solve: structured and human min rate differ"
        state["solve"] = doc
        state["digest"] = answer_digest(doc["profile"], doc["min_rate"])
        return None
    if name == "rates":
        solve = state.get("solve")
        if solve is None:
            return "rates: no solve result to compare with"
        if json.dumps(doc["rates"]) != json.dumps(solve["rates"]) or doc["min_rate"] != solve["min_rate"]:
            return "rates: @solve.json does not reproduce the solve rates bit for bit"
        return None
    if name in ("certify-1", "certify-2"):
        if doc["passed"] is not True:
            return f"{name}: certification did not pass"
        if name == "certify-2" and out != state.get("certify-1"):
            return "certify: output differs between --jobs 1 and --jobs 2"
        state[name] = out
        return None
    if name == "validate":
        return None if doc["passed"] is True else "validate: submodular table failed"
    with open(item["path"]) as handle:
        if out != handle.read():
            return "gen: output differs from the library's scenario file"
    return None
