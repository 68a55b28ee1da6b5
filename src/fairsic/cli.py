"""Command-line front end.

Commands: solve, rates, certify, validate, gen.  Exit codes: 0 success or
pass, 1 validation failure (including refusal of non-rank inputs, and of a
command that needs numpy where it is not installed), 2 scenario parse
error, 3 enumeration budget exceeded, 4 certification failure.  Output is
deterministic: identical inputs produce byte-identical output; certify's
--jobs is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

from .axioms import validate_rank_axioms
from .channels import DEFAULT_AXIOM_TOL, Channel, RankFunctionSet
from .errors import CapacityError, NonRankInputError, ScenarioParseError, ValidationError
from .generate import GENERATOR_KINDS, generate_channel
from .greedy import greedy_profile
from .oracle import EnumerationBudget, certify
from .ordering import DecodingProfile, decode_sequence, render_order
from .rates import min_rate, rate_vector
from .scenario import load_scenario, save_scenario, write_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATION = 4

# The exit code of each error a command reports on stderr; any other
# exception propagates.
ERROR_EXITS = {
    ScenarioParseError: EXIT_PARSE,
    CapacityError: EXIT_BUDGET,
    NonRankInputError: EXIT_VALIDATION,
    ValidationError: EXIT_VALIDATION,
}


def _fmt_set(users) -> str:
    return "{" + ", ".join(str(u) for u in sorted(users)) + "}"


def _profile_sequences(profile: DecodingProfile) -> list[list[int]]:
    return [list(decode_sequence(order)) for order in profile.orders]


def _order_lines(title: str, profile: DecodingProfile) -> list[str]:
    return [title, *(f"  {render_order(order)}" for order in profile.orders)]


def _rate_block(rates, value: float, bottleneck) -> tuple[dict, list[str]]:
    """The fields and human lines that end both ``solve`` and ``rates``."""
    fields = {"rates": list(rates), "min_rate": value, "bottleneck_users": sorted(bottleneck)}
    lines = [
        "rates (bits/use):",
        *(f"  user {k}: {rate!r}" for k, rate in enumerate(rates, start=1)),
        f"min rate: {value!r}",
        f"bottleneck users: {_fmt_set(bottleneck)}",
    ]
    return fields, lines


def _tolerance(text: str) -> float:
    """``--tol`` type: a finite number, 0 or more; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _parse_profile_arg(text: str, num_users: int) -> DecodingProfile:
    """Profile argument: inline ``"2 1; 2"`` or ``@file`` with a JSON doc."""
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            doc = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read profile from {path}: {exc}") from exc
        sequences = doc.get("profile") if isinstance(doc, dict) else doc
        if not isinstance(sequences, list) or not all(isinstance(seq, list) for seq in sequences):
            raise ValidationError(
                f"profile document {path} must hold a 'profile' list of decode "
                "sequences, each a list of integer users"
            )
    else:
        sequences = []
        for group in text.split(";"):
            try:
                sequences.append([int(tok) for tok in group.replace(",", " ").split()])
            except ValueError as exc:
                raise ValidationError(f"cannot parse profile group {group!r}") from exc
    if len(sequences) != num_users:
        raise ValidationError(
            f"profile lists {len(sequences)} receivers, scenario has {num_users}"
        )
    return DecodingProfile.from_decode_sequences(sequences)


# Each scenario command takes the parsed arguments and the scenario's rank
# set, and returns its exit code, its structured fields (after the common
# header) and its human lines (after the ``backend:`` line).
Report = tuple[int, dict, list[str]]


def cmd_solve(args: argparse.Namespace, ranks: RankFunctionSet) -> Report:
    report = greedy_profile(ranks, tol=args.tol, force=args.force)
    fields, rate_lines = _rate_block(report.rates, report.min_rate, report.bottleneck_users)
    return (
        EXIT_OK,
        {
            "profile": _profile_sequences(report.profile),
            "decoded_sets": [sorted(s) for s in report.decoded_sets],
            "decoder_sets": [sorted(s) for s in report.decoder_sets],
            **fields,
        },
        [
            f"users: {len(report.rates)}",
            *_order_lines("decoding orders:", report.profile),
            "decoded users per receiver:",
            *(
                f"  receiver {j} decodes {_fmt_set(users)}"
                for j, users in enumerate(report.decoded_sets, start=1)
            ),
            "decoding receivers per user:",
            *(
                f"  user {k} decoded at {_fmt_set(receivers)}"
                for k, receivers in enumerate(report.decoder_sets, start=1)
            ),
            *rate_lines,
        ],
    )


def cmd_rates(args: argparse.Namespace, ranks: RankFunctionSet) -> Report:
    profile = _parse_profile_arg(args.profile, ranks.num_users)
    rates = rate_vector(ranks, profile, clamp_tol=args.tol)
    fields, rate_lines = _rate_block(rates, *min_rate(rates))
    return (
        EXIT_OK,
        {"profile": _profile_sequences(profile), **fields},
        [*_order_lines("profile:", profile), *rate_lines],
    )


def cmd_certify(args: argparse.Namespace, ranks: RankFunctionSet) -> Report:
    report = certify(ranks, EnumerationBudget(), tol=args.tol, force=args.force)
    example = report.counterexample
    fields = {
        "greedy_min_rate": report.greedy_min_rate,
        "oracle_min_rate": report.oracle_min_rate,
        "gap": report.gap,
        "num_configs": report.num_configs,
        "passed": report.passed,
        "greedy_profile": _profile_sequences(report.greedy.profile),
        "oracle_profile": _profile_sequences(report.oracle_best_profile),
        "counterexample": None if example is None else _profile_sequences(example),
    }
    lines = [
        f"users: {ranks.num_users}",
        f"profiles enumerated: {report.num_configs}",
        f"greedy min rate: {report.greedy_min_rate!r}",
        f"oracle min rate: {report.oracle_min_rate!r}",
        f"gap: {report.gap!r}",
        *([] if example is None else _order_lines("counterexample profile:", example)),
        f"certification: {'PASS' if report.passed else 'FAIL'}",
    ]
    return (EXIT_OK if report.passed else EXIT_CERTIFICATION), fields, lines


def cmd_validate(args: argparse.Namespace, ranks: RankFunctionSet) -> Report:
    report = validate_rank_axioms(ranks, args.tol)
    fields = {"tol": report.tol, "passed": report.passed, "receivers": []}
    lines = [f"tolerance: {report.tol!r}"]
    for r in report.receivers:
        passed = r.passed(report.tol)
        fields["receivers"].append(
            {
                "receiver": r.receiver,
                "normalization_violation": r.normalization_violation,
                "monotonicity_violation": r.monotonicity_violation,
                "submodularity_violation": r.submodularity_violation,
                "passed": passed,
            }
        )
        lines.append(
            f"  receiver {r.receiver}: normalization {r.normalization_violation!r}, "
            f"monotonicity {r.monotonicity_violation!r}, "
            f"submodularity {r.submodularity_violation!r} -> {'pass' if passed else 'FAIL'}"
        )
    lines.append(f"axioms: {'PASS' if report.passed else 'FAIL'}")
    return (EXIT_OK if report.passed else EXIT_VALIDATION), fields, lines


def run_report(args: argparse.Namespace) -> int:
    """Load the scenario, run one scenario command and print its report."""
    ranks = RankFunctionSet.for_channel(load_scenario(args.scenario))
    code, fields, lines = args.report(args, ranks)
    if args.fmt == "structured":
        header = {"command": args.command, "kind": ranks.kind, "K": ranks.num_users}
        print(json.dumps({**header, **fields}, indent=2))
    else:
        print("\n".join([f"backend: {ranks.kind}", *lines]))
    return code


def cmd_gen(args: argparse.Namespace) -> int:
    channel: Channel = generate_channel(
        args.kind, args.num_users, args.seed, power=args.power, noise=args.noise
    )
    if args.out is None:
        write_scenario(channel, sys.stdout)
    else:
        save_scenario(channel, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsic",
        description=(
            "Max-min fair successive-decoding orders for K-user interference "
            "channels"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, report: Callable[..., Report]) -> None:
        p.set_defaults(run=run_report, report=report)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument(
            "--format",
            choices=("human", "structured"),
            default="human",
            dest="fmt",
            help="output format (structured = JSON)",
        )
        p.add_argument(
            "--tol",
            type=_tolerance,
            default=DEFAULT_AXIOM_TOL,
            help="numerical tolerance for this command",
        )

    p = sub.add_parser("solve", help="compute the max-min optimal decoding orders")
    add_common(p, cmd_solve)
    p.add_argument(
        "--force",
        action="store_true",
        help="solve even if a tabulated backend fails the rank axioms",
    )

    p = sub.add_parser("rates", help="evaluate the rates of a supplied profile")
    add_common(p, cmd_rates)
    p.add_argument(
        "--profile",
        required=True,
        help=(
            "per-receiver decode sequences ending with the receiver's own "
            "user, e.g. '2 1; 2', or @file with a JSON 'profile' field"
        ),
    )

    p = sub.add_parser("certify", help="check the greedy result against brute force")
    add_common(p, cmd_certify)
    p.add_argument("--force", action="store_true", help="skip the rank-axiom gate")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; no effect"
    )

    p = sub.add_parser("validate", help="check the rank axioms by enumeration")
    add_common(p, cmd_validate)

    p = sub.add_parser("gen", help="generate a random scenario from a seed")
    p.add_argument("--kind", choices=GENERATOR_KINDS, default="gaussian")
    p.add_argument("--k", type=int, default=3, dest="num_users", help="user count")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--power", type=float, help="pin all transmit powers (gaussian)")
    p.add_argument("--noise", type=float, help="pin all noise variances (gaussian)")
    p.set_defaults(run=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS.items() if isinstance(exc, kind))
    except ModuleNotFoundError as exc:
        # numpy is imported where it computes: Gaussian commands run without it.
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} on this input needs numpy, which is not installed",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
