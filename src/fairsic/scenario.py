"""Scenario files: one channel per JSON document.

The field names below are frozen; the parser rejects documents with
unknown or missing fields so that silently ignored typos cannot change a
result.  Serialization uses plain ``json`` with repr-exact floats, so a
written scenario parses back to bit-identical numbers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .channels import Channel, DmcChannel, GaussianChannel, TabulatedRanks
from .errors import FairsicError, ScenarioParseError

_GAUSSIAN_FIELDS = {"kind", "K", "gains", "powers", "noise_vars"}
_DMC_FIELDS = {
    "kind",
    "K",
    "input_alphabet_sizes",
    "output_alphabet_sizes",
    "input_pmfs",
    "transitions",
}
_TABULATED_FIELDS = {"kind", "K", "tables"}


def _check_fields(doc: Mapping[str, Any], expected: set[str]) -> None:
    unknown = sorted(set(doc) - expected)
    if unknown:
        raise ScenarioParseError(f"unknown field(s): {', '.join(unknown)}")
    missing = sorted(expected - set(doc))
    if missing:
        raise ScenarioParseError(f"missing field(s): {', '.join(missing)}")


def _user_count(doc: Mapping[str, Any]) -> int:
    num_users = doc["K"]
    # ``type(...) is int``: JSON true/false load as bool, a subclass of int.
    if type(num_users) is not int or num_users < 1:
        raise ScenarioParseError("field 'K' must be a positive integer")
    return num_users


def _number_vector(value: Any, name: str, length: int) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ScenarioParseError(f"field '{name}' must be a list of {length} numbers")
    out = []
    for entry in value:
        if not isinstance(entry, (int, float)) or isinstance(entry, bool):
            raise ScenarioParseError(f"field '{name}' must contain numbers only")
        out.append(float(entry))
    return out


def _parse_gaussian(doc: Mapping[str, Any]) -> GaussianChannel:
    _check_fields(doc, _GAUSSIAN_FIELDS)
    num_users = _user_count(doc)
    gains = doc["gains"]
    if not isinstance(gains, list) or len(gains) != num_users:
        raise ScenarioParseError(
            f"field 'gains' must be a {num_users}x{num_users} matrix (row-major rows)"
        )
    rows = [_number_vector(row, "gains", num_users) for row in gains]
    powers = _number_vector(doc["powers"], "powers", num_users)
    noise = _number_vector(doc["noise_vars"], "noise_vars", num_users)
    try:
        return GaussianChannel(np.array(rows), np.array(powers), np.array(noise))
    except FairsicError as exc:
        raise ScenarioParseError(f"invalid gaussian scenario: {exc}") from exc


def _parse_dmc(doc: Mapping[str, Any]) -> DmcChannel:
    _check_fields(doc, _DMC_FIELDS)
    num_users = _user_count(doc)
    in_sizes = doc["input_alphabet_sizes"]
    out_sizes = doc["output_alphabet_sizes"]
    for name, sizes in (
        ("input_alphabet_sizes", in_sizes),
        ("output_alphabet_sizes", out_sizes),
    ):
        if (
            not isinstance(sizes, list)
            or len(sizes) != num_users
            or not all(type(s) is int and s >= 1 for s in sizes)
        ):
            raise ScenarioParseError(
                f"field '{name}' must list {num_users} integers >= 1"
            )
    pmf_rows = doc["input_pmfs"]
    if not isinstance(pmf_rows, list) or len(pmf_rows) != num_users:
        raise ScenarioParseError(f"field 'input_pmfs' must list {num_users} pmfs")
    pmfs = [
        np.array(_number_vector(row, "input_pmfs", in_sizes[k]))
        for k, row in enumerate(pmf_rows)
    ]
    joint = 1
    for size in in_sizes:
        joint *= size
    tables = doc["transitions"]
    if not isinstance(tables, list) or len(tables) != num_users:
        raise ScenarioParseError(
            f"field 'transitions' must hold one table per receiver ({num_users})"
        )
    parsed = []
    for j, table in enumerate(tables, start=1):
        if not isinstance(table, list) or len(table) != joint:
            raise ScenarioParseError(
                f"field 'transitions' receiver {j}: expected {joint} rows "
                f"(row-major over the joint input tuple)"
            )
        parsed.append(
            np.array(
                [_number_vector(row, "transitions", out_sizes[j - 1]) for row in table]
            )
        )
    try:
        return DmcChannel(tuple(pmfs), tuple(parsed))
    except FairsicError as exc:
        raise ScenarioParseError(f"invalid dmc scenario: {exc}") from exc


def _parse_tabulated(doc: Mapping[str, Any]) -> TabulatedRanks:
    _check_fields(doc, _TABULATED_FIELDS)
    num_users = _user_count(doc)
    tables = doc["tables"]
    if not isinstance(tables, list) or len(tables) != num_users:
        raise ScenarioParseError(
            f"field 'tables' must hold one subset table per receiver ({num_users})"
        )
    per_receiver = []
    for j, entries in enumerate(tables, start=1):
        if not isinstance(entries, list):
            raise ScenarioParseError(f"field 'tables' receiver {j} must be a list")
        pairs = []
        for entry in entries:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], list)
                or not isinstance(entry[1], (int, float))
                or isinstance(entry[1], bool)
            ):
                raise ScenarioParseError(
                    f"field 'tables' receiver {j}: entries must be "
                    f"[[sorted user indices], value] pairs"
                )
            users = entry[0]
            if not all(type(u) is int for u in users) or users != sorted(users):
                raise ScenarioParseError(
                    f"field 'tables' receiver {j}: subsets must be sorted "
                    f"integer lists, got {users}"
                )
            pairs.append((users, float(entry[1])))
        per_receiver.append(pairs)
    try:
        return TabulatedRanks.from_subsets(num_users, per_receiver)
    except (FairsicError, IndexError) as exc:
        raise ScenarioParseError(f"invalid tabulated scenario: {exc}") from exc


def parse_scenario(doc: Mapping[str, Any]) -> Channel:
    if not isinstance(doc, Mapping):
        raise ScenarioParseError("scenario document must be a JSON object")
    kind = doc.get("kind")
    if kind == "gaussian":
        return _parse_gaussian(doc)
    if kind == "dmc":
        return _parse_dmc(doc)
    if kind == "tabulated":
        return _parse_tabulated(doc)
    raise ScenarioParseError(
        f"field 'kind' must be one of gaussian, dmc, tabulated; got {kind!r}"
    )


def load_scenario(path: str | Path) -> Channel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def scenario_doc(channel: Channel) -> dict[str, Any]:
    """Serializable document for a channel, with frozen field order."""
    if isinstance(channel, GaussianChannel):
        return {
            "kind": "gaussian",
            "K": channel.num_users,
            "gains": [[float(g) for g in row] for row in channel.gains],
            "powers": [float(p) for p in channel.powers],
            "noise_vars": [float(v) for v in channel.noise_vars],
        }
    if isinstance(channel, DmcChannel):
        return {
            "kind": "dmc",
            "K": channel.num_users,
            "input_alphabet_sizes": list(channel.input_alphabet_sizes),
            "output_alphabet_sizes": list(channel.output_alphabet_sizes),
            "input_pmfs": [[float(p) for p in pmf] for pmf in channel.input_pmfs],
            "transitions": [
                [[float(p) for p in row] for row in table]
                for table in channel.transitions
            ],
        }
    if isinstance(channel, TabulatedRanks):
        tables = []
        for table in channel.tables:
            entries = []
            for mask in sorted(table):
                users = [k + 1 for k in range(channel.num_users) if mask >> k & 1]
                entries.append([users, float(table[mask])])
            tables.append(entries)
        return {"kind": "tabulated", "K": channel.num_users, "tables": tables}
    raise TypeError(f"unsupported channel type: {type(channel)!r}")


def dump_scenario(channel: Channel) -> str:
    return json.dumps(scenario_doc(channel), indent=2) + "\n"


def save_scenario(channel: Channel, path: str | Path) -> None:
    Path(path).write_text(dump_scenario(channel))
