"""Scenario files: one channel per JSON document.

The field names below are frozen; the parser rejects documents with
unknown or missing fields so that silently ignored typos cannot change a
result.  Serialization uses plain ``json`` with repr-exact floats, so a
written scenario parses back to bit-identical numbers.
"""

from __future__ import annotations

import json
from itertools import chain, count
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, TextIO

from .channels import (
    Channel,
    DmcChannel,
    GaussianChannel,
    TabulatedRanks,
    check_users,
    mask_users,
    subsets_in_mask_order,
)
from .errors import FairsicError, ScenarioParseError, ValidationError, brief


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


def _parse_gaussian(doc: Mapping[str, Any]) -> GaussianChannel:
    return GaussianChannel(doc["gains"], doc["powers"], doc["noise_vars"])


def _parse_dmc(doc: Mapping[str, Any]) -> DmcChannel:
    channel = DmcChannel(doc["input_pmfs"], doc["transitions"])
    # The header sizes are redundant with the tables; they must agree.
    for name in ("input_alphabet_sizes", "output_alphabet_sizes"):
        actual = list(getattr(channel, name))
        if not all(type(size) is int for size in doc[name]) or doc[name] != actual:
            raise ScenarioParseError(
                f"field '{name}' must be {actual} to match input_pmfs and transitions"
            )
    return channel


def _indexed_table(entries: list, index: dict[tuple[int, ...], int]) -> dict | None:
    """Mask -> value when every user list is a key of ``index``, none twice.

    Such a list is sorted, in range and repeats no user.  The int check
    comes first because true and 1.0 hash like 1.
    """
    users = list(map(itemgetter(0), entries))
    if not set(map(type, chain.from_iterable(users))) <= {int}:
        return None
    table = dict(zip(map(index.get, map(tuple, users)), map(itemgetter(1), entries)))
    return table if None not in table and len(table) == len(entries) else None


def _listed_table(num_users: int, j: int, entries: list) -> dict:
    """Mask -> value, each user list checked on its own: int users, sorted,
    in range and not listed twice; a repeated user counts once."""
    table = {}
    for users, value in entries:
        if not all(type(u) is int for u in users) or users != sorted(users):
            raise ScenarioParseError(
                f"field 'tables' receiver {j}: subsets must be sorted "
                f"integer lists, got {brief(users)}"
            )
        mask = check_users(num_users, users)
        if mask in table:
            raise ValidationError(
                f"tables of receiver {j} list subset {sorted(mask_users(mask))} twice"
            )
        table[mask] = value
    return table


def _parse_tabulated(doc: Mapping[str, Any]) -> TabulatedRanks:
    num_users = doc["K"]
    index = None
    tables = []
    for j, entries in enumerate(doc["tables"], start=1):
        if not isinstance(entries, list) or not all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)
            for entry in entries
        ):
            raise ScenarioParseError(
                f"field 'tables' receiver {j}: entries must be "
                f"[[sorted user indices], value] pairs"
            )
        table = None
        # Fewer than 2^K entries cannot be complete: no index, which keeps
        # its size bounded by the file.
        if len(entries) >= 1 << num_users:
            if index is None:
                index = dict(zip(subsets_in_mask_order(num_users), count()))
            table = _indexed_table(entries, index)
        tables.append(_listed_table(num_users, j, entries) if table is None else table)
    # The values go in as JSON gave them: the constructor types and checks each.
    return TabulatedRanks(num_users, tuple(tables))


# kind -> (parser, the per-user fields that sit beside "kind" and "K")
_KINDS = {
    "gaussian": (_parse_gaussian, ("gains", "powers", "noise_vars")),
    "dmc": (
        _parse_dmc,
        ("input_alphabet_sizes", "output_alphabet_sizes", "input_pmfs", "transitions"),
    ),
    "tabulated": (_parse_tabulated, ("tables",)),
}


def parse_scenario(doc: Mapping[str, Any]) -> Channel:
    """Type a scenario document and build its channel.

    The channel constructors own every number type, shape and value check;
    their errors come back as ``ScenarioParseError``.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioParseError("scenario document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ScenarioParseError(
            f"field 'kind' must be one of gaussian, dmc, tabulated; got {brief(kind)}"
        )
    parse, per_user = _KINDS[kind]
    _check_fields(doc, {"kind", "K", *per_user})
    num_users = _user_count(doc)
    for name in per_user:
        if not isinstance(doc[name], list) or len(doc[name]) != num_users:
            raise ScenarioParseError(
                f"field '{name}' must be a list of K = {num_users} entries, one per user"
            )
    try:
        return parse(doc)
    except ScenarioParseError:
        raise
    except (FairsicError, IndexError) as exc:
        raise ScenarioParseError(f"invalid {kind} scenario: {exc}") from exc


def load_scenario(path: str | Path) -> Channel:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # a document can nest past the parser's stack
        raise ScenarioParseError(f"scenario {path} nests too deeply to parse: {exc}") from exc
    return parse_scenario(doc)


def _plain(value: Any) -> Any:
    """A channel field as JSON values: tuples and arrays become lists."""
    if isinstance(value, tuple):
        return list(map(_plain, value))
    return value.tolist() if hasattr(value, "tolist") else value


def scenario_doc(channel: Channel) -> dict[str, Any]:
    """Serializable document for a channel, with frozen field order: the
    fields ``_KINDS`` lists for its kind."""
    if not isinstance(channel, Channel):
        raise TypeError(f"unsupported channel type: {type(channel)!r}")
    doc = {"kind": channel.kind, "K": channel.num_users}
    if isinstance(channel, TabulatedRanks):
        masks = range(1 << channel.num_users)
        subsets = subsets_in_mask_order(channel.num_users)
        doc["tables"] = [
            [[list(users), value] for users, value in zip(subsets, channel._values(j, masks))]
            for j in range(1, channel.num_users + 1)
        ]
        return doc
    return {**doc, **{name: _plain(getattr(channel, name)) for name in _KINDS[channel.kind][1]}}


def dump_scenario(channel: Channel) -> str:
    return json.dumps(scenario_doc(channel), indent=2) + "\n"


def write_scenario(channel: Channel, stream: TextIO) -> None:
    """Stream ``dump_scenario``'s text to ``stream`` without holding it whole."""
    json.dump(scenario_doc(channel), stream, indent=2)
    stream.write("\n")


def save_scenario(channel: Channel, path: str | Path) -> None:
    try:
        with open(path, "w") as stream:
            write_scenario(channel, stream)
    except OSError as exc:
        raise ValidationError(f"cannot write scenario to {path}: {exc}") from exc
