import json
import time

import numpy as np
import pytest

from fairsic import (
    DmcChannel,
    GaussianChannel,
    ScenarioParseError,
    TabulatedRanks,
    dump_scenario,
    generate_channel,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_doc,
)
from fairsic.cli import main

GAUSSIAN_DOC = {
    "kind": "gaussian",
    "K": 2,
    "gains": [[1.0, 2.0], [0.1, 1.0]],
    "powers": [1.0, 1.0],
    "noise_vars": [1.0, 1.0],
}


class TestGaussianParsing:
    def test_round_trip_is_exact(self):
        channel = parse_scenario(GAUSSIAN_DOC)
        assert isinstance(channel, GaussianChannel)
        assert scenario_doc(channel) == GAUSSIAN_DOC

    def test_unknown_field_rejected(self):
        doc = dict(GAUSSIAN_DOC, extra=1)
        with pytest.raises(ScenarioParseError, match="extra"):
            parse_scenario(doc)

    def test_missing_field_rejected(self):
        doc = {k: v for k, v in GAUSSIAN_DOC.items() if k != "powers"}
        with pytest.raises(ScenarioParseError, match="powers"):
            parse_scenario(doc)

    def test_wrong_gain_shape_names_field(self):
        doc = dict(GAUSSIAN_DOC, gains=[[1.0, 2.0]])
        with pytest.raises(ScenarioParseError, match="gains"):
            parse_scenario(doc)
        doc = dict(GAUSSIAN_DOC, gains=[[1.0], [0.1]])
        with pytest.raises(ScenarioParseError, match="gains"):
            parse_scenario(doc)

    def test_non_numeric_entry_rejected(self):
        doc = dict(GAUSSIAN_DOC, powers=[1.0, "x"])
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)

    def test_semantic_violation_is_a_parse_error(self):
        doc = dict(GAUSSIAN_DOC, noise_vars=[1.0, 0.0])
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)

    def test_bad_kind(self):
        with pytest.raises(ScenarioParseError, match="kind"):
            parse_scenario({"kind": "awgn"})


class TestDmcParsing:
    def test_round_trip(self, xor_dmc_channel):
        doc = scenario_doc(xor_dmc_channel)
        parsed = parse_scenario(doc)
        assert isinstance(parsed, DmcChannel)
        assert scenario_doc(parsed) == doc

    def test_row_count_checked(self, xor_dmc_channel):
        doc = scenario_doc(xor_dmc_channel)
        doc["transitions"][0] = doc["transitions"][0][:3]
        with pytest.raises(ScenarioParseError, match="transitions"):
            parse_scenario(doc)

    def test_alphabet_sizes_checked(self, xor_dmc_channel):
        doc = scenario_doc(xor_dmc_channel)
        doc["input_alphabet_sizes"] = [2]
        with pytest.raises(ScenarioParseError, match="input_alphabet_sizes"):
            parse_scenario(doc)


class TestTabulatedParsing:
    def test_round_trip(self):
        doc = {
            "kind": "tabulated",
            "K": 2,
            "tables": [
                [[[], 0.0], [[1], 0.5], [[2], 0.7], [[1, 2], 1.0]],
                [[[], 0.0], [[1], 0.1], [[2], 0.2], [[1, 2], 0.3]],
            ],
        }
        parsed = parse_scenario(doc)
        assert isinstance(parsed, TabulatedRanks)
        assert scenario_doc(parsed) == doc

    def test_incomplete_table_rejected(self):
        doc = {
            "kind": "tabulated",
            "K": 2,
            "tables": [
                [[[], 0.0], [[1], 0.5]],
                [[[], 0.0], [[1], 0.1], [[2], 0.2], [[1, 2], 0.3]],
            ],
        }
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)

    def test_unsorted_subset_rejected(self):
        doc = {
            "kind": "tabulated",
            "K": 2,
            "tables": [
                [[[], 0.0], [[1], 0.5], [[2], 0.7], [[2, 1], 1.0]],
                [[[], 0.0], [[1], 0.1], [[2], 0.2], [[1, 2], 0.3]],
            ],
        }
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)


BOOLEAN_INTEGER_DOCS = {
    "K": {"kind": "gaussian", "K": True, "gains": [[1.0]], "powers": [1.0], "noise_vars": [1.0]},
    "input_alphabet_sizes": {
        "kind": "dmc",
        "K": 1,
        "input_alphabet_sizes": [True],
        "output_alphabet_sizes": [2],
        "input_pmfs": [[1.0]],
        "transitions": [[[0.5, 0.5]]],
    },
    "tabulated user": {"kind": "tabulated", "K": 1, "tables": [[[[], 0.0], [[True], 1.0]]]},
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_INTEGER_DOCS))
def test_boolean_in_integer_field_rejected(field):
    with pytest.raises(ScenarioParseError):
        parse_scenario(BOOLEAN_INTEGER_DOCS[field])
    # The same document with 1 in place of true parses.
    fixed = json.loads(json.dumps(BOOLEAN_INTEGER_DOCS[field]).replace("true", "1"))
    parse_scenario(fixed)


DMC_DOC = {
    "kind": "dmc",
    "K": 2,
    "input_alphabet_sizes": [2, 2],
    "output_alphabet_sizes": [2, 2],
    "input_pmfs": [[0.5, 0.5], [0.5, 0.5]],
    "transitions": [
        [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    ],
}
TABULATED_DOC = {
    "kind": "tabulated",
    "K": 2,
    "tables": [
        [[[], 0.0], [[1], 0.5], [[2], 0.7], [[1, 2], 1.0]],
        [[[], 0.0], [[1], 0.1], [[2], 0.2], [[1, 2], 0.3]],
    ],
}
TOO_BIG = 10**400  # a JSON integer no float can hold
HALF_ROWS = [[0.5, 0.5]] * 4


def _receiver_1_table(entries):
    return dict(TABULATED_DOC, tables=[entries, TABULATED_DOC["tables"][1]])


# name -> (document, the field or fault its error message must name)
MALFORMED_DOCS = {
    "ragged gains": (dict(GAUSSIAN_DOC, gains=[[1.0, 2.0], [0.1]]), "gains"),
    "true in transitions": (
        dict(DMC_DOC, transitions=[[[True, 0.0]] + HALF_ROWS[1:], HALF_ROWS]),
        "transitions",
    ),
    "NaN tabulated value": (
        _receiver_1_table([[[], 0.0], [[1], 0.5], [[2], 0.7], [[1, 2], float("nan")]]),
        "tables",
    ),
    "output sizes disagree with tables": (
        dict(DMC_DOC, output_alphabet_sizes=[2, 3]),
        "output_alphabet_sizes",
    ),
    "duplicate subset": (
        _receiver_1_table(TABULATED_DOC["tables"][0] + [[[1], 0.6]]),
        "tables",
    ),
    "huge integer power": (dict(GAUSSIAN_DOC, powers=[1.0, TOO_BIG]), "powers"),
    "overflowing received-power sum": (
        dict(GAUSSIAN_DOC, gains=[[1e308, 1e308], [1.0, 1.0]]),
        "overflow at receiver 1",
    ),
    "infinite received power": (
        dict(GAUSSIAN_DOC, gains=[[1e308, 1.0], [1.0, 1.0]], powers=[10.0, 1.0]),
        "overflow at receiver 1",
    ),
    "received-power sum overflowing over the noise": (
        dict(GAUSSIAN_DOC, powers=[1e300, 1e300], noise_vars=[1.0, 1e-300]),
        "overflow at receiver 2",
    ),
    # The transitions are right for the header; the first pmf is too long.
    "input pmf longer than its header": (
        dict(DMC_DOC, input_pmfs=[[0.25, 0.25, 0.5], [0.5, 0.5]]),
        "input pmfs",
    ),
    "huge integer transition": (
        dict(DMC_DOC, transitions=[[[TOO_BIG, 0.0]] + HALF_ROWS[1:], HALF_ROWS]),
        "transitions",
    ),
    "huge integer tabulated value": (
        _receiver_1_table([[[], 0.0], [[1], 0.5], [[2], 0.7], [[1, 2], TOO_BIG]]),
        "tables",
    ),
    "string tabulated value": (
        _receiver_1_table([[[], 0.0], [[1], "0.5"], [[2], 0.7], [[1, 2], 1.0]]),
        "tables",
    ),
    "true tabulated value": (
        _receiver_1_table([[[], 0.0], [[1], 0.5], [[2], True], [[1, 2], 1.0]]),
        "tables",
    ),
    "one-column gains": (dict(GAUSSIAN_DOC, gains=[[1.0], [0.1]]), "gains must be 2x2"),
    "true power": (dict(GAUSSIAN_DOC, powers=[True, 1.0]), "powers"),
    "nested power": (dict(GAUSSIAN_DOC, powers=[[1.0], 1.0]), "powers"),
    "string pmf entry": (dict(DMC_DOC, input_pmfs=[[0.5, "0.5"], [0.5, 0.5]]), "input_pmfs"),
    "number for a transition row": (
        dict(DMC_DOC, transitions=[[0.5, 0.5, 0.5, 0.5], HALF_ROWS]),
        "transitions",
    ),
    "ragged transitions": (
        dict(DMC_DOC, transitions=[HALF_ROWS[:3] + [[1.0]], HALF_ROWS]),
        "transitions",
    ),
    "list for a document": ([], "must be a JSON object"),
    "tabulated entry without a subset list": (
        _receiver_1_table([[[], 0.0], [1, 0.5], [[2], 0.7], [[1, 2], 1.0]]),
        "entries must be",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_malformed_document_names_field(name, tmp_path, capsys):
    doc, field = MALFORMED_DOCS[name]
    with pytest.raises(ScenarioParseError, match=field):
        parse_scenario(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN is written as JSON NaN
    assert main(["solve", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err
    assert "Traceback" not in captured.err


# Messages of the subset-list refusals, as recorded before the parse went
# through an index of sorted subsets; "[1, 1]" standing in for [1] parses.
SUBSET_LIST_REFUSALS = {
    "unsorted": (
        [[[], 0.0], [[1], 0.5], [[2], 0.7], [[2, 1], 1.0]],
        "field 'tables' receiver 1: subsets must be sorted integer lists, got [2, 1]",
    ),
    "true as a user": (
        [[[], 0.0], [[True], 0.5], [[2], 0.7], [[1, 2], 1.0]],
        "field 'tables' receiver 1: subsets must be sorted integer lists, got [True]",
    ),
    "1.0 as a user": (
        [[[], 0.0], [[1.0], 0.5], [[2], 0.7], [[1, 2], 1.0]],
        "field 'tables' receiver 1: subsets must be sorted integer lists, got [1.0]",
    ),
    "out-of-range user": (
        [[[], 0.0], [[1], 0.5], [[3], 0.7], [[1, 2], 1.0]],
        "invalid tabulated scenario: user 3 out of range 1..2",
    ),
    "duplicate subset": (
        TABULATED_DOC["tables"][0] + [[[1], 0.6]],
        "invalid tabulated scenario: tables of receiver 1 list subset [1] twice",
    ),
    "short table": (
        [[[], 0.0], [[1], 0.5]],
        "invalid tabulated scenario: receiver 1 table must cover all 4 subsets; "
        "missing masks [2, 3]",
    ),
}


def _assert_refused(doc, message, tmp_path, capsys):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(doc)
    assert str(excinfo.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, receiver",
    [pytest.param(name, 1, id=name) for name in sorted(SUBSET_LIST_REFUSALS)]
    + [
        pytest.param(name, 2, id=f"{name} at receiver 2")
        for name in sorted(SUBSET_LIST_REFUSALS)
    ],
)
def test_subset_list_refusal_messages(name, receiver, tmp_path, capsys):
    entries, message = SUBSET_LIST_REFUSALS[name]
    if receiver == 1:
        doc = _receiver_1_table(entries)
    else:  # receiver 1 clean: it takes the indexed path, receiver 2 does not
        doc = dict(TABULATED_DOC, tables=[TABULATED_DOC["tables"][0], entries])
        message = message.replace("receiver 1", "receiver 2")
    _assert_refused(doc, message, tmp_path, capsys)


# Messages of the number refusals, typed by the channel constructors, by
# their MALFORMED_DOCS name.
NUMBER_REFUSALS = {
    "true power": "invalid gaussian scenario: an entry of powers must be a real number, got True",
    "nested power": (
        "invalid gaussian scenario: an entry of powers must be a real number, got [1.0]"
    ),
    "one-column gains": "invalid gaussian scenario: gains must be 2x2, got (2, 1)",
    "string pmf entry": (
        "invalid dmc scenario: an entry of input_pmfs of user 1 must be a real number, "
        "got '0.5'"
    ),
    "number for a transition row": (
        "invalid dmc scenario: row 0 of transitions of receiver 1 must be a list of "
        "numbers, got 0.5"
    ),
    "ragged transitions": (
        "invalid dmc scenario: transitions of receiver 1 rows must all have the same length"
    ),
}


@pytest.mark.parametrize("name", sorted(NUMBER_REFUSALS))
def test_number_refusal_messages(name, tmp_path, capsys):
    _assert_refused(MALFORMED_DOCS[name][0], NUMBER_REFUSALS[name], tmp_path, capsys)


def test_first_faulty_list_in_file_order_is_reported(tmp_path, capsys):
    # An out-of-range user, then an unsorted list in the same table and a
    # bool user at receiver 2: the out-of-range user comes first in the file.
    doc = dict(
        TABULATED_DOC,
        tables=[
            [[[], 0.0], [[3], 0.5], [[2], 0.7], [[2, 1], 1.0]],
            [[[], 0.0], [[True], 0.1], [[2], 0.2], [[1, 2], 0.3]],
        ],
    )
    _assert_refused(doc, "invalid tabulated scenario: user 3 out of range 1..2", tmp_path, capsys)


def test_repeated_user_stands_for_the_user_once():
    doc = _receiver_1_table([[[], 0.0], [[1, 1], 0.5], [[2], 0.7], [[1, 2], 1.0]])
    assert scenario_doc(parse_scenario(doc)) == TABULATED_DOC


def test_short_table_with_many_users_refused_at_once(tmp_path, capsys):
    # 2^40 subsets per receiver: refusing must not enumerate them.
    num_users = 40
    doc = {"kind": "tabulated", "K": num_users, "tables": [[[[], 0.0]]] * num_users}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["validate", "--scenario", str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: invalid tabulated scenario: receiver 1 table must cover all {1 << 40} "
        "subsets; missing masks [1, 2, 3, 4]...\n"
    )
    assert elapsed < 1.0


def test_scenario_doc_refuses_other_types():
    with pytest.raises(TypeError, match="unsupported channel type"):
        scenario_doc(object())


class TestFiles:
    def test_save_load_round_trip(self, tmp_path, two_user_channel):
        path = tmp_path / "scenario.json"
        save_scenario(two_user_channel, path)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.gains, two_user_channel.gains)
        assert dump_scenario(loaded) == dump_scenario(two_user_channel)

    @pytest.mark.parametrize("kind, k", [("gaussian", 4), ("dmc", 4), ("tabulated-submodular", 3)])
    def test_streamed_writers_match_dump_bytes(self, tmp_path, capsys, kind, k):
        # save_scenario and gen stream their text; dump_scenario builds it whole.
        text = dump_scenario(generate_channel(kind, k, 3))
        path = tmp_path / "scenario.json"
        save_scenario(generate_channel(kind, k, 3), path)
        assert path.read_bytes() == text.encode()
        assert main(["gen", "--kind", kind, "--k", str(k), "--seed", "3"]) == 0
        assert capsys.readouterr().out == text
        assert main(["gen", "--kind", kind, "--k", str(k), "--seed", "3", "--out", str(path)]) == 0
        assert path.read_bytes() == text.encode()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_shipped_scenarios_parse(self):
        from pathlib import Path

        scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
        names = sorted(scenario_dir.glob("*.json"))
        assert names, "shipped scenarios are missing"
        for name in names:
            channel = load_scenario(name)
            assert json.loads(dump_scenario(channel)) == json.loads(name.read_text())
