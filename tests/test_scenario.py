import json

import numpy as np
import pytest

from fairsic import (
    DmcChannel,
    GaussianChannel,
    ScenarioParseError,
    TabulatedRanks,
    dump_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_doc,
)

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


class TestFiles:
    def test_save_load_round_trip(self, tmp_path, two_user_channel):
        path = tmp_path / "scenario.json"
        save_scenario(two_user_channel, path)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.gains, two_user_channel.gains)
        assert dump_scenario(loaded) == dump_scenario(two_user_channel)

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
