import json
from pathlib import Path

import pytest

from fairsic.cli import main

from conftest import LOG2_4_3, LOG2_21_11

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TWO_USER = str(SCENARIOS / "two_user_gaussian.json")
SINGLE = str(SCENARIOS / "single_user.json")
TABULATED = str(SCENARIOS / "tabulated_two_user.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bad_table(tmp_path, values):
    subsets = [[], [1], [2], [1, 2]]
    doc = {
        "kind": "tabulated",
        "K": 2,
        "tables": [
            [[s, v] for s, v in zip(subsets, values)],
            [[s, v] for s, v in zip(subsets, [0.0, 1.0, 1.0, 2.0])],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", TWO_USER)
        assert code == 0
        assert "1: [] 2, 1" in out
        assert "2: [1] 2" in out
        assert "bottleneck users: {2}" in out

    def test_structured_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", TWO_USER, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["profile"] == [[2, 1], [2]]
        assert doc["decoded_sets"] == [[1, 2], [2]]
        assert doc["decoder_sets"] == [[1], [1, 2]]
        assert doc["min_rate"] == pytest.approx(LOG2_21_11, abs=1e-12)
        assert doc["bottleneck_users"] == [2]

    def test_single_user(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", SINGLE, "--format", "structured")
        assert code == 0
        assert json.loads(out)["min_rate"] == 1.0

    def test_malformed_scenario_exits_2_naming_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "gaussian",
                    "K": 2,
                    "gains": [[1.0, 2.0]],
                    "powers": [1.0, 1.0],
                    "noise_vars": [1.0, 1.0],
                }
            )
        )
        code, _, err = run(capsys, "solve", "--scenario", str(path))
        assert code == 2
        assert "gains" in err

    def test_non_rank_tabulated_refused_without_force(self, capsys, tmp_path):
        path = write_bad_table(tmp_path, [0.0, 1.0, 1.0, 3.0])
        code, _, err = run(capsys, "solve", "--scenario", path)
        assert code == 1
        assert "rank" in err
        code, out, _ = run(capsys, "solve", "--scenario", path, "--force")
        assert code == 0

    def test_dmc_zero_mass_input_symbol(self, capsys, tmp_path):
        # User 1 never sends its second symbol; those tuples carry no mass.
        path = tmp_path / "zero_mass.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "dmc",
                    "K": 2,
                    "input_alphabet_sizes": [2, 2],
                    "output_alphabet_sizes": [2, 2],
                    "input_pmfs": [[1.0, 0.0], [0.5, 0.5]],
                    "transitions": [
                        [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                        [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.0, 1.0]],
                    ],
                }
            )
        )
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert code == 0
        assert out
        assert err == ""

    def test_deterministic_output(self, capsys):
        outputs = {
            run(capsys, "solve", "--scenario", TWO_USER, "--format", "structured")[1]
            for _ in range(3)
        }
        assert len(outputs) == 1


class TestRates:
    def test_inline_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "rates",
            "--scenario",
            TWO_USER,
            "--profile",
            "1; 2",
            "--format",
            "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rates"][0] == pytest.approx(LOG2_4_3, abs=1e-12)

    def test_round_trip_from_solve_output(self, capsys, tmp_path):
        _, solve_out, _ = run(
            capsys, "solve", "--scenario", TWO_USER, "--format", "structured"
        )
        solve_doc = json.loads(solve_out)
        path = tmp_path / "solve.json"
        path.write_text(solve_out)
        code, rates_out, _ = run(
            capsys,
            "rates",
            "--scenario",
            TWO_USER,
            "--profile",
            f"@{path}",
            "--format",
            "structured",
        )
        assert code == 0
        rates_doc = json.loads(rates_out)
        # Bit-identical: serialized floats match exactly.
        assert rates_doc["rates"] == solve_doc["rates"]
        assert rates_doc["min_rate"] == solve_doc["min_rate"]

    def test_profile_must_end_with_own_user(self, capsys):
        code, _, err = run(capsys, "rates", "--scenario", TWO_USER, "--profile", "2; 2")
        assert code == 1
        assert "end with user" in err

    def test_profile_receiver_count_checked(self, capsys):
        code, _, _ = run(capsys, "rates", "--scenario", TWO_USER, "--profile", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "profile", [[[1], [2.7]], [[1], [2, "x"]], [[1], [[2]]], [[1], [True]]]
    )
    def test_profile_file_entries_must_be_integers(self, capsys, tmp_path, profile):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile}))
        code, out, err = run(
            capsys, "rates", "--scenario", TWO_USER, "--profile", f"@{path}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestCertify:
    def test_pass_on_fixture(self, capsys):
        code, out, _ = run(capsys, "certify", "--scenario", TWO_USER)
        assert code == 0
        assert "certification: PASS" in out

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--scenario", TWO_USER, "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["num_configs"] == 4
        assert doc["gap"] == 0.0
        assert doc["counterexample"] is None

    def test_jobs_do_not_change_output(self, capsys):
        outputs = set()
        for jobs in ("1", "2", "5"):
            _, out, _ = run(
                capsys,
                "certify",
                "--scenario",
                TWO_USER,
                "--format",
                "structured",
                "--jobs",
                jobs,
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_budget_guard_exits_3(self, capsys, tmp_path):
        doc = {
            "kind": "gaussian",
            "K": 5,
            "gains": [[1.0] * 5 for _ in range(5)],
            "powers": [1.0] * 5,
            "noise_vars": [1.0] * 5,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "certify", "--scenario", str(path))
        assert code == 3

    def test_tabulated_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--scenario", TABULATED)
        assert code == 0


class TestValidate:
    def test_gaussian_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--scenario", TWO_USER)
        assert code == 0
        assert "axioms: PASS" in out

    def test_violating_table_fails(self, capsys, tmp_path):
        path = write_bad_table(tmp_path, [0.0, 1.0, 1.0, 3.0])
        code, out, _ = run(capsys, "validate", "--scenario", path)
        assert code == 1
        assert "axioms: FAIL" in out

    def test_bad_normalization_fails(self, capsys, tmp_path):
        path = write_bad_table(tmp_path, [0.5, 1.0, 1.0, 1.5])
        code, out, _ = run(capsys, "validate", "--scenario", path)
        assert code == 1


class TestGen:
    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "gen", "--kind", "gaussian", "--k", "3",
                "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--kind", "gaussian", "--seed", "7", "--out", str(a))
        run(capsys, "gen", "--kind", "gaussian", "--seed", "8", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    def test_generated_scenarios_validate(self, capsys, tmp_path, kind):
        path = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "gen", "--kind", kind, "--k", "3", "--seed", "11",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "validate", "--scenario", str(path))
        assert code == 0
        assert "axioms: PASS" in out

    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    def test_user_count_below_one_refused(self, capsys, kind):
        code, out, err = run(capsys, "gen", "--kind", kind, "--k", "-1", "--seed", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "gaussian", "--seed", "3")
        assert code == 0
        assert json.loads(out)["kind"] == "gaussian"

    def test_pinned_power_and_noise(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "gaussian", "--k", "2", "--seed", "3",
            "--power", "1.0", "--noise", "2.0",
        )
        doc = json.loads(out)
        assert doc["powers"] == [1.0, 1.0]
        assert doc["noise_vars"] == [2.0, 2.0]
