import hashlib
import json
from pathlib import Path

import pytest

import fairsic.channels
import fairsic.generate
import fairsic.oracle
from fairsic import (
    DecodingProfile,
    TabulatedRanks,
    ValidationError,
    decoded_set,
    decoder_set,
    generate_channel,
    load_scenario,
    save_scenario,
)
from fairsic.channels import DEFAULT_AXIOM_TOL
from fairsic.cli import main
from fairsic.errors import brief
from fairsic.generate import MAX_GAUSSIAN_USERS

from conftest import LOG2_4_3, LOG2_21_11

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TWO_USER = str(SCENARIOS / "two_user_gaussian.json")
SINGLE = str(SCENARIOS / "single_user.json")
TABULATED = str(SCENARIOS / "tabulated_two_user.json")
XOR_DMC = str(SCENARIOS / "xor_dmc.json")


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

    @pytest.mark.parametrize(
        "kind, num_users", [("gaussian", 12), ("dmc", 5), ("tabulated-submodular", 6)]
    )
    def test_set_views_are_decoded_set_and_decoder_set(self, capsys, tmp_path, kind, num_users):
        path = tmp_path / "scenario.json"
        save_scenario(generate_channel(kind, num_users, 4), path)
        code, out, _ = run(capsys, "solve", "--scenario", str(path), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        profile = DecodingProfile.from_decode_sequences(doc["profile"])
        assert doc["decoded_sets"] == [sorted(decoded_set(order)) for order in profile.orders]
        assert doc["decoder_sets"] == [
            sorted(decoder_set(profile, user)) for user in range(1, num_users + 1)
        ]

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

    @pytest.mark.parametrize("command", ["solve", "rates", "certify", "validate"])
    def test_scenario_not_utf8_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        argv = [command, "--scenario", str(path)]
        if command == "rates":
            argv += ["--profile", "1; 2"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_non_rank_tabulated_refused_without_force(self, capsys, tmp_path):
        path = write_bad_table(tmp_path, [0.0, 1.0, 1.0, 3.0])
        code, _, err = run(capsys, "solve", "--scenario", path)
        assert code == 1
        assert "rank axioms" in err
        assert "--force" in err and "force=True" in err
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

    def test_dmc_underflowing_mass(self, capsys, tmp_path):
        # p(x) p(y|x) = 1e-200 * 1e-200 underflows to 0 at input (1, 0).
        skew, half = [1.0, 1e-200], [0.5, 0.5]
        path = tmp_path / "underflow.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "dmc",
                    "K": 2,
                    "input_alphabet_sizes": [2, 2],
                    "output_alphabet_sizes": [2, 2],
                    "input_pmfs": [skew, half],
                    "transitions": [[half, half, skew, half]] * 2,
                }
            )
        )
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert code == 0
        assert out
        assert err == ""

    @pytest.mark.parametrize(
        "pmf, rows, bad",
        [
            ([1e308, 1e308], [[1.0, 0.0], [0.0, 1.0]], "input pmf of user 1"),
            ([0.5, 0.5], [[1.0, 0.0], [1e308, 1e308]], "transition row 1 of receiver 1"),
        ],
    )
    def test_dmc_pmf_sum_overflow_exits_2(self, capsys, tmp_path, pmf, rows, bad):
        # Finite entries whose exact sum passes the float range.
        path = tmp_path / "overflow.json"
        doc = {
            "kind": "dmc",
            "K": 1,
            "input_alphabet_sizes": [2],
            "output_alphabet_sizes": [2],
            "input_pmfs": [pmf],
            "transitions": [rows],
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: invalid dmc scenario: {bad} sums to inf, expected 1 within 1e-12\n"
        )

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

    @pytest.mark.parametrize(
        "doc", [{"profile": [[1], 2]}, {"profile": "1; 2"}, {"orders": [[1], [2]]}, 3]
    )
    def test_profile_file_must_hold_lists(self, capsys, tmp_path, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "rates", "--scenario", TWO_USER, "--profile", f"@{path}"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: profile document {path} must hold a 'profile' list of decode "
            "sequences, each a list of integer users\n"
        )

    def test_profile_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(
            capsys, "rates", "--scenario", TWO_USER, "--profile", f"@{path}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read profile from {path}: ")
        assert "Traceback" not in err


    def test_profile_file_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("[" * 100_000)
        code, out, err = run(
            capsys, "rates", "--scenario", TWO_USER, "--profile", f"@{path}"
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read profile from {path}: ")
        assert err.count("\n") == 1


# Deep enough for an 800-character repr, shallow enough to parse under pytest's frames.
NESTED = "[" * 400 + "1" + "]" * 400


class TestRefusalsStayShort:
    """A refusal shows at most the first 80 characters of the offending value."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                '{"kind": "gaussian", "K": 2, "gains": [[%s, 1.0], [1.0, 1.0]], '
                '"powers": [1.0, 1.0], "noise_vars": [1.0, 1.0]}' % NESTED,
                "invalid gaussian scenario: an entry of row 0 of gains must be a real number, got ",
            ),
            (
                '{"kind": "tabulated", "K": 1, "tables": [[[[], 0.0], [%s, 1.0]]]}' % NESTED,
                "field 'tables' receiver 1: subsets must be sorted integer lists, got ",
            ),
            ('{"kind": %s}' % NESTED, "field 'kind' must be one of gaussian, dmc, tabulated; got "),
        ],
    )
    def test_nested_scenario_value(self, capsys, tmp_path, doc, message):
        path = tmp_path / "nested.json"
        path.write_text(doc)
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message}{'[' * 77}...\n"

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("[[%s], [2]]" % NESTED, "decode order users must be integers, got ([[[["),
            (json.dumps([[*range(3, 2000), 2.5, 1], [2]]), "decode order users must be integers"),
            (json.dumps([[*range(3, 2000), 1], [2]]), "decode sequence (3, 4, 5, 6,"),
        ],
    )
    def test_nested_or_long_profile_entry(self, capsys, tmp_path, profile, message):
        path = tmp_path / "profile.json"
        path.write_text('{"profile": %s}' % profile)
        code, out, err = run(capsys, "rates", "--scenario", TWO_USER, "--profile", f"@{path}")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and len(err) < 200

    def test_brief_keeps_short_values_and_cuts_long_ones(self):
        assert brief((1, 2.5)) == "(1, 2.5)"
        assert brief("x" * 78) == repr("x" * 78)
        assert brief("x" * 79) == "'" + "x" * 76 + "..."
        deep = []
        for _ in range(100_000):  # past any recursion limit: ``repr`` itself refuses it
            deep = [deep]
        assert brief(deep) == "a list nested too deeply to show"


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

    @pytest.mark.parametrize(
        "kind, code, message",
        [
            pytest.param("gaussian", 3, "enumeration is limited to K <= 4", id="gaussian"),
            pytest.param("supermodular", 1, "rank axioms", id="not-rank"),
        ],
    )
    def test_refusals_come_before_the_greedy(
        self, capsys, monkeypatch, tmp_path, kind, code, message
    ):
        # The axiom gate runs first, so exit 1 outranks exit 3; then the budget.
        def never(*args, **kwargs):
            raise AssertionError("the greedy ran before a refusal")

        monkeypatch.setattr(fairsic.oracle, "greedy_profile", never)
        if kind == "gaussian":
            channel = generate_channel("gaussian", 5, 1)
        else:
            # Squared subset sizes: monotone and normalized, not submodular.
            table = {mask: float(bin(mask).count("1") ** 2) for mask in range(32)}
            channel = TabulatedRanks(5, (table,) * 5)
        path = tmp_path / f"{kind}5.json"
        save_scenario(channel, path)
        result = run(capsys, "certify", "--scenario", str(path))
        assert result[0] == code
        assert result[1] == ""
        assert result[2].startswith("error: ") and message in result[2]

    def test_dmc_term_cap_exits_3(self, capsys, monkeypatch):
        # The XOR channel needs 4 joint tuples x 2 outputs = 8 elements.
        monkeypatch.setattr(fairsic.channels, "DEFAULT_DMC_TERM_CAP", 7)
        code, out, err = run(capsys, "solve", "--scenario", XOR_DMC)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "cap is 7" in err
        assert "Traceback" not in err


class TestToleranceAgrees:
    """``--tol`` is one threshold for ``validate``, ``solve`` and ``certify``.

    Both receivers lose ``drop`` from {1} or {2} to {1, 2}: a monotonicity
    violation the gate admits below the tolerance, and a negative marginal
    that every rate clamp then takes to zero.
    """

    @staticmethod
    def near_monotone(tmp_path, drop):
        row = [0, 1.0, 1.0, 1.0 - drop]
        return write_tables(tmp_path, "near_monotone.json", row, row)

    @pytest.mark.parametrize("command", ["validate", "solve", "certify"])
    def test_drop_below_tol_passes(self, capsys, tmp_path, command):
        path = self.near_monotone(tmp_path, 5e-9)
        code, out, err = run(capsys, command, "--tol", "1e-8", "--scenario", path)
        assert (code, err) == (0, "")
        if command == "certify":
            assert "gap: 0.0\n" in out and "certification: PASS" in out
        if command == "solve":
            assert "min rate: 0.0\n" in out

    @pytest.mark.parametrize("command", ["validate", "solve", "certify"])
    def test_drop_above_tol_is_refused_at_the_gate(self, capsys, tmp_path, command):
        path = self.near_monotone(tmp_path, 2e-8)
        code, out, err = run(capsys, command, "--tol", "1e-8", "--scenario", path)
        assert code == 1
        if command == "validate":
            assert "axioms: FAIL" in out
        else:
            assert out == "" and "rank axioms" in err

    def test_default_tol_refuses_the_smaller_drop(self, capsys, tmp_path):
        path = self.near_monotone(tmp_path, 5e-9)
        code, out, err = run(capsys, "solve", "--scenario", path)
        assert (code, out) == (1, "")
        assert "rank axioms" in err


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

    def test_tol_zero_reports_a_comparable_pair_residue(self, capsys):
        # log2(1 + SNR) is submodular analytically; the rounding residue of a
        # pair with one set inside the other is what --tol 0 refuses.
        code, out, err = run(capsys, "validate", "--tol", "0", "--scenario", TWO_USER)
        assert (code, err) == (1, "")
        assert (
            "  receiver 2: normalization 0.0, monotonicity 0.0, "
            "submodularity 1.1102230246251565e-16 -> FAIL\n"
        ) in out

    def test_forced_solve_near_float_max(self, capsys, tmp_path):
        # The axiom scan refuses such values (PINNED_FAILURES); a forced solve
        # skips it and solves as before.
        row = [0.0, 1e308, 1e308, 1.5e308]
        path = write_tables(tmp_path, "near_max.json", row, row)
        code, out, err = run(capsys, "solve", "--scenario", path, "--force")
        assert (code, err) == (0, "")
        assert "min rate: 5e+307\n" in out


def _pinned_gen(kind, k, digest):
    # The K=4 ids stay "kind-digest", as before K was a parameter.
    return pytest.param(kind, k, digest, id=f"{kind}-{digest}" if k == 4 else f"{kind}-k{k}")


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

    # SHA-256 of the stdout, pinned so that a writer or generator change
    # that alters the bytes cannot pass unseen.
    @pytest.mark.parametrize(
        "kind, k, digest",
        [
            _pinned_gen(
                "gaussian", 4, "269045883725c7a57df2976b996eb2dc8f1566ac1131f9e595410c05e73650b2"
            ),
            _pinned_gen(
                "dmc", 4, "be9e38d47827fb471d5a24606c15b1d90a37951b01dc676ba0e88128e264fa61"
            ),
            _pinned_gen(
                "dmc", 8, "44c0396825ffd2ce6fa8457fb834241ae2b77861aa5db3d72ff4411224a82892"
            ),
            _pinned_gen(
                "tabulated-submodular",
                4,
                "e7f2989af49b9f9f1df490eeb741da2aa044d045218262c6218efaa3dedf65a0",
            ),
            _pinned_gen(
                "gaussian", 8, "a92ffffa64251f12256b85ad81e697ba402b72fdfe0a8c41079c1441f33429b2"
            ),
            _pinned_gen(
                "dmc", 2, "aea3e5357af542b517a1a55e71b47df6f96de78a49521e73031a3da2b72836d9"
            ),
            _pinned_gen(
                "tabulated-submodular",
                6,
                "fc67936682b450d344867ce7b3512b9fa88b0e86a5c3dfca9749e15496844df5",
            ),
        ],
    )
    def test_gen_bytes_are_pinned(self, capsys, kind, k, digest):
        code, out, _ = run(capsys, "gen", "--kind", kind, "--k", str(k), "--seed", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_negative_seed_refused(self, capsys):
        code, out, err = run(capsys, "gen", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    def test_generate_channel_refuses_negative_seed(self, kind):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            generate_channel(kind, 2, -1)

    @pytest.mark.parametrize(
        "kind, num_users",
        [
            ("tabulated-submodular", 13),
            ("dmc", 19),
            ("dmc", 24),
            ("gaussian", MAX_GAUSSIAN_USERS + 1),
            ("gaussian", 100_000),
        ],
    )
    def test_sizes_no_command_accepts_refused_before_drawing(
        self, capsys, monkeypatch, kind, num_users
    ):
        def never(seed):
            raise AssertionError("the generator was reached")

        monkeypatch.setattr(fairsic.generate, "rng_from_seed", never)
        code, out, err = run(capsys, "gen", "--kind", kind, "--k", str(num_users), "--seed", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"K = {num_users}" in err

    @pytest.mark.parametrize(
        "kind, num_users",
        [("tabulated-submodular", 12), ("dmc", 18), ("gaussian", MAX_GAUSSIAN_USERS)],
    )
    def test_largest_accepted_sizes_reach_the_generator(self, monkeypatch, kind, num_users):
        class Reached(Exception):
            pass

        def reached(seed):
            raise Reached

        monkeypatch.setattr(fairsic.generate, "rng_from_seed", reached)
        with pytest.raises(Reached):
            generate_channel(kind, num_users, 3)

    def test_gaussian_bound_is_named(self):
        with pytest.raises(ValidationError) as refused:
            generate_channel("gaussian", MAX_GAUSSIAN_USERS + 1, 1)
        assert str(refused.value) == "gaussian is limited to K <= 256, got K = 257"

    @pytest.mark.parametrize("flag", ["--power", "--noise"])
    @pytest.mark.parametrize("kind", ["dmc", "tabulated-submodular"])
    def test_power_and_noise_refused_for_other_kinds(self, capsys, monkeypatch, kind, flag):
        def never(seed):
            raise AssertionError("the generator was reached")

        monkeypatch.setattr(fairsic.generate, "rng_from_seed", never)
        code, out, err = run(capsys, "gen", "--kind", kind, "--k", "2", "--seed", "3", flag, "5")
        assert code == 1
        assert out == ""
        assert err == f"error: {kind} scenarios take no power or noise; gaussian ones do\n"

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_out_that_cannot_be_written_is_refused(self, capsys, tmp_path, target):
        path = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
        code, out, err = run(
            capsys, "gen", "--kind", "dmc", "--k", "2", "--seed", "1", "--out", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write scenario to {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_generate_channel_refuses_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            generate_channel("foo", 2, 1)

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


# Each command with the arguments it needs besides --tol.
TOL_COMMANDS = {
    "solve": ["solve", "--scenario", TWO_USER],
    "rates": ["rates", "--scenario", TWO_USER, "--profile", "2 1; 2"],
    "certify": ["certify", "--scenario", TWO_USER],
    "validate": ["validate", "--scenario", XOR_DMC],
}


class TestTolerance:
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_refused_as_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exited:
            main(TOL_COMMANDS[command] + [f"--tol={value}"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: must be finite and >= 0, got '{value}'" in captured.err

    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_non_number_refused_as_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main(TOL_COMMANDS[command] + ["--tol", "abc"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: invalid float value: 'abc'" in captured.err

    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_zero_still_runs(self, capsys, command):
        code, out, err = run(capsys, *TOL_COMMANDS[command], "--tol", "0")
        assert code == 0
        assert out and err == ""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write_tables(directory, name, *rows):
    """A K=2 tabulated scenario with one row of values per receiver."""
    subsets = [[], [1], [2], [1, 2]]
    tables = [[[s, v] for s, v in zip(subsets, row)] for row in rows]
    path = directory / name
    path.write_text(json.dumps({"kind": "tabulated", "K": 2, "tables": tables}))
    return str(path)


# Each fixture's profile for `rates`.
FIXTURE_PROFILES = {
    "single_user": "1",
    "tabulated_two_user": "1; 1 2",
    "two_user_gaussian": "1; 1 2",
    "xor_dmc": "1; 1 2",
}

# SHA-256 of the whole stdout of each command on each fixture, so that a
# change to any byte of it (key order and whitespace included) fails.
PINNED_FIXTURE_STDOUT = {
    ("solve", "single_user", "human"): "603bd13b6b243ddfe326f7f1dbaf5ae05aeb3c63dd969763d0ef95a5ba1b4cae",
    ("solve", "single_user", "structured"): "e0e60676a4071f3fb3a58280eea68acd7687c473c883172ddf95b4f4d1d51c0a",
    ("solve", "tabulated_two_user", "human"): "9e7e063616ba80e0d06a8c5ba831917c9044ec48f3a9a3dda061b8eb6e2cd4f5",
    ("solve", "tabulated_two_user", "structured"): "ea3cb7f935b2199e72da18b88854ada3dfa11da391e22c318cf38b43c69b4813",
    ("solve", "two_user_gaussian", "human"): "2c980a25ac3218e3dad60e08bd1e3bfaf1470c17538338edb30bb1175364ce1a",
    ("solve", "two_user_gaussian", "structured"): "9a193b85fac504a074914be01cb6aa5d1726a7ef04f4baec4b7f60dcdacf9647",
    ("solve", "xor_dmc", "human"): "8444e3e617feda49b67dc138e1aeef8c2dcb135980cb5cb37d368e532f60ff83",
    ("solve", "xor_dmc", "structured"): "42f5b2ee0beebb3ce19adfe69f6a306c434ee423d3acd7c3d2dfac309daf1e8f",
    ("rates", "single_user", "human"): "e5a9d9386a73924e3411a6dbc0a2fa6dfc2e307db10024509dbed259fcd72b66",
    ("rates", "single_user", "structured"): "2cc5612fe8238c6125d53d4b36ff3564730a0aa841ceb5e28f7288d000ae2b5d",
    ("rates", "tabulated_two_user", "human"): "3ebc54693029bf960ded0d1ba82e1d10bac83bfad1f7e3c87a990a6dad9297a7",
    ("rates", "tabulated_two_user", "structured"): "abfb033a5ff11814cd2ede6830171fdadd42dac1184cfd6f0a07ed8ec5a57e1c",
    ("rates", "two_user_gaussian", "human"): "d9a7f2b83a3fd8e4ef637e6cc4647d02e4d52a6030724da21d1825289a43bacb",
    ("rates", "two_user_gaussian", "structured"): "c120891e6e2ec7846b2da9df7ead7b202244669f56b8072326a4749c209d804b",
    ("rates", "xor_dmc", "human"): "f5715c98f23c36b75ecb59300a00cf343cd20ade922d0d2e244874a94cc45399",
    ("rates", "xor_dmc", "structured"): "2477f459d0d0d6b265ac2a52c7c5674864b34b4b2b1e765b6ffd51ff5e9d5335",
    ("certify", "single_user", "human"): "b8e284a05c372b4d020bb6e56d50fde995b2f483f3384e423528d17f6c56faa7",
    ("certify", "single_user", "structured"): "946a1faac204a5db6c97d7f573969d85c0da4dbeb9fa4944e17504b846ae1277",
    ("certify", "tabulated_two_user", "human"): "f81a04e239f56f9e6bf2524a45549aa1fd22a14814eac6bb420941ba66dbde2f",
    ("certify", "tabulated_two_user", "structured"): "50fd15cf322d61856663af74cfd9538e74601d4f2e85c67b89f350e4378fb818",
    ("certify", "two_user_gaussian", "human"): "6e31b886654748e14829c8de4f6555b4577a4cbacf46bc48147963ec8edf78b6",
    ("certify", "two_user_gaussian", "structured"): "dab40cee425cd0fa4db482feec011c04fed694e4b61c26ba8fe49ce1fd02642c",
    ("certify", "xor_dmc", "human"): "79274d065c8954739695f5fe1754b39d5d2391032696f47ddec108c6af83bc4b",
    ("certify", "xor_dmc", "structured"): "367024755aefc54af99a5f5fae8814ba4619ae1d9028321eaa0ec7273f7636c9",
    ("validate", "single_user", "human"): "4baec6e8db94f5a35e42e4ff89bae5abacd672f14241f52e3f579cd7151b121b",
    ("validate", "single_user", "structured"): "1977c72add309a47f946075d38080a8fb7e3882239c5c2ad3f65d68e49aa79cb",
    ("validate", "tabulated_two_user", "human"): "31a62594009bebbf51a0b0dd9d894d0f8af6688256bc606b91dac8014bc9759b",
    ("validate", "tabulated_two_user", "structured"): "5072aa1244b4b22f875c2719ef18b8091a0e743179042411e6986793c3b54af4",
    ("validate", "two_user_gaussian", "human"): "c2ca77a149b7da56740544aeeec8d981f86154364503c19858ebdd02706dc944",
    ("validate", "two_user_gaussian", "structured"): "2e3e04f4d7bcd07a52cd3f6cb6a263c0a658104354e8b1ae791b0f725aabcdd0",
    ("validate", "xor_dmc", "human"): "c50929cd51cba8033e55943248387c713f698e3a159ea29e328431d891d58488",
    ("validate", "xor_dmc", "structured"): "495af64673a79be8a648bd9064830ab57722cda903b4c70b5ff677fd37ef4973",
    ("solve", "gaussian10", "human"): "18ffddc0fb4654100c3161d0f6649d064e422c1afd769fb68b721ff7308303fa",
    ("solve", "gaussian10", "structured"): "fb27864e863762bdb4bb5e318dcf87ed316b786fd1494140f217f55cc82661e2",
    ("solve", "dmc5", "human"): "a5c36dc69020de0cb1901b4492875041f7fcd1047c6c02deb4e98e0ca81ed42b",
    ("solve", "dmc5", "structured"): "c28cef04b19b9d09898047eb5e05aa70d0e731bf0e2dd6977bd88f056750c7b9",
    ("solve", "tabulated6", "human"): "9a99f0deca24392c83592f31c2a88b2994dd6147adfdde3f673385ee0080da0e",
    ("solve", "tabulated6", "structured"): "ad6440f73168392d644a292db6f787d1fa7b7680378ad83230607bb6c17ea6d1",
    ("validate", "gaussian10", "human"): "40ee95c11e4edf5471d8b43469e74723847434298fbff12ae4c4665638e3b240",
    ("validate", "gaussian10", "structured"): "946ce9a03b00ba6110946057a632ba89ff68106cb736b931deb02f6424b51453",
    ("validate", "dmc5", "human"): "c7d18b177430e2c0ac8f4f824e20d4201e4df171ddd2e2a6a481707acfbf9d7a",
    ("validate", "dmc5", "structured"): "92215dfd0d4e6b17df5c147600337b2acbcc555465e92c13db3a7059f935a2c0",
    ("validate", "tabulated6", "human"): "b96b5c2cfd6376c13a41b10f221fcc0fc58ad80236762282a766cfa1a4b64e52",
    ("validate", "tabulated6", "structured"): "afa1a9a122e6018939fc0962e203d4f49f55b2530d784ab3f3323a5544b4ce51",
}
# Fixtures that `gen --seed 1` writes, as (kind, K): sizes where the greedy's
# Gaussian scan and DMC prefilter skip candidates.
GENERATED_FIXTURES = {
    "gaussian10": ("gaussian", 10),
    "dmc5": ("dmc", 5),
    "tabulated6": ("tabulated-submodular", 6),
}

# SHA-256 of each subcommand's --help at 80 columns.  Python 3.10 to 3.13
# print the same bytes.
PINNED_HELP = {
    "solve": "cf4103621cabd96e892d4ec94b3fb5f9a078d7a52d604bba0f9185b9c483fb3b",
    "rates": "44b786646cc2563912502d36a9474cede28d58a45a6bd8967c8c4a4ac0a9198a",
    "certify": "28ce4460927c2bf024323e14b9c09df7dab41a52b5440753cc545d173545285a",
    "validate": "bd01a5c8d272b83b3a8ed1522fb41ce4221f218610307ccb7c3405541f438903",
    "gen": "c7219694b5b49e18e1cbddf411f03b78db4a78bfc3c4f754a9791d71dc30d19e",
}

NEAR_MAX = "error: axiom validation needs rank values below 2^1021, got 1.5e+308\n"

NOT_RANK = (
    "error: tabulated backend violates the rank axioms; greedy optimality is "
    "only guaranteed for rank functions (pass --force, or force=True, to solve "
    "anyway)\n"
)

# Failing runs: argv ("<tmp>" is the test's directory of input files), exit
# code, SHA-256 of stdout and the whole stderr.  Each non-zero exit code is
# here: 1 validation, 2 parse or usage, 3 budget, 4 certification.
PINNED_FAILURES = {
    "solve-not-rank": (
        ["solve", "--scenario", "<tmp>/not_rank.json"], 1, digest(""), NOT_RANK,
    ),
    "certify-not-rank": (
        ["certify", "--scenario", "<tmp>/gap.json"], 1, digest(""), NOT_RANK,
    ),
    "validate-fail-human": (
        ["validate", "--scenario", "<tmp>/not_rank.json"],
        1,
        digest(
            "backend: tabulated\n"
            "tolerance: 1e-09\n"
            "  receiver 1: normalization 0.0, monotonicity 0.0, submodularity 1.0 -> FAIL\n"
            "  receiver 2: normalization 0.0, monotonicity 0.0, submodularity 0.0 -> pass\n"
            "axioms: FAIL\n"
        ),
        "",
    ),
    "validate-fail-structured": (
        ["validate", "--scenario", "<tmp>/not_rank.json", "--format", "structured"],
        1,
        "10957c3df5a32dbac1113ef4983e6bdcb9c0fd0076b394ffd8be826875e3b8a2",
        "",
    ),
    "rates-bad-profile": (
        ["rates", "--scenario", TWO_USER, "--profile", "2; 2"],
        1,
        digest(""),
        "error: decode sequence for receiver 1 must end with user 1, got (2,)\n",
    ),
    "rates-unparsable-group": (
        ["rates", "--scenario", TWO_USER, "--profile", "a; 2"],
        1,
        digest(""),
        "error: cannot parse profile group 'a'\n",
    ),
    "rates-repeated-user": (
        ["rates", "--scenario", TWO_USER, "--profile", "1,1; 2"],
        1,
        digest(""),
        "error: decode sequence (1, 1) repeats a user\n",
    ),
    "rates-out-of-range-user": (
        ["rates", "--scenario", TWO_USER, "--profile", "3 1; 2"],
        1,
        digest(""),
        "error: decode sequence (3, 1) has out-of-range users\n",
    ),
    "gen-negative-seed": (
        ["gen", "--seed", "-1"], 1, digest(""), "error: seed must be nonnegative, got -1\n",
    ),
    "solve-malformed": (
        ["solve", "--scenario", "<tmp>/malformed.json", "--format", "structured"],
        2,
        digest(""),
        "error: field 'gains' must be a list of K = 2 entries, one per user\n",
    ),
    "certify-over-budget": (
        ["certify", "--scenario", "<tmp>/five_users.json"],
        3,
        digest(""),
        "error: enumeration is limited to K <= 4, got K = 5\n",
    ),
    "certify-gap-human": (
        ["certify", "--scenario", "<tmp>/gap.json", "--force"],
        4,
        digest(
            "backend: tabulated\n"
            "users: 2\n"
            "profiles enumerated: 4\n"
            "greedy min rate: 0.5\n"
            "oracle min rate: 3.0\n"
            "gap: 2.5\n"
            "counterexample profile:\n"
            "  1: [2] 1\n"
            "  2: [1] 2\n"
            "certification: FAIL\n"
        ),
        "",
    ),
    "certify-gap-structured": (
        ["certify", "--scenario", "<tmp>/gap.json", "--force", "--format", "structured"],
        4,
        "4cc10ee5ae8ddfb0036d381131eb02f90c2dd2ed3954b9563a8717479220ea0b",
        "",
    ),
    # A rank function whose values near the float maximum would overflow the
    # axiom scan: refused before it, with no numpy warning.
    "validate-near-float-max": (
        ["validate", "--scenario", "<tmp>/near_max.json"], 1, digest(""), NEAR_MAX,
    ),
    "solve-near-float-max": (
        ["solve", "--scenario", "<tmp>/near_max.json"], 1, digest(""), NEAR_MAX,
    ),
}

# SHA-256 of `validate --format structured` on `gen --kind tabulated-submodular
# --k 10 --seed 1`, as generated and with receiver 1's full-set value raised
# just past the tolerance: the axiom scan's two tiers.
PINNED_TABULATED10_VALIDATE = {
    "generated": (0, "bf4283ac2a5d95482dae71c89622427a5731b18bedd5e74d91ebdaa098915ef2"),
    "pushed": (1, "910336c76fd18c2054c41f7397475cf1c7179eba3e9ad2d8d275115b1321f812"),
}


class TestPinnedBytes:
    @pytest.mark.parametrize(
        "command, fixture, fmt",
        sorted(PINNED_FIXTURE_STDOUT),
        ids=lambda value: value,
    )
    def test_fixture_stdout(self, capsys, tmp_path, command, fixture, fmt):
        path = SCENARIOS / f"{fixture}.json"
        if fixture in GENERATED_FIXTURES:
            kind, num_users = GENERATED_FIXTURES[fixture]
            path = tmp_path / f"{fixture}.json"
            gen = ["gen", "--kind", kind, "--k", str(num_users), "--seed", "1", "--out", str(path)]
            assert run(capsys, *gen) == (0, "", "")
        argv = [command, "--scenario", str(path)]
        if fmt == "structured":
            argv += ["--format", "structured"]
        if command == "rates":
            argv += ["--profile", FIXTURE_PROFILES[fixture]]
        code, out, err = run(capsys, *argv)
        assert (code, digest(out), err) == (0, PINNED_FIXTURE_STDOUT[command, fixture, fmt], "")

    @pytest.mark.parametrize("name", sorted(PINNED_FAILURES))
    def test_failure(self, capsys, tmp_path, name):
        write_tables(tmp_path, "not_rank.json", [0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0])
        # The oracle beats the greedy by 2.5 on this table.
        write_tables(tmp_path, "gap.json", [0.0, 1.0, 1.0, 4.0], [0.0, 0.5, 0.5, 4.0])
        near_max = [0.0, 1e308, 1e308, 1.5e308]
        write_tables(tmp_path, "near_max.json", near_max, near_max)
        gaussian = {"kind": "gaussian", "K": 2, "gains": [[1.0, 2.0]]}
        gaussian.update(powers=[1.0, 1.0], noise_vars=[1.0, 1.0])
        (tmp_path / "malformed.json").write_text(json.dumps(gaussian))
        five = {"kind": "gaussian", "K": 5, "gains": [[1.0] * 5] * 5}
        five.update(powers=[1.0] * 5, noise_vars=[1.0] * 5)
        (tmp_path / "five_users.json").write_text(json.dumps(five))
        argv, code, stdout_digest, stderr = PINNED_FAILURES[name]
        argv = [arg.replace("<tmp>", str(tmp_path)) for arg in argv]
        got_code, out, err = run(capsys, *argv)
        assert (got_code, digest(out), err) == (code, stdout_digest, stderr)

    @pytest.mark.parametrize("variant", sorted(PINNED_TABULATED10_VALIDATE))
    def test_tabulated10_validate(self, capsys, tmp_path, variant):
        path = tmp_path / "tabulated10.json"
        gen = ["gen", "--kind", "tabulated-submodular", "--k", "10", "--seed", "1"]
        assert run(capsys, *gen, "--out", str(path)) == (0, "", "")
        if variant == "pushed":
            channel = load_scenario(path)
            full = (1 << 10) - 1
            table = dict(channel.tables[0])
            slack = min(
                table[full ^ 1 << i] + table[full ^ 1 << k] - table[full]
                - table[full ^ 1 << i ^ 1 << k]
                for i in range(10)
                for k in range(i + 1, 10)
            )
            table[full] += slack + 1.01 * DEFAULT_AXIOM_TOL
            save_scenario(TabulatedRanks(10, (table, *channel.tables[1:])), path)
        code, out, err = run(capsys, "validate", "--scenario", str(path), "--format", "structured")
        assert (code, digest(out), err) == (*PINNED_TABULATED10_VALIDATE[variant], "")

    def test_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exited:
            main(["solve"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage: fairsic solve [-h] --scenario SCENARIO [--format {human,structured}]\n"
            "                     [--tol TOL] [--force]\n"
            "fairsic solve: error: the following arguments are required: --scenario\n"
        )

    @pytest.mark.parametrize("command", sorted(PINNED_HELP))
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        captured = capsys.readouterr()
        assert (digest(captured.out), captured.err) == (PINNED_HELP[command], "")
