import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsic import (
    RankFunctionSet,
    TabulatedRanks,
    ValidationError,
    generate_channel,
    random_dmc_channel,
    random_gaussian_channel,
    rank_value,
    rng_from_seed,
    validate_rank_axioms,
)
from fairsic.axioms import _incomparable_pairs_lose, _receiver_violations, subset_value_table
from fairsic.channels import DEFAULT_AXIOM_TOL, mask_users

from conftest import tabulated_from_values


def test_gaussian_backends_pass_exhaustively():
    # log2(1 + weighted sum) is normalized, increasing and submodular;
    # enumeration over all subset pairs should find nothing.
    for seed in range(5):
        for num_users in (2, 4, 6):
            channel = random_gaussian_channel(num_users, rng_from_seed(seed))
            report = validate_rank_axioms(RankFunctionSet.for_channel(channel))
            assert report.passed
            assert all(
                max(r.normalization_violation, r.monotonicity_violation, r.submodularity_violation)
                <= 1e-12
                for r in report.receivers
            )


def test_dmc_backends_pass(xor_dmc_channel):
    report = validate_rank_axioms(RankFunctionSet.for_channel(xor_dmc_channel))
    assert report.passed
    for seed in (11, 12):
        channel = random_dmc_channel(3, rng_from_seed(seed))
        report = validate_rank_axioms(RankFunctionSet.for_channel(channel))
        assert report.passed


def test_constructed_submodularity_violation():
    # 1 + 1 < 3 + 0: superadditive pair, violation exactly 1.
    ranks = tabulated_from_values([(0.0, 1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 2.0)])
    report = validate_rank_axioms(RankFunctionSet.for_channel(ranks))
    assert not report.passed
    first = report.receivers[0]
    assert first.submodularity_violation == pytest.approx(1.0, abs=1e-15)
    assert first.normalization_violation == 0.0
    assert first.monotonicity_violation == 0.0
    assert report.receivers[1].passed(report.tol)


def test_constructed_normalization_violation():
    ranks = tabulated_from_values([(0.5, 1.0, 1.0, 1.5), (0.0, 1.0, 1.0, 2.0)])
    report = validate_rank_axioms(RankFunctionSet.for_channel(ranks))
    assert not report.passed
    assert report.receivers[0].normalization_violation == pytest.approx(0.5, abs=1e-15)


def test_constructed_monotonicity_violation():
    ranks = tabulated_from_values([(0.0, 1.0, 1.0, 0.25), (0.0, 1.0, 1.0, 2.0)])
    report = validate_rank_axioms(RankFunctionSet.for_channel(ranks))
    assert report.receivers[0].monotonicity_violation == pytest.approx(0.75, abs=1e-15)


def test_tolerance_is_respected():
    ranks = tabulated_from_values([(1e-12, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, 2.0)])
    assert validate_rank_axioms(RankFunctionSet.for_channel(ranks), tol=1e-9).passed
    assert not validate_rank_axioms(
        RankFunctionSet.for_channel(ranks), tol=1e-15
    ).passed


def test_guard_on_large_user_counts():
    channel = random_gaussian_channel(13, rng_from_seed(0))
    with pytest.raises(ValidationError):
        validate_rank_axioms(RankFunctionSet.for_channel(channel))


@pytest.mark.parametrize("order", ["reversed", "random"])
def test_stored_tables_read_whole_in_mask_order(order):
    """The constructor stores each table in mask order, whatever order the
    caller's dicts were built in, so reading the values whole gives the
    rank_value fill bit for bit, -0.0 included."""
    num_users = 5
    size = 1 << num_users
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 2.0, size=(num_users, size))  # no rank function
    values[:, 0] = -0.0
    values[1, 5] = -0.0
    masks = list(range(size))[::-1] if order == "reversed" else rng.permutation(size).tolist()
    shuffled = TabulatedRanks(num_users, tuple({m: float(row[m]) for m in masks} for row in values))
    ranks = RankFunctionSet.for_channel(shuffled)
    filled = [
        [rank_value(ranks, j, mask_users(mask)) for mask in range(size)]
        for j in range(1, num_users + 1)
    ]
    for j, expected in enumerate(filled, start=1):
        assert list(map(repr, subset_value_table(ranks, j).tolist())) == list(map(repr, expected))
    report = validate_rank_axioms(ranks)
    found = [
        (r.normalization_violation, r.monotonicity_violation, r.submodularity_violation)
        for r in report.receivers
    ]
    assert repr(found) == repr(_receiver_violations(np.array(filled)))
    assert not report.passed


def loop_receiver_violations(table: np.ndarray) -> tuple[float, float, float]:
    """Reference: one Python pass per subset s over all 2^K masks.

    Monotonicity takes f(s) minus the minimum over the strict supersets of
    s; submodularity evaluates ((f(m|s) + f(m&s)) - f(m)) - f(s) for every
    m.  ``_receiver_violations`` must return the same triple, bit for bit.
    """
    size = table.shape[0]
    masks = np.arange(size)
    normalization = abs(float(table[0]))
    monotonicity = 0.0
    submodularity = 0.0
    for s in range(size):
        f_s = table[s]
        superset = (masks & s) == s
        superset[s] = False
        if superset.any():
            worst = float(f_s - table[superset].min())
            if worst > monotonicity:
                monotonicity = worst
        union = table[masks | s]
        intersection = table[masks & s]
        worst = float((union + intersection - table - f_s).max())
        if worst > submodularity:
            submodularity = worst
    return normalization, max(0.0, monotonicity), max(0.0, submodularity)


def assert_matches_loop(tables) -> list[tuple[float, float, float]]:
    tables = np.array(tables, dtype=float)
    found = _receiver_violations(tables)
    assert repr(found) == repr([loop_receiver_violations(table) for table in tables])
    return found


def modular_table(weights) -> np.ndarray:
    """f(s) = sum of the weights in s, summed in mask order."""
    table = np.zeros(1 << len(weights))
    for i, weight in enumerate(weights):
        table[1 << i : 2 << i] = table[: 1 << i] + weight
    return table


def random_tables(rng, num_users, receivers=3):
    """Noise, modular and concave-of-modular tables at one scale.

    Modular tables make every pair's exact excess 0, so the reported
    submodularity is a rounding residue; noise breaks monotonicity and
    submodularity; f(empty) is left nonzero in some.
    """
    scale = 10.0 ** rng.uniform(-12, 6)
    tables = []
    for r in range(receivers):
        weights = rng.random(num_users)
        kind = r % 3
        if kind == 0:
            table = rng.random(1 << num_users)
        elif kind == 1:
            table = modular_table(weights)
        else:
            table = np.log2(1.0 + modular_table(weights))
            table[1:] += rng.random(table.shape[0] - 1) * 1e-9
        table *= scale
        if rng.random() < 0.5:
            table[0] = scale * rng.random()
        tables.append(table)
    return tables


class TestScanMatchesLoop:
    @pytest.mark.parametrize("num_users", range(1, 9))
    def test_random_tables(self, num_users):
        rng = np.random.default_rng(num_users)
        for _ in range(6):
            assert_matches_loop(random_tables(rng, num_users))

    def test_several_blocks_per_table(self):
        # At K=10 a block holds 32 of the 1024 rows.
        assert_matches_loop(random_tables(np.random.default_rng(10), 10, receivers=2))

    @pytest.mark.parametrize("num_users", [2, 3, 5, 8, 10])
    def test_generated_table_pushed_just_past_tol(self, num_users):
        channel = generate_channel("tabulated-submodular", num_users, num_users)
        ranks = RankFunctionSet.for_channel(channel)
        tables = [subset_value_table(ranks, j) for j in range(1, num_users + 1)]
        assert validate_rank_axioms(ranks).passed
        full = (1 << num_users) - 1
        first = tables[0]
        pairs = [
            (full ^ 1 << i, full ^ 1 << k) for i in range(num_users) for k in range(i + 1, num_users)
        ]
        slack = min(first[a] + first[b] - first[full] - first[a & b] for a, b in pairs)
        first[full] += slack + 1.01 * DEFAULT_AXIOM_TOL
        found = assert_matches_loop(tables)
        assert DEFAULT_AXIOM_TOL < found[0][2] < 1.02 * DEFAULT_AXIOM_TOL
        pushed = TabulatedRanks(
            num_users, tuple({m: float(v) for m, v in enumerate(t)} for t in tables)
        )
        report = validate_rank_axioms(RankFunctionSet.for_channel(pushed))
        assert not report.passed
        assert [
            (r.normalization_violation, r.monotonicity_violation, r.submodularity_violation)
            for r in report.receivers
        ] == found

    def test_single_user_table(self):
        assert assert_matches_loop([[0.5, 0.25], [0.0, 2.0], [3.0, 0.0]]) == [
            (0.5, 0.25, 0.0),
            (0.0, 0.0, 0.0),
            (3.0, 3.0, 0.0),
        ]

    def test_full_set_row_has_no_strict_superset(self):
        # Only the full set holds a value: monotone, and the full set's own
        # row (no superset to drop to) adds no monotonicity violation.
        found = assert_matches_loop([[0.0, 0.0, 0.0, 5.0], [0.0, 1.0, 1.0, 0.25]])
        assert found == [(0.0, 0.0, 5.0), (0.0, 0.75, 0.0)]

    def test_negative_zero_entries(self):
        assert assert_matches_loop([[-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, -0.0, -0.0]]) == [
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        ]

    def test_comparable_pair_residue_is_reported(self):
        # log2(1 + modular) is strictly submodular on incomparable pairs, so
        # the reported excess comes from a pair with m inside s or s inside
        # m: ((f(s) + f(m)) - f(s)) - f(m) rounds to a few ulp, not to 0.
        table = np.log2(1.0 + modular_table([0.1, 0.2, 0.7, 1e-3, 3.3]))
        found = assert_matches_loop([table])
        assert 0.0 < found[0][2] < 1e-15

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_tables(self, data):
        num_users = data.draw(st.integers(1, 6))
        size = 1 << num_users
        pool = data.draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4))
        value = st.one_of(
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e-300),
            st.just(-0.0),
            st.sampled_from(pool),
            st.sampled_from(pool).map(lambda v: math.nextafter(v, math.inf)),
        )
        tables = data.draw(
            st.lists(
                st.lists(value, min_size=size, max_size=size), min_size=1, max_size=3
            )
        )
        if data.draw(st.booleans()):
            weights = data.draw(
                st.lists(st.floats(0.0, 1e3), min_size=num_users, max_size=num_users)
            )
            tables.append(list(modular_table(weights)))
        assert_matches_loop(tables)


def assert_validation_matches_loop(tables, certified):
    """``validate_rank_axioms`` on ``tables`` reports what the per-pair loop
    computes, bit for bit, and each receiver took the tier ``certified``
    names: True for the comparable pairs only, False for every pair."""
    tables = np.array(tables, dtype=float)
    num_users = tables.shape[1].bit_length() - 1
    ranks = RankFunctionSet.for_channel(
        TabulatedRanks(num_users, tuple(dict(enumerate(map(float, t))) for t in tables))
    )
    report = validate_rank_axioms(ranks)
    found = [
        (r.normalization_violation, r.monotonicity_violation, r.submodularity_violation)
        for r in report.receivers
    ]
    assert repr(found) == repr([loop_receiver_violations(table) for table in tables])
    assert _incomparable_pairs_lose(tables).tolist() == list(certified)
    return report


class TestCertifiedScan:
    """The scan skips incomparable pairs only where local second differences
    prove they cannot raise the reported maximum; either tier reports what
    the per-pair loop does."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_concave_of_modular_over_120_db(self, data):
        # Strictly submodular at every scale from 1e-6 to 1e6: comparable pairs only.
        num_users = data.draw(st.integers(2, 7))
        tables = []
        for _ in range(num_users):
            weights = data.draw(
                st.lists(st.floats(0.1, 2.0), min_size=num_users, max_size=num_users)
            )
            scale = 10.0 ** data.draw(st.floats(-6.0, 6.0))
            tables.append(np.log2(1.0 + modular_table(weights)) * scale)
        report = assert_validation_matches_loop(tables, [True] * num_users)
        assert report.passed

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_modular_and_zero_tables_scan_every_pair(self, data):
        # Every exact local difference is 0 and w is within rounding of it.
        num_users = data.draw(st.integers(2, 6))
        weight = st.one_of(st.integers(0, 1000).map(float), st.floats(0.0, 1e3))
        tables = [np.zeros(1 << num_users)] + [
            modular_table(data.draw(st.lists(weight, min_size=num_users, max_size=num_users)))
            for _ in range(num_users - 1)
        ]
        assert_validation_matches_loop(tables, [False] * num_users)

    @settings(max_examples=40, deadline=None)
    @given(exponent=st.integers(-1022, 1019))
    def test_local_difference_nudged_across_the_bound(self, exponent):
        # f(S) = h(|S|) with M = h(3) = 2.5, so 16 eps M = 10 units of 4 eps,
        # and every value and sum exact at any power-of-two scale.  The top
        # local difference h(3) + h(1) - 2 h(2) is -9 units, just above the
        # bound (every pair), or -11, just below it (comparable pairs only).
        unit = 4 * np.finfo(float).eps
        tables = []
        for top in (-9 * unit, -11 * unit):
            h = [0.0, 1.5 + top, 2.0, 2.5]
            tables.append([math.ldexp(h[bin(mask).count("1")], exponent) for mask in range(8)])
        tables.append([0.0] * 8)
        assert_validation_matches_loop(tables, [False, True, False])

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32), receiver=st.integers(1, 8))
    def test_perturbed_receiver_falls_back(self, seed, receiver):
        # As the benchmark's refused tables: one receiver's full-set value is
        # raised just past its tightest inequality, so only it scans every pair.
        num_users = 8
        ranks = RankFunctionSet.for_channel(
            generate_channel("tabulated-submodular", num_users, seed)
        )
        tables = [subset_value_table(ranks, j) for j in range(1, num_users + 1)]
        full = (1 << num_users) - 1
        pushed = tables[receiver - 1]
        slack = min(
            pushed[full ^ 1 << i] + pushed[full ^ 1 << k] - pushed[full] - pushed[full ^ 1 << i ^ 1 << k]
            for i in range(num_users)
            for k in range(i + 1, num_users)
        )
        pushed[full] += slack + 1.01 * DEFAULT_AXIOM_TOL
        report = assert_validation_matches_loop(
            tables, [j != receiver for j in range(1, num_users + 1)]
        )
        assert not report.passed

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=2, max_size=2))
    def test_single_user(self, table):
        # K = 1 has no incomparable pair: w is -inf.
        assert_validation_matches_loop([table], [True])


@pytest.mark.parametrize("value", [2.0**1021, 1e308, 1.7976931348623157e308])
def test_values_near_float_max_refused_before_the_scan(value):
    ranks = tabulated_from_values([(0.0, value, value, value), (0.0, 1.0, 1.0, 2.0)])
    with pytest.raises(ValidationError, match=r"below 2\^1021, got"):
        validate_rank_axioms(RankFunctionSet.for_channel(ranks))


def test_values_just_below_the_limit_scan_without_overflow():
    # Any overflow would be a RuntimeWarning, an error under this suite.
    big = math.nextafter(2.0**1021, 0.0)
    tables = [[0.0, big, big, big], [0.0, big / 2, big / 2, big]]
    assert_validation_matches_loop(tables, [True, False])
