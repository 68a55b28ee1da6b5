import copy
import math
import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsic.axioms
import fairsic.channels
import fairsic.greedy
import fairsic.rates
from fairsic import (
    CapacityError,
    DmcChannel,
    GaussianChannel,
    IncompleteTableError,
    RankFunctionSet,
    TabulatedRanks,
    ValidationError,
    dmc_rank_value,
    generate_channel,
    greedy_profile,
    random_dmc_channel,
    random_gaussian_channel,
    rank_value,
    rate_vector,
    rng_from_seed,
    validate_rank_axioms,
)
from fairsic.axioms import AxiomReport, ReceiverAxiomReport, _receiver_violations
from fairsic.channels import PMF_TOL, check_users, mask_users
from fairsic.generate import WEIGHT_RANGE

from conftest import LOG2_1_1, LOG2_3, small_dmc_channels, tabulated_from_values


def fresh_rank_value(channel, receiver: int, users) -> float:
    """``rank_value`` on a fresh rank set, so no memo is shared between calls."""
    return rank_value(RankFunctionSet(channel), receiver, users)


class TestGaussianRank:
    def test_empty_set_is_exactly_zero(self, two_user_channel):
        for j in (1, 2):
            assert fresh_rank_value(two_user_channel, j, set()) == 0.0

    def test_frozen_values(self, two_user_channel):
        assert fresh_rank_value(two_user_channel, 1, {2}) == pytest.approx(
            LOG2_3, abs=1e-15
        )
        assert fresh_rank_value(two_user_channel, 1, {1, 2}) == 2.0
        assert fresh_rank_value(two_user_channel, 2, {1}) == pytest.approx(
            LOG2_1_1, abs=1e-15
        )

    def test_single_user_awgn(self):
        channel = GaussianChannel(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        assert fresh_rank_value(channel, 1, {1}) == 1.0

    def test_out_of_range_receiver_and_user(self, two_user_channel):
        with pytest.raises(IndexError):
            fresh_rank_value(two_user_channel, 3, {1})
        with pytest.raises(IndexError):
            fresh_rank_value(two_user_channel, 1, {0})
        with pytest.raises(IndexError):
            fresh_rank_value(two_user_channel, 1, {3})

    def test_monotone_over_all_subset_pairs(self, two_user_channel):
        rs = RankFunctionSet.for_channel(two_user_channel)
        subsets = [mask_users(m) for m in range(4)]
        for small in subsets:
            for large in subsets:
                if small < large:
                    assert rank_value(rs, 1, small) <= rank_value(rs, 1, large) + 1e-12

    def test_shift_invariant_differences(self, two_user_channel):
        # Differences of the normalized rank match differences of the
        # unnormalized form log2(noise + received power sum).
        row = two_user_channel.received_powers[0]
        noise = float(two_user_channel.noise_vars[0])

        def unnormalized(users):
            return math.log2(noise + sum(float(row[u - 1]) for u in sorted(users)))

        subsets = [mask_users(m) for m in range(4)]
        for a in subsets:
            for b in subsets:
                lhs = fresh_rank_value(two_user_channel, 1, a) - fresh_rank_value(
                    two_user_channel, 1, b
                )
                assert lhs == pytest.approx(unnormalized(a) - unnormalized(b), abs=1e-12)


class TestGaussianValidation:
    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValidationError):
            GaussianChannel(np.array([[1.0]]), np.array([1.0]), np.array([0.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            GaussianChannel(
                np.array([[1.0, 2.0]]), np.array([1.0, 1.0]), np.array([1.0, 1.0])
            )

    def test_rejects_negative_gains_and_nan(self):
        with pytest.raises(ValidationError):
            GaussianChannel(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            GaussianChannel(np.array([[math.nan]]), np.array([1.0]), np.array([1.0]))

    def test_arrays_are_read_only(self, two_user_channel):
        # The fields are tuples of floats.
        with pytest.raises(TypeError):
            two_user_channel.gains[0][0] = 5.0
        with pytest.raises(TypeError):
            two_user_channel.powers[0] = 5.0

    def test_caller_arrays_stay_writable_and_detached(self):
        gains, powers, noise = np.array([[1.0, 2.0], [0.1, 1.0]]), np.ones(2), np.ones(2)
        channel = GaussianChannel(gains, powers, noise)
        before = all_rank_values(fresh_rank_value, channel)
        assert gains.flags.writeable and powers.flags.writeable and noise.flags.writeable
        gains[:] = 7.0
        powers[:] = 3.0
        noise[:] = 0.5
        assert all_rank_values(fresh_rank_value, channel) == before

    def test_fields_are_float_tuples_that_compare_and_hash(self):
        channel = GaussianChannel([[1, 2], [0.1, 1]], np.ones(2), (1.0, 1.0))
        assert channel.gains == ((1.0, 2.0), (0.1, 1.0))
        assert channel.received_powers == channel.gains
        assert all(type(v) is float for v in (*channel.gains[0], *channel.powers))
        twin = GaussianChannel([[1.0, 2.0], [0.1, 1.0]], [1.0, 1.0], [1.0, 1.0])
        assert twin == channel and hash(twin) == hash(channel)
        assert twin != GaussianChannel([[1.0, 2.0], [0.1, 1.0]], [1.0, 1.0], [1.0, 2.0])

    def test_tabulated_tables_compare_and_hash_by_value(self):
        values = (0.0, 1.0, 1.0, 1.5)
        channel = TabulatedRanks(2, (dict(enumerate(values)),) * 2)
        reordered = dict(reversed(list(enumerate(values))))
        signed = dict(enumerate((-0.0, *values[1:])))
        for tables in ((reordered, reordered), (signed, reordered)):
            twin = TabulatedRanks(2, tables)
            assert twin == channel and hash(twin) == hash(channel)
            assert hash(RankFunctionSet(twin)) == hash(RankFunctionSet(channel))
        assert len({channel, twin}) == 1
        assert twin != TabulatedRanks(2, (dict(enumerate((0.0, 1.0, 1.0, 2.0))), reordered))

    def test_tabulated_tables_are_read_only(self):
        channel = TabulatedRanks(1, ({0: 0.0, 1: 1.0},))
        before = hash(channel)
        members = {channel}
        with pytest.raises(TypeError):
            channel.tables[0][1] = 2.0
        assert channel._values(1, [1]) == [1.0]
        assert hash(channel) == before and channel in members
        for twin in (pickle.loads(pickle.dumps(channel)), copy.deepcopy(channel)):
            assert twin == channel and hash(twin) == hash(channel)
        # Readers may still take a plain copy of a table.
        table = dict(channel.tables[0])
        table[1] = 2.0
        assert channel.tables[0][1] == 1.0


HALF_ROWS = [[0.5, 0.5]] * 4
# name -> per constructor: (arguments with the non-number, the refusal message)
LIBRARY_NON_NUMBERS = {
    "bool": {
        GaussianChannel: (
            ([[1.0, 1.0], [1.0, 1.0]], [True, 1.0], [1.0, 1.0]),
            "an entry of powers must be a real number, got True",
        ),
        DmcChannel: (
            ([[True, 0.0], [0.5, 0.5]], [HALF_ROWS, HALF_ROWS]),
            "an entry of input_pmfs of user 1 must be a real number, got True",
        ),
    },
    "numeric string": {
        GaussianChannel: (
            ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [1.0, "1.5"]),
            "an entry of noise_vars must be a real number, got '1.5'",
        ),
        DmcChannel: (
            ([[0.5, 0.5], [0.5, 0.5]], [HALF_ROWS, HALF_ROWS[:3] + [["1.5", 0.5]]]),
            "an entry of row 3 of transitions of receiver 2 must be a real number, got '1.5'",
        ),
    },
    "string": {
        GaussianChannel: (
            ([[1.0, 1.0], [1.0, "x"]], [1.0, 1.0], [1.0, 1.0]),
            "an entry of row 1 of gains must be a real number, got 'x'",
        ),
        DmcChannel: (
            ([[0.5, 0.5], [0.5, "x"]], [HALF_ROWS, HALF_ROWS]),
            "an entry of input_pmfs of user 2 must be a real number, got 'x'",
        ),
    },
    "ragged row": {
        GaussianChannel: (
            ([[1.0, 1.0], [1.0]], [1.0, 1.0], [1.0, 1.0]),
            "gains rows must all have the same length",
        ),
        DmcChannel: (
            ([[0.5, 0.5], [0.5, 0.5]], [HALF_ROWS[:3] + [[1.0]], HALF_ROWS]),
            "transitions of receiver 1 rows must all have the same length",
        ),
    },
    "nested entry": {
        GaussianChannel: (
            ([[1.0, 1.0], [1.0, 1.0]], [[1.0], 1.0], [1.0, 1.0]),
            "an entry of powers must be a real number, got [1.0]",
        ),
        DmcChannel: (
            ([[0.5, 0.5], [0.5, 0.5]], [[[[0.5], 0.5]] + HALF_ROWS[1:], HALF_ROWS]),
            "an entry of row 0 of transitions of receiver 1 must be a real number, got [0.5]",
        ),
    },
    "huge integer": {
        GaussianChannel: (
            ([[1.0, 10**400], [1.0, 1.0]], [1.0, 1.0], [1.0, 1.0]),
            "an entry of row 0 of gains is too large for a float",
        ),
        DmcChannel: (
            ([[0.5, 0.5], [10**400, 0.5]], [HALF_ROWS, HALF_ROWS]),
            "an entry of input_pmfs of user 2 is too large for a float",
        ),
    },
}


@pytest.mark.parametrize("name", sorted(LIBRARY_NON_NUMBERS))
@pytest.mark.parametrize("backend", [GaussianChannel, DmcChannel], ids=["gaussian", "dmc"])
def test_constructors_refuse_non_numbers(backend, name):
    args, message = LIBRARY_NON_NUMBERS[name][backend]
    with pytest.raises(ValidationError) as excinfo:
        backend(*args)
    assert str(excinfo.value) == message


# Constructor arguments of the wrong shape or count, with the refusal message.
SHAPE_REFUSALS = [
    (GaussianChannel, ([], [], []), "powers must be a non-empty 1-D vector"),
    (GaussianChannel, ([[1.0]], [1.0], [1.0, 1.0]), "noise_vars length must match powers"),
    (DmcChannel, ([], []), "at least one user required"),
    (DmcChannel, ([[1.0]], []), "one transition table per receiver required"),
    (DmcChannel, ([[]], [[[1.0]]]), "input pmf of user 1 must be a 1-D vector"),
    (TabulatedRanks, (0, ()), "at least one user required"),
    (
        TabulatedRanks,
        (2, ({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},)),
        "one table per receiver required",
    ),
]


@pytest.mark.parametrize(
    "backend, args, message", SHAPE_REFUSALS, ids=[m for _, _, m in SHAPE_REFUSALS]
)
def test_constructors_refuse_shapes(backend, args, message):
    with pytest.raises(ValidationError) as excinfo:
        backend(*args)
    assert str(excinfo.value) == message


class TestDmcRank:
    def test_compares_and_hashes_by_identity(self):
        args = ([[0.5, 0.5]], [[[0.5, 0.5], [0.5, 0.5]]])
        channel, twin = DmcChannel(*args), DmcChannel(*args)
        assert channel == channel and channel != twin
        assert hash(channel) == hash(channel) and len({channel, twin}) == 2
        ranks = RankFunctionSet(channel)
        assert ranks == RankFunctionSet(channel) and ranks != RankFunctionSet(twin)
        assert hash(ranks) == hash(RankFunctionSet(channel))

    def test_empty_set_is_exactly_zero(self, xor_dmc_channel):
        assert dmc_rank_value(xor_dmc_channel, 1, set()) == 0.0

    def test_xor_channel_values(self, xor_dmc_channel):
        # One parity output: knowing the other input reveals a full bit,
        # knowing nothing reveals nothing.
        assert dmc_rank_value(xor_dmc_channel, 1, {1, 2}) == pytest.approx(1.0, abs=1e-12)
        assert dmc_rank_value(xor_dmc_channel, 1, {1}) == pytest.approx(1.0, abs=1e-12)
        assert dmc_rank_value(xor_dmc_channel, 1, {2}) == pytest.approx(1.0, abs=1e-12)

    def test_own_input_channel_ignores_other_user(self, xor_dmc_channel):
        # Receiver 2 hears only input 2.
        assert dmc_rank_value(xor_dmc_channel, 2, {1}) == pytest.approx(0.0, abs=1e-12)
        assert dmc_rank_value(xor_dmc_channel, 2, {2}) == pytest.approx(1.0, abs=1e-12)

    def test_budget_cap(self, xor_dmc_channel, monkeypatch):
        monkeypatch.setattr(fairsic.channels, "DEFAULT_DMC_TERM_CAP", 7)
        with pytest.raises(CapacityError, match="cap is 7"):
            dmc_rank_value(xor_dmc_channel, 1, {1})
        with pytest.raises(CapacityError, match="cap is 7"):
            xor_dmc_channel.drop_values(1, 0b11)
        with pytest.raises(CapacityError, match="cap is 7"):
            dmc_rank_value(xor_dmc_channel, 1, set())
        # Refused before any tensor of the receiver is built.
        assert not xor_dmc_channel._receiver_cache

    def test_budget_cap_admits_exact_tensor_size(self, xor_dmc_channel, monkeypatch):
        # 4 joint tuples x 2 outputs = 8 elements; a cap of 7 raises above.
        expected = greedy_profile(RankFunctionSet(xor_dmc_channel))
        monkeypatch.setattr(fairsic.channels, "DEFAULT_DMC_TERM_CAP", 8)
        assert dmc_rank_value(xor_dmc_channel, 1, {1}) == loop_dmc_rank_value(
            xor_dmc_channel, 1, {1}
        )
        report = greedy_profile(RankFunctionSet(xor_dmc_channel))
        assert (report.profile, report.rates) == (expected.profile, expected.rates)

    @pytest.mark.parametrize("per_buffer", [1, 2, 3, 4])
    def test_candidates_split_into_capped_buffers(self, per_buffer, monkeypatch):
        # 16 joint tuples x 2 outputs per candidate; four candidates per slot.
        channel = random_dmc_channel(4, rng_from_seed(2))
        expected = [channel.drop_values(j, 0b1111) for j in range(1, 5)]
        monkeypatch.setattr(fairsic.channels, "DEFAULT_DMC_TERM_CAP", 32 * per_buffer + 31)
        buffers = []
        empty = np.empty

        def recording(shape, *args, **kwargs):
            buffers.append(math.prod(shape))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording)
        assert [channel.drop_values(j, 0b1111) for j in range(1, 5)] == expected
        assert max(buffers) == 32 * per_buffer

    def test_rejects_invalid_pmf(self):
        uniform = np.array([0.5, 0.5])
        bad_rows = np.array([[0.9, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            DmcChannel((uniform, uniform), (bad_rows, bad_rows))
        with pytest.raises(ValidationError):
            DmcChannel((np.array([0.6, 0.6]), uniform), (bad_rows, bad_rows))

    def test_reports_first_bad_row(self):
        uniform = np.array([0.5, 0.5])
        rows = [[1.0, 0.0], [0.9, 0.0], [-1.0, 2.0], [np.nan, 1.0]]
        with pytest.raises(ValidationError, match=r"^transition row 1 of receiver 1 sums to 0\.9"):
            DmcChannel((uniform, uniform), (np.array(rows), np.array(rows)))
        rows[1] = [0.0, 1.0]
        with pytest.raises(
            ValidationError, match="^transition row 2 of receiver 1 has negative or non-finite"
        ):
            DmcChannel((uniform, uniform), (np.array(rows), np.array(rows)))

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_row_sums_ulps_from_the_tolerance(self, side):
        # A bulk sum of these 1,000 entries is 1-2 ulps off their exact sum.
        outcomes = set()
        for step in range(-4, 5):
            row = [0.001] * 999 + [0.001 + side * PMF_TOL + step * 2**-52]
            total = math.fsum(row)
            refused = abs(total - 1.0) > PMF_TOL
            outcomes.add(refused)
            if refused:
                with pytest.raises(ValidationError) as excinfo:
                    DmcChannel(([1.0],), ([row],))
                assert str(excinfo.value) == (
                    f"transition row 0 of receiver 1 sums to {total!r}, expected 1 within {PMF_TOL}"
                )
            else:
                DmcChannel(([1.0],), ([row],))
        assert outcomes == {False, True}

    def test_rejects_wrong_row_count(self):
        uniform = np.array([0.5, 0.5])
        short = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            DmcChannel((uniform, uniform), (short, short))

    def test_caller_arrays_stay_writable_and_detached(self):
        pmfs = (np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        tables = (
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.0, 1.0]]),
        )
        channel = DmcChannel(pmfs, tables)
        before = all_rank_values(dmc_rank_value, channel)
        for array in pmfs + tables:
            assert array.flags.writeable
            array[...] = 0.0
        assert all_rank_values(dmc_rank_value, channel) == before

    def test_underflowing_mass_evaluates(self):
        # p(x) p(y|x) = 1e-200 * 1e-200 underflows to 0 while the log
        # argument is 0; the term must count as 0 log 0 = 0.
        tiny = 1e-200
        skew, half = np.array([1 - tiny, tiny]), np.array([0.5, 0.5])
        rows = np.array([half, half, skew, half])
        channel = DmcChannel((skew, half), (rows, rows))
        values = all_rank_values(dmc_rank_value, channel)
        assert all(math.isfinite(value) for value in values)
        assert dmc_rank_value(channel, 1, {2}) > 0.0


def all_rank_values(evaluate, channel) -> list[float]:
    """Every (receiver, subset) value of a backend, receiver-major."""
    return [
        evaluate(channel, receiver, mask_users(mask))
        for receiver in range(1, channel.num_users + 1)
        for mask in range(1 << channel.num_users)
    ]


def loop_dmc_rank_value(channel: DmcChannel, receiver: int, users) -> float:
    """Reference: the conditional mutual information summed tuple by tuple.

    Walks every joint input tuple in row-major order, accumulates the
    complement-keyed marginal in that order and adds the terms with
    ``math.fsum``.  ``dmc_rank_value`` must return the same float.
    """
    members = frozenset(users)
    if not members:
        return 0.0
    sizes = channel.input_alphabet_sizes
    table = channel.transitions[receiver - 1]
    pmfs = channel.input_pmfs
    complement = [k for k in range(1, channel.num_users + 1) if k not in members]
    tuples = list(product(*(range(size) for size in sizes)))
    tuple_probs = []
    comp_joint = {}
    for row, inputs in enumerate(tuples):
        prob = 1.0
        for k, symbol in enumerate(inputs):
            prob *= float(pmfs[k][symbol])
        tuple_probs.append(prob)
        key = tuple(inputs[k - 1] for k in complement)
        if key in comp_joint:
            comp_joint[key] = comp_joint[key] + prob * table[row]
        else:
            comp_joint[key] = prob * table[row]
    comp_prob = {}
    for key in comp_joint:
        prob = 1.0
        for pos, k in enumerate(complement):
            prob *= float(pmfs[k - 1][key[pos]])
        comp_prob[key] = prob
    terms = []
    for row, inputs in enumerate(tuples):
        prob = tuple_probs[row]
        if prob == 0.0:
            continue
        key = tuple(inputs[k - 1] for k in complement)
        for y in range(table.shape[1]):
            lik = float(table[row, y])
            if lik == 0.0:
                continue
            ratio = lik * comp_prob[key] / float(comp_joint[key][y])
            terms.append(prob * lik * math.log2(ratio))
    return math.fsum(terms)


def assert_bit_identical_to_loop(channel: DmcChannel) -> None:
    for receiver in range(1, channel.num_users + 1):
        # The kernel divides p(y | x) p(x) by p(x) p(y | x): every kept ratio is 1.
        assert [value.hex() for value in channel._values(receiver, [0])] == [(0.0).hex()]
        for mask in range(1 << channel.num_users):
            users = mask_users(mask)
            assert dmc_rank_value(channel, receiver, users) == loop_dmc_rank_value(
                channel, receiver, users
            ), (receiver, sorted(users))


class TestDmcMatchesTupleLoop:
    def test_xor_fixture(self, xor_dmc_channel):
        assert_bit_identical_to_loop(xor_dmc_channel)

    @pytest.mark.parametrize("num_users", range(1, 7))
    def test_generated_channels(self, num_users):
        for seed in range(4):
            assert_bit_identical_to_loop(random_dmc_channel(num_users, rng_from_seed(seed)))

    @settings(max_examples=120, deadline=None)
    @given(small_dmc_channels())
    def test_small_alphabets_with_zero_mass(self, channel):
        assert_bit_identical_to_loop(channel)


class TestTabulated:
    def test_lookup(self):
        ranks = tabulated_from_values([(0.0, 0.5, 0.7, 1.0), (0.0, 0.1, 0.2, 0.3)])
        rs = RankFunctionSet.for_channel(ranks)
        assert rank_value(rs, 1, {1}) == 0.5
        assert rank_value(rs, 2, {1, 2}) == 0.3

    def test_incomplete_table_rejected(self):
        with pytest.raises(IncompleteTableError):
            TabulatedRanks(2, ({0: 0.0, 1: 1.0},) * 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            tabulated_from_values([(0.0, -1.0, 0.2, 0.3), (0.0, 0.1, 0.2, 0.3)])

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_direct_construction_checks_values(self, bad):
        good = {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3}
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            TabulatedRanks(2, ({**good, 3: bad}, good))

    @pytest.mark.parametrize("bad", ["0", True, None, 1j])
    def test_direct_construction_refuses_non_numbers(self, bad):
        good = {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3}
        with pytest.raises(ValidationError, match=r"for \[1\] must be a real number"):
            TabulatedRanks(2, ({**good, 1: bad}, good))

    def test_direct_construction_refuses_numbers_too_large_for_a_float(self):
        with pytest.raises(ValidationError, match=r"receiver 1 for \[1\] is too large for a float"):
            TabulatedRanks(1, ({0: 0.0, 1: 10**400},))

    @pytest.mark.parametrize(
        "value", [3, np.float64(0.25), Fraction(1, 3), np.int64(2), 0.0, -0.0]
    )
    def test_direct_construction_accepts_real_numbers(self, value):
        good = {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3}
        stored = TabulatedRanks(2, ({**good, 1: value}, good)).tables[0][1]
        assert type(stored) is float
        assert stored.hex() == float(value).hex()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "must be a real number, got True"),
            ("0", "must be a real number, got '0'"),
            (10**400, "is too large for a float"),
            (math.nan, "must be finite and nonnegative, got nan"),
            (-1.0, "must be finite and nonnegative, got -1.0"),
            (-1, "must be finite and nonnegative, got -1.0"),
            (np.float64(-0.5), "must be finite and nonnegative, got -0.5"),
        ],
    )
    def test_direct_construction_refusal_messages(self, bad, message):
        good = {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3}
        with pytest.raises(ValidationError) as excinfo:
            TabulatedRanks(2, (good, {**good, 2: bad}))
        assert str(excinfo.value) == f"tables entry of receiver 2 for [2] {message}"

    def test_caller_dicts_stay_detached(self):
        tables = ({0: 0.0, 1: 0.5, 2: 0.7, 3: 1.5}, {0: 0.0, 1: 0.1, 2: 0.2, 3: 0.3})
        ranks = RankFunctionSet.for_channel(TabulatedRanks(2, tables))
        assert rank_value(ranks, 1, {1, 2}) == 1.5  # warms the cache
        tables[0][3] = 9.0
        assert ranks.backend.tables[0][3] == 1.5
        assert rank_value(ranks, 1, {1, 2}) == 1.5


def weighted_log_table(weights: list[float]) -> dict[int, float]:
    """The generator's former expression, kept as a reference: for each mask,
    ``log2(1.0 + math.fsum(weights in S))``."""
    return {
        mask: math.log2(1.0 + math.fsum(w for k, w in enumerate(weights) if mask >> k & 1))
        for mask in range(1 << len(weights))
    }


@pytest.mark.parametrize("num_users", range(1, 13))
def test_submodular_tables_are_the_weighted_log_sums(num_users):
    # The same weight rows, drawn in the same order as the generator draws them.
    rng = rng_from_seed(num_users)
    rows = [rng.uniform(*WEIGHT_RANGE, size=num_users).tolist() for _ in range(num_users)]
    channel = generate_channel("tabulated-submodular", num_users, num_users)
    for table, weights in zip(channel.tables, rows):
        expected = weighted_log_table(weights)
        assert list(table) == list(expected)
        assert [v.hex() for v in table.values()] == [v.hex() for v in expected.values()]


class TestRankDispatch:
    def test_gaussian_dispatch_matches_direct(self, two_user_channel):
        rs = RankFunctionSet.for_channel(two_user_channel)
        for j in (1, 2):
            for mask in range(4):
                users = mask_users(mask)
                assert rank_value(rs, j, users) == fresh_rank_value(
                    two_user_channel, j, users
                )

    def test_dmc_dispatch_matches_direct(self, xor_dmc_channel):
        rs = RankFunctionSet.for_channel(xor_dmc_channel)
        assert rank_value(rs, 1, {1, 2}) == dmc_rank_value(xor_dmc_channel, 1, {1, 2})

    def test_purity_bit_identical(self, two_user_ranks):
        first = rank_value(two_user_ranks, 1, {1, 2})
        for _ in range(5):
            assert rank_value(two_user_ranks, 1, {2, 1}) == first

    def test_accepts_any_iterable(self, two_user_ranks):
        assert rank_value(two_user_ranks, 1, [2, 1]) == rank_value(
            two_user_ranks, 1, frozenset({1, 2})
        )


THREE_BACKENDS = [
    pytest.param(kind, channel, id=kind)
    for kind, channel in (
        ("gaussian", random_gaussian_channel(3, rng_from_seed(0))),
        ("dmc", random_dmc_channel(3, rng_from_seed(0))),
        ("tabulated", tabulated_from_values([(0.0, 0.5, 0.7, 1.0), (0.0, 0.1, 0.2, 0.3)])),
    )
]


@pytest.mark.parametrize("kind, channel", THREE_BACKENDS)
class TestSingleValidationPoint:
    def test_out_of_range_raises_cold_and_warm(self, kind, channel):
        ranks = RankFunctionSet.for_channel(channel)
        top = channel.num_users + 1
        for warm in (False, True):
            if warm:
                all_rank_values(lambda _, receiver, users: rank_value(ranks, receiver, users), channel)
                assert len(ranks._cache) == channel.num_users << channel.num_users
            for receiver in (0, top):
                with pytest.raises(IndexError):
                    rank_value(ranks, receiver, {1})
            for user in (0, top):
                with pytest.raises(IndexError):
                    rank_value(ranks, 1, {1, user})

    def test_kind_and_size_come_from_backend(self, kind, channel):
        ranks = RankFunctionSet.for_channel(channel)
        assert ranks.backend is channel
        assert ranks.kind == type(channel).kind == kind
        assert ranks.num_users == channel.num_users


def test_for_channel_rejects_other_types():
    with pytest.raises(TypeError):
        RankFunctionSet.for_channel(object())


def test_direct_construction_rejects_other_types():
    with pytest.raises(TypeError):
        RankFunctionSet(object())


@pytest.mark.parametrize("kind, channel", THREE_BACKENDS)
def test_layers_call_rank_value_by_module_name(kind, channel, monkeypatch):
    """Greedy, rates and axioms evaluate through their own ``rank_value`` name.

    Tracing wraps those names with a wrapper that turns the users into a
    frozenset; a refactor that bypasses them would leave traced counts at 0.
    The one exception: the axiom layer reads a tabulated backend's stored
    tables whole, and reports what a ``rank_value`` fill gives.
    """
    ranks = RankFunctionSet.for_channel(channel)
    plain = greedy_profile(ranks, force=True)
    plain_axioms = validate_rank_axioms(ranks)
    calls = {}
    seen = set()
    for module in (fairsic.greedy, fairsic.rates, fairsic.axioms):

        def counting(ranks, receiver, users, *, name=module.__name__, inner=module.rank_value):
            users = frozenset(users)
            calls[name] = calls.get(name, 0) + 1
            seen.add((receiver, check_users(ranks.num_users, users)))
            return inner(ranks, receiver, users)

        monkeypatch.setattr(module, "rank_value", counting)
    fresh = RankFunctionSet.for_channel(channel)
    traced = greedy_profile(fresh, force=True)
    assert (traced.profile, traced.rates) == (plain.profile, plain.rates)
    assert calls.keys() == {"fairsic.greedy", "fairsic.rates"}
    assert rate_vector(fresh, traced.profile) == plain.rates
    assert validate_rank_axioms(fresh) == plain_axioms
    if kind == "tabulated":
        assert calls.keys() == {"fairsic.greedy", "fairsic.rates"}
        size = 1 << ranks.num_users
        filled = np.array(
            [
                [rank_value(ranks, j, mask_users(mask)) for mask in range(size)]
                for j in range(1, ranks.num_users + 1)
            ]
        )
        assert plain_axioms == AxiomReport(
            plain_axioms.tol,
            tuple(
                ReceiverAxiomReport(j, *violations)
                for j, violations in enumerate(_receiver_violations(filled), start=1)
            ),
        )
    else:
        assert calls.keys() == {"fairsic.greedy", "fairsic.rates", "fairsic.axioms"}
    assert all(count > 0 for count in calls.values())
    # Every value the rank set holds was asked for through a traced name.
    assert set(fresh._cache) == seen


def test_mask_round_trip():
    for mask in range(16):
        assert check_users(4, mask_users(mask)) == mask
