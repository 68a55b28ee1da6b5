import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsic import (
    CapacityError,
    DmcChannel,
    GaussianChannel,
    IncompleteTableError,
    RankFunctionSet,
    TabulatedRanks,
    ValidationError,
    dmc_rank_value,
    gaussian_rank_value,
    random_dmc_channel,
    rank_value,
    rng_from_seed,
)
from fairsic.channels import mask_users, user_mask

from conftest import LOG2_1_1, LOG2_3, tabulated_from_values


class TestGaussianRank:
    def test_empty_set_is_exactly_zero(self, two_user_channel):
        for j in (1, 2):
            assert gaussian_rank_value(two_user_channel, j, set()) == 0.0

    def test_frozen_values(self, two_user_channel):
        assert gaussian_rank_value(two_user_channel, 1, {2}) == pytest.approx(
            LOG2_3, abs=1e-15
        )
        assert gaussian_rank_value(two_user_channel, 1, {1, 2}) == 2.0
        assert gaussian_rank_value(two_user_channel, 2, {1}) == pytest.approx(
            LOG2_1_1, abs=1e-15
        )

    def test_single_user_awgn(self):
        channel = GaussianChannel(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
        assert gaussian_rank_value(channel, 1, {1}) == 1.0

    def test_out_of_range_receiver_and_user(self, two_user_channel):
        with pytest.raises(IndexError):
            gaussian_rank_value(two_user_channel, 3, {1})
        with pytest.raises(IndexError):
            gaussian_rank_value(two_user_channel, 1, {0})
        with pytest.raises(IndexError):
            gaussian_rank_value(two_user_channel, 1, {3})

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
                lhs = gaussian_rank_value(two_user_channel, 1, a) - gaussian_rank_value(
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
        with pytest.raises(ValueError):
            two_user_channel.gains[0, 0] = 5.0


class TestDmcRank:
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

    def test_budget_cap(self, xor_dmc_channel):
        with pytest.raises(CapacityError):
            dmc_rank_value(xor_dmc_channel, 1, {1}, term_cap=7)

    def test_budget_cap_admits_exact_tensor_size(self, xor_dmc_channel):
        # 4 joint tuples x 2 outputs = 8 elements; a cap of 7 raises above.
        assert dmc_rank_value(xor_dmc_channel, 1, {1}, term_cap=8) == loop_dmc_rank_value(
            xor_dmc_channel, 1, {1}
        )

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

    def test_rejects_wrong_row_count(self):
        uniform = np.array([0.5, 0.5])
        short = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            DmcChannel((uniform, uniform), (short, short))


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
        for mask in range(1 << channel.num_users):
            users = mask_users(mask)
            assert dmc_rank_value(channel, receiver, users) == loop_dmc_rank_value(
                channel, receiver, users
            ), (receiver, sorted(users))


def _weights(size: int):
    """Nonnegative pmf weights with zeros, at least one positive."""
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    return st.lists(entry, min_size=size, max_size=size).map(
        lambda w: w if any(w) else [1.0] + w[1:]
    )


def _pmf(weights) -> np.ndarray:
    raw = np.array(weights)
    return raw / raw.sum()


@st.composite
def small_dmc_channels(draw) -> DmcChannel:
    num_users = draw(st.integers(1, 3))
    in_sizes = draw(st.lists(st.integers(1, 3), min_size=num_users, max_size=num_users))
    out_sizes = draw(st.lists(st.integers(1, 3), min_size=num_users, max_size=num_users))
    joint = math.prod(in_sizes)
    pmfs = tuple(_pmf(draw(_weights(size))) for size in in_sizes)
    tables = tuple(
        np.vstack([_pmf(draw(_weights(size))) for _ in range(joint)]) for size in out_sizes
    )
    return DmcChannel(pmfs, tables)


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
            TabulatedRanks.from_subsets(2, [[([], 0.0), ([1], 1.0)]] * 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            tabulated_from_values([(0.0, -1.0, 0.2, 0.3), (0.0, 0.1, 0.2, 0.3)])


class TestRankDispatch:
    def test_gaussian_dispatch_matches_direct(self, two_user_channel):
        rs = RankFunctionSet.for_channel(two_user_channel)
        for j in (1, 2):
            for mask in range(4):
                users = mask_users(mask)
                assert rank_value(rs, j, users) == gaussian_rank_value(
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


def test_mask_round_trip():
    for mask in range(16):
        assert user_mask(mask_users(mask)) == mask
