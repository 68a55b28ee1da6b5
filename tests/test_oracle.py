import itertools
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsic import (
    CapacityError,
    DecodingOrder,
    DmcChannel,
    DecodingProfile,
    EnumerationBudget,
    GaussianChannel,
    NonRankInputError,
    RankFunctionSet,
    TabulatedRanks,
    ValidationError,
    brute_force_maxmin,
    certify,
    count_orders,
    decode_sequence,
    enumerate_orders,
    generate_channel,
    greedy_profile,
    min_rate,
    random_dmc_channel,
    random_gaussian_channel,
    random_submodular_tables,
    rate_vector,
    rng_from_seed,
    validate_rank_axioms,
)

from fairsic.channels import DEFAULT_AXIOM_TOL

from conftest import LOG2_21_11, tabulated_from_values


def reference_configurations(num_users, receiver):
    """Independent enumeration: filter raw decode sequences over subsets."""
    users = range(1, num_users + 1)
    found = set()
    for size in range(1, num_users + 1):
        for subset in itertools.combinations(users, size):
            if receiver not in subset:
                continue
            for sequence in itertools.permutations(subset):
                if sequence[-1] == receiver:
                    found.add(sequence)
    return found


def superadditive_tables(num_users, rng):
    """Monotone, normalized tables that break submodularity: squared sums."""
    tables = []
    for _ in range(num_users):
        weights = rng.uniform(0.1, 2.0, size=num_users)
        tables.append({
            mask: sum(float(weights[k]) for k in range(num_users) if mask >> k & 1) ** 2
            for mask in range(1 << num_users)
        })
    return TabulatedRanks(num_users, tuple(tables))


def symmetric_gaussian_channel(num_users):
    """Identical links everywhere, so many profiles tie exactly."""
    return GaussianChannel(
        np.ones((num_users, num_users)), np.ones(num_users), np.ones(num_users)
    )


def direct_scan_cases():
    """Rank sets at K <= 3 from all five channel families."""
    for num_users in (1, 2, 3):
        for seed in (5, 6):
            rng = rng_from_seed(seed)
            yield RankFunctionSet.for_channel(random_gaussian_channel(num_users, rng))
            yield RankFunctionSet.for_channel(random_dmc_channel(num_users, rng))
            yield RankFunctionSet.for_channel(random_submodular_tables(num_users, rng))
        yield RankFunctionSet.for_channel(symmetric_gaussian_channel(num_users))
    for num_users in (2, 3):
        ranks = RankFunctionSet.for_channel(
            superadditive_tables(num_users, rng_from_seed(num_users))
        )
        assert not validate_rank_axioms(ranks).passed
        yield ranks


class TestEnumeration:
    def test_counts_closed_form(self):
        assert [count_orders(num_users) for num_users in (1, 2, 3, 4)] == [1, 2, 5, 16]

    def test_counts_match_enumeration(self):
        for num_users in (1, 2, 3, 4):
            for receiver in range(1, num_users + 1):
                orders = enumerate_orders(num_users, receiver)
                assert len(orders) == count_orders(num_users)
                assert len(set(orders)) == len(orders)

    def test_matches_independent_enumeration(self):
        for num_users in (1, 2, 3, 4):
            for receiver in range(1, num_users + 1):
                produced = {
                    decode_sequence(o) for o in enumerate_orders(num_users, receiver)
                }
                assert produced == reference_configurations(num_users, receiver)

    def test_ascending_perm_order_matches_sequence_construction(self):
        # The construction that enumerate_orders replaced: decode sequences
        # grouped by length, then sorted by perm, the order that
        # brute_force_maxmin's tie-break reads.
        budget = EnumerationBudget(K_limit=5)
        for num_users in range(1, 6):
            for receiver in range(1, num_users + 1):
                others = [u for u in range(1, num_users + 1) if u != receiver]
                reference = sorted(
                    (
                        DecodingOrder.from_decode_sequence(receiver, head + (receiver,), num_users)
                        for decoded_before in range(num_users)
                        for head in itertools.permutations(others, decoded_before)
                    ),
                    key=lambda o: o.perm,
                )
                assert enumerate_orders(num_users, receiver, budget) == reference

    def test_two_user_configurations(self):
        sequences = {decode_sequence(o) for o in enumerate_orders(2, 1)}
        assert sequences == {(1,), (2, 1)}

    def test_user_count_guard(self):
        with pytest.raises(CapacityError):
            enumerate_orders(5, 1)
        assert len(enumerate_orders(5, 1, EnumerationBudget(K_limit=5))) == 65

    @pytest.mark.parametrize("receiver", [0, 4])
    def test_receiver_out_of_range(self, receiver):
        with pytest.raises(IndexError, match="out of range 1..3"):
            enumerate_orders(3, receiver)

    def test_budget_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="K_limit must be positive"):
            EnumerationBudget(0)


class TestBruteForce:
    def test_two_user_fixture(self, two_user_ranks):
        result = brute_force_maxmin(two_user_ranks)
        assert result.num_configs == 4
        assert result.opt_min_rate == pytest.approx(LOG2_21_11, abs=1e-12)
        assert [decode_sequence(o) for o in result.best_profile.orders] == [(2, 1), (2,)]

    def test_single_user(self, single_user_ranks):
        result = brute_force_maxmin(single_user_ranks)
        assert result.num_configs == 1
        assert result.opt_min_rate == 1.0

    def test_matches_direct_profile_scan(self):
        # Independent slow path: evaluate min_rate(rate_vector(...)) on the
        # cartesian product of perm-sorted configurations, keeping the first
        # strict improvement, so value, tie-broken profile and count must all
        # agree with the oracle.
        for ranks in direct_scan_cases():
            num_users = ranks.num_users
            per_receiver = [
                sorted(enumerate_orders(num_users, j), key=lambda o: o.perm)
                for j in range(1, num_users + 1)
            ]
            best, best_profile, count = -1.0, None, 0
            for combo in itertools.product(*per_receiver):
                count += 1
                profile = DecodingProfile(combo)
                value, _ = min_rate(rate_vector(ranks, profile))
                if value > best:
                    best, best_profile = value, profile
            result = brute_force_maxmin(ranks)
            assert result.opt_min_rate == best
            assert result.best_profile == best_profile
            assert result.num_configs == count

    def test_k_limit_is_the_only_budget(self):
        """Raising ``K_limit`` is enough: the joint profiles are never walked."""
        channel = random_gaussian_channel(5, rng_from_seed(0))
        ranks = RankFunctionSet.for_channel(channel)
        result = brute_force_maxmin(ranks, EnumerationBudget(K_limit=5))
        assert result.opt_min_rate == pytest.approx(greedy_profile(ranks).min_rate, abs=1e-9)
        assert result.num_configs == count_orders(5) ** 5

    def test_repeatable(self, two_user_ranks):
        first = brute_force_maxmin(two_user_ranks)
        second = brute_force_maxmin(two_user_ranks)
        assert first == second


class TestCertify:
    def test_passes_on_fixture(self, two_user_ranks):
        report = certify(two_user_ranks)
        assert report.passed
        assert report.gap == 0.0
        assert report.greedy.min_rate == report.oracle.opt_min_rate

    def test_passes_on_single_user(self, single_user_ranks):
        report = certify(single_user_ranks)
        assert report.passed and report.gap == 0.0

    def test_passes_on_random_tabulated(self):
        for seed in (21, 22, 23):
            ranks = RankFunctionSet.for_channel(
                random_submodular_tables(3, rng_from_seed(seed))
            )
            assert certify(ranks).passed

    def test_corrupted_table_reports_counterexample_on_failure(self):
        # Superadditive table: optimality is void, the report must stay
        # internally consistent either way.
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 2.0)])
        )
        report = certify(ranks, force=True)
        greedy = greedy_profile(ranks, force=True)
        assert report.oracle.opt_min_rate >= greedy.min_rate
        assert report.greedy == greedy
        # The CLI prints the oracle's best profile as the counterexample on failure.
        value, _ = min_rate(rate_vector(ranks, report.oracle.best_profile))
        assert value == report.oracle.opt_min_rate

    def test_oracle_does_not_read_the_greedys_values(self, monkeypatch):
        """The oracle scores on its own rank set: a greedy walk that reports its
        first slot 0.01 high skews the greedy's rates, and certify catches it."""
        channel = generate_channel("gaussian", 4, 1)
        assert certify(RankFunctionSet.for_channel(channel)).passed
        walk = GaussianChannel._walk

        def skewed(self, receiver):
            with closing(walk(self, receiver)) as inner:
                best, tied = next(inner)
                chosen = yield best + 0.01, tied
                while True:
                    chosen = yield inner.send(chosen)

        monkeypatch.setattr(GaussianChannel, "_walk", skewed)
        report = certify(RankFunctionSet.for_channel(channel))
        assert not report.passed
        fresh = brute_force_maxmin(RankFunctionSet.for_channel(channel))
        assert report.oracle == fresh

    # Zero, signed-zero, subnormal and near-overflow gains and powers, over noise
    # from the smallest subnormal up.
    EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_extreme_gaussian_inputs_are_certified_or_refused(self, data):
        num_users = data.draw(st.integers(1, 4))
        extreme = st.lists(st.sampled_from(self.EXTREMES), min_size=num_users, max_size=num_users)
        gains = data.draw(st.lists(extreme, min_size=num_users, max_size=num_users))
        powers = data.draw(extreme)
        noise = data.draw(
            st.lists(
                st.sampled_from((5e-324, 1e-300, 1.0, 2.0)), min_size=num_users, max_size=num_users
            )
        )
        try:
            channel = GaussianChannel(gains, powers, noise)
        except ValidationError:
            return
        report = certify(RankFunctionSet.for_channel(channel))
        assert report.passed
        assert all(rate >= 0 for rate in report.greedy.rates)

    # Masses of input and output symbols: zero in two of five entries, one subnormal-scale.
    MASSES = (0.0, 0.0, 1e-300, 0.25, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_zero_mass_dmc_inputs_are_certified_or_refused(self, data):
        num_users = data.draw(st.integers(1, 3))
        sizes = st.lists(st.integers(1, 3), min_size=num_users, max_size=num_users)
        in_sizes, out_sizes = data.draw(sizes), data.draw(sizes)

        def pmf(size):
            masses = st.lists(st.sampled_from(self.MASSES), min_size=size, max_size=size)
            weights = data.draw(masses)
            weights = np.array(weights if any(weights) else [1.0] + weights[1:])
            return weights / weights.sum()

        joint = int(np.prod(in_sizes))
        pmfs = [pmf(size) for size in in_sizes]
        tables = [np.array([pmf(size) for _ in range(joint)]) for size in out_sizes]
        try:
            channel = DmcChannel(pmfs, tables)
        except ValidationError:
            return
        report = certify(RankFunctionSet.for_channel(channel))
        assert report.passed and report.gap <= DEFAULT_AXIOM_TOL
        assert all(rate >= 0 for rate in report.greedy.rates)


class TestTolerance:
    """``tol`` reaches every marginal clamp: the greedy's rates and the oracle's."""

    @staticmethod
    def near_monotone(drop):
        row = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0 - drop}
        return RankFunctionSet(TabulatedRanks(2, (row, row)))

    def test_drop_within_tol_clamps(self):
        ranks = self.near_monotone(5e-9)
        assert greedy_profile(ranks, tol=1e-8).rates == (0.0, 0.0)
        assert brute_force_maxmin(ranks, tol=1e-8).opt_min_rate == 0.0
        report = certify(ranks, tol=1e-8)
        assert (report.passed, report.gap) == (True, 0.0)

    def test_drop_beyond_tol_is_refused(self):
        ranks = self.near_monotone(5e-9)
        with pytest.raises(NonRankInputError, match="negative beyond tolerance 1e-09"):
            greedy_profile(ranks, force=True)
        with pytest.raises(NonRankInputError, match="negative beyond tolerance 1e-09"):
            brute_force_maxmin(ranks)
        with pytest.raises(NonRankInputError, match="negative beyond tolerance 1e-09"):
            certify(ranks, force=True)
