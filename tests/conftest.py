import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fairsic import (
    DmcChannel,
    GaussianChannel,
    RankFunctionSet,
    TabulatedRanks,
)

# Worked two-user fixture used throughout: receiver 1 hears user 2 at twice
# its own user's power, receiver 2 hears user 1 only faintly.
TWO_USER_GAINS = [[1.0, 2.0], [0.1, 1.0]]

# Frozen oracle values (direct formula evaluation, see README worked example).
LOG2_3 = 1.584962500721156  # log2(1 + 2/1)
LOG2_1_1 = 0.13750352374993502  # log2(1 + 0.1/1)
LOG2_21_11 = 0.932885804141463  # log2(21/11), the fixture's min rate
LOG2_4_3 = 0.41503749927884376  # log2(1 + 1/3)


@pytest.fixture
def two_user_channel() -> GaussianChannel:
    return GaussianChannel(
        np.array(TWO_USER_GAINS), np.array([1.0, 1.0]), np.array([1.0, 1.0])
    )


@pytest.fixture
def two_user_ranks(two_user_channel) -> RankFunctionSet:
    return RankFunctionSet.for_channel(two_user_channel)


@pytest.fixture
def single_user_ranks() -> RankFunctionSet:
    channel = GaussianChannel(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    return RankFunctionSet.for_channel(channel)


@pytest.fixture
def xor_dmc_channel() -> DmcChannel:
    """Receiver 1 sees the XOR of both binary inputs, receiver 2 sees input 2."""
    uniform = np.array([0.5, 0.5])
    xor_rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    own_rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return DmcChannel((uniform, uniform), (xor_rows, own_rows))


def tabulated_from_values(values_per_receiver) -> TabulatedRanks:
    """Build a K=2 tabulated backend from (empty, {1}, {2}, {1,2}) values."""
    return TabulatedRanks(2, tuple(dict(enumerate(values)) for values in values_per_receiver))


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


@st.composite
def small_tabulated_ranks(draw) -> TabulatedRanks:
    """Tables of any nonnegative values: drop lookups need no rank axioms."""
    num_users = draw(st.integers(1, 4))
    value = st.floats(0.0, 10.0)
    tables = [draw(st.lists(value, min_size=1 << num_users, max_size=1 << num_users))
              for _ in range(num_users)]
    return TabulatedRanks(num_users, tuple(dict(enumerate(table)) for table in tables))
