"""Channel descriptions and the per-receiver rank functions they induce.

Every receiver j of a K-user channel carries a set function over user
subsets: the value of a subset S is the conditional mutual information
between the receiver's output and the inputs in S, given the inputs
outside S.  For the Gaussian channel this collapses to a closed form,
log2(1 + sum of received powers over S / noise variance), which is the
same function shifted so that the empty set maps to zero; only
differences of values are ever consumed downstream, so the shift is
harmless and makes the normalization axiom exact.

Users and receivers are 1-based throughout (user k, receiver j, both in
1..K), matching the scenario file format and all rendered output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import CapacityError, IncompleteTableError, ValidationError

PMF_TOL = 1e-12
DEFAULT_AXIOM_TOL = 1e-9
DEFAULT_EQ_TOL = 1e-12
# Cap on (joint input tuples) x (output letters) per rank value: the element
# count of the largest tensor one evaluation allocates, so it bounds memory.
DEFAULT_DMC_TERM_CAP = 1 << 24


def full_user_set(num_users: int) -> frozenset[int]:
    return frozenset(range(1, num_users + 1))


def check_receiver(num_users: int, receiver: int) -> None:
    if not 1 <= receiver <= num_users:
        raise IndexError(f"receiver {receiver} out of range 1..{num_users}")


def check_users(num_users: int, users: Iterable[int]) -> frozenset[int]:
    members = frozenset(users)
    for user in members:
        if not 1 <= user <= num_users:
            raise IndexError(f"user {user} out of range 1..{num_users}")
    return members


def user_mask(users: Iterable[int]) -> int:
    """Bitmask encoding of a user set; bit (k-1) set means user k present."""
    mask = 0
    for user in users:
        mask |= 1 << (user - 1)
    return mask


def mask_users(mask: int) -> frozenset[int]:
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array, dtype=float)
    array.setflags(write=False)
    return array


def _check_pmfs(rows: np.ndarray, label: str) -> None:
    """Require every row of a 2-D array to be a pmf; report the first bad row.

    ``label.format(row)`` names a failing row in the error message.
    """
    broken = (rows < 0).any(axis=1) | ~np.isfinite(rows).all(axis=1)
    for row, (entries, bad) in enumerate(zip(rows.tolist(), broken.tolist())):
        if bad:
            raise ValidationError(f"{label.format(row)} has negative or non-finite entries")
        total = math.fsum(entries)
        if abs(total - 1.0) > PMF_TOL:
            raise ValidationError(
                f"{label.format(row)} sums to {total!r}, expected 1 within {PMF_TOL}"
            )


def _product_pmf(pmfs: Iterable[np.ndarray]) -> np.ndarray:
    """Joint pmf of independent inputs, multiplied left to right from 1.0."""
    joint = np.float64(1.0)
    for pmf in pmfs:
        joint = np.multiply.outer(joint, pmf)
    return np.asarray(joint)


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian interference channel: gains, transmit powers, noise variances.

    ``gains[j-1, i-1]`` is the power gain from transmitter i to receiver j.
    ``received_powers`` caches gains * powers so that rank evaluation and
    the descending-power fast path sort on bit-identical keys.
    """

    gains: np.ndarray
    powers: np.ndarray
    noise_vars: np.ndarray
    received_powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gains = _freeze(self.gains)
        powers = _freeze(self.powers)
        noise_vars = _freeze(self.noise_vars)
        num_users = powers.shape[0] if powers.ndim == 1 else 0
        if num_users < 1:
            raise ValidationError("powers must be a non-empty 1-D vector")
        if gains.shape != (num_users, num_users):
            raise ValidationError(
                f"gains must be {num_users}x{num_users}, got {gains.shape}"
            )
        if noise_vars.shape != (num_users,):
            raise ValidationError("noise_vars length must match powers")
        for name, arr in (("gains", gains), ("powers", powers), ("noise_vars", noise_vars)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        if np.any(gains < 0) or np.any(powers < 0):
            raise ValidationError("gains and powers must be nonnegative")
        if np.any(noise_vars <= 0):
            raise ValidationError("noise_vars must be strictly positive")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "noise_vars", noise_vars)
        object.__setattr__(self, "received_powers", _freeze(gains * powers[np.newaxis, :]))

    @property
    def num_users(self) -> int:
        return self.powers.shape[0]


def gaussian_rank_value(channel: GaussianChannel, receiver: int, users: Iterable[int]) -> float:
    """Rank value log2(1 + sum of received powers over the set / noise).

    The subset sum runs over ascending user index via ``math.fsum`` so that
    identical sets always produce bit-identical values and sets with equal
    received-power multisets tie exactly.
    """
    check_receiver(channel.num_users, receiver)
    members = check_users(channel.num_users, users)
    if not members:
        return 0.0
    row = channel.received_powers[receiver - 1]
    interference = math.fsum(float(row[user - 1]) for user in sorted(members))
    return math.log2(1.0 + interference / float(channel.noise_vars[receiver - 1]))


@dataclass(frozen=True)
class DmcChannel:
    """Discrete memoryless channel restricted to per-receiver output marginals.

    ``input_pmfs[k-1]`` is the fixed input distribution of user k; inputs
    are independent across users.  ``transitions[j-1]`` has one row per
    joint input tuple (row-major over (x_1, ..., x_K)) holding a pmf over
    receiver j's output alphabet.  ``joint_input_pmf`` caches the product
    law of the inputs as a (|X_1|, ..., |X_K|) array.
    """

    input_pmfs: tuple[np.ndarray, ...]
    transitions: tuple[np.ndarray, ...]
    joint_input_pmf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pmfs = tuple(_freeze(p) for p in self.input_pmfs)
        tables = tuple(_freeze(t) for t in self.transitions)
        num_users = len(pmfs)
        if num_users < 1:
            raise ValidationError("at least one user required")
        if len(tables) != num_users:
            raise ValidationError("one transition table per receiver required")
        joint = 1
        for k, pmf in enumerate(pmfs, start=1):
            if pmf.ndim != 1 or pmf.shape[0] < 1:
                raise ValidationError(f"input pmf of user {k} must be a 1-D vector")
            _check_pmfs(pmf[np.newaxis], f"input pmf of user {k}")
            joint *= pmf.shape[0]
        for j, table in enumerate(tables, start=1):
            if table.ndim != 2 or table.shape[0] != joint:
                raise ValidationError(
                    f"transition table of receiver {j} must have {joint} rows"
                )
            _check_pmfs(table, f"transition row {{}} of receiver {j}")
        object.__setattr__(self, "input_pmfs", pmfs)
        object.__setattr__(self, "transitions", tables)
        object.__setattr__(self, "joint_input_pmf", _freeze(_product_pmf(pmfs)))

    @property
    def num_users(self) -> int:
        return len(self.input_pmfs)

    @property
    def input_alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(p.shape[0] for p in self.input_pmfs)

    @property
    def output_alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.transitions)


def dmc_rank_value(
    channel: DmcChannel,
    receiver: int,
    users: Iterable[int],
    *,
    term_cap: int = DEFAULT_DMC_TERM_CAP,
) -> float:
    """Conditional mutual information I(output_j ; inputs in S | inputs outside S).

    Exact evaluation on the (|X_1|, ..., |X_K|, |Y_j|) tensor with the
    0 log 0 = 0 convention.  Raises CapacityError when the tensor would
    exceed ``term_cap`` elements.

    The result is bit-identical to summing ``p(x) p(y|x) log2(p(y|x) /
    p(y|x_outside))`` tuple by tuple, and rank values are compared for
    exact equality downstream, so the rounding of every step is fixed:
    the marginal over S is accumulated sequentially in row-major order
    (``np.add.accumulate``, never the pairwise ``np.sum``), logs come from
    ``math.log2`` (``np.log2`` may differ by one ulp) and the terms are
    added by ``math.fsum``.
    """
    check_receiver(channel.num_users, receiver)
    members = check_users(channel.num_users, users)
    if not members:
        return 0.0
    sizes = channel.input_alphabet_sizes
    out_size = channel.output_alphabet_sizes[receiver - 1]
    joint = math.prod(sizes)
    if joint * out_size > term_cap:
        raise CapacityError(
            f"rank evaluation needs {joint} joint tuples x "
            f"{out_size} outputs, cap is {term_cap}"
        )
    inside = sorted(k - 1 for k in members)
    complement = [k for k in range(channel.num_users) if k + 1 not in members]
    prob = channel.joint_input_pmf[..., np.newaxis]
    lik = channel.transitions[receiver - 1].reshape(sizes + (out_size,))
    mass = prob * lik  # p(x, y)

    # p(x_outside, y): the S-coordinates flattened row-major to the front
    # and added one slice after another, as a tuple-by-tuple sum would.
    stacked = np.moveaxis(mass, inside, range(len(inside)))
    stacked = stacked.reshape((-1,) + stacked.shape[len(inside):])
    kept_shape = tuple(1 if k + 1 in members else size for k, size in enumerate(sizes))
    marginal = np.add.accumulate(stacked, axis=0)[-1].reshape(kept_shape + (out_size,))
    comp_mass = _product_pmf(channel.input_pmfs[k] for k in complement)
    comp_mass = comp_mass.reshape(kept_shape + (1,))

    keep = (prob != 0.0) & (lik != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # p(y | x_outside) = marginal / comp_mass
        ratio = (lik * comp_mass) / marginal
    logs = map(math.log2, ratio[keep].tolist())
    return math.fsum(map(operator.mul, mass[keep].tolist(), logs))


@dataclass(frozen=True)
class TabulatedRanks:
    """Explicit per-receiver tables mapping every user subset to a value.

    Construction requires a complete table (all 2^K subsets per receiver);
    rank-axiom compliance is *not* checked here, so violating tables can be
    built on purpose and fed to the axiom validator.
    """

    num_users: int
    tables: tuple[Mapping[int, float], ...]  # per receiver: mask -> value

    @classmethod
    def from_subsets(
        cls,
        num_users: int,
        tables: Iterable[Iterable[tuple[Iterable[int], float]]],
    ) -> "TabulatedRanks":
        """Build from per-receiver (user list, value) pairs."""
        packed: list[dict[int, float]] = []
        for j, entries in enumerate(tables, start=1):
            table: dict[int, float] = {}
            for users, value in entries:
                members = check_users(num_users, users)
                value = float(value)
                if not math.isfinite(value) or value < 0:
                    raise ValidationError(
                        f"receiver {j} table value for {sorted(members)} must be "
                        f"finite and nonnegative, got {value!r}"
                    )
                table[user_mask(members)] = value
            packed.append(table)
        return cls(num_users, tuple(packed))

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValidationError("at least one user required")
        if len(self.tables) != self.num_users:
            raise ValidationError("one table per receiver required")
        expected = 1 << self.num_users
        for j, table in enumerate(self.tables, start=1):
            if len(table) != expected or set(table) != set(range(expected)):
                missing = sorted(set(range(expected)) - set(table))
                raise IncompleteTableError(
                    f"receiver {j} table must cover all {expected} subsets; "
                    f"missing masks {missing[:4]}{'...' if len(missing) > 4 else ''}"
                )


def tabulated_rank_value(ranks: TabulatedRanks, receiver: int, users: Iterable[int]) -> float:
    check_receiver(ranks.num_users, receiver)
    members = check_users(ranks.num_users, users)
    mask = user_mask(members)
    try:
        return ranks.tables[receiver - 1][mask]
    except KeyError:
        raise IncompleteTableError(
            f"receiver {receiver} table has no entry for {sorted(members)}"
        ) from None


Channel = Union[GaussianChannel, DmcChannel, TabulatedRanks]


@dataclass(frozen=True)
class RankFunctionSet:
    """One rank function per receiver behind a single evaluation interface.

    Evaluation is pure; a private memo table keyed by (receiver, subset
    mask) caches values, which is safe because backends are immutable.
    The rank-axiom verdict per tolerance is memoized separately.
    """

    num_users: int
    kind: str  # "gaussian" | "dmc" | "tabulated"
    backend: Channel
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _axiom_verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def for_channel(cls, channel: Channel) -> "RankFunctionSet":
        if isinstance(channel, GaussianChannel):
            return cls(channel.num_users, "gaussian", channel)
        if isinstance(channel, DmcChannel):
            return cls(channel.num_users, "dmc", channel)
        if isinstance(channel, TabulatedRanks):
            return cls(channel.num_users, "tabulated", channel)
        raise TypeError(f"unsupported channel type: {type(channel)!r}")


def rank_value(ranks: RankFunctionSet, receiver: int, users: Iterable[int]) -> float:
    """Evaluate receiver ``receiver``'s rank function on a user set."""
    check_receiver(ranks.num_users, receiver)
    members = check_users(ranks.num_users, users)
    key = (receiver, user_mask(members))
    cached = ranks._cache.get(key)
    if cached is not None:
        return cached
    if ranks.kind == "gaussian":
        value = gaussian_rank_value(ranks.backend, receiver, members)
    elif ranks.kind == "dmc":
        value = dmc_rank_value(ranks.backend, receiver, members)
    elif ranks.kind == "tabulated":
        value = tabulated_rank_value(ranks.backend, receiver, members)
    else:
        raise ValidationError(f"unknown backend kind {ranks.kind!r}")
    ranks._cache[key] = value
    return value
