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
import numbers
import operator
import sys
from functools import cached_property
from itertools import chain, compress, islice
from types import MappingProxyType
from typing import Any, Generator, Iterable, Iterator, Mapping, Union

from .errors import CapacityError, FrozenValue, IncompleteTableError, ValidationError, brief

PMF_TOL = 1e-12
DEFAULT_AXIOM_TOL = 1e-9
DEFAULT_EQ_TOL = 1e-12
# Cap on (joint input tuples) x (output letters) per rank value: the element
# count of the largest tensor one evaluation allocates, so it bounds memory.
DEFAULT_DMC_TERM_CAP = 1 << 24


def check_receiver(num_users: int, receiver: int) -> None:
    if not 1 <= receiver <= num_users:
        raise IndexError(f"receiver {receiver} out of range 1..{num_users}")


def check_users(num_users: int, users: Iterable[int]) -> int:
    """Range-check a user set; return its bitmask (bit k-1 set: user k present)."""
    mask = 0
    for user in users:
        if not 1 <= user <= num_users:
            raise IndexError(f"user {user} out of range 1..{num_users}")
        mask |= 1 << (user - 1)
    return mask


def _drop_members(num_users: int, receiver: int, mask: int) -> Iterator[int]:
    """Range-check a drop call; iterate the mask's members, 0-based, ascending."""
    check_receiver(num_users, receiver)
    if not 0 <= mask < 1 << num_users:
        raise IndexError(f"mask {mask} names users outside 1..{num_users}")
    return compress(range(num_users), map("1".__eq__, bin(mask)[:1:-1]))


def mask_users(mask: int) -> frozenset[int]:
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def subsets_in_mask_order(num_users: int) -> list[tuple[int, ...]]:
    """Every user subset as a sorted tuple; entry m is the subset of mask m."""
    subsets = [()]  # user k added doubles the list
    for user in range(1, num_users + 1):
        subsets += [users + (user,) for users in subsets]
    return subsets


def _numbers(value: Any, label: str, depth: int = 1) -> Any:
    """Type ``value`` as a float (``depth`` 0), a tuple of floats (1) or a
    tuple of equal-length float rows (2); ``label`` names it in errors.

    Bools, strings, nested entries, ragged rows and integers too large for
    a float are refused.  Every shape check past that belongs to the caller.
    """
    if not depth:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{label} must be a real number, got {brief(value)}")
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{label} is too large for a float") from None
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        kind = "rows of numbers" if depth > 1 else "numbers"
        raise ValidationError(f"{label} must be a list of {kind}, got {brief(value)}")
    values = tuple(value)
    if depth > 1:
        # Parsed JSON, lists of floats only, needs no conversion: checked at C speed.
        entries = chain.from_iterable(values)
        if set(map(type, values)) <= {list} and set(map(type, entries)) <= {float}:
            rows = tuple(map(tuple, values))
        else:
            rows = tuple(_numbers(row, f"row {i} of {label}") for i, row in enumerate(values))
        if len(set(map(len, rows))) > 1:
            raise ValidationError(f"{label} rows must all have the same length")
        return rows
    label = f"an entry of {label}"
    return tuple(_numbers(entry, label, 0) for entry in values)


def _check_pmfs(rows: np.ndarray, label: str) -> None:
    """Require every row of a 2-D array to be a pmf; ``label.format(row)`` names the
    first bad row.  A bulk sum of n nonnegative entries is within n eps of
    ``math.fsum``'s, so only rows not clearly inside ``PMF_TOL`` are summed again."""
    import numpy as np
    broken = (rows < 0).any(axis=1) | ~np.isfinite(rows).all(axis=1)
    margin = rows.shape[1] * sys.float_info.epsilon
    with np.errstate(over="ignore"):  # an inf sum is unclear: fsum reports it
        unclear = broken | ~(abs(rows.sum(axis=1) - 1.0) <= PMF_TOL - margin)
    for row in np.flatnonzero(unclear).tolist():
        if broken[row]:
            raise ValidationError(f"{label.format(row)} has negative or non-finite entries")
        try:
            total = math.fsum(rows[row].tolist())
        except OverflowError:  # finite entries whose sum passes the float range
            total = math.inf
        if abs(total - 1.0) > PMF_TOL:
            raise ValidationError(
                f"{label.format(row)} sums to {total!r}, expected 1 within {PMF_TOL}"
            )


def _exact(kept: np.ndarray, mass: np.ndarray) -> list[float]:
    """Per row, ``math.fsum(mass * math.log2(kept))``: ``np.log2`` may be an ulp off."""
    import numpy as np
    logs = np.fromiter(map(math.log2, kept.ravel().tolist()), float, kept.size)
    return list(map(math.fsum, (logs.reshape(kept.shape) * mass).tolist()))


class _Backend(FrozenValue):
    """A receiver's rank function, computed only by the subclass's ``_values(receiver,
    masks) -> list[float]`` on range-checked masks.  ``_least`` picks a slot's least drop
    and ties, for ``cheapest_drops`` and ``_walk``, from the ``_contenders`` it may prune;
    the Gaussian ``_walk`` keeps that rule on its own list of the users left."""

    def _rank(self, receiver: int, mask: int) -> float:
        return self._values(receiver, [mask])[0]

    def drop_values(self, receiver: int, mask: int) -> dict[int, float]:
        """``_rank(receiver, mask ^ bit)`` for each member of ``mask``, from one batch."""
        members = list(_drop_members(self.num_users, receiver, mask))
        values = self._values(receiver, [mask ^ 1 << k for k in members])
        return {k + 1: value for k, value in zip(members, values)}

    def _contenders(self, receiver: int, mask: int) -> dict[int, float]:
        """``{user: drop_values' value}`` for every member of ``mask`` that can be least."""
        return self.drop_values(receiver, mask)

    def cheapest_drops(self, receiver: int, mask: int) -> tuple[float, list[int]]:
        """``drop_values``' least value and its exact ties ascending."""
        return _least(self._contenders(receiver, mask))

    def _walk(self, receiver: int) -> Generator[tuple[float, list[int]], int, None]:
        """Each greedy slot's ``cheapest_drops`` over the users left; is sent the one removed."""
        mask = (1 << self.num_users) - 1
        while True:
            chosen = yield self.cheapest_drops(receiver, mask)
            mask ^= 1 << (chosen - 1)


def _least(values: dict[int, float]) -> tuple[float, list[int]]:
    """The slot rule: the least of ``{user: value}`` and its exact ties ascending.
    The Gaussian ``_walk`` applies the same rule inline on its list of the users left."""
    best = min(values.values()) if values else math.inf
    return best, sorted([user for user, value in values.items() if value == best])


class GaussianChannel(_Backend):
    """Gaussian interference channel: gains, transmit powers, noise variances.

    ``gains[j-1][i-1]`` is the power gain from transmitter i to receiver j.
    Every field is a tuple of floats (rows of them for the matrices).
    ``received_powers`` caches gains * powers so that rank evaluation and
    the descending-power fast path sort on bit-identical keys.
    """

    kind = "gaussian"
    _fields = ("gains", "powers", "noise_vars")

    def __init__(self, gains, powers, noise_vars) -> None:
        gains = _numbers(gains, "gains", 2)
        powers = _numbers(powers, "powers")
        noise_vars = _numbers(noise_vars, "noise_vars")
        num_users = len(powers)
        if num_users < 1:
            raise ValidationError("powers must be a non-empty 1-D vector")
        shape = (len(gains), *{len(row) for row in gains})
        if shape != (num_users, num_users):
            raise ValidationError(f"gains must be {num_users}x{num_users}, got {shape}")
        if len(noise_vars) != num_users:
            raise ValidationError("noise_vars length must match powers")
        named = (("gains", chain(*gains)), ("powers", powers), ("noise_vars", noise_vars))
        for name, values in named:
            if not all(map(math.isfinite, values)):
                raise ValidationError(f"{name} contains non-finite entries")
        if min(chain(*gains, powers)) < 0:
            raise ValidationError("gains and powers must be nonnegative")
        if min(noise_vars) <= 0:
            raise ValidationError("noise_vars must be strictly positive")
        # IEEE products: one that overflows is inf, refused below.
        received = tuple(tuple(map(operator.mul, row, powers)) for row in gains)
        # The terms are nonnegative, so the full set bounds every subset sum.
        for j, (row, noise) in enumerate(zip(received, noise_vars), start=1):
            try:
                total = math.fsum(row)
            except OverflowError:
                total = math.inf
            if not math.isfinite(total / noise):
                raise ValidationError(
                    f"gains times powers overflow at receiver {j}: each received power, "
                    f"their sum and that sum over the noise variance must be finite"
                )
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "noise_vars", noise_vars)
        object.__setattr__(self, "received_powers", received)

    @cached_property
    def num_users(self) -> int:
        return len(self.powers)

    @cached_property
    def _scaled_rows(self) -> tuple[tuple[tuple[int, ...], int, float], ...]:
        """Per receiver ``(ints, scale, noise)``: power k is exactly ``ints[k] / scale``."""
        rows = []
        for row, noise in zip(self.received_powers, self.noise_vars):
            ratios = [p.as_integer_ratio() for p in row]  # denominators are powers of two
            scale = max(d for _, d in ratios)
            ints = tuple(n << scale.bit_length() - d.bit_length() for n, d in ratios)
            rows.append((ints, scale, noise))
        return tuple(rows)

    def _values(self, receiver: int, masks: Iterable[int]) -> list[float]:
        """``log2(1 + power over S / noise)`` per mask, the power summed exactly in ints."""
        ints, scale, noise = self._scaled_rows[receiver - 1]
        # Bit k-1 of a mask, read from the lowest: user k's int.  Int true division
        # rounds correctly, as fsum does, to fsum's float; the constructor's finite
        # full-set sum over the noise keeps every step finite.
        sums = (sum(compress(ints, map("1".__eq__, bin(mask)[:1:-1]))) for mask in masks)
        return [math.log2(1.0 + total / scale / noise) for total in sums]

    @cached_property
    def _drop_orders(self) -> tuple[list[int], ...]:
        """Per receiver, users 0-based by descending scaled int, ties ascending."""
        rows = self._scaled_rows  # the sort is stable
        return tuple(sorted(range(len(i)), key=i.__getitem__, reverse=True) for i, _, _ in rows)

    def _contenders(self, receiver: int, mask: int) -> dict[int, float]:
        """Members scored by ``_values``' expression in descending-int order, up to the
        first value above the least.  Every IEEE step before the log2 is monotone;
        ``math.log2`` is assumed to be."""
        ints, scale, noise = self._scaled_rows[receiver - 1]
        total = sum(map(ints.__getitem__, _drop_members(self.num_users, receiver, mask)))
        values, least = {}, math.inf
        for k in self._drop_orders[receiver - 1]:
            if mask >> k & 1:
                value = math.log2(1.0 + (total - ints[k]) / scale / noise)
                if value > least:
                    break
                values[k + 1] = least = value  # scanned values never fall
        return values

    def _walk(self, receiver: int) -> Generator[tuple[float, list[int]], int, None]:
        """``_Backend._walk`` on a running int total (exact) and the users left in
        ``_drop_orders`` order: a slot's least is the head's value, and its ties
        are the values equal to it that follow, as ``_contenders`` scans them."""
        check_receiver(self.num_users, receiver)
        ints, scale, noise = self._scaled_rows[receiver - 1]
        left, total = list(self._drop_orders[receiver - 1]), sum(ints)
        while True:
            least, ties = math.inf, []
            for k in left:
                value = math.log2(1.0 + (total - ints[k]) / scale / noise)
                if value > least:
                    break
                least = value
                ties.append(k + 1)
            ties.sort()
            chosen = (yield least, ties) - 1
            left.remove(chosen)
            total -= ints[chosen]


class DmcChannel(_Backend):
    """Discrete memoryless channel restricted to per-receiver output marginals.

    ``input_pmfs[k-1]`` is the fixed input distribution of user k; inputs
    are independent across users.  ``transitions[j-1]`` has one row per
    joint input tuple (row-major over (x_1, ..., x_K)) holding a pmf over
    receiver j's output alphabet.  The fields are read-only arrays, which
    have no truth value, so channels compare and hash by identity.
    """

    kind = "dmc"
    _fields = ("input_pmfs", "transitions")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, input_pmfs, transitions) -> None:
        import numpy as np
        pmfs = tuple(
            np.array(_numbers(pmf, f"input_pmfs of user {k}"))
            for k, pmf in enumerate(input_pmfs, start=1)
        )
        tables = tuple(
            np.array(_numbers(table, f"transitions of receiver {j}", 2))
            for j, table in enumerate(transitions, start=1)
        )
        num_users = len(pmfs)
        if num_users < 1:
            raise ValidationError("at least one user required")
        if len(tables) != num_users:
            raise ValidationError("one transition table per receiver required")
        joint = 1
        for k, pmf in enumerate(pmfs, start=1):
            if not pmf.size:
                raise ValidationError(f"input pmf of user {k} must be a 1-D vector")
            _check_pmfs(pmf[np.newaxis], f"input pmf of user {k}")
            joint *= pmf.shape[0]
        for j, table in enumerate(tables, start=1):
            if table.ndim != 2 or table.shape[0] != joint:
                raise ValidationError(
                    f"transitions of receiver {j} must be a table of {joint} rows, one per "
                    f"joint input tuple of input pmfs of sizes {[p.shape[0] for p in pmfs]}"
                )
            _check_pmfs(table, f"transition row {{}} of receiver {j}")
        for array in (*pmfs, *tables):
            array.setflags(write=False)
        object.__setattr__(self, "input_pmfs", pmfs)
        object.__setattr__(self, "transitions", tables)
        object.__setattr__(self, "_receiver_cache", {})
        object.__setattr__(self, "_subset_cache", {})

    @cached_property
    def num_users(self) -> int:
        return len(self.input_pmfs)

    @property
    def input_alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(p.shape[0] for p in self.input_pmfs)

    @property
    def output_alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.transitions)

    def _values(self, receiver: int, masks: list[int]) -> list[float]:
        return [v for _, kept, mass in self._ratios(receiver, masks) for v in _exact(kept, mass)]

    def _contenders(self, receiver: int, mask: int) -> dict[int, float]:
        """The members that can be least, with their ``drop_values`` values.

        A candidate's n terms ``np.log2(r) * w`` get a numpy sum A and a bound err =
        2 (n + 16) (eps S + 2^-1074), S = sum|terms|.  Granting ``math.log2`` and
        ``np.log2`` 8 ulps each (both give log2(1) = 0), a term is within 17 eps |term|
        + 2^-1074 of the exact path's; numpy sums in any order within (n - 1) eps/2 S;
        ``math.fsum`` rounds once.  So the exact value is within (n/2 + 18) eps S +
        (n + 1) 2^-1074 of A, leaving 15 eps S of err for rounding err and A +- err.
        Only candidates whose A - err reaches the least A + err can be least or tie;
        they, and any with a non-finite bound, are scored by ``_exact`` on their rows."""
        import numpy as np
        members = list(_drop_members(self.num_users, receiver, mask))
        values = {}
        for start, kept, mass in self._ratios(receiver, [mask ^ 1 << k for k in members]):
            with np.errstate(all="ignore"):
                terms = np.log2(kept) * mass  # |term| <= 1075: a finite sum cannot overflow
                approx = terms.sum(axis=1)
                err = 2 * (len(mass) + 16) * (abs(terms).sum(axis=1) * math.ulp(1.0) + 5e-324)
                # A non-finite term makes err inf or NaN: A - err passes, fmin skips NaN.
                rows = np.flatnonzero(~(approx - err > np.fmin.reduce(approx + err)))
            for row, value in zip(rows.tolist(), _exact(kept[rows], mass)):
                values[members[start + row] + 1] = value
        return values

    def _ratios(self, receiver: int, masks: list[int]) -> Iterator[tuple]:
        """The one DMC evaluation path: per buffer of at most ``DEFAULT_DMC_TERM_CAP`` terms,
        its first mask's index, p(y | x) p(x_outside) / p(x_outside, y) at p(x, y)'s nonzero
        terms (a row per mask; S summed as a tuple loop sums), and those terms' masses."""
        import numpy as np
        joint, out_size = self.transitions[receiver - 1].shape
        cap = DEFAULT_DMC_TERM_CAP
        if joint * out_size > cap:
            raise CapacityError(
                f"rank evaluation needs {joint} joint tuples x {out_size} outputs, cap is {cap}"
            )
        terms = self._receiver_cache.get(receiver)
        if terms is None:
            lik = self.transitions[receiver - 1].reshape(self.input_alphabet_sizes + (-1,))
            mass = self._subset_terms(0)[3] * lik  # p(x, y): S = {} leaves p(x_outside) = p(x)
            # 0 log 0 = 0 for every term whose mass is zero, underflow included.
            keep = np.flatnonzero(mass)
            terms = self._receiver_cache[receiver] = (lik, mass, keep, mass.ravel()[keep])
        lik, mass, keep, kept_mass = terms
        step = cap // mass.size
        for start in range(0, len(masks), step):
            batch = masks[start : start + step]
            ratios = np.empty((len(batch),) + mass.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                for ratio, mask in zip(ratios, batch):
                    axes, rows, kept_shape, comp_mass = self._subset_terms(mask)
                    stacked = mass.transpose(axes).reshape(rows, -1)
                    marginal = np.add.accumulate(stacked)[-1].reshape(kept_shape)
                    # p(y | x_outside) = marginal / comp_mass
                    np.divide(lik * comp_mass, marginal, out=ratio)
            yield start, ratios.reshape(len(batch), -1).take(keep, axis=1), kept_mass

    def _subset_terms(self, mask: int) -> tuple:
        """Axes putting S first, S's tuple count, the kept shape and p(x_outside)."""
        terms = self._subset_cache.get(mask)
        if terms is None:
            import numpy as np
            sizes = self.input_alphabet_sizes
            inside = [k for k in range(len(sizes)) if mask >> k & 1]
            outside = [k for k in range(len(sizes)) if not mask >> k & 1]
            kept = tuple(1 if mask >> k & 1 else size for k, size in enumerate(sizes))
            comp_mass = np.float64(1.0)  # independent inputs, multiplied left to right
            for k in outside:
                comp_mass = np.multiply.outer(comp_mass, self.input_pmfs[k])
            comp_mass = comp_mass.reshape(kept + (1,))
            axes = (*inside, *outside, len(sizes))
            terms = (axes, math.prod(sizes[k] for k in inside), kept + (-1,), comp_mass)
            self._subset_cache[mask] = terms
        return terms


def dmc_rank_value(channel: DmcChannel, receiver: int, users: Iterable[int]) -> float:
    """Conditional mutual information I(output_j ; inputs in S | inputs outside S).

    Exact on the (|X_1|, ..., |X_K|, |Y_j|) tensor with 0 log 0 = 0, and
    bit-identical to a tuple-by-tuple sum (``TestDmcMatchesTupleLoop``); raises
    CapacityError when the tensor exceeds ``DEFAULT_DMC_TERM_CAP`` elements.
    """
    return rank_value(RankFunctionSet(channel), receiver, users)


class TabulatedRanks(_Backend):
    """Explicit per-receiver tables mapping every subset bitmask to a value.

    Construction requires a complete table (all 2^K subsets per receiver)
    of finite, nonnegative real numbers, bools refused, and keeps its own
    read-only copy, read by mask through ``_values``: no reader relies on
    the order of its dicts.  Rank-axiom compliance is *not* checked here, so
    violating tables can be built on purpose and fed to the axiom validator.
    """

    kind = "tabulated"
    _fields = ("num_users", "tables")  # tables per receiver: mask -> value

    def __init__(self, num_users: int, tables: Iterable[Mapping[int, float]]) -> None:
        if isinstance(num_users, bool) or not hasattr(num_users, "__index__"):
            raise ValidationError(f"num_users K must be an integer, got {brief(num_users)}")
        num_users = operator.index(num_users)
        if num_users < 1:
            raise ValidationError("at least one user required")
        tables = tuple(tables)
        if len(tables) != num_users:
            raise ValidationError("one table per receiver required")
        expected = 1 << num_users
        owned = []
        for j, table in enumerate(tables, start=1):
            if len(table) != expected or not all(map(table.__contains__, range(expected))):
                # Lazily: a short table may name a K whose 2^K masks fit in no memory.
                missing = list(islice((m for m in range(expected) if m not in table), 5))
                raise IncompleteTableError(
                    f"receiver {j} table must cover all {expected} subsets; "
                    f"missing masks {missing[:4]}{'...' if len(missing) > 4 else ''}"
                )
            # A copy behind a proxy: no write, to the caller's dict or through
            # ``tables``, changes a rank value or the hash.
            values = {}
            for mask in range(expected):
                value = table[mask]
                # Parsed JSON gives plain floats; skip the ABC check for them.
                if type(value) is not float:
                    label = f"tables entry of receiver {j} for {sorted(mask_users(mask))}"
                    value = _numbers(value, label, 0)
                if not math.isfinite(value) or value < 0:
                    raise ValidationError(
                        f"tables entry of receiver {j} for {sorted(mask_users(mask))} "
                        f"must be finite and nonnegative, got {value!r}"
                    )
                values[mask] = value
            owned.append(MappingProxyType(values))
        object.__setattr__(self, "num_users", num_users)
        object.__setattr__(self, "tables", tuple(owned))

    def __reduce__(self):  # a mapping proxy cannot be pickled or deep-copied
        return TabulatedRanks, (self.num_users, tuple(map(dict, self.tables)))

    def __hash__(self) -> int:  # values in the mask order the constructor fixed
        return hash((self.num_users, *(tuple(table.values()) for table in self.tables)))

    def _values(self, receiver: int, masks: Iterable[int]) -> list[float]:
        table = self.tables[receiver - 1]  # subscripting a proxy beats its bound method
        return [table[mask] for mask in masks]


Channel = Union[GaussianChannel, DmcChannel, TabulatedRanks]


class RankFunctionSet(FrozenValue):
    """One rank function per receiver behind a single evaluation interface.

    ``kind`` and ``num_users`` read the backend's, and its ``_rank(receiver,
    mask)`` evaluates a bitmask ``check_users`` has range-checked.  A private
    memo keyed by (receiver, mask) caches values: backends are immutable.
    """

    _fields = ("backend",)

    def __init__(self, backend: Channel) -> None:
        if not isinstance(backend, Channel):
            raise TypeError(f"unsupported channel type: {type(backend)!r}")
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def for_channel(cls, channel: Channel) -> "RankFunctionSet":
        return cls(channel)

    @property
    def kind(self) -> str:  # "gaussian" | "dmc" | "tabulated"
        return self.backend.kind

    @property
    def num_users(self) -> int:
        return self.backend.num_users


def rank_value(ranks: RankFunctionSet, receiver: int, users: Iterable[int]) -> float:
    """Evaluate receiver ``receiver``'s rank function on a user set."""
    backend = ranks.backend
    num_users = backend.num_users
    check_receiver(num_users, receiver)
    mask = check_users(num_users, users)
    key = (receiver, mask)
    value = ranks._cache.get(key)
    if value is None:
        value = ranks._cache[key] = backend._rank(receiver, mask)
    return value


def store_rank_value(ranks: RankFunctionSet, receiver: int, mask: int, value: float) -> None:
    """Memoize a value scored outside ``rank_value``, such as a greedy slot's least."""
    ranks._cache[(receiver, mask)] = value


def stored_rank_value(ranks: RankFunctionSet, receiver: int, mask: int) -> float | None:
    """The memoized value of a range-checked mask, or None if none is stored yet."""
    return ranks._cache.get((receiver, mask))
