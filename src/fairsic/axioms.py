"""Exhaustive validation of the rank-function axioms.

A rank function maps the empty set to zero, is increasing under set
inclusion and is submodular.  The verdict covers every subset pair of every
receiver, for small K, with no Python loop per subset: monotonicity compares
f(s) with a superset-minimum transform, and submodularity is the largest
((f(m|s) + f(m&s)) - f(m)) - f(s) over ordered pairs (s, m), in one of two tiers.

Let M = max |f| and w the largest ((f(S+i+k) + f(S)) - f(S+i)) - f(S+k),
i < k not in S, in floats: O(K^2 * 2^K).  If w + 16 eps M < 0, only pairs
with s inside m or m inside s are evaluated, O(3^K), else all, O(K * 4^K).
The skip is exact: each expression is three IEEE additions of values of
magnitude at most M, off by at most 6 eps M (addition has no underflow
error); an incomparable pair's exact excess sums |s - m| * |m - s| >= 1
exact local differences, each at most w + 6 eps M < 0, so it evaluates to
at most w + 12 eps M < 0, and the reported maximum starts at 0.0 and only
rises.  Values of magnitude 2^1021 or more are refused: no sum overflows.
Minima are exact and pairs keep their operation order, so every reported
number is the one a per-pair loop computes, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .channels import (
    DEFAULT_AXIOM_TOL,
    RankFunctionSet,
    TabulatedRanks,
    check_receiver,
    rank_value,
    subsets_in_mask_order,
)
from .errors import ValidationError

MAX_VALIDATABLE_USERS = 12
# Elements in each temporary of a block of pairs: 256 KiB per array.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class ReceiverAxiomReport:
    receiver: int
    normalization_violation: float
    monotonicity_violation: float
    submodularity_violation: float

    def passed(self, tol: float) -> bool:
        return (
            self.normalization_violation <= tol
            and self.monotonicity_violation <= tol
            and self.submodularity_violation <= tol
        )


@dataclass(frozen=True)
class AxiomReport:
    tol: float
    receivers: tuple[ReceiverAxiomReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed(self.tol) for r in self.receivers)


def subset_value_table(ranks: RankFunctionSet, receiver: int) -> np.ndarray:
    """All 2^K rank values of one receiver, indexed by subset bitmask.

    A tabulated table is read whole by mask through ``_values``, whatever
    order its dicts keep; other backends go through ``rank_value`` per subset.
    """
    import numpy as np
    backend = ranks.backend
    if isinstance(backend, TabulatedRanks):
        check_receiver(backend.num_users, receiver)
        return np.array(backend._values(receiver, range(1 << backend.num_users)))
    subsets = subsets_in_mask_order(ranks.num_users)
    return np.array([rank_value(ranks, receiver, users) for users in subsets])


def _incomparable_pairs_lose(tables: np.ndarray) -> np.ndarray:
    """Per row of ``tables``, whether w + 16 eps M < 0: no incomparable pair can win."""
    import numpy as np
    worst = np.full(len(tables), -np.inf)
    for i, k in combinations(range(tables.shape[1].bit_length() - 1), 2):
        f = tables.reshape(len(tables), -1, 2, 1 << (k - i - 1), 2, 1 << i)  # bit k, bit i
        second = ((f[:, :, 1, :, 1] + f[:, :, 0, :, 0]) - f[:, :, 0, :, 1]) - f[:, :, 1, :, 0]
        np.maximum(worst, second.max(axis=(1, 2, 3)), out=worst)
    return worst + 16 * np.finfo(float).eps * abs(tables).max(axis=1) < 0


def _nested_masks(bits: int) -> np.ndarray:
    """Rows sub and sup: the 3^bits pairs of ``bits``-bit masks with sub inside sup."""
    import numpy as np
    pairs = np.zeros((2, 1), dtype=np.intp)
    for bit in range(bits):
        pairs = np.concatenate((pairs, pairs | [[0], [1 << bit]], pairs | 1 << bit), axis=1)
    return pairs


def _worst_excess(union, intersection, m, s) -> float:
    """Largest ((f(m|s) + f(m&s)) - f(m)) - f(s) over broadcast value arrays, in ``union``."""
    union += intersection
    union -= m
    union -= s
    return float(union.max())


def _receiver_violations(tables: np.ndarray) -> list[tuple[float, float, float]]:
    """(normalization, monotonicity, submodularity) per row of ``tables``.

    ``tables`` holds one receiver's 2^K values per row, indexed by mask.
    """
    import numpy as np
    receivers, size = tables.shape
    # Superset minimum g(s) = min f(T) over T >= s, one bit per pass.  The
    # drop to report is f(s) minus the minimum over strict supersets; g(s)
    # is that minimum or f(s) itself, so f(s) - g(s) is the same exact
    # subtraction where it is positive and a zero elsewhere, the full set
    # included.  The zero is -0.0 where a table holds -0.0, hence the max
    # with 0.0 below.
    superset_min = tables.copy()
    half = 1
    while half < size:
        pairs = superset_min.reshape(receivers, -1, 2, half)
        np.minimum(pairs[:, :, 0], pairs[:, :, 1], out=pairs[:, :, 0])
        half *= 2
    monotonicity = (tables - superset_min).max(axis=1)
    # Running maxima from 0.0, which max() moves only to a larger value.  Every index
    # is below size; mode="wrap" skips the buffered copy mode="raise" makes into out.
    submodularity = [0.0] * receivers
    certified = _incomparable_pairs_lose(tables)
    # Certified: pairs with sub inside sup, both orientations, low-bit blocks per high pair.
    low = min(size.bit_length() - 1, 9)  # 3^9 pairs fit _BLOCK_ELEMENTS
    low_sub, low_sup = _nested_masks(low)
    smaller, larger, excess = np.empty((3, len(low_sub)))
    for high_sub, high_sup in zip(*_nested_masks(size.bit_length() - 1 - low)):
        sub, sup = low_sub | high_sub << low, low_sup | high_sup << low
        for j in np.flatnonzero(certified):
            np.take(tables[j], sub, out=smaller, mode="wrap")
            np.take(tables[j], sup, out=larger, mode="wrap")
            for m, s in ((larger, smaller), (smaller, larger)):
                excess[:] = larger
                submodularity[j] = max(submodularity[j], _worst_excess(excess, smaller, m, s))
    # The others: every ordered pair (s, m), a block of s rows at a time.
    rows = min(size, _BLOCK_ELEMENTS // size)  # powers of two: rows divides size
    masks = np.arange(size)
    union_index, intersection_index = np.empty((2, rows, size), dtype=masks.dtype)
    union, intersection = np.empty((2, rows, size))
    for start in range(0, size, rows) if not certified.all() else ():
        subsets = masks[start:start + rows, None]
        np.bitwise_or(masks, subsets, out=union_index)
        np.bitwise_and(masks, subsets, out=intersection_index)
        for j in np.flatnonzero(~certified):
            table = tables[j]
            np.take(table, union_index, out=union, mode="wrap")
            np.take(table, intersection_index, out=intersection, mode="wrap")
            worst = _worst_excess(union, intersection, table, table[start:start + rows, None])
            submodularity[j] = max(submodularity[j], worst)
    return [
        (abs(float(table[0])), max(0.0, float(worst_drop)), worst_excess)
        for table, worst_drop, worst_excess in zip(tables, monotonicity, submodularity)
    ]


def validate_rank_axioms(
    ranks: RankFunctionSet, tol: float = DEFAULT_AXIOM_TOL
) -> AxiomReport:
    """Check normalization, monotonicity and submodularity exhaustively.

    Reports the worst violation magnitude per axiom and receiver; a clean
    receiver reports zeros.  Nothing is raised on failure, the report
    carries it.
    """
    if ranks.num_users > MAX_VALIDATABLE_USERS:
        raise ValidationError(
            f"axiom validation enumerates all subset pairs and is limited to "
            f"K <= {MAX_VALIDATABLE_USERS}, got K = {ranks.num_users}"
        )
    import numpy as np
    tables = np.array(
        [subset_value_table(ranks, receiver) for receiver in range(1, ranks.num_users + 1)]
    )
    if (largest := float(abs(tables).max())) >= 2.0**1021:  # no sum of four overflows below
        raise ValidationError(f"axiom validation needs rank values below 2^1021, got {largest!r}")
    return AxiomReport(
        tol,
        tuple(
            ReceiverAxiomReport(receiver, *violations)
            for receiver, violations in enumerate(_receiver_violations(tables), start=1)
        ),
    )
