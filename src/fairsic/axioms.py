"""Exhaustive validation of the rank-function axioms.

A rank function must map the empty set to zero, be increasing under set
inclusion, and be submodular.  The validator checks every subset pair of
every receiver, O(K * 4^K) elementwise work, so it is guarded to small
user counts.  No Python loop runs per subset:

- monotonicity compares f(s) with the minimum of f over the supersets
  of s, which a superset-minimum transform gives in K passes over the
  table; it is below f(s) exactly when a strict superset's value is;
- submodularity evaluates ((f(m|s) + f(m&s)) - f(m)) - f(s) for every
  ordered pair (s, m), comparable pairs included, on blocks of s rows.

Minima are exact and each pair's expression keeps its operation order,
so every reported number is the one a per-pair loop computes, bit for
bit, as ``TestScanMatchesLoop`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# Elements in each temporary of the all-pairs scan: 256 KiB per array.
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

    @property
    def worst_violation(self) -> float:
        return max(
            max(r.normalization_violation, r.monotonicity_violation, r.submodularity_violation)
            for r in self.receivers
        )


def subset_value_table(ranks: RankFunctionSet, receiver: int) -> np.ndarray:
    """All 2^K rank values of one receiver, indexed by subset bitmask.

    A tabulated table is read whole by mask through ``_values``, whatever
    order its dicts keep; other backends go through ``rank_value`` per subset.
    """
    backend = ranks.backend
    if isinstance(backend, TabulatedRanks):
        check_receiver(backend.num_users, receiver)
        return np.array(backend._values(receiver, range(1 << backend.num_users)))
    subsets = subsets_in_mask_order(ranks.num_users)
    return np.array([rank_value(ranks, receiver, users) for users in subsets])


def _receiver_violations(tables: np.ndarray) -> list[tuple[float, float, float]]:
    """(normalization, monotonicity, submodularity) per row of ``tables``.

    ``tables`` holds one receiver's 2^K values per row, indexed by mask.
    """
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
    # Every ordered pair (s, m), ((f(m|s) + f(m&s)) - f(m)) - f(s) in that
    # order, a block of s rows at a time; comparable pairs stay, their
    # rounding residue can be the maximum.
    rows = min(size, _BLOCK_ELEMENTS // size)  # powers of two: rows divides size
    masks = np.arange(size)
    union_index = np.empty((rows, size), dtype=masks.dtype)
    intersection_index = np.empty_like(union_index)
    union = np.empty((rows, size))
    intersection = np.empty_like(union)
    submodularity = [0.0] * receivers
    for start in range(0, size, rows):
        subsets = masks[start:start + rows, None]
        np.bitwise_or(masks, subsets, out=union_index)
        np.bitwise_and(masks, subsets, out=intersection_index)
        for j, table in enumerate(tables):
            # Every index is below size; mode="wrap" skips the buffered copy
            # that the default mode="raise" makes into ``out``.
            np.take(table, union_index, out=union, mode="wrap")
            np.take(table, intersection_index, out=intersection, mode="wrap")
            union += intersection
            union -= table
            union -= table[start:start + rows, None]
            worst = float(union.max())
            if worst > submodularity[j]:
                submodularity[j] = worst
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
    tables = np.array(
        [subset_value_table(ranks, receiver) for receiver in range(1, ranks.num_users + 1)]
    )
    return AxiomReport(
        tol,
        tuple(
            ReceiverAxiomReport(receiver, *violations)
            for receiver, violations in enumerate(_receiver_violations(tables), start=1)
        ),
    )
