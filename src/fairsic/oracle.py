"""Exhaustive enumeration of decoding profiles and greedy certification.

Only distinct decoding configurations are enumerated: the decoded suffix
in decode order plus a canonical (ascending) undecoded prefix.  Orderings
inside the prefix never change any rate, so this loses nothing while
shrinking the joint space.  Per receiver there are
sum over t of (K-1)!/t! configurations: 1, 2, 5, 16 for K = 1..4.

Every configuration of every receiver is evaluated, never pruned: this
module is the trust anchor the greedy solver is certified against.  The
joint optimum then follows by algebra, not by scanning the product of
configurations: a profile's minimum rate is the smallest per-receiver
minimum cap, receivers choose independently, so the max-min over all
profiles is the smallest of the per-receiver maxima of those minimum caps.
This holds for any table, submodular or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .channels import DEFAULT_AXIOM_TOL, RankFunctionSet, check_receiver
from .errors import CapacityError
from .greedy import SolveReport, ensure_rank_input, greedy_profile
from .ordering import DecodingOrder, DecodingProfile
from .rates import receiver_rate_bounds


@dataclass(frozen=True)
class EnumerationBudget:
    K_limit: int = 4

    def __post_init__(self) -> None:
        if self.K_limit < 1:
            raise ValueError("K_limit must be positive")

    def check(self, num_users: int) -> None:
        """Refuse enumeration past ``K_limit`` with ``CapacityError``."""
        if num_users > self.K_limit:
            raise CapacityError(
                f"enumeration is limited to K <= {self.K_limit}, got K = {num_users}"
            )


@dataclass(frozen=True)
class BruteForceResult:
    opt_min_rate: float
    best_profile: DecodingProfile
    num_configs: int


@dataclass(frozen=True)
class CertificationReport:
    greedy: SolveReport
    oracle: BruteForceResult
    gap: float
    passed: bool


def count_orders(num_users: int) -> int:
    """Distinct decoding configurations per receiver."""
    return sum(
        math.factorial(num_users - 1) // math.factorial(t)
        for t in range(num_users)
    )


def enumerate_orders(
    num_users: int, receiver: int, budget: EnumerationBudget | None = None
) -> list[DecodingOrder]:
    """Every distinct decoding configuration for one receiver, by ascending ``perm``.

    Covers each subset containing the receiver's own user, in every decode
    order ending with that user, prefix canonical: the permutations whose
    users before the receiver's own are ascending.
    """
    (budget or EnumerationBudget()).check(num_users)
    check_receiver(num_users, receiver)
    return [
        DecodingOrder(receiver, perm, len(prefix) + 1)
        for perm in permutations(range(1, num_users + 1))
        if list(prefix := perm[: perm.index(receiver)]) == sorted(prefix)
    ]


def brute_force_maxmin(
    ranks: RankFunctionSet,
    budget: EnumerationBudget | None = None,
    *,
    tol: float = DEFAULT_AXIOM_TOL,
) -> BruteForceResult:
    """True max-min optimum over every joint decoding profile.

    With ``m_j(c)`` the smallest cap configuration ``c`` of receiver j
    imposes, the optimum is ``v* = min_j max_c m_j(c)``, as the module
    docstring derives.  Taking each receiver's first configuration with
    ``m_j(c) >= v*`` in perm-sorted order yields the optimum with the
    lexicographically smallest concatenated permutation encoding.  ``tol`` clamps each cap.
    """
    per_receiver = [
        enumerate_orders(ranks.num_users, j, budget) for j in range(1, ranks.num_users + 1)
    ]
    total = math.prod(len(orders) for orders in per_receiver)
    config_min = [
        [min(receiver_rate_bounds(ranks, order, clamp_tol=tol).values()) for order in orders]
        for orders in per_receiver
    ]
    threshold = min(max(caps) for caps in config_min)
    chosen = [
        next(index for index, cap in enumerate(caps) if cap >= threshold)
        for caps in config_min
    ]
    profile = DecodingProfile(
        tuple(orders[index] for orders, index in zip(per_receiver, chosen))
    )
    # Equals the threshold, but read from the chosen caps so that a signed
    # zero is the one this profile's own minimum yields.
    best_rate = min(caps[index] for caps, index in zip(config_min, chosen))
    return BruteForceResult(best_rate, profile, total)


def certify(
    ranks: RankFunctionSet,
    budget: EnumerationBudget | None = None,
    *,
    tol: float = DEFAULT_AXIOM_TOL,
    jobs: int = 1,
    force: bool = False,
) -> CertificationReport:
    """Compare the greedy solution against the exhaustive optimum.

    The axiom gate, then the budget, refuse before the greedy runs.
    ``jobs`` is accepted for compatibility and has no effect.
    """
    ensure_rank_input(ranks, tol=tol, force=force)
    (budget or EnumerationBudget()).check(ranks.num_users)
    greedy = greedy_profile(ranks, tol=tol, force=True)
    oracle = brute_force_maxmin(ranks, budget, tol=tol)
    gap = abs(oracle.opt_min_rate - greedy.min_rate)
    return CertificationReport(greedy, oracle, gap, gap <= tol)
