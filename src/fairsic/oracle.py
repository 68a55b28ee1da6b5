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

from .channels import DEFAULT_AXIOM_TOL, RankFunctionSet
from .errors import CapacityError
from .greedy import SolveReport, greedy_profile
from .ordering import DecodingOrder, DecodingProfile
from .rates import receiver_rate_bounds


@dataclass(frozen=True)
class EnumerationBudget:
    K_limit: int = 4

    def __post_init__(self) -> None:
        if self.K_limit < 1:
            raise ValueError("K_limit must be positive")


@dataclass(frozen=True)
class BruteForceResult:
    opt_min_rate: float
    best_profile: DecodingProfile
    num_configs: int


@dataclass(frozen=True)
class CertificationReport:
    greedy: SolveReport
    oracle_min_rate: float
    oracle_best_profile: DecodingProfile
    gap: float
    passed: bool
    num_configs: int
    counterexample: DecodingProfile | None

    @property
    def greedy_min_rate(self) -> float:
        return self.greedy.min_rate


def count_orders(num_users: int) -> int:
    """Distinct decoding configurations per receiver."""
    return sum(
        math.factorial(num_users - 1) // math.factorial(t)
        for t in range(num_users)
    )


def enumerate_orders(
    num_users: int, receiver: int, budget: EnumerationBudget | None = None
) -> list[DecodingOrder]:
    """Every distinct decoding configuration for one receiver.

    Covers each subset containing the receiver's own user, in every decode
    order ending with that user, prefix canonical.
    """
    budget = budget or EnumerationBudget()
    if num_users > budget.K_limit:
        raise CapacityError(
            f"enumeration is limited to K <= {budget.K_limit}, got K = {num_users}"
        )
    others = [u for u in range(1, num_users + 1) if u != receiver]
    orders = []
    for decoded_before in range(num_users):
        for head in permutations(others, decoded_before):
            orders.append(
                DecodingOrder.from_decode_sequence(
                    receiver, head + (receiver,), num_users
                )
            )
    return orders


def brute_force_maxmin(
    ranks: RankFunctionSet,
    budget: EnumerationBudget | None = None,
) -> BruteForceResult:
    """True max-min optimum over every joint decoding profile.

    ``m_j(c)`` is the smallest cap configuration ``c`` of receiver j
    imposes on a user it decodes.  Each user has at least one decoder, so
    a profile's minimum rate is ``min_j m_j(c_j)``, and since receivers
    choose independently the optimum is ``v* = min_j max_c m_j(c)``.  A
    profile attains it exactly when every ``m_j(c_j) >= v*``; taking each
    receiver's first such configuration in perm-sorted order yields the
    optimum with the lexicographically smallest concatenated permutation
    encoding.
    """
    budget = budget or EnumerationBudget()
    num_users = ranks.num_users
    per_receiver = [
        sorted(enumerate_orders(num_users, j, budget), key=lambda o: o.perm)
        for j in range(1, num_users + 1)
    ]
    total = math.prod(len(orders) for orders in per_receiver)
    config_min = [
        [min(receiver_rate_bounds(ranks, order).values()) for order in orders]
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

    ``jobs`` is accepted for compatibility and has no effect.
    """
    greedy = greedy_profile(ranks, tol=tol, force=force)
    oracle = brute_force_maxmin(ranks, budget)
    gap = abs(oracle.opt_min_rate - greedy.min_rate)
    passed = gap <= tol
    return CertificationReport(
        greedy=greedy,
        oracle_min_rate=oracle.opt_min_rate,
        oracle_best_profile=oracle.best_profile,
        gap=gap,
        passed=passed,
        num_configs=oracle.num_configs,
        counterexample=None if passed else oracle.best_profile,
    )
