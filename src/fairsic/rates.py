"""Achieved user rates under a decoding profile.

The rate cap a receiver imposes on a user it decodes is the marginal
rank-value gain between the order prefix up to the user and the prefix
just before it.  A user's achieved rate is the minimum cap over all
receivers that decode it.
"""

from __future__ import annotations

import math

from .channels import DEFAULT_AXIOM_TOL, DEFAULT_EQ_TOL, RankFunctionSet, rank_value
from .errors import NonRankInputError, ValidationError
from .ordering import DecodingOrder, DecodingProfile


def _clamped(diff: float, clamp_tol: float) -> float:
    if diff >= 0.0:
        return diff
    if diff >= -clamp_tol:
        return 0.0
    raise NonRankInputError(
        f"marginal rank difference {diff!r} is negative beyond tolerance "
        f"{clamp_tol}; the backend is not monotone"
    )


def receiver_rate_bounds(
    ranks: RankFunctionSet,
    order: DecodingOrder,
    *,
    clamp_tol: float = DEFAULT_AXIOM_TOL,
) -> dict[int, float]:
    """Rate caps this receiver imposes, keyed by decoded user.

    Walks the decoded suffix once; each cap is the rank value of the
    prefix through the user minus the rank value of the prefix before it.
    Sub-tolerance negative differences clamp to zero.
    """
    if order.num_users != ranks.num_users:
        raise ValidationError(f"order covers {order.num_users} users, ranks {ranks.num_users}")
    previous = rank_value(ranks, order.receiver, order.perm[: order.decoded_from - 1])
    bounds: dict[int, float] = {}
    for position in range(order.decoded_from, order.num_users + 1):
        current = rank_value(ranks, order.receiver, order.perm[:position])
        bounds[order.perm[position - 1]] = _clamped(current - previous, clamp_tol)
        previous = current
    return bounds


def rate_vector(
    ranks: RankFunctionSet,
    profile: DecodingProfile,
    *,
    clamp_tol: float = DEFAULT_AXIOM_TOL,
) -> tuple[float, ...]:
    """Achieved rates in bits per channel use, entry k-1 for user k."""
    best = [math.inf] * profile.num_users
    for order in profile.orders:
        for user, cap in receiver_rate_bounds(ranks, order, clamp_tol=clamp_tol).items():
            if cap < best[user - 1]:
                best[user - 1] = cap
    return tuple(best)


def min_rate(rates: tuple[float, ...]) -> tuple[float, frozenset[int]]:
    """Minimum rate and every user attaining it within ``DEFAULT_EQ_TOL``."""
    if len(rates) == 0:
        raise ValueError("rate vector is empty")
    value = min(rates)
    users = frozenset(
        k for k, r in enumerate(rates, start=1) if r <= value + DEFAULT_EQ_TOL
    )
    return value, users
