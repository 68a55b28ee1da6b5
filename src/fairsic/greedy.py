"""Greedy construction of max-min optimal decoding orders.

Each receiver is solved independently: starting from the full user set,
repeatedly hand the next decode slot to the user whose removal leaves the
cheapest remaining set under the receiver's rank function, and stop once
the receiver's own user is selected.  For Gaussian channels the same
orders fall out of sorting received powers, which is implemented as a
separate fast path and tested for exact agreement.

Argmin ties are broken by exact float equality: prefer users other than
the receiver's own (so ties are decoded rather than skipped), then the
smallest index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping

from .axioms import validate_rank_axioms
from .channels import (
    DEFAULT_AXIOM_TOL,
    GaussianChannel,
    RankFunctionSet,
    check_receiver,
    full_user_set,
    rank_value,
)
from .errors import NonRankInputError
from .ordering import DecodingOrder, DecodingProfile, decoded_set, decoder_set
from .rates import RateVector, min_rate, rate_vector


@dataclass(frozen=True)
class SolveReport:
    profile: DecodingProfile
    rates: RateVector
    min_rate: float
    bottleneck_users: frozenset[int]
    decoded_sets: tuple[frozenset[int], ...]
    decoder_sets: tuple[frozenset[int], ...]
    backend_kind: str
    timings: Mapping[str, float]


def ensure_rank_input(
    ranks: RankFunctionSet, *, tol: float = DEFAULT_AXIOM_TOL, force: bool = False
) -> None:
    """Refuse tabulated backends that fail the rank axioms unless forced.

    Gaussian and discrete-channel backends satisfy the axioms analytically
    and are exempt.  The verdict is cached on the rank set.
    """
    if ranks.kind != "tabulated" or force:
        return
    verdict = ranks._axiom_verdicts.get(tol)
    if verdict is None:
        verdict = validate_rank_axioms(ranks, tol).passed
        ranks._axiom_verdicts[tol] = verdict
    if not verdict:
        raise NonRankInputError(
            "tabulated backend violates the rank axioms; greedy optimality "
            "is only guaranteed for rank functions (pass force=True to solve anyway)"
        )


def greedy_order(
    ranks: RankFunctionSet,
    receiver: int,
    *,
    tol: float = DEFAULT_AXIOM_TOL,
    force: bool = False,
) -> DecodingOrder:
    """Greedy decoding order for one receiver.

    Depends only on this receiver's rank function; other receivers never
    enter the argmin.
    """
    check_receiver(ranks.num_users, receiver)
    ensure_rank_input(ranks, tol=tol, force=force)
    remaining = set(full_user_set(ranks.num_users))
    sequence: list[int] = []  # first decoded first
    while True:
        best_key = None
        chosen = None
        for candidate in sorted(remaining):
            value = rank_value(ranks, receiver, remaining - {candidate})
            key = (value, candidate == receiver, candidate)
            if best_key is None or key < best_key:
                best_key = key
                chosen = candidate
        sequence.append(chosen)
        remaining.discard(chosen)
        if chosen == receiver:
            return DecodingOrder.from_decode_sequence(
                receiver, sequence, ranks.num_users
            )


def greedy_profile(
    ranks: RankFunctionSet,
    *,
    tol: float = DEFAULT_AXIOM_TOL,
    force: bool = False,
) -> SolveReport:
    """Run the greedy order per receiver and evaluate the resulting rates."""
    ensure_rank_input(ranks, tol=tol, force=force)
    start = time.perf_counter()
    profile = DecodingProfile(
        tuple(
            greedy_order(ranks, j, tol=tol, force=True)
            for j in range(1, ranks.num_users + 1)
        )
    )
    order_time = time.perf_counter() - start
    start = time.perf_counter()
    rates = rate_vector(ranks, profile)
    value, bottleneck = min_rate(rates)
    rate_time = time.perf_counter() - start
    return SolveReport(
        profile=profile,
        rates=rates,
        min_rate=value,
        bottleneck_users=bottleneck,
        decoded_sets=tuple(decoded_set(o) for o in profile.orders),
        decoder_sets=tuple(
            decoder_set(profile, k) for k in range(1, ranks.num_users + 1)
        ),
        backend_kind=ranks.kind,
        timings={"order_seconds": order_time, "rate_seconds": rate_time},
    )


def gaussian_fast_order(channel: GaussianChannel, receiver: int) -> DecodingOrder:
    """Closed-form order for Gaussian channels.

    Decode every user whose received power at this receiver is at least
    the designated user's, strongest first; ties go to the smaller index
    with the designated user last within its tie class.  Agrees exactly
    with ``greedy_order`` on the same channel.
    """
    check_receiver(channel.num_users, receiver)
    row = channel.received_powers[receiver - 1]
    own = float(row[receiver - 1])
    decoded = [
        k for k in range(1, channel.num_users + 1) if float(row[k - 1]) >= own
    ]
    decoded.sort(key=lambda k: (-float(row[k - 1]), k == receiver, k))
    return DecodingOrder.from_decode_sequence(receiver, decoded, channel.num_users)


def gaussian_rate_formula(channel: GaussianChannel) -> RateVector:
    """Closed-form rates under the fast-path orders.

    Each decoder caps a decoded user at log2(1 + received power over noise
    plus the received powers of everything ranked strictly after the user);
    the achieved rate is the minimum cap.  Matches ``rate_vector`` on the
    greedy profile to floating-point accuracy.
    """
    num_users = channel.num_users
    best = [math.inf] * num_users
    for receiver in range(1, num_users + 1):
        order = gaussian_fast_order(channel, receiver)
        row = channel.received_powers[receiver - 1]
        noise = float(channel.noise_vars[receiver - 1])
        for position in range(order.decoded_from, num_users + 1):
            user = order.perm[position - 1]
            later = sorted(order.perm[: position - 1])
            interference = math.fsum(float(row[i - 1]) for i in later)
            cap = math.log2(1.0 + float(row[user - 1]) / (noise + interference))
            if cap < best[user - 1]:
                best[user - 1] = cap
    return RateVector(tuple(best))
