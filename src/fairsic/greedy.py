"""Greedy construction of max-min optimal decoding orders.

Each receiver is solved independently: starting from the full user set,
repeatedly hand the next decode slot to the user whose removal leaves the
cheapest remaining set under the receiver's rank function, and stop once
the receiver's own user is selected.  A slot's least value and exact ties
come from the receiver's walk, ``_Backend._walk``, which yields
``cheapest_drops`` over the floats ``rank_value`` gives that the backend's
``_contenders`` names (Gaussian and DMC score only the candidates that can
reach the least); the Gaussian walk keeps a running exact int total.  Argmin
ties are broken by exact float equality: prefer users other than the
receiver's own (so ties are decoded rather than skipped), then the smallest index.
"""

from __future__ import annotations

import math
from contextlib import closing
from typing import NamedTuple

from .axioms import validate_rank_axioms
from .channels import (
    DEFAULT_AXIOM_TOL,
    GaussianChannel,
    RankFunctionSet,
    TabulatedRanks,
    check_receiver,
    rank_value,
    store_rank_value,
)
from .errors import NonRankInputError
from .ordering import DecodingOrder, DecodingProfile
from .rates import min_rate, rate_vector


class SolveReport(NamedTuple):
    profile: DecodingProfile
    rates: tuple[float, ...]
    min_rate: float
    bottleneck_users: frozenset[int]


def ensure_rank_input(
    ranks: RankFunctionSet, *, tol: float = DEFAULT_AXIOM_TOL, force: bool = False
) -> None:
    """Refuse tabulated backends that fail the rank axioms unless forced.

    Gaussian and DMC backends satisfy the axioms analytically.  A tabulated
    one is checked on each unforced call, not once per rank set.
    """
    if force or not isinstance(ranks.backend, TabulatedRanks):
        return
    if not validate_rank_axioms(ranks, tol).passed:
        raise NonRankInputError(
            "tabulated backend violates the rank axioms; greedy optimality is only "
            "guaranteed for rank functions (pass --force, or force=True, to solve anyway)"
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
    num_users = ranks.num_users
    check_receiver(num_users, receiver)
    ensure_rank_input(ranks, tol=tol, force=force)
    # rate_vector's first prefix; each later one is stored as its slot scores it.
    rank_value(ranks, receiver, range(1, num_users + 1))
    mask = (1 << num_users) - 1
    sequence: list[int] = []  # first decoded first
    chosen = None
    with closing(ranks.backend._walk(receiver)) as walk:
        while chosen != receiver:
            best, tied = walk.send(chosen)  # None starts the walk
            # Ascending users: the first tied one that is not the receiver's own.
            chosen = tied[1] if tied[0] == receiver and len(tied) > 1 else tied[0]
            sequence.append(chosen)
            mask ^= 1 << (chosen - 1)
            store_rank_value(ranks, receiver, mask, best)
    undecoded = [k for k in range(1, num_users + 1) if mask >> (k - 1) & 1]
    return DecodingOrder(receiver, undecoded + sequence[::-1], len(undecoded) + 1)


def greedy_profile(
    ranks: RankFunctionSet,
    *,
    tol: float = DEFAULT_AXIOM_TOL,
    force: bool = False,
) -> SolveReport:
    """Run the greedy order per receiver and evaluate its rates, clamped at ``tol``."""
    ensure_rank_input(ranks, tol=tol, force=force)
    profile = DecodingProfile(
        tuple(greedy_order(ranks, j, force=True) for j in range(1, ranks.num_users + 1))
    )
    rates = rate_vector(ranks, profile, clamp_tol=tol)
    return SolveReport(profile, rates, *min_rate(rates))


def gaussian_fast_order(channel: GaussianChannel, receiver: int) -> DecodingOrder:
    """Closed-form order for Gaussian channels.

    Decode every user whose received power at this receiver is at least
    the designated user's, strongest first; ties go to the smaller index
    with the designated user last within its tie class.  Agrees with
    ``greedy_order`` except where two removals leave exactly tied rank
    values although the powers differ: the greedy breaks that tie by
    index, this sort by power.  The greedy order is the contract.
    """
    check_receiver(channel.num_users, receiver)
    row = channel.received_powers[receiver - 1]
    own = row[receiver - 1]
    decoded = [k for k in range(1, channel.num_users + 1) if row[k - 1] >= own]
    decoded.sort(key=lambda k: (-row[k - 1], k == receiver, k))
    return DecodingOrder.from_decode_sequence(receiver, decoded, channel.num_users)


def gaussian_rate_formula(channel: GaussianChannel) -> tuple[float, ...]:
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
        noise = channel.noise_vars[receiver - 1]
        for position in range(order.decoded_from, num_users + 1):
            user = order.perm[position - 1]
            later = order.perm[: position - 1]  # fsum is exact: term order is moot
            interference = math.fsum(row[i - 1] for i in later)
            # Over the noise first: noise plus interference may overflow.
            cap = math.log2(1.0 + row[user - 1] / noise / (1.0 + interference / noise))
            if cap < best[user - 1]:
                best[user - 1] = cap
    return tuple(best)
