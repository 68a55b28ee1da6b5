"""Per-receiver decoding orders and the sets derived from them.

A decoding order at receiver j is a permutation of all users stored
position-indexed: ``perm[m-1]`` is the user at position m, and position K
is decoded first.  The receiver's own user sits at position
``decoded_from`` and is the last user actually decoded; users at earlier
positions are never decoded and are treated as noise.

The undecoded prefix order is irrelevant to every rate expression, so the
canonical form keeps it ascending.  Non-canonical orders remain
representable (and evaluate identically) so invariance can be tested.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import FrozenValue, ValidationError, brief


def _users(users: Iterable[int], label: str = "users") -> tuple[int, ...]:
    """Users as plain ints, numpy integers included; bools and non-integers are refused."""
    users = tuple(users)
    if not all(hasattr(t, "__index__") and t is not bool for t in set(map(type, users))):
        raise ValidationError(f"decode order {label} must be integers, got {brief(users)}")
    return tuple(map(operator.index, users))


class DecodingOrder(FrozenValue):
    _fields = ("receiver", "perm", "decoded_from")

    def __init__(self, receiver: int, perm: Iterable[int], decoded_from: int) -> None:
        receiver, decoded_from = _users((receiver, decoded_from), "receiver and position")
        perm = _users(perm)
        num_users = len(perm)
        if sorted(perm) != list(range(1, num_users + 1)):
            raise ValidationError(
                f"perm {brief(perm)} is not a permutation of 1..{num_users}"
            )
        if not 1 <= decoded_from <= num_users:
            raise ValidationError(f"decoded_from {decoded_from} out of range")
        if perm[decoded_from - 1] != receiver:
            raise ValidationError(
                f"receiver {receiver} must sit at position {decoded_from}, "
                f"found user {perm[decoded_from - 1]}"
            )
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "decoded_from", decoded_from)

    @property
    def num_users(self) -> int:
        return len(self.perm)

    @classmethod
    def from_decode_sequence(
        cls, receiver: int, sequence: Sequence[int], num_users: int
    ) -> "DecodingOrder":
        """Build a canonical order from the decoded users in decode order.

        ``sequence`` lists the decoded users first-decoded first and must
        end with the receiver's own user.
        """
        sequence = _users(sequence)
        if not sequence or sequence[-1] != receiver:
            raise ValidationError(
                f"decode sequence for receiver {receiver} must end with user "
                f"{receiver}, got {brief(sequence)}"
            )
        if len(set(sequence)) != len(sequence):
            raise ValidationError(f"decode sequence {brief(sequence)} repeats a user")
        undecoded = sorted(set(range(1, num_users + 1)) - set(sequence))
        if len(undecoded) + len(sequence) != num_users:
            raise ValidationError(f"decode sequence {brief(sequence)} has out-of-range users")
        perm = tuple(undecoded) + tuple(reversed(sequence))
        return cls(receiver, perm, num_users - len(sequence) + 1)


def decoded_set(order: DecodingOrder) -> frozenset[int]:
    """Users actually decoded at this receiver (suffix ending at its own user)."""
    return frozenset(order.perm[order.decoded_from - 1 :])


def decode_sequence(order: DecodingOrder) -> tuple[int, ...]:
    """Decoded users in decode order: first decoded first, own user last."""
    return tuple(reversed(order.perm[order.decoded_from - 1 :]))


def undecoded_prefix(order: DecodingOrder) -> tuple[int, ...]:
    return order.perm[: order.decoded_from - 1]


def render_order(order: DecodingOrder) -> str:
    """Stable textual form: ``j: [undecoded ascending] first, ..., last``."""
    prefix = " ".join(str(u) for u in sorted(undecoded_prefix(order)))
    suffix = ", ".join(str(u) for u in decode_sequence(order))
    return f"{order.receiver}: [{prefix}] {suffix}"


class DecodingProfile(FrozenValue):
    _fields = ("orders",)

    def __init__(self, orders: Iterable[DecodingOrder]) -> None:
        orders = tuple(orders)
        num_users = len(orders)
        for j, order in enumerate(orders, start=1):
            if order.receiver != j:
                raise ValidationError(
                    f"entry {j} of the profile belongs to receiver {order.receiver}"
                )
            if order.num_users != num_users:
                raise ValidationError("all orders must cover the same user set")
        object.__setattr__(self, "orders", orders)

    @property
    def num_users(self) -> int:
        return len(self.orders)

    @classmethod
    def from_decode_sequences(
        cls, sequences: Iterable[Sequence[int]]
    ) -> "DecodingProfile":
        sequences = list(sequences)
        num_users = len(sequences)
        return cls(
            tuple(
                DecodingOrder.from_decode_sequence(j, seq, num_users)
                for j, seq in enumerate(sequences, start=1)
            )
        )


def decoder_set(profile: DecodingProfile, user: int) -> frozenset[int]:
    """Receivers that decode ``user``; always contains the user's own receiver."""
    return frozenset(
        order.receiver for order in profile.orders if user in decoded_set(order)
    )
