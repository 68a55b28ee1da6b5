"""Seeded random channel generation.

All randomness flows through a ``numpy.random.Generator`` backed by PCG64
and created from a single user-supplied seed; the same seed always yields
the same channel.
"""

from __future__ import annotations

from .axioms import MAX_VALIDATABLE_USERS
from .channels import (
    DEFAULT_DMC_TERM_CAP,
    DmcChannel,
    GaussianChannel,
    TabulatedRanks,
)
from .errors import ValidationError

GAIN_RANGE = (0.05, 2.0)
POWER_RANGE = (0.5, 2.0)
NOISE_RANGE = (0.5, 2.0)
WEIGHT_RANGE = (0.1, 2.0)

GENERATOR_KINDS = ("gaussian", "dmc", "tabulated-submodular")


def rng_from_seed(seed: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.PCG64(seed))


def random_gaussian_channel(
    num_users: int,
    rng: np.random.Generator,
    *,
    power: float | None = None,
    noise: float | None = None,
) -> GaussianChannel:
    """Gains i.i.d. positive; powers and noise random unless pinned."""
    gains = rng.uniform(*GAIN_RANGE, size=(num_users, num_users)).tolist()
    powers = (
        [float(power)] * num_users
        if power is not None
        else rng.uniform(*POWER_RANGE, size=num_users).tolist()
    )
    noise_vars = (
        [float(noise)] * num_users
        if noise is not None
        else rng.uniform(*NOISE_RANGE, size=num_users).tolist()
    )
    return GaussianChannel(gains, powers, noise_vars)


def _random_pmfs(rng: np.random.Generator, shape: tuple[int, ...]) -> list:
    """Pmfs along the last axis, drawn in the order one pmf after another would be."""
    raw = rng.uniform(0.05, 1.0, size=shape)
    return (raw / raw.sum(axis=-1, keepdims=True)).tolist()


def random_dmc_channel(num_users: int, rng: np.random.Generator) -> DmcChannel:
    """Binary-alphabet channel with random valid pmfs everywhere."""
    pmfs = tuple(_random_pmfs(rng, (2,)) for _ in range(num_users))
    joint = 1 << num_users
    transitions = tuple(_random_pmfs(rng, (joint, 2)) for _ in range(num_users))
    return DmcChannel(pmfs, transitions)


def random_submodular_tables(
    num_users: int, rng: np.random.Generator
) -> TabulatedRanks:
    """The tabulated rank functions of a Gaussian channel with unit powers and noise.

    Each is log2(1 + weighted subset sums), the weights being the gains: that
    form satisfies the rank axioms, so these tables always pass validation.
    """
    weights = [rng.uniform(*WEIGHT_RANGE, size=num_users).tolist() for _ in range(num_users)]
    channel = GaussianChannel(weights, [1.0] * num_users, [1.0] * num_users)
    masks = range(1 << num_users)
    tables = (dict(zip(masks, channel._values(j, masks))) for j in range(1, num_users + 1))
    return TabulatedRanks(num_users, tuple(tables))


def generate_channel(
    kind: str,
    num_users: int,
    seed: int,
    *,
    power: float | None = None,
    noise: float | None = None,
):
    if num_users < 1:
        raise ValidationError(f"user count must be at least 1, got {num_users}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if kind in ("dmc", "tabulated-submodular") and (power, noise) != (None, None):
        raise ValidationError(f"{kind} scenarios take no power or noise; gaussian ones do")
    # Refused before any draw: past the axiom gate's K, or once the transition
    # entries (K receivers x 2^K inputs x 2 outputs) pass one rank value's cap.
    if kind == "tabulated-submodular" and num_users > MAX_VALIDATABLE_USERS:
        raise ValidationError(
            f"tabulated-submodular is limited to K <= {MAX_VALIDATABLE_USERS}, got K = {num_users}"
        )
    if kind == "dmc" and num_users * 2 << num_users > DEFAULT_DMC_TERM_CAP:
        raise ValidationError(
            f"dmc at K = {num_users} needs {num_users * 2 << num_users} transition entries, "
            f"past the cap of {DEFAULT_DMC_TERM_CAP}"
        )
    rng = rng_from_seed(seed)
    if kind == "gaussian":
        return random_gaussian_channel(num_users, rng, power=power, noise=noise)
    if kind == "dmc":
        return random_dmc_channel(num_users, rng)
    if kind == "tabulated-submodular":
        return random_submodular_tables(num_users, rng)
    raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {kind!r}")
