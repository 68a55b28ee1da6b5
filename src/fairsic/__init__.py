"""Max-min fair successive-decoding orders for K-user interference channels.

Receivers that cancel decoded interference can trade decoding order for
fairness: this package computes, per receiver, the order that maximizes
the minimum user rate, evaluates the resulting rates, and certifies the
greedy construction against an exhaustive search at small user counts.
"""

from .axioms import AxiomReport, ReceiverAxiomReport, validate_rank_axioms
from .channels import (
    DmcChannel,
    GaussianChannel,
    RankFunctionSet,
    TabulatedRanks,
    dmc_rank_value,
    rank_value,
)
from .errors import (
    CapacityError,
    FairsicError,
    IncompleteTableError,
    NonRankInputError,
    ScenarioParseError,
    ValidationError,
)
from .generate import (
    generate_channel,
    random_dmc_channel,
    random_gaussian_channel,
    random_submodular_tables,
    rng_from_seed,
)
from .greedy import (
    SolveReport,
    gaussian_fast_order,
    gaussian_rate_formula,
    greedy_order,
    greedy_profile,
)
from .oracle import (
    BruteForceResult,
    CertificationReport,
    EnumerationBudget,
    brute_force_maxmin,
    certify,
    count_orders,
    enumerate_orders,
)
from .ordering import (
    DecodingOrder,
    DecodingProfile,
    decode_sequence,
    decoded_set,
    decoder_set,
    render_order,
    undecoded_prefix,
)
from .rates import min_rate, rate_vector, receiver_rate_bounds
from .scenario import (
    dump_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_doc,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BruteForceResult",
    "CapacityError",
    "CertificationReport",
    "DecodingOrder",
    "DecodingProfile",
    "DmcChannel",
    "EnumerationBudget",
    "FairsicError",
    "GaussianChannel",
    "IncompleteTableError",
    "NonRankInputError",
    "RankFunctionSet",
    "ReceiverAxiomReport",
    "ScenarioParseError",
    "SolveReport",
    "TabulatedRanks",
    "ValidationError",
    "brute_force_maxmin",
    "certify",
    "count_orders",
    "decode_sequence",
    "decoded_set",
    "decoder_set",
    "dmc_rank_value",
    "dump_scenario",
    "enumerate_orders",
    "gaussian_fast_order",
    "gaussian_rate_formula",
    "generate_channel",
    "greedy_order",
    "greedy_profile",
    "load_scenario",
    "min_rate",
    "parse_scenario",
    "random_dmc_channel",
    "random_gaussian_channel",
    "random_submodular_tables",
    "rank_value",
    "rate_vector",
    "receiver_rate_bounds",
    "render_order",
    "rng_from_seed",
    "save_scenario",
    "scenario_doc",
    "undecoded_prefix",
    "validate_rank_axioms",
]
