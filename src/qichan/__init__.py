"""Finite-dimensional quantum channel analysis.

Given a channel by its element (Kraus) matrices, this package computes the
algebra of observables the channel preserves, the channel that corrects
them, the complementary flow to the environment, the classical pointer
structure that both sides agree on, and capacity estimates for the
observables involved.
"""

from .algebras import (
    center,
    commutant,
    generate_star_algebra,
    intersect,
    span_of,
    spans_equal,
    structure_decompose,
)
from .capacity import observable_capacity, shannon_capacity
from .channels import (
    Channel,
    DiscreteObservable,
    apply,
    apply_dual,
    channels_equal,
    choi_of,
    complement,
    compose,
    identity_channel,
    kraus_from_choi,
    povm_probabilities,
    tensor,
    validate_channel,
)
from .correction import (
    CodeSubspace,
    correctable_operator_system,
    correctable_report,
    correction_channel,
    interaction_span,
    kl_check,
    oqec_check,
    preserved_algebra,
    restrict,
    span_equivalent,
)
from .decoherence import (
    StochasticMap,
    broadcast_pointer,
    coarse_grain_solve,
    dephasing_sweep,
    effect_region_sample,
    exact_binary_classicality,
    exact_classicality,
    full_decoherence_check,
    iterated_fixed_points,
    pointer_algebra,
)
from .numlin import Tolerance

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "CodeSubspace",
    "DiscreteObservable",
    "StochasticMap",
    "Tolerance",
    "apply",
    "apply_dual",
    "broadcast_pointer",
    "center",
    "channels_equal",
    "choi_of",
    "coarse_grain_solve",
    "commutant",
    "complement",
    "compose",
    "correctable_operator_system",
    "correctable_report",
    "correction_channel",
    "dephasing_sweep",
    "effect_region_sample",
    "exact_binary_classicality",
    "exact_classicality",
    "full_decoherence_check",
    "generate_star_algebra",
    "identity_channel",
    "interaction_span",
    "intersect",
    "iterated_fixed_points",
    "kl_check",
    "kraus_from_choi",
    "observable_capacity",
    "oqec_check",
    "pointer_algebra",
    "povm_probabilities",
    "preserved_algebra",
    "restrict",
    "shannon_capacity",
    "span_equivalent",
    "span_of",
    "spans_equal",
    "structure_decompose",
    "tensor",
    "validate_channel",
]
