"""Rotationally invariant spin channels and their entropy landscape.

The package builds the isotropic channel for any half-integer spin, searches
for the minimum output entropy over pure inputs by batched multi-start L-BFGS
on the unit sphere with exact gradients and for the minimum entropy gain by
one such descent, certifying the gain's minimum by its range bound or by
convexity and the isotropic channel's minimum output entropy h(1/(s+1)) up
to spin 199.5, and decomposes rotationally invariant two-spin states into
total-spin blocks with cross-checked closed-form references.
"""

from .channel import (
    KrausChannel,
    apply,
    channel_from_json,
    channel_to_json,
    entropy_gain,
    isotropic_channel,
    load_channel,
    output_gram,
    random_channel,
    save_channel,
    tensor,
)
from .invariant import (
    IsotypicDistribution,
    SingletDecoherenceReport,
    decohered_singlet,
    invariant_state_entropy,
    isotypic_probabilities,
    joint_min_bound,
    single_min_bound,
    single_min_entropy,
    singlet_decoherence,
    state_from_distribution,
)
from .linalg import (
    ConsistencyError,
    ContractViolation,
    check_pure_state,
    kron,
    spectrum_entropy,
    von_neumann_entropy,
)
from .optimize import (
    ProbeReport,
    SearchConfig,
    SearchReport,
    additivity_probe,
    gain_convexity_bound,
    gain_lower_bound,
    haar_pure,
    min_entropy_gain,
    min_output_entropy,
    schmidt_coefficients,
)
from .spin import (
    SpinLabel,
    rotation_unitary,
    singlet_state,
    spin_operators,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "ContractViolation",
    "IsotypicDistribution",
    "KrausChannel",
    "ProbeReport",
    "SearchConfig",
    "SearchReport",
    "SingletDecoherenceReport",
    "SpinLabel",
    "additivity_probe",
    "apply",
    "channel_from_json",
    "channel_to_json",
    "check_pure_state",
    "decohered_singlet",
    "entropy_gain",
    "gain_convexity_bound",
    "gain_lower_bound",
    "haar_pure",
    "invariant_state_entropy",
    "isotropic_channel",
    "isotypic_probabilities",
    "joint_min_bound",
    "kron",
    "load_channel",
    "min_entropy_gain",
    "min_output_entropy",
    "output_gram",
    "random_channel",
    "rotation_unitary",
    "save_channel",
    "schmidt_coefficients",
    "single_min_bound",
    "single_min_entropy",
    "singlet_decoherence",
    "singlet_state",
    "spectrum_entropy",
    "spin_operators",
    "state_from_distribution",
    "tensor",
    "von_neumann_entropy",
]
