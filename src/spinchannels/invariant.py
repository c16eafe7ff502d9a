"""Block decomposition of rotationally invariant two-spin states.

A state commuting with every U tensor U rotation is a direct mixture of the
total-spin blocks j = 0..2s, each block carrying the maximally mixed state on
its 2j+1 dimensional space. Such a state is fully described by the block
probabilities p_j, and its entropy splits into a classical part over j plus
the log-multiplicity of each block:

    S = sum_j [ p_j log(2j+1) - p_j log p_j ].

For the doubly decohered singlet the p_j have a closed form,
(1/3, q, 2/3 - q, 0, ..., 0) with q = 1/(2s(s+1)), and `singlet_decoherence`
reports exactly that, in O(d) at every spin. Three matrix routes are kept as
its references. The projector trace tr(P_j rho) works for any invariant
state; the matrix element (2j+1) <j;0|rho|j;0> must match it because an
invariant state is constant on each block, and `isotypic_probabilities`
raises when the two disagree; and a moment formula in the spin matrix
elements gives the decohered singlet's p_j without building its state. The
tests and `verify` compare all three with the closed form.

J^2 conserves the total magnetic number M = m + m', so every P_j is block
diagonal over the 2d-1 sectors of fixed M, each of size at most d. Traces
against P_j and sums of weighted P_j are therefore taken one sector at a
time from `spin._casimir_sectors`; no d^2 x d^2 projector or eigensolve of
the full J^2 is formed on this path. Invariance is checked exactly against
the twirl T(rho) = sum_j tr(P_j rho) P_j / (2j+1), the average of
W rho W^dagger over all rotations W = U tensor U. Every W fixes T(rho), so
max |W rho W^dagger - rho| <= 2 ||rho - T(rho)||_F at every rotation at
once, and T reuses the block weights' sector pass.

Product channels act factor by factor. With the row-major flattening of
`linalg.kron`, a two-spin vector psi is the d x d matrix Psi, and

    (X_k tensor X_l) vec Psi = vec(X_k Psi X_l^T),

so the output of Lambda tensor Lambda on |psi><psi| is sum_kl v_kl v_kl^dagger
with v_kl = vec(X_k Psi X_l^T). No d^2 x d^2 Kraus operator is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import isotropic_channel
from .linalg import (
    ConsistencyError,
    ContractViolation,
    log_base_label,
    log_divisor,
    require_hermitian,
    size_text,
)
from .spin import (
    SpinLabel,
    _casimir_sectors,
    _coupled_zero_m_states,
    singlet_state,
    spin_operators,
)

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)

# Exact single-use minimum output entropies of the isotropic channel, keyed
# by 2s, in nats. Only the two spins with known closed forms appear.
EXACT_SINGLE_CHANNEL_MIN = {
    1: _LN3 - 2.0 * _LN2 / 3.0,
    2: _LN2,
}
SINGLE_MIN_CLOSED_FORM = {
    1: "ln 3 - (2/3) ln 2",
    2: "ln 2",
}

# Exact output entropy of the doubly decohered singlet, same keying.
EXACT_PAIR_ENTROPY = {
    1: 5.0 * _LN3 / 3.0 - 2.0 * _LN2 / 3.0,
    2: _LN3 + 4.0 * _LN2 / 3.0,
}
PAIR_ENTROPY_CLOSED_FORM = {
    1: "(5/3) ln 3 - (2/3) ln 2",
    2: "ln 3 + (4/3) ln 2",
}

EXACT_EXCESS = {
    1: math.log(4.0 / 3.0) / 3.0,
    2: _LN3 - 2.0 * _LN2 / 3.0,
}
EXCESS_CLOSED_FORM = {
    1: "(1/3) ln(4/3)",
    2: "ln 3 - (2/3) ln 2",
}

_CROSS_CHECK_TOL = 1e-9
# Bytes a `singlet` report holds per block weight on its way to stdout: the
# float and its tuple slot, the array copies `IsotypicDistribution` checks
# them in, and the rendered row. tracemalloc peaks through the CLI at
# 2s = 800, 20,000 and 200,000 came to about 290 per weight for json and 350
# for text; the larger is used, so the 1 GiB cap admits 2s up to about 3
# million.
_REPORT_BYTES_PER_WEIGHT = 350
SINGLET_BYTE_CAP = 2**30


@dataclass(frozen=True)
class IsotypicDistribution:
    """Block probabilities (p_0, ..., p_2s) of an invariant two-spin state."""

    spin: SpinLabel
    probs: tuple

    def __post_init__(self):
        label = SpinLabel.coerce(self.spin)
        object.__setattr__(self, "spin", label)
        raw = np.asarray(self.probs, dtype=float)
        if raw.shape != (label.twice_s + 1,):
            raise ContractViolation(
                f"expected {label.twice_s + 1} block probabilities for spin {label}, "
                f"got shape {raw.shape}"
            )
        if not np.isfinite(raw).all():
            raise ContractViolation("block probabilities are not finite")
        lowest = float(raw.min()) if raw.size else 0.0
        if lowest < -1e-8:
            raise ContractViolation(f"block probability {lowest:.3e} violates positivity")
        clamped = np.clip(raw, 0.0, None)
        total = float(clamped.sum())
        if abs(total - 1.0) > 1e-8:
            raise ContractViolation(f"block probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", tuple(float(p) for p in clamped))


@dataclass(frozen=True)
class SingletDecoherenceReport:
    """Everything the singlet decoherence computation produces, in one place.

    Reference fields (single_channel_min, two_channel_reference, excess) are
    None for spins without a known closed-form single-channel minimum.
    """

    spin: SpinLabel
    probs: tuple
    entropy: float
    single_channel_min: float | None
    two_channel_reference: float | None
    excess: float | None
    log_base: float | None

    def as_dict(self) -> dict:
        payload = {
            "spin": str(self.spin),
            "probs": list(self.probs),
            "entropy": self.entropy,
            "log_base": log_base_label(self.log_base),
        }
        if self.single_channel_min is not None:
            payload["single_channel_min"] = self.single_channel_min
            payload["two_channel_reference"] = self.two_channel_reference
            payload["excess"] = self.excess
        return payload


def _invariant_state(label: SpinLabel, sectors: list, probs) -> np.ndarray:
    """sum_j p_j P_j / (2j+1): sector M's block is V diag(p_j / (2j+1)) V^T."""
    weights = np.asarray(probs) / (2 * np.arange(label.dimension) + 1)
    out = np.zeros((label.dimension**2,) * 2, dtype=np.complex128)
    for indices, j_values, vectors in sectors:
        out[np.ix_(indices, indices)] = (vectors * weights[j_values]) @ vectors.T
    return out


def _require_invariant(rho: np.ndarray, label: SpinLabel, tol: float) -> np.ndarray:
    """Reject rho unless 2 ||rho - T(rho)||_F <= tol; return tr(P_j rho), j = 0..2s.

    Every rotation W fixes T(rho), so max |W rho W^dagger - rho| is at most
    2 ||rho - T(rho)||_F at every W at once. The residual is formed entrywise:
    ||rho||^2 - ||T(rho)||^2 cancels to about sqrt(eps) ||rho||, near tol.
    """
    # P_j = sum_M |j;M><j;M| with real sector vectors, so tr(P_j rho) sums
    # v^T rho_MM v over the columns v of each sector that belong to block j.
    sectors = _casimir_sectors(label)
    traces = np.zeros(label.dimension)
    for indices, j_values, vectors in sectors:
        block = rho[np.ix_(indices, indices)]
        traces[j_values] += np.real(np.sum(vectors * (block @ vectors), axis=0))
    residual = _invariant_state(label, sectors, traces)
    residual -= rho
    deviation = 2.0 * float(np.linalg.norm(residual))
    if not deviation <= tol:  # NaN fails too
        raise ContractViolation(
            f"state is not rotationally invariant: twirl residual {deviation:.3e} > {tol:.1e}"
        )
    return traces


def isotypic_probabilities(rho, spin, invariance_tol: float = 1e-8) -> IsotypicDistribution:
    """Block probabilities of an invariant state on two spin-s systems.

    Computes tr(P_j rho) one total-M sector at a time, as the sum of
    <j;M|rho|j;M> over the sectors |M| <= j. The same pass rejects rho unless
    its twirl residual 2 ||rho - T(rho)||_F, which bounds its deviation under
    every rotation, is at most `invariance_tol`. The weights must agree with
    the matrix elements (2j+1) <j;0|rho|j;0> within 1e-9 or the call fails;
    the projector route's values are returned. The |j;0> stack is built once
    per call.
    """
    label = SpinLabel.coerce(spin)
    d = label.dimension
    m = require_hermitian(rho, name="invariant state")
    if m.shape != (d * d, d * d):
        raise ContractViolation(f"state shape {m.shape} does not match two spin-{label} systems")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > 1e-10:
        raise ContractViolation(f"state trace is {trace!r}, not 1")
    traces = _require_invariant(m, label, invariance_tol)
    states = _coupled_zero_m_states(label)
    diagonal = np.real(np.einsum("ja,ja->j", states.conj(), states @ m.T))
    worst = float(np.abs(traces - (2 * np.arange(d) + 1) * diagonal).max())
    if worst > _CROSS_CHECK_TOL:
        raise ConsistencyError(
            f"projector-trace and matrix-element block probabilities disagree by {worst:.3e}"
        )
    return IsotypicDistribution(label, tuple(traces))


def _product_vectors(ops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Rows (X_k tensor X_l) psi = vec(X_k Psi X_l^T), pairs (k, l) row major."""
    d = ops.shape[-1]
    left = ops @ psi.reshape(d, d)
    return (left[:, np.newaxis] @ ops.transpose(0, 2, 1)[np.newaxis]).reshape(-1, d * d)


def moment_probabilities(spin) -> IsotypicDistribution:
    """Block probabilities of the doubly decohered singlet via spin moments.

    Closed route that never builds the output state:

        p_j = (2j+1) / (s(s+1))^2 * sum_kl |<j;0| S_k tensor S_l |singlet>|^2.

    Each S_k tensor S_l |singlet> is formed factor by factor as
    vec(S_k Psi S_l^T), and the |j;0> stack is built once per call. Must
    agree with the channel route within 1e-10 and with the closed form in
    `singlet_decoherence` (compared in the tests and in `verify`, not here).
    """
    label = SpinLabel.coerce(spin)
    if label.twice_s == 0:
        raise ContractViolation("the isotropic channel is undefined for spin 0 (s(s+1) = 0)")
    states = _coupled_zero_m_states(label)
    moved = _product_vectors(np.stack(spin_operators(label)), states[0])
    scale = 1.0 / (label.s * (label.s + 1.0)) ** 2
    totals = (np.abs(states.conj() @ moved.T) ** 2).sum(axis=1)
    probs = [(2 * j + 1) * scale * float(t) for j, t in enumerate(totals)]
    return IsotypicDistribution(label, tuple(probs))


def invariant_state_entropy(distribution: IsotypicDistribution, base=None) -> float:
    """Entropy of the invariant state with the given block probabilities.

    Evaluates sum_j [p_j log(2j+1) - p_j log p_j]; zero-probability blocks
    contribute nothing.
    """
    total = 0.0
    for j, p in enumerate(distribution.probs):
        if p > 0.0:
            total += p * math.log(2 * j + 1) - p * math.log(p)
    return total / log_divisor(base)


def state_from_distribution(distribution: IsotypicDistribution) -> np.ndarray:
    """Reconstruct the invariant state sum_j p_j P_j / (2j+1).

    Assembled one total-M sector at a time by `_invariant_state`.
    """
    label = distribution.spin
    return _invariant_state(label, _casimir_sectors(label), distribution.probs)


def decohered_singlet(spin) -> np.ndarray:
    """(Lambda_s tensor Lambda_s)(|singlet><singlet|), the invariant output.

    Applied factor by factor: with v_kl = vec(X_k Psi X_l^T) for the Kraus
    operators X_k of Lambda_s, the output is sum_kl v_kl v_kl^dagger. This
    takes O(d^4) memory and never builds the 9-operator d^2 x d^2 Kraus stack.
    """
    label = SpinLabel.coerce(spin)
    vectors = _product_vectors(isotropic_channel(label).kraus, singlet_state(label))
    return vectors.T @ vectors.conj()


def singlet_decoherence(spin, base=None) -> SingletDecoherenceReport:
    """Full analysis of the doubly decohered singlet for one spin value.

    The block weights of (Lambda_s tensor Lambda_s)(|singlet><singlet|) have
    the closed form

        p = (1/3, q, 2/3 - q, 0, ..., 0),   q = 1 / (2 s(s+1)),

    so the report costs O(d) and never builds the d^2 x d^2 output state; the
    entropy is the block formula over these weights. `decohered_singlet`,
    `isotypic_probabilities` and `moment_probabilities` are the matrix
    references it is compared against in the tests and in `verify`. For spins
    with known closed-form single-channel minima the report also carries the
    additivity reference 2 * min and the strictly positive excess above it.
    """
    label = SpinLabel.coerce(spin)
    if label.twice_s == 0:
        raise ContractViolation("the isotropic channel is undefined for spin 0 (s(s+1) = 0)")
    d = label.dimension
    needed = d * _REPORT_BYTES_PER_WEIGHT
    if needed > SINGLET_BYTE_CAP:
        # past 300 digits the exact spin is no use in a message, and past
        # 4,300 str() refuses it
        shown = label if label.twice_s.bit_length() <= 1000 else f"~{size_text(label.twice_s, 1)}"
        raise ContractViolation(
            f"spin {shown} needs about {size_text(needed, 30)} GiB for its block weights, "
            f"more than the {size_text(SINGLET_BYTE_CAP, 30)} GiB cap"
        )
    q = 1.0 / (2.0 * label.s * (label.s + 1.0))
    # at spin 1/2 the third weight 2/3 - q is exactly 0 and has no block
    probs = (1.0 / 3.0, q, 2.0 / 3.0 - q)[:d] + (0.0,) * (d - 3)
    distribution = IsotypicDistribution(label, probs)
    entropy_nats = invariant_state_entropy(distribution)

    divisor = log_divisor(base)
    single = EXACT_SINGLE_CHANNEL_MIN.get(label.twice_s)
    if single is None:
        single_out = reference_out = excess_out = None
    else:
        excess = entropy_nats - 2.0 * single
        if excess <= 0.0:
            raise ConsistencyError(
                f"decohered singlet entropy {entropy_nats!r} does not exceed "
                f"the additivity reference {2.0 * single!r}"
            )
        single_out = single / divisor
        reference_out = 2.0 * single / divisor
        excess_out = excess / divisor
    return SingletDecoherenceReport(
        spin=label,
        probs=distribution.probs,
        entropy=entropy_nats / divisor,
        single_channel_min=single_out,
        two_channel_reference=reference_out,
        excess=excess_out,
        log_base=base,
    )
