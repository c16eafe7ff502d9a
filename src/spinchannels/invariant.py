"""Block decomposition of rotationally invariant two-spin states.

A state commuting with every U tensor U rotation is a direct mixture of the
total-spin blocks j = 0..2s, each block carrying the maximally mixed state on
its 2j+1 dimensional space. Such a state is fully described by the block
probabilities p_j, and its entropy splits into a classical part over j plus
the log-multiplicity of each block:

    S = sum_j [ p_j log(2j+1) - p_j log p_j ].

For the doubly decohered singlet the p_j have a closed form,
(1/3, q, 2/3 - q, 0, ..., 0) with q = 1/(2s(s+1)), and `singlet_decoherence`
reports exactly that, in O(d) at every spin. `isotypic_probabilities` is
the matrix route for any invariant state: the projector traces tr(P_j rho),
which must match the matrix elements (2j+1) <j;0|rho|j;0> because an
invariant state is constant on each block; it raises when the two disagree.
The tests compare it with the closed form on `decohered_singlet`, and both
with references of their own. `verify` takes no block route: it checks the
closed-form excess against the eigenvalues of `decohered_singlet`.

J^2 conserves the total magnetic number M = m + m', so every P_j is block
diagonal over the 2d-1 sectors of fixed M, each of size at most d. This
module owns the padded stack of those sectors: `_solve_sectors` lays out,
solves and checks J^2 on each in one loop, and `_casimir_sectors` keeps
the result read-only with the positions in rho of the in-sector entries,
once per spin per process for up to SECTOR_CACHE_SPINS spins. Traces
against P_j and sums of weighted P_j go through those positions, in one
gather or scatter and one batched matmul; no d^2 x d^2 projector or
eigensolve of the full J^2 is formed on this path. Invariance is checked
exactly against the twirl T(rho) = sum_j tr(P_j rho) P_j / (2j+1), the
average of W rho W^dagger over all rotations W = U tensor U. Every W fixes
T(rho), so max |W rho W^dagger - rho| <= 2 ||rho - T(rho)||_F at every
rotation at once. The residual reads rho once, both triangles, in row
slabs that hand the in-sector entries to the block weights and sum the
rest, so T(rho) is never built. T(rho) is Hermitian, so a residual below
1e-10 proves rho Hermitian too, and `linalg.require_hermitian` reads rho again
only above it.

The module also owns the single-use minimum S_min(Lambda_s) = h(1/(s+1)), h
the binary entropy: `single_min_entropy` is its one value at every spin, and
`single_min_bound` certifies it from below up to a stated rounding margin at
2s = 1 to 399, past spin 1 from the eigenvalues of one real symmetric pencil.
`joint_min_bound` certifies the two-copy minimum 2 h(1/(s+1)) at spins 1/2
and 1, where additivity is a theorem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _product_columns, isotropic_channel
from .linalg import (
    HERMITICITY_TOL,
    ConsistencyError,
    ContractViolation,
    as_complex_matrix,
    require_hermitian,
    size_text,
    slab_rows,
)
from .optimize import _ROUNDING, SEARCH_DIMENSION_CAP
from .spin import SpinLabel, _raising_elements, singlet_state

_CROSS_CHECK_TOL = 1e-9
_INVARIANCE_TOL = 1e-8
# Bytes a `singlet` report holds per block weight on its way to stdout: the
# float and its tuple slot, the array copies `IsotypicDistribution` checks
# them in, and the rendered row. tracemalloc peaks through the CLI at
# 2s = 800, 20,000 and 200,000 came to about 290 per weight for json and 350
# for text; the larger is used, so the 1 GiB cap admits 2s up to about 3
# million.
_REPORT_BYTES_PER_WEIGHT = 350
SINGLET_BYTE_CAP = 2**30

CLUSTER_TOL = 1e-6  # max distance of a computed Casimir eigenvalue from j(j+1)
# Spins whose checked sectors `_casimir_sectors` keeps. An entry at dimension d holds
# (2d-1) d (8d + 16) + 16 d (2d^2 + 1) / 3 bytes (stacks, then int64 positions and slots),
# about 5/(3d) of the d^2 x d^2 complex state that needs it: 138 kB at 2s = 16 and
# 6.1 MB at 2s = 60, so at most 2.2 MB for spins up to 2s = 16 and 98 MB up to 2s = 60.
SECTOR_CACHE_SPINS = 16


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
    """Everything the singlet decoherence computation produces, entropies in nats.

    single_channel_min is `single_min_entropy` of the spin, and excess is
    entropy - 2 * single_channel_min, the excess over the additivity
    reference, positive at every spin.
    """

    spin: SpinLabel
    probs: tuple
    entropy: float
    single_channel_min: float
    excess: float


def _solve_sectors(label: SpinLabel) -> tuple:
    """(indices, j values, vectors) of J^2 on every sector M = 2s - k, k = 0..4s, padded to d.

    Row k holds |m_a> x |m_b> with a + b = k, a ascending, at flattened
    index a*d + b, padded with -1. J^2 = 2s(s+1) + 2 S_3 x S_3 + S_+ x S_- +
    S_- x S_+ keeps a + b fixed, so its restriction is real symmetric
    tridiagonal: diagonal 2s(s+1) + 2 m_a m_b, and r_a r_(b-1) between (a, b)
    and (a+1, b-1), with r the ladder elements of `spin.spin_operators`.
    Column c of a sector's vector block is |j; M> for j = |M| + c, up to
    sign, padded j being -1. Sector M meets each block j = |M|..2s once, so
    the c-th eigenvalue must lie within CLUSTER_TOL of j(j+1); the first
    sector that fails is named. Each sector gets its own eigh: a padded
    batched one is slower from 2s = 32.
    """
    d, s = label.dimension, label.s
    m, ladder = s - np.arange(d), _raising_elements(label)
    indices, j_values = np.full((2 * d - 1, d), -1), np.full((2 * d - 1, d), -1)
    vectors = np.zeros((2 * d - 1, d, d))
    for k in range(2 * d - 1):
        a = np.arange(max(0, k - label.twice_s), min(k, label.twice_s) + 1)
        b, n, j = k - a, a.size, np.arange(abs(label.twice_s - k), d)
        off = np.diag(ladder[a[:-1]] * ladder[b[1:]], 1)
        matrix = np.diag(2.0 * s * (s + 1.0) + 2.0 * m[a] * m[b]) + off + off.T
        eigenvalues, vectors[k, :n, :n] = np.linalg.eigh(matrix)
        indices[k, :n], j_values[k, :n] = a * d + b, j
        worst = np.abs(eigenvalues - j * (j + 1)).max()
        if not worst <= CLUSTER_TOL:
            raise ConsistencyError(
                f"Casimir eigenvalues of sector M = {label.twice_s - k} are {worst:.3e} "
                f"from j(j+1), j = {j[0]}..{label.twice_s}; clustering failed"
            )
    return indices, j_values, vectors


@functools.lru_cache(maxsize=SECTOR_CACHE_SPINS)
def _casimir_sectors(label: SpinLabel) -> tuple:
    """`_solve_sectors` for every total M, in order M = 2s, 2s-1, ..., -2s, checked and kept.

    Returns the padded (indices, j values, vectors) stacks, then two arrays
    listing each in-sector entry of a d^2 x d^2 rho, sorted by row: its
    position row * d^2 + col and its slot in the flattened stack. The M = 0
    sector's columns, the |j;0>, also pass `_check_zero_m_states`. A spin's
    arrays are kept only once both checks pass, for the last
    SECTOR_CACHE_SPINS spins asked for, and every caller gets the same
    read-only arrays; a failed check raises and keeps nothing.
    """
    d = label.dimension
    indices, j_values, vectors = _solve_sectors(label)
    slots = np.flatnonzero((indices[:, :, None] >= 0) & (indices[:, None, :] >= 0))
    positions = (indices[:, :, None] * d * d + indices[:, None, :]).ravel()[slots]
    order = np.argsort(positions)
    sectors = indices, j_values, vectors, positions[order], slots[order]
    _check_zero_m_states(label, indices[d - 1], vectors[d - 1].T)  # k = d - 1 is M = 0
    for array in sectors:
        array.flags.writeable = False
    return sectors


def _check_zero_m_states(label: SpinLabel, index: np.ndarray, rows: np.ndarray) -> None:
    """Raise unless row j of the real (d, d) `rows`, on flattened indices `index`, is +-|j;0>.

    Every row at once, residuals at most 1e-10: J^2 |j;0> = j(j+1) |j;0> and
    J_3 |j;0> = 0. With V = |j;0> as a d x d matrix, J^2 = 2s(s+1) +
    2 S_3 x S_3 + S_+ x S_- + S_- x S_+ acts in ladder form, in O(d^3) for the
    stack: (2s(s+1) + 2 m_a m_b) V[a, b] + r_a r_(b-1) V[a+1, b-1] +
    r_(a-1) r_b V[a-1, b+1], with r the ladder elements of `spin.spin_operators`.
    """
    d = label.dimension
    states = np.zeros((d, d * d))
    states[:, index] = rows
    v = states.reshape(d, d, d)
    m, ladder = label.s - np.arange(d), _raising_elements(label)
    eigenvalues = np.arange(d) * (np.arange(d) + 1.0)
    diagonal = 2.0 * label.s * (label.s + 1.0) + 2.0 * np.multiply.outer(m, m)
    residual = (diagonal - eigenvalues[:, None, None]) * v  # J^2 V - j(j+1) V
    hops = np.multiply.outer(ladder, ladder)
    residual[:, :-1, 1:] += hops * v[:, 1:, :-1]
    residual[:, 1:, :-1] += hops * v[:, :-1, 1:]
    casimir = np.linalg.norm(residual.reshape(d, -1), axis=1)
    magnetic = np.linalg.norm(rows * np.add.outer(m, m).ravel()[index], axis=1)
    failing = np.flatnonzero((casimir > 1e-10) | (magnetic > 1e-10))
    if failing.size:
        j = failing[0]
        operator = "J^2" if casimir[j] > 1e-10 else "J_3"
        raise ConsistencyError(f"|{j};0> fails the {operator} eigenvector residual check")


def _projector_sum(label: SpinLabel, weights) -> np.ndarray:
    """sum_j w_j P_j: the cached sectors' V diag(w_j) V^T in one batched matmul and one scatter."""
    _, j_values, vectors, positions, slots = _casimir_sectors(label)
    blocks = (vectors * np.asarray(weights)[j_values][:, None, :]) @ vectors.transpose(0, 2, 1)
    out = np.zeros(label.dimension**4, dtype=np.complex128)
    out[positions] = blocks.reshape(-1)[slots]
    return out.reshape(label.dimension**2, -1)


def _twirl_pass(rho: np.ndarray, label: SpinLabel) -> tuple:
    """(tr(P_j rho), <j;M|rho|j;M>, 2 ||rho - T(rho)||_F, whether rho is proved Hermitian).

    Every rotation W fixes T(rho), so max |W rho W^dagger - rho| is at most
    2 ||rho - T(rho)||_F at every W at once. It is summed entrywise (a
    difference of norms cancels to about sqrt(eps) ||rho||). rho is read once,
    in slabs of `slab_rows` full rows: each slab is copied, its in-sector
    entries are gathered through the cached positions and zeroed, and one
    vdot sums the off-sector rest. In the sectors the residual is the
    gathered blocks minus V diag(w_j) V^T. T(rho) is Hermitian, so max |rho -
    rho^dagger| is at most the residual, and rho is proved Hermitian where the
    residual times 1 + 1e-6 (d^4 eps < 1e-6 at any size in memory), plus
    2 (d + 2) eps max |w_j| for the asymmetry of the computed V diag(w_j) V^T,
    is at most HERMITICITY_TOL. NaN or inf fails both tests.
    """
    d, n = label.dimension, label.dimension**2
    _, j_values, vectors, positions, slots = _casimir_sectors(label)
    inside, squares, rows = np.empty(len(positions), dtype=np.complex128), 0.0, slab_rows(n)
    bounds = np.searchsorted(positions, np.arange(0, n + rows, rows) * n)  # slab ends
    for start, lo, hi in zip(range(0, n, rows), bounds, bounds[1:]):
        slab = rho[start : start + rows].copy().reshape(-1)
        at = positions[lo:hi] - start * n
        inside[lo:hi] = slab[at]
        slab[at] = 0.0
        squares += np.vdot(slab, slab).real
    blocks = np.zeros(vectors.shape, dtype=np.complex128)
    blocks.reshape(-1)[slots] = inside
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaNs, which fail both tests
        # tr(P_j rho) sums v^T Re(rho_MM) v over the real sector columns v of block j
        columns = np.sum(vectors * (blocks.real.copy() @ vectors), axis=1)  # copied for BLAS
        live = j_values >= 0
        traces = np.bincount(j_values[live], weights=columns[live], minlength=d)
        weights = traces / (2 * np.arange(d) + 1)
        blocks -= (vectors * weights[j_values][:, None, :]) @ vectors.transpose(0, 2, 1)
        squares += np.vdot(blocks, blocks).real
        deviation = 2.0 * math.sqrt(squares)
        slack = 2 * (d + 2) * np.finfo(float).eps * np.abs(weights).max()
        hermitian = deviation * (1.0 + 1e-6) + slack <= HERMITICITY_TOL
    return traces, columns, deviation, hermitian


def _require_invariant(rho: np.ndarray, label: SpinLabel, measured: tuple = ()) -> tuple:
    """Reject rho unless 2 ||rho - T(rho)||_F <= 1e-8; return (tr(P_j rho), <j;M|rho|j;M>)."""
    traces, columns, deviation, _ = measured or _twirl_pass(rho, label)  # measured: an earlier pass
    if not deviation <= _INVARIANCE_TOL:  # NaN fails too
        raise ContractViolation(
            "state is not rotationally invariant:"
            f" twirl residual {deviation:.3e} > {_INVARIANCE_TOL:.1e}"
        )
    return traces, columns


def isotypic_probabilities(rho, spin) -> IsotypicDistribution:
    """Block probabilities of an invariant state on two spin-s systems.

    Computes tr(P_j rho) as the sum of <j;M|rho|j;M> over the total-M sectors
    |M| <= j, all sectors at once. The same pass rejects rho unless its twirl
    residual 2 ||rho - T(rho)||_F, which bounds its deviation under every
    rotation, is at most 1e-8; below 1e-10 it proves rho Hermitian too, so
    rho is read once. Only above that, or on NaN or inf, does `require_hermitian`
    read rho again, and its errors come first. The weights must agree with the
    matrix elements (2j+1) <j;0|rho|j;0> within 1e-9 or the call fails; the
    projector route's values are returned. The |j;0> are the M = 0 sector's
    vectors from that same pass and need no phase. The sectors are solved and
    checked once per spin per process by `_casimir_sectors`, and shared
    read-only; every check on rho runs on every call. Besides rho the call
    holds O(d^3) memory and a row slab.
    """
    label = SpinLabel.coerce(spin)
    d = label.dimension
    m = as_complex_matrix(rho)
    if m.shape != (d * d, d * d):
        require_hermitian(m, name="invariant state")  # not square, finite or Hermitian comes first
        raise ContractViolation(f"state shape {m.shape} does not match two spin-{label} systems")
    measured = _twirl_pass(m, label)
    if not measured[3]:  # the residual does not prove m Hermitian
        require_hermitian(m, name="invariant state")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > 1e-10:
        raise ContractViolation(f"state trace is {trace!r}, not 1")
    traces, columns = _require_invariant(m, label, measured)
    zero = d - 1  # sector M = 0, whose column j is |j;0>
    worst = float(np.abs(traces - (2 * np.arange(d) + 1) * columns[zero]).max())
    if worst > _CROSS_CHECK_TOL:
        raise ConsistencyError(
            f"projector-trace and matrix-element block probabilities disagree by {worst:.3e}"
        )
    return IsotypicDistribution(label, tuple(traces))


def invariant_state_entropy(distribution: IsotypicDistribution) -> float:
    """Entropy in nats of the invariant state with the given block probabilities.

    Evaluates sum_j [p_j log(2j+1) - p_j log p_j]; zero-probability blocks
    contribute nothing.
    """
    total = 0.0
    for j, p in enumerate(distribution.probs):
        if p > 0.0:
            total += p * math.log(2 * j + 1) - p * math.log(p)
    return total


def state_from_distribution(distribution: IsotypicDistribution) -> np.ndarray:
    """Reconstruct the invariant state sum_j p_j P_j / (2j+1).

    Assembled by `_projector_sum`, w_j = p_j / (2j+1), from every cached sector at once.
    """
    label = distribution.spin
    weights = np.asarray(distribution.probs) / (2 * np.arange(label.dimension) + 1)
    return _projector_sum(label, weights)


def decohered_singlet(spin) -> np.ndarray:
    """(Lambda_s tensor Lambda_s)(|singlet><singlet|), the invariant output.

    The output is M M^dagger for the d^2 x 9 columns M of the product kernel
    `channel._product_columns`, applied factor by factor. This takes O(d^4)
    memory and never builds the 9-operator d^2 x d^2 Kraus stack.
    """
    label = SpinLabel.coerce(spin)
    ops = isotropic_channel(label).kraus
    m = _product_columns(ops, ops, singlet_state(label).reshape(1, label.dimension, -1))[0]
    return m @ m.conj().T


def singlet_decoherence(spin) -> SingletDecoherenceReport:
    """Full analysis of the doubly decohered singlet for one spin value.

    The block weights of (Lambda_s tensor Lambda_s)(|singlet><singlet|) have
    the closed form

        p = (1/3, q, 2/3 - q, 0, ..., 0),   q = 1 / (2 s(s+1)),

    so the report costs O(d) and never builds the d^2 x d^2 output state; the
    entropy is the block formula over these weights. The tests compare the
    weights with `isotypic_probabilities` of `decohered_singlet`, the matrix
    route; `verify` checks the excess against the eigenvalues of
    `decohered_singlet`. The excess over twice `single_min_entropy` must be
    positive, or the call raises ConsistencyError; |m = s> attains that
    minimum, so a positive excess proves the paper's singlet claim.
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
    entropy = invariant_state_entropy(distribution)
    single = single_min_entropy(label)
    excess = entropy - 2.0 * single
    if not excess > 0.0:
        raise ConsistencyError(
            f"decohered singlet entropy {entropy!r} does not exceed "
            f"the additivity reference {2.0 * single!r}"
        )
    return SingletDecoherenceReport(label, distribution.probs, entropy, single, excess)


def _binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def single_min_entropy(spin) -> float:
    """S_min(Lambda_s) = h(1/(s+1)) in nats, h the binary entropy: the package's one copy.

    |m = s> attains it, with output spectrum s/(s+1) and 1/(s+1). No pure
    input goes lower: `single_min_bound` certifies it at 2s = 1 to 399.
    """
    label = SpinLabel.coerce(spin)
    if label.twice_s == 0:
        raise ContractViolation("the isotropic channel is undefined for spin 0 (s(s+1) = 0)")
    return _binary_entropy(1.0 / (label.s + 1.0))


# Most points of the grid on [phi0, pi/2] that `_pencil_bound` evaluates before it
# gives up; 2s = 3 to 399 need 2 to 15.
_GRID_BUDGET = 256


def _single_min_pencil(label: SpinLabel) -> list:
    """(P0, X, Y) on each parity block of P(phi) = P0 + (1 - cos phi) X + sin phi Y.

    In the m-basis, P0 = s^2 - S_1^2, X = (S_1^2 - S_2^2) / 2 = (S_+^2 + S_-^2) / 4
    and Y = S_3 / 2. None of them changes the parity of s - m, so P(phi) is
    the direct sum of its real symmetric blocks on even and odd s - m, each
    tridiagonal: S_1^2 = (S_+^2 + S_-^2) / 4 + (s(s+1) - S_3^2) / 2.
    """
    d, s = label.dimension, label.s
    m, ladder = s - np.arange(d), _raising_elements(label)
    hops = 0.25 * ladder[:-1] * ladder[1:]  # X between rows i and i + 2
    blocks = []
    for first in (0, 1):
        rows = np.arange(first, d, 2)
        x = np.diag(hops[rows[:-1]], 1)
        x += x.T
        p0 = np.diag(s * s - 0.5 * s * (s + 1.0) + 0.5 * m[rows] ** 2) - x
        blocks.append((p0, x, np.diag(0.5 * m[rows])))
    return blocks


def _covers_near_zero(kernel_terms, s: float, phi0: float, slack: float) -> bool:
    """Whether every block's P(t) + slack I is positive semidefinite for t in [0, phi0].

    kernel_terms holds, per block, q^T (P0, X, Y) q and |W^T (P0, X, Y) q|
    for (q, W) the eigenvectors of P0, q the lowest, and the gap w_1 of P0
    past q. In that basis P(t) has the corner alpha(t) = q^T P(t) q, the
    column b(t) = W^T P(t) q and the rest C(t) >= w_1 - |E(t)|, with
    E(t) = (1 - cos t) X + sin t Y, and it is positive semidefinite where
    C > 0 and alpha >= |b|^2 / lambda_min(C). Through 1 - cos t between
    t^2 (1/2 - phi0^2 / 24) and t^2 / 2 <= t phi0 / 2, sin t <= t,
    |X| <= s^2 / 2 and |Y| = s / 2, that holds on [0, phi0] once a quadratic
    in t is nonnegative for every t >= 0. At 2s >= 3, q is |s>_x +- |-s>_x,
    where q^T Y q = 0 and q^T X q = (s^2 - s/2) / 2: alpha grows as
    t^2 (s^2 - s/2) / 4 against |b|^2 / C as t^2 s / (8 (2s - 1)), a factor
    (2s - 1)^2 to spare. At 2s = 2 the odd block is |0> alone, where
    q^T X q = 0, and the check fails.
    """
    norm_x, norm_y = 0.5 * s * s, 0.5 * s
    for (w0, xq, yq), (e0, nx, ny), gap in kernel_terms:
        rest = gap + slack - 0.5 * phi0 * phi0 * norm_x - phi0 * norm_y  # lambda_min(C) >= rest
        if not rest > 0.0:
            return False
        column = 0.5 * phi0 * nx + ny  # |b(t)| <= e0 + t column
        square = xq * (0.5 - phi0 * phi0 / 24.0) - column * column / rest
        linear = abs(yq) + 2.0 * e0 * column / rest
        constant = w0 + slack - e0 * e0 / rest
        if not (square > 0.0 and constant >= 0.0 and linear * linear <= 4.0 * square * constant):
            return False
    return True


def _lowest_eigenvalues(blocks, phi: np.ndarray) -> np.ndarray:
    """lambda_min P(phi) at every angle of phi, one stacked eigvalsh per block."""
    cos_term, sin_term = (1.0 - np.cos(phi))[:, None, None], np.sin(phi)[:, None, None]
    lows = [np.linalg.eigvalsh(p0 + cos_term * x + sin_term * y)[:, 0] for p0, x, y in blocks]
    return np.minimum(*lows)


def single_min_bound(spin) -> float | None:
    """Certified lower bound on S_min(Lambda_s) in nats, h(1/(s+1)) less a margin, or None.

    At spins 1/2 and 1 every pure input has the same output spectrum:
    Lambda(rho) is (2 - rho) / 3 on a qubit and (1 - rho^T) / 2 at spin 1 in
    the Cartesian basis. The bound there is `single_min_entropy` less 16 eps,
    and at 2s = 3 to 399 `_pencil_bound`, whose checks pass at each of them.
    A Python float, or None past the min-output search cap (d > 400) or where
    a check fails. Cached by `SpinLabel`, one entry per spin, for the last 64.
    """
    return _single_min_bound(SpinLabel.coerce(spin))


@functools.lru_cache(maxsize=64)
def _single_min_bound(label: SpinLabel) -> float | None:
    if label.dimension > SEARCH_DIMENSION_CAP["min-output"]:
        return None
    if label.twice_s <= 2:
        return single_min_entropy(label) - float(_ROUNDING)
    return _pencil_bound(label)


def joint_min_bound(spin) -> float | None:
    """Certified lower bound on S_min(Lambda_s x Lambda_s) in nats at 2s = 1 and 2, else None.

    It is 2 `single_min_bound`, 2 h(1/(s+1)) less 32 eps: each copy's 16 eps
    margin, far above the few ulps of its evaluation. No matrix is built. At
    2s = 1, Lambda(rho) = (2 - rho) / 3 has the Choi state (1 - Phi) / 3, Phi
    the maximally entangled projector; its partial transpose (1 - F / 2) / 3,
    F the swap, has smallest eigenvalue 1/6. PPT on 2 x 2 is separable
    (Horodecki, Horodecki and Horodecki 1996), so Lambda is entanglement-
    breaking and additive (Shor, J. Math. Phys. 43, 4334 (2002)). At 2s = 2,
    Lambda(rho) = (1 - rho^T) / 2 in the Cartesian basis (Werner-Holevo), and
    tr[(Lambda x Lambda)(psi psi^dagger)]^2 = (1 + tr rho_A^2) / 8 <= 1/4 for
    a pure psi with reduced state rho_A, so S >= S_2 >= 2 ln 2. Not cached itself.
    """
    label = SpinLabel.coerce(spin)
    return 2.0 * _single_min_bound(label) if label.twice_s <= 2 else None


def _pencil_bound(label: SpinLabel) -> float | None:
    """h(1/(s+1)) less a margin, certified from the pencil P(phi), or None where a check fails.

    A pure input's output has rank at most 3 and the Gram matrix of the
    S_i psi / sqrt(s(s+1)) as its nonzero spectrum, so its largest
    eigenvalue is at most max |u.S|^2 / (s(s+1)) over unit u in C^3. A
    rotation and a phase bring u to cos(theta) e_1 + i sin(theta) e_2, and
    with phi = 2 theta, s^2 - (u.S)^dagger (u.S) is

        P(phi) = s^2 - cos^2(theta) S_1^2 - sin^2(theta) S_2^2 + sin(phi) S_3 / 2.

    A half turn about x maps P(phi) to P(-phi), a quarter turn about z to
    P(pi - phi), so phi in [0, pi/2] covers every u. If P(phi) >= -delta
    there, every output eigenvalue is at most mu = (s^2 + delta) / (s(s+1)),
    and for mu >= 1/2 the rank-3 spectrum of least entropy under that cap is
    (mu, 1 - mu, 0), so S_min >= h(mu), h the binary entropy. At delta = 0
    that is h(1/(s+1)), the entropy at |m = s>, which restart 0 of
    `optimize.min_output_entropy` starts from.

    P(0) = s^2 - S_1^2 vanishes on |+-s>_x, so the certificate covers
    [0, phi0] by `_covers_near_zero`, phi0 the widest of pi/2, pi/4, ...,
    pi/2048 it admits, and [phi0, pi/2] by a grid and Weyl's bound
    lambda_min P(phi') >= lambda_min P(phi) - L |phi' - phi| with the
    analytic slope L = (s^2 + s) / 2 >= |X| + |Y|. A grid interval is
    covered when its two end values sum to at least L times its width. The
    grid starts at the two ends and halves every interval not yet covered,
    up to _GRID_BUDGET points.

    Rounding margin: delta = 16 d eps s^2. Every computed eigenvalue,
    product and norm is taken to be within delta / 2 of its exact value
    (eigvalsh errs by about d eps |P| and |P| <= s^2), and every check lets
    its computed value dip to -delta / 2. The returned bound is h(mu) less
    16 eps for its own evaluation, 16 d eps ln(s) or so below h(1/(s+1)).
    It fails at 2s = 2, where P(phi) is singular at every phi.
    """
    d, s = label.dimension, label.s
    slack = 0.5 * float(_ROUNDING) * d * s * s
    blocks = _single_min_pencil(label)
    kernel_terms = []
    for block in blocks:
        w, v = np.linalg.eigh(block[0])
        columns = np.stack(block) @ v[:, 0]  # P0 q, X q, Y q
        gap = w[1] if len(w) > 1 else math.inf
        kernel_terms.append((columns @ v[:, 0], np.linalg.norm(columns @ v[:, 1:], axis=1), gap))
    reaches = (0.5 * math.pi / 2**k for k in range(11))
    phi0 = next((t for t in reaches if _covers_near_zero(kernel_terms, s, t, slack)), None)
    if phi0 is None:
        return None
    slope = 0.5 * (s * s + s)
    phi = np.array([phi0, 0.5 * math.pi])
    low = _lowest_eigenvalues(blocks, phi) + slack
    while low.min() >= 0.0:  # NaN fails too
        short = np.flatnonzero(low[:-1] + low[1:] < slope * np.diff(phi))
        if not short.size:
            return _binary_entropy((s * s + 2.0 * slack) / (s * (s + 1.0))) - float(_ROUNDING)
        if len(phi) + short.size > _GRID_BUDGET:
            break
        middle = 0.5 * (phi[short] + phi[short + 1])
        phi = np.insert(phi, short + 1, middle)
        low = np.insert(low, short + 1, _lowest_eigenvalues(blocks, middle) + slack)
    return None
