"""Angular momentum operators and coupled-basis states for half-integer spin.

Conventions
-----------
The single-spin basis is ordered by decreasing magnetic quantum number,
m = s, s-1, ..., -s, so S_3 = diag(s, s-1, ..., -s). Ladder operators carry
the standard matrix elements sqrt(s(s+1) - m(m+1)), with hbar = 1 throughout.
Two-spin indices flatten as (m_row, m'_col) -> row * d + col, matching
`linalg.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import ConsistencyError, ContractViolation

CLUSTER_TOL = 1e-6  # max distance of a computed Casimir eigenvalue from j(j+1)


@dataclass(frozen=True, order=True)
class SpinLabel:
    """A half-integer spin s, stored exactly as the integer 2s."""

    twice_s: int

    def __post_init__(self):
        if not isinstance(self.twice_s, int) or isinstance(self.twice_s, bool):
            raise ContractViolation(f"twice_s must be an int, got {self.twice_s!r}")
        if self.twice_s < 0:
            raise ContractViolation(f"spin must be nonnegative, got 2s = {self.twice_s}")

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def dimension(self) -> int:
        return self.twice_s + 1

    @classmethod
    def from_string(cls, text: str) -> "SpinLabel":
        """Parse '1/2', '1', '0.5', '3/2', ... into a label.

        Anything that is not an exact nonnegative half-integer is rejected.
        """
        try:
            value = Fraction(str(text).strip())
        except (ValueError, ZeroDivisionError):
            raise ContractViolation(f"cannot parse spin value {text!r}") from None
        return cls._from_fraction(value, text)

    @classmethod
    def coerce(cls, value) -> "SpinLabel":
        """Accept a SpinLabel, a string, or an exact half-integer number."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_string(value)
        if isinstance(value, bool):
            raise ContractViolation(f"cannot interpret {value!r} as a spin")
        if isinstance(value, (int, float)):
            try:
                frac = Fraction(value)
            except (ValueError, OverflowError):
                raise ContractViolation(f"cannot interpret {value!r} as a spin") from None
            return cls._from_fraction(frac, value)
        raise ContractViolation(f"cannot interpret {value!r} as a spin")

    @classmethod
    def _from_fraction(cls, frac: Fraction, original) -> "SpinLabel":
        if frac < 0:
            raise ContractViolation(f"spin must be nonnegative, got {original!r}")
        doubled = frac * 2
        if doubled.denominator != 1:
            raise ContractViolation(f"spin must be a half-integer, got {original!r}")
        return cls(int(doubled))

    def __str__(self) -> str:
        if self.twice_s % 2 == 0:
            return str(self.twice_s // 2)
        return f"{self.twice_s}/2"


def _raising_elements(label: SpinLabel) -> np.ndarray:
    """The superdiagonal <m+1|S_+|m> = sqrt(s(s+1) - m(m+1)), m = s-1, ..., -s."""
    s = label.s
    m = s - np.arange(1, label.dimension)
    return np.sqrt(s * (s + 1) - m * (m + 1))


def spin_operators(spin):
    """Return the triple (S_1, S_2, S_3) for the given spin.

    S_3 is diagonal in the m-basis; S_1 and S_2 come from the raising and
    lowering operators, so [S_a, S_b] = i eps_abc S_c and
    sum_k S_k^2 = s(s+1) I hold to machine precision.
    """
    label = SpinLabel.coerce(spin)
    s3 = np.diag((label.s - np.arange(label.dimension)).astype(np.complex128))
    raising = np.diag(_raising_elements(label), 1).astype(np.complex128)
    lowering = raising.conj().T
    s1 = (raising + lowering) / 2.0
    s2 = (raising - lowering) / 2.0j
    return s1, s2, s3


def rotation_unitary(spin, axis, angle: float) -> np.ndarray:
    """exp(-i angle (axis . S)) for a unit 3-vector axis."""
    label = SpinLabel.coerce(spin)
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ContractViolation(f"rotation axis must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-10:
        raise ContractViolation(f"rotation axis must be a unit vector, |axis| = {norm!r}")
    s1, s2, s3 = spin_operators(label)
    generator = n[0] * s1 + n[1] * s2 + n[2] * s3
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * float(angle) * w)) @ v.conj().T


def total_spin_squared(spin) -> np.ndarray:
    """J^2 on the two-spin space, with J_k = S_k x I + I x S_k.

    Formed as 2s(s+1) I + 2 sum_k S_k x S_k, which is the same matrix since
    sum_k S_k^2 = s(s+1) I. Cost per call: three d x d krons, O(d^4) time and
    one d^2 x d^2 complex array. No package path builds it; it is the dense
    reference the tests check the sector matrices and |j; 0> states against.
    """
    label = SpinLabel.coerce(spin)
    d = label.dimension
    out = np.eye(d * d, dtype=np.complex128) * (2.0 * label.s * (label.s + 1.0))
    for s_k in spin_operators(label):
        out += 2.0 * np.kron(s_k, s_k)
    return out


def _sector_matrices(label: SpinLabel, ks) -> np.ndarray:
    """J^2 on the sectors M = 2s - k >= 0, k in `ks`, as a zero-padded (len(ks), d, d) stack.

    Sector k holds |m_a> x |m_b> with a + b = k, a = 0..k ascending, at
    flattened index a*d + b. J^2 = 2s(s+1) + 2 S_3 x S_3 + S_+ x S_- + S_- x S_+
    keeps a + b fixed, so its restriction is the real symmetric tridiagonal
    leading (k+1) x (k+1) block: diagonal 2s(s+1) + 2 m_a m_b, and
    r_a r_(b-1) between (a, b) and (a+1, b-1), with r the ladder elements of
    `spin_operators`. Entries of J^2 between two sectors are exactly zero.
    """
    d = label.dimension
    k, a = np.asarray(ks)[:, None], np.arange(d)
    b = np.where(a <= k, k - a, 0)
    m, ladder = label.s - a, _raising_elements(label)
    out = np.zeros((len(k), d, d))
    out[:, a, a] = np.where(a <= k, 2.0 * label.s * (label.s + 1.0) + 2.0 * m[a] * m[b], 0.0)
    off = np.where(a[:-1] < k, ladder[a[:-1]] * ladder[b[:, :-1] - 1], 0.0)
    out[:, a[:-1], a[1:]] = out[:, a[1:], a[:-1]] = off
    return out


def _solve_sectors(label: SpinLabel, ks):
    """(matrices, j values, vectors) of J^2 on the sectors M = 2s - k, k in `ks`.

    Padded like `_sector_matrices`, padded j being -1: column c of a sector's
    vector block is |j; M> for j = M + c, up to sign. Sector M meets each
    block j = M..2s once, so the c-th eigenvalue must lie within CLUSTER_TOL
    of j(j+1); one check covers every sector and names the first that fails.
    Each sector gets its own eigh: a padded batched one is slower from 2s = 32.
    """
    matrices = _sector_matrices(label, ks)
    k, c = np.asarray(ks)[:, None], np.arange(label.dimension)
    eigenvalues, vectors = np.zeros(matrices.shape[:2]), np.zeros_like(matrices)
    for row, n in enumerate(k[:, 0] + 1):
        eigenvalues[row, :n], vectors[row, :n, :n] = np.linalg.eigh(matrices[row, :n, :n])
    j_values = np.where(c <= k, label.twice_s - k + c, -1)
    worst = np.where(c <= k, np.abs(eigenvalues - j_values * (j_values + 1)), 0.0).max(axis=1)
    failing = np.flatnonzero(worst > CLUSTER_TOL)
    if failing.size:
        row = failing[0]
        raise ConsistencyError(
            f"Casimir eigenvalues of sector M = {j_values[row, 0]} are {worst[row]:.3e} "
            f"from j(j+1), j = {j_values[row, 0]}..{label.twice_s}; clustering failed"
        )
    return matrices, j_values, vectors


def _casimir_sectors(label: SpinLabel) -> tuple:
    """`_solve_sectors` for every total M, in order M = 2s, 2s-1, ..., -2s.

    Row k of the padded (indices, j values, vectors) stacks holds sector
    M = 2s - k, with its flattened indices (padded with -1). Only sectors
    M >= 0 are diagonalized: |m> x |m'> -> |-m'> x |-m> maps sector M onto
    -M in order, index i to d^2 - 1 - i, with the same J^2 entry for entry
    (m_(d-1-a) = -m_a, r_a = r_(d-2-a)), so sector -M reuses M's vectors.
    """
    d, a = label.dimension, np.arange(label.dimension)
    _, j_values, vectors = _solve_sectors(label, a)
    b = a[:, None] - a
    indices = np.where(b >= 0, a * d + b, -1)
    mirrored = np.where(b >= 0, d * d - 1 - (b * d + a), -1)
    rows = np.r_[a, a[-2::-1]]
    return np.concatenate([indices, mirrored[-2::-1]]), j_values[rows], vectors[rows]


def _peak_signs(matrix: np.ndarray, eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Signs that make each eigenvector column's first entry positive.

    With x_0 = 1, (T - lambda) x = 0 fixes the eigenvector of the real
    tridiagonal T with unit first entry through the three-term recurrence
    x_(i+1) = -((T_ii - lambda) x_i + T_(i,i-1) x_(i-1)) / T_(i,i+1). The
    recurrence runs to each column's largest entry, growing on the way there,
    so it is stable, and both terms are rescaled every step; the column's
    sign is compared with it there, not at a first entry that can underflow.
    """
    diagonal, off = np.diag(matrix), np.diag(matrix, 1)
    n = len(diagonal)
    peak = np.abs(vectors).argmax(axis=0)
    previous, current = np.zeros(n), np.ones(n)
    signs = np.empty(n)
    for i in range(int(peak.max()) + 1):
        signs[peak == i] = np.sign(current[peak == i])
        if i + 1 < n:
            below = off[i - 1] * previous if i else 0.0
            following = -((diagonal[i] - eigenvalues) * current + below) / off[i]
            scale = np.maximum(np.abs(current), np.abs(following))
            previous, current = current / scale, following / scale
    return signs * np.sign(vectors[peak, np.arange(n)])


def _coupled_zero_m_states(label: SpinLabel) -> np.ndarray:
    """All |j; m=0> vectors for j = 0..2s, as rows of a (d, d^2) array.

    The M = 0 sector spanned by |m> x |-m> meets each total-spin block
    exactly once, so its eigenvectors from `_solve_sectors` are every |j; 0>
    at once, on the flattened indices (a+1)(d-1) of |m_a> x |-m_a>. The
    overall phase makes the exact coefficient of |s> x |-s> positive.
    `_peak_signs` reads that sign off the sector's recurrence, so it holds
    from 2s = 42 on too, where the computed coefficient of |2s; 0>,
    C(4s, 2s)^(-1/2), is below 1e-12 and sinks into rounding. Callers that
    need several |j; 0> build this stack once and index into it.
    """
    d = label.dimension
    (matrix,), _, (vectors,) = _solve_sectors(label, [label.twice_s])
    eigenvalues = np.arange(d) * (np.arange(d) + 1.0)
    rows = (vectors * _peak_signs(matrix, eigenvalues, vectors)).T
    zero = (d - 1) * np.arange(1, d + 1)
    _check_zero_m_states(label, zero, rows)
    states = np.zeros((d, d * d), dtype=np.complex128)
    states[:, zero] = rows
    return states


def _check_zero_m_states(label: SpinLabel, index: np.ndarray, rows: np.ndarray) -> None:
    """Raise unless row j of the real (d, d) `rows`, on flattened indices `index`, is +-|j;0>.

    Every row at once, residuals at most 1e-10: J^2 |j;0> = j(j+1) |j;0>, with
    J^2 V = 2s(s+1) V + 2 sum_k S_k V S_k^T applied factor by factor to V = |j;0>
    as a d x d matrix in real arithmetic (S_2 is imaginary), and J_3 |j;0> = 0.
    """
    d = label.dimension
    states = np.zeros((d, d * d))
    states[:, index] = rows
    v = states.reshape(d, d, d)
    s_1, s_2, s_3 = spin_operators(label)
    j_squared_v = 2.0 * label.s * (label.s + 1.0) * v
    for s_k, factor in ((s_1.real, 2.0), (s_2.imag, -2.0), (s_3.real, 2.0)):
        j_squared_v += factor * (s_k @ v @ s_k.T)
    eigenvalues = np.arange(d) * (np.arange(d) + 1.0)
    m = label.s - np.arange(d)
    j_3 = np.add.outer(m, m).ravel()
    casimir = np.linalg.norm((j_squared_v - eigenvalues[:, None, None] * v).reshape(d, -1), axis=1)
    magnetic = np.linalg.norm(states * j_3, axis=1)
    failing = np.flatnonzero((casimir > 1e-10) | (magnetic > 1e-10))
    if failing.size:
        j = failing[0]
        operator = "J^2" if casimir[j] > 1e-10 else "J_3"
        raise ConsistencyError(f"|{j};0> fails the {operator} eigenvector residual check")


def coupled_zero_m_state(spin, j: int) -> np.ndarray:
    """The total-spin state |j; m=0> of two spin-s systems, as a d^2 vector.

    Valid for integer j with 0 <= j <= 2s. The phase makes the coefficient
    of |m=s> x |m=-s> real and positive. Each call builds all 2s+1 vectors
    from the d x d tridiagonal eigh of the M = 0 sector. Index one stack
    instead of calling this once per j.
    """
    label = SpinLabel.coerce(spin)
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise ContractViolation(f"total spin j must be an integer, got {j!r}")
    if j < 0 or j > label.twice_s:
        raise ContractViolation(
            f"total spin j = {j} outside the coupled range 0..{label.twice_s} for spin {label}"
        )
    return _coupled_zero_m_states(label)[int(j)]


def singlet_state(spin) -> np.ndarray:
    """The rotationally invariant two-spin state |0; 0>, from its closed form.

    In the m-basis |0; 0> = sum_i (-1)^i |i> x |d-1-i> / sqrt(d), which is
    `coupled_zero_m_state(spin, 0)` with the same phase: the coefficient of
    |s> x |-s> is positive. No eigensolve and no J^2 is built.
    """
    d = SpinLabel.coerce(spin).dimension
    v = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        v[i * d + (d - 1 - i)] = (-1.0) ** i
    return v / np.linalg.norm(v)


def _random_axis_angle(rng):
    """A random unit rotation axis and an angle in [0, 2 pi), drawn from rng."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis, float(rng.uniform(0.0, 2.0 * np.pi))


def _projector_sum(label: SpinLabel, sectors: tuple, weights) -> np.ndarray:
    """sum_j w_j P_j: sector M's blocks V diag(w_j) V^T in one batched matmul and one scatter."""
    indices, j_values, vectors = sectors
    blocks = (vectors * np.asarray(weights)[j_values][:, None, :]) @ vectors.transpose(0, 2, 1)
    rows, cols = np.broadcast_arrays(indices[:, :, None], indices[:, None, :])
    live = (rows >= 0) & (cols >= 0)
    out = np.zeros((label.dimension**2,) * 2, dtype=np.complex128)
    out[rows[live], cols[live]] = blocks[live]
    return out


def casimir_projectors(spin) -> list:
    """Orthogonal projectors onto the total-spin-j blocks, j = 0..2s.

    Assembled by `_projector_sum`: P_j is block diagonal over the total-M
    sectors, with one |j; M> outer product in each sector |M| <= j. Each
    projector is its own d^2 x d^2 array, and its trace must come out to
    2j+1 states or the call raises.
    """
    label = SpinLabel.coerce(spin)
    sectors = _casimir_sectors(label)
    projectors = [_projector_sum(label, sectors, unit) for unit in np.eye(label.dimension)]
    for j, p in enumerate(projectors):
        trace = float(np.trace(p).real)
        if abs(trace - (2 * j + 1)) > 1e-9:
            raise ConsistencyError(
                f"block j = {j} has trace {trace!r}, expected {2 * j + 1} states"
            )
    return projectors
