"""Angular momentum operators and the total-spin sectors of two half-integer spins.

Conventions
-----------
The single-spin basis is ordered by decreasing magnetic quantum number,
m = s, s-1, ..., -s, so S_3 = diag(s, s-1, ..., -s). Ladder operators carry
the standard matrix elements sqrt(s(s+1) - m(m+1)), with hbar = 1 throughout.
Two-spin indices flatten as (m_row, m'_col) -> row * d + col, matching
`linalg.kron`.

The coupled states |j; M> are the eigenvectors of J^2 on the sectors of
fixed total M, found up to sign by `_casimir_sectors`; the block routes of
`invariant` need no phase. Each spin's sectors are solved and checked once
per process and shared read-only after that, for up to SECTOR_CACHE_SPINS
spins. The one state used with a phase, the singlet |0; 0>, comes from its
closed form in `singlet_state`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import ConsistencyError, ContractViolation

CLUSTER_TOL = 1e-6  # max distance of a computed Casimir eigenvalue from j(j+1)
# Spins whose checked sectors `_casimir_sectors` keeps. An entry at dimension
# d holds (2d-1) d (8d + 16) bytes, about 1/d of the d^2 x d^2 complex state
# that needs it: 85 kB at 2s = 16 and 3.7 MB at 2s = 60, so at most 1.4 MB
# for spins up to 2s = 16 and 60 MB up to 2s = 60.
SECTOR_CACHE_SPINS = 16


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
        """Accept a SpinLabel, a string, or an exact half-integer number.

        Python and numpy integer and real scalars count as numbers; bools,
        NaN and infinities do not.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_string(value)
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return cls._from_fraction(Fraction(int(value)), value)
        if isinstance(value, (float, np.floating)):
            try:
                frac = Fraction(*value.as_integer_ratio())
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


@functools.lru_cache(maxsize=SECTOR_CACHE_SPINS)
def _casimir_sectors(label: SpinLabel) -> tuple:
    """`_solve_sectors` for every total M, in order M = 2s, 2s-1, ..., -2s.

    Row k of the padded (indices, j values, vectors) stacks holds sector
    M = 2s - k, with its flattened indices (padded with -1). Only sectors
    M >= 0 are diagonalized: |m> x |m'> -> |-m'> x |-m> maps sector M onto
    -M in order, index i to d^2 - 1 - i, with the same J^2 entry for entry
    (m_(d-1-a) = -m_a, r_a = r_(d-2-a)), so sector -M reuses M's vectors.

    The M = 0 sector's columns, the |j;0>, also pass `_check_zero_m_states`.
    A spin's stacks are kept only once both checks pass, for the last
    SECTOR_CACHE_SPINS spins asked for, and every caller gets the same
    read-only arrays; a failed check raises and keeps nothing.
    """
    d, a = label.dimension, np.arange(label.dimension)
    _, j_values, vectors = _solve_sectors(label, a)
    b = a[:, None] - a
    indices = np.where(b >= 0, a * d + b, -1)
    mirrored = np.where(b >= 0, d * d - 1 - (b * d + a), -1)
    rows = np.r_[a, a[-2::-1]]
    sectors = np.concatenate([indices, mirrored[-2::-1]]), j_values[rows], vectors[rows]
    _check_zero_m_states(label, indices[-1], vectors[-1].T)  # k = d - 1 is M = 0
    for array in sectors:
        array.flags.writeable = False
    return sectors


def _check_zero_m_states(label: SpinLabel, index: np.ndarray, rows: np.ndarray) -> None:
    """Raise unless row j of the real (d, d) `rows`, on flattened indices `index`, is +-|j;0>.

    Every row at once, residuals at most 1e-10: J^2 |j;0> = j(j+1) |j;0> and
    J_3 |j;0> = 0. With V = |j;0> as a d x d matrix, J^2 = 2s(s+1) +
    2 S_3 x S_3 + S_+ x S_- + S_- x S_+ acts in ladder form, in O(d^3) for the
    stack: (2s(s+1) + 2 m_a m_b) V[a, b] + r_a r_(b-1) V[a+1, b-1] +
    r_(a-1) r_b V[a-1, b+1], with r the ladder elements of `spin_operators`.
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


def singlet_state(spin) -> np.ndarray:
    """The rotationally invariant two-spin state |0; 0>, from its closed form.

    In the m-basis |0; 0> = sum_i (-1)^i |i> x |d-1-i> / sqrt(d), with the
    Condon-Shortley phase: the coefficient of |s> x |-s> is positive. No
    eigensolve and no J^2 is built.
    """
    d = SpinLabel.coerce(spin).dimension
    v = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        v[i * d + (d - 1 - i)] = (-1.0) ** i
    return v / np.linalg.norm(v)


def _projector_sum(label: SpinLabel, sectors: tuple, weights) -> np.ndarray:
    """sum_j w_j P_j: sector M's blocks V diag(w_j) V^T in one batched matmul and one scatter."""
    indices, j_values, vectors = sectors
    blocks = (vectors * np.asarray(weights)[j_values][:, None, :]) @ vectors.transpose(0, 2, 1)
    rows, cols = np.broadcast_arrays(indices[:, :, None], indices[:, None, :])
    live = (rows >= 0) & (cols >= 0)
    out = np.zeros((label.dimension**2,) * 2, dtype=np.complex128)
    out[rows[live], cols[live]] = blocks[live]
    return out
