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

import math
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


def spin_operators(spin):
    """Return the triple (S_1, S_2, S_3) for the given spin.

    S_3 is diagonal in the m-basis; S_1 and S_2 come from the raising and
    lowering operators, so [S_a, S_b] = i eps_abc S_c and
    sum_k S_k^2 = s(s+1) I hold to machine precision.
    """
    label = SpinLabel.coerce(spin)
    s = label.s
    d = label.dimension
    m = s - np.arange(d)
    s3 = np.diag(m.astype(np.complex128))
    raising = np.zeros((d, d), dtype=np.complex128)
    for col in range(1, d):
        raising[col - 1, col] = math.sqrt(s * (s + 1) - m[col] * (m[col] + 1))
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
    one d^2 x d^2 complex array.
    """
    label = SpinLabel.coerce(spin)
    d = label.dimension
    out = np.eye(d * d, dtype=np.complex128) * (2.0 * label.s * (label.s + 1.0))
    for s_k in spin_operators(label):
        out += 2.0 * np.kron(s_k, s_k)
    return out


def _zero_m_indices(d: int) -> list:
    # Flattened positions of |m> x |-m>, i.e. row i paired with column d-1-i.
    return [i * d + (d - 1 - i) for i in range(d)]


def _coupled_zero_m_states(label: SpinLabel) -> np.ndarray:
    """All |j; m=0> vectors for j = 0..2s, as rows of a (d, d^2) array.

    The m = 0 sector spanned by |m> x |-m> is invariant under J^2 and meets
    each total-spin block exactly once, so diagonalizing the restriction of
    J^2 there yields every |j; 0> at once. The overall phase is fixed by
    making the coefficient of |s> x |-s> real and positive. Callers that need
    several |j; 0> build this stack once and index into it.
    """
    d = label.dimension
    idx = _zero_m_indices(d)
    j_squared = total_spin_squared(label)
    restricted = j_squared[np.ix_(idx, idx)]
    w, v = np.linalg.eigh(restricted)

    states = np.zeros((d, d * d), dtype=np.complex128)
    for col in range(d):
        j = round((math.sqrt(1.0 + 4.0 * float(w[col])) - 1.0) / 2.0)
        if abs(float(w[col]) - j * (j + 1)) > CLUSTER_TOL or j != col:
            raise ConsistencyError(
                f"Casimir eigenvalue {w[col]!r} did not cluster to j(j+1) for j = {col}"
            )
        column = v[:, col]
        leading = column[0]
        if abs(leading) < 1e-12:
            raise ConsistencyError(
                f"|j;0> phase convention undefined: vanishing |s>|-s> amplitude at j = {j}"
            )
        states[j, idx] = column * (abs(leading) / leading)

    # Residuals of every row at once: J^2 |j;0> = j(j+1) |j;0>, and J_3, which
    # is diagonal with entries m + m', annihilates |j;0>.
    j_values = np.arange(d)
    m = label.s - np.arange(d)
    j_3 = np.add.outer(m, m).ravel()
    eigenvalues = (j_values * (j_values + 1))[:, None]
    casimir = np.linalg.norm(states @ j_squared.T - eigenvalues * states, axis=1)
    magnetic = np.linalg.norm(states * j_3, axis=1)
    for j in range(d):
        if float(casimir[j]) > 1e-10:
            raise ConsistencyError(f"|{j};0> fails the J^2 eigenvector residual check")
        if float(magnetic[j]) > 1e-10:
            raise ConsistencyError(f"|{j};0> fails the J_3 eigenvector residual check")
    return states


def coupled_zero_m_state(spin, j: int) -> np.ndarray:
    """The total-spin state |j; m=0> of two spin-s systems, as a d^2 vector.

    Valid for integer j with 0 <= j <= 2s. The phase makes the coefficient
    of |m=s> x |m=-s> real and positive. Each call builds all 2s+1 vectors:
    one `total_spin_squared`, a d x d eigh and an O(d^5) residual check.
    Index one stack instead of calling this once per j.
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
    """The rotationally invariant two-spin state |0; 0>."""
    return coupled_zero_m_state(spin, 0)


def casimir_projectors(spin) -> list:
    """Orthogonal projectors onto the total-spin-j blocks, j = 0..2s.

    Eigenvalues of J^2 are clustered to the nearest j(j+1); a value farther
    than 1e-6 from every admissible cluster raises. Each projector trace must
    come out to exactly 2j+1 states.
    """
    label = SpinLabel.coerce(spin)
    w, v = np.linalg.eigh(total_spin_squared(label))
    assigned = []
    for value in w:
        j = round((math.sqrt(1.0 + 4.0 * max(float(value), 0.0)) - 1.0) / 2.0)
        if j < 0 or j > label.twice_s or abs(float(value) - j * (j + 1)) > CLUSTER_TOL:
            raise ContractViolation(
                f"Casimir eigenvalue {value!r} is farther than {CLUSTER_TOL:.0e} "
                "from every j(j+1); clustering failed"
            )
        assigned.append(j)
    assigned = np.asarray(assigned)
    projectors = []
    for j in range(label.twice_s + 1):
        cols = assigned == j
        count = int(cols.sum())
        if count != 2 * j + 1:
            raise ConsistencyError(
                f"block j = {j} has multiplicity {count}, expected {2 * j + 1}"
            )
        basis = v[:, cols]
        projectors.append(basis @ basis.conj().T)
    return projectors
