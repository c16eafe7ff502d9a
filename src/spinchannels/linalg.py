"""Dense complex matrix primitives and entropy functionals.

Operators are plain numpy arrays with complex128 entries, stored row major.
Bipartite indices are flattened as (i_A, i_B) -> i_A * d_B + i_B; every
tensor-product helper in this package shares that convention.

Every entropy is returned in nats; converting to another unit is left to
whatever prints the number.
"""

from __future__ import annotations

import cmath
import math
import reprlib

import numpy as np

HERMITICITY_TOL = 1e-10
# Eigenvalues of a nominally positive matrix: anything in [-EIGENVALUE_ERROR, 0)
# is treated as float noise and clamped to zero; below that positivity is
# considered genuinely violated.
EIGENVALUE_ERROR = 1e-8
# A row slab of a whole-matrix pass (`slab_rows`) holds at most SLAB_ENTRIES entries, 2 MiB of
# complex128, and 32 rows, so it stays in cache from its copy to its reduction even for small n.
SLAB_ENTRIES = 2**17


class ContractViolation(ValueError):
    """An argument failed one of the documented preconditions."""


class ConsistencyError(RuntimeError):
    """Two redundant evaluation paths disagreed beyond tolerance."""


def as_count(value, name: str) -> int:
    """A Python or numpy integer as an int; bools, floats, NaN and inf raise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ContractViolation(f"{name} takes integers only, got {value!r}")


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, without copying when possible."""
    out = np.asarray(matrix, dtype=np.complex128)
    if out.ndim != 2:
        raise ContractViolation(f"expected a matrix, got an array of rank {out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ContractViolation(f"matrix must be nonempty, got shape {out.shape}")
    return out


def as_state_vector(vector) -> np.ndarray:
    """Coerce input to a 1-d complex128 array."""
    out = np.asarray(vector, dtype=np.complex128)
    if out.ndim != 1 or out.shape[0] < 1:
        raise ContractViolation(f"expected a state vector, got shape {np.shape(vector)}")
    return out


def slab_rows(n: int) -> int:
    """Rows per slab of a pass over an n x n matrix: at most SLAB_ENTRIES entries and 32 rows."""
    return max(1, min(32, SLAB_ENTRIES // n))


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Return matrix as complex128 if square, finite and within HERMITICITY_TOL of Hermitian.

    max |M - M^dagger| is taken one slab of `slab_rows(n)` rows at a time,
    rows i against columns k >= i. A NaN or inf entry makes it NaN or inf, so
    only then is finiteness tested; it is reported first.
    """
    m = as_complex_matrix(matrix)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ContractViolation(f"{name} is not square: shape {m.shape}")
    rows = slab_rows(n)
    buffer = np.empty((n, min(rows, n)), dtype=np.complex128)
    defect = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN, reported below
        for start in range(0, n, rows):
            stop = start + rows
            residual = np.conjugate(m[start:, start:stop], out=buffer[start:, : n - start])
            residual -= m[start:stop, start:].T
            defect = np.maximum(defect, np.abs(residual).max())  # keeps a NaN; max() would not
    if not defect <= HERMITICITY_TOL:
        if not np.isfinite(m).all():
            raise ContractViolation(f"{name} is not finite")
        raise ContractViolation(
            f"{name} is not Hermitian: max |M - M^dagger| = {defect:.3e}"
            f" exceeds {HERMITICITY_TOL:.1e}"
        )
    return m


def check_pure_state(vector) -> np.ndarray:
    """Validate a unit vector (norm 1 within 1e-12) and return it as complex128."""
    v = as_state_vector(vector)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
        if not np.isfinite(v).all():
            raise ContractViolation("state vector is not finite")
        raise ContractViolation(f"state vector is not normalized: |phi| = {norm!r}")
    return v


def kron(a, b) -> np.ndarray:
    """Tensor product in the shared (i_A, i_B) -> i_A * d_B + i_B convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def spectrum_entropy(eigenvalues):
    """Shannon entropy -sum(w log w) of a spectrum, in nats, never below +0.0.

    Small negative eigenvalues (float noise from diagonalization) are clamped
    to zero; anything below -1e-8 raises, because that indicates a genuinely
    non-positive input rather than roundoff. NaN and infinite eigenvalues
    raise too: the minimum of a spectrum holding NaN is NaN, and an infinite
    eigenvalue makes the sum infinite, so neither needs an extra pass. The
    finite result is clamped at +0.0: a pure spectrum gives -0.0, or just
    below 0 when its eigenvalue lies a rounding step above 1.

    A 1-d spectrum gives a float; a stack of spectra, one per row, gives an
    array of entropies, with the same checks over every row.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.size == 0:
        raise ContractViolation("empty spectrum")
    lowest = float(w.min())
    if not lowest >= -EIGENVALUE_ERROR:
        if math.isnan(lowest):
            raise ContractViolation("spectrum contains NaN")
        raise ContractViolation(
            f"eigenvalue {lowest:.3e} violates positivity beyond {EIGENVALUE_ERROR:.0e}"
        )
    # w log w is 0 off the support; 1 log 1 is exactly 0
    support = np.where(w > 0.0, w, 1.0)
    values = -(support * np.log(support)).sum(axis=-1)
    if not np.isfinite(values).all():
        raise ContractViolation("spectrum is not finite")
    values = np.maximum(values, 0.0) + 0.0  # + 0.0 turns -0.0 into +0.0
    return float(values) if w.ndim == 1 else values


def size_text(count: int, unit_bits: int = 0) -> str:
    """count / 2**unit_bits to three significant digits, for an int of any size.

    float(count) overflows beyond about 1e308 and str(count) refuses ints of
    more than 4,300 digits, so a message about a huge size reads the leading
    bits instead: size_text(n, 30) is n bytes in GiB.
    """
    bits = count.bit_length()
    if bits <= 1000:
        return f"{count / 2**unit_bits:.3g}"
    shift = bits - 64
    exponent10 = math.log10(count >> shift) + (shift - unit_bits) * math.log10(2.0)
    whole = math.floor(exponent10)
    return f"{10.0 ** (exponent10 - whole):.3g}e+{whole}"


def von_neumann_entropy(rho) -> float:
    """Entropy of a state, -tr(rho log rho) in nats, via diagonalization."""
    m = require_hermitian(rho, name="state")
    return spectrum_entropy(np.linalg.eigvalsh(m))


def maximally_entangled(d_a: int, d_b: int) -> np.ndarray:
    """Maximally entangled state sum_i (-1)^i |i>|d_b-1-i>, i < min(d_a, d_b), normalised.

    For d_a = d_b this is the rotation singlet `spin.singlet_state`, bit for bit.
    """
    v = np.zeros(d_a * d_b, dtype=np.complex128)
    for i in range(min(d_a, d_b)):
        v[i * d_b + (d_b - 1 - i)] = (-1.0) ** i
    return v / np.linalg.norm(v)


def matrix_to_json(matrix) -> list:
    """Rows of [re, im] pairs; the wire format for complex matrices."""
    m = as_complex_matrix(matrix)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _complex_from_json(entry, kind: str, index) -> complex:
    """One [re, im] pair of the wire format.

    Both parts must be JSON numbers: booleans, strings and null are rejected,
    as are NaN, inf and integers too large for a float. A rejected entry is
    echoed through `reprlib.repr`, so a huge one gives a short message.
    """
    if not isinstance(entry, list) or len(entry) != 2:
        raise ContractViolation(f"{kind} entries must be [re, im] pairs, got {reprlib.repr(entry)}")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry):
        raise ContractViolation(
            f"{kind} entry {index} is not a pair of numbers: {reprlib.repr(entry)}"
        )
    try:
        z = complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise ContractViolation(
            f"{kind} entry {index} is too large: {reprlib.repr(entry)}"
        ) from None
    if not cmath.isfinite(z):
        raise ContractViolation(f"{kind} entry {index} is not finite: {reprlib.repr(entry)}")
    return z


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ContractViolation("matrix payload must be a nonempty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ContractViolation("matrix rows must be nonempty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ContractViolation("matrix rows have inconsistent lengths")
        out.append([_complex_from_json(entry, "matrix", (i, k)) for k, entry in enumerate(row)])
    return np.asarray(out, dtype=np.complex128)


def vector_to_json(vector) -> list:
    v = as_state_vector(vector)
    return [[float(z.real), float(z.imag)] for z in v]

