"""Dense complex matrix primitives and entropy functionals.

Operators are plain numpy arrays with complex128 entries, stored row major.
Bipartite indices are flattened as (i_A, i_B) -> i_A * d_B + i_B; every
tensor-product helper in this package shares that convention.

Entropies are computed internally in nats. Passing a ``base`` converts the
final value by dividing by log(base); nothing upstream ever sees a converted
number.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

HERMITICITY_TOL = 1e-10
# Eigenvalues of a nominally positive matrix: anything in [-EIGENVALUE_ERROR, 0)
# is treated as float noise and clamped to zero; below that positivity is
# considered genuinely violated.
EIGENVALUE_ERROR = 1e-8
SUPPORT_THRESHOLD = 1e-10


class ContractViolation(ValueError):
    """An argument failed one of the documented preconditions."""


class ConsistencyError(RuntimeError):
    """Two redundant evaluation paths disagreed beyond tolerance."""


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


def require_hermitian(matrix, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{name} is not square: shape {m.shape}")
    if not np.isfinite(m).all():  # NaN would pass the comparison below
        raise ContractViolation(f"{name} is not finite")
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol:
        raise ContractViolation(
            f"{name} is not Hermitian: max |M - M^dagger| = {defect:.3e} exceeds {tol:.1e}"
        )
    return m


def unitarity_defect(matrix) -> float:
    """Max-entry residual of U^dagger U - I."""
    u = as_complex_matrix(matrix)
    if u.shape[0] != u.shape[1]:
        raise ContractViolation(f"unitarity is undefined for shape {u.shape}")
    eye = np.eye(u.shape[0])
    return float(np.abs(u.conj().T @ u - eye).max())


def check_pure_state(vector, tol: float = 1e-12) -> np.ndarray:
    """Validate a unit vector and return it as complex128."""
    v = as_state_vector(vector)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ContractViolation(f"state vector is not normalized: |phi| = {norm!r}")
    return v


def kron(a, b) -> np.ndarray:
    """Tensor product in the shared (i_A, i_B) -> i_A * d_B + i_B convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(matrix, dims, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    Parameters
    ----------
    matrix : array, shape (d_a * d_b, d_a * d_b)
    dims : pair (d_a, d_b)
    keep : "A" to return the d_a x d_a reduction, "B" for d_b x d_b
    """
    rho = as_complex_matrix(matrix)
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1:
        raise ContractViolation(f"invalid factor dimensions {dims!r}")
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ContractViolation(
            f"operator shape {rho.shape} does not match factor dimensions ({d_a}, {d_b})"
        )
    blocks = rho.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abad->bd", blocks)
    raise ContractViolation(f"keep must be 'A' or 'B', got {keep!r}")


def log_divisor(base) -> float:
    """Conversion divisor from nats: 1 for natural log, log(base) otherwise."""
    if base is None:
        return 1.0
    b = float(base)
    if b <= 0.0 or b == 1.0:
        raise ContractViolation(f"invalid logarithm base {base!r}")
    return math.log(b)


def log_base_label(base) -> str:
    """Short textual tag for a logarithm base, used in reports."""
    if base is None:
        return "e"
    b = float(base)
    if b == 2.0:
        return "2"
    if abs(b - math.e) < 1e-12:
        return "e"
    return repr(b)


def spectrum_entropy(eigenvalues):
    """Shannon entropy -sum(w log w) of a spectrum, in nats.

    Small negative eigenvalues (float noise from diagonalization) are clamped
    to zero; anything below -1e-8 raises, because that indicates a genuinely
    non-positive input rather than roundoff. NaN and infinite eigenvalues
    raise too: the minimum of a spectrum holding NaN is NaN, and an infinite
    eigenvalue makes the sum infinite, so neither needs an extra pass.

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
    if w.ndim > 1:
        # w log w is 0 off the support; 1 log 1 is exactly 0
        support = np.where(w > 0.0, w, 1.0)
        values = -(support * np.log(support)).sum(axis=-1)
        if not np.isfinite(values).all():
            raise ContractViolation("spectrum is not finite")
        return values
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    value = float(-(w * np.log(w)).sum())
    if not math.isfinite(value):
        raise ContractViolation("spectrum is not finite")
    return value


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


def von_neumann_entropy(rho, base=None) -> float:
    """Entropy of a state, -tr(rho log rho), via diagonalization."""
    m = require_hermitian(rho, name="state")
    return spectrum_entropy(np.linalg.eigvalsh(m)) / log_divisor(base)


def relative_entropy(rho, sigma, base=None) -> float:
    """Relative entropy S(rho | sigma) = tr(rho log rho) - tr(rho log sigma).

    Returns inf when rho places weight above SUPPORT_THRESHOLD outside the
    support of sigma. Eigenvalues of sigma below SUPPORT_THRESHOLD do not
    count as support.
    """
    r = require_hermitian(rho, name="rho")
    s = require_hermitian(sigma, name="sigma")
    if r.shape != s.shape:
        raise ContractViolation(f"dimension mismatch: rho {r.shape} vs sigma {s.shape}")
    lam, v_vecs = np.linalg.eigh(r)
    mu, w_vecs = np.linalg.eigh(s)
    if float(lam.min()) < -EIGENVALUE_ERROR or float(mu.min()) < -EIGENVALUE_ERROR:
        raise ContractViolation("relative entropy requires positive semidefinite arguments")
    lam = np.clip(lam, 0.0, None)
    mu = np.clip(mu, 0.0, None)

    outside = mu <= SUPPORT_THRESHOLD
    if bool(outside.any()):
        w_out = w_vecs[:, outside]
        weight = float(np.real(np.sum(w_out.conj() * (r @ w_out))))
        if weight > SUPPORT_THRESHOLD:
            return math.inf

    inside = ~outside
    # |<v_i|w_j>|^2 with rho-eigenvectors v_i, the columns paired with lam.
    overlaps = np.abs(v_vecs.conj().T @ w_vecs[:, inside]) ** 2
    pos = lam > 0.0
    first = float((lam[pos] * np.log(lam[pos])).sum())
    second = float((lam[:, None] * overlaps * np.log(mu[inside])[None, :]).sum())
    return (first - second) / log_divisor(base)


def operator_norm(matrix) -> float:
    """Largest singular value."""
    m = as_complex_matrix(matrix)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def matrix_to_json(matrix) -> list:
    """Rows of [re, im] pairs; the wire format for complex matrices."""
    m = as_complex_matrix(matrix)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _complex_from_json(entry, kind: str, index) -> complex:
    """One [re, im] pair of the wire format.

    Both parts must be JSON numbers: booleans, strings and null are rejected,
    as are NaN, inf and integers too large for a float.
    """
    if not isinstance(entry, list) or len(entry) != 2:
        raise ContractViolation(f"{kind} entries must be [re, im] pairs, got {entry!r}")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry):
        raise ContractViolation(f"{kind} entry {index} is not a pair of numbers: {entry!r}")
    try:
        z = complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise ContractViolation(f"{kind} entry {index} is too large: {entry!r}") from None
    if not cmath.isfinite(z):
        raise ContractViolation(f"{kind} entry {index} is not finite: {entry!r}")
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


def vector_from_json(entries) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ContractViolation("vector payload must be a nonempty list")
    parsed = [_complex_from_json(entry, "vector", k) for k, entry in enumerate(entries)]
    return np.asarray(parsed, dtype=np.complex128)
