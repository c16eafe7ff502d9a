"""Completely positive trace-preserving maps given by Kraus operator stacks.

A channel acts as rho -> sum_k X_k rho X_k^dagger. The Kraus operators live
in a single (n_kraus, dim_out, dim_in) array so that applying the channel is
two BLAS calls rather than a Python loop.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ContractViolation,
    as_complex_matrix,
    as_count,
    check_pure_state,
    matrix_from_json,
    matrix_to_json,
    von_neumann_entropy,
)
from .spin import SpinLabel, spin_operators

TP_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Kraus stack of shape (n_kraus, dim_out, dim_in).

    Construction enforces trace preservation, sum_k X_k^dagger X_k = I,
    within 1e-10 per entry, which also rejects NaN and infinite entries. The
    stored array is write-protected; build a new channel instead of mutating
    one.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = np.asarray(self.kraus, dtype=np.complex128)
        except (ValueError, TypeError):
            raise ContractViolation("Kraus operators must share a common shape") from None
        if ops.ndim == 2:
            ops = ops[np.newaxis, :, :]
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1] < 1 or ops.shape[2] < 1:
            raise ContractViolation(
                f"expected a stack of matrices, got array of shape {ops.shape}"
            )
        ops = ops.copy()
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        with np.errstate(invalid="ignore", over="ignore"):  # inf entries give NaN
            defect = self.trace_preservation_defect()
        if not defect <= TP_TOL:
            if math.isnan(defect):
                raise ContractViolation("Kraus set is not trace preserving: non-finite entries")
            raise ContractViolation(
                f"Kraus set is not trace preserving: residual {defect:.3e} exceeds {TP_TOL:.0e}"
            )

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    def trace_preservation_defect(self) -> float:
        """Max-entry residual of sum_k X_k^dagger X_k - I.

        The operators stacked on top of each other form one tall matrix K, and
        the sum is the single product K^dagger K.
        """
        tall = self.kraus.reshape(-1, self.dim_in)
        gram = tall.conj().T @ tall
        return float(np.abs(gram - np.eye(self.dim_in)).max())

    def bistochastic_defect(self) -> float:
        """Max-entry residual of sum_k X_k X_k^dagger - I (unital direction).

        The operators side by side form one wide matrix K, and the sum is K K^dagger.
        """
        if self.dim_in != self.dim_out:
            raise ContractViolation("bistochasticity is undefined for rectangular channels")
        wide = self.kraus.transpose(1, 0, 2).reshape(self.dim_out, -1)
        out = wide @ wide.conj().T
        return float(np.abs(out - np.eye(self.dim_out)).max())

    def is_bistochastic(self) -> bool:
        return self.dim_in == self.dim_out and self.bistochastic_defect() <= TP_TOL


def isotropic_channel(spin) -> KrausChannel:
    """The rotation covariant channel with Kraus operators S_k / sqrt(s(s+1)).

    Bistochastic by construction. Spin 0 is rejected, on every call: s(s+1)
    = 0 leaves no channel to normalize. Each spin is built once per process:
    the last 16 spins asked for are kept, by label, and every caller shares
    the same channel and its read-only Kraus stack, 48 d^2 bytes per spin
    (7.7 MB at 2s = 399).
    """
    return _isotropic_channel(SpinLabel.coerce(spin))


@functools.lru_cache(maxsize=16)
def _isotropic_channel(label: SpinLabel) -> KrausChannel:
    if label.twice_s == 0:
        raise ContractViolation("the isotropic channel is undefined for spin 0 (s(s+1) = 0)")
    scale = 1.0 / math.sqrt(label.s * (label.s + 1.0))
    return KrausChannel(np.stack([op * scale for op in spin_operators(label)]))


def _apply_stack(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k X_k rho X_k^dagger for a stack (R, dim_in, dim_in) of matrices rho.

    The stack is applied as R products of the row-wise blocks [X_k rho]_k
    with the stacked [X_k^*]_k, one matrix product per row, so no row's
    result depends on the others. One matrix is a one-row stack.
    """
    n, dim_out, dim_in = ops.shape
    moved = (ops @ rho[:, np.newaxis]).transpose(0, 2, 1, 3).reshape(-1, dim_out, n * dim_in)
    return moved @ ops.conj().transpose(0, 2, 1).reshape(n * dim_in, dim_out)


def apply(channel: KrausChannel, rho) -> np.ndarray:
    """Evaluate the channel on a matrix (not restricted to states)."""
    m = as_complex_matrix(rho)
    d = channel.dim_in
    if m.shape != (d, d):
        raise ContractViolation(f"operator shape {m.shape} does not match channel input dim {d}")
    return _apply_stack(channel.kraus, m[np.newaxis])[0]


def _product_columns(ops_a: np.ndarray, ops_b: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Columns (X_k tensor Y_l) psi of a product channel, applied factor by factor.

    With the row-major flattening of `linalg.kron`, a vector psi on the two
    factors is the in_a x in_b matrix Psi, and

        (X_k tensor Y_l) vec Psi = vec(X_k Psi Y_l^T),

    so the output on |psi><psi| is M M^dagger for the matrix M whose column
    (k, l), pairs in row-major order, is vec(X_k Psi Y_l^T). Maps a stack psi
    (R, in_a, in_b) to the stack of M, (R, out_a * out_b, n_a * n_b); no
    Kraus operator of the product is built.
    """
    n_a, out_a, in_a = ops_a.shape
    n_b, out_b, in_b = ops_b.shape
    left = (ops_a.reshape(-1, in_a) @ psi).reshape(-1, in_b)  # rows (r, k, i) of X_k Psi
    moved = np.dot(left, ops_b.reshape(-1, in_b).T)  # columns (l, b)
    moved = moved.reshape(-1, n_a, out_a, n_b, out_b).transpose(0, 2, 4, 1, 3)
    return moved.reshape(-1, out_a * out_b, n_a * n_b)


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Parallel composition: Kraus set {X_k tensor Y_l}."""
    ops = np.stack([np.kron(x, y) for x in a.kraus for y in b.kraus])
    return KrausChannel(ops)


def output_gram(channel: KrausChannel, phi) -> np.ndarray:
    """Gram matrix G_kl = <X_l phi, X_k phi> of the propagated vectors.

    Shares its nonzero spectrum with the channel output on |phi><phi|, which
    makes it the cheap route to output entropies when n_kraus < dim_out.
    """
    v = check_pure_state(phi)
    if v.shape[0] != channel.dim_in:
        raise ContractViolation(
            f"state dimension {v.shape[0]} does not match channel input dim {channel.dim_in}"
        )
    moved = channel.kraus @ v
    return moved @ moved.conj().T


def entropy_gain(channel: KrausChannel, rho) -> float:
    """S(Lambda(rho)) - S(rho), in nats."""
    m = as_complex_matrix(rho)
    d = channel.dim_in
    if m.shape != (d, d):
        raise ContractViolation(f"state shape {m.shape} does not match channel input dim {d}")
    return von_neumann_entropy(apply(channel, m)) - von_neumann_entropy(m)


def random_channel(dim: int, n_kraus: int, seed) -> KrausChannel:
    """Haar-style random channel: a random isometry sliced into Kraus blocks.

    QR of an (n_kraus * dim, dim) complex Gaussian matrix gives column
    orthonormality, which is exactly trace preservation of the slices.
    """
    dim, n_kraus = as_count(dim, "dim"), as_count(n_kraus, "n_kraus")
    if dim < 1 or n_kraus < 1:
        raise ContractViolation(f"need dim >= 1 and n_kraus >= 1, got {dim}, {n_kraus}")
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal(
        (n_kraus * dim, dim)
    )
    q, _ = np.linalg.qr(gaussian)
    return KrausChannel(q.reshape(n_kraus, dim, dim))


def channel_to_json(channel: KrausChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [matrix_to_json(op) for op in channel.kraus],
    }


def channel_from_json(data) -> KrausChannel:
    """Parse the wire format, validating declared dimensions against shapes."""
    if not isinstance(data, dict):
        raise ContractViolation("channel payload must be a JSON object")
    for key in ("dim_in", "dim_out", "kraus"):
        if key not in data:
            raise ContractViolation(f"channel payload is missing the {key!r} field")
    raw = data["kraus"]
    if not isinstance(raw, list) or not raw:
        raise ContractViolation("channel payload needs a nonempty list of Kraus matrices")
    ops = [matrix_from_json(entry) for entry in raw]
    shape = ops[0].shape
    for op in ops[1:]:
        if op.shape != shape:
            raise ContractViolation("Kraus matrices in the payload have inconsistent shapes")
    dim_out, dim_in = shape
    declared = (data["dim_in"], data["dim_out"])
    if any(not isinstance(v, int) or isinstance(v, bool) for v in declared):
        raise ContractViolation(f"declared dimensions {declared!r} must be JSON integers")
    if declared != (dim_in, dim_out):
        raise ContractViolation(
            f"declared dimensions ({data['dim_in']!r}, {data['dim_out']!r}) do not match "
            f"matrix shape {shape}"
        )
    return KrausChannel(np.stack(ops))


def load_channel(path) -> KrausChannel:
    """Read a channel from a JSON file; malformed input raises with a reason."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ContractViolation(f"malformed channel file {path}: {exc}") from None
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        reason = f"an integer entry has more than {sys.get_int_max_str_digits():,} digits"
        raise ContractViolation(f"malformed channel file {path}: {reason}") from None
    return channel_from_json(data)


def save_channel(channel: KrausChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(channel_to_json(channel), handle, indent=2, sort_keys=True)
        handle.write("\n")
