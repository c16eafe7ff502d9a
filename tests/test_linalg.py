import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    operator_norm,
    partial_trace,
    random_density,
    random_hermitian,
    random_pure,
    random_unitary,
    relative_entropy,
    vector_from_json,
)
from spinchannels import linalg
from spinchannels.channel import random_channel
from spinchannels.linalg import (
    ContractViolation,
    as_complex_matrix,
    check_pure_state,
    kron,
    matrix_from_json,
    matrix_to_json,
    maximally_entangled,
    require_hermitian,
    size_text,
    slab_rows,
    spectrum_entropy,
    vector_to_json,
    von_neumann_entropy,
)
from spinchannels.optimize import haar_pure, schmidt_coefficients


def test_pure_state_validation():
    check_pure_state(np.array([1.0, 0.0]))
    with pytest.raises(ContractViolation, match="normalized"):
        check_pure_state(np.array([1.0, 1.0]))
    with pytest.raises(ContractViolation):
        check_pure_state(np.eye(2))


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_pure_state_validation_rejects_non_finite_entries(entry):
    # a NaN norm compares False against any tolerance, so it must fail the check itself
    with pytest.raises(ContractViolation, match="state vector is not finite"):
        check_pure_state(np.array([entry, 0.0]))


def test_partial_trace_inverts_products():
    rng = np.random.default_rng(13)
    for d_a, d_b in ((2, 3), (3, 2), (2, 2), (3, 3)):
        rho = random_density(rng, d_a)
        sigma = random_density(rng, d_b)
        product = kron(rho, sigma)
        assert np.abs(partial_trace(product, (d_a, d_b), "A") - rho).max() < 1e-12
        assert np.abs(partial_trace(product, (d_a, d_b), "B") - sigma).max() < 1e-12


def test_partial_trace_preserves_trace_on_entangled_input():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 6)
    for keep in ("A", "B"):
        reduced = partial_trace(rho, (2, 3), keep)
        assert abs(np.trace(reduced).real - 1.0) < 1e-12


def test_partial_trace_rejects_bad_requests():
    with pytest.raises(ContractViolation, match="match"):
        partial_trace(np.eye(5) / 5.0, (2, 3), "A")
    with pytest.raises(ContractViolation, match="keep"):
        partial_trace(np.eye(6) / 6.0, (2, 3), "C")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: partial_trace(np.eye(4) / 4.0, (2.5, 2), "A"), "dims[0]"),
        (lambda: partial_trace(np.eye(2) / 2.0, (True, 2), "B"), "dims[0]"),
        (lambda: schmidt_coefficients(np.eye(4)[0], (2, 2.5)), "dims[1]"),
        (lambda: haar_pure(2.7, 0), "dim"),
        (lambda: haar_pure(np.bool_(True), 0), "dim"),
        (lambda: haar_pure(math.nan, 0), "dim"),
        (lambda: random_channel(2.5, 3.9, 0), "dim"),
        (lambda: random_channel(2, math.inf, 0), "n_kraus"),
    ],
    ids=[
        "partial-trace-float",
        "partial-trace-bool",
        "schmidt-float",
        "haar-float",
        "haar-numpy-bool",
        "haar-nan",
        "random-channel-float",
        "random-channel-inf",
    ],
)
def test_sizes_take_integers_only(call, name):
    """A non-integer size raises, naming the argument, instead of being truncated by int()."""
    with pytest.raises(ContractViolation, match=f"^{re.escape(name)} takes integers only"):
        call()


def test_kron_index_convention():
    # (i_A, i_B) -> i_A * d_B + i_B: entry (0,1) of A tensor (1,0) of B
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    b = np.zeros((3, 3))
    b[1, 0] = 1.0
    full = kron(a, b)
    assert full[0 * 3 + 1, 1 * 3 + 0] == 1.0


def test_unequal_maximally_entangled_states_pair_the_smaller_factor():
    """sum_i (-1)^i |i>|d_b-1-i> over i < min(d_a, d_b), bit for bit."""
    half = 1.0 / math.sqrt(2)
    two_three, three_two = np.zeros(6), np.zeros(6)
    two_three[[0 * 3 + 2, 1 * 3 + 1]] = half, -half  # (|0>|2> - |1>|1>) / sqrt(2)
    three_two[[0 * 2 + 1, 1 * 2 + 0]] = half, -half  # (|0>|1> - |1>|0>) / sqrt(2)
    assert np.array_equal(maximally_entangled(2, 3), two_three)
    assert np.array_equal(maximally_entangled(3, 2), three_two)


def test_kron_respects_matrix_products():
    rng = np.random.default_rng(22)
    for _ in range(5):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        assert np.abs(lhs - kron(a @ c, b @ d)).max() < 1e-12


def test_partial_trace_of_singlet_is_maximally_mixed():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = np.outer(singlet, singlet.conj())
    for keep in ("A", "B"):
        reduced = partial_trace(rho, (2, 2), keep)
        assert np.abs(reduced - np.eye(2) / 2.0).max() < 1e-12


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 6)
    blocks = rho.reshape(2, 3, 2, 3)
    keep_a = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            keep_a[i, j] = sum(blocks[i, b, j, b] for b in range(3))
    keep_b = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            keep_b[i, j] = sum(blocks[a, i, a, j] for a in range(2))
    assert np.abs(partial_trace(rho, (2, 3), "A") - keep_a).max() < 1e-12
    assert np.abs(partial_trace(rho, (2, 3), "B") - keep_b).max() < 1e-12


def test_spectrum_entropy_known_values():
    # a pure spectrum gives +0.0, never -0.0 or a rounding step below 0, alone or stacked
    spectra = [[1.0 + 2.0**-52, 0.0], [1.0, 0.0]]
    for value in [spectrum_entropy(w) for w in spectra] + list(spectrum_entropy(spectra)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert abs(spectrum_entropy([0.5, 0.5]) - math.log(2.0)) < 1e-15
    uniform = np.full(5, 0.2)
    assert abs(spectrum_entropy(uniform) - math.log(5.0)) < 1e-14
    skew = spectrum_entropy([1.0 / 3.0, 2.0 / 3.0])
    assert abs(skew - (math.log(3.0) - 2.0 / 3.0 * math.log(2.0))) < 1e-14


def test_spectrum_entropy_clamps_noise_but_rejects_violations():
    clean = spectrum_entropy([1.0, -1e-11])
    assert clean == 0.0
    with pytest.raises(ContractViolation, match="positivity"):
        spectrum_entropy([1.05, -0.05])
    with pytest.raises(ContractViolation, match="empty spectrum"):
        spectrum_entropy([])


@pytest.mark.parametrize(
    "bad, reason",
    [(np.ones(2), "rank 1"), (np.zeros((0, 2)), "nonempty"), (np.zeros((1, 1, 1)), "rank 3")],
)
def test_as_complex_matrix_rejects_what_is_not_a_matrix(bad, reason):
    with pytest.raises(ContractViolation, match=reason):
        as_complex_matrix(bad)


def test_von_neumann_entropy_pure_and_mixed():
    rng = np.random.default_rng(15)
    phi = random_pure(rng, 4)
    assert abs(von_neumann_entropy(np.outer(phi, phi.conj()))) < 1e-12
    for d in (2, 3, 5):
        assert abs(von_neumann_entropy(np.eye(d) / d) - math.log(d)) < 1e-12


def test_entropy_unitary_invariance_and_additivity():
    rng = np.random.default_rng(16)
    for d in (2, 3, 4):
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        u = random_unitary(rng, d)
        assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) < 1e-10
        joint = von_neumann_entropy(kron(rho, sigma))
        assert abs(joint - von_neumann_entropy(rho) - von_neumann_entropy(sigma)) < 1e-10


def test_relative_entropy_against_matrix_log():
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        expected = np.trace(rho @ (scipy.linalg.logm(rho) - scipy.linalg.logm(sigma))).real
        assert abs(relative_entropy(rho, sigma) - expected) < 1e-9


def test_relative_entropy_special_values():
    rng = np.random.default_rng(18)
    rho = random_density(rng, 3)
    assert abs(relative_entropy(rho, rho)) < 1e-10
    phi = random_pure(rng, 4)
    pure = np.outer(phi, phi.conj())
    assert abs(relative_entropy(pure, np.eye(4) / 4.0) - math.log(4.0)) < 1e-10
    # rho has weight outside the support of a pure sigma
    assert relative_entropy(np.eye(4) / 4.0, pure) == math.inf


def test_relative_entropy_klein_inequality():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        value = relative_entropy(random_density(rng, d), random_density(rng, d))
        assert value >= -1e-10


def test_relative_entropy_rejects_mismatched_shapes():
    with pytest.raises(ContractViolation, match="mismatch"):
        relative_entropy(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_operator_norm_known_cases():
    assert abs(operator_norm(np.eye(4)) - 1.0) < 1e-15
    assert abs(operator_norm(np.diag([1.0 / 3.0, 2.0 / 3.0])) - 2.0 / 3.0) < 1e-15
    assert abs(operator_norm(np.diag([3.0, -5.0])) - 5.0) < 1e-12
    rng = np.random.default_rng(21)
    m = random_hermitian(rng, 5)
    assert abs(operator_norm(m) - np.abs(np.linalg.eigvalsh(m)).max()) < 1e-10
    u = random_unitary(rng, 4)
    assert abs(operator_norm(u) - 1.0) < 1e-12


def test_operator_norm_dominates_random_directions():
    # sup over unit vectors; sampled directions certify a lower bound
    rng = np.random.default_rng(24)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    norm = operator_norm(m)
    sampled = 0.0
    for _ in range(1000):
        x = random_pure(rng, 3)
        sampled = max(sampled, float(np.linalg.norm(m @ x)))
    assert sampled <= norm + 1e-12
    assert norm - sampled < norm * 0.05


def test_matrix_serialization_round_trip():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)


def test_matrix_deserialization_rejects_garbage():
    with pytest.raises(ContractViolation):
        matrix_from_json([])
    with pytest.raises(ContractViolation, match="inconsistent"):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ContractViolation, match="pairs"):
        matrix_from_json([[[1.0, 0.0, 0.0]]])
    with pytest.raises(ContractViolation):
        vector_from_json([[1.0]])


@pytest.mark.parametrize("spectrum", [[math.nan, 0.5, 0.5], [0.5, math.nan], [math.inf, 0.5], [math.inf]])
def test_spectrum_entropy_rejects_non_finite_eigenvalues(spectrum):
    with pytest.raises(ContractViolation):
        spectrum_entropy(spectrum)


@pytest.mark.parametrize(
    "decode, text, where",
    [
        (vector_from_json, "[[NaN, 0.0]]", "vector entry 0"),
        (vector_from_json, "[[1.0, 0.0], [0.0, -Infinity]]", "vector entry 1"),
        (matrix_from_json, "[[[1.0, 0.0], [Infinity, 0.0]]]", r"matrix entry \(0, 1\)"),
        (matrix_from_json, "[[[1.0, 0.0]], [[0.0, NaN]]]", r"matrix entry \(1, 0\)"),
    ],
    ids=["vector-nan", "vector-minus-inf", "matrix-inf", "matrix-nan"],
)
def test_json_decoding_rejects_non_finite_entries(decode, text, where):
    # Python's json module parses NaN and Infinity, so the decoders must refuse them
    with pytest.raises(ContractViolation, match=f"{where} is not finite"):
        decode(json.loads(text))


@pytest.mark.parametrize(
    "text",
    ["[[true, 0]]", "[[0, false]]", '[["1", 0]]', '[[1.0, "0"]]', "[[null, 0]]", "[[[1], 0]]"],
    ids=["true", "false", "numeric-string", "numeric-string-imag", "null", "nested"],
)
def test_json_decoding_rejects_entries_that_are_not_numbers(text):
    with pytest.raises(ContractViolation, match="vector entry 0 is not a pair of numbers"):
        vector_from_json(json.loads(text))


def test_json_decoding_accepts_integer_and_float_parts():
    assert vector_from_json(json.loads("[[1, 0], [0.5, -2]]")).tolist() == [1 + 0j, 0.5 - 2j]


def test_entropies_reject_non_hermitian_input():
    # require_hermitian guards every entropy against non-Hermitian input.
    lopsided = np.array([[0.5, 1e-6], [0.0, 0.5]])
    with pytest.raises(ContractViolation, match="Hermitian"):
        von_neumann_entropy(lopsided)
    with pytest.raises(ContractViolation, match="Hermitian"):
        relative_entropy(lopsided, np.eye(2) / 2.0)
    with pytest.raises(ContractViolation, match="Hermitian"):
        relative_entropy(np.eye(2) / 2.0, lopsided)
    with pytest.raises(ContractViolation, match=r"not square: shape \(2, 3\)"):
        require_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropies_reject_non_finite_input(bad):
    # NaN passes the Hermiticity comparison, so finiteness is checked first
    state = np.eye(2, dtype=complex) / 2.0
    state[0, 1] = bad
    with pytest.raises(ContractViolation, match="state is not finite"):
        von_neumann_entropy(state)
    with pytest.raises(ContractViolation, match="rho is not finite"):
        relative_entropy(state, np.eye(2) / 2.0)
    with pytest.raises(ContractViolation, match="sigma is not finite"):
        relative_entropy(np.eye(2) / 2.0, state)


def test_hermiticity_check_allocates_at_most_one_and_a_half_matrices():
    m = random_hermitian(np.random.default_rng(31), 512)
    before = m.copy()
    tracemalloc.start()
    try:
        assert require_hermitian(m) is m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * m.nbytes
    assert np.array_equal(m, before)



class TestSlabbedHermiticityCheck:
    """A 1100 x 1100 matrix spans several row slabs of `slab_rows(1100)` rows, the last one short."""

    N = 1100
    ROWS = slab_rows(N)
    LAST = (N - 1) // ROWS * ROWS  # first row of the last slab

    def matrix(self, seed):
        return random_hermitian(np.random.default_rng(seed), self.N)

    @staticmethod
    def assert_defect_is(m, value, monkeypatch):
        # the check passes at tolerance `value` and fails one float below it,
        # so the maximum it measured is `value` exactly
        monkeypatch.setattr(linalg, "HERMITICITY_TOL", value)
        require_hermitian(m)
        monkeypatch.setattr(linalg, "HERMITICITY_TOL", np.nextafter(value, 0.0))
        with pytest.raises(ContractViolation, match="not Hermitian"):
            require_hermitian(m)

    def test_defect_is_exactly_the_dense_maximum(self, monkeypatch):
        assert math.ceil(self.N / self.ROWS) > 2 and 0 < self.N - self.LAST < self.ROWS
        m = self.matrix(71)
        m += 1e-7 * np.random.default_rng(72).standard_normal(m.shape)
        self.assert_defect_is(m, float(np.abs(m - m.conj().T).max()), monkeypatch)

    def test_finds_a_defect_planted_below_the_diagonal_only(self, monkeypatch):
        m = self.matrix(73)
        m[self.N - 3, 5] += 3e-9j
        dense = float(np.abs(m - m.conj().T).max())
        assert dense > 2e-9
        self.assert_defect_is(m, dense, monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("defect", [0.0, 1.0])
    @pytest.mark.parametrize("column", [2, N - 1])
    def test_rejects_a_non_finite_entry_in_the_last_slab_only(self, bad, defect, column):
        assert self.LAST > 0  # row N - 1 lies in a later slab than row 0
        m = self.matrix(74)
        m[0, 1] += defect  # a Hermiticity defect in the first slab is reported second
        m[self.N - 1, column] = bad
        with pytest.raises(ContractViolation, match="matrix is not finite"):
            require_hermitian(m)

    def test_allocates_at_most_a_quarter_of_the_matrix(self):
        m = self.matrix(75)
        tracemalloc.start()
        try:
            require_hermitian(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * m.nbytes


class TestStackedSpectrumEntropy:
    def test_rows_match_the_single_spectrum_route(self):
        stack = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1.0, -1e-11, 0.0]])
        values = spectrum_entropy(stack)
        assert values.shape == (3,)
        for row, value in zip(stack, values):
            assert abs(value - spectrum_entropy(row)) <= 1e-15

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "NaN"), (-0.05, "positivity"), (math.inf, "not finite")],
    )
    def test_one_bad_row_raises_with_the_single_message(self, bad, message):
        stack = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        stack[1, 1] = bad
        with pytest.raises(ContractViolation, match=message):
            spectrum_entropy(stack)


@pytest.mark.parametrize(
    "count, unit_bits, text",
    [
        (3 * 2**29, 30, "1.5"),
        (2**30, 30, "1"),
        (2001, 0, "2e+03"),
        (10**400, 0, "1e+400"),
        (7 * 10**5000, 30, "6.52e+4991"),
    ],
    ids=["1.5GiB", "1GiB", "2001", "1e400", "7e5000-bytes"],
)
def test_size_text_never_overflows(count, unit_bits, text):
    assert size_text(count, unit_bits) == text
