import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_casimir_projectors,
    dense_total_spin_squared,
    exact_zero_m_states,
    random_axis_angle,
)
from spinchannels import invariant
from spinchannels.channel import isotropic_channel
from spinchannels.invariant import (
    CLUSTER_TOL,
    SECTOR_CACHE_SPINS,
    IsotypicDistribution,
    isotypic_probabilities,
    state_from_distribution,
)
from spinchannels.linalg import (
    ConsistencyError,
    ContractViolation,
    maximally_entangled,
    slab_rows,
)
from spinchannels.spin import (
    SpinLabel,
    rotation_unitary,
    singlet_state,
    spin_operators,
)

SPINS = [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4), SpinLabel(5)]


def sector_projectors(label):
    """P_j, j = 0..2s, as (2j+1) times the invariant state with all weight on block j."""
    return [
        (2 * j + 1) * state_from_distribution(IsotypicDistribution(label, unit))
        for j, unit in enumerate(np.eye(label.dimension))
    ]


class TestSpinLabel:
    def test_parsing_accepts_half_integers(self):
        assert SpinLabel.from_string("1/2").twice_s == 1
        assert SpinLabel.from_string("0.5").twice_s == 1
        assert SpinLabel.from_string("1").twice_s == 2
        assert SpinLabel.from_string("3/2").twice_s == 3
        assert SpinLabel.from_string(" 2 ").twice_s == 4

    def test_coerce_accepts_numbers_and_labels(self):
        assert SpinLabel.coerce(2).twice_s == 4
        assert SpinLabel.coerce(1.5).twice_s == 3
        assert SpinLabel.coerce(SpinLabel(1)) == SpinLabel(1)

    @pytest.mark.parametrize("bad", ["1/3", "-1", "abc", "", "0.3"])
    def test_parsing_rejects_non_half_integers(self, bad):
        with pytest.raises(ContractViolation):
            SpinLabel.from_string(bad)

    @pytest.mark.parametrize("bad, reason", [(1.5, "int"), (True, "int"), (-1, "nonnegative")])
    def test_constructor_rejects_what_is_not_a_twice_s(self, bad, reason):
        with pytest.raises(ContractViolation, match=reason):
            SpinLabel(bad)

    def test_coerce_rejects_bad_values(self):
        with pytest.raises(ContractViolation):
            SpinLabel.coerce(1 / 3)
        with pytest.raises(ContractViolation):
            SpinLabel.coerce(-0.5)
        with pytest.raises(ContractViolation):
            SpinLabel.coerce(None)

    @pytest.mark.parametrize(
        "value, twice_s",
        [(np.int64(1), 2), (np.int32(0), 0), (np.uint8(3), 6), (np.float32(0.5), 1),
         (np.float64(1.5), 3), (np.float16(2.5), 5), (np.longdouble(3.5), 7)],
    )
    def test_coerce_accepts_numpy_scalars(self, value, twice_s):
        assert SpinLabel.coerce(value) == SpinLabel(twice_s)

    def test_isotropic_channel_takes_a_numpy_integer_spin(self):
        assert isotropic_channel(np.int64(1)).dim_in == 3

    @pytest.mark.parametrize(
        "bad",
        [True, np.bool_(True), np.float32("nan"), np.float64("inf"), np.float32(0.3),
         np.int64(-1), np.float32(-0.5), np.longdouble(1) / 3],
    )
    def test_coerce_rejects_bad_numpy_scalars(self, bad):
        with pytest.raises(ContractViolation):
            SpinLabel.coerce(bad)

    def test_str_round_trips(self):
        for label in [SpinLabel(0), SpinLabel(1), SpinLabel(2), SpinLabel(7)]:
            assert SpinLabel.from_string(str(label)) == label

    def test_properties(self):
        label = SpinLabel(3)
        assert label.s == 1.5
        assert label.dimension == 4


def coerce_by_fraction(value):
    """What `SpinLabel.coerce` gives for a number or string, worked out in Fraction arithmetic.

    Returns 2s, or the ContractViolation message.
    """
    if isinstance(value, str):
        try:
            exact = Fraction(value.strip())
        except ValueError:
            return f"cannot parse spin value {value!r}"
    elif isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        return f"cannot interpret {value!r} as a spin"
    elif isinstance(value, (int, np.integer)):
        exact = Fraction(int(value))
    else:
        try:
            exact = Fraction(*value.as_integer_ratio())
        except (ValueError, OverflowError):
            return f"cannot interpret {value!r} as a spin"
    if exact < 0:
        return f"spin must be nonnegative, got {value!r}"
    if (2 * exact).denominator != 1:
        return f"spin must be a half-integer, got {value!r}"
    return int(2 * exact)


def coerce_outcome(value):
    """2s from `SpinLabel.coerce`, or its ContractViolation message."""
    try:
        return SpinLabel.coerce(value).twice_s
    except ContractViolation as exc:
        return str(exc)


LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > 52
COERCE_TABLE = [
    0, 1, 7, -1, 10**400, -(10**400), 0.5, 1.5, 2.0, -0.5, 0.25, 1 / 3, -0.0, 2.0**1023,
    5e-324, 1e308, math.nan, math.inf, -math.inf, True, False, None, 1 + 0j, [1],
    np.float16(2.5), np.float16(0.3), np.float16("inf"), np.float32(0.5), np.float32(0.1),
    np.float32("nan"), np.float32(-1.5), np.float64(3.5), np.int8(-3), np.uint8(3),
    np.int64(2**62), np.uint64(2**63), np.bool_(False), np.longdouble(3.5),
    np.longdouble(1) / 3, np.longdouble("inf"),
    "3/2", " 2 ", "0.5", "1e400", "2/3", "5/3", "-2/3", "-0", "x",
    pytest.param(
        np.longdouble(0.5) + np.longdouble(2) ** -60,
        marks=pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason="longdouble is a double here"),
        id="longdouble-0.5+2^-60",
    ),
]


class TestCoerceMatchesFractionArithmetic:
    @pytest.mark.parametrize("value", COERCE_TABLE)
    def test_table(self, value):
        assert coerce_outcome(value) == coerce_by_fraction(value)

    def test_extremes(self):
        assert SpinLabel.coerce(2.0**1023).twice_s == 2**1024
        assert SpinLabel.coerce(np.uint64(2**63)).twice_s == 2**64
        assert coerce_outcome(5e-324) == "spin must be a half-integer, got 5e-324"
        assert coerce_outcome(-0.0) == 0
        if LONGDOUBLE_IS_WIDER:
            assert "half-integer" in coerce_outcome(np.longdouble(0.5) + np.longdouble(2) ** -60)

    @given(st.floats() | st.integers(-(2**70), 2**70).map(lambda k: k / 2))
    def test_floats(self, value):
        assert coerce_outcome(value) == coerce_by_fraction(value)

    @given(st.floats(width=32).map(np.float32))
    def test_float32(self, value):
        assert coerce_outcome(value) == coerce_by_fraction(value)


class TestSpinOperators:
    @pytest.mark.parametrize("label", SPINS)
    def test_commutation_relations(self, label):
        s1, s2, s3 = spin_operators(label)
        assert np.abs(s1 @ s2 - s2 @ s1 - 1j * s3).max() < 1e-12
        assert np.abs(s2 @ s3 - s3 @ s2 - 1j * s1).max() < 1e-12
        assert np.abs(s3 @ s1 - s1 @ s3 - 1j * s2).max() < 1e-12

    @pytest.mark.parametrize("label", SPINS)
    def test_casimir_and_hermiticity(self, label):
        ops = spin_operators(label)
        total = sum(op @ op for op in ops)
        expected = label.s * (label.s + 1.0) * np.eye(label.dimension)
        assert np.abs(total - expected).max() < 1e-12
        for op in ops:
            assert np.abs(op - op.conj().T).max() < 1e-15

    def test_spin_half_is_half_pauli(self):
        s1, s2, s3 = spin_operators("1/2")
        assert np.abs(s1 - np.array([[0, 0.5], [0.5, 0]])).max() < 1e-15
        assert np.abs(s2 - np.array([[0, -0.5j], [0.5j, 0]])).max() < 1e-15
        assert np.abs(s3 - np.diag([0.5, -0.5])).max() < 1e-15

    def test_spin_one_matrices(self):
        s1, s2, s3 = spin_operators("1")
        r = 1.0 / math.sqrt(2.0)
        assert np.abs(s1 - r * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])).max() < 1e-15
        assert np.abs(s2 - r * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])).max() < 1e-15
        assert np.abs(s3 - np.diag([1.0, 0.0, -1.0])).max() < 1e-15

    def test_s3_is_descending_diagonal(self):
        _, _, s3 = spin_operators("5/2")
        diag = np.diagonal(s3).real
        assert np.array_equal(diag, np.array([2.5, 1.5, 0.5, -0.5, -1.5, -2.5]))


class TestRotations:
    def test_unitarity_and_composition(self):
        rng = np.random.default_rng(31)
        for label in SPINS[:3]:
            axis, angle = random_axis_angle(rng)
            extra = float(rng.uniform(0.0, 2.0 * math.pi))
            u1 = rotation_unitary(label, axis, angle)
            u2 = rotation_unitary(label, axis, extra)
            u12 = rotation_unitary(label, axis, angle + extra)
            d = label.dimension
            assert np.abs(u1.conj().T @ u1 - np.eye(d)).max() < 1e-12
            assert np.abs(u1 @ u2 - u12).max() < 1e-12

    def test_full_turn_sign(self):
        # 2 pi gives (-1)^(2s); 4 pi is always the identity
        axis = np.array([0.0, 0.0, 1.0])
        for label in SPINS:
            d = label.dimension
            full = rotation_unitary(label, axis, 2.0 * math.pi)
            sign = -1.0 if label.twice_s % 2 else 1.0
            assert np.abs(full - sign * np.eye(d)).max() < 1e-12
            double = rotation_unitary(label, axis, 4.0 * math.pi)
            assert np.abs(double - np.eye(d)).max() < 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ContractViolation, match="unit"):
            rotation_unitary("1/2", [1.0, 1.0, 0.0], 0.3)
        with pytest.raises(ContractViolation, match="3-vector"):
            rotation_unitary("1/2", [1.0, 0.0], 0.3)

    @pytest.mark.parametrize(
        "axis, angle, reason",
        [
            ([math.nan, 0.0, 0.0], 0.3, "axis is not finite"),
            ([math.inf, 0.0, 0.0], 0.3, "axis is not finite"),
            ([1.0, 0.0, 0.0], math.inf, "angle must be finite"),
            ([1.0, 0.0, 0.0], math.nan, "angle must be finite"),
        ],
        ids=["nan-axis", "inf-axis", "inf-angle", "nan-angle"],
    )
    def test_rejects_non_finite_axis_or_angle(self, axis, angle, reason):
        with pytest.raises(ContractViolation, match=reason):
            rotation_unitary("1/2", axis, angle)


class TestCoupledStates:
    def test_spin_half_singlet_and_triplet(self):
        # basis order m = +1/2, -1/2: indices 1 and 2 hold |+-> and |-+>
        psi0, psi1 = exact_zero_m_states(SpinLabel(1))
        r = 1.0 / math.sqrt(2.0)
        assert np.abs(psi0 - np.array([0.0, r, -r, 0.0])).max() < 1e-12
        assert np.abs(psi1 - np.array([0.0, r, r, 0.0])).max() < 1e-12

    def test_spin_one_coupled_states(self):
        # basis order m = 1, 0, -1; index of |m> x |m'> is 3(1 - m) + (1 - m')
        up_down = 2  # |1,-1>
        mid = 4      # |0,0>
        down_up = 6  # |-1,1>
        psi0, psi1, psi2 = exact_zero_m_states(SpinLabel(2))
        expected0 = np.zeros(9)
        expected0[[up_down, mid, down_up]] = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
        assert np.abs(psi0 - expected0).max() < 1e-12
        expected1 = np.zeros(9)
        expected1[[up_down, down_up]] = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.abs(psi1 - expected1).max() < 1e-12
        expected2 = np.zeros(9)
        expected2[[up_down, mid, down_up]] = np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0)
        assert np.abs(psi2 - expected2).max() < 1e-12

    @pytest.mark.parametrize("label", SPINS)
    def test_orthonormal_eigenvectors(self, label):
        d = label.dimension
        states = exact_zero_m_states(label)
        overlaps = states.conj() @ states.T
        assert np.abs(overlaps - np.eye(d)).max() < 1e-10
        j_sq = dense_total_spin_squared(label)
        for j in range(label.twice_s + 1):
            v = states[j]
            assert np.linalg.norm(j_sq @ v - j * (j + 1) * v) < 1e-10

    @pytest.mark.parametrize("label", SPINS)
    def test_phase_convention(self, label):
        # coefficient of |m=s> x |m=-s> is real and positive for every j
        d = label.dimension
        top_index = 0 * d + (d - 1)
        assert exact_zero_m_states(label)[:, top_index].min() > 0.0

    def test_alternating_sign_singlet(self):
        # |0;0> = sum_i (-1)^i |i> x |d-1-i> / sqrt(d) in the m-basis
        for label in SPINS[:4]:
            d = label.dimension
            expected = np.zeros(d * d)
            for i in range(d):
                expected[i * d + (d - 1 - i)] = (-1.0) ** i
            expected /= math.sqrt(d)
            assert np.abs(singlet_state(label) - expected).max() < 1e-12

    def test_singlet_rotation_invariance(self):
        rng = np.random.default_rng(32)
        for label in SPINS[:3]:
            psi = singlet_state(label)
            for _ in range(10):
                axis, angle = random_axis_angle(rng)
                u = rotation_unitary(label, axis, angle)
                rotated = np.kron(u, u) @ psi
                overlap = np.vdot(psi, rotated)
                assert np.linalg.norm(rotated - overlap * psi) < 1e-10
                assert abs(abs(overlap) - 1.0) < 1e-10


class TestCasimirProjectors:
    @pytest.mark.parametrize("label", SPINS)
    def test_projector_algebra(self, label):
        blocks = sector_projectors(label)
        d2 = label.dimension ** 2
        total = sum(blocks)
        assert np.abs(total - np.eye(d2)).max() < 1e-10
        for j, p in enumerate(blocks):
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.conj().T).max() < 1e-12
            assert abs(np.trace(p).real - (2 * j + 1)) < 1e-9
            for k in range(j):
                assert np.abs(blocks[k] @ p).max() < 1e-10

    def test_projectors_commute_with_rotations(self):
        rng = np.random.default_rng(33)
        label = SpinLabel(2)
        blocks = sector_projectors(label)
        for _ in range(5):
            axis, angle = random_axis_angle(rng)
            u = rotation_unitary(label, axis, angle)
            w = np.kron(u, u)
            for p in blocks:
                assert np.abs(w @ p - p @ w).max() < 1e-10

    def test_projects_coupled_states_correctly(self):
        label = SpinLabel(3)
        blocks = sector_projectors(label)
        for j, v in enumerate(exact_zero_m_states(label)):
            for k, p in enumerate(blocks):
                expected = v if k == j else np.zeros_like(v)
                assert np.linalg.norm(p @ v - expected) < 1e-10


class TestTotalSpinSquared:
    @pytest.mark.parametrize("twice_s", range(1, 9))
    def test_matches_sum_of_squared_total_components(self, twice_s):
        # the definition: J^2 = sum_k (S_k x I + I x S_k)^2
        label = SpinLabel(twice_s)
        eye = np.eye(label.dimension)
        expected = np.zeros((label.dimension**2, label.dimension**2), dtype=complex)
        for s_k in spin_operators(label):
            j_k = np.kron(s_k, eye) + np.kron(eye, s_k)
            expected += j_k @ j_k
        assert np.abs(dense_total_spin_squared(label) - expected).max() < 1e-12


def _sector_of_each_index(label):
    # Flattened index a*d + b lies in sector k = a + b, where M = 2s - k.
    d = label.dimension
    return np.add.outer(np.arange(d), np.arange(d)).ravel()


class TestCasimirSectors:
    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_projectors_match_the_dense_reference(self, twice_s):
        label = SpinLabel(twice_s)
        for p, ref in zip(sector_projectors(label), dense_casimir_projectors(label), strict=True):
            assert np.abs(p - ref).max() < 1e-12

    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_total_spin_squared_vanishes_between_sectors(self, twice_s):
        label = SpinLabel(twice_s)
        sector = _sector_of_each_index(label)
        between = sector[:, None] != sector[None, :]
        assert np.count_nonzero(dense_total_spin_squared(label)[between]) == 0

    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_sector_indices_cover_each_index_once_in_its_own_sector(self, twice_s):
        # the J^2 on these indices is checked through the vectors' residuals below
        label = SpinLabel(twice_s)
        sector = _sector_of_each_index(label)
        covered = []
        for k, indices in enumerate(invariant._casimir_sectors(label)[0]):
            n = np.count_nonzero(indices >= 0)
            assert np.all(indices[n:] == -1)
            assert np.all(sector[indices[:n]] == k)
            covered.extend(indices[:n])
        assert sorted(covered) == list(range(label.dimension**2))

    def test_sector_vectors_carry_the_expected_j(self):
        # sectors M < 0 included, each solved on its own
        for twice_s in range(1, 17):
            label = SpinLabel(twice_s)
            d = label.dimension
            j_squared = dense_total_spin_squared(label)
            for k, (indices, j_values, vectors) in enumerate(zip(*invariant._casimir_sectors(label)[:3])):
                n = d - abs(twice_s - k)
                assert np.array_equal(j_values, np.r_[abs(twice_s - k) : d, [-1] * (d - n)])
                assert not vectors[n:].any() and not vectors[:, n:].any()
                full = np.zeros((d * d, n))
                full[indices[:n]] = vectors[:n, :n]
                residual = j_squared @ full - full * (j_values[:n] * (j_values[:n] + 1))
                assert np.abs(residual).max() < 1e-10

    @pytest.mark.parametrize("twice_s", range(1, 17))
    def test_sector_minus_m_repeats_sector_m(self, twice_s):
        # |m> x |m'> -> |-m'> x |-m> maps sector M onto -M with the same J^2
        # entry for entry, so the two solves agree bit for bit
        _, j_values, vectors = invariant._casimir_sectors(SpinLabel(twice_s))[:3]
        for k in range(twice_s):
            assert np.array_equal(j_values[k], j_values[2 * twice_s - k])
            assert np.array_equal(vectors[k], vectors[2 * twice_s - k])

    @pytest.mark.parametrize("shift", [10 * CLUSTER_TOL, -10 * CLUSTER_TOL], ids=["up", "down"])
    def test_perturbed_sector_eigenvalue_fails_clustering(self, monkeypatch, shift):
        original = np.linalg.eigh

        def perturbed(matrix):
            # at spin 3/2 the sectors of size 3 and 4 are M = 1, 0 and -1:
            # the check names the first in order
            eigenvalues, vectors = original(matrix)
            return eigenvalues + (shift if len(matrix) in (3, 4) else 0.0), vectors

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConsistencyError, match="sector M = 1 .* clustering"):
            invariant._casimir_sectors(SpinLabel(3))

    def test_eigenvalue_on_the_wrong_j_fails_clustering(self, monkeypatch):
        # At spin 1/2 the M = 1 sector holds only |1;1>, with J^2 = 2. Shifted
        # by -2 its eigenvalue lands on j(j+1) for j = 0, which is admissible
        # on its own but not in a sector with |M| = 1.
        original = np.linalg.eigh

        def shifted(matrix):
            eigenvalues, vectors = original(matrix)
            return eigenvalues - (2.0 if len(matrix) == 1 else 0.0), vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ConsistencyError, match="sector M = 1"):
            invariant._casimir_sectors(SpinLabel(1))

    def test_a_sector_below_zero_m_is_checked_on_its_own(self, monkeypatch):
        # the 1 x 1 sectors M = 1 and M = -1 at spin 1/2 hold the same J^2;
        # only the second solve is shifted, so only M = -1 can fail
        original, sizes = np.linalg.eigh, []

        def shifted(matrix):
            sizes.append(len(matrix))
            eigenvalues, vectors = original(matrix)
            return eigenvalues - (2.0 if sizes.count(1) == 2 else 0.0), vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ConsistencyError, match=r"sector M = -1 .* j = 1\.\.1; clustering"):
            invariant._casimir_sectors(SpinLabel(1))


def round_trip(label, seed):
    """isotypic_probabilities(state_from_distribution(p), s) for seeded weights p."""
    probs = np.random.default_rng(seed).dirichlet(np.ones(label.dimension))
    state = state_from_distribution(IsotypicDistribution(label, tuple(probs)))
    return isotypic_probabilities(state, label).probs


class TestSectorCache:
    def test_one_sector_solve_per_spin_per_process(self, monkeypatch):
        label = SpinLabel(7)
        original, calls = invariant._solve_sectors, []

        def counted(lab):
            calls.append(lab)
            return original(lab)

        monkeypatch.setattr(invariant, "_solve_sectors", counted)
        round_trip(label, 1)
        assert calls == [label]
        round_trip(label, 2)
        assert calls == [label]

    def test_returned_arrays_are_read_only(self):
        sectors = invariant._casimir_sectors(SpinLabel(3))
        # the three stacks, positions and slots, then slab ends, live mask, live j and 2j + 1
        assert len(sectors) == 9
        for array in sectors:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("twice_s", range(1, 17))
    def test_positions_list_each_in_sector_entry_once_by_row(self, twice_s):
        label = SpinLabel(twice_s)
        n = label.dimension**2
        indices, _, _, positions, slots = invariant._casimir_sectors(label)[:5]
        live = (indices[:, :, None] >= 0) & (indices[:, None, :] >= 0)
        pairs = indices[:, :, None] * n + indices[:, None, :]
        assert np.array_equal(np.sort(positions), np.sort(pairs[live]))
        assert np.unique(positions).size == positions.size == np.count_nonzero(live)
        assert np.all(np.diff(positions // n) >= 0)  # sorted by row
        assert live.reshape(-1)[slots].all()
        assert np.array_equal(pairs.reshape(-1)[slots], positions)

    @pytest.mark.parametrize("twice_s", range(1, 17))
    def test_gather_through_positions_matches_the_padded_index_gather(self, twice_s):
        label = SpinLabel(twice_s)
        n = label.dimension**2
        indices, _, vectors, positions, slots = invariant._casimir_sectors(label)[:5]
        rng = np.random.default_rng(400 + twice_s)
        rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gathered = np.zeros(vectors.shape, dtype=complex)
        gathered.reshape(-1)[slots] = rho.reshape(-1)[positions]
        padded = rho[indices[:, :, None], indices[:, None, :]]
        live = (indices[:, :, None] >= 0) & (indices[:, None, :] >= 0)
        assert np.array_equal(gathered[live], padded[live])
        assert not gathered[~live].any()

    @pytest.mark.parametrize("twice_s", [*range(1, 17), 40])
    def test_pass_constants_match_a_fresh_computation(self, twice_s):
        label = SpinLabel(twice_s)
        d, n = label.dimension, label.dimension**2
        _, j_values, _, positions, _, ends, live, live_j, multiplicities = (
            invariant._casimir_sectors(label)
        )
        starts = np.arange(0, n + slab_rows(n), slab_rows(n))
        assert np.array_equal(ends, [np.count_nonzero(positions < start * n) for start in starts])
        assert ends[-1] == positions.size
        assert np.array_equal(live, j_values != -1)
        assert np.array_equal(live_j, [j for row in j_values for j in row if j != -1])
        assert np.array_equal(multiplicities, [2 * j + 1 for j in range(d)])

    def test_cold_and_warm_calls_return_the_same_weights(self):
        for twice_s in range(1, 17):
            label = SpinLabel(twice_s)
            invariant._casimir_sectors.cache_clear()
            cold = round_trip(label, twice_s)
            assert round_trip(label, twice_s) == cold

    def test_the_cache_keeps_at_most_its_bound(self):
        for twice_s in range(1, SECTOR_CACHE_SPINS + 6):
            invariant._casimir_sectors(SpinLabel(twice_s))
        assert invariant._casimir_sectors.cache_info().currsize == SECTOR_CACHE_SPINS

    def test_a_failed_check_keeps_nothing(self, monkeypatch):
        label = SpinLabel(3)
        original = invariant._check_zero_m_states

        def failing(lab, index, rows):
            original(lab, index, rows[::-1])  # row j holds |2s-j;0>

        monkeypatch.setattr(invariant, "_check_zero_m_states", failing)
        with pytest.raises(ConsistencyError, match="residual check"):
            invariant._casimir_sectors(label)
        assert invariant._casimir_sectors.cache_info().currsize == 0


def zero_m_sector(label):
    """Writable copies of the M = 0 sector's flattened indices and (d, d) vectors."""
    indices, _, vectors = invariant._casimir_sectors(label)[:3]
    return indices[label.twice_s].copy(), vectors[label.twice_s].copy()


class TestZeroMSectorPhase:
    @pytest.mark.parametrize("twice_s", range(42))
    def test_stack_keeps_the_leading_entry_signs_below_2s_42(self, twice_s):
        # where the |s>|-s> entries stay above 1e-12, their own signs fix the phase
        label = SpinLabel(twice_s)
        indices, vectors = zero_m_sector(label)
        assert np.abs(vectors[0]).min() > 1e-12
        rows = (vectors * np.sign(vectors[0])).T
        assert np.abs(rows - exact_zero_m_states(label)[:, indices]).max() < 1e-12

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 8, 41, 42, 60])
    def test_stack_matches_the_exact_clebsch_gordan_coefficients(self, twice_s):
        # the sector vectors carry no phase: one sign per |j;0>, read off the overlap
        label = SpinLabel(twice_s)
        exact = exact_zero_m_states(label)
        indices, vectors = zero_m_sector(label)
        rows = vectors.T * np.sign(np.sum(exact[:, indices] * vectors.T, axis=1))[:, None]
        assert np.abs(rows - exact[:, indices]).max() < 1e-12

    def test_residual_check_does_not_trust_the_sector_matrix(self):
        # Q T Q^T has the spectrum of T, so only the residual against J^2
        # applied factor by factor can notice the wrong eigenvectors
        label = SpinLabel(4)
        q, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((5, 5)))
        index = zero_m_sector(label)[0]
        matrix = dense_total_spin_squared(label)[np.ix_(index, index)].real
        _, vectors = np.linalg.eigh(q @ matrix @ q.T)
        with pytest.raises(ConsistencyError, match=r"J\^2 eigenvector residual"):
            invariant._check_zero_m_states(label, index, vectors.T)

    def test_residual_check_names_the_first_failing_j(self):
        # mixing |2;0> with |3;0> keeps the stack orthonormal and on M = 0
        label = SpinLabel(4)
        indices, vectors = zero_m_sector(label)
        two, three = vectors[:, 2].copy(), vectors[:, 3].copy()
        vectors[:, 2], vectors[:, 3] = (two + three) / math.sqrt(2), (two - three) / math.sqrt(2)
        with pytest.raises(ConsistencyError, match=r"^\|2;0> fails the J\^2 eigenvector residual"):
            invariant._check_zero_m_states(label, indices, vectors.T)


class TestClosedFormSinglet:
    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_matches_the_eigensolve_route(self, twice_s):
        label = SpinLabel(twice_s)
        assert np.abs(exact_zero_m_states(label)[0] - singlet_state(label)).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    def test_is_the_entangled_start_of_the_probe(self, d):
        assert np.array_equal(maximally_entangled(d, d), singlet_state(SpinLabel(d - 1)))
