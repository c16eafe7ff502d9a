import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    EXACT_EXCESS,
    EXACT_PAIR_ENTROPY,
    EXACT_SINGLE_MIN,
    dense_casimir_projectors,
    exact_moment_probabilities,
    exact_zero_m_states,
    random_density,
    random_hermitian,
    random_pure,
)
from spinchannels import invariant, spin
from spinchannels.channel import apply, isotropic_channel, tensor
from spinchannels.invariant import (
    IsotypicDistribution,
    _casimir_sectors,
    _twirl_pass,
    decohered_singlet,
    invariant_state_entropy,
    isotypic_probabilities,
    joint_min_bound,
    single_min_bound,
    single_min_entropy,
    singlet_decoherence,
    state_from_distribution,
)
from spinchannels.linalg import (
    ConsistencyError,
    ContractViolation,
    require_hermitian,
    slab_rows,
    spectrum_entropy,
    von_neumann_entropy,
)
from spinchannels.spin import SpinLabel, singlet_state

SPINS = [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4)]


def werner_mixture(label, weights):
    """Invariant state sum_j w_j P_j / (2j+1) built directly from dense projectors."""
    blocks = dense_casimir_projectors(label)
    out = sum(w * p / (2 * j + 1) for j, (w, p) in enumerate(zip(weights, blocks)))
    return out.astype(complex)


class TestIsotypicDistribution:
    def test_accepts_and_clamps(self):
        dist = IsotypicDistribution(SpinLabel(1), (0.25, 0.75 + 1e-11))
        assert dist.probs[0] == 0.25
        noisy = IsotypicDistribution(SpinLabel(1), (-1e-11, 1.0))
        assert noisy.probs[0] == 0.0

    def test_rejects_bad_distributions(self):
        with pytest.raises(ContractViolation, match="sum"):
            IsotypicDistribution(SpinLabel(1), (0.5, 0.6))
        with pytest.raises(ContractViolation, match="positivity"):
            IsotypicDistribution(SpinLabel(1), (-0.1, 1.1))
        with pytest.raises(ContractViolation, match="expected"):
            IsotypicDistribution(SpinLabel(1), (1.0,))

    def test_rejects_non_finite_weights(self):
        # NaN passes every > comparison, so it needs its own check
        with pytest.raises(ContractViolation, match="not finite"):
            IsotypicDistribution("1/2", (np.nan, 0.5))


class TestIsotypicDistributionTable:
    @pytest.mark.parametrize("probs", [(0.25, 0.75), [0.25, 0.75], np.array([0.25, 0.75])])
    def test_probabilities_come_back_as_python_floats(self, probs):
        dist = IsotypicDistribution(0.5, probs)
        assert dist.probs == (0.25, 0.75)
        assert all(type(p) is float for p in dist.probs)
        assert dist.spin == SpinLabel(1)

    @pytest.mark.parametrize("negative", [-0.0, -1e-9])
    def test_small_negatives_become_positive_zero(self, negative):
        dist = IsotypicDistribution(SpinLabel(2), (negative, 0.5, 0.5))
        assert dist.probs[0] == 0.0 and math.copysign(1.0, dist.probs[0]) == 1.0

    @pytest.mark.parametrize(
        "spin, probs, message",
        [
            # each row also breaks every later check, so it names the first one that runs
            (1, (np.nan, -1.0), "expected 3 block probabilities for spin 1, got shape (2,)"),
            (1, [[1.0, 0.0, 0.0]], "expected 3 block probabilities for spin 1, got shape (1, 3)"),
            (0.5, (np.inf, -1.0), "block probabilities are not finite"),
            (0.5, (np.nan, 0.5), "block probabilities are not finite"),
            (0.5, (-0.1, 0.3), "block probability -1.000e-01 violates positivity"),
            (0.5, (-2e-8, 1.0), "block probability -2.000e-08 violates positivity"),
            (0.5, (0.5, 0.6), "block probabilities sum to 1.1, not 1"),
            (0.5, (-1e-9, 0.5), "block probabilities sum to 0.5, not 1"),
        ],
    )
    def test_errors_keep_their_messages_and_order(self, spin, probs, message):
        with pytest.raises(ContractViolation) as excinfo:
            IsotypicDistribution(spin, probs)
        assert str(excinfo.value) == message


class TestIsotypicProbabilities:
    @pytest.mark.parametrize("label", SPINS)
    def test_recovers_werner_weights(self, label):
        rng = np.random.default_rng(61)
        raw = rng.uniform(0.1, 1.0, label.twice_s + 1)
        weights = raw / raw.sum()
        rho = werner_mixture(label, weights)
        dist = isotypic_probabilities(rho, label)
        assert np.abs(np.array(dist.probs) - weights).max() < 1e-10

    def test_singlet_projector_is_detected(self):
        label = SpinLabel(2)
        psi = singlet_state(label)
        dist = isotypic_probabilities(np.outer(psi, psi.conj()), label)
        expected = np.zeros(3)
        expected[0] = 1.0
        assert np.abs(np.array(dist.probs) - expected).max() < 1e-10

    def test_rejects_non_invariant_states(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 4)
        with pytest.raises(ContractViolation, match="invariant"):
            isotypic_probabilities(rho, "1/2")

    def test_rejects_non_finite_entries(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 1] = np.nan
        with pytest.raises(ContractViolation, match="not finite"):
            isotypic_probabilities(rho, "1/2")

    def test_matrix_element_cross_check_fails_below_the_twirl_tolerance(self):
        # eps (|2;0><2;0| - |0;0><0;0|) moves block 2 by eps in trace but by
        # 5 eps in 5 <2;0|rho|2;0>, while its twirl residual stays below 1e-8
        label = SpinLabel(2)
        rho = state_from_distribution(IsotypicDistribution(label, (0.2, 0.3, 0.5)))
        zero, _, two = exact_zero_m_states(label)
        rho += 3e-9 * (np.outer(two, two.conj()) - np.outer(zero, zero.conj()))
        with pytest.raises(ConsistencyError, match="disagree by 1.200e-08"):
            isotypic_probabilities(rho, label)

    def test_rejects_wrong_dimension_and_trace(self):
        with pytest.raises(ContractViolation, match="match"):
            isotypic_probabilities(np.eye(6) / 6.0, "1/2")
        with pytest.raises(ContractViolation, match="trace"):
            isotypic_probabilities(np.eye(4), "1/2")


class TestThreePathAgreement:
    @pytest.mark.parametrize("label", SPINS)
    def test_projector_element_and_moment_routes(self, label):
        # three references of the tests, and the package route against them
        rho = decohered_singlet(label)
        projector_route = [float(np.trace(p @ rho).real) for p in dense_casimir_projectors(label)]
        element_route = [
            (2 * j + 1) * float(np.vdot(v, rho @ v).real)
            for j, v in enumerate(exact_zero_m_states(label))
        ]
        moment_route = exact_moment_probabilities(label)
        package_route = isotypic_probabilities(rho, label).probs
        routes = (projector_route, element_route, moment_route, package_route)
        for a, b, c, p in zip(*routes, strict=True):
            assert abs(a - b) < 1e-9
            assert abs(a - c) < 1e-9
            assert abs(a - p) < 1e-9


class TestInvariantStateEntropy:
    @pytest.mark.parametrize("label", SPINS)
    def test_formula_matches_diagonalization(self, label):
        rng = np.random.default_rng(63)
        raw = rng.uniform(0.1, 1.0, label.twice_s + 1)
        weights = raw / raw.sum()
        rho = werner_mixture(label, weights)
        dist = isotypic_probabilities(rho, label)
        assert abs(invariant_state_entropy(dist) - von_neumann_entropy(rho)) < 1e-10

    def test_zero_probability_blocks_contribute_nothing(self):
        dist = IsotypicDistribution(SpinLabel(1), (0.0, 1.0))
        assert abs(invariant_state_entropy(dist) - math.log(3.0)) < 1e-15


class TestStateFromDistribution:
    @pytest.mark.parametrize("label", SPINS)
    def test_reconstructs_the_decohered_singlet(self, label):
        rho = decohered_singlet(label)
        dist = isotypic_probabilities(rho, label)
        rebuilt = state_from_distribution(dist)
        assert np.abs(rebuilt - rho).max() < 1e-10


class TestDecoheredSinglet:
    def test_output_matches_direct_channel_application(self):
        label = SpinLabel(1)
        one = isotropic_channel(label)
        psi = singlet_state(label)
        direct = apply(tensor(one, one), np.outer(psi, psi.conj()))
        assert np.abs(decohered_singlet(label) - direct).max() < 1e-14

    def test_spin_half_block_probabilities(self):
        report = singlet_decoherence("1/2")
        assert abs(report.probs[0] - 1.0 / 3.0) < 1e-10
        assert abs(report.probs[1] - 2.0 / 3.0) < 1e-10

    def test_spin_one_block_probabilities(self):
        report = singlet_decoherence("1")
        expected = (1.0 / 3.0, 1.0 / 4.0, 5.0 / 12.0)
        for got, want in zip(report.probs, expected):
            assert abs(got - want) < 1e-10

    def test_high_spin_blocks_above_two_vanish(self):
        # two spin operators acting on the singlet reach only j <= 2
        for label in (SpinLabel(3), SpinLabel(4), SpinLabel(5)):
            report = singlet_decoherence(label)
            for j in range(3, label.twice_s + 1):
                assert abs(report.probs[j]) < 1e-12

    def test_closed_form_entropies(self):
        half = singlet_decoherence("1/2")
        assert abs(half.entropy - EXACT_PAIR_ENTROPY[1]) < 1e-10
        assert abs(half.excess - EXACT_EXCESS[1]) < 1e-9
        assert half.excess > 0.0
        one = singlet_decoherence("1")
        assert abs(one.entropy - EXACT_PAIR_ENTROPY[2]) < 1e-10
        assert abs(one.excess - EXACT_EXCESS[2]) < 1e-9
        assert one.entropy > 2.0 * math.log(2.0)

    def test_the_single_minimum_matches_the_closed_forms(self):
        for twice_s, single in EXACT_SINGLE_MIN.items():
            assert abs(single_min_entropy(SpinLabel(twice_s)) - single) < 1e-15
            report = singlet_decoherence(SpinLabel(twice_s))
            assert report.single_channel_min == single_min_entropy(SpinLabel(twice_s))
            assert abs(report.entropy - EXACT_PAIR_ENTROPY[twice_s]) < 1e-14
            assert abs(report.excess - EXACT_EXCESS[twice_s]) < 1e-14

    @pytest.mark.parametrize("twice_s", [1, 3, 8, 1000, 10**6])
    def test_every_spin_carries_its_single_minimum_and_a_positive_excess(self, twice_s):
        report = singlet_decoherence(SpinLabel(twice_s))
        s = twice_s / 2.0
        assert report.single_channel_min == single_min_entropy(SpinLabel(twice_s))
        assert abs(report.single_channel_min - _binary_entropy(1.0 / (s + 1.0))) < 1e-15
        assert report.excess == report.entropy - 2.0 * report.single_channel_min
        assert report.excess > 0.0

    def test_spin_zero_rejected(self):
        for entry in (singlet_decoherence, single_min_entropy, single_min_bound, joint_min_bound):
            with pytest.raises(ContractViolation, match="spin 0"):
                entry(0)


class TestSampledInvariance:
    def test_rejects_non_invariant_states(self):
        rng = np.random.default_rng(65)
        for twice_s in (1, 2, 3):
            d = twice_s + 1
            with pytest.raises(ContractViolation, match="invariant"):
                isotypic_probabilities(random_density(rng, d * d), SpinLabel(twice_s))
            top = np.zeros((d * d, d * d), dtype=complex)
            top[0, 0] = 1.0  # |m=s> x |m=s>, the top of the j = 2s block
            with pytest.raises(ContractViolation, match="invariant"):
                isotypic_probabilities(top, SpinLabel(twice_s))

    @pytest.mark.parametrize("twice_s", range(1, 9))
    def test_accepts_decohered_singlets(self, twice_s):
        label = SpinLabel(twice_s)
        isotypic_probabilities(decohered_singlet(label), label)


class TestTwirlCheck:
    @pytest.mark.parametrize("twice_s", range(1, 5))
    def test_rejects_an_off_sector_perturbation(self, twice_s):
        label = SpinLabel(twice_s)
        rho = state_from_distribution(IsotypicDistribution(label, (1.0,) + (0.0,) * twice_s))
        isotypic_probabilities(rho, label)
        # indices 0 and 1 hold |s>|s> (M = 2s) and |s>|s-1> (M = 2s-1)
        rho[0, 1] += 1e-8
        rho[1, 0] += 1e-8
        with pytest.raises(ContractViolation, match="not rotationally invariant"):
            isotypic_probabilities(rho, label)

    def test_nan_residual_fails(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = np.nan
        _, _, deviation, hermitian = _twirl_pass(rho, _casimir_sectors(SpinLabel(1)))
        assert math.isnan(deviation) and not hermitian

    @pytest.mark.parametrize("twice_s", [24, 40])
    def test_round_trip_at_large_spin(self, twice_s):
        label = SpinLabel(twice_s)
        probs = np.random.default_rng(66).dirichlet(np.ones(twice_s + 1))
        found = isotypic_probabilities(state_from_distribution(IsotypicDistribution(label, probs)), label)
        assert np.abs(np.array(found.probs) - probs).max() < 1e-12


def _edited(*entries):
    """The spin-3/2 state with block weights (0.1, 0.2, 0.3, 0.4), entries added at (row, col)."""
    rho = state_from_distribution(IsotypicDistribution(SpinLabel(3), (0.1, 0.2, 0.3, 0.4)))
    for row, col, value in entries:
        rho[row, col] += value
    return rho


def _not_hermitian(defect):
    return f"invariant state is not Hermitian: max |M - M^dagger| = {defect} exceeds 1.0e-10"


# indices 0 and 1 (|s>|s> and |s>|s-1>), and 2 and 7, lie in different sectors; 1 and 4 in one
_FALLBACK_CASES = {
    "valid": (_edited, 0, None),
    "Hermitian off-sector 1e-11": (lambda: _edited((0, 1, 1e-11), (1, 0, 1e-11)), 0, None),
    "Hermitian off-sector 3e-10": (lambda: _edited((0, 1, 3e-10), (1, 0, 3e-10)), 1, None),
    "anti-Hermitian off-sector 1e-9": (
        lambda: _edited((0, 1, 1e-9), (1, 0, -1e-9)),
        1,
        _not_hermitian("2.000e-09"),
    ),
    "1e-9j on the diagonal": (lambda: _edited((5, 5, 1e-9j)), 1, _not_hermitian("2.000e-09")),
    "inf off-sector": (lambda: _edited((2, 7, np.inf)), 1, "invariant state is not finite"),
    "NaN in-sector": (lambda: _edited((1, 4, np.nan)), 1, "invariant state is not finite"),
    "non-square": (lambda: np.zeros((16, 15)), 1, "invariant state is not square: shape (16, 15)"),
    "wrongly sized": (
        lambda: np.eye(9) / 9.0,
        1,
        "state shape (9, 9) does not match two spin-3/2 systems",
    ),
    "trace 2": (lambda: 2.0 * _edited(), 0, "state trace is (2+0j), not 1"),
}


class TestHermiticityFromTheTwirlPass:
    """The twirl pass proves rho Hermitian; `require_hermitian` runs only where that proof fails."""

    @pytest.fixture
    def checked(self, monkeypatch):
        found = []

        def counted(matrix, name="matrix"):
            found.append(name)
            return require_hermitian(matrix, name=name)

        monkeypatch.setattr(invariant, "require_hermitian", counted)
        return found

    def test_invariant_states_need_no_fallback(self, checked):
        # each spin spelled three ways, each round trip run twice: the same weights every time
        for twice_s in range(1, 17):
            probs = np.random.default_rng(twice_s).dirichlet(np.ones(twice_s + 1))
            found = []
            for spelling in (SpinLabel(twice_s), twice_s / 2, np.float32(twice_s / 2)) * 2:
                rho = state_from_distribution(IsotypicDistribution(spelling, tuple(probs)))
                found.append(isotypic_probabilities(rho, spelling).probs)
            assert found == [found[0]] * 6
            assert np.abs(np.array(found[0]) - probs).max() < 1e-12
        for twice_s in range(1, 9):
            isotypic_probabilities(decohered_singlet(SpinLabel(twice_s)), SpinLabel(twice_s))
        assert checked == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", _FALLBACK_CASES)
    def test_fallback_calls_and_errors(self, case, checked):
        make, calls, message = _FALLBACK_CASES[case]
        if message is None:
            # off-sector entries do not move the block weights
            found = isotypic_probabilities(make(), "3/2").probs
            assert found == isotypic_probabilities(_edited(), "3/2").probs
            assert np.abs(np.array(found) - (0.1, 0.2, 0.3, 0.4)).max() < 1e-15
        else:
            with pytest.raises(ContractViolation) as info:
                isotypic_probabilities(make(), "3/2")
            assert str(info.value) == message
        assert checked == ["invariant state"] * calls

    def test_round_trip_at_2s_40_needs_no_fallback(self, checked):
        label = SpinLabel(40)
        probs = np.random.default_rng(68).dirichlet(np.ones(label.dimension))
        rho = state_from_distribution(IsotypicDistribution(label, tuple(probs)))
        assert np.abs(np.array(isotypic_probabilities(rho, label).probs) - probs).max() < 1e-12
        assert checked == []


def sector_of(label):
    """2s - M of each two-spin basis state |m_a> x |m_b>: a + b."""
    return np.add.outer(np.arange(label.dimension), np.arange(label.dimension)).ravel()


class TestEntrywiseTwirlResidual:
    @pytest.mark.parametrize("twice_s", range(1, 7))
    @pytest.mark.parametrize("part", ["in-sector real", "in-sector imaginary", "off-sector", "all"])
    def test_matches_the_dense_residual(self, twice_s, part):
        label = SpinLabel(twice_s)
        d2 = label.dimension**2
        rng = np.random.default_rng(100 * twice_s + len(part))
        probs = rng.dirichlet(np.ones(label.dimension))
        h = 1e-3 * random_hermitian(rng, d2)
        inside = sector_of(label)[:, None] == sector_of(label)
        if part == "in-sector real":
            h = np.where(inside, h.real, 0.0)
        elif part == "in-sector imaginary":
            h = np.where(inside, 1j * h.imag, 0.0)
        elif part == "off-sector":
            h = np.where(inside, 0.0, h)
        rho = state_from_distribution(IsotypicDistribution(label, tuple(probs))) + h
        projectors = dense_casimir_projectors(label)
        twirl = sum(np.trace(p @ rho).real * p / (2 * j + 1) for j, p in enumerate(projectors))
        reference = 2.0 * np.linalg.norm(rho - twirl)
        slack = 1e-16 + 1e-12 * reference
        deviation = _twirl_pass(rho, _casimir_sectors(label))[2]
        assert reference - slack < deviation <= reference + slack

    @staticmethod
    def assert_last_slab_perturbation_rejected(twice_s):
        label = SpinLabel(twice_s)
        rho = state_from_distribution(IsotypicDistribution(label, (0.0,) * twice_s + (1.0,)))
        isotypic_probabilities(rho, label)
        # the last two basis states, |-s>|-s+1> and |-s>|-s>, have M = 1 - 2s and -2s
        rho[-1, -2] += 1e-8
        rho[-2, -1] += 1e-8
        with pytest.raises(ContractViolation, match="not rotationally invariant"):
            isotypic_probabilities(rho, label)

    def test_rejects_an_off_sector_perturbation_in_the_last_slab(self):
        # at 2s = 20 the 441 rows of rho are several slabs, both perturbed rows in the last
        n = 21**2
        rows = slab_rows(n)
        last = (n - 1) // rows * rows  # first row of the last slab
        assert last > 0 and n - 2 >= last
        self.assert_last_slab_perturbation_rejected(20)

    def test_rejects_an_off_sector_perturbation_in_a_short_final_slab(self):
        # at 2s = 13 the 196 rows of rho end in a slab of 196 % slab_rows(196) = 4 rows
        n = 14**2
        rows = slab_rows(n)
        last = (n - 1) // rows * rows
        assert last > 0 and 2 <= n - last < rows
        self.assert_last_slab_perturbation_rejected(13)

    def test_block_weights_at_2s_40_allocate_under_a_quarter_of_the_state(self):
        label = SpinLabel(40)
        probs = np.random.default_rng(67).dirichlet(np.ones(label.dimension))
        rho = state_from_distribution(IsotypicDistribution(label, tuple(probs)))
        tracemalloc.start()
        try:
            isotypic_probabilities(rho, label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * rho.nbytes


class TestZeroMResidualCheck:
    def test_checks_the_zero_m_vectors_the_traces_cannot_see(self, monkeypatch):
        # blocks j = 2 and 3 carry the same weight per state, so mixing |2;0>
        # with |3;0> leaves every trace and matrix element as it was
        label = SpinLabel(4)
        rho = state_from_distribution(IsotypicDistribution(label, (0.1, 0.2, 0.25, 0.35, 0.1)))
        invariant._casimir_sectors.cache_clear()  # so the call below solves the sectors again
        original = invariant._solve_sectors

        def mixed(lab):
            indices, j_values, vectors = original(lab)
            zero = vectors[lab.twice_s]
            two, three = zero[:, 2].copy(), zero[:, 3].copy()
            zero[:, 2], zero[:, 3] = (two + three) / math.sqrt(2), (two - three) / math.sqrt(2)
            return indices, j_values, vectors

        monkeypatch.setattr(invariant, "_solve_sectors", mixed)
        with pytest.raises(ConsistencyError, match=r"^\|2;0> fails the J\^2 eigenvector residual"):
            isotypic_probabilities(rho, label)


class TestWorkCount:
    def test_one_sector_pass_and_no_rotations(self, monkeypatch):
        label = SpinLabel(4)
        rho = decohered_singlet(label)
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        # the |j;0> come from the sector pass, with one residual check
        sectors = counted("_casimir_sectors", invariant._casimir_sectors)
        monkeypatch.setattr(invariant, "_casimir_sectors", sectors)
        checked = counted("_check_zero_m_states", invariant._check_zero_m_states)
        monkeypatch.setattr(invariant, "_check_zero_m_states", checked)
        monkeypatch.setattr(spin, "rotation_unitary", counted("rotation_unitary", spin.rotation_unitary))
        isotypic_probabilities(rho, label)
        assert calls == ["_casimir_sectors", "_check_zero_m_states"]


class TestClosedFormMatchesMatrixRoutes:
    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_weights_and_entropy(self, twice_s):
        label = SpinLabel(twice_s)
        report = singlet_decoherence(label)
        rho = decohered_singlet(label)
        closed = np.array(report.probs)
        for route in (isotypic_probabilities(rho, label).probs, exact_moment_probabilities(label)):
            assert np.abs(closed - np.array(route)).max() < 1e-9
        assert abs(report.entropy - spectrum_entropy(np.linalg.eigvalsh(rho))) < 1e-10


class TestLargeSpinBlockRoutes:
    """From 2s = 42 on, the |s>|-s> entry of |2s;0> is below 1e-12."""

    @pytest.mark.parametrize("twice_s", [42, 60])
    def test_moment_route_matches_the_closed_form(self, twice_s):
        label = SpinLabel(twice_s)
        moments = exact_moment_probabilities(label)
        assert np.abs(moments - np.array(singlet_decoherence(label).probs)).max() < 1e-12

    def test_isotypic_round_trip_at_2s_42(self):
        label = SpinLabel(42)
        probs = np.random.default_rng(42).dirichlet(np.ones(label.dimension))
        dist = IsotypicDistribution(label, tuple(probs))
        back = isotypic_probabilities(state_from_distribution(dist), label)
        assert np.abs(np.array(back.probs) - probs).max() < 1e-12


class TestSizeGuard:
    def test_oversized_spin_is_rejected_before_allocating(self):
        with pytest.raises(ContractViolation, match="cap"):
            singlet_decoherence(2000000)

    def test_cap_admits_spin_eight(self):
        report = singlet_decoherence(8)
        q = 1.0 / (2.0 * 8.0 * 9.0)
        expected = [1.0 / 3.0, q, 2.0 / 3.0 - q] + [0.0] * 14
        assert np.abs(np.array(report.probs) - expected).max() < 1e-10


def _binary_entropy(p):
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


class TestSingleMinBound:
    """`single_min_bound` certifies h(1/(s+1)) at 2s = 1 to 399, and nothing it cannot."""

    @pytest.mark.parametrize("twice_s", range(1, 41))
    def test_the_bound_lies_within_1e_12_below_the_coherent_state_value(self, twice_s):
        reference = _binary_entropy(1.0 / (twice_s / 2.0 + 1.0))
        assert reference - 1e-12 <= single_min_bound(SpinLabel(twice_s)) < reference

    def test_the_pencil_is_the_dense_operator(self):
        """P(phi) = s^2 - A^dagger A for A = cos(phi/2) S_1 + i sin(phi/2) S_2, block by block."""
        for label in (SpinLabel(3), SpinLabel(6)):
            s1, s2, _ = spin.spin_operators(label)
            blocks = invariant._single_min_pencil(label)
            for phi in (0.0, 0.3, np.pi / 2, 2.0):
                a = np.cos(phi / 2) * s1 + 1j * np.sin(phi / 2) * s2
                dense = label.s**2 * np.eye(label.dimension) - a.conj().T @ a
                for first, (p0, x, y) in enumerate(blocks):
                    rows = np.arange(first, label.dimension, 2)
                    block = p0 + (1 - np.cos(phi)) * x + np.sin(phi) * y
                    assert np.abs(dense[np.ix_(rows, rows)] - block).max() < 1e-13
                index = np.arange(label.dimension)
                across = np.add.outer(index, index) % 2 == 1
                assert np.abs(dense[across]).max() < 1e-13  # no entry between the blocks

    def test_no_bound_where_it_cannot_be_certified(self):
        # the pencil at 2s = 1: mu = 1/3 < 1/2; at 2s = 2: P(phi) is singular at every phi
        for twice_s in (1, 2):
            assert invariant._pencil_bound(SpinLabel(twice_s)) is None
        assert single_min_bound(SpinLabel(400)) is None  # past the cap

    def test_the_grid_alone_refuses_spin_one(self, monkeypatch):
        """With the near-zero check waived below pi/32, the grid still finds no room at 2s = 2."""

        def waived(kernel_terms, s, phi0, slack):
            return phi0 < 0.1

        monkeypatch.setattr(invariant, "_covers_near_zero", waived)
        assert invariant._pencil_bound(SpinLabel(2)) is None
        assert invariant._pencil_bound(SpinLabel(3)) is not None

    def test_a_pencil_shifted_below_zero_is_refused(self, monkeypatch):
        pencil = invariant._single_min_pencil

        def shifted(label):
            return [(p0 - 1e-9 * np.eye(len(p0)), x, y) for p0, x, y in pencil(label)]

        monkeypatch.setattr(invariant, "_single_min_pencil", shifted)
        for twice_s in (3, 4, 8):
            assert invariant._single_min_bound.__wrapped__(SpinLabel(twice_s)) is None

    def test_cached_per_spin(self):
        for twice_s in (1, 5):
            assert single_min_bound(SpinLabel(twice_s)) is single_min_bound(SpinLabel(twice_s))
            assert type(single_min_bound(SpinLabel(twice_s))) is float

    def test_one_cache_entry_per_spin_whatever_its_spelling(self):
        invariant._single_min_bound.cache_clear()
        for spelling in ("3/2", 1.5, SpinLabel(3)):
            assert single_min_bound(spelling) is single_min_bound(SpinLabel(3))
        for spelling in ("1", 1.0, SpinLabel(2)):
            assert joint_min_bound(spelling) == 2.0 * single_min_bound(SpinLabel(2))
        assert invariant._single_min_bound.cache_info().misses == 2


class TestJointMinBound:
    """`joint_min_bound` certifies 2 h(1/(s+1)) for two copies at spins 1/2 and 1 only."""

    def test_the_spin_half_channel_has_a_ppt_choi_state(self):
        kraus = isotropic_channel("1/2").kraus
        # Choi state sum_ij |i><j| x Lambda(|i><j|) / 2, entry [(i, a), (j, b)]
        choi = np.einsum("kai,kbj->iajb", kraus, kraus.conj()).reshape(4, 4) / 2.0
        partial_transpose = choi.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        assert abs(np.linalg.eigvalsh(partial_transpose)[0] - 1.0 / 6.0) <= 1e-15

    def test_the_spin_one_purity_identity(self):
        """tr[(Lambda x Lambda)(psi)]^2 = (1 + tr rho_A^2) / 8 <= 1/4 on Haar states."""
        pair = tensor(isotropic_channel("1"), isotropic_channel("1"))
        rng = np.random.default_rng(35)
        for _ in range(20):
            psi = random_pure(rng, 9)
            rho_a = psi.reshape(3, 3) @ psi.reshape(3, 3).conj().T
            output = apply(pair, np.outer(psi, psi.conj()))
            purity = np.vdot(output, output).real
            assert abs(purity - (1.0 + np.vdot(rho_a, rho_a).real) / 8.0) <= 1e-14

    def test_twice_the_single_bound_at_spins_half_and_one(self):
        for twice_s in (1, 2):
            bound, exact = joint_min_bound(SpinLabel(twice_s)), 2.0 * EXACT_SINGLE_MIN[twice_s]
            assert type(bound) is float
            assert bound == 2.0 * single_min_bound(SpinLabel(twice_s))
            assert exact - 1e-13 <= bound < exact

    def test_no_bound_past_spin_one(self):
        for twice_s in range(3, 9):
            assert joint_min_bound(SpinLabel(twice_s)) is None
