import itertools
import math

import numpy as np
import pytest

from qkdsim.channels import CqEnsemble
from qkdsim.errors import BudgetExceeded, DimensionMismatch, ValidationError
from qkdsim.measurements import (
    ClassicalChannel,
    Povm,
    _born_table,
    expand,
    helstrom,
    induced_channel,
    pretty_good_measurement,
    random_rank1_povm,
)
from qkdsim.simulation import EveStrategy
from qkdsim.states import pure_state, tensor

from conftest import random_density, random_pure, random_unitary
from oracles import coarse_grain


def qubit_pair(s):
    """Two pure qubits with real overlap s."""
    return pure_state([1.0, 0.0]), pure_state([s, math.sqrt(1 - s * s)])


def born(povm, rho):
    """Outcome distribution of one state, through the package's Born table."""
    return _born_table(np.stack(povm.effects), rho.matrix[None])[0]


def success_probability(povm, states, priors):
    return sum(
        p * born(povm, rho)[i] for i, (p, rho) in enumerate(zip(priors, states))
    )


BASIS_POVM = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class TestPovmValidation:
    def test_incomplete_rejected(self):
        with pytest.raises(ValidationError, match="completeness"):
            Povm([np.diag([0.4, 0.0]), np.diag([0.0, 0.4]), np.diag([0.5, 0.5])])

    def test_non_positive_rejected(self):
        with pytest.raises(ValidationError, match="effect-positive"):
            Povm([np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="effect-hermitian"):
            Povm([np.array([[0.5, 1j], [0, 0.5]]), np.array([[0.5, 0], [0, 0.5]])])

    def test_non_finite_effect_rejected(self):
        with pytest.raises(ValidationError) as err:
            Povm([np.diag([1.0, float("nan")]), np.diag([0.0, 1.0])])
        assert err.value.invariant == "effects"

    def test_random_rank1_is_valid(self, rng):
        for dim, m in [(2, 4), (3, 9), (4, 16)]:
            povm = random_rank1_povm(dim, m, rng)
            assert len(povm) == m and povm.dim == dim


class TestBornRule:
    def test_plus_state_in_basis(self):
        plus = pure_state(np.array([1, 1]) / math.sqrt(2))
        np.testing.assert_allclose(born(BASIS_POVM, plus), [0.5, 0.5], atol=1e-12)

    def test_trivial_povm(self, rng):
        povm = Povm([np.eye(3)])
        p = born(povm, random_density(rng, 3))
        np.testing.assert_allclose(p, [1.0], atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            induced_channel(BASIS_POVM, CqEnsemble([1.0], (random_density(rng, 3),)))

    def test_sums_to_one(self, rng):
        for _ in range(20):
            povm = random_rank1_povm(3, 9, rng)
            p = born(povm, random_density(rng, 3))
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-9


class TestHelstrom:
    def test_orthogonal_states_perfect(self):
        rho0, rho1 = qubit_pair(0.0)
        povm = helstrom(rho0, rho1, 0.5)
        assert success_probability(povm, (rho0, rho1), (0.5, 0.5)) == pytest.approx(1.0)

    def test_identical_states(self, rng):
        rho = random_density(rng, 2)
        for p0 in (0.5, 0.7, 0.2):
            povm = helstrom(rho, rho, p0)
            assert success_probability(povm, (rho, rho), (p0, 1 - p0)) == pytest.approx(
                max(p0, 1 - p0), abs=1e-10
            )

    def test_closed_form_success(self):
        s = 0.5
        rho0, rho1 = qubit_pair(s)
        povm = helstrom(rho0, rho1, 0.5)
        expected = (1 + math.sqrt(1 - s * s)) / 2
        assert success_probability(povm, (rho0, rho1), (0.5, 0.5)) == pytest.approx(
            expected, abs=1e-10
        )
        assert expected == pytest.approx(0.933013, abs=1e-6)

    def test_beats_random_projective_measurements(self, rng):
        rho0 = random_density(rng, 2)
        rho1 = random_density(rng, 2)
        povm = helstrom(rho0, rho1, 0.5)
        best = success_probability(povm, (rho0, rho1), (0.5, 0.5))
        for _ in range(100):
            u = random_unitary(rng, 2)
            proj = Povm([np.outer(u[:, 0], u[:, 0].conj()), np.outer(u[:, 1], u[:, 1].conj())])
            trial = max(
                success_probability(proj, (rho0, rho1), (0.5, 0.5)),
                success_probability(Povm(proj.effects[::-1]), (rho0, rho1), (0.5, 0.5)),
            )
            assert best >= trial - 1e-10


class TestPrettyGoodMeasurement:
    def test_orthogonal_states_projective(self):
        rho0, rho1 = qubit_pair(0.0)
        povm = pretty_good_measurement((rho0, rho1), (0.5, 0.5))
        np.testing.assert_allclose(povm.effects[0], rho0.matrix, atol=1e-10)
        np.testing.assert_allclose(povm.effects[1], rho1.matrix, atol=1e-10)

    def test_matches_helstrom_for_equiprobable_pure_pair(self):
        s = 0.5
        rho0, rho1 = qubit_pair(s)
        pgm = pretty_good_measurement((rho0, rho1), (0.5, 0.5))
        expected = (1 + math.sqrt(1 - s * s)) / 2
        assert success_probability(pgm, (rho0, rho1), (0.5, 0.5)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_single_state_gives_identity(self, rng):
        rho = random_pure(rng, 3)
        povm = pretty_good_measurement((rho,), (1.0,))
        assert len(povm) == 1
        np.testing.assert_allclose(povm.effects[0], np.eye(3), atol=1e-10)

    def test_singular_average_kernel_to_outcome_zero(self):
        # two pure states spanning 2 of 3 dimensions: kernel goes to effect 0
        rho0 = pure_state([1, 0, 0])
        rho1 = pure_state([0, 1, 0])
        povm = pretty_good_measurement((rho0, rho1), (0.5, 0.5))
        assert povm.effects[0][2, 2] == pytest.approx(1.0, abs=1e-12)
        assert povm.effects[1][2, 2] == pytest.approx(0.0, abs=1e-12)


class TestInducedChannel:
    def test_orthogonal_states_identity_channel(self):
        e = CqEnsemble([0.5, 0.5], qubit_pair(0.0))
        chan = induced_channel(BASIS_POVM, e)
        np.testing.assert_allclose(chan.matrix, np.eye(2), atol=1e-12)

    def test_constant_ensemble_identical_rows(self, rng):
        rho = random_density(rng, 2)
        e = CqEnsemble([0.5, 0.5], (rho, rho))
        chan = induced_channel(random_rank1_povm(2, 4, rng), e)
        np.testing.assert_allclose(chan.matrix[0], chan.matrix[1], atol=1e-12)

    def test_helstrom_induces_symmetric_channel(self):
        s = 0.5
        rho0, rho1 = qubit_pair(s)
        e = CqEnsemble([0.5, 0.5], (rho0, rho1))
        chan = induced_channel(helstrom(rho0, rho1, 0.5), e)
        eps = (1 - math.sqrt(1 - s * s)) / 2
        np.testing.assert_allclose(
            chan.matrix, [[1 - eps, eps], [eps, 1 - eps]], atol=1e-10
        )
        assert eps == pytest.approx(0.066987, abs=1e-6)


class TestExpandAndCoarseGrain:
    def test_single_slot_expansion(self, rng):
        povm = random_rank1_povm(2, 4, rng)
        flat = expand([povm])
        for a, b in zip(flat.effects, povm.effects):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_two_basis_slots(self):
        # effect t is the product of slot effects (b1, b2), t = 2 b1 + b2:
        # lexicographic in the slots' effect positions
        flat = expand([BASIS_POVM, BASIS_POVM])
        assert flat.dim == 4 and len(flat) == 4
        for t, effect in enumerate(flat.effects):
            np.testing.assert_allclose(effect, np.diag(np.eye(4)[t]), atol=1e-12)

    def test_expansion_completeness(self):
        rho0, rho1 = qubit_pair(0.5)
        h = helstrom(rho0, rho1, 0.5)
        flat = expand([h, h])
        total = sum(flat.effects)
        assert np.abs(total - np.eye(4)).max() < 1e-9

    def test_budget_guard(self, rng):
        povm = random_rank1_povm(4, 16, rng)
        with pytest.raises(BudgetExceeded):
            expand([povm] * 7)

    def test_product_born_rule(self, rng):
        p1 = random_rank1_povm(2, 4, rng)
        p2 = random_rank1_povm(2, 4, rng)
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        flat = expand([p1, p2])
        joint = born(flat, tensor(r1, r2))
        product = np.outer(born(p1, r1), born(p2, r2)).ravel()
        np.testing.assert_allclose(joint, product, atol=1e-9)

    def test_partial_function_rejected(self, rng):
        # a post-processing defined on the first outcome only is not total
        povm = random_rank1_povm(2, 4, rng)
        with pytest.raises(ValidationError, match="decoder-total"):
            EveStrategy([povm], [0])

    def test_majority_vote_matches_binomial(self):
        s = 0.5
        rho0, rho1 = qubit_pair(s)
        h = helstrom(rho0, rho1, 0.5)
        cube = expand([h, h, h])
        majority = [int(sum(t) >= 2) for t in itertools.product((0, 1), repeat=3)]
        voted = Povm(coarse_grain(cube.effects, majority, 2))
        block0 = tensor(tensor(rho0, rho0), rho0)
        p = born(voted, block0)
        eps = (1 - math.sqrt(1 - s * s)) / 2
        expected_err = 3 * eps**2 * (1 - eps) + eps**3
        assert p[1] == pytest.approx(expected_err, abs=1e-10)
        # enumeration oracle over the 8 outcome triples
        brute = 0.0
        per_slot = born(h, rho0)
        for bits in itertools.product((0, 1), repeat=3):
            if sum(bits) >= 2:
                brute += np.prod([per_slot[b] for b in bits])
        assert p[1] == pytest.approx(brute, abs=1e-12)


class TestClassicalChannel:
    def test_row_stochastic_validation(self):
        with pytest.raises(ValidationError, match="row-stochastic"):
            ClassicalChannel([[0.5, 0.4], [0.5, 0.5]])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValidationError) as err:
            ClassicalChannel([[float("nan"), 0.5], [0.5, 0.5]])
        assert err.value.invariant == "matrix"

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="matrix"):
            ClassicalChannel([[1.2, -0.2], [0.5, 0.5]])
