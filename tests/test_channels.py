import math

import numpy as np
import pytest

from qkdsim.channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    identity_channel,
    marginal,
    push_through,
    tensor_power,
)
from qkdsim.errors import BudgetExceeded, DimensionMismatch, ValidationError
from qkdsim.states import DensityOperator, pure_state

from conftest import random_channel, random_density
from oracles import depolarizing_channel, partial_trace, tensor


def paper_letter_states(s):
    phi = pure_state([1.0, 0.0])
    psi = pure_state([s, math.sqrt(1 - s * s)])
    return tensor(phi, phi), tensor(psi, psi), phi, psi


class TestValidationAndApply:
    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValidationError, match="trace-preserving"):
            QuantumChannel([np.eye(2) * 0.5])

    @pytest.mark.parametrize("off, refused", [(1e-8, True), (1e-10, False)])
    def test_trace_preservation_tolerance_is_1e_minus_9(self, off, refused):
        kraus = [np.diag([1.0, math.sqrt(1.0 + off)])]
        if refused:
            with pytest.raises(ValidationError, match="trace-preserving"):
                QuantumChannel(kraus)
        else:
            QuantumChannel(kraus)

    def test_non_finite_kraus_rejected(self):
        with pytest.raises(ValidationError) as err:
            QuantumChannel([np.array([[1.0, 0.0], [0.0, float("nan")]])])
        assert err.value.invariant == "kraus"

    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        out = apply(identity_channel(3), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply(identity_channel(3), random_density(rng, 2))

    def test_fully_depolarizing(self, rng):
        chan = depolarizing_channel(1.0)
        for _ in range(5):
            out = apply(chan, random_density(rng, 2))
            np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-10)

    def test_identity_on_letter_state(self):
        xi0, _, phi, _ = paper_letter_states(0.5)
        theta = identity_channel(4, out_dims=(2, 2))
        out = apply(theta, xi0)
        np.testing.assert_allclose(out.matrix, np.kron(phi.matrix, phi.matrix), atol=1e-12)

    def test_outputs_are_valid_states(self, rng):
        for _ in range(100):
            chan = random_channel(rng, 2, 3)
            out = apply(chan, random_density(rng, 2))
            assert isinstance(out, DensityOperator)


class TestTensorPower:
    def test_power_one_is_same_channel(self, rng):
        chan = depolarizing_channel(0.25)
        p1 = tensor_power(chan, 1)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply(p1, rho).matrix, apply(chan, rho).matrix, atol=1e-12)

    def test_identity_power_preserves_bell_state(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2))
        chan = tensor_power(identity_channel(2), 2)
        np.testing.assert_allclose(apply(chan, bell).matrix, bell.matrix, atol=1e-12)

    def test_factorizes_on_product_states(self, rng):
        chan = random_channel(rng, 2, 2, n_kraus=3)
        squared = tensor_power(chan, 2)
        for _ in range(5):
            r1, r2 = random_density(rng, 2), random_density(rng, 2)
            lhs = apply(squared, tensor(r1, r2)).matrix
            rhs = np.kron(apply(chan, r1).matrix, apply(chan, r2).matrix)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_budget_error(self):
        with pytest.raises(BudgetExceeded, match="exceeds budget"):
            tensor_power(identity_channel(4), 7)  # 4^7 = 16384 > 4096

    def test_budget_counts_kraus_products(self):
        # in and out dims are 2, but 4 Kraus operators give 4^7 products
        with pytest.raises(BudgetExceeded, match="16384"):
            tensor_power(depolarizing_channel(0.3), 7)


class TestMarginal:
    def test_requires_factorization(self, rng):
        with pytest.raises(ValidationError, match="output-factorization"):
            marginal(random_channel(rng, 2, 4), "B")

    def test_ideal_eavesdropping_marginals(self):
        xi0, xi1, phi, psi = paper_letter_states(0.5)
        theta = identity_channel(4, out_dims=(2, 2))
        bob = marginal(theta, "B")
        eve = marginal(theta, "E")
        np.testing.assert_allclose(apply(bob, xi0).matrix, phi.matrix, atol=1e-10)
        np.testing.assert_allclose(apply(eve, xi0).matrix, phi.matrix, atol=1e-10)
        np.testing.assert_allclose(apply(eve, xi1).matrix, psi.matrix, atol=1e-10)

    def test_product_channel_marginal(self, rng):
        phi_b = random_channel(rng, 2, 2)
        phi_e = random_channel(rng, 2, 3)
        kraus = [np.kron(k, l) for k in phi_b.kraus for l in phi_e.kraus]
        theta = QuantumChannel(kraus, out_dims=(2, 3))
        bob = marginal(theta, "B")
        for _ in range(5):
            r1, r2 = random_density(rng, 2), random_density(rng, 2)
            out = bob.apply_matrix(np.kron(r1.matrix, r2.matrix))
            np.testing.assert_allclose(out, apply(phi_b, r1).matrix, atol=1e-9)

    def test_marginal_equals_partial_trace_on_basis(self, rng):
        theta = random_channel(rng, 2, 4, n_kraus=2)
        theta = QuantumChannel(theta.kraus, out_dims=(2, 2))
        bob = marginal(theta, "B")
        for i in range(2):
            for j in range(2):
                basis = np.zeros((2, 2), dtype=complex)
                basis[i, j] = 1.0
                via_marginal = bob.apply_matrix(basis)
                full = theta.apply_matrix(basis)
                t = full.reshape(2, 2, 2, 2)
                via_trace = np.einsum("aebe->ab", t)
                np.testing.assert_allclose(via_marginal, via_trace, atol=1e-9)
        # and on proper states through the public API
        for _ in range(5):
            rho = random_density(rng, 2)
            lhs = apply(bob, rho).matrix
            rhs = partial_trace(apply(theta, rho).matrix, (2, 2), keep=0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestEnsembles:
    def test_prior_validation(self):
        states = (pure_state([1, 0]).matrix, pure_state([0, 1]).matrix)
        with pytest.raises(ValidationError, match="prior"):
            CqEnsemble([0.6, 0.6], states)

    def test_non_finite_prior_rejected(self):
        with pytest.raises(ValidationError) as err:
            CqEnsemble([float("nan"), 1.0], (pure_state([1, 0]).matrix, pure_state([0, 1]).matrix))
        assert err.value.invariant == "prior"

    def test_push_through_identity(self, rng):
        e = CqEnsemble([0.3, 0.7], (random_density(rng, 2).matrix, random_density(rng, 2).matrix))
        out = push_through(e, identity_channel(2))
        np.testing.assert_allclose(out.states, e.states, atol=1e-12)
        np.testing.assert_allclose(out.prior, e.prior)

    def test_push_through_is_apply_per_letter(self, rng):
        letters = [random_density(rng, 2) for _ in range(3)]
        chan = random_channel(rng, 2, 3, n_kraus=2)
        out = push_through(CqEnsemble(rng.dirichlet(np.ones(3)), [r.matrix for r in letters]), chan)
        np.testing.assert_array_equal(out.states, [apply(chan, r).matrix for r in letters])

    def test_letters_of_two_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            CqEnsemble([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3])

    def test_push_through_eve_marginal(self):
        xi0, xi1, phi, psi = paper_letter_states(0.5)
        e = CqEnsemble([0.5, 0.5], (xi0.matrix, xi1.matrix))
        theta = identity_channel(4, out_dims=(2, 2))
        out = push_through(e, marginal(theta, "E"))
        np.testing.assert_allclose(out.states[0], phi.matrix, atol=1e-10)
        np.testing.assert_allclose(out.states[1], psi.matrix, atol=1e-10)

    def test_push_through_depolarizing(self):
        e = CqEnsemble([0.5, 0.5], (pure_state([1, 0]).matrix, pure_state([0, 1]).matrix))
        out = push_through(e, depolarizing_channel(1.0))
        for a in range(2):
            np.testing.assert_allclose(out.states[a], np.eye(2) / 2, atol=1e-10)
