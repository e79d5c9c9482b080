import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.channels import CqEnsemble, apply, identity_channel, marginal
from qkdsim.errors import ValidationError
from qkdsim.states import (
    DensityOperator,
    StateVector,
    TensorFactorization,
    hermitian_eigensystem,
    permute_factors,
    pure_state,
)

from conftest import SPOILS, binary_entropy, random_density, random_unitary, spoil
from oracles import tensor, von_neumann_entropy


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="hermitian"):
            DensityOperator([[0.5, 1j], [0, 0.5]])

    @pytest.mark.parametrize("off, refused", [(1e-9, True), (1e-11, False)])
    def test_hermiticity_tolerance_is_1e_minus_10(self, off, refused):
        matrix = [[0.5, off], [0.0, 0.5]]
        if refused:
            with pytest.raises(ValidationError, match="hermitian"):
                DensityOperator(matrix)
        else:
            DensityOperator(matrix)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError, match="unit-trace"):
            DensityOperator([[0.6, 0], [0, 0.6]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match="positive-semidefinite"):
            DensityOperator([[1.2, 0], [0, -0.2]])

    def test_small_negative_jitter_tolerated(self):
        rho = DensityOperator([[1 + 5e-11, 0], [0, -5e-11]])
        np.testing.assert_array_equal(rho.matrix, np.diag([1 + 5e-11, -5e-11]))

    def test_non_normalized_vector_rejected(self):
        with pytest.raises(ValidationError, match="normalized"):
            StateVector([1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValidationError) as err:
            StateVector([bad, 0.0])
        assert err.value.invariant == "amplitudes"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValidationError) as err:
            DensityOperator([[1.0, bad], [bad, 0.0]])
        assert err.value.invariant == "matrix"

    def test_matrix_is_frozen(self):
        rho = pure_state([1, 0])
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_bad_factorization_rejected(self):
        with pytest.raises(ValidationError, match="factorization"):
            TensorFactorization((2, 3)).check_dim(4)


def invariant_of(build):
    """The invariant that ``build()`` fails, or None when it succeeds."""
    try:
        build()
    except ValidationError as err:
        return err.invariant
    return None


class TestBatchedEnsembleCheck:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        size=st.integers(1, 4),
        dim=st.sampled_from([2, 3]),
        how=st.sampled_from(SPOILS),
        where=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_ensemble_fails_as_its_letter_does_property(self, size, dim, how, where, seed):
        rng = np.random.default_rng(seed)
        letters = [random_density(rng, dim, int(rng.integers(1, dim + 1))).matrix for _ in range(size)]
        where %= size
        letters[where] = spoil(letters[where], how)
        expected = [invariant_of(lambda m=m: DensityOperator(m)) for m in letters]
        assert (expected[where] is None) == (how == "none")
        try:
            CqEnsemble(np.full(size, 1.0 / size), letters)
        except ValidationError as err:
            assert err.invariant == expected[where] is not None
            assert str(err).startswith(f"{err.invariant}: state {where}: ")
        else:
            assert expected == [None] * size

    def test_states_are_one_read_only_stack(self):
        e = CqEnsemble([0.5, 0.5], [pure_state([1, 0]).matrix, pure_state([0, 1]).matrix])
        assert e.states.shape == (2, 2, 2) and e.states.dtype == complex
        with pytest.raises(ValueError):
            e.states[0, 0, 0] = 0.5

    def test_single_state_message_names_no_index(self):
        with pytest.raises(ValidationError, match=r"^unit-trace: trace is \(1\.2\+0j\), expected 1$"):
            DensityOperator([[0.6, 0], [0, 0.6]])


class TestPureState:
    def test_basis_projector(self):
        rho = pure_state([1, 0])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_plus_state(self):
        rho = pure_state(np.array([1, 1]) / math.sqrt(2))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_outer_product_oracle(self):
        theta = 0.7
        v = np.array([math.cos(theta), math.sin(theta)])
        rho = pure_state(v)
        expected = np.array(
            [
                [math.cos(theta) ** 2, math.cos(theta) * math.sin(theta)],
                [math.cos(theta) * math.sin(theta), math.sin(theta) ** 2],
            ]
        )
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def trace_out(rho, dims, side):
    """Partial trace of a two-factor state, taken by the package's channel marginal."""
    return apply(marginal(identity_channel(rho.dim, out_factorization=dims), side), rho)


class TestTensorAndPartialTrace:
    def test_mixed_identity_product(self):
        half = DensityOperator(np.eye(2) / 2)
        out = tensor(half, half)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_trace_out_second_factor_recovers_first(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        back = trace_out(tensor(a, b), (2, 3), "B")
        np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-10)

    def test_bell_state_marginal_is_mixed(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2))
        reduced = trace_out(bell, (2, 2), "E")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_two_qubit_letter_state(self):
        # xi(0) for the ideal-eavesdropping example: same qubit twice.
        s = 0.5
        phi = pure_state([1, 0])
        letter = tensor(phi, phi)
        kept = trace_out(letter, (2, 2), "B")
        np.testing.assert_allclose(kept.matrix, phi.matrix, atol=1e-12)
        assert letter.dim == 4

    def test_permute_factors_roundtrip(self, rng):
        rho = random_density(rng, 8)
        out = permute_factors(rho.matrix, (2, 2, 2), (2, 0, 1))
        back = permute_factors(out, (2, 2, 2), (1, 2, 0))
        np.testing.assert_allclose(back, rho.matrix, atol=1e-14)


class TestSpectralAndEntropy:
    """The package's eigendecomposition, and the oracle entropy that the
    Holevo-bound acceptance test relies on."""

    def test_diagonal_spectrum(self):
        vals, _ = hermitian_eigensystem(np.diag([0.75, 0.25]))
        np.testing.assert_allclose(vals, [0.75, 0.25], atol=1e-12)

    def test_pure_state_spectrum(self):
        plus = pure_state(np.array([1, 1]) / math.sqrt(2))
        vals, _ = hermitian_eigensystem(plus.matrix)
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)

    def test_two_state_mixture_closed_form(self):
        # (|phi><phi| + |psi><psi|)/2 has eigenvalues (1 +- s)/2.
        s = 0.5
        phi = np.array([1.0, 0.0])
        psi = np.array([s, math.sqrt(1 - s * s)])
        mix = DensityOperator((np.outer(phi, phi) + np.outer(psi, psi)) / 2)
        vals, vecs = hermitian_eigensystem(mix.matrix)
        np.testing.assert_allclose(vals, [(1 + s) / 2, (1 - s) / 2], atol=1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.abs(recon - mix.matrix).max() < 1e-9

    def test_eigenvalues_sum_to_one(self, rng):
        for _ in range(20):
            vals, _ = hermitian_eigensystem(random_density(rng, 4).matrix)
            assert abs(vals.sum() - 1.0) < 1e-9

    def test_pure_state_zero_entropy(self):
        assert von_neumann_entropy(pure_state([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_entropy(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_binary_mixture_entropy(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.811278, abs=1e-6)

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            u = random_unitary(rng, 3)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )

    def test_entropy_additive_on_products(self, rng):
        for _ in range(10):
            a = random_density(rng, 2)
            b = random_density(rng, 3)
            assert von_neumann_entropy(tensor(a, b)) == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9
            )

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            h = von_neumann_entropy(rho)
            assert 0.0 <= h <= 2.0 + 1e-12
