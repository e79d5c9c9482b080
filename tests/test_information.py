import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import information
from qkdsim.channels import CqEnsemble, identity_channel
from qkdsim.errors import DimensionMismatch, ValidationError
from qkdsim.information import (
    OptimizerConfig,
    _joint_objective,
    _mi_and_grad,
    _povm_objective,
    _softmax,
    accessible_information,
    c1,
    c_k,
    classical_advantage,
    holevo_capacity,
    holevo_chi,
    mutual_information,
    quantum_condition,
    shannon_entropy,
)
from qkdsim.measurements import (
    ClassicalChannel,
    Povm,
    induced_channel,
    normalize_vectors,
    random_rank1_povm,
)
from qkdsim.scenarios import paper_example
from qkdsim.states import pure_state

from conftest import central_differences, random_density, random_pure
from oracles import (
    binary_entropy,
    coarse_grain,
    grid_c1_qubit,
    pure_pair_c1,
    pure_pair_capacity,
)

CFG = OptimizerConfig(restarts=2, seed=7)


def qubit_pair_ensemble(s, prior=(0.5, 0.5)):
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([s, math.sqrt(1 - s * s)])
    return CqEnsemble(prior, (pure_state(psi0), pure_state(psi1)))


def bsc(eps):
    return ClassicalChannel([[1 - eps, eps], [eps, 1 - eps]])


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs, invariant",
        [
            ({"restarts": -3}, "restarts"),
            ({"max_iters": 0}, "max-iters"),
            ({"tol": float("nan")}, "tolerance"),
            ({"tol": float("inf")}, "tolerance"),
            ({"margin": float("nan")}, "margin"),
            ({"margin": float("-inf")}, "margin"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, invariant):
        with pytest.raises(ValidationError) as err:
            OptimizerConfig(**kwargs)
        assert err.value.invariant == invariant

    def test_boundary_values_accepted(self):
        cfg = OptimizerConfig(restarts=0, max_iters=1, margin=0.0)
        assert (cfg.restarts, cfg.max_iters) == (0, 1)


class TestShannonQuantities:
    def test_deterministic_entropy(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_entropy(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_binary_entropy_value(self):
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError, match="distribution"):
            shannon_entropy([0.5, 0.6])

    def test_identity_channel_mi(self):
        chan = ClassicalChannel(np.eye(2))
        assert mutual_information([0.5, 0.5], chan) == pytest.approx(1.0)

    def test_constant_channel_mi(self):
        chan = ClassicalChannel([[0.3, 0.7], [0.3, 0.7]])
        assert mutual_information([0.5, 0.5], chan) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_mi(self):
        assert mutual_information([0.5, 0.5], bsc(0.1)) == pytest.approx(
            1 - binary_entropy(0.1), abs=1e-12
        )
        assert mutual_information([0.5, 0.5], bsc(0.1)) == pytest.approx(0.531004, abs=1e-6)

    def test_mi_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutual_information([1.0], bsc(0.1))


class TestHolevo:
    def test_orthogonal_pair_chi(self):
        assert holevo_chi(qubit_pair_ensemble(0.0)) == pytest.approx(1.0)

    def test_identical_states_chi(self, rng):
        rho = random_pure(rng, 2)
        e = CqEnsemble([0.5, 0.5], (rho, rho))
        assert holevo_chi(e) == pytest.approx(0.0, abs=1e-12)

    def test_pure_pair_chi_closed_form(self):
        e = qubit_pair_ensemble(0.5)
        assert holevo_chi(e) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_capacity_orthogonal(self):
        res = holevo_capacity(qubit_pair_ensemble(0.0), CFG)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.prior, [0.5, 0.5], atol=1e-6)

    def test_capacity_pure_pair_grid_oracle(self):
        s = 0.5
        res = holevo_capacity(qubit_pair_ensemble(s), CFG)
        # 1-D oracle: maximum over p of the mixture-eigenvalue entropy
        ps = np.linspace(0, 1, 4001)
        lam = (1 + np.sqrt(1 - 4 * ps * (1 - ps) * (1 - s * s))) / 2
        oracle = max(binary_entropy(x) for x in lam)
        assert res.value == pytest.approx(oracle, abs=1e-7)
        assert res.value == pytest.approx(pure_pair_capacity(s), abs=1e-9)
        assert res.value == pytest.approx(0.811278, abs=1e-6)

    def test_capacity_single_letter(self):
        e = CqEnsemble([1.0], (pure_state([1, 0]),))
        assert holevo_capacity(e, CFG).value == 0.0

    def test_capacity_beats_chi_at_own_prior(self, rng):
        e = qubit_pair_ensemble(0.3, prior=(0.2, 0.8))
        res = holevo_capacity(e, CFG)
        assert res.value >= holevo_chi(e) - CFG.tol

    def test_capacity_three_letters_ascent(self, rng):
        # three symmetric trine-like states: capacity must reach log2(3) - h-ish
        # value; sanity: at least the chi at uniform and not above log2(3).
        states = tuple(
            pure_state([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)])
            for k in range(3)
        )
        e = CqEnsemble([1 / 3] * 3, states)
        res = holevo_capacity(e, CFG)
        assert holevo_chi(e) - 1e-9 <= res.value <= math.log2(3)
        assert res.converged


class TestAccessibleInformation:
    def test_orthogonal_pair(self):
        res = accessible_information(qubit_pair_ensemble(0.0), CFG)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_identical_states(self, rng):
        rho = random_pure(rng, 2)
        e = CqEnsemble([0.5, 0.5], (rho, rho))
        assert accessible_information(e, CFG).value == pytest.approx(0.0, abs=1e-9)

    def test_pure_pair_closed_form(self):
        s = 0.5
        res = accessible_information(qubit_pair_ensemble(s), CFG)
        assert res.value == pytest.approx(pure_pair_c1(s), abs=1e-7)
        assert res.value == pytest.approx(0.645421, abs=1e-6)

    def test_value_matches_returned_witness(self):
        e = qubit_pair_ensemble(0.4)
        res = accessible_information(e, CFG)
        replay = mutual_information(e.prior, induced_channel(res.povm, e))
        assert replay == pytest.approx(res.value, abs=1e-9)

    def test_holevo_bound_on_random_ensembles(self, rng):
        cfg = OptimizerConfig(restarts=1, seed=3)
        for _ in range(50):
            e = CqEnsemble([0.5, 0.5], (random_pure(rng, 2), random_pure(rng, 2)))
            res = accessible_information(e, cfg)
            assert res.value <= holevo_chi(e) + 1e-6

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
        p0=st.floats(0.05, 0.95),
    )
    def test_holevo_bound_and_witness_property(self, angles, p0):
        t0, f0, t1, f1 = angles
        states = tuple(
            pure_state([math.cos(t / 2), np.exp(1j * f) * math.sin(t / 2)])
            for t, f in ((t0, f0), (t1, f1))
        )
        e = CqEnsemble([p0, 1.0 - p0], states)
        res = accessible_information(e, OptimizerConfig(restarts=1, seed=0))
        assert res.value <= holevo_chi(e) + 1e-9
        replay = mutual_information(e.prior, induced_channel(res.povm, e))
        assert replay == pytest.approx(res.value, abs=1e-9)


class TestAscentGradient:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_mi_objective_matches_central_differences(self, rng, dim):
        e = CqEnsemble(rng.dirichlet(np.ones(3)), tuple(random_pure(rng, dim) for _ in range(3)))
        stack = np.stack([s.matrix for s in e.states])
        w = rng.normal(size=(dim * dim, dim)) + 1j * rng.normal(size=(dim * dim, dim))
        x = np.concatenate([w.real.ravel(), w.imag.ravel()])

        def vg(tables):
            value, g = _mi_and_grad(e.prior, tables[0])
            return value, [g]

        value, grad = _povm_objective(x, stack, vg, [slice(0, len(w))])
        fd = central_differences(lambda y: _povm_objective(y, stack, vg, [slice(0, len(w))])[0], x)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)
        povm = Povm([np.outer(v, v.conj()) for v in normalize_vectors(w)])
        replay = mutual_information(e.prior, induced_channel(povm, e))
        assert -value == pytest.approx(replay, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 3])
    def test_joint_objective_value_and_gradient(self, rng, size):
        e = CqEnsemble(np.full(size, 1.0 / size), tuple(random_density(rng, 2) for _ in range(size)))
        stack = np.stack([s.matrix for s in e.states])
        w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        z = rng.normal(size=size)
        y = np.concatenate([w.real.ravel(), w.imag.ravel(), z])
        value, grad = _joint_objective(y, stack, len(w))
        povm = Povm([np.outer(v, v.conj()) for v in normalize_vectors(w)])
        exact = mutual_information(_softmax(z), induced_channel(povm, e))
        assert -value == pytest.approx(exact, abs=1e-12)
        fd = central_differences(lambda x: _joint_objective(x, stack, len(w))[0], y)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)

    def test_singular_frame_scores_fifty_with_zero_gradient(self):
        stack = np.stack([s.matrix for s in qubit_pair_ensemble(0.5).states])
        w = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], dtype=complex)
        x = np.concatenate([w.real.ravel(), w.imag.ravel()])

        def vg(tables):
            value, g = _mi_and_grad(np.full(2, 0.5), tables[0])
            return value, [g]

        value, grad = _povm_objective(x, stack, vg, [slice(0, len(w))])
        assert value == 50.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_few_objective_calls_per_iteration(self, monkeypatch):
        calls = {"objective": 0, "nit": 0}
        objective = information._povm_objective
        minimize = information.sciopt.minimize

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            calls["nit"] += res.nit
            return res

        monkeypatch.setattr(information, "_povm_objective", counted_objective)
        monkeypatch.setattr(information.sciopt, "minimize", counted_minimize)
        accessible_information(qubit_pair_ensemble(0.4), OptimizerConfig(restarts=1, seed=0))
        assert calls["nit"] > 0
        assert calls["objective"] <= 3 * calls["nit"]


class TestC1:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        size=st.sampled_from([2, 3]),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_c1_at_most_holevo_capacity_property(self, size, dim, seed):
        rng = np.random.default_rng(seed)
        states = tuple(random_density(rng, dim) for _ in range(size))
        e = CqEnsemble(rng.dirichlet(np.ones(size)), states)
        cfg = OptimizerConfig(restarts=1)
        assert c1(e, cfg).value <= holevo_capacity(e, cfg).value + 1e-9

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        size=st.sampled_from([2, 3]),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_c1_witness_achieves_value_property(self, size, dim, seed):
        rng = np.random.default_rng(seed)
        states = tuple(random_density(rng, dim) for _ in range(size))
        e = CqEnsemble(rng.dirichlet(np.ones(size)), states)
        res = c1(e, OptimizerConfig(restarts=1))
        replay = mutual_information(res.prior, induced_channel(res.povm, e))
        assert replay == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("overlap", [0.2, 0.5, 0.8])
    def test_at_most_two_prior_steps_per_start(self, monkeypatch, overlap):
        """The joint ascent ends each start in one round, and the next round
        confirms it; the alternation alone took 50-78 prior steps here."""
        calls = {"starts": 0, "prior_steps": 0}

        def counted(name, key):
            original = getattr(information, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(information, name, wrapper)

        for name in ("helstrom", "pretty_good_measurement", "random_rank1_povm"):
            counted(name, "starts")
        counted("_best_prior_for_channel", "prior_steps")
        c1(paper_example(overlap).eve_ensemble(), OptimizerConfig())
        assert calls["starts"] > 0
        assert calls["prior_steps"] <= 2 * calls["starts"]

    def test_orthogonal_pair(self):
        assert c1(qubit_pair_ensemble(0.0), CFG).value == pytest.approx(1.0, abs=1e-9)

    def test_identical_states(self, rng):
        rho = random_pure(rng, 2)
        e = CqEnsemble([0.5, 0.5], (rho, rho))
        assert c1(e, CFG).value == pytest.approx(0.0, abs=1e-9)

    def test_pure_pair_uniform_optimum(self):
        s = 0.5
        res = c1(qubit_pair_ensemble(s), CFG)
        assert res.value == pytest.approx(pure_pair_c1(s), abs=1e-7)
        np.testing.assert_allclose(res.prior, [0.5, 0.5], atol=1e-3)

    def test_matches_grid_oracle_on_random_pure_pairs(self, rng):
        for _ in range(5):
            v0 = random_pure(rng, 2)
            v1 = random_pure(rng, 2)
            e = CqEnsemble([0.5, 0.5], (v0, v1))
            res = c1(e, CFG)
            from qkdsim.states import spectral

            a0 = spectral(v0)[1][:, 0]
            a1 = spectral(v1)[1][:, 0]
            oracle = grid_c1_qubit(a0, a1)
            assert res.value == pytest.approx(oracle, abs=1e-3)

    def test_at_least_accessible_information_at_uniform(self):
        e = qubit_pair_ensemble(0.35)
        assert c1(e, CFG).value >= accessible_information(e, CFG).value - CFG.tol


class TestCk:
    def test_k1_equals_c1(self):
        e = qubit_pair_ensemble(0.5)
        assert c_k(e, 1, CFG).value == pytest.approx(c1(e, CFG).value, abs=1e-9)

    def test_orthogonal_pair_k2(self):
        res = c_k(qubit_pair_ensemble(0.0), 2, CFG)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_sandwich_pure_pair(self):
        s = 0.5
        e = qubit_pair_ensemble(s)
        lo = 2 * pure_pair_c1(s)
        hi = 2 * pure_pair_capacity(s)
        res = c_k(e, 2, CFG)
        assert lo - 1e-3 <= res.value <= hi + 1e-3

    def test_budget_guard(self):
        e = qubit_pair_ensemble(0.5)
        from qkdsim.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            c_k(e, 13, CFG)


class TestClassicalAdvantage:
    def test_equal_channels_zero(self):
        rep = classical_advantage(bsc(0.2), bsc(0.2), CFG)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert not rep.satisfied

    def test_noiseless_vs_constant(self):
        v = ClassicalChannel(np.eye(2))
        w = ClassicalChannel([[0.5, 0.5], [0.5, 0.5]])
        rep = classical_advantage(v, w, CFG)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.satisfied

    def test_bsc_pair_closed_form(self):
        rep = classical_advantage(bsc(0.1), bsc(0.3), CFG)
        oracle = binary_entropy(0.3) - binary_entropy(0.1)
        assert rep.lhs == pytest.approx(oracle, abs=1e-9)
        assert rep.lhs == pytest.approx(0.412295, abs=1e-6)
        np.testing.assert_allclose(rep.lhs_prior, [0.5, 0.5], atol=1e-6)
        assert rep.satisfied

    def test_grid_oracle_on_random_binary_channels(self, rng):
        for _ in range(5):
            v = ClassicalChannel(rng.dirichlet(np.ones(3), size=2))
            w = ClassicalChannel(rng.dirichlet(np.ones(3), size=2))
            rep = classical_advantage(v, w, CFG)
            ps = np.linspace(0, 1, 4001)
            vals = [
                mutual_information([p, 1 - p], v) - mutual_information([p, 1 - p], w)
                for p in ps
            ]
            assert rep.lhs == pytest.approx(max(vals), abs=1e-6)

    def test_zero_for_identical_random_channels(self, rng):
        for _ in range(5):
            v = ClassicalChannel(rng.dirichlet(np.ones(4), size=2))
            rep = classical_advantage(v, v, CFG)
            assert rep.lhs == pytest.approx(0.0, abs=1e-9)

    def test_three_letter_input_path(self, rng):
        v = ClassicalChannel(np.eye(3))
        w = ClassicalChannel(np.full((3, 3), 1 / 3))
        rep = classical_advantage(v, w, CFG)
        assert rep.lhs == pytest.approx(math.log2(3), abs=1e-4)


class TestQuantumCondition:
    def test_example_satisfied_at_half(self):
        sc = paper_example(0.5)
        rep = quantum_condition(sc.ensemble, sc.theta, CFG)
        assert rep.lhs == pytest.approx(pure_pair_capacity(0.5), abs=1e-6)
        assert rep.rhs == pytest.approx(pure_pair_c1(0.5), abs=1e-4)
        assert rep.satisfied

    def test_orthogonal_equality_case(self):
        sc = paper_example(0.0)
        rep = quantum_condition(sc.ensemble, sc.theta, CFG)
        assert abs(rep.lhs - rep.rhs) <= 1e-6
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert not rep.satisfied

    def test_identical_equality_case(self):
        sc = paper_example(1.0)
        rep = quantum_condition(sc.ensemble, sc.theta, CFG)
        assert abs(rep.lhs - rep.rhs) <= 1e-6
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert not rep.satisfied

    def test_nonorthogonality_gives_advantage(self):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            sc = paper_example(s)
            rep = quantum_condition(sc.ensemble, sc.theta, CFG)
            assert rep.lhs - rep.rhs > 1e-4, f"no margin at s={s}"

    def test_requires_output_split(self):
        e = qubit_pair_ensemble(0.5)
        with pytest.raises(ValidationError, match="output-factorization"):
            quantum_condition(e, identity_channel(2), CFG)


class TestDataProcessing:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        size=st.sampled_from([2, 3]),
        dim=st.sampled_from([2, 3]),
        coarse_count=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_coarse_graining_never_increases_mi(self, size, dim, coarse_count, seed):
        rng = np.random.default_rng(seed)
        states = tuple(random_density(rng, dim) for _ in range(size))
        e = CqEnsemble(rng.dirichlet(np.ones(size)), states)
        povm = random_rank1_povm(dim, dim + 1, rng)
        fine = mutual_information(e.prior, induced_channel(povm, e))
        labels = rng.integers(0, coarse_count, size=len(povm))
        merged = Povm(coarse_grain(povm.effects, labels, coarse_count))
        coarse = mutual_information(e.prior, induced_channel(merged, e))
        assert coarse <= fine + 1e-9
