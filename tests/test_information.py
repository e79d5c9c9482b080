import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from qkdsim import information
from qkdsim.channels import CqEnsemble, identity_channel
from qkdsim.errors import DimensionMismatch, ValidationError
from qkdsim.information import (
    _JOINT_GTOL,
    OptimizerConfig,
    _ascend_frames,
    _ascend_prior,
    _ascend_starts,
    _best_prior_for_channel,
    _channel_divergences,
    _divergences_stacked,
    _frame_rows,
    _frame_tables,
    _mi_and_grad,
    _mi_from_probs,
    _mi_values,
    _padded,
    _rank1_pieces,
    _scores,
    _softmax,
    _start_frame,
    _start_set,
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
    _normalized_frames,
    helstrom,
    induced_channel,
    pretty_good_measurement,
    random_rank1_povm,
)
from qkdsim.scenarios import paper_example, scenario_from_dict
from qkdsim.states import hermitian_eigensystem, pure_state

from conftest import (
    FOUR_LETTER,
    THREE_MIXED,
    central_differences,
    ensemble,
    flat,
    random_density,
    random_pure,
)
from oracles import (
    alternating_c1,
    binary_entropy,
    classical_capacity_ba,
    coarse_grain,
    grid_c1_qubit,
    holevo_capacity_ba,
    frame_row,
    frame_table,
    joint_objective as oracle_joint_objective,
    mi_from_probs,
    normalized,
    one_frame,
    povm_objective_per_frame,
    pure_pair_c1,
    pure_pair_capacity,
    rank1_pieces_per_effect,
    sequential_accessible,
    sequential_c1,
    sequential_c_k,
    start_frame,
)

CFG = OptimizerConfig(restarts=2, seed=7)


def random_mixed_ensemble(size, dim, seed):
    """``size`` random letters on C^dim, each of random rank, at a random prior."""
    rng = np.random.default_rng(seed)
    states = tuple(random_density(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(size))
    return ensemble(rng.dirichlet(np.ones(size)), states)


mixed_ensembles = st.builds(
    random_mixed_ensemble, st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(0, 2**16)
)


def random_channel_rows(inputs, outputs, concentration, seed):
    """Row-stochastic rows, each drawn from Dirichlet(concentration)."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(outputs, concentration), size=inputs)


def qubit_pair_ensemble(s, prior=(0.5, 0.5)):
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([s, math.sqrt(1 - s * s)])
    return ensemble(prior, (pure_state(psi0), pure_state(psi1)))


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
        with pytest.raises(ValidationError, match=r"sum to 1, got \[1.5, -0.5\]"):
            shannon_entropy([1.5, -0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_distribution_rejected(self, bad):
        # A NaN passed every tolerance test, and the entropy came back 0.0.
        with pytest.raises(ValidationError) as err:
            shannon_entropy([bad, 1.0])
        assert err.value.invariant == "distribution"

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_mi_non_finite_prior_rejected(self, bad):
        # A NaN passed every tolerance test, and the information came back NaN.
        with pytest.raises(ValidationError) as err:
            mutual_information([bad, 1.0], ClassicalChannel(np.eye(2)))
        assert err.value.invariant == "distribution"

    def test_mi_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutual_information([1.0], bsc(0.1))


class TestHolevo:
    def test_orthogonal_pair_chi(self):
        assert holevo_chi(qubit_pair_ensemble(0.0)) == pytest.approx(1.0)

    def test_identical_states_chi(self, rng):
        rho = random_pure(rng, 2)
        e = ensemble([0.5, 0.5], (rho, rho))
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
        e = ensemble([1.0], (pure_state([1, 0]),))
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
        e = ensemble([1 / 3] * 3, states)
        res = holevo_capacity(e, CFG)
        assert holevo_chi(e) - 1e-9 <= res.value <= math.log2(3)
        assert res.converged

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        e=st.builds(
            random_mixed_ensemble, st.integers(2, 5), st.sampled_from([2, 3]), st.integers(0, 2**16)
        )
    )
    @example(e=scenario_from_dict(FOUR_LETTER).ensemble)
    @example(e=scenario_from_dict(THREE_MIXED).ensemble)
    def test_capacity_reaches_blahut_arimoto_property(self, e):
        res = holevo_capacity(e, CFG)
        assert res.converged
        assert res.value >= holevo_capacity_ba(e) - 1e-12


class TestPriorAscent:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        rows=st.builds(
            random_channel_rows, st.integers(2, 5), st.integers(2, 5), st.sampled_from([0.2, 1.0]),
            st.integers(0, 2**16),
        )
    )
    def test_classical_capacity_reaches_blahut_arimoto_property(self, rows):
        _, value, converged = _best_prior_for_channel(rows, CFG)
        assert converged
        assert value >= classical_capacity_ba(rows)[1] - 1e-12

    def test_prior_ascent_frees_a_letter_at_weight_zero(self):
        # At a vertex the other letters' divergences exceed the value, so the
        # bounded weights leave the face, where softmax logits could not.
        p = _ascend_prior(_channel_divergences(np.eye(3)), np.array([1.0, 0.0, 0.0]), 1e-9)
        np.testing.assert_allclose(p, np.full(3, 1 / 3), rtol=0, atol=1e-9)


class TestAccessibleInformation:
    def test_orthogonal_pair(self):
        res = accessible_information(qubit_pair_ensemble(0.0), CFG)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_identical_states(self, rng):
        rho = random_pure(rng, 2)
        e = ensemble([0.5, 0.5], (rho, rho))
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
            e = ensemble([0.5, 0.5], (random_pure(rng, 2), random_pure(rng, 2)))
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
        e = ensemble([p0, 1.0 - p0], states)
        res = accessible_information(e, OptimizerConfig(restarts=1, seed=0))
        assert res.value <= holevo_chi(e) + 1e-9
        replay = mutual_information(e.prior, induced_channel(res.povm, e))
        assert replay == pytest.approx(res.value, abs=1e-9)


class TestAscentGradient:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_mi_objective_matches_central_differences(self, rng, dim):
        e = ensemble(rng.dirichlet(np.ones(3)), tuple(random_pure(rng, dim) for _ in range(3)))
        stack = e.states
        w = rng.normal(size=(1, dim * dim, dim)) + 1j * rng.normal(size=(1, dim * dim, dim))
        x = flat(w)
        vg = one_frame(lambda table: _mi_and_grad(e.prior, table))
        value, grad = frame_row(x, stack, vg, w.shape)
        fd = central_differences(lambda y: frame_row(y, stack, vg, w.shape)[0], x)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)
        povm = Povm([np.outer(v, v.conj()) for v in normalized(w[0])])
        replay = mutual_information(e.prior, induced_channel(povm, e))
        assert -value == pytest.approx(replay, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 3])
    def test_joint_objective_value_and_gradient(self, rng, size):
        """Each row of the objective, its prior's logits or its fixed prior
        trailing: its value and its central differences; a fixed prior's
        gradient is exactly 0."""
        e = ensemble(np.full(size, 1.0 / size), tuple(random_density(rng, 2) for _ in range(size)))
        stack = e.states
        w = rng.normal(size=(2, 4, 2)) + 1j * rng.normal(size=(2, 4, 2))
        z = rng.normal(size=(2, size))
        for logits in (True, False):
            tails = z if logits else _softmax(z)
            x = np.stack([flat(frame, tail) for frame, tail in zip(w, tails)])
            shape, value_fn = (1, *w.shape[1:]), _mi_values(logits)
            values, grads = _frame_rows(x, stack, shape, value_fn)
            for f, row in enumerate(x):
                povm = Povm([np.outer(v, v.conj()) for v in normalized(w[f])])
                exact = mutual_information(_softmax(z[f]), induced_channel(povm, e))
                assert -values[f] == pytest.approx(exact, abs=1e-12)
                fd = central_differences(
                    lambda y: _frame_rows(y[None], stack, shape, value_fn)[0][0], row)
                if not logits:
                    assert not grads[f, w[0].size * 2 :].any()
                    fd = fd[: w[0].size * 2]
                np.testing.assert_allclose(grads[f, : fd.size], fd, rtol=0, atol=1e-6)

    def test_singular_frame_scores_fifty_with_zero_gradient(self):
        stack = qubit_pair_ensemble(0.5).states
        w = np.array([[[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]]], dtype=complex)
        x = flat(w)
        vg = one_frame(lambda table: _mi_and_grad(np.full(2, 0.5), table))
        value, grad = frame_row(x, stack, vg, w.shape)
        assert value == 50.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))
        # Among several rows it does so in its own row only.
        spanning = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5j]])
        rows = np.stack([flat(w[0], np.zeros(2)), flat(spanning, np.zeros(2))])
        values, grads = _frame_rows(rows, stack, w.shape, _mi_values(True))
        assert values[0] == 50.0 and not grads[0].any()
        alone_value, alone_grad = _frame_rows(rows[1:], stack, w.shape, _mi_values(True))
        assert values[1] == alone_value[0] < 0.0
        assert np.array_equal(grads[1], alone_grad[0]) and grads[1].any()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("count", [2, 3])
    def test_rows_of_several_frames_do_not_affect_each_other(self, rng, dim, count):
        """Three rows of ``count`` frames each, of d to d^2 + 1 raw rows
        zero-padded to d^2 + 1, no tail, the last frame of row 1 singular; the
        value is the sum of each frame's I at its own fixed prior. Each row's
        value and gradient are that row's alone, bit for bit; the singular row
        scores 50.0 with an all-zero gradient; every padded entry's gradient
        is exactly 0."""
        stack = np.stack([random_density(rng, dim).matrix for _ in range(3)])
        priors = rng.dirichlet(np.ones(3), size=count)
        sizes = rng.integers(dim, dim * dim + 2, size=(3, count))
        w = np.zeros((3, count, dim * dim + 1, dim), dtype=complex)
        for (j, f), r in np.ndenumerate(sizes):
            w[j, f, :r] = rng.normal(size=(r, dim)) + 1j * rng.normal(size=(r, dim))
        line = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        w[1, -1, : sizes[1, -1]] = rng.normal(size=(sizes[1, -1], 1)) * line
        x = np.stack([flat(row) for row in w])

        def value_fn(tables, tail):
            p = np.tile(priors, (len(tables), 1))
            div, ratio = _divergences_stacked(p, tables.reshape(-1, *tables.shape[2:]))
            values = (p * div).reshape(len(tables), count, 3).sum(axis=2).sum(axis=1)
            return values, (p[:, :, None] * ratio).reshape(tables.shape), np.zeros_like(tail)

        values, grads = _frame_rows(x, stack, w.shape[1:], value_fn)
        for j in range(3):
            alone_value, alone_grad = _frame_rows(x[j : j + 1], stack, w.shape[1:], value_fn)
            assert values[j] == alone_value[0]
            assert np.array_equal(grads[j], alone_grad[0])
        assert values[1] == 50.0 and not grads[1].any()
        assert values[0] < 0.0 and values[2] < 0.0
        parts = grads.reshape(3, 2, *w.shape[1:])
        for (j, f), r in np.ndenumerate(sizes):
            assert not parts[j, :, f, r:].any()
            assert j == 1 or parts[j, :, f, :r].any()

    @staticmethod
    def _frames_objective(rng, dim, rows):
        """Frames with ``rows`` rows each, zero-padded into one (F, R, d)
        array; random states; a value_and_grad summing each frame's mutual
        information over a list of tables; and the frames' packed raw rows
        with each frame's slice of them, as ``povm_objective_per_frame``
        takes them."""
        stack = np.stack([random_density(rng, dim).matrix for _ in range(3)])
        prior = rng.dirichlet(np.ones(3))
        frames = [rng.normal(size=(r, dim)) + 1j * rng.normal(size=(r, dim)) for r in rows]
        parts = [slice(stop - r, stop) for r, stop in zip(rows, np.cumsum(rows))]

        def vg(tables):
            pairs = [_mi_and_grad(prior, t) for t in tables]
            return sum(v for v, _ in pairs), [g for _, g in pairs]

        return _padded(frames), stack, vg, flat(np.concatenate(frames)), parts

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_frames_match_per_frame_loop(self, rng, dim):
        """Every frame's gradient matches the per-frame loop's, and every
        padded entry of the gradient is exactly 0."""
        w, stack, vg, packed, parts = self._frames_objective(
            rng, dim, [dim, dim * dim, dim + 1, dim * dim]
        )

        def stacked_vg(tables, tail):
            value, grads = vg(list(tables[0]))
            return np.array([value]), np.stack(grads)[None], np.zeros_like(tail)

        value, grad = frame_row(flat(w), stack, stacked_vg, w.shape)
        want, want_grad = povm_objective_per_frame(packed, stack, vg, parts)
        assert value == pytest.approx(want, abs=1e-13)
        grad, want_grad = grad.reshape(2, *w.shape), want_grad.reshape(2, -1, dim)
        for f, part in enumerate(parts):
            r = part.stop - part.start
            np.testing.assert_allclose(grad[:, f, :r], want_grad[:, part], rtol=0, atol=1e-13)
            assert not grad[:, f, r:].any()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_frame_keeps_the_per_frame_bits(self, rng, dim):
        for rows in (dim, dim + 1, dim * dim):
            w, stack, vg, packed, parts = self._frames_objective(rng, dim, [rows])

            def one_vg(tables, tail):
                value, (g,) = vg(list(tables[0]))
                return np.array([value]), g[None, None], np.zeros_like(tail)

            value, grad = frame_row(flat(w), stack, one_vg, w.shape)
            want, want_grad = povm_objective_per_frame(packed, stack, vg, parts)
            assert value == want
            assert np.array_equal(grad, want_grad)

    def test_rank1_pieces_match_per_effect_split(self, rng):
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        stacks = [
            np.stack([a @ a.conj().T, np.outer(v, v.conj()), np.zeros((3, 3), dtype=complex)]),
            random_rank1_povm(3, 5, rng).effects,
            helstrom(random_density(rng, 2).matrix, random_density(rng, 2).matrix, 0.3).effects,
        ]
        for effects in stacks:
            pieces, groups = _rank1_pieces(effects)
            want, want_groups = rank1_pieces_per_effect(effects)
            assert np.array_equal(pieces, want)
            assert np.array_equal(groups, want_groups)
        assert list(_rank1_pieces(stacks[0])[1]) == [0, 0, 1, 2]

    def test_few_objective_calls_per_iteration(self, rng, monkeypatch):
        """The adversary's slot ascent on the package's L-BFGS: at most three
        objective evaluations per accepted step, counted as the steps that
        add a curvature pair (s . y > 0), of which there are no more than
        accepted steps."""
        calls = {"objective": 0, "steps": 0}
        objective, push = information._frame_rows, information._Pairs.push

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_push(pairs, s, y, sy):
            calls["steps"] += int((sy > 0.0).sum())
            return push(pairs, s, y, sy)

        monkeypatch.setattr(information, "_frame_rows", counted_objective)
        monkeypatch.setattr(information._Pairs, "push", counted_push)
        e = qubit_pair_ensemble(0.4)
        frame = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        vg = one_frame(lambda t: _mi_and_grad(e.prior, t))
        w, _, _, moved = _ascend_frames(e.states, frame[None, None], np.zeros((1, 0)), vg,
                                        1e-5, 300)
        assert moved[0] and _normalized_frames(w[0])[1].all()
        assert calls["steps"] > 0
        assert calls["objective"] <= 3 * calls["steps"]


def _no_minimize(*args, **kwargs):
    raise AssertionError("scipy.optimize.minimize called")


def _prior_objective(divergences):
    """``_ascend_prior``'s objective in the weights q, written out: the penalty
    (sum(q) - 1)^2 / 2 minus p @ D(p), p = q / sum(q), and its gradient."""

    def objective(q):
        total = q.sum()
        if total <= 0.0:
            return 50.0, np.zeros_like(q)
        p = q / total
        div = divergences(p)
        value = float(p @ div)
        return 0.5 * (total - 1.0) ** 2 - value, (total - 1.0) - (div - value) / total

    return objective


class TestLbfgs:
    @pytest.mark.parametrize("kind", ["capacity", "advantage"])
    def test_same_point_as_plain_minimize(self, rng, kind):
        """The prior ascent, the package's one L-BFGS-B call, ends where plain
        L-BFGS-B on its objective ends, bit for bit: neither its early stop
        nor its memo of the first evaluation moves it. A classical capacity
        climbs from the uniform prior, a wiretap advantage from a random one."""
        divergences = _channel_divergences(rng.dirichlet(np.ones(3), size=4))
        p0 = np.full(4, 0.25)
        if kind == "advantage":
            div_v, div_w = divergences, _channel_divergences(rng.dirichlet(np.ones(3), size=4))

            def divergences(p):
                return div_v(p) - div_w(p)

            p0 = rng.dirichlet(np.ones(4))

        def same_as_plain(p0):
            res = optimize.minimize(_prior_objective(divergences), p0, jac=True,
                                    method="L-BFGS-B", bounds=[(0.0, None)] * p0.size,
                                    options={"maxiter": 300, "ftol": 0.0, "gtol": 1e-9})
            assert np.array_equal(_ascend_prior(divergences, p0, 1e-9), res.x / res.x.sum())
            return res

        res = same_as_plain(p0)
        assert res.nit > 0
        same_as_plain(res.x / res.x.sum())

    @pytest.mark.parametrize("overlap", [0.3, 0.8])
    def test_converged_start_makes_no_scipy_call(self, monkeypatch, overlap):
        """A start that meets the stop makes one evaluation and takes no step:
        the slot ascent from the Helstrom frame, a stationary point of I at a
        fixed prior for two pure letters, and an ascent of starts from its
        own ends."""
        e = qubit_pair_ensemble(overlap, prior=(0.3, 0.7))
        stack = e.states
        frame, _ = _start_frame(helstrom(e.states[0], e.states[1], 0.3), stack)
        end = _ascend_starts(stack, [e.prior], frame[None], joint=True)
        monkeypatch.setattr(optimize, "minimize", _no_minimize)
        calls, objective = [], information._frame_rows

        def counted_objective(*args):
            calls.append(args)
            return objective(*args)

        monkeypatch.setattr(information, "_frame_rows", counted_objective)
        vg = one_frame(lambda table: _mi_and_grad(e.prior, table))
        moved = _ascend_frames(stack, frame[None, None], np.zeros((1, 0)), vg, 1e-5, 300)[3]
        assert not moved[0]
        assert len(calls) == 1
        again = _ascend_starts(stack, end.priors, end.frames, joint=True)
        np.testing.assert_allclose(again.priors, end.priors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(again.frames, end.frames, rtol=0, atol=1e-12)


class TestStackedStarts:
    """The stacked objective of C1's and accessible information's starts:
    frames of unequal row counts in one zero-padded pass."""

    SIZES = (2, 4, 9)

    @staticmethod
    def _problem(rng):
        stack = np.stack([random_density(rng, 2).matrix for _ in range(3)])
        sizes = TestStackedStarts.SIZES
        frames = [rng.normal(size=(r, 2)) + 1j * rng.normal(size=(r, 2)) for r in sizes]
        priors = rng.dirichlet(np.ones(3), size=len(frames))
        return stack, frames, priors

    def test_joint_value_and_gradient_are_blockwise(self, rng):
        """Each row of the joint objective against the one-frame oracle, and
        every padded entry of its gradient exactly 0."""
        stack, frames, priors = self._problem(rng)
        logits = np.log(priors)
        w = _padded(frames)
        rows = np.stack([flat(frame, z) for frame, z in zip(w, logits)])
        values, grads = _frame_rows(rows, stack, (1, *w.shape[1:]), _mi_values(True))
        m = w[0].size
        for f, (frame, r) in enumerate(zip(frames, self.SIZES)):
            one_value, one_grad = oracle_joint_objective(flat(frame, logits[f]), stack, r)
            assert values[f] == pytest.approx(one_value, abs=1e-13)
            parts = grads[f, : 2 * m].reshape(2, *w.shape[1:])
            want = np.concatenate([parts[0, :r].ravel(), parts[1, :r].ravel(), grads[f, 2 * m :]])
            np.testing.assert_allclose(want, one_grad, rtol=0, atol=1e-13)
            assert not parts[:, r:].any()

    def test_fixed_prior_value_matches_single_frames_and_padding_gets_zero(self, rng):
        stack, frames, priors = self._problem(rng)
        seen = []

        def vg(tables, tail):
            div, ratio = _divergences_stacked(priors, tables[0])
            seen.append((tables[0], priors[:, :, None] * ratio))
            return np.array([(priors * div).sum()]), seen[-1][1][None], np.zeros_like(tail)

        w = _padded(frames)
        value, grad = frame_row(flat(w), stack, vg, w.shape)
        tables, g = seen[0]
        singles = [
            frame_row(flat(frame), stack, one_frame(lambda t, p=p: _mi_and_grad(p, t)),
                      (1,) + frame.shape)
            for frame, p in zip(frames, priors)
        ]
        assert value == pytest.approx(sum(v for v, _ in singles), abs=1e-13)
        grad = grad.reshape(2, *w.shape)
        for f, ((_, one_grad), r) in enumerate(zip(singles, self.SIZES)):
            want = np.concatenate([grad[0, f, :r].ravel(), grad[1, f, :r].ravel()])
            np.testing.assert_allclose(want, one_grad, rtol=0, atol=1e-13)
            assert not grad[:, f, r:].any()
            assert not tables[f, :, r:].any()
            assert np.array_equal(g[f, :, r:], np.zeros_like(g[f, :, r:]))

    @pytest.mark.parametrize("joint", [False, True], ids=["frame", "joint"])
    def test_converged_start_does_not_join(self, rng, joint):
        """Helstrom at overlap 0.8 already meets the stop: it comes back
        bit-identical to its own early exit while a random start climbs."""
        e = paper_example(0.8).eve_ensemble()
        stack = e.states
        helstrom_frame, _ = _start_frame(helstrom(e.states[0], e.states[1], 0.5), stack)
        random_frame, random_table = _start_frame(random_rank1_povm(2, 4, rng), stack)
        priors = [e.prior, rng.dirichlet(np.ones(2))]
        alone = _ascend_starts(stack, priors[:1], helstrom_frame[None], joint)
        both = _ascend_starts(stack, priors, _padded([helstrom_frame, random_frame]), joint)
        r = len(helstrom_frame)
        assert np.array_equal(both.priors[0], alone.priors[0])
        assert np.array_equal(both.frames[0, :r], alone.frames[0]) and not both.frames[0, r:].any()
        assert np.array_equal(both.tables[0, :, :r], alone.tables[0])
        assert not both.tables[0, :, r:].any()
        assert both.values[0] == alone.values[0] and both.ok[0] == alone.ok[0]
        assert both.values[1] > _mi_from_probs(priors[1], random_table) + 0.01

    @pytest.mark.parametrize("joint", [False, True], ids=["frame", "joint"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(size=st.integers(2, 4), dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    def test_joint_end_does_not_depend_on_the_other_starts_property(self, joint, size, dim, seed):
        """Every start of an ascent, joint or at fixed priors, ends where it
        ends climbing alone, bit for bit: frame, prior, value and success. The
        starts are a Helstrom frame of the first two letters, the pretty-good
        measurement and three random frames, zero-padded to d^2 rows."""
        e = random_mixed_ensemble(size, dim, seed)
        stack = e.states
        rng = np.random.default_rng(seed + 1)
        povms = [helstrom(stack[0], stack[1], 0.5), pretty_good_measurement(e)]
        shape = (dim * dim, dim)
        raws = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]
        priors = rng.dirichlet(np.ones(size), size=len(povms) + len(raws))
        starts = _start_set(stack, priors, povms, raws)
        ends = _ascend_starts(stack, starts.priors, starts.frames, joint)
        for f in range(len(priors)):
            alone = _ascend_starts(stack, starts.priors[f : f + 1], starts.frames[f : f + 1], joint)
            assert np.array_equal(ends.frames[f], alone.frames[0])
            assert np.array_equal(ends.priors[f], alone.priors[0])
            assert ends.values[f] == alone.values[0] and ends.ok[f] == alone.ok[0]


class TestStartSetReference:
    """The stacked start set against the per-start path it replaced, one
    start at a time (``oracles.start_frame``, ``normalized``, ``frame_table``
    and ``mi_from_probs``): frames and tables bit for bit, values within
    ``SCORE_ATOL``, because a stacked score sums a table's columns and letters
    in table order and the per-start one hands the marginal and the last dot
    product to BLAS."""

    # A score sums at most d^2 + 1 entropy terms of at most log2(d^2) bits
    # each, so two summation orders part by a few dozen ulps of 1 at most.
    SCORE_ATOL = 64 * np.finfo(float).eps

    @staticmethod
    def _ensemble(size, dim, seed):
        rng = np.random.default_rng(seed)
        letters = [random_density(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(size)]
        return ensemble(rng.dirichlet(np.ones(size)), letters)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(size=st.integers(2, 4), dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    def test_start_set_matches_per_start_reference_property(self, size, dim, seed):
        e = self._ensemble(size, dim, seed)
        stack = e.states
        povms = [pretty_good_measurement(e)]
        if size == 2:
            povms.insert(0, helstrom(stack[0], stack[1], float(e.prior[0])))
        draws, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        shape = (dim * dim, dim)
        raws = [draws.normal(size=shape) + 1j * draws.normal(size=shape) for _ in range(3)]
        povms_ref = povms + [random_rank1_povm(dim, dim * dim, replay) for _ in raws]
        priors = np.random.default_rng(seed + 1).dirichlet(np.ones(size), size=len(povms_ref))
        starts = _start_set(stack, priors, povms, raws)
        for f, povm in enumerate(povms_ref):
            frame, table = start_frame(povm, stack)
            r, cols = len(frame), table.shape[1]
            assert np.array_equal(starts.frames[f, :r], frame)
            assert not starts.frames[f, r:].any()
            assert np.array_equal(starts.tables[f, :, :cols], table)
            assert not starts.tables[f, :, cols:].any()
            want = mi_from_probs(priors[f], table)
            assert starts.values[f] == pytest.approx(want, abs=self.SCORE_ATOL)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(size=st.integers(2, 4), dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    def test_padded_ends_match_per_start_reference_property(self, size, dim, seed):
        """A Helstrom frame (two rows on a qubit) padded beside d^2-row random
        frames, a (d + 1)-row frame and one singular frame, normalized, tabled
        and scored in one batch each."""
        e = self._ensemble(size, dim, seed)
        stack = e.states
        rng = np.random.default_rng(seed)
        pair = ensemble([0.5, 0.5], [random_pure(rng, dim), random_pure(rng, dim)])
        helstrom_frame, _ = start_frame(helstrom(pair.states[0], pair.states[1], 0.3), pair.states)
        line = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        frames = [
            rng.normal(size=(dim * dim, dim)) + 1j * rng.normal(size=(dim * dim, dim)),
            helstrom_frame,
            rng.normal(size=(dim + 1, dim)) + 1j * rng.normal(size=(dim + 1, dim)),
            rng.normal(size=(dim, 1)) * line,
            rng.normal(size=(dim * dim, dim)) + 1j * rng.normal(size=(dim * dim, dim)),
        ]
        priors = rng.dirichlet(np.ones(size), size=len(frames))
        padded = _padded(frames)
        u, ok = _normalized_frames(padded)
        tables = _frame_tables(u, stack)
        values = _scores(priors, tables)
        for f, w in enumerate(frames):
            want = normalized(w)
            assert ok[f] == (want is not None)
            if want is None:
                continue
            r = len(w)
            assert np.array_equal(u[f, :r], want)
            assert not u[f, r:].any()
            table = frame_table(want, stack)
            kept = np.array([np.vdot(v, v).real > 1e-14 for v in want])
            assert np.array_equal(tables[f, :, :r][:, kept], table)
            assert not tables[f, :, :r][:, ~kept].any() and not tables[f, :, r:].any()
            assert values[f] == pytest.approx(mi_from_probs(priors[f], table), abs=self.SCORE_ATOL)
            alone = _scores(priors[f : f + 1], tables[f : f + 1, :, :r])
            assert alone[0] == values[f]
        assert padded.shape[1] == dim * dim and list(ok) == [True, True, True, False, True]
        # The nonsingular frames climb from the padded stack: every padded
        # entry of the gradient is exactly 0, and so is every padded row of the
        # ends of a real ascent, at fixed priors and jointly.
        keep = [0, 1, 2, 4]
        fixed, climbing = priors[keep], padded[keep]

        def vg(tables, tail):
            div, ratio = _divergences_stacked(fixed, tables[0])
            grad = (fixed[:, :, None] * ratio)[None]
            return np.array([(fixed * div).sum()]), grad, np.zeros_like(tail)

        grad = frame_row(flat(climbing), stack, vg, climbing.shape)[1]
        grad = grad.reshape(2, *climbing.shape)
        rows = [len(frames[f]) for f in keep]
        assert not any(grad[:, j, r:].any() for j, r in enumerate(rows))
        for joint in (False, True):
            ends = _ascend_starts(stack, fixed, climbing, joint)
            assert ends.values[0] > values[0]
            assert not any(ends.frames[j, r:].any() for j, r in enumerate(rows))


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
        e = ensemble(rng.dirichlet(np.ones(size)), states)
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
        e = ensemble(rng.dirichlet(np.ones(size)), states)
        res = c1(e, OptimizerConfig(restarts=1))
        replay = mutual_information(res.prior, induced_channel(res.povm, e))
        assert replay == pytest.approx(res.value, abs=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(e=mixed_ensembles, restarts=st.integers(1, 2))
    @example(e=scenario_from_dict(THREE_MIXED).eve_ensemble(), restarts=2)
    @example(e=paper_example(0.2).eve_ensemble(), restarts=1)
    # Three qubit letters where joint ascents alone drop a letter, 0.053 bits low.
    @example(e=random_mixed_ensemble(3, 2, 68), restarts=1)
    def test_never_below_alternating_seesaw_property(self, e, restarts):
        """A maximum may move up, never down: C1 reaches at least what the
        alternating seesaw reaches from every start."""
        cfg = OptimizerConfig(restarts=restarts)
        assert c1(e, cfg).value >= alternating_c1(e, cfg) - 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(size=st.integers(2, 4), dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
           restarts=st.integers(1, 2))
    def test_prior_never_lowers_c1_below_uniform_property(self, size, dim, seed, restarts):
        """C1 is a maximum over priors, so the ensemble's own prior must not
        lower it: C1 of the states at a skewed random prior is at least C1 of
        the same states at the uniform prior."""
        states = random_mixed_ensemble(size, dim, seed).states
        skewed = np.random.default_rng(seed + 1).dirichlet(np.full(size, 0.3))
        cfg = OptimizerConfig(restarts=restarts)
        uniform = c1(CqEnsemble(np.full(size, 1.0 / size), states), cfg).value
        assert c1(CqEnsemble(skewed, states), cfg).value >= uniform - 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(e=mixed_ensembles, restarts=st.integers(1, 2))
    def test_stacked_starts_never_below_sequential_property(self, e, restarts):
        """Climbing every start in one stacked ascent per round reaches at
        least what climbing each start on its own reaches."""
        cfg = OptimizerConfig(restarts=restarts)
        assert c1(e, cfg).value >= sequential_c1(e, cfg).value - 1e-12

    def test_stacked_c_k_never_below_sequential(self):
        e = random_mixed_ensemble(2, 2, 5)
        cfg = OptimizerConfig(restarts=1)
        assert c_k(e, 2, cfg).value >= sequential_c_k(e, 2, cfg).value - 1e-12

    def test_stacked_accessible_never_below_sequential(self):
        e = scenario_from_dict(THREE_MIXED).eve_ensemble()
        cfg = OptimizerConfig()
        assert accessible_information(e, cfg).value >= sequential_accessible(e, cfg) - 1e-12

    @pytest.mark.parametrize("overlap", [0.2, 0.5, 0.8])
    def test_at_most_two_joint_ascents_per_start(self, monkeypatch, overlap):
        """The joint ascent ends each start in one round, and the next round
        confirms it: every start climbs in the same two stacked ascents."""
        calls = {"starts": 0, "ascents": 0}

        def counted(name, key):
            original = getattr(information, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(information, name, wrapper)

        for name in ("helstrom", "pretty_good_measurement"):
            counted(name, "starts")
        counted("_ascend_starts", "ascents")
        c1(paper_example(overlap).eve_ensemble(), OptimizerConfig())
        assert calls["starts"] > 0
        assert calls["ascents"] <= 2

    def test_orthogonal_pair(self):
        assert c1(qubit_pair_ensemble(0.0), CFG).value == pytest.approx(1.0, abs=1e-9)

    def test_identical_states(self, rng):
        rho = random_pure(rng, 2)
        e = ensemble([0.5, 0.5], (rho, rho))
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
            e = ensemble([0.5, 0.5], (v0, v1))
            res = c1(e, CFG)
            a0 = hermitian_eigensystem(v0.matrix)[1][:, 0]
            a1 = hermitian_eigensystem(v1.matrix)[1][:, 0]
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
        assert rep.lhs == pytest.approx(math.log2(3), abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        inputs=st.integers(2, 5), outputs=st.integers(2, 5),
        concentration=st.sampled_from([0.1, 1.0]), seed=st.integers(0, 2**16),
    )
    def test_converged_and_at_least_uniform_property(self, inputs, outputs, concentration, seed):
        v = ClassicalChannel(random_channel_rows(inputs, outputs, concentration, seed))
        w = ClassicalChannel(random_channel_rows(inputs, outputs, concentration, seed + 1))
        rep = classical_advantage(v, w, CFG)
        uniform = np.full(inputs, 1 / inputs)
        assert rep.converged
        assert rep.lhs >= mutual_information(uniform, v) - mutual_information(uniform, w) - 1e-12

    def test_step_onto_zero_weights(self):
        # From two of the default random starts, L-BFGS-B's second step
        # proposes q = 0, where the prior is undefined.
        v = ClassicalChannel([[0.9999999982, 1.8e-09], [0.9999999928, 7.2e-09],
                              [0.9982484065, 0.0017515935], [0.8794348969, 0.1205651031],
                              [0.815113935, 0.184886065]])
        w = ClassicalChannel([[6.747e-07, 0.9999993253], [0.999999699, 3.01e-07],
                              [0.9966106549, 0.0033893451], [0.118271903, 0.881728097],
                              [0.9970301667, 0.0029698333]])
        rep = classical_advantage(v, w, OptimizerConfig())
        assert rep.converged
        assert rep.lhs == pytest.approx(0.102861117031, abs=1e-10)


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
        e = ensemble(rng.dirichlet(np.ones(size)), states)
        povm = random_rank1_povm(dim, dim + 1, rng)
        fine = mutual_information(e.prior, induced_channel(povm, e))
        labels = rng.integers(0, coarse_count, size=len(povm))
        merged = Povm(coarse_grain(povm.effects, labels, coarse_count))
        coarse = mutual_information(e.prior, induced_channel(merged, e))
        assert coarse <= fine + 1e-9
