import dataclasses
import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdsim import simulation
from qkdsim.channels import CqEnsemble, QuantumChannel
from qkdsim.errors import BudgetExceeded, DimensionMismatch, ValidationError
from qkdsim.information import (
    OptimizerConfig,
    _padded,
    _rank1_pieces,
    c1,
)
from qkdsim.measurements import (
    Povm,
    _born_table,
    expand,
    random_rank1_povm,
)
from qkdsim.scenarios import bsc_pair, paper_example
from qkdsim.simulation import (
    Codebook,
    EveStrategy,
    KeySimReport,
    Scenario,
    bob_decoder,
    eve_default_strategy,
    eve_optimize,
    evaluate,
    repetition_codebook,
    run_cell,
    sample_codebook,
    sweep,
    _key_info,
    _likelihoods,
    _ml_decoder,
    _slot_channels,
    _joint_value_and_grad,
)
from qkdsim.states import TensorFactorization, permute_factors, pure_state

from conftest import central_differences, flat, random_channel, random_density, random_pure
from oracles import (
    binary_entropy,
    block_success,
    coarse_grain,
    REF_STALL_BITS,
    dense_pgm,
    eve_seesaw,
    frame_row,
    helstrom_crossover,
    majority_error,
    majority_vote_info,
    package_refine_slots,
    partial_trace,
    pure_pair_c1,
    refine_slots_lbfgsb,
    tuple_key_information,
)

CFG = OptimizerConfig(restarts=2, seed=5)


def correlated_scenario(eps=0.1):
    """Letter -> classically correlated receiver/adversary bits (e copies b).

    The joint output is not a product across the B/E cut, which exercises
    the general contraction path in evaluate.
    """
    basis = np.eye(2)
    ops = []
    for a in range(2):
        for b in range(2):
            p = 1 - eps if a == b else eps
            ops.append(math.sqrt(p) * np.outer(np.kron(basis[b], basis[b]), basis[a]))
    theta = QuantumChannel(ops, out_factorization=TensorFactorization((2, 2)))
    ensemble = CqEnsemble([0.5, 0.5], [pure_state([1, 0]).matrix, pure_state([0, 1]).matrix])
    return Scenario(name="correlated", key_count=2, ensemble=ensemble, theta=theta)


class TestCodebooks:
    def test_same_seed_same_codebook(self):
        a = sample_codebook(2, 5, 2, seed=9)
        b = sample_codebook(2, 5, 2, seed=9)
        np.testing.assert_array_equal(a.letters, b.letters)

    def test_seed_sweep_hits_both_distinct_word_books(self):
        seen = set()
        for seed in range(40):
            book = sample_codebook(2, 1, 2, seed)
            seen.add(tuple(book.letters[:, 0].tolist()))
        assert (0, 1) in seen and (1, 0) in seen

    def test_repetition_codebook(self):
        book = repetition_codebook(2, 3)
        assert book.letters.tolist() == [[0, 0, 0], [1, 1, 1]]
        with pytest.raises(ValueError):
            book.letters[0, 0] = 1

    @pytest.mark.parametrize("build", [repetition_codebook, lambda k, n: sample_codebook(k, n, 2, 0)],
                             ids=["repetition", "random"])
    def test_letter_budget_is_2_to_the_20(self, build):
        assert build(2, 2**19).letters.shape == (2, 2**19)
        with pytest.raises(BudgetExceeded) as err:
            build(4, 2**18 + 1)
        assert str(err.value) == "codebook letter count 1048580 exceeds budget 1048576 (n=262145)"

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValidationError, match="codebook"):
            Codebook(((0, 1), (1,)))

    def test_empty_codewords_rejected(self):
        with pytest.raises(ValidationError, match="codebook: codewords need at least 1 letter"):
            Codebook(np.zeros((2, 0), int))

    def test_unknown_letter_rejected(self):
        sc = paper_example(0.5)
        with pytest.raises(ValidationError, match="letter 2 not in alphabet of size 2"):
            bob_decoder(sc, Codebook([[0, 1], [1, 2]]))

    @pytest.mark.parametrize("letters", [[[0, -1], [1, 0]], [[0, 1], [1, 2]]], ids=["-1", "2"])
    @pytest.mark.parametrize(
        "build",
        [eve_default_strategy, lambda sc, book: eve_optimize(sc, book, CFG)],
        ids=["default", "optimize"],
    )
    def test_attack_builders_check_letters(self, build, letters):
        with pytest.raises(ValidationError) as err:
            build(paper_example(0.5), Codebook(letters))
        assert err.value.invariant == "letter"


class TestBobDecoder:
    def test_orthogonal_single_letter_perfect(self):
        sc = paper_example(0.0)
        book = repetition_codebook(2, 1)
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, me)
        assert rep.p_agree == pytest.approx(1.0, abs=1e-10)

    def test_identical_codewords_chance_agreement(self):
        sc = paper_example(0.5)
        book = Codebook(((0, 0), (0, 0)))
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, me)
        assert rep.p_agree == pytest.approx(0.5, abs=1e-10)

    def test_block_success_closed_form(self):
        s = 0.5
        sc = paper_example(s)
        book = repetition_codebook(2, 3)
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, me)
        assert rep.p_agree == pytest.approx(block_success(s, 3), abs=1e-9)
        assert rep.p_agree == pytest.approx(0.996078, abs=1e-6)

    def test_random_codebook_matches_hamming_overlap(self):
        s = 0.6
        for seed in range(6):
            book = sample_codebook(2, 3, 2, seed)
            sc = paper_example(s)
            me = eve_default_strategy(sc, book)
            rep = evaluate(sc, book, me)
            d = int((book.letters[0] != book.letters[1]).sum())
            overlap = s**d
            assert rep.p_agree == pytest.approx(
                (1 + math.sqrt(1 - overlap**2)) / 2, abs=1e-9
            )


class TestEveStrategies:
    def test_default_perfect_on_orthogonal(self):
        sc = paper_example(0.0)
        book = repetition_codebook(2, 1)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.eve_info == pytest.approx(1.0, abs=1e-10)

    def test_default_majority_values(self):
        s = 0.5
        sc = paper_example(s)
        book = repetition_codebook(2, 3)
        me = eve_default_strategy(sc, book)
        eps = helstrom_crossover(s)
        assert eps == pytest.approx(0.066987, abs=1e-6)
        err = majority_error(eps, 3)
        assert err == pytest.approx(0.012861, abs=1e-6)
        rep = evaluate(sc, book, me)
        assert rep.eve_info == pytest.approx(1 - binary_entropy(err), abs=1e-9)

    def test_default_decoder_ties_go_to_lowest_key(self):
        # Keys of the tuples (0, 0), (0, 1), (1, 0), (1, 1) in this order;
        # (0, 1) and (1, 0) are equally likely under both codewords.
        sc = paper_example(0.5)
        me = eve_default_strategy(sc, repetition_codebook(2, 2))
        assert me.decoder.tolist() == [0, 0, 0, 1]
        with pytest.raises(ValueError):
            me.decoder[0] = 1

    def test_ml_decoder_tie_is_relative_1e_minus_9(self):
        # Key 1 leads tuple 0 by a relative 1e-7, beyond the tie band; tuple 1 is a tie.
        assert _ml_decoder(np.array([[1.0, 0.5], [1 + 1e-7, 0.5]])).tolist() == [1, 0]

    def test_ml_decoder_within_tol_below_the_value_is_adopted(self, monkeypatch):
        """The seesaw adopts the maximum-likelihood decoder unless it lowers
        the running value by more than ``cfg.tol``: a decoder ``tol / 2``
        below it, after a round whose slot ascent made progress, is the
        decoder the next round's slot ascent runs under."""
        sc, book = paper_example(0.5), repetition_codebook(2, 1)
        cfg = OptimizerConfig(restarts=1, max_iters=2)
        ml, decoders, seen = simulation._ml_decoder, [], []

        def decoder(lik):
            # Calls 1 and 2 are the default attack's and the start's.
            decoders.append(ml(lik))
            return decoders[-1][::-1].copy() if len(decoders) > 2 else decoders[-1]

        def refine(slots, tables, free, c, idx, states):
            seen.append(idx.tolist())
            return ((slots, tables, 0.6) if len(seen) == 1 else None), True

        values = iter([0.5, 0.6 - cfg.tol / 2, 0.6 - cfg.tol / 2])
        monkeypatch.setattr(simulation, "_ml_decoder", decoder)
        monkeypatch.setattr(simulation, "_key_info", lambda lik, idx: next(values))
        monkeypatch.setattr(simulation, "_refine_slots", refine)
        eve_optimize(sc, book, cfg)
        start = decoders[1].tolist()
        assert seen == [start, start[::-1]] and start != start[::-1]

    def test_constant_adversary_states_zero_info(self):
        sc = paper_example(1.0)
        book = repetition_codebook(2, 2)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.eve_info == pytest.approx(0.0, abs=1e-9)

    def test_strategy_is_coarse_grained_expansion(self):
        # class membership by construction: the flat attack measurement is
        # the decoder-coarse-graining of the expanded slot product, and the
        # joint's adversary marginal reproduces its Born statistics
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        flat = coarse_grain(expand(me.slots).effects, me.decoder, 2)
        rep = evaluate(sc, book, me)
        eve_states = sc.eve_ensemble().states
        for key, word in enumerate(book.letters):
            block = reduce(np.kron, (eve_states[a] for a in word))
            probs = _born_table(flat, block[None])[0]
            np.testing.assert_allclose(rep.joint[key].sum(axis=0) * 2, probs, atol=1e-9)

    def test_decoder_must_be_total(self):
        sc = paper_example(0.5)
        me = eve_default_strategy(sc, repetition_codebook(2, 2))
        with pytest.raises(ValidationError, match="decoder-total"):
            EveStrategy(me.slots, me.decoder[:-1])

    @pytest.mark.parametrize(
        "slots",
        [[], [np.eye(2)], [Povm([np.eye(2)]), np.eye(2)]],
        ids=["empty", "matrix", "mixed"],
    )
    def test_slots_must_be_povms(self, slots):
        with pytest.raises(ValidationError) as err:
            EveStrategy(slots, [0])
        assert err.value.invariant == "slots"

    def test_optimize_zero_restarts_is_default(self):
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        default = eve_default_strategy(sc, book)
        opt = eve_optimize(sc, book, OptimizerConfig(restarts=0, seed=1))
        np.testing.assert_array_equal(opt.decoder, default.decoder)
        for a, b in zip(opt.slots, default.slots):
            for x, y in zip(a.effects, b.effects):
                np.testing.assert_array_equal(x, y)

    def test_optimize_never_below_default(self):
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        base = evaluate(sc, book, eve_default_strategy(sc, book))
        opt = eve_optimize(sc, book, OptimizerConfig(restarts=3, seed=2))
        rep = evaluate(sc, book, opt)
        assert rep.eve_info >= base.eve_info - 1e-9

    def test_optimize_on_orthogonal_matches_default(self):
        sc = paper_example(0.0)
        book = repetition_codebook(2, 1)
        opt = eve_optimize(sc, book, OptimizerConfig(restarts=2, seed=3))
        rep = evaluate(sc, book, opt)
        assert rep.eve_info == pytest.approx(1.0, abs=1e-9)

    def test_optimize_on_constant_states_stays_zero(self):
        sc = paper_example(1.0)
        book = repetition_codebook(2, 2)
        opt = eve_optimize(sc, book, OptimizerConfig(restarts=3, seed=4))
        rep = evaluate(sc, book, opt)
        assert rep.eve_info == pytest.approx(0.0, abs=1e-9)

    def test_optimize_returns_the_value_it_records(self):
        # Here a maximum-likelihood decoder lowers the information of the
        # slots it is derived for; a seesaw that adopts it anyway keeps
        # 1.3842888670 bits as its best and returns a strategy worth less.
        sc = dataclasses.replace(paper_example(0.3), key_count=4)
        book = sample_codebook(4, 3, 2, 5)
        opt = eve_optimize(sc, book, OptimizerConfig(restarts=3, seed=5))
        rep = evaluate(sc, book, opt)
        assert rep.eve_info >= 1.3842888670

    def test_no_restart_reaches_the_round_cap(self, monkeypatch):
        # The default strategy and every start derive one ML decoder ("m"),
        # then one per seesaw round; every start after the first opens with
        # one random slot draw ("d") per slot. A seesaw that gains ~1e-6
        # bits per round runs restart 1 here into the cap.
        events = []
        ml, draw = simulation._ml_decoder, simulation.random_rank1_povm
        monkeypatch.setattr(simulation, "_ml_decoder", lambda lik: events.append("m") or ml(lik))
        monkeypatch.setattr(
            simulation, "random_rank1_povm", lambda *a: events.append("d") or draw(*a)
        )
        book = repetition_codebook(2, 3)
        cfg = OptimizerConfig(restarts=2, seed=0)
        eve_optimize(paper_example(0.5), book, cfg)
        rounds = [len(run) - 1 for run in "".join(events)[1:].split("d" * book.length)]
        assert len(rounds) == cfg.restarts
        assert 0 < max(rounds) < cfg.max_iters


class TestSeesawProperties:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        s=st.floats(0.05, 0.95),
        n=st.sampled_from([1, 2]),
        k=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_default_optimized_ceiling_and_replay(self, s, n, k, seed):
        sc = dataclasses.replace(paper_example(s), key_count=k)
        book = sample_codebook(k, n, 2, seed)
        cfg = OptimizerConfig(restarts=1, seed=seed)
        default = evaluate(sc, book, eve_default_strategy(sc, book)).eve_info
        opt = eve_optimize(sc, book, cfg)
        optimized = evaluate(sc, book, opt).eve_info
        assert default <= optimized + 1e-9
        assert optimized + 1e-9 <= min(math.log2(k), n * pure_pair_c1(s)) + 1e-6
        again = eve_optimize(sc, book, cfg)
        np.testing.assert_array_equal(again.decoder, opt.decoder)
        for a, b in zip(again.slots, opt.slots):
            assert len(a) == len(b)
            for x, y in zip(a.effects, b.effects):
                np.testing.assert_array_equal(x, y)


    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_never_below_lbfgsb_seesaw(self, s):
        """The seesaw against its reference with every slot ascent on
        L-BFGS-B and the longer stops (``oracles.eve_seesaw`` on
        ``refine_slots_lbfgsb`` and ``REF_STALL_BITS``), on a
        fixed grid: repetition and random codebooks at n = 2..4, seeds 0 and
        1, and at n = 3, the block length of the ``eve-seesaw`` benchmark,
        also its seeds 2..7; two restarts. Its information never falls below
        the reference's by more than 1e-12."""
        sc = paper_example(s)
        runs = itertools.chain(
            itertools.product((2, 3, 4), ("repetition", "random"), (0, 1)),
            itertools.product((3,), ("repetition", "random"), range(2, 8)),
        )
        for n, coder, seed in runs:
            book = repetition_codebook(2, n) if coder == "repetition" else sample_codebook(2, n, 2, seed)
            cfg = OptimizerConfig(restarts=2, seed=seed)
            ours = evaluate(sc, book, eve_optimize(sc, book, cfg)).eve_info
            ref = evaluate(sc, book, eve_seesaw(sc, book, cfg, refine_slots_lbfgsb, REF_STALL_BITS)).eve_info
            assert ours >= ref - 1e-12, (n, coder, seed)

    def test_settled_joint_ascent_skips_the_next_per_slot_pass(self, monkeypatch):
        """A round after one whose joint ascent met its stop and left the
        decoder as it was runs its joint ascent alone. On the inputs of the
        ``eve-seesaw`` benchmark, seeds 0..7 then make these ``_refine_slots``
        calls; with the per-slot pass in every round they made
        [18, 18, 18, 15, 18, 15, 18, 18]."""
        calls, inner = [], simulation._refine_slots

        def counted(*args):
            calls.append(args[2])
            return inner(*args)

        monkeypatch.setattr(simulation, "_refine_slots", counted)
        sc, book, counts = paper_example(0.5), repetition_codebook(2, 3), []
        for seed in range(8):
            calls.clear()
            eve_optimize(sc, book, OptimizerConfig(restarts=2, seed=seed))
            counts.append(len(calls))
        assert counts == [15, 15, 18, 15, 15, 12, 15, 18]

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        s=st.floats(0.1, 0.9),
        n=st.sampled_from([2, 3, 4]),
        coder=st.sampled_from(["repetition", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_same_attack_as_a_per_slot_pass_every_round_property(self, s, n, coder, seed):
        """Skipping the per-slot pass after a settled joint ascent changes
        nothing: the attack and its information equal, bit for bit, those of
        the seesaw that runs the pass in every round
        (``oracles.eve_seesaw`` on the package's ``_refine_slots`` and
        ``_STALL_BITS``)."""
        sc = paper_example(s)
        book = repetition_codebook(2, n) if coder == "repetition" else sample_codebook(2, n, 2, seed)
        cfg = OptimizerConfig(restarts=2, seed=seed)
        ours = eve_optimize(sc, book, cfg)
        ref = eve_seesaw(sc, book, cfg, package_refine_slots, simulation._STALL_BITS)
        assert np.array_equal(ours.decoder, ref.decoder)
        assert all(np.array_equal(a.effects, b.effects) for a, b in zip(ours.slots, ref.slots))
        assert evaluate(sc, book, ours).eve_info == evaluate(sc, book, ref).eve_info


def random_attack(seed, k, counts=(4, 4, 4)):
    """A random factorized attack on paper_example with a random decoder, one
    slot of random rank-one effects per entry of ``counts``, with each slot's
    stacked effects and rank-one pieces."""
    rng = np.random.default_rng(seed)
    sc = dataclasses.replace(paper_example(0.5), key_count=k)
    book = sample_codebook(k, len(counts), 2, seed=3)
    slots = [random_rank1_povm(2, m, rng).effects for m in counts]
    states = sc.eve_ensemble().states
    idx = rng.integers(0, k, size=math.prod(counts))
    pieces = [_rank1_pieces(p) for p in slots]
    return rng, book, slots, states, idx, pieces


def piece_table(frame, states):
    return np.einsum("bi,aij,bj->ab", frame.conj(), states, frame).real


def stack_tables(ps):
    """Piece tables as the frame objective passes them for one row:
    zero-padded to the most pieces into one (1, F, A, R) array."""
    out = np.zeros((1, len(ps), ps[0].shape[0], max(p.shape[1] for p in ps)))
    for f, p in enumerate(ps):
        out[0, f, :, : p.shape[1]] = p
    return out


# Four-outcome slots, and a two-outcome slot between two four-outcome ones.
ATTACK_COUNTS = [(4, 4, 4), (4, 2, 4)]
FREE_SLOTS = [[0, 1, 2], [0], [1], [2]]


class TestJointObjective:
    @pytest.mark.parametrize("k", [2, 3])
    def test_value_is_key_info(self, k):
        for counts, free in itertools.product(ATTACK_COUNTS, FREE_SLOTS):
            _, book, slots, states, idx, pieces = random_attack(0, k, counts)
            tables = _slot_channels(slots, states)
            lik = _likelihoods(tables, book)
            vg = _joint_value_and_grad(book, idx, tables, free, [pieces[i][1] for i in free])
            ps = [piece_table(pieces[i][0], states) for i in free]
            (value,), grads, _ = vg(stack_tables(ps), np.zeros((1, 0)))
            assert value == pytest.approx(_key_info(lik, idx), abs=1e-12)
            assert grads.shape == stack_tables(ps).shape
            for g, p in zip(grads[0], ps):
                assert not g[:, p.shape[1] :].any()

    @pytest.mark.parametrize("k", [2, 3])
    def test_gradient_matches_central_differences(self, k):
        for counts, free in itertools.product(ATTACK_COUNTS, FREE_SLOTS):
            rng, book, slots, states, idx, pieces = random_attack(1, k, counts)
            tables = _slot_channels(slots, states)
            vg = _joint_value_and_grad(book, idx, tables, free, [pieces[i][1] for i in free])
            frames = [pieces[i][0] for i in free]
            noise = [rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape) for f in frames]
            w = _padded([f + 0.1 * e for f, e in zip(frames, noise)])
            x = flat(w)
            _, grad = frame_row(x, states, vg, w.shape)
            fd = central_differences(lambda y: frame_row(y, states, vg, w.shape)[0], x)
            np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        k=st.sampled_from([2, 3]),
        counts=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4),
        slot=st.integers(0, 3),
    )
    def test_one_slot_matches_tuple_contraction(self, seed, k, counts, slot):
        """The precontracted one-slot objective against the contraction over every tuple."""
        rng, book, slots, states, idx, pieces = random_attack(seed, k, counts)
        tables = _slot_channels(slots, states)
        free = [slot % len(counts)]
        groups = [pieces[free[0]][1]]
        ps = [_born_table(random_rank1_povm(2, counts[free[0]], rng).effects, states)]
        vg = _joint_value_and_grad(book, idx, tables, free, groups)
        (value,), grad, _ = vg(ps[0][None, None], np.zeros((1, 0)))
        want, want_grads = tuple_key_information(book.letters, idx, tables, free, groups, ps)
        assert value == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(grad[0, 0], want_grads[0], rtol=0, atol=1e-12)


def dense_joint(sc, book, me):
    """Independent oracle for evaluate: the receiver's pretty-good measurement
    built on the full d_b^n block space, and the full (d_b d_e)^n block state
    traced against every Kronecker-product block effect, built explicitly and
    permuted from [B1..Bn, E1..En] to the interleaved slot order."""
    n, k = book.length, sc.key_count
    taus = [sc.theta.apply_matrix(rho) for rho in sc.ensemble.states]
    bob_letters = [partial_trace(tau, (sc.dim_b, sc.dim_e), 0) for tau in taus]
    bob_effects = dense_pgm(
        [reduce(np.kron, (bob_letters[a] for a in word)) for word in book.letters]
    )
    flat_eve = expand(me.slots)
    dims = (sc.dim_b,) * n + (sc.dim_e,) * n
    perm = [f for j in range(n) for f in (j, n + j)]
    oracle = np.zeros((k, k, k))
    for key, word in enumerate(book.letters):
        sigma = reduce(np.kron, (taus[a] for a in word))
        for b_label, b_eff in enumerate(bob_effects):
            for e_eff, e_key in zip(flat_eve.effects, me.decoder):
                effect = permute_factors(np.kron(b_eff, e_eff), dims, perm)
                p = np.sum(sigma * effect.T).real
                oracle[key, b_label, e_key] += p / k
    return oracle


class TestEvaluate:
    def test_perfect_scenario(self):
        sc = paper_example(0.0)
        book = repetition_codebook(2, 1)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.p_agree == pytest.approx(1.0, abs=1e-10)
        assert rep.bob_info == pytest.approx(1.0, abs=1e-10)
        assert rep.eve_info == pytest.approx(1.0, abs=1e-10)

    def test_example_exact_values(self):
        s = 0.5
        sc = paper_example(s)
        book = repetition_codebook(2, 3)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        eps_b = 1 - block_success(s, 3)
        err = majority_error(helstrom_crossover(s), 3)
        assert rep.p_agree == pytest.approx(block_success(s, 3), abs=1e-12)
        assert rep.bob_info == pytest.approx(1 - binary_entropy(eps_b), abs=1e-12)
        assert rep.eve_info == pytest.approx(1 - binary_entropy(err), abs=1e-12)

    def test_constant_decoder_kills_eve_info(self):
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        constant = EveStrategy(me.slots, np.zeros_like(me.decoder))
        rep = evaluate(sc, book, constant)
        assert rep.eve_info == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("key", [1.9, 0.5, "1", 2, -1])
    def test_non_integer_decoder_key_rejected(self, key):
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        decoder = me.decoder.tolist()
        decoder[3] = key
        with pytest.raises(ValidationError, match="decoder-range"):
            evaluate(sc, book, EveStrategy(me.slots, decoder))

    def test_unsigned_decoder_keys_evaluated(self):
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, EveStrategy(me.slots, me.decoder.astype(np.uint64)))
        assert rep.eve_info == evaluate(sc, book, me).eve_info

    def test_joint_invariants(self):
        sc = paper_example(0.5)
        book = sample_codebook(2, 2, 2, seed=1)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert abs(rep.joint.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(rep.joint.sum(axis=(1, 2)), [0.5, 0.5], atol=1e-10)

    def test_determinism_bit_identical(self):
        sc = paper_example(0.5)
        book = sample_codebook(2, 2, 2, seed=3)
        cfg = OptimizerConfig(restarts=2, seed=9)
        r1 = evaluate(sc, book, eve_optimize(sc, book, cfg))
        r2 = evaluate(sc, book, eve_optimize(sc, book, cfg))
        assert np.array_equal(r1.joint, r2.joint)
        assert r1.p_agree == r2.p_agree and r1.eve_info == r2.eve_info

    def test_factorized_joint_matches_product_oracle(self):
        # the example channel is a product across the B/E cut per letter, so
        # the joint must factorize as P(b|k) P(e|k)
        sc = paper_example(0.5)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, me)
        eve_states = sc.eve_ensemble().states
        bob_states = sc.bob_ensemble().states
        k = sc.key_count
        oracle = np.zeros((k, k, k))
        bob_blocks = [reduce(np.kron, (bob_states[a] for a in word)) for word in book.letters]
        bob_effects = dense_pgm(bob_blocks)
        for key, bob_block in enumerate(bob_blocks):
            word = book.letters[key]
            p_b = np.array([np.trace(eff @ bob_block).real for eff in bob_effects])
            slot_rows = []
            for povm, a in zip(me.slots, word):
                slot_rows.append(
                    np.array([np.trace(eff @ eve_states[a]).real for eff in povm.effects])
                )
            p_tuple = reduce(np.multiply.outer, slot_rows).ravel()
            p_e = np.zeros(k)
            for e_key, w in zip(me.decoder, p_tuple):
                p_e[e_key] += w
            oracle[key] = np.outer(p_b, p_e) / k
        np.testing.assert_allclose(rep.joint, oracle, atol=1e-9)

    def test_correlated_channel_matches_direct_contraction(self):
        sc = correlated_scenario(0.15)
        book = repetition_codebook(2, 2)
        me = eve_default_strategy(sc, book)
        rep = evaluate(sc, book, me)
        np.testing.assert_allclose(rep.joint, dense_joint(sc, book, me), atol=1e-9)
        # and the B/E outputs here are genuinely correlated, not a product
        tau = sc.theta.apply_matrix(sc.ensemble.states[0])
        t = tau.reshape(2, 2, 2, 2)
        marg_b = np.einsum("aebe->ab", t)
        marg_e = np.einsum("aeaf->ef", t)
        assert np.abs(tau - np.kron(marg_b, marg_e)).max() > 0.05
        assert rep.eve_info > 0.1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "make",
        [lambda: paper_example(0.5), correlated_scenario, lambda: bsc_pair(0.1, 0.3)],
        ids=["paper", "correlated", "bsc"],
    )
    def test_random_slot_povms_match_direct_contraction(self, make, n):
        sc = make()
        rng = np.random.default_rng(100 + n)
        book = sample_codebook(2, n, sc.ensemble.size, seed=n)
        slots = [random_rank1_povm(sc.dim_e, int(rng.integers(2, 5)), rng) for _ in range(n)]
        me = EveStrategy(slots, [int(rng.integers(2)) for _ in range(math.prod(map(len, slots)))])
        rep = evaluate(sc, book, me)
        np.testing.assert_allclose(rep.joint, dense_joint(sc, book, me), atol=1e-12)

    def test_adversary_ceiling_small(self, rng):
        cfg = OptimizerConfig(restarts=1, seed=2)
        cap = c1(paper_example(0.5).eve_ensemble(), cfg).value
        for n in (1, 2, 3):
            sc = paper_example(0.5)
            for seed in range(3):
                book = sample_codebook(2, n, 2, seed)
                me = eve_default_strategy(sc, book)
                rep = evaluate(sc, book, me)
                assert rep.eve_info <= n * cap + 1e-6

    def test_strategy_must_have_a_slot_per_codebook_letter(self):
        sc = paper_example(0.5)
        me = eve_default_strategy(sc, repetition_codebook(2, 2))
        with pytest.raises(DimensionMismatch, match="2 slots for block length 3"):
            evaluate(sc, repetition_codebook(2, 3), me)

    def test_one_scenario_at_every_block_length(self):
        s = 0.5
        sc = paper_example(s)
        for n in (1, 2, 3):
            book = repetition_codebook(2, n)
            rep = evaluate(sc, book, eve_default_strategy(sc, book))
            assert rep.p_agree == pytest.approx(block_success(s, n), abs=1e-12)


class TestJointLawProperties:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mixed=st.lists(st.booleans(), min_size=2, max_size=3),
        k=st.sampled_from([2, 3]),
        n=st.sampled_from([1, 2, 3]),
        repeat=st.booleans(),
    )
    # Seed 2 draws the three codewords 100, 001 and 000: column 1 is constant.
    @example(seed=2, mixed=[True, True], k=3, n=3, repeat=False)
    def test_evaluate_matches_dense_oracle(self, seed, mixed, k, n, repeat):
        # A random qubit-input channel to (2, 2), a letter per entry of
        # ``mixed`` (mixed or pure), random slot POVMs and a random decoder.
        # The channel's receiver letters have rank 2; a repeated codeword
        # makes the receiver's Gram matrix singular.
        rng = np.random.default_rng(seed)
        theta = QuantumChannel(random_channel(rng, 2, 4).kraus, out_factorization=(2, 2))
        states = [random_density(rng, 2) if m else random_pure(rng, 2) for m in mixed]
        ensemble = CqEnsemble(np.full(len(states), 1 / len(states)), [rho.matrix for rho in states])
        sc = Scenario(name="random", key_count=k, ensemble=ensemble, theta=theta)
        book = sample_codebook(k, n, len(states), seed)
        if repeat:
            book = Codebook(np.vstack([book.letters[:1], book.letters[:-1]]))
        slots = [random_rank1_povm(2, int(rng.integers(2, 5)), rng) for _ in range(n)]
        me = EveStrategy(slots, rng.integers(0, k, size=math.prod(len(p) for p in slots)))
        rep = evaluate(sc, book, me)
        np.testing.assert_allclose(rep.joint, dense_joint(sc, book, me), rtol=0, atol=1e-9)
        assert rep.joint.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(rep.joint.sum(axis=(1, 2)), 1 / k, rtol=0, atol=1e-10)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), count=st.integers(1, 3),
           repetition=st.booleans())
    def test_coarse_grained_slot_keeps_the_joint_law_property(self, seed, n, count, repetition):
        # Data processing, exactly: one slot's effects merged into ``count``
        # outcomes and a decoder d on the coarse tuples give the joint law of
        # the fine slots decoded by d o merge.
        rng = np.random.default_rng(seed)
        theta = QuantumChannel(random_channel(rng, 2, 4).kraus, out_factorization=(2, 2))
        ensemble = CqEnsemble([0.5, 0.5], [random_density(rng, 2).matrix, random_pure(rng, 2).matrix])
        sc = Scenario(name="random", key_count=2, ensemble=ensemble, theta=theta)
        book = repetition_codebook(2, n) if repetition else sample_codebook(2, n, 2, seed)
        slots = [random_rank1_povm(2, int(rng.integers(2, 5)), rng) for _ in range(n)]
        slot, counts = int(rng.integers(n)), [len(p) for p in slots]
        merge = rng.integers(0, count, size=counts[slot])
        coarse = list(slots)
        coarse[slot] = Povm(coarse_grain(slots[slot].effects, merge, count))
        decoder = rng.integers(0, 2, size=math.prod(counts) // counts[slot] * count)
        tuples = np.array(list(np.ndindex(*counts)))
        tuples[:, slot] = merge[tuples[:, slot]]
        merged = decoder[np.ravel_multi_index(tuples.T, [len(p) for p in coarse])]
        rep = evaluate(sc, book, EveStrategy(coarse, decoder))
        ref = evaluate(sc, book, EveStrategy(slots, merged))
        np.testing.assert_allclose(rep.joint, ref.joint, rtol=0, atol=1e-12)


def assert_same_default_report(sc, book, short):
    """Under the default attack, ``book`` and ``short`` give the same report to 1e-12."""
    rep, ref = (evaluate(sc, b, eve_default_strategy(sc, b)) for b in (book, short))
    np.testing.assert_allclose(rep.joint, ref.joint, rtol=0, atol=1e-12)
    for name in ("p_agree", "bob_info", "eve_info"):
        assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=0, abs=1e-12)


class TestConstantColumns:
    """A column where every codeword carries the same letter tells the receiver nothing."""

    def test_kron_helper_is_numpy_kron(self):
        rng = np.random.default_rng(0)
        shapes = list(itertools.product((1, 2, 3), (1, 2)))
        for shape_x, shape_y in itertools.product(shapes, shapes):
            x = rng.normal(size=shape_x) + 1j * rng.normal(size=shape_x)
            y = rng.normal(size=shape_y) + 1j * rng.normal(size=shape_y)
            assert np.array_equal(simulation._kron(x, y), np.kron(x, y))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bsc=st.booleans(),
        k=st.sampled_from([2, 3]),
        constant=st.lists(st.booleans(), min_size=2, max_size=6).filter(
            lambda m: any(m) and not all(m)
        ),
    )
    def test_constant_columns_carry_no_key_information(self, seed, bsc, k, constant):
        # Random non-constant columns, and constant ones where ``constant``
        # says; the same codebook without the constant columns must give the
        # same report under the default attack.
        sc = dataclasses.replace(bsc_pair(0.1, 0.3) if bsc else paper_example(0.5), key_count=k)
        rng = np.random.default_rng(seed)
        letters = rng.integers(0, 2, size=(k, len(constant)))
        for i, const in enumerate(constant):
            if const:
                letters[:, i] = letters[0, i]
            elif (letters[:, i] == letters[0, i]).all():
                letters[0, i] = 1 - letters[0, i]
        assert_same_default_report(sc, Codebook(letters), Codebook(letters[:, ~np.array(constant)]))


class TestSweep:
    def test_single_cell_matches_evaluate(self):
        sc = paper_example(0.5)
        cells = sweep(sc, [1], [0], CFG, coder="repetition", eve="default")
        assert len(cells) == 1
        book = repetition_codebook(2, 1)
        direct = evaluate(sc, book, eve_default_strategy(sc, book))
        assert cells[0].report.p_agree == direct.p_agree
        assert cells[0].report.eve_info == direct.eve_info

    def test_gap_matches_closed_form_oracle(self):
        # Enumeration-oracle gaps: at n=1 the receiver's block measurement
        # coincides with the per-slot attack (gap exactly 0); for n >= 2 the
        # collective decoder pulls ahead. The sequence is not monotone: even
        # block lengths cost the adversary extra through decoding ties.
        s = 0.5
        sc = paper_example(s)
        cells = sweep(sc, [1, 2, 3, 4], [0], CFG, coder="repetition", eve="default")
        eps = helstrom_crossover(s)
        for cell in cells:
            n = cell.n
            bob_oracle = 1 - binary_entropy(1 - block_success(s, n))
            eve_oracle = majority_vote_info(eps, n)
            assert cell.report.bob_info == pytest.approx(bob_oracle, abs=1e-9)
            assert cell.report.eve_info == pytest.approx(eve_oracle, abs=1e-9)
            gap = cell.report.bob_info - cell.report.eve_info
            if n == 1:
                assert gap == pytest.approx(0.0, abs=1e-9)
            else:
                assert gap > 0.01

    def test_run_cell_matches_explicit_pipeline(self):
        sc = paper_example(0.5)
        book = sample_codebook(2, 2, 2, 5)
        me = eve_optimize(sc, book, CFG)
        direct = evaluate(sc, book, me)
        report = run_cell(sc, 2, "random", 5, "optimized", CFG)
        assert np.array_equal(report.joint, direct.joint)

    @pytest.mark.parametrize("coder, eve", [("gray", "default"), ("random", "oracle")])
    def test_run_cell_rejects_unknown_choices(self, coder, eve):
        with pytest.raises(ValidationError):
            run_cell(paper_example(0.5), 1, coder, 0, eve, CFG)

    def test_empty_seed_list(self):
        sc = paper_example(0.5)
        assert sweep(sc, [1, 2], [], CFG) == []

    def test_budget_failure_marks_cell(self):
        sc = paper_example(0.5)
        cells = sweep(sc, [1, 13], [0], CFG)
        by_n = {c.n: c for c in cells}
        assert by_n[1].report is not None and by_n[1].error is None
        assert by_n[13].report is None and "exceeds budget" in by_n[13].error

    @pytest.mark.parametrize(
        "count, shown",
        [(10**18 - 1, "999999999999999999"), (10**18, "1.00e+18"),
         (999_499_999_999_999_999_999, "9.99e+20"), (999_500_000_000_000_000_000, "1.00e+21"),
         (2**100000, "9.99e+30102"), (10**4400, "1.00e+4400")],
        ids=["18-digits", "19-digits", "rounds-down", "rounds-up", "2^100000", "10^4400"],
    )
    def test_budget_message_shows_huge_counts_to_three_digits(self, count, shown):
        assert str(BudgetExceeded(count, 4096)) == f"dimension {shown} exceeds budget 4096"

    def test_count_past_the_string_limit_marks_cell(self):
        (cell,) = sweep(paper_example(0.5), [20000], [0], CFG)
        assert cell.report is None
        assert cell.error == ("adversary outcome tuple count 3.98e+6020 exceeds budget 4096"
                              " (n=20000)")

    @pytest.mark.parametrize("coder", ["random", "repetition"])
    def test_empty_codewords_mark_cell(self, coder):
        cells = sweep(paper_example(0.5), [0, 1], [1], CFG, coder=coder)
        assert cells[0].report is None and "codewords need at least 1 letter" in cells[0].error
        assert cells[1].report is not None and cells[1].error is None

    def test_cells_sorted(self):
        sc = paper_example(0.5)
        cells = sweep(sc, [2, 1], [1, 0], CFG)
        assert [(c.n, c.seed) for c in cells] == [(1, 0), (1, 1), (2, 0), (2, 1)]


class TestLargeBlocks:
    """Block lengths whose receiver block space a dense receiver could not hold."""

    def test_repetition_code_at_n12_meets_closed_forms(self):
        s, n = 0.5, 12
        sc = paper_example(s)
        book = repetition_codebook(2, n)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.p_agree == pytest.approx(block_success(s, n), abs=1e-12)
        assert rep.eve_info == pytest.approx(
            majority_vote_info(helstrom_crossover(s), n), abs=1e-9
        )

    def test_constant_columns_leave_the_gram_matrix(self):
        # Columns 3-7 and 11 differ; the other six are constant.
        sc = bsc_pair(0.1, 0.3)
        book = sample_codebook(2, 12, 2, 0)
        _, root = bob_decoder(sc, book)
        assert root.shape == (2 * 2**6, 2 * 2**6)
        assert_same_default_report(sc, book, Codebook(book.letters[:, [3, 4, 5, 6, 7, 11]]))

    def test_mixed_letters_span_k_times_two_to_the_n(self):
        sc = bsc_pair(0.1, 0.3)
        _, root = bob_decoder(sc, sample_codebook(2, 4, 2, seed=3))
        assert root.shape == (2 * 2**4, 2 * 2**4)
        with pytest.raises(BudgetExceeded, match="dimension 8192 exceeds budget 4096"):
            bob_decoder(sc, repetition_codebook(2, 12))


class TestNearlyIdenticalCodewords:
    """Codewords whose Gram matrix has an eigenvalue just above the support floor."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("delta", [3e-12, 1e-9, 1e-7])
    def test_repetition_code_meets_the_closed_form(self, delta, n):
        sc = paper_example(1 - delta)
        book = repetition_codebook(2, n)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.p_agree == pytest.approx(block_success(1 - delta, n), rel=0, abs=1e-10)

    def test_eigenvalue_under_the_floor_leaves_the_span(self):
        # The codeword Gram matrix's smaller eigenvalue is 1.5e-12, under
        # _SUPPORT_FLOOR * K = 2e-12: the receiver cannot tell the codewords
        # apart. Kept, it would give p_agree = 0.5 + 8.7e-7.
        sc = paper_example(1 - 1.5e-12)
        book = repetition_codebook(2, 1)
        rep = evaluate(sc, book, eve_default_strategy(sc, book))
        assert rep.p_agree == pytest.approx(0.5, rel=0, abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bsc=st.booleans(),
        param=st.floats(0.01, 0.95),
        k=st.sampled_from([2, 3]),
        n=st.sampled_from([1, 2, 3]),
    )
    def test_root_squares_to_the_gram_matrix(self, seed, bsc, param, k, n):
        sc = bsc_pair(min(param, 0.49), 0.3) if bsc else paper_example(param)
        book = sample_codebook(k, n, 2, seed)
        factors, root = bob_decoder(sc, book)
        mask = (book.letters != book.letters[0]).any(axis=0)
        mask[0] |= not mask.any()
        psi = np.hstack([reduce(np.kron, [factors[a] for a in w]) for w in book.letters[:, mask]])
        gram = psi.conj().T @ psi
        vals = np.linalg.eigvalsh(gram)
        # Eigenvalues that are 0 up to rounding are allowed; none may lie under the floor.
        assume(not ((vals > 1e-14) & (vals <= simulation._SUPPORT_FLOOR * k)).any())
        np.testing.assert_allclose(root @ root, gram, rtol=0, atol=1e-12)


class TestReportValidation:
    @pytest.mark.parametrize("off, refused", [(1e-8, True), (1e-10, False)])
    def test_normalization_tolerance_is_1e_minus_9(self, off, refused):
        joint = np.full((2, 2, 2), (1 + off) / 8)
        if refused:
            with pytest.raises(ValidationError, match="joint-normalization"):
                KeySimReport(joint=joint, p_agree=0.5, bob_info=0.0, eve_info=0.0)
        else:
            KeySimReport(joint=joint, p_agree=0.5, bob_info=0.0, eve_info=0.0)

    def test_normalization_enforced(self):
        bad = np.full((2, 2, 2), 0.3)
        with pytest.raises(ValidationError, match="joint-normalization"):
            KeySimReport(joint=bad, p_agree=1.0, bob_info=0.0, eve_info=0.0)

    def test_uniform_marginal_enforced(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 0.75
        bad[1, 1, 1] = 0.25
        with pytest.raises(ValidationError, match="alice-marginal"):
            KeySimReport(joint=bad, p_agree=1.0, bob_info=0.0, eve_info=0.0)
