"""Exact finite-block simulation of the key-distribution pipeline.

One run of the pipeline: a uniform key K_A selects a codeword, each letter
is encoded and sent through the channel, the receiver measures the whole
block with a collective POVM (the square-root, or pretty-good, measurement
of the codeword block states) while the adversary measures slot by slot
with one POVM per slot and post-processes outcomes through a classical
decoding function. Its optimized attack comes from a seesaw that alternates
per-slot ascents, joined by one ascent over all slots once a pass of them
gains under 3e-3 bits, with the maximum-likelihood decoder; after a joint
ascent that settled, the next round runs the joint ascent alone. The attack is
factorized, so a one-slot ascent contracts the other slots and the decoder
into a key channel of the free slot once (``_joint_value_and_grad``): each
evaluation then costs O(K r K) for r rank-one pieces, not O(n K prod_j m_j)
over every outcome tuple. Every ascent is the package's one POVM ascent,
``information._ascend_frames``, on its own L-BFGS, so the seesaw runs on
numpy alone. The channel is memoryless, so block states are Kronecker
products of single-letter states. The receiver's measurement
is held as G^(1/2), the square root of the K codeword states' Gram matrix,
whose blocks are the measurement's amplitudes on the codeword span. A
constant codebook column, one letter in every codeword, factors out of the
Gram matrix (G = G_inf (x) (x) A_a^dagger A_a), so the Gram matrix and its
root are built on the informative columns only, and each constant slot
multiplies the law by its Born probabilities on the letter's support
projector. The joint law is contracted one slot at a time; no operator on
the receiver's or the adversary's block space is ever built. The joint law
of (K_A, K_B, K_E) is computed exactly by enumerating all outcome tuples;
there is no Monte Carlo anywhere, so agreement probability and adversary
information are sharp numbers and runs are bit-identical for fixed seeds.
A codebook is a (K, n) array of letters; it fixes the block length n and
the receiver's measurement. The adversary's slots are a tuple of POVMs and
its decoder an array of keys, one per outcome tuple in lexicographic order
of the slots' effect positions.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble, QuantumChannel, marginal, push_through
from .errors import BudgetExceeded, DimensionMismatch, ValidationError, _count
from .information import (
    OptimizerConfig,
    _ascend_frames,
    _mi_and_grad,
    _mi_from_probs,
    _padded,
    _rank1_pieces,
)
from .measurements import (
    Povm,
    _born_table,
    _normalized_frames,
    helstrom,
    pretty_good_measurement,
    random_rank1_povm,
)
from .states import hermitian_eigensystem

# Cap on the accepted L-BFGS steps of a slot ascent, per free slot.
_SLOT_ASCENT_MAX_ITERS = 200
# The seesaw's stops. A one-slot ascent stops at max |g| of _SLOT_GTOL. A
# round whose per-slot pass gains under _STALL_BITS bits adds one joint ascent
# over all slots, which stops at max |g| of _SEESAW_JOINT_GTOL: eve_info, the
# seesaw's one output, no longer moves below it. Moving the hand-over a decade
# either way, or the joint stop up one, lowered some run (CHANGES.md).
_SLOT_GTOL = 1e-5
_STALL_BITS = 3e-3
_SEESAW_JOINT_GTOL = 1e-7
# Eigenvalues at or below this lie outside a state's support: the receiver's
# letter factors drop them, and its G^(1/2) keeps the eigenvalues of G_inf/K
# (the Gram matrix on the informative columns) only above it, the threshold
# of measurements.pretty_good_measurement on the average state.
_SUPPORT_FLOOR = 1e-12
# A codebook holds at most this many letters (key count times block length),
# so an absurd block length is refused before numpy is asked for the array.
# The outcome-tuple budget refuses any attack of two or more outcomes per slot
# from n = 13 on, far below it.
_LETTER_BUDGET = 2**20


@dataclass(frozen=True)
class Scenario:
    """The fixed part of a key-distribution system.

    ``key_count`` keys are encoded into codewords over the ensemble
    alphabet; ``theta`` maps each transmitted letter state into the
    receiver/adversary pair space, its ``out_dims`` giving the B/E split.
    The block length is the codebook's, not the scenario's.
    """

    name: str
    key_count: int
    ensemble: CqEnsemble
    theta: QuantumChannel
    classical_pair: tuple | None = None

    def __post_init__(self):
        if self.key_count < 2:
            raise ValidationError("key-count", f"need at least 2 keys, got {self.key_count}")
        if self.ensemble.dim != self.theta.in_dim:
            raise DimensionMismatch(
                f"ensemble dim {self.ensemble.dim} != channel input dim {self.theta.in_dim}"
            )
        if self.theta.out_dims is None or len(self.theta.out_dims) != 2:
            raise ValidationError(
                "output-factorization",
                "scenario channel needs a two-factor output (receiver/adversary split)",
            )

    @property
    def dim_b(self) -> int:
        return self.theta.out_dims[0]

    @property
    def dim_e(self) -> int:
        return self.theta.out_dims[1]

    def eve_ensemble(self) -> CqEnsemble:
        """Single-letter ensemble seen by the adversary."""
        return push_through(self.ensemble, marginal(self.theta, "E"))

    def bob_ensemble(self) -> CqEnsemble:
        """Single-letter ensemble seen by the receiver."""
        return push_through(self.ensemble, marginal(self.theta, "B"))


class Codebook:
    """One codeword per key, all of one length of at least 1.

    ``letters`` is a read-only (K, n) integer array whose row k holds key
    k's codeword. Whether the letters lie in an alphabet is checked where a
    scenario supplies the alphabet.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        try:
            letters = np.array(letters)
        except ValueError:
            raise ValidationError("codebook", "codewords must share one length") from None
        if letters.ndim != 2 or letters.dtype.kind not in "iu":
            raise ValidationError("codebook", "codewords must be equal-length integer sequences")
        if len(letters) < 2:
            raise ValidationError("codebook", "need at least 2 codewords")
        if letters.shape[1] < 1:
            raise ValidationError("codebook", "codewords need at least 1 letter")
        letters.flags.writeable = False
        self.letters = letters

    @property
    def length(self) -> int:
        return self.letters.shape[1]

    def __len__(self) -> int:
        return self.letters.shape[0]


def _check_letter_count(key_count: int, n: int) -> None:
    """Refuse a codebook of more than ``_LETTER_BUDGET`` letters before building it."""
    if key_count * n > _LETTER_BUDGET:
        raise BudgetExceeded(key_count * n, _LETTER_BUDGET, f"n={n}", "codebook letter count")


def sample_codebook(key_count: int, n: int, alphabet_size: int, seed: int) -> Codebook:
    """Random coder realization: i.i.d. uniform letters, reproducible by seed."""
    if key_count < 2:
        raise ValidationError("key-count", f"need at least 2 keys, got {key_count}")
    _check_letter_count(key_count, n)
    rng = np.random.default_rng(seed)
    return Codebook(rng.integers(0, alphabet_size, size=(key_count, n)))


def repetition_codebook(key_count: int, n: int) -> Codebook:
    """Deterministic coder sending letter k for key k, n times."""
    _check_letter_count(key_count, n)
    return Codebook(np.repeat(np.arange(key_count)[:, None], n, axis=1))


def _exact_product(counts) -> int:
    """The exact product of positive ints, taken as one power per distinct
    value: a product taken one factor at a time grows a big int once per
    factor, in time quadratic in the number of factors (the slots)."""
    return math.prod(m**c for m, c in Counter(counts).items())


class EveStrategy:
    """A factorized attack: per-slot POVMs plus a classical decoder.

    ``slots`` is a tuple of ``Povm``, one per slot. ``decoder`` is a
    read-only integer array with the key of every outcome tuple of
    ``slots``, tuples in lexicographic order of the slots' effect positions.
    Membership in the individual-attack class holds by construction: the
    flat measurement is the coarse-graining of ``expand(slots)`` under
    ``decoder``. Keys at or above the key count are rejected by
    ``evaluate``, which knows it.
    """

    __slots__ = ("slots", "decoder")

    def __init__(self, slots, decoder):
        slots = tuple(slots)
        if not slots or any(not isinstance(p, Povm) for p in slots):
            raise ValidationError("slots", "slots must be one or more Povm values")
        keys = np.asarray(decoder)
        total = _exact_product(len(p) for p in slots)
        if keys.shape != (total,):
            raise ValidationError(
                "decoder-total", f"decoder has shape {keys.shape} for {_count(total)} outcome tuples"
            )
        if keys.dtype.kind not in "iu":
            raise ValidationError("decoder-range", "decoder keys must be integers")
        keys = keys.astype(int)
        if keys.min() < 0:
            raise ValidationError("decoder-range", f"decoder key {keys.min()} is negative")
        keys.flags.writeable = False
        self.slots = slots
        self.decoder = keys

    @property
    def n(self) -> int:
        return len(self.slots)


@dataclass
class KeySimReport:
    """Exact joint distribution of (K_A, K_B, K_E) and its summaries."""

    joint: np.ndarray
    p_agree: float
    bob_info: float
    eve_info: float

    def __post_init__(self):
        total = float(self.joint.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError("joint-normalization", f"joint sums to {total!r}")
        k = self.joint.shape[0]
        alice = self.joint.sum(axis=(1, 2))
        if float(np.abs(alice - 1.0 / k).max()) > 1e-10:
            raise ValidationError("alice-marginal", "key marginal is not uniform")


@dataclass
class SweepCell:
    """One (n, seed) cell of a sweep; failed cells carry an error marker."""

    scenario: str
    n: int
    seed: int
    coder: str
    eve: str
    report: KeySimReport | None = None
    error: str | None = None


def _check_letters(s: Scenario, c: Codebook) -> None:
    bad = c.letters[(c.letters < 0) | (c.letters >= s.ensemble.size)]
    if bad.size:
        raise ValidationError(
            "letter", f"letter {bad[0]} not in alphabet of size {s.ensemble.size}"
        )


def _codeword_sizes(factors, letters: np.ndarray) -> list[int]:
    """Columns of each codeword's factor, prod_i r_{w_i}: its share of the Gram dimension."""
    return [_exact_product(factors[a].shape[1] for a in word) for word in letters]


def _informative(letters: np.ndarray) -> np.ndarray:
    """Mask of the codebook columns whose letters differ between codewords.

    A constant column tells the receiver nothing (see ``bob_decoder``). When
    every column is constant, column 0 counts as informative, so the Gram
    matrix is never empty.
    """
    mask = (letters != letters[0]).any(axis=0)
    mask[0] |= not mask.any()
    return mask


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, without np.kron's per-call set-up."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]
    )


def bob_decoder(s: Scenario, c: Codebook) -> tuple[tuple, np.ndarray]:
    """Square-root (pretty-good) measurement of the codeword block states, as G^(1/2).

    Each receiver letter is rho_a = A_a A_a^dagger with a d_b x r_a rank
    factor A_a that keeps the eigenvalues above ``_SUPPORT_FLOOR``. The
    channel is memoryless, so codeword w has the factor A_w = (x)_i A_{w_i};
    the factors stack into Psi = [A_{w_1} .. A_{w_K}]. The Gram matrix
    G = Psi^dagger Psi has the blocks (x)_i A_{w_j,i}^dagger A_{w_l,i}. Under
    the uniform prior the measurement's amplitudes <mu_i|psi_j>, between its
    measurement vectors and the factor columns, are the entries of G^(1/2)
    (Hausladen et al., PRA 54, 1869 (1996); Eldar and Forney, IEEE TIT 47,
    858 (2001)). Effect b owns the measurement vectors of block b, so block
    (b, k) of G^(1/2), W_bk, gives M_b's probabilities on codeword k's state.
    The receiver is held as that one matrix: nothing divides by an eigenvalue
    of G, so nearly identical codewords give a law that sums to 1 up to
    rounding.

    A constant column, where every codeword carries letter a, adds the same
    factor O_aa = A_a^dagger A_a to every block, so G = G_inf (x) (x) O_aa over
    the constant columns and M_b = M_b^inf (x) (x) Pi_a, with Pi_a the
    projector onto rho_a's kept support. G^(1/2) is therefore built on the
    informative columns (``_informative``) only, from the eigenvalues of G_inf
    above ``_SUPPORT_FLOOR`` * K; repeated codewords are allowed. Nothing of
    the receiver's block dimension d_b^n is built; the Gram dimension,
    sum_k prod_i r_{w_k,i} over the informative columns, is held to the
    budget. Outcomes are the keys 0..K-1.

    Returns ``(factors, root)``: the A_a, and G_inf^(1/2), indexed by the
    codewords' factor columns on the informative columns, in codebook order.
    """
    _check_letters(s, c)
    factors = []
    for rho in s.bob_ensemble().states:
        vals, vecs = hermitian_eigensystem(rho)
        keep = vals > _SUPPORT_FLOOR
        factors.append(vecs[:, keep] * np.sqrt(vals[keep]))
    letters = c.letters[:, _informative(c.letters)]
    sizes = _codeword_sizes(factors, letters)
    if sum(sizes) > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(sum(sizes), DEFAULT_DIM_BUDGET, f"n={c.length}", "receiver Gram dimension")
    overlaps = [[x.conj().T @ y for y in factors] for x in factors]
    gram = np.block(
        [[reduce(_kron, [overlaps[a][b] for a, b in zip(u, v)]) for v in letters]
         for u in letters]
    )
    vals, vecs = np.linalg.eigh(gram)
    vals = np.where(vals > _SUPPORT_FLOOR * len(c), vals, 0.0)
    return tuple(factors), (vecs * np.sqrt(vals)) @ vecs.conj().T


def _slot_channels(slots: list[np.ndarray], eve_states: np.ndarray) -> list[np.ndarray]:
    """Per-slot outcome-by-letter probability tables of stacked slot effects."""
    return [_born_table(effects, eve_states).T for effects in slots]


def _check_tuple_count(counts, n: int) -> None:
    """Refuse a likelihood table or joint law over more outcome tuples than the budget."""
    total = _exact_product(counts)
    if total > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(total, DEFAULT_DIM_BUDGET, f"n={n}", "adversary outcome tuple count")


def _likelihoods(tables: list[np.ndarray], c: Codebook) -> np.ndarray:
    """P(outcome tuple | codeword), shape (K, M), tuples in lexicographic order."""
    _check_tuple_count((t.shape[0] for t in tables), len(tables))
    return _column_likelihoods([t[:, a] for t, a in zip(tables, c.letters.T)])


def _column_likelihoods(cols: list[np.ndarray]) -> np.ndarray:
    """``_likelihoods`` from each slot's (m_i, K) letter columns table_i[:, a_i(k)]:
    one broadcast product per slot, over every codeword at once."""
    lik = cols[0].T
    for col in cols[1:]:
        lik = (lik[:, :, None] * col.T[:, None, :]).reshape(len(lik), -1)
    return lik


def _ml_decoder(lik: np.ndarray) -> np.ndarray:
    """Maximum-likelihood key of every outcome tuple (lowest index wins).

    Likelihoods within a relative 1e-9 of the largest count as tied, so ties
    that hold in exact arithmetic are not decided by rounding.
    """
    return np.argmax(lik >= lik.max(axis=0) * (1 - 1e-9), axis=0)


def _key_info(lik: np.ndarray, decoder_idx: np.ndarray) -> float:
    """I(K_A; K_E) in bits for likelihoods ``lik`` and decoder keys ``decoder_idx``."""
    k = lik.shape[0]
    chan = np.stack([np.bincount(decoder_idx, weights=row, minlength=k) for row in lik])
    return _mi_from_probs(np.full(k, 1.0 / k), chan)


def eve_default_strategy(s: Scenario, c: Codebook) -> EveStrategy:
    """Baseline attack: per-slot binary discrimination plus ML decoding.

    Each slot measures the adversary's single-letter ensemble with the
    Helstrom measurement (pretty-good measurement for non-binary
    alphabets); the decoder is maximum likelihood for the codebook, ties
    going to the lowest key index.
    """
    return _default_attack(s, c, s.eve_ensemble())


def _default_attack(s: Scenario, c: Codebook, ee: CqEnsemble) -> EveStrategy:
    """``eve_default_strategy`` on the adversary's single-letter ensemble ``ee``."""
    _check_letters(s, c)
    if ee.size == 2:
        slot = helstrom(ee.states[0], ee.states[1], float(ee.prior[0]))
    else:
        slot = pretty_good_measurement(ee)
    tables = _slot_channels([slot.effects], ee.states)
    idx = _ml_decoder(_likelihoods(tables * c.length, c))
    return EveStrategy([slot] * c.length, idx)


def eve_optimize(s: Scenario, c: Codebook, cfg: OptimizerConfig) -> EveStrategy:
    """Best factorized attack found by a seesaw between the slots and the decoder.

    Each round ascends each slot's POVM in turn (decoder and other slots
    fixed), each to max |g| at most ``_SLOT_GTOL``, then re-derives the
    maximum-likelihood decoder. Where that block-coordinate ascent only
    crawls along a ridge (the pass gains less than ``_STALL_BITS``, 3e-3
    bits), the round adds one joint ascent over every slot, which climbs to
    the ridge's top and stops at max |g| at most ``_SEESAW_JOINT_GTOL``. All
    ascents are ``_refine_slots`` on the exact gradient of the adversary's
    information. ``cfg.restarts`` counts seesaw starts: 0 returns the default
    strategy untouched, start 0 refines the default and further starts are
    random rank-one POVMs with d_e^2 outcomes per slot.

    The running value is always the exact information of the current slots
    and decoder. A slot's ascent is accepted only when it beats the running
    value by more than ``cfg.tol``; the joint ascent is kept whenever it
    raises the value, but only a gain above ``cfg.tol`` counts as progress.
    The maximum-likelihood decoder is adopted unless it lowers the value by
    more than ``cfg.tol`` (a decoder that is ML for the likelihoods need not
    maximize the mutual information). A round without progress ends the
    start. After a round whose joint ascent settled (met its stop, its end
    kept or no step taken, the decoder unchanged), the next round's one-slot
    ascents would start inside ``_SLOT_GTOL``, so it runs its joint ascent
    alone. The best (value, slots, decoder) seen is returned, so the result
    never falls below the default and its information is the value recorded.

    Each slot is held as its stacked (m, d_e, d_e) effects array; the
    returned strategy's slots are the best arrays, validated as ``Povm``
    once.
    """
    ee = s.eve_ensemble()
    default = _default_attack(s, c, ee)
    if cfg.restarts == 0:
        return default
    eve_states = ee.states
    d_e, n = s.dim_e, c.length
    best = None
    rng = np.random.default_rng(cfg.seed)
    for restart in range(cfg.restarts):
        if restart == 0:
            starts = default.slots
        else:
            starts = [random_rank1_povm(d_e, d_e * d_e, rng) for _ in range(n)]
        slots = [p.effects for p in starts]
        tables = _slot_channels(slots, eve_states)
        lik = _likelihoods(tables, c)
        idx = _ml_decoder(lik)
        val = _key_info(lik, idx)
        if best is None or val > best[0]:
            best = (val, slots, idx)
        settled = False
        for _ in range(cfg.max_iters):
            start, improved = val, False
            for i in range(0 if settled else n):
                step, _ = _refine_slots(slots, tables, [i], c, idx, eve_states)
                if step is not None and step[2] > val + cfg.tol:
                    slots, tables, val = step
                    improved = True
            if n > 1 and val - start < _STALL_BITS:
                step, ok = _refine_slots(slots, tables, list(range(n)), c, idx, eve_states)
                settled = ok and (step is None or step[2] > val)
                if step is not None and step[2] > val:
                    improved = improved or step[2] > val + cfg.tol
                    slots, tables, val = step
            lik = _likelihoods(tables, c)
            ml_idx = _ml_decoder(lik)
            ml_val = _key_info(lik, ml_idx)
            if ml_val >= val - cfg.tol:
                improved = improved or ml_val > val
                settled = settled and np.array_equal(ml_idx, idx)
                idx, val = ml_idx, ml_val
            if val > best[0]:
                best = (val, slots, idx)
            if not improved:
                break
    _, slots, idx = best
    return EveStrategy([Povm(effects) for effects in slots], idx)


def _joint_value_and_grad(
    c: Codebook, decoder_idx: np.ndarray, tables: list[np.ndarray], free: list[int], groups
):
    """The adversary's information as a function of the free slots' piece tables.

    Returns the value function of ``information._frame_rows`` for one row
    and no tail: value_fn(Ps, tail) gives the value (1,), its gradient in Ps
    and a zero (1, 0) gradient in the tail. Ps[0, f, a, r] is the Born
    probability of slot free[f]'s piece r (of outcome groups[f][r]) on
    letter a, the free slots' tables zero-padded to one (1, F, A, R) array,
    of which each slot reads its own columns and gets a gradient of the same
    shape, zero in the padding; one free slot's is (1, 1, A, r). The other
    slots keep their ``tables``. The key channel sums the likelihoods lik[k, t] over
    the tuples t decoded to each key, and ``_mi_and_grad`` gives
    G[k, e] = d value / d chan[k, e].

    One free slot i: everything but slot i's table is fixed for the whole
    ascent, so S[k, r, e], the product of the other slots' likelihoods
    summed over the tuples whose slot-i outcome is piece r's and whose key
    is e, is contracted once, here. Then chan[k, e] = sum_r Ps[a_i(k), r]
    S[k, r, e] and d value / d Ps[a, r] = sum over the keys k with
    a_i(k) = a of sum_e G[k, e] S[k, r, e]: O(K r K) per evaluation, against
    O(n K prod_j m_j) for the tuple contraction.

    Several free slots: lik[k, t] is the product of every slot's letter
    column table_j[:, a_j(k)], the fixed slots' taken once, here. With
    W[k, t] = G[k, idx[t]], slot i's gradient contracts W with the other
    slots' letter columns, summed back onto letters and pieces.
    """
    k, n = len(c), len(tables)
    prior = np.full(k, 1.0 / k)
    no_tail = np.zeros((1, 0))
    letters = c.letters.T
    counts = [t.shape[0] for t in tables]
    if len(free) == 1:
        (i,), (g,) = free, groups
        rest = list(tables)
        rest[i] = np.ones_like(tables[i])
        lik = _likelihoods(rest, c)
        # Tuple t's slot-i outcome, and the flat (k, outcome, key) cell of lik[k, t].
        outcome = np.arange(lik.shape[1]) // math.prod(counts[i + 1 :]) % counts[i]
        cell = (np.arange(k)[:, None] * counts[i] + outcome) * k + decoder_idx
        s = np.bincount(cell.ravel(), weights=lik.ravel(), minlength=k * counts[i] * k)
        s = s.reshape(k, counts[i], k)[:, g, :]
        slot_letters = letters[i]
        slot_onehot = np.eye(tables[i].shape[1])[slot_letters].T

        def value_fn(ps: np.ndarray, tail: np.ndarray):
            value, gk = _mi_and_grad(prior, np.einsum("kr,kre->ke", ps[0, 0][slot_letters], s))
            grad = slot_onehot @ np.einsum("ke,kre->kr", gk, s)
            return np.array([value]), grad[None, None], no_tail

        return value_fn

    onehot = [np.eye(tables[0].shape[1])[a] for a in letters]
    decode = np.eye(k)[decoder_idx]
    sums = [np.eye(g.max() + 1)[g] for g in groups]
    fixed = [t[:, a] for t, a in zip(tables, letters)]

    def value_fn(ps: np.ndarray, tail: np.ndarray):
        cols = list(fixed)
        for i, p, m in zip(free, ps[0], sums):
            cols[i] = (p[:, : len(m)] @ m).T[:, letters[i]]
        value, g = _mi_and_grad(prior, _column_likelihoods(cols) @ decode)
        w = (g @ decode.T).reshape([k] + counts)
        labelled = [(col, [j + 1, 0]) for j, col in enumerate(cols)]
        grads = np.zeros_like(ps)
        for f, (i, m) in enumerate(zip(free, sums)):
            others = [x for j, col in enumerate(labelled) if j != i for x in col]
            dcol = np.einsum(w, list(range(n + 1)), *others, [i + 1, 0])
            grads[0, f, :, : len(m)] = (dcol @ onehot[i]).T @ m.T
        return np.array([value]), grads, no_tail

    return value_fn


def _refine_slots(
    slots: list[np.ndarray],
    tables: list[np.ndarray],
    free: list[int],
    c: Codebook,
    decoder_idx: np.ndarray,
    eve_states: np.ndarray,
) -> tuple[tuple[list[np.ndarray], list[np.ndarray], float] | None, bool]:
    """One ascent over the stacked effects of the slots in ``free``, all else fixed.

    Runs ``information._ascend_frames`` on one row, one frame per free slot
    and no tail, with ``_joint_value_and_grad``'s value function. No outcome
    count may change (the decoder is defined on the outcome tuples), so each
    frame holds the slot's rank-one pieces, whose probabilities are summed
    back into its outcomes; slot free[f] reads its rows of the row's
    zero-padded (F, R, d) end. Returns all slots' effects and tables and their
    exactly scored information, or None at once when the ascent took no step
    or a frame fails ``_normalized_frames``, and whether the ascent met its
    stop (False when a frame fails); the caller decides whether the step
    beats its running value.
    """
    frames, groups = zip(*(_rank1_pieces(slots[i]) for i in free))
    value_fn = _joint_value_and_grad(c, decoder_idx, tables, free, groups)
    gtol = _SEESAW_JOINT_GTOL if len(free) > 1 else _SLOT_GTOL
    (w,), _, (ok,), (moved,) = _ascend_frames(eve_states, _padded(frames)[None], np.zeros((1, 0)),
                                              value_fn, gtol, _SLOT_ASCENT_MAX_ITERS * len(free))
    if not moved:
        return None, bool(ok)
    us, good = _normalized_frames(w)
    if not good.all():
        return None, False
    slots, tables = list(slots), list(tables)
    for i, u, g in zip(free, us, groups):
        u = u[: len(g)]
        slots[i] = np.einsum("ro,ri,rj->oij", np.eye(len(slots[i]))[g], u, u.conj())
        tables[i] = _born_table(slots[i], eve_states).T
    return (slots, tables, _key_info(_likelihoods(tables, c), decoder_idx)), bool(ok)


def _receiver_law(letters: np.ndarray, factors, root: np.ndarray, slot_ops) -> np.ndarray:
    """p(b, t | k) = Tr[M_b (x)_i X_{w_k,i}(o_i)] for every codeword k, effect b, outcome tuple t.

    ``factors`` and ``root`` are ``bob_decoder``'s for the codebook ``letters``.
    ``slot_ops[i]`` stacks X_a(o) for every letter a and outcome o of slot i,
    shape (A, m_i, d_b, d_b). Since M_b = M_b^inf (x) (x) Pi_a, the law is the
    informative slots' law times q_i(o) = Tr[Pi_a X_a(o)] of every constant
    slot i with letter a, all multiplied in one broadcast.

    X_a(o) <= rho_a lies in A_a's column space, so X_a(o) = A_a C_a(o)
    A_a^dagger with C_a(o) = A_a^+ X_a(o) A_a^+dagger, and on the informative
    slots the law is Tr[W_bk^dagger W_bk C_k(t)], where W_bk is block (b, k)
    of ``root`` and C_k(t) = (x)_i C_{w_k,i}(o_i). Each codeword takes one
    pass: the trace is taken one slot at a time, each slot consuming its rank
    indices, so no C_k(t) is built for all tuples at once. Returns the real
    array of shape (K, K, M), tuples in lexicographic order.
    """
    k = len(letters)
    inf = _informative(letters)
    ranks = [f.shape[1] for f in factors]
    sizes = _codeword_sizes(factors, letters[:, inf])
    ends = np.cumsum(sizes)
    # A_a's columns are orthogonal, so A_a^+ = (A_a / |a_r|^2)^dagger.
    pinvs = [f / (abs(f) ** 2).sum(axis=0) for f in factors]
    # coords[i][a][o] = C_a(o), informative slots
    coords = [
        [p.conj().T @ x[a] @ p for a, p in enumerate(pinvs)]
        for x, keep in zip(slot_ops, inf)
        if keep
    ]
    law = []
    for word, end, rest in zip(letters[:, inf], ends, sizes):
        t = np.stack([w.conj().T @ w for w in np.split(root[:, end - rest:end], ends[:-1])])
        for c, a in zip(coords, word):
            rest //= ranks[a]
            t = t.reshape(-1, ranks[a], rest, ranks[a], rest)
            t = np.einsum("paxby,oba->poxy", t, c[a])
        law.append(t.reshape(k, -1).real)
    law = np.stack(law)
    if inf.all():
        return law
    # Pi_a = A_a^+dagger A_a^dagger
    consts = [
        np.einsum("ij,oji->o", pinvs[a] @ factors[a].conj().T, x[a]).real
        for x, a, keep in zip(slot_ops, letters[0], inf)
        if not keep
    ]
    const_law = reduce(np.multiply.outer, consts)
    counts = [x.shape[1] for x in slot_ops]
    law = law.reshape(k, k, *np.where(inf, counts, 1))
    law = law * const_law.reshape(np.where(inf, 1, counts))
    return law.reshape(k, k, -1)


def evaluate(s: Scenario, c: Codebook, me: EveStrategy) -> KeySimReport:
    """Exact joint distribution of the pipeline for the codebook and the attack.

    The channel is memoryless and the attack factorized, so for codeword w
    p(b, o_1..o_n | w) = Tr[M_b (x)_i X_{w_i}(o_i)], where
    X_a(o) = Tr_E[(I (x) E_o) Theta(xi_a)] is an operator on one receiver
    letter space. With G^(1/2) this is Tr[W_bk^dagger W_bk C_k(t)] on the
    codeword span of the informative columns times the constant slots' Born
    probabilities (``_receiver_law``), contracted slot by slot for every
    outcome tuple, in lexicographic order of the effect positions, and
    ``me.decoder`` maps the tuple at each position to a key; neither a block
    state nor the expanded adversary POVM is built. The pretty-good
    measurement's completion on the kernel of the average block state adds
    nothing, because (x)_i X_{w_i}(o_i) lies in the support of rho_w. K_B is
    the position of the receiver's effect. The receiver is ``bob_decoder``'s
    for this codebook, built here once the attack has passed its checks. A
    codeword letter outside the alphabet, a decoder key outside 0..K-1 or
    more outcome tuples than the budget is rejected.
    """
    k = s.key_count
    if len(c) != k:
        raise DimensionMismatch(f"codebook has {len(c)} words for {k} keys")
    d_b, d_e, n = s.dim_b, s.dim_e, c.length
    if me.n != n:
        raise DimensionMismatch(f"adversary strategy has {me.n} slots for block length {n}")
    if any(p.dim != d_e for p in me.slots):
        raise DimensionMismatch("adversary slot POVMs must act on the adversary letter space")
    if me.decoder.max() >= k:
        raise ValidationError("decoder-range", f"decoder key {me.decoder.max()} >= {k} keys")
    _check_tuple_count((len(p) for p in me.slots), n)
    factors, root = bob_decoder(s, c)

    taus = np.stack([s.theta.apply_matrix(rho) for rho in s.ensemble.states])
    taus = taus.reshape(-1, d_b, d_e, d_b, d_e)
    # slot_ops[i][a, o] = X_a(o) for slot i's POVM
    slot_ops = [np.einsum("aiejf,ofe->aoij", taus, povm.effects) for povm in me.slots]
    probs = np.clip(_receiver_law(c.letters, factors, root, slot_ops), 0.0, None)

    joint = np.zeros((k, k, k))
    for key in range(k):
        for b, row in enumerate(probs[key]):
            joint[key, b, :] = np.bincount(me.decoder, weights=row, minlength=k) / k
    p_agree = float(sum(joint[i, i, :].sum() for i in range(k)))
    prior = np.full(k, 1.0 / k)
    bob_info = _mi_from_probs(prior, joint.sum(axis=2) * k)
    eve_info = _mi_from_probs(prior, joint.sum(axis=1) * k)
    return KeySimReport(joint=joint, p_agree=p_agree, bob_info=bob_info, eve_info=eve_info)


def run_cell(
    s: Scenario, n: int, coder: str, seed: int, eve: str, cfg: OptimizerConfig
) -> KeySimReport:
    """One pipeline run at block length ``n``.

    Builds the codebook (``coder`` "repetition", or "random" drawn from
    ``seed``) and the adversary (``eve`` "default", or "optimized" by the
    seesaw under ``cfg``), then evaluates exactly, which builds the
    receiver's decoder.
    """
    if coder == "repetition":
        book = repetition_codebook(s.key_count, n)
    elif coder == "random":
        book = sample_codebook(s.key_count, n, s.ensemble.size, seed)
    else:
        raise ValidationError("coder", f"unknown coder {coder!r}")
    if eve == "default":
        me = eve_default_strategy(s, book)
    elif eve == "optimized":
        me = eve_optimize(s, book, cfg)
    else:
        raise ValidationError("eve", f"unknown adversary choice {eve!r}")
    return evaluate(s, book, me)


def sweep(
    s: Scenario,
    n_range,
    seeds,
    cfg: OptimizerConfig,
    coder: str = "repetition",
    eve: str = "default",
) -> list[SweepCell]:
    """Evaluate a grid of (block length, seed) cells.

    Cells are independent and deterministically sub-seeded; failures
    (budget, validation) become per-cell error markers instead of aborting
    the sweep. Results come back sorted by (n, seed).
    """
    cells = []
    for n, seed in sorted(itertools.product((int(x) for x in n_range), (int(x) for x in seeds))):
        cell = SweepCell(scenario=s.name, n=n, seed=seed, coder=coder, eve=eve)
        try:
            sub_seed = int(np.random.SeedSequence((cfg.seed, n, seed)).generate_state(1)[0])
            sub_cfg = dataclasses.replace(cfg, seed=sub_seed)
            cell.report = run_cell(s, n, coder, seed, eve, sub_cfg)
        except (ValidationError, BudgetExceeded, DimensionMismatch) as exc:
            cell.error = str(exc)
        cells.append(cell)
    return cells
