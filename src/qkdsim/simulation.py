"""Exact finite-block simulation of the key-distribution pipeline.

One run of the pipeline: a uniform key K_A selects a codeword, each letter
is encoded and sent through the channel, the receiver measures the whole
block with a collective POVM (the pretty-good measurement over codeword
block states) while the adversary measures slot by slot with a factorized
POVM and post-processes outcomes through a classical decoding function.
Its optimized attack comes from a seesaw that alternates per-slot ascents,
joined by one ascent over all slots once they stall, with the
maximum-likelihood decoder. The channel is memoryless, so block states
are Kronecker products of single-letter states, and the joint law is
contracted one slot at a time; no operator on the joint
receiver/adversary block space is ever built. The joint law of
(K_A, K_B, K_E) is computed exactly by enumerating all outcome tuples;
there is no Monte Carlo anywhere, so agreement probability and adversary
information are sharp numbers and runs are bit-identical for fixed seeds.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .channels import (
    DEFAULT_DIM_BUDGET,
    Codeword,
    CqEnsemble,
    QuantumChannel,
    apply,
    marginal,
    push_through,
)
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .information import (
    OptimizerConfig,
    _ascend_povm,
    _born_table,
    _mi_and_grad,
    _mi_from_probs,
    _rank1_pieces,
)
from .measurements import (
    FactorizedPovm,
    Povm,
    helstrom,
    pretty_good_measurement,
    random_rank1_povm,
)
from .states import DensityOperator

# Iteration cap of the slot ascent per free slot; C1's ascent uses 300.
_SLOT_ASCENT_MAX_ITERS = 200
# A seesaw round whose per-slot pass gains less than this many bits has
# stalled; it adds one joint ascent over all slots, which stops at a
# projected gradient of _JOINT_GTOL (the per-slot ascents keep L-BFGS-B's 1e-5).
_STALL_BITS = 1e-4
_JOINT_GTOL = 1e-8


@dataclass(frozen=True)
class Scenario:
    """The fixed part of a key-distribution system.

    ``key_count`` keys are encoded into length-``n`` codewords over the
    ensemble alphabet; ``theta`` maps each transmitted letter state into
    the receiver/adversary pair space (its output factorization gives the
    B/E split).
    """

    name: str
    key_count: int
    ensemble: CqEnsemble
    theta: QuantumChannel
    n: int = 1
    budget: int = DEFAULT_DIM_BUDGET
    classical_pair: tuple | None = None

    def __post_init__(self):
        if self.key_count < 2:
            raise ValidationError("key-count", f"need at least 2 keys, got {self.key_count}")
        if self.ensemble.dim != self.theta.in_dim:
            raise DimensionMismatch(
                f"ensemble dim {self.ensemble.dim} != channel input dim {self.theta.in_dim}"
            )
        if self.theta.out_factorization is None or len(self.theta.out_factorization) != 2:
            raise ValidationError(
                "output-factorization",
                "scenario channel needs a two-factor output (receiver/adversary split)",
            )
        if self.n < 1:
            raise ValidationError("block-length", f"n must be >= 1, got {self.n}")
        total = self.theta.out_dim**self.n
        if total > self.budget:
            raise BudgetExceeded(total, self.budget, f"scenario block length n={self.n}")

    @property
    def dim_b(self) -> int:
        return self.theta.out_factorization.dims[0]

    @property
    def dim_e(self) -> int:
        return self.theta.out_factorization.dims[1]

    def with_n(self, n: int) -> "Scenario":
        return dataclasses.replace(self, n=int(n))

    def eve_ensemble(self) -> CqEnsemble:
        """Single-letter ensemble seen by the adversary."""
        return push_through(self.ensemble, marginal(self.theta, "E"))

    def bob_ensemble(self) -> CqEnsemble:
        """Single-letter ensemble seen by the receiver."""
        return push_through(self.ensemble, marginal(self.theta, "B"))


@dataclass(frozen=True)
class Codebook:
    """One codeword per key, all of equal length."""

    words: tuple[Codeword, ...]

    def __post_init__(self):
        words = tuple(
            w if isinstance(w, Codeword) else Codeword(tuple(w)) for w in self.words
        )
        object.__setattr__(self, "words", words)
        if len(words) < 2:
            raise ValidationError("codebook", "need at least 2 codewords")
        n = len(words[0])
        if any(len(w) != n for w in words):
            raise ValidationError("codebook", "codewords must share one length")

    @property
    def length(self) -> int:
        return len(self.words[0])

    def __len__(self) -> int:
        return len(self.words)


def sample_codebook(key_count: int, n: int, alphabet_size: int, seed: int) -> Codebook:
    """Random coder realization: i.i.d. uniform letters, reproducible by seed."""
    if key_count < 2:
        raise ValidationError("key-count", f"need at least 2 keys, got {key_count}")
    rng = np.random.default_rng(seed)
    letters = rng.integers(0, alphabet_size, size=(key_count, n))
    return Codebook(tuple(Codeword(tuple(row)) for row in letters))


def repetition_codebook(key_count: int, n: int) -> Codebook:
    """Deterministic coder sending letter k for key k, n times."""
    return Codebook(tuple(Codeword((k,) * n) for k in range(key_count)))


class EveStrategy:
    """A factorized attack: per-slot POVMs plus a classical decoder.

    Membership in the individual-attack class holds by construction: the
    flat measurement is the coarse-graining of the expanded slot product
    under ``decoder``.
    """

    __slots__ = ("slots", "decoder", "descriptor")

    def __init__(self, slots: FactorizedPovm, decoder: dict, descriptor: str = "custom"):
        if not isinstance(slots, FactorizedPovm):
            raise ValidationError("slots", "slots must be a FactorizedPovm")
        decoder = dict(decoder)
        for combo in slots.outcome_tuples():
            if combo not in decoder:
                raise ValidationError("decoder-total", f"decoder misses outcome tuple {combo}")
        self.slots = slots
        self.decoder = decoder
        self.descriptor = descriptor

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
    metadata: dict = field(default_factory=dict)

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
    for word in c.words:
        for a in word.letters:
            if a < 0 or a >= s.ensemble.size:
                raise ValidationError(
                    "letter", f"letter {a} not in alphabet of size {s.ensemble.size}"
                )


def bob_decoder(s: Scenario, c: Codebook) -> Povm:
    """Pretty-good measurement over the receiver's codeword block states.

    The channel is memoryless, so a codeword's receiver state is the
    Kronecker product of the single-letter receiver states. The effects are
    entangled across slots in general; outcomes are the keys 0..K-1.
    """
    if c.length != s.n:
        raise DimensionMismatch(f"codebook length {c.length} != scenario block length {s.n}")
    _check_letters(s, c)
    letters = [rho.matrix for rho in s.bob_ensemble().states]
    block_states = [
        DensityOperator(reduce(np.kron, (letters[a] for a in word.letters))) for word in c.words
    ]
    priors = np.full(len(c), 1.0 / len(c))
    return pretty_good_measurement(block_states, priors)


def _eve_slot_states(s: Scenario) -> np.ndarray:
    return np.stack([rho.matrix for rho in s.eve_ensemble().states])


def _slot_channels(slots: FactorizedPovm, eve_states: np.ndarray) -> list[np.ndarray]:
    """Per-slot outcome-by-letter probability tables."""
    return [_born_table(np.stack(povm.effects), eve_states).T for povm in slots.slots]


def _likelihoods(tables: list[np.ndarray], c: Codebook) -> np.ndarray:
    """P(outcome tuple | codeword), shape (K, M), tuples in lexicographic order."""
    cols = [[t[:, a] for t, a in zip(tables, w.letters)] for w in c.words]
    return np.stack([reduce(np.multiply.outer, col).ravel() for col in cols])


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


def _decoder_index_array(slots: FactorizedPovm, decoder: dict, key_count: int) -> np.ndarray:
    """Decoder keys of the outcome tuples, in lexicographic tuple order."""
    idx = np.array([decoder[combo] for combo in slots.outcome_tuples()])
    if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= key_count:
        raise ValidationError("decoder-range", "decoder keys must be integers in the key set")
    return idx.astype(int)


def eve_default_strategy(s: Scenario, c: Codebook) -> EveStrategy:
    """Baseline attack: per-slot binary discrimination plus ML decoding.

    Each slot measures the adversary's single-letter ensemble with the
    Helstrom measurement (pretty-good measurement for non-binary
    alphabets); the decoder is maximum likelihood for the codebook, ties
    going to the lowest key index.
    """
    ee = s.eve_ensemble()
    if ee.size == 2:
        slot = helstrom(ee.states[0], ee.states[1], float(ee.prior[0]))
        label = "helstrom"
    else:
        slot = pretty_good_measurement(ee.states, ee.prior)
        label = "pgm"
    slots = FactorizedPovm([slot] * s.n)
    idx = _ml_decoder(_likelihoods(_slot_channels(slots, _eve_slot_states(s)), c))
    decoder = dict(zip(slots.outcome_tuples(), idx.tolist()))
    return EveStrategy(slots, decoder, descriptor=f"default({label}+ml)")


def eve_optimize(s: Scenario, c: Codebook, cfg: OptimizerConfig) -> EveStrategy:
    """Best factorized attack found by a seesaw between the slots and the decoder.

    Each round ascends each slot's POVM in turn (decoder and other slots
    fixed), then re-derives the maximum-likelihood decoder. Where that
    block-coordinate ascent only crawls along a ridge (the slots gain less
    than ``_STALL_BITS``), the round adds one joint ascent over every slot,
    which climbs to the ridge's top. All ascents are ``_refine_slots`` on the
    exact gradient of the adversary's information. ``cfg.restarts`` counts
    seesaw starts: 0 returns the default strategy untouched, start 0 refines
    the default and further starts are random rank-one POVMs with d_e^2
    outcomes per slot.

    The running value is always the exact information of the current slots
    and decoder. A slot's ascent is accepted only when it beats the running
    value by more than ``cfg.tol``; the joint ascent is kept whenever it
    raises the value, but only a gain above ``cfg.tol`` counts as progress.
    The maximum-likelihood decoder is adopted unless it lowers the value by
    more than ``cfg.tol`` (a decoder that is ML for the likelihoods need not
    maximize the mutual information). A round without progress ends the
    start. The best (value, slots, decoder) seen is returned, so the result
    never falls below the default and its information is the value recorded.
    """
    default = eve_default_strategy(s, c)
    if cfg.restarts == 0:
        return default
    eve_states = _eve_slot_states(s)
    d_e = s.dim_e
    best = None
    rng = np.random.default_rng(cfg.seed)
    for restart in range(cfg.restarts):
        if restart == 0:
            slot_povms = list(default.slots.slots)
        else:
            slot_povms = [random_rank1_povm(d_e, d_e * d_e, rng) for _ in range(s.n)]
        tables = _slot_channels(FactorizedPovm(slot_povms), eve_states)
        lik = _likelihoods(tables, c)
        idx = _ml_decoder(lik)
        val = _key_info(lik, idx)
        if best is None or val > best[0]:
            best = (val, FactorizedPovm(slot_povms), idx)
        for _ in range(cfg.max_iters):
            start, improved = val, False
            for i in range(s.n):
                step = _refine_slots(slot_povms, tables, [i], c, idx, eve_states)
                if step is not None and step[2] > val + cfg.tol:
                    slot_povms, tables, val = step
                    improved = True
            if s.n > 1 and val - start < _STALL_BITS:
                step = _refine_slots(slot_povms, tables, list(range(s.n)), c, idx, eve_states)
                if step is not None and step[2] > val:
                    improved = improved or step[2] > val + cfg.tol
                    slot_povms, tables, val = step
            lik = _likelihoods(tables, c)
            ml_idx = _ml_decoder(lik)
            ml_val = _key_info(lik, ml_idx)
            if ml_val >= val - cfg.tol:
                improved = improved or ml_val > val
                idx, val = ml_idx, ml_val
            if val > best[0]:
                best = (val, FactorizedPovm(slot_povms), idx)
            if not improved:
                break
    _, slots, idx = best
    decoder = dict(zip(slots.outcome_tuples(), idx.tolist()))
    descriptor = f"optimized(restarts={cfg.restarts},seed={cfg.seed})"
    return EveStrategy(slots, decoder, descriptor=descriptor)


def _joint_value_and_grad(
    c: Codebook, decoder_idx: np.ndarray, tables: list[np.ndarray], free: list[int], groups
):
    """The adversary's information as a function of the free slots' piece tables.

    Returns value_and_grad(Ps) for ``_ascend_povm``: Ps[f][a, r] is the Born
    probability of slot free[f]'s piece r (of outcome groups[f][r]) on
    letter a; the other slots keep their ``tables``. The key channel sums
    the likelihoods lik[k, t] over the tuples t decoded to each key, so
    d value / d lik[k, t] = W[k, t] = G[k, idx[t]] with G from
    ``_mi_and_grad``. Slot i's gradient contracts W with the other slots'
    letter columns table_j[:, a_j(k)], summed back onto letters and pieces.
    """
    k, n = len(c), len(tables)
    prior = np.full(k, 1.0 / k)
    sums = [np.eye(g.max() + 1)[g] for g in groups]
    letters = [np.array([w.letters[i] for w in c.words]) for i in range(n)]
    onehot = [np.eye(tables[0].shape[1])[a] for a in letters]
    decode = np.eye(k)[decoder_idx]

    def value_and_grad(ps: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        tabs = list(tables)
        for i, p, m in zip(free, ps, sums):
            tabs[i] = (p @ m).T
        value, g = _mi_and_grad(prior, _likelihoods(tabs, c) @ decode)
        w = (g @ decode.T).reshape([k] + [t.shape[0] for t in tabs])
        cols = [(t[:, a], [i + 1, 0]) for i, (t, a) in enumerate(zip(tabs, letters))]
        grads = []
        for i, m in zip(free, sums):
            others = [x for j, col in enumerate(cols) if j != i for x in col]
            dcol = np.einsum(w, list(range(n + 1)), *others, [i + 1, 0])
            grads.append((dcol @ onehot[i]).T @ m.T)
        return value, grads

    return value_and_grad


def _refine_slots(
    slot_povms: list[Povm],
    tables: list[np.ndarray],
    free: list[int],
    c: Codebook,
    decoder_idx: np.ndarray,
    eve_states: np.ndarray,
) -> tuple[list[Povm], list[np.ndarray], float] | None:
    """One ascent over the POVMs of the slots in ``free``, all else fixed.

    Runs ``information._ascend_povm`` with one frame per free slot on
    ``_joint_value_and_grad``. No outcome count may change (the decoder is
    defined on the outcome tuples), so each frame holds the slot's rank-one
    pieces, whose probabilities are summed back into its outcomes. Returns
    all slots' POVMs and tables and their exactly scored information, or
    None when the ascent yields no valid POVM; the caller decides whether
    they beat its running value.
    """
    frames, groups = zip(*(_rank1_pieces(slot_povms[i]) for i in free))
    value_and_grad = _joint_value_and_grad(c, decoder_idx, tables, free, groups)
    gtol = _JOINT_GTOL if len(free) > 1 else 1e-5
    us, _ = _ascend_povm(eve_states, frames, value_and_grad, _SLOT_ASCENT_MAX_ITERS * len(free), gtol)
    if us is None:
        return None
    povms = list(slot_povms)
    try:
        for i, u, g in zip(free, us, groups):
            effects = np.einsum("ro,ri,rj->oij", np.eye(len(povms[i]))[g], u, u.conj())
            povms[i] = Povm(effects, outcomes=povms[i].outcomes)
    except ValidationError:
        return None
    tables = _slot_channels(FactorizedPovm(povms), eve_states)
    return povms, tables, _key_info(_likelihoods(tables, c), decoder_idx)


def _block_law(effects: np.ndarray, slot_ops: list[np.ndarray]) -> np.ndarray:
    """Tr[M_b (x)_i X_i(o_i)] for every block effect M_b and outcome tuple.

    ``effects`` stacks the block effects, shape (K, D, D); ``slot_ops[i]``
    stacks slot i's operators X_i(o), shape (m_i, d, d). The trace is taken
    one slot at a time. Rows follow the effects, columns the outcome tuples
    in lexicographic order.
    """
    t = effects
    rest = effects.shape[1]
    for x in slot_ops:
        d = x.shape[1]
        rest //= d
        t = np.einsum("prqcs,ocr->poqs", t.reshape(-1, d, rest, d, rest), x)
    return t.reshape(len(effects), -1)


def evaluate(
    s: Scenario, c: Codebook, mb: Povm, me: EveStrategy, metadata: dict | None = None
) -> KeySimReport:
    """Exact joint distribution of the pipeline for the given strategies.

    The channel is memoryless and the attack factorized, so for codeword w
    p(b, o_1..o_n | w) = Tr[M_b (x)_i X_{a_i}(o_i)], where
    X_a(o) = Tr_E[(I (x) E_o) Theta(xi_a)] is an operator on one receiver
    letter space. The trace is contracted slot by slot for every outcome
    tuple, which the decoder then maps to a key; neither the joint block
    state nor the expanded adversary POVM is built. K_B is the outcome label
    of the receiver's effect, not its position in the POVM.
    """
    k = s.key_count
    if len(c) != k:
        raise DimensionMismatch(f"codebook has {len(c)} words for {k} keys")
    if c.length != s.n:
        raise DimensionMismatch(f"codebook length {c.length} != block length {s.n}")
    d_b, d_e, n = s.dim_b, s.dim_e, s.n
    if mb.dim != d_b**n:
        raise DimensionMismatch(f"receiver POVM dim {mb.dim} != block dim {d_b**n}")
    if len(mb) != k or set(mb.outcomes) != set(range(k)):
        raise ValidationError("bob-outcomes", "receiver POVM outcomes must be the key set")
    if me.n != n:
        raise DimensionMismatch(f"adversary strategy has {me.n} slots for block length {n}")
    if any(p.dim != d_e for p in me.slots.slots):
        raise DimensionMismatch("adversary slot POVMs must act on the adversary letter space")
    _check_letters(s, c)
    decoder_idx = _decoder_index_array(me.slots, me.decoder, k)

    taus = np.stack(
        [apply(s.theta, rho).matrix.reshape(d_b, d_e, d_b, d_e) for rho in s.ensemble.states]
    )
    # slot_ops[i][a, o] = X_a(o) for slot i's POVM
    slot_ops = [
        np.einsum("aiejf,ofe->aoij", taus, np.stack(povm.effects)) for povm in me.slots.slots
    ]
    effects = np.stack(mb.effects)

    joint = np.zeros((k, k, k))
    for key, word in enumerate(c.words):
        law = _block_law(effects, [x[a] for x, a in zip(slot_ops, word.letters)])
        probs = np.clip(law.real, 0.0, None)
        for b_label, row in zip(mb.outcomes, probs):
            joint[key, b_label, :] = np.bincount(decoder_idx, weights=row, minlength=k) / k
    p_agree = float(sum(joint[i, i, :].sum() for i in range(k)))
    prior = np.full(k, 1.0 / k)
    bob_info = _mi_from_probs(prior, joint.sum(axis=2) * k)
    eve_info = _mi_from_probs(prior, joint.sum(axis=1) * k)
    meta = {
        "scenario": s.name,
        "n": n,
        "key_count": k,
        "eve": me.descriptor,
        "codebook": [list(w.letters) for w in c.words],
    }
    if metadata:
        meta.update(metadata)
    return KeySimReport(joint=joint, p_agree=p_agree, bob_info=bob_info, eve_info=eve_info, metadata=meta)


def run_cell(s: Scenario, coder: str, seed: int, eve: str, cfg: OptimizerConfig) -> KeySimReport:
    """One pipeline run at block length ``s.n``.

    Builds the codebook (``coder`` "repetition", or "random" drawn from
    ``seed``), the receiver's decoder and the adversary (``eve`` "default",
    or "optimized" by the seesaw under ``cfg``), then evaluates exactly.
    """
    if coder == "repetition":
        book = repetition_codebook(s.key_count, s.n)
    elif coder == "random":
        book = sample_codebook(s.key_count, s.n, s.ensemble.size, seed)
    else:
        raise ValidationError("coder", f"unknown coder {coder!r}")
    mb = bob_decoder(s, book)
    if eve == "default":
        me = eve_default_strategy(s, book)
    elif eve == "optimized":
        me = eve_optimize(s, book, cfg)
    else:
        raise ValidationError("eve", f"unknown adversary choice {eve!r}")
    return evaluate(s, book, mb, me, metadata={"seed": seed, "coder": coder})


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
            cell.report = run_cell(s.with_n(n), coder, seed, eve, sub_cfg)
        except (ValidationError, BudgetExceeded, DimensionMismatch) as exc:
            cell.error = str(exc)
        cells.append(cell)
    return cells
