"""Reference computations that freeze expected test values, one per algorithm.

Test helpers: ``tensor``, ``von_neumann_entropy`` and ``depolarizing_channel``
build states and channels the package has no need of.
``povm_invariant`` checks a POVM one effect at a time, against which the
batched ``Povm`` check is tested.
The closed forms (``binary_entropy``, ``pure_pair_capacity``,
``helstrom_crossover``, ``pure_pair_c1``, ``block_success``,
``majority_error``, ``majority_vote_info``) give the exact values of pure
pairs, repetition codes and majority votes.
``_pair_bound`` is the closed form of two letters at their Uhlmann fidelity,
C1 of two pure letters and an upper bound on C1 of any pair.
``grid_c1_qubit`` is C1 of a pure qubit pair by a dense grid over projective
measurements and priors, independent of every optimizer.
``partial_trace``, ``coarse_grain`` and ``dense_pgm`` are the dense forms of
the marginals, the coarse-grained POVM and the receiver's pretty-good
measurement, built on the full space.
``rank1_pieces_per_effect``, ``start_frame``, ``normalized``, ``frame_table``
and ``mi_from_probs`` are the start set's per-start path, one effect and one
start at a time, against which the stacked start set is checked bit for bit.
``povm_objective_per_frame`` and ``tuple_key_information`` are the POVM
objective one frame at a time and the adversary's information contracted
over every outcome tuple, which check the package's gradients.
``classical_capacity_ba`` and ``holevo_capacity_ba`` are plain
Blahut-Arimoto run to a duality gap of 1e-12, the capacities C1 and C are
checked against.
``lbfgs_b`` and ``ascend_povm_lbfgsb`` climb on scipy's L-BFGS-B instead of
the package's own L-BFGS, on the package's frame objective (``frame_row``).
``eve_seesaw`` is the adversary's seesaw with the per-slot pass in every
round: on ``refine_slots_lbfgsb`` and ``REF_STALL_BITS`` it is the
independent L-BFGS-B seesaw that ``simulation.eve_optimize`` must never
report less than, and on ``package_refine_slots`` and
``simulation._STALL_BITS`` it is the seesaw that ``eve_optimize`` must equal
bit for bit.
``per_start_c1`` climbs every C1 start on its own: with ``alternating`` it is
the reference seesaw with its own prior search (``_best_prior``), without it
C1 as it ran before its starts were stacked; ``sequential_c_k`` and
``sequential_accessible`` are C_k and accessible information the same way.
``history_c1`` is C1 on the package's stacked ascents from the earlier start
set (``structured_starts``), every start climbed, which ``information.c1``
must equal on two pure letters and never fall below elsewhere; with
``two_letter_stop=False`` it takes the confirming round it retired.
``lbfgs_rows_reference`` and ``PairsReference`` are the package's L-BFGS as it
held each row's scalars in numpy arrays, which ``_lbfgs_rows`` must match bit
for bit.
"""

import itertools
import math
from functools import reduce

import numpy as np
from scipy import optimize

from qkdsim import information as info
from qkdsim import simulation as sim
from qkdsim.channels import CqEnsemble, QuantumChannel
from qkdsim.measurements import (
    COMPLETENESS_ATOL,
    EFFECT_PSD_ATOL,
    Povm,
    _born_table,
    _normalized_frames,
    expand,
    helstrom,
    pretty_good_measurement,
    random_rank1_povm,
)
from qkdsim.states import DensityOperator


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product state a (x) b on the joint space."""
    return DensityOperator(np.kron(a.matrix, b.matrix))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -Tr(rho log2 rho) in bits, eigenvalues clipped to [0, 1], 0 log 0 = 0."""
    eigs = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, 1.0)
    pos = eigs[eigs > 0.0]
    return float(-(pos * np.log2(pos)).sum()) if pos.size else 0.0


def depolarizing_channel(lam: float) -> QuantumChannel:
    """Qubit depolarizing channel rho -> (1-lam) rho + lam I/2, in Kraus form."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    weights = [1 - 3 * lam / 4] + [lam / 4] * 3
    return QuantumChannel([math.sqrt(w) * np.asarray(m, dtype=complex) for w, m in zip(weights, paulis)])


def povm_invariant(effects) -> str | None:
    """The invariant a POVM's effects fail, checked one effect at a time, or None.

    Per effect in order: finiteness ("effects"), Hermiticity
    ("effect-hermitian") and positivity ("effect-positive"); then
    completeness of their sum.
    """
    for m in effects:
        if not np.isfinite(m).all():
            return "effects"
        if np.abs(m - m.conj().T).max() > EFFECT_PSD_ATOL:
            return "effect-hermitian"
        if np.linalg.eigvalsh(m).min() < -EFFECT_PSD_ATOL:
            return "effect-positive"
    if np.abs(sum(effects) - np.eye(len(effects[0]))).max() > COMPLETENESS_ATOL:
        return "completeness"
    return None


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def pure_pair_capacity(s: float) -> float:
    """Holevo capacity of two equiprobable pure states with overlap s."""
    return binary_entropy((1 - s) / 2)


def helstrom_crossover(s: float) -> float:
    """Error probability of optimal discrimination of an equiprobable pure pair."""
    return (1 - math.sqrt(1 - s * s)) / 2


def pure_pair_c1(s: float) -> float:
    """Single-copy capacity of the pure pair: Helstrom channel at uniform prior."""
    return 1.0 - binary_entropy(helstrom_crossover(s))


def _pair_bound(stack: np.ndarray) -> float:
    """1 - h((1 - sqrt(1 - F)) / 2), F = ||sqrt(rho_0) sqrt(rho_1)||_1^2 the
    Uhlmann fidelity of the two letters' parts above 1e-12
    (``_rank1_pieces``), normalized: C1 of two pure letters (Levitin 1995),
    and at least C1 of any pair, whose purifications at overlap sqrt(F)
    (Uhlmann 1976) lose no C1 to a partial trace."""
    pieces, groups = info._rank1_pieces(stack)
    a, b = pieces[groups == 0], pieces[groups == 1]
    overlap = np.linalg.svd(a.conj() @ b.T, compute_uv=False).sum()
    fidelity = overlap**2 / (np.vdot(a, a).real * np.vdot(b, b).real)
    x = (1.0 - math.sqrt(max(1.0 - fidelity, 0.0))) / 2.0
    return 1.0 - binary_entropy(x)


def block_success(s: float, n: int) -> float:
    """Two-codeword block discrimination success with per-letter overlap s."""
    return (1 + math.sqrt(1 - s ** (2 * n))) / 2


def majority_error(eps: float, n: int) -> float:
    """Majority-vote error of n independent symmetric slots (odd n)."""
    total = 0.0
    for k in range((n // 2) + 1, n + 1):
        total += math.comb(n, k) * eps**k * (1 - eps) ** (n - k)
    return total


def majority_vote_info(eps: float, n: int) -> float:
    """I(K_A; K_E) in bits of a majority vote over n slots of a repetition code.

    Each slot is misread with probability eps; a tied vote (even n) decodes
    to key 0.
    """
    below = sum(math.comb(n, m) * eps**m * (1 - eps) ** (n - m) for m in range(n + 1) if m < n / 2)
    tie = math.comb(n, n // 2) * (eps * (1 - eps)) ** (n // 2) if n % 2 == 0 else 0.0
    given_0, given_1 = below + tie, 1 - below  # P(decoded 0 | key 0), P(decoded 0 | key 1)
    noise = (binary_entropy(given_0) + binary_entropy(given_1)) / 2
    return binary_entropy((given_0 + given_1) / 2) - noise


def _bloch(v: np.ndarray) -> np.ndarray:
    rho = np.outer(v, v.conj())
    return np.array(
        [2 * rho[0, 1].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def grid_c1_qubit(psi0, psi1, n_angle: int = 1501, n_prior: int = 1501) -> float:
    """Brute-force single-copy capacity of a binary pure qubit ensemble.

    Scans projective measurements along axes in the Bloch plane spanned by
    the two states (components orthogonal to that plane only dilute the
    statistics) jointly with a dense prior grid.
    """
    r0, r1 = _bloch(np.asarray(psi0, complex)), _bloch(np.asarray(psi1, complex))
    e1 = r0 / np.linalg.norm(r0)
    r1p = r1 - (r1 @ e1) * e1
    if np.linalg.norm(r1p) < 1e-12:
        e2 = np.zeros(3)
        e2[int(np.argmin(np.abs(e1)))] = 1.0
        e2 -= (e2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
    else:
        e2 = r1p / np.linalg.norm(r1p)
    angles = np.linspace(0.0, np.pi, n_angle)
    axes = np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)
    q0 = 0.5 * (1 + axes @ r0)
    q1 = 0.5 * (1 + axes @ r1)
    ps = np.linspace(0.0, 1.0, n_prior)

    def h(x):
        x = np.clip(x, 0.0, 1.0)
        out = np.zeros_like(x)
        m = (x > 0) & (x < 1)
        out[m] = -x[m] * np.log2(x[m]) - (1 - x[m]) * np.log2(1 - x[m])
        return out

    mix = ps[:, None] * q0[None, :] + (1 - ps)[:, None] * q1[None, :]
    vals = h(mix) - ps[:, None] * h(q0)[None, :] - (1 - ps)[:, None] * h(q1)[None, :]
    return float(vals.max())


def partial_trace(matrix: np.ndarray, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor of ``matrix`` (factor sizes ``dims``) but ``keep``."""
    n = len(dims)
    cols = [n + i if i == keep else i for i in range(n)]
    return np.einsum(matrix.reshape(tuple(dims) * 2), list(range(n)) + cols, [keep, n + keep])


def coarse_grain(effects, labels, count: int) -> np.ndarray:
    """Effects of the POVM that reports ``labels[b]`` in place of outcome b.

    One effect per label 0..count-1, the sum of the effects mapped to it.
    """
    out = np.zeros((count,) + np.shape(effects[0]), dtype=complex)
    for effect, label in zip(effects, labels):
        out[label] += effect
    return out


def dense_pgm(block_states) -> np.ndarray:
    """Pretty-good measurement of equiprobable states, built on their full space.

    Effects S rho_k S / K with S the inverse square root of the average state
    on its support (eigenvalues above 1e-12); the kernel projector goes to
    outcome 0. Returns the stacked effects, one per state.
    """
    k = len(block_states)
    avg = sum(block_states) / k
    vals, vecs = np.linalg.eigh(avg)
    support = vals > 1e-12
    s = (vecs[:, support] / np.sqrt(vals[support])) @ vecs[:, support].conj().T
    effects = np.stack([s @ rho @ s / k for rho in block_states])
    kern = vecs[:, ~support]
    effects[0] += kern @ kern.conj().T
    return effects


def rank1_pieces_per_effect(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one split of stacked effects, one eigendecomposition per effect.

    Each effect's eigenvectors, eigenvalues descending (the order of
    ``states.hermitian_eigensystem``), scaled by sqrt(lam) for lam above
    1e-12; an effect with none keeps one zero row. Returns the rows and the
    effect index of each row.
    """
    vecs, groups = [], []
    for b, m in enumerate(effects):
        vals, basis = np.linalg.eigh(m)
        vals, basis = vals[::-1], basis[:, ::-1]
        kept = [np.sqrt(lam) * v for lam, v in zip(vals, basis.T) if lam > 1e-12]
        kept = kept or [np.zeros(effects.shape[-1], dtype=complex)]
        vecs += kept
        groups += [b] * len(kept)
    return np.stack(vecs), np.array(groups)


def start_frame(povm, stack) -> tuple[np.ndarray, np.ndarray]:
    """One start POVM's rank-one frame (its nonzero pieces, split one effect
    at a time) and the Born table of its own effects."""
    pieces, _ = rank1_pieces_per_effect(povm.effects)
    table = np.clip(np.einsum("bij,aji->ab", povm.effects, stack).real, 0.0, None)
    return pieces[pieces.any(axis=1)], table


def normalized(w):
    """One raw frame's rank-one POVM vectors u = w T^(-1/2), T = sum_b
    |w_b><w_b| the frame operator, so that sum_b |u_b><u_b| = I; or None
    when T is singular (the rows do not span) or the vectors miss the
    identity by more than ``COMPLETENESS_ATOL``."""
    vals, vecs = np.linalg.eigh(np.einsum("bi,bj->ij", w, w.conj()))
    if vals.min() < 1e-12:
        return None
    u = w @ ((vecs / np.sqrt(vals)) @ vecs.conj().T).T
    if np.abs(u.T @ u.conj() - np.eye(u.shape[1])).max() > COMPLETENESS_ATOL:
        return None
    return u


def frame_table(u, stack) -> np.ndarray:
    """Born table of one normalized frame's POVM, an effect per row of squared
    norm above 1e-14."""
    effects = np.stack([np.outer(v, v.conj()) for v in u if np.vdot(v, v).real > 1e-14])
    return np.clip(np.einsum("bij,aji->ab", effects, stack).real, 0.0, None)


def mi_from_probs(prior, probs) -> float:
    """I(prior, probs) in bits of one start: the marginal by ``@`` and the
    entropies of the rows and the marginal in one call."""
    out = prior @ probs
    h = info._entropy_rows(np.concatenate((probs, out[None])))
    return float(max(h[-1] - prior @ h[:-1], 0.0))


def mi_and_grad(prior, probs) -> tuple[float, np.ndarray]:
    """``mi_from_probs`` and its gradient G[a, b] = p(a) (log2 P(b|a) -
    log2 P(b)), both logarithms floored at 1e-18."""
    ratio = np.log2(np.maximum(probs, 1e-18)) - np.log2(np.maximum(prior @ probs, 1e-18))
    return mi_from_probs(prior, probs), prior[:, None] * ratio


def povm_objective_per_frame(x, stack, value_and_grad, parts):
    """-value(P_1..P_F) and its gradient in the packed raw rows x, one frame at a time.

    The Born tables of the normalized rows u = w T^(-1/2) and the exact
    pullback of the caller's gradients through the Born rule and the frame
    normalization (Daleckii-Krein), frame by frame, in the package's packing:
    real then imaginary parts, frame f holding rows parts[f]. A singular frame
    scores 50.0 with a zero gradient.
    """
    w_all = (x[: x.size // 2] + 1j * x[x.size // 2 :]).reshape(-1, stack.shape[1])
    frames = []
    for w in (w_all[part] for part in parts):
        lam, vecs = np.linalg.eigh(np.einsum("bi,bj->ij", w, w.conj()))
        if lam.min() < 1e-12:
            return 50.0, np.zeros_like(x)
        root = np.sqrt(lam)
        vecs_h = vecs.conj().T
        inv_sqrt = (vecs / root) @ vecs_h
        u = w @ inv_sqrt.T
        raw = np.einsum("bi,aij,bj->ab", u.conj(), stack, u).real
        frames.append((w, root, vecs, vecs_h, inv_sqrt, u, raw))
    value, gs = value_and_grad([np.maximum(f[-1], 0.0) for f in frames])
    grads = []
    for (w, root, vecs, vecs_h, inv_sqrt, u, raw), g in zip(frames, gs):
        h = np.einsum("ab,aij,bj->bi", np.where(raw < 0.0, 0.0, g), stack, u)
        c = w.T @ h.conj()
        f1 = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
        d = vecs @ (f1 * (vecs_h @ (c + c.conj().T) @ vecs)) @ vecs_h
        grads.append(2.0 * (h @ inv_sqrt.T + w @ d.T))
    grad = np.concatenate(grads)
    return -value, -np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def tuple_key_information(letters, decoder, tables, free, groups, ps):
    """I(K_A; K_E) in bits of a factorized attack and its gradient in the free slots' piece tables.

    Contracted over every outcome tuple: slot free[f]'s outcome table is
    ps[f] summed over its pieces' outcomes groups[f], every codeword's
    likelihood of a tuple is the product of its slots' letter columns and
    the key channel sums the likelihoods of the tuples decoded to each key,
    under a uniform key prior. The gradient of the information in
    chan[k, e] is p(k) (log2 chan[k, e] - log2 P(e)), both logarithms
    floored at 1e-18, spread over the tuples and pulled back through the
    other slots' letter columns onto letters and pieces.
    """
    k, n = letters.shape
    tabs = list(tables)
    sums = [np.eye(g.max() + 1)[g] for g in groups]
    for i, p, m in zip(free, ps, sums):
        tabs[i] = (p @ m).T
    lik = np.stack(
        [reduce(np.multiply.outer, [t[:, a] for t, a in zip(tabs, word)]).ravel() for word in letters]
    )
    decode = np.eye(k)[decoder]
    chan = lik @ decode
    prior = np.full(k, 1.0 / k)
    out = prior @ chan
    pos = chan > 0
    ratio = chan[pos] / np.broadcast_to(out, chan.shape)[pos]
    value = float((prior[:, None] * chan)[pos] @ np.log2(ratio))
    g = prior[:, None] * (np.log2(np.maximum(chan, 1e-18)) - np.log2(np.maximum(out, 1e-18)))
    w = (g @ decode.T).reshape([k] + [t.shape[0] for t in tabs])
    cols = [(t[:, a], [j + 1, 0]) for j, (t, a) in enumerate(zip(tabs, letters.T))]
    grads = []
    for i, m in zip(free, sums):
        others = [x for j, col in enumerate(cols) if j != i for x in col]
        dcol = np.einsum(w, list(range(n + 1)), *others, [i + 1, 0])
        onehot = np.eye(tables[0].shape[1])[letters[:, i]]
        grads.append((dcol @ onehot).T @ m.T)
    return value, grads


BA_GAP = 1e-12
BA_MAX_ITERS = 100_000


def _entropy(x) -> np.ndarray:
    """Shannon entropy in bits along the last axis, 0 log 0 = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    safe = np.where(x > 0, x, 1.0)
    return -(x * np.log2(safe)).sum(axis=-1)


def _blahut_arimoto(divergences, size: int) -> np.ndarray:
    """Prior of a capacity by multiplicative steps from the uniform prior,
    run until the duality gap max_a D_a - p @ D is at most ``BA_GAP`` or for
    ``BA_MAX_ITERS`` steps. Each step raises the value, and the prior is a
    witness either way, so its value is a lower bound on the capacity. A
    near-useless channel can need more steps than the cap: plain
    Blahut-Arimoto took 1.7 million on one random four-input channel."""
    p = np.full(size, 1.0 / size)
    for _ in range(BA_MAX_ITERS):
        div = divergences(p)
        if div.max() - p @ div <= BA_GAP:
            break
        p = p * np.exp2(div - div.max())
        p = p / p.sum()
    return p


def classical_capacity_ba(rows) -> tuple[np.ndarray, float]:
    """Capacity-achieving prior and capacity in bits of a classical channel
    with row-stochastic ``rows``, by ``_blahut_arimoto``."""
    rows = np.asarray(rows, dtype=float)
    log_rows = np.log2(np.where(rows > 0, rows, 1.0))

    def divergences(p):
        out = p @ rows
        return (rows * (log_rows - np.log2(np.where(out > 0, out, 1.0)))).sum(axis=1)

    p = _blahut_arimoto(divergences, rows.shape[0])
    return p, float(_entropy(p @ rows) - p @ _entropy(rows))


def _log2m(matrix) -> np.ndarray:
    """log2 of a PSD matrix on its support (eigenvalues above 1e-15)."""
    vals, vecs = np.linalg.eigh(matrix)
    logs = np.log2(np.where(vals > 1e-15, vals, 1.0))
    return (vecs * logs) @ vecs.conj().T


def holevo_capacity_ba(e) -> float:
    """Holevo capacity max_P chi(P) of an ensemble's letters in bits, by
    ``_blahut_arimoto`` on D_a = D(rho_a || rho_bar)."""
    states = list(e.states)
    self_terms = np.array([np.trace(rho @ _log2m(rho)).real for rho in states])

    def divergences(p):
        log_avg = _log2m(sum(pa * rho for pa, rho in zip(p, states)))
        return self_terms - np.array([np.trace(rho @ log_avg).real for rho in states])

    p = _blahut_arimoto(divergences, len(states))
    avg = sum(pa * rho for pa, rho in zip(p, states))
    each = np.array([_entropy(np.linalg.eigvalsh(rho)) for rho in states])
    return float(_entropy(np.linalg.eigvalsh(avg)) - p @ each)


def _best_prior(rows, cfg):
    """Capacity-achieving prior of a classical channel and its value: the best
    point of a ``cfg.grid_points`` grid for two inputs, ``_blahut_arimoto``
    otherwise."""
    if rows.shape[0] == 2:
        ps = np.linspace(0.0, 1.0, cfg.grid_points)
        priors = np.stack([ps, 1.0 - ps], axis=1)
        vals = _entropy(priors @ rows) - priors @ _entropy(rows)
        i = int(np.argmax(vals))
        return priors[i], float(vals[i])
    return classical_capacity_ba(rows)


def frame_row(x, stack, value_fn, shape):
    """The package's frame objective, ``_frame_rows``, on one row of F frames
    zero-padded to ``shape`` (F, R, d) and no tail: -value and its gradient
    in x, as L-BFGS-B takes them."""
    values, grads = info._frame_rows(x[None], stack, shape, value_fn)
    return values[0], grads[0]


def one_frame(value_and_grad):
    """A value function of ``_frame_rows`` for one row of one frame and no
    tail, from value_and_grad(table) = (value, gradient) on the frame's
    (A, r) Born table."""

    def value_fn(tables, tail):
        value, g = value_and_grad(tables[0, 0])
        return np.array([value]), g[None, None], np.zeros_like(tail)

    return value_fn


def joint_objective(y, stack, rows):
    """-I(p, M) and its gradient over one frame of ``rows`` raw vectors and
    the prior's logits z, p = softmax(z), packed in that order: the package's
    frame objective on the frame alone (``frame_row``) and p_a (D_a - p . D)
    for the logits, with D_a = sum_b P[a, b] (log2 P[a, b] - log2 P(b))."""
    n = 2 * rows * stack.shape[1]
    z = y[n:]
    p = np.exp(z - z.max())
    p = p / p.sum()
    div = np.zeros_like(p)

    def value_and_grad(table):
        value = mi_from_probs(p, table)
        ratio = np.log2(np.maximum(table, 1e-18)) - np.log2(np.maximum(p @ table, 1e-18))
        div[:] = (table * ratio).sum(axis=1)
        return value, p[:, None] * ratio

    value, grad = frame_row(y[:n], stack, one_frame(value_and_grad), (1, rows, stack.shape[1]))
    return value, np.concatenate([grad, -p * (div - p @ div)])


def lbfgs_b(fun, x0, args, max_iters, ftol, gtol):
    """L-BFGS-B minimization of fun(x, *args) = (value, gradient) from x0, as
    the package ran its unbounded ascents on scipy: the end point and whether
    L-BFGS-B reported success. A start with max |g(x0)| <= gtol, which
    L-BFGS-B would stop at iteration 0, comes back as converged without a
    scipy call."""
    if np.abs(fun(x0, *args)[1]).max() <= gtol:
        return x0, True
    options = {"maxiter": max_iters, "ftol": ftol, "gtol": gtol}
    res = optimize.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options=options)
    return res.x, bool(res.success)


def ascend_povm_lbfgsb(stack, frames, value_fn, max_iters, gtol=1e-5):
    """The adversary's slot ascent on L-BFGS-B: F raw frames zero-padded into
    one (F, R, d) array, climbed as one problem on the package's frame
    objective (``frame_row``) with its value function ``value_fn`` and
    ``ftol`` 1e-12 until ``max_iters`` iterations or a projected gradient of
    at most ``gtol``. Returns the normalized end frames (None if any is
    singular) and L-BFGS-B's success flag."""
    w = info._padded(frames)
    x0 = np.concatenate([w.real.ravel(), w.imag.ravel()])
    x, ok = lbfgs_b(frame_row, x0, (stack, value_fn, w.shape), max_iters, 1e-12, gtol)
    u, good = _normalized_frames((x[: w.size] + 1j * x[w.size :]).reshape(w.shape))
    return (u if good.all() else None), ok


# The L-BFGS-B seesaw's own stops, fixed so that it does not move with the
# package's: a round whose per-slot pass gains less than REF_STALL_BITS bits
# adds a joint ascent stopped at max |g| of REF_JOINT_GTOL, and a one-slot
# ascent stops at REF_SLOT_GTOL.
REF_STALL_BITS = 1e-4
REF_JOINT_GTOL = 1e-8
REF_SLOT_GTOL = 1e-5


def refine_slots_lbfgsb(slots, tables, free, c, decoder_idx, eve_states):
    """``simulation._refine_slots`` on ``ascend_povm_lbfgsb`` and the stops
    above: all slots' effects and tables and their information after one
    ascent of the slots ``free``, whether or not it took a step, or None for
    a singular frame."""
    frames, groups = zip(*(info._rank1_pieces(slots[i]) for i in free))
    value_fn = sim._joint_value_and_grad(c, decoder_idx, tables, free, groups)
    gtol = REF_JOINT_GTOL if len(free) > 1 else REF_SLOT_GTOL
    us, _ = ascend_povm_lbfgsb(eve_states, frames, value_fn,
                               sim._SLOT_ASCENT_MAX_ITERS * len(free), gtol)
    if us is None:
        return None
    slots, tables = list(slots), list(tables)
    for i, u, g in zip(free, us, groups):
        u = u[: len(g)]
        slots[i] = np.einsum("ro,ri,rj->oij", np.eye(len(slots[i]))[g], u, u.conj())
        tables[i] = _born_table(slots[i], eve_states).T
    return slots, tables, sim._key_info(sim._likelihoods(tables, c), decoder_idx)


def package_refine_slots(slots, tables, free, c, decoder_idx, eve_states):
    """``simulation._refine_slots``' step, or None, without its stop flag."""
    return sim._refine_slots(slots, tables, free, c, decoder_idx, eve_states)[0]


def eve_seesaw(s, c, cfg, refine, stall_bits):
    """``simulation.eve_optimize``'s seesaw with the per-slot pass in every
    round, on the slot ascent ``refine`` (``refine_slots_lbfgsb`` or
    ``package_refine_slots``): from the refined default attack and
    ``cfg.restarts - 1`` random starts, each round the one-slot ascents, one
    joint ascent over all slots once the pass gains less than ``stall_bits``,
    then the maximum-likelihood decoder, with ``eve_optimize``'s acceptance
    rules. Returns the best ``EveStrategy``."""
    ee = s.eve_ensemble()
    default = sim._default_attack(s, c, ee)
    if cfg.restarts == 0:
        return default
    eve_states, n = ee.states, c.length
    best = None
    rng = np.random.default_rng(cfg.seed)
    for restart in range(cfg.restarts):
        if restart == 0:
            starts = default.slots
        else:
            starts = [random_rank1_povm(s.dim_e, s.dim_e**2, rng) for _ in range(n)]
        slots = [p.effects for p in starts]
        tables = sim._slot_channels(slots, eve_states)
        lik = sim._likelihoods(tables, c)
        idx = sim._ml_decoder(lik)
        val = sim._key_info(lik, idx)
        if best is None or val > best[0]:
            best = (val, slots, idx)
        for _ in range(cfg.max_iters):
            start, improved = val, False
            for i in range(n):
                step = refine(slots, tables, [i], c, idx, eve_states)
                if step is not None and step[2] > val + cfg.tol:
                    slots, tables, val = step
                    improved = True
            if n > 1 and val - start < stall_bits:
                step = refine(slots, tables, list(range(n)), c, idx, eve_states)
                if step is not None and step[2] > val:
                    improved = improved or step[2] > val + cfg.tol
                    slots, tables, val = step
            lik = sim._likelihoods(tables, c)
            ml_idx = sim._ml_decoder(lik)
            ml_val = sim._key_info(lik, ml_idx)
            if ml_val >= val - cfg.tol:
                improved = improved or ml_val > val
                idx, val = ml_idx, ml_val
            if val > best[0]:
                best = (val, slots, idx)
            if not improved:
                break
    _, slots, idx = best
    return sim.EveStrategy([Povm(effects) for effects in slots], idx)


def _joint_step(stack, prior, frame):
    """One L-BFGS-B ascent over the prior's logits and the frame together,
    stopped at a projected gradient of 1e-8: (prior, normalized frame, Born
    table), or None for a singular frame."""
    logits = np.log(np.clip(prior, 1e-18, None))
    y0 = np.concatenate([frame.real.ravel(), frame.imag.ravel(), logits])
    y, _ = lbfgs_b(joint_objective, y0, (stack, len(frame)), 300, 0.0, 1e-8)
    n = frame.size
    u = normalized((y[:n] + 1j * y[n : 2 * n]).reshape(frame.shape))
    if u is None:
        return None
    z = y[2 * n :]
    p = np.exp(z - z.max())
    return p / p.sum(), u, frame_table(u, stack)


def _refine_frame(stack, prior, frame):
    """One L-BFGS-B ascent of I(prior, .) over rank-one POVMs from ``frame``,
    alone: (normalized frame, Born table, L-BFGS-B's success), or None for a
    singular frame."""
    value_fn = one_frame(lambda table: mi_and_grad(prior, table))
    us, ok = ascend_povm_lbfgsb(stack, [frame], value_fn, 300)
    if us is None:
        return None
    return us[0], frame_table(us[0], stack), ok


def structured_starts(e, cfg, helstrom_at=(), capacity=True) -> list[tuple[np.ndarray, Povm]]:
    """An earlier structured start set of C1 and accessible information,
    (prior, POVM) pairs: for two letters the Helstrom measurement at the
    ensemble's prior and at the first-letter weights ``helstrom_at``, then
    the pretty-good measurement at the ensemble's prior and, with
    ``capacity``, at the uniform prior and at the Holevo-capacity prior of
    the same states. A start is left out when its prior is within 1e-6 of an
    earlier start's of the same measurement, so a symmetric binary ensemble
    keeps one pretty-good start.
    """

    def fresh(priors):
        kept = []
        for p in priors:
            if all(np.abs(p - q).max() > 1e-6 for q in kept):
                kept.append(p)
        return kept

    starts = []
    if e.size == 2:
        for p in fresh([np.array([p0, 1.0 - p0]) for p0 in (float(e.prior[0]), *helstrom_at)]):
            starts.append((p, helstrom(e.states[0], e.states[1], float(p[0]))))
    pgm_priors = [e.prior.copy()]
    if capacity:
        pgm_priors += [np.full(e.size, 1.0 / e.size), info.holevo_capacity(e, cfg).prior]
    for p in fresh(pgm_priors):
        starts.append((p, pretty_good_measurement(CqEnsemble(p, e.states))))
    return starts


def per_start_c1(e, cfg, extra_starts=(), alternating=False):
    """C1's seesaw with every start climbed on its own, one L-BFGS-B call per
    ascent. The starts are ``extra_starts``, ``structured_starts`` with
    Helstrom also at 0.5, 0.25 and 0.75 and no capacity-prior start, then
    ``cfg.restarts`` random (prior, rank-one POVM) pairs drawn from
    ``cfg.seed``. A round is one joint ascent, stopped at a projected
    gradient of 1e-8, after a frame ascent at the fixed prior and the
    capacity prior of the row-normalized table: for three letters or more
    and on ``information._best_prior_for_channel``, as C1 ran before its
    starts were stacked, or with ``alternating`` for every alphabet and on
    this module's ``_best_prior``, the reference seesaw against which C1 must
    never report less. Each step is kept when it raises the start's value,
    the prior when it does not lower it, until a round gains at most
    ``cfg.tol`` or after ``cfg.max_iters`` rounds; the best start is the
    first of the highest. Returns an ``OptimizationResult``."""
    stack = e.states
    rng = np.random.default_rng(cfg.seed)
    starts = list(extra_starts) + structured_starts(e, cfg, (0.5, 0.25, 0.75), capacity=False)
    for _ in range(cfg.restarts):
        prior = rng.dirichlet(np.ones(e.size))
        starts.append((prior, random_rank1_povm(e.dim, e.dim * e.dim, rng)))
    best = None
    for prior, povm in starts:
        frame, table = start_frame(povm, stack)
        val = mi_from_probs(prior, table)
        converged = False
        for _ in range(cfg.max_iters):
            new_val = mi_from_probs(prior, table)
            if alternating or e.size > 2:
                step = _refine_frame(stack, prior, frame)
                if step is not None and mi_from_probs(prior, step[1]) > new_val:
                    (frame, table, _), povm = step, None
                    new_val = mi_from_probs(prior, table)
                rows = table / table.sum(axis=1, keepdims=True)
                search = _best_prior if alternating else info._best_prior_for_channel
                prior_new, v_pri = search(rows, cfg)[:2]
                if v_pri >= new_val:
                    prior, new_val = prior_new, v_pri
            joint = _joint_step(stack, prior, frame)
            if joint is not None and mi_from_probs(joint[0], joint[2]) > new_val:
                (prior, frame, table), povm = joint, None
                new_val = mi_from_probs(prior, table)
            converged = new_val <= val + cfg.tol
            val = max(val, new_val)
            if converged:
                break
        if best is None or val > best[0]:
            best = (val, prior, povm, frame, converged)
    val, prior, povm, frame, converged = best
    povm = povm if povm is not None else info._frame_povm(frame)
    return info.OptimizationResult(val, prior, povm=povm, converged=converged)


def history_c1(e, cfg, two_letter_stop=True):
    """``information.c1`` as it ran before two pure letters returned their
    closed form's witness: every start of the earlier start set
    (``structured_starts`` with Helstrom also at 0.5, 0.25 and 0.75) climbs,
    in rounds of the package's own stacked ascents (``_climb``) for all
    starts at once, each round one joint ascent, from three letters on
    preceded by a fixed-prior one and the capacity prior of the
    row-normalized table; a later start replaces the best only when it
    beats it by more than ``_TIE_BITS``. A start is converged once a round
    gains at most ``cfg.tol`` or, with ``two_letter_stop``, for two letters
    once its joint ascent met its stop; without it every two-letter start
    takes the confirming round it once took. Returns an
    ``OptimizationResult``."""
    rng = np.random.default_rng(cfg.seed)
    stack = e.states
    starts = structured_starts(e, cfg, (0.5, 0.25, 0.75))
    priors, povms = map(list, zip(*starts))
    raws, m = [], (e.dim * e.dim, e.dim)
    for _ in range(cfg.restarts):
        priors.append(rng.dirichlet(np.ones(e.size)))
        raws.append(rng.normal(size=m) + 1j * rng.normal(size=m))
    held = info._start_set(stack, np.array(priors), povms, raws)
    active = np.arange(held.values.size)
    own, converged = active < len(povms), np.zeros(active.size, dtype=bool)
    for _ in range(cfg.max_iters):
        if not active.size:
            break
        news = held.values[active]
        if e.size > 2:
            # A kept prior step leaves a start's value apart from its table's.
            news = info._scores(held.priors[active], held.tables[active])
            news, _ = info._climb(stack, held, active, news, own, False)
            for j, f in enumerate(active):
                # Its nonzero columns in C order, as an unpadded table holds them.
                table = held.tables[f].compress(held.tables[f].any(axis=0), axis=1)
                prior, value, _ = info._best_prior_for_channel(table / table.sum(axis=1, keepdims=True), cfg)
                if value >= news[j]:
                    held.priors[f], news[j] = prior, value
        news, ok = info._climb(stack, held, active, news, own, True)
        stopped = ok & (e.size == 2) if two_letter_stop else False
        converged[active] = (news <= held.values[active] + cfg.tol) | stopped
        held.values[active] = np.maximum(held.values[active], news)
        active = active[~converged[active]]
    values, best = held.values.tolist(), 0
    for f, value in enumerate(values):
        if value > values[best] + info._TIE_BITS:
            best = f
    povm = povms[best] if own[best] else info._frame_povm(held.frames[best])
    return info.OptimizationResult(values[best], held.priors[best], povm, bool(converged[best]))


def sequential_c_k(e, k, cfg):
    """``information.c_k`` on ``per_start_c1``: the seesaw over length-k
    words and product-space POVMs, its start set led by the product of the
    per-start C1 witness."""
    single = per_start_c1(e, cfg)
    words = itertools.product(range(e.size), repeat=k)
    states = [reduce(np.kron, (e.states[a] for a in w)) for w in words]
    prod_e = CqEnsemble(reduce(np.kron, [e.prior] * k), states)
    extra = ((reduce(np.kron, [single.prior] * k), expand([single.povm] * k)),)
    return per_start_c1(prod_e, cfg, extra_starts=extra)


def sequential_accessible(e, cfg) -> float:
    """max_M I(P, M) at the ensemble's own prior with every start (Helstrom for
    two letters and the pretty-good measurement, both at that prior, then
    ``cfg.restarts`` random rank-one POVMs) ascended on its own; a start
    keeps its own value when its ascent does not raise it."""
    rng = np.random.default_rng(cfg.seed)
    stack = e.states
    starts = [povm for _, povm in structured_starts(e, cfg, capacity=False)]
    starts += [random_rank1_povm(e.dim, e.dim * e.dim, rng) for _ in range(cfg.restarts)]
    best = -math.inf
    for povm in starts:
        frame, table = start_frame(povm, stack)
        val = mi_from_probs(e.prior, table)
        step = _refine_frame(stack, e.prior, frame)
        if step is not None:
            val = max(val, mi_from_probs(e.prior, step[1]))
        best = max(best, val)
    return best


# ``information._lbfgs_rows`` as it ran with its per-row scalars in numpy
# arrays, under masked updates: the package's constants, the code verbatim.
_LBFGS_MEMORY = info._LBFGS_MEMORY
_MAX_REJECTS = info._MAX_REJECTS
_MIN_SHRINK = info._MIN_SHRINK


class PairsReference:
    """Each row's last ``_LBFGS_MEMORY`` curvature pairs (s, y), held for the
    compact form of the L-BFGS inverse Hessian (Byrd, Nocedal and Schnabel,
    Math. Program. 63, 129 (1994)), with H0 = gamma I:

        H g = gamma g + S v - gamma Y u,  u = R^(-1) S^T g,
        v = R^(-T) ((D + gamma Y^T Y) u - gamma Y^T g),

    R the upper triangle of S^T Y in the order the pairs came, and D its
    diagonal. The pairs sit in a ring of slots shared by all rows, the next
    entering slot ``count % M`` in place of the oldest; every product above
    is the same in any order of the slots, so ``r_inv`` holds R^(-1) with its
    rows and columns in slot order. ``z`` holds every s and then every y (k, 2M, n); R^(-1), Y^T Y and
    D are updated as each pair enters, so a product takes matrix products
    only. A zero pair (s = y = 0) gets R_ii = 1, so that u_i = v_i = 0 and it
    drops out exactly.
    """

    def __init__(self, k: int, n: int):
        mem = _LBFGS_MEMORY
        self.z = np.zeros((k, 2 * mem, n))
        self.r_inv = np.tile(np.eye(mem), (k, 1, 1))
        self.yy = np.zeros((k, mem, mem))
        self.diag = np.zeros((k, mem))
        self.count = 0

    def push(self, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> None:
        """Put (s, y), with sy = s . y > 0, or a zero pair with sy = 0, in
        place of every row's oldest pair. The oldest pair is R's first row and
        column, so dropping it leaves R'^(-1), the trailing block of R^(-1);
        the new pair adds the last column c = S^T y, and R^(-1) becomes
        [[R'^(-1), -R'^(-1) c / sy], [0, 1 / sy]]."""
        mem, z, r_inv = _LBFGS_MEMORY, self.z, self.r_inv
        j = self.count % mem
        self.count += 1
        z[:, j], z[:, mem + j] = s, y
        cross = (z @ y[:, :, None])[..., 0]
        pivot = np.where(sy > 0.0, sy, 1.0)
        r_inv[:, j] = r_inv[:, :, j] = 0.0
        r_inv[:, :, j] = (r_inv @ cross[:, :mem, None])[..., 0] / -pivot[:, None]
        r_inv[:, j, j] = 1.0 / pivot
        self.yy[:, j] = self.yy[:, :, j] = cross[:, mem:]
        self.diag[:, j] = sy

    def times(self, g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """H g of every row."""
        mem = _LBFGS_MEMORY
        proj = self.z @ g[:, :, None]
        u = self.r_inv @ proj[:, :mem]
        scale = gamma[:, None, None]
        inner = self.diag[:, :, None] * u + scale * (self.yy @ u - proj[:, mem:])
        v = self.r_inv.swapaxes(1, 2) @ inner
        back = self.z.swapaxes(1, 2) @ np.concatenate((v, -scale * u), 1)
        return gamma[:, None] * g + back[..., 0]

    def take(self, keep: np.ndarray) -> None:
        """Keep the rows ``keep``."""
        self.z, self.r_inv, self.yy, self.diag = (
            self.z[keep], self.r_inv[keep], self.yy[keep], self.diag[keep])


def lbfgs_rows_reference(fun, x: np.ndarray, gtol: float, max_iters: int):
    """Minimize every row of x on its own by L-BFGS (Liu and Nocedal, Math.
    Program. 45, 503 (1989)), the rows still climbing in lockstep: one
    fun(rows) = (values (k,), gradients (k, n)) call per round serves them
    all, and each row keeps its own curvature pairs, step and stop, so no
    row's path depends on the others.

    A row that meets the stop max |g| <= ``gtol`` at x does not climb. The
    others keep their last ``_LBFGS_MEMORY`` pairs in one ring shared by
    round (``_Pairs``): a row that did not step, or whose pair fails
    s . y > 8 eps y . y, adds a zero pair, so H stays positive definite and
    -H g is a descent direction. H0 = gamma I, gamma = s . y / y . y of the
    newest valid pair and 1/|g| before the first, so the first step is
    -g/|g|, of unit length, as L-BFGS-B's first iteration is; later trial
    steps are t = 1. A trial is accepted under Armijo's rule with c = 1e-4 and
    a rounding slack of 8 eps |f|; otherwise t backtracks to the minimizer of
    the quadratic through f, its slope and the trial's value, clipped to
    [``_MIN_SHRINK`` t, 0.5 t]. A row stops when an accepted step meets the stop
    (success), after ``max_iters`` accepted steps or after ``_MAX_REJECTS``
    rejected trials in a row. Returns the end rows and whether each met the
    stop.
    """
    eps = np.finfo(float).eps
    f, g = fun(x)
    ends, ok = x.copy(), np.ones(len(x), dtype=bool)
    live = np.flatnonzero(np.abs(g).max(axis=1) > gtol)
    x, f, g = x[live], f[live], g[live]
    gamma = 1.0 / np.sqrt((g * g).sum(axis=1))
    d = -gamma[:, None] * g
    slope, t = (g * d).sum(axis=1), np.ones(live.size)
    pairs = PairsReference(*x.shape)
    steps, rejects = np.zeros(live.size, dtype=int), np.zeros(live.size, dtype=int)
    while live.size:
        trial = x + t[:, None] * d
        f_new, g_new = fun(trial)
        accept = f_new <= f + (1e-4 * t) * slope + (8.0 * eps) * np.abs(f)
        s, y = trial - x, g_new - g
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        valid = accept & (sy > (8.0 * eps) * yy)
        if not valid.all():
            s, y, sy = s * valid[:, None], y * valid[:, None], sy * valid
        pairs.push(s, y, sy)
        gamma = np.divide(sy, yy, out=gamma, where=valid)
        if accept.all():
            x, f, g, t, rejects = trial, f_new, g_new, np.ones(live.size), np.zeros_like(rejects)
        else:
            # q is the decrease over its linear prediction t * slope, below
            # Armijo's 1e-4 on a rejection; the quadratic through f, slope and
            # f_new has its minimizer at t / (2 (1 - q)).
            q = (f_new - f) / (t * slope)
            t = np.where(accept, 1.0, t * np.maximum(0.5 / np.fmax(1.0 - q, 1.0), _MIN_SHRINK))
            rejects = np.where(accept, 0, rejects + 1)
            moved = accept[:, None]
            x, f, g = np.where(moved, trial, x), np.where(accept, f_new, f), np.where(moved, g_new, g)
        steps += accept
        met = accept & (np.abs(g).max(axis=1) <= gtol)
        stop = met | (steps >= max_iters) | (rejects >= _MAX_REJECTS)
        if stop.any():
            ends[live[stop]], ok[live[stop]] = x[stop], met[stop]
            keep = ~stop
            live, x, f, g, d, t = live[keep], x[keep], f[keep], g[keep], d[keep], t[keep]
            slope, gamma, steps, rejects, accept = (
                slope[keep], gamma[keep], steps[keep], rejects[keep], accept[keep])
            pairs.take(keep)
        if accept.any():
            d = np.where(accept[:, None], -pairs.times(g, gamma), d)
            slope = (g * d).sum(axis=1)
    return ends, ok
