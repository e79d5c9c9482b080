"""Information quantities and the two key-distribution feasibility conditions.

The receiver side is scored by the Holevo capacity C = max_P chi(P) (the
collective-decoding capacity of the induced classical-quantum channel); the
adversary side by the single-copy capacity C1 = max_{P,M} I(P, M), an
accessible-information maximum over priors and POVMs. The quantum
feasibility condition compares the two across the channel marginals; the
classical condition is the wiretap criterion max_P [I(P,V) - I(P,W)] > 0.

Prior maximization uses an exhaustive grid for binary alphabets (the
capacity and wiretap searches refine its best point by a bounded scalar
search) and Blahut-Arimoto multiplicative ascent otherwise; the Holevo and
the classical channel capacity supply their own divergences to one loop,
``_blahut_arimoto``.

POVM maximization runs on rank-one frames: a POVM with one outcome per
rank-one piece is a frame of raw vectors w_b, normalized by the frame
operator to u_b = T^(-1/2) w_b, and scored through its Born table
P[a, b] = <u_b| rho_a |u_b>. ``_ascend_povm`` is the quasi-Newton ascent
of frames under a fixed prior. It runs over a list of frames, one per POVM:
``accessible_information``, ``c1`` and ``c_k`` pass one, and the
adversary's seesaw in ``simulation.eve_optimize`` passes one per slot it
ascends, a single slot or all at once. Each caller supplies its objective
of the Born tables P_f with the gradients dI/dP_f; for the mutual
information that is p(a) (log2 P(b|a) - log2 P(b)) (``_mi_and_grad``).
``_povm_objective`` pulls them back exactly through the Born rule and each
frame's normalization (the Daleckii-Krein derivative of T^(-1/2) on T's
eigenbasis), so L-BFGS-B runs on the analytic gradient.

C1 and C_k are a seesaw over (prior, POVM) from structured starts
(Helstrom, pretty-good measurement) and random restarts. Each start is
held as its frame, its prior and its Born table; a ``Povm`` is built only
for the winner. A round ascends the frame at the fixed prior, re-optimizes
the prior for the row-normalized table and then runs one joint ascent over
the frame and the prior's logits (``_ascend_joint``, on ``_povm_objective``
plus the prior's gradient), the standard joint form of the problem (Shor,
Math. Program. 97, 311 (2003)). The seesaw steps keep each start in its
basin, and the joint ascent climbs to the basin's top in one call where the
alternation alone crawls there over many rounds.
Every reported value is re-evaluated through the exact Born-rule path, so
results are achievable by the returned witness; optimizers can under- but
never over-report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import optimize as sciopt

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble, QuantumChannel, marginal, push_through
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .measurements import (
    COMPLETENESS_ATOL,
    ClassicalChannel,
    Povm,
    _born_table,
    expand,
    helstrom,
    normalize_vectors,
    pretty_good_measurement,
    random_rank1_povm,
)
from .states import DensityOperator, hermitian_eigensystem

_BA_MAX_ITERS = 2000
_LBFGS_MAX_ITERS = 300
_EIG_LOG_FLOOR = 1e-18
# L-BFGS-B's projected-gradient stop for the joint ascents of both seesaws:
# C1's over the frame and the prior, the adversary's over all of its slots.
# The ascents of one POVM keep L-BFGS-B's default, 1e-5.
_JOINT_GTOL = 1e-8
# A random start of C1's seesaw replaces the best start so far only when it
# beats it by more than this; below it, two starts that reached the same
# maximum differ by rounding alone, and the earlier, structured witness stays.
_TIE_BITS = 1e-13


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the prior/POVM searches.

    grid_points is the binary-prior grid resolution, restarts the number of
    random seesaw restarts, max_iters the alternation cap, tol the
    convergence threshold on the objective and margin the verdict margin in
    bits for "satisfied" condition reports.
    """

    grid_points: int = 2001
    restarts: int = 8
    max_iters: int = 60
    tol: float = 1e-9
    seed: int = 0
    margin: float = 1e-6

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValidationError("grid-points", f"need >= 2 grid points, got {self.grid_points}")
        if self.restarts < 0:
            raise ValidationError("restarts", f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise ValidationError("seed", f"seed must be >= 0, got {self.seed}")
        if self.max_iters < 1:
            raise ValidationError("max-iters", f"max_iters must be >= 1, got {self.max_iters}")
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise ValidationError("tolerance", f"tol must be finite and positive, got {self.tol}")
        if not math.isfinite(self.margin):
            raise ValidationError("margin", f"margin must be finite, got {self.margin}")


@dataclass
class OptimizationResult:
    """Best value found together with its witness and a convergence flag."""

    value: float
    prior: np.ndarray
    povm: Povm | None = None
    converged: bool = True


@dataclass
class ConditionReport:
    """Outcome of a feasibility condition check.

    ``satisfied`` is derived: lhs must beat rhs by more than the margin.
    """

    kind: str
    lhs: float
    rhs: float
    margin: float
    lhs_prior: np.ndarray | None = None
    rhs_prior: np.ndarray | None = None
    rhs_povm: Povm | None = None
    converged: bool = True
    satisfied: bool = field(init=False)

    def __post_init__(self):
        self.satisfied = bool(self.lhs > self.rhs + self.margin)


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, 0 log 0 = 0."""
    x = np.clip(rows, 0.0, 1.0)
    t = np.zeros_like(x)
    mask = x > 0
    t[mask] = -x[mask] * np.log2(x[mask])
    return t.sum(axis=-1)


def shannon_entropy(p) -> float:
    """Entropy of a probability vector in bits."""
    p = np.asarray(p, dtype=float).ravel()
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("distribution", f"not a probability vector (sum {p.sum()!r})")
    return float(_entropy_rows(p))


def mutual_information(p, v: ClassicalChannel) -> float:
    """I(P, V) = H(output) - sum_a P(a) H(row a), in bits."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != v.in_size:
        raise DimensionMismatch(f"prior length {p.size} != channel inputs {v.in_size}")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("distribution", f"not a probability vector (sum {p.sum()!r})")
    out = p @ v.matrix
    val = float(_entropy_rows(out) - p @ _entropy_rows(v.matrix))
    return max(val, 0.0)


def holevo_chi(e: CqEnsemble) -> float:
    """H(average state) - average state entropy at the ensemble's own prior."""
    return float(_chi_of_prior(e.prior, np.stack([s.matrix for s in e.states])))


def _chi_of_prior(prior: np.ndarray, stack: np.ndarray) -> float:
    avg = np.tensordot(prior, stack, axes=1)
    h_avg = _entropy_rows(np.linalg.eigvalsh(avg))
    h_each = _entropy_rows(np.linalg.eigvalsh(stack))
    return float(max(h_avg - prior @ h_each, 0.0))


def _mi_curve(ps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """I(P, rows) of a binary-input channel at every prior P = (p, 1 - p), p in ps."""
    outs = ps[:, None] * rows[0] + (1.0 - ps)[:, None] * rows[1]
    h_rows = _entropy_rows(rows)
    return _entropy_rows(outs) - ps * h_rows[0] - (1.0 - ps) * h_rows[1]


def _refine_binary_prior(ps: np.ndarray, vals: np.ndarray, exact) -> tuple[float, float]:
    """Best binary prior weight p and its value, from grid values vals at ps.

    The grid argmax is refined by a bounded scalar search of exact(p) within
    one grid step of it; the refinement is kept only when it beats the grid.
    """
    i = int(np.argmax(vals))
    best_p, best_v = float(ps[i]), float(vals[i])
    step = 1.0 / (len(ps) - 1)
    res = sciopt.minimize_scalar(
        lambda q: -exact(q),
        bounds=(max(0.0, best_p - step), min(1.0, best_p + step)),
        method="bounded",
    )
    if res.success and -res.fun > best_v:
        best_p, best_v = float(res.x), float(-res.fun)
    return best_p, best_v


def _log2_psd(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    logs = np.log2(np.clip(vals, _EIG_LOG_FLOOR, None))
    return (vecs * logs) @ vecs.conj().T


def _blahut_arimoto(divergences, p0: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Multiplicative ascent of a capacity over the prior simplex.

    ``divergences(p)`` returns D_a = D(letter a's output || average output)
    at prior p. Stops when the duality gap max_a D_a - p @ D, which
    brackets the capacity at every iteration, is within ``tol``; returns
    the prior and whether that happened within the iteration cap.
    """
    p = p0.copy()
    for _ in range(_BA_MAX_ITERS):
        div = divergences(p)
        if float(div.max()) - float(p @ div) <= tol:
            return p, True
        p = p * np.exp2(div - div.max())
        p = p / p.sum()
    return p, False


def _quantum_ba(stack: np.ndarray, p0: np.ndarray, tol: float) -> tuple[np.ndarray, float, bool]:
    """Blahut-Arimoto ascent of chi, with D_a = D(rho_a || rho_bar)."""
    logs = np.stack([_log2_psd(m) for m in stack])
    self_terms = np.einsum("aij,aji->a", stack, logs).real

    def divergences(p):
        log_avg = _log2_psd(np.tensordot(p, stack, axes=1))
        return self_terms - np.einsum("aij,ji->a", stack, log_avg).real

    p, converged = _blahut_arimoto(divergences, p0, tol)
    return p, _chi_of_prior(p, stack), converged


def holevo_capacity(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_P chi(P) over the prior simplex."""
    stack = np.stack([s.matrix for s in e.states])
    if e.size == 1:
        return OptimizationResult(0.0, np.array([1.0]))
    if e.size == 2:
        ps = np.linspace(0.0, 1.0, cfg.grid_points)
        mixes = ps[:, None, None] * stack[0] + (1.0 - ps)[:, None, None] * stack[1]
        h_mix = _entropy_rows(np.linalg.eigvalsh(mixes))
        h_each = _entropy_rows(np.linalg.eigvalsh(stack))
        vals = h_mix - ps * h_each[0] - (1.0 - ps) * h_each[1]
        best_p, best_v = _refine_binary_prior(
            ps, vals, lambda q: _chi_of_prior(np.array([q, 1.0 - q]), stack)
        )
        return OptimizationResult(best_v, np.array([best_p, 1.0 - best_p]))
    rng = np.random.default_rng(cfg.seed)
    starts = [np.full(e.size, 1.0 / e.size)]
    starts += [rng.dirichlet(np.ones(e.size)) for _ in range(min(cfg.restarts, 2))]
    best = OptimizationResult(-1.0, starts[0], converged=False)
    for p0 in starts:
        p, val, ok = _quantum_ba(stack, p0, cfg.tol)
        if val > best.value:
            best = OptimizationResult(val, p, converged=ok)
    return best


# ---------------------------------------------------------------------------
# POVM optimization


def _rank1_pieces(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split stacked (m, d, d) effects into scaled rank-one vectors sqrt(lam) v, one row each.

    ``groups[r]`` is the index of the effect that row r came from. An effect
    with no eigenvalue above 1e-12 keeps its outcome through one zero row.
    """
    vecs, groups = [], []
    for b, m in enumerate(effects):
        vals, basis = hermitian_eigensystem(m)
        added = False
        for lam, v in zip(vals, basis.T):
            if lam > 1e-12:
                vecs.append(np.sqrt(lam) * v)
                groups.append(b)
                added = True
        if not added:
            vecs.append(np.zeros(effects.shape[-1], dtype=complex))
            groups.append(b)
    return np.stack(vecs), np.array(groups)


def _mi_from_probs(prior: np.ndarray, probs: np.ndarray) -> float:
    out = prior @ probs
    return float(max(_entropy_rows(out) - prior @ _entropy_rows(probs), 0.0))


def _softmax(z: np.ndarray) -> np.ndarray:
    """The prior with logits z."""
    p = np.exp(z - z.max())
    return p / p.sum()


def _log_ratio(prior: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """log2 P(b|a) - log2 P(b), both logarithms floored at ``_EIG_LOG_FLOOR``."""
    log_rows = np.log2(np.clip(probs, _EIG_LOG_FLOOR, None))
    log_out = np.log2(np.clip(prior @ probs, _EIG_LOG_FLOOR, None))
    return log_rows - log_out


def _mi_and_grad(prior: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """I(prior, probs) and its gradient G[a, b] = p(a) (log2 P(b|a) - log2 P(b)).

    The entropy terms' constants cancel, so G needs no normalization of the
    rows.
    """
    return _mi_from_probs(prior, probs), prior[:, None] * _log_ratio(prior, probs)


def _povm_objective(
    x: np.ndarray, stack: np.ndarray, value_and_grad, parts: list[slice]
) -> tuple[float, np.ndarray]:
    """-value(P_1, ..., P_F) and its exact gradient in the packed raw vectors x.

    x holds the real then the imaginary parts of the raw rows w_b of every
    frame in turn; frame f holds the rows parts[f]. Per frame, with
    T = sum_b |w_b><w_b| = V diag(lam) V^dagger, u_b = T^(-1/2) w_b and
    P_f[a, b] = <u_b| rho_a |u_b> clipped at 0, the caller's gradient G_f of
    value (zero where P_f was clipped) pulls back through the Born rule to
    h_b = sum_a G_f[a, b] rho_a u_b, and through the frame by the
    Daleckii-Krein derivative of lam^(-1/2), whose divided differences are
    f1_ij = -1 / (sqrt(lam_i) sqrt(lam_j) (sqrt(lam_i) + sqrt(lam_j))): with
    C = sum_b |w_b><h_b| and D = V (f1 o V^dagger (C + C^dagger) V) V^dagger,
    d value / d conj(w_b) = T^(-1/2) h_b + D w_b. A singular frame scores
    50.0 with a zero gradient.
    """
    w_all = (x[: x.size // 2] + 1j * x[x.size // 2 :]).reshape(-1, stack.shape[1])
    frames = []
    for w in (w_all[part] for part in parts):
        lam, vecs = np.linalg.eigh(np.einsum("bi,bj->ij", w, w.conj()))
        if lam.min() < 1e-12:
            return 50.0, np.zeros_like(x)
        root = np.sqrt(lam)
        inv_sqrt = (vecs / root) @ vecs.conj().T
        u = w @ inv_sqrt.T
        raw = np.einsum("bi,aij,bj->ab", u.conj(), stack, u).real
        frames.append((w, root, vecs, inv_sqrt, u, raw))
    value, gs = value_and_grad([np.clip(f[-1], 0.0, None) for f in frames])
    grads = []
    for (w, root, vecs, inv_sqrt, u, raw), g in zip(frames, gs):
        h = np.einsum("ab,aij,bj->bi", np.where(raw < 0.0, 0.0, g), stack, u)
        c = w.T @ h.conj()
        f1 = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
        d = vecs @ (f1 * (vecs.conj().T @ (c + c.conj().T) @ vecs)) @ vecs.conj().T
        grads.append(2.0 * (h @ inv_sqrt.T + w @ d.T))
    grad = np.concatenate(grads)
    return -value, -np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def _ascend_povm(
    stack: np.ndarray, frames: list[np.ndarray], value_and_grad, max_iters: int, gtol: float = 1e-5
) -> tuple[list[np.ndarray] | None, bool]:
    """Quasi-Newton ascent of value(P_1, ..., P_F) over rank-one POVMs.

    Each of the F ``frames`` holds one POVM's raw vectors, one row per
    rank-one piece. All frames are optimized together, unconstrained, and
    each is mapped onto a POVM by ``normalize_vectors``;
    P_f[a, b] = <u_b| rho_a |u_b> for frame f's normalized vectors u_b and
    the states rho_a in ``stack``. ``value_and_grad`` takes the list of
    tables P_f and returns the value and the gradients
    G_f[a, b] = d value / d P_f[a, b]; ``_povm_objective`` pulls them back
    through the Born rule and each frame's normalization, so L-BFGS-B gets
    the exact gradient with every evaluation; it stops after ``max_iters``
    iterations or once the projected gradient is at most ``gtol``. A prior
    in the objective stays fixed; C1's ascent over the prior as well is
    ``_ascend_joint``. Returns the normalized final frames (None if any is
    singular, see ``_normalized``) and whether L-BFGS reported success.
    """
    stops = itertools.accumulate(len(w) for w in frames)
    parts = [slice(stop - len(w), stop) for w, stop in zip(frames, stops)]
    x0 = np.concatenate([w.real.ravel() for w in frames] + [w.imag.ravel() for w in frames])
    res = sciopt.minimize(
        _povm_objective,
        x0,
        args=(stack, value_and_grad, parts),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": 1e-12, "gtol": gtol},
    )
    w = (res.x[: res.x.size // 2] + 1j * res.x[res.x.size // 2 :]).reshape(-1, stack.shape[1])
    us = [_normalized(w[part]) for part in parts]
    return (None if any(u is None for u in us) else us), bool(res.success)


def _normalized(w: np.ndarray) -> np.ndarray | None:
    """``normalize_vectors(w)``, or None when the frame is singular or too
    ill-conditioned for its vectors to sum to the identity within
    ``COMPLETENESS_ATOL``, the tolerance a ``Povm`` is held to."""
    u = normalize_vectors(w)
    if u is None or np.abs(u.T @ u.conj() - np.eye(u.shape[1])).max() > COMPLETENESS_ATOL:
        return None
    return u


def _frame_effects(u: np.ndarray) -> np.ndarray:
    """The effects |u_b><u_b| of a normalized frame, without its zero rows."""
    return np.stack([np.outer(v, v.conj()) for v in u if np.vdot(v, v).real > 1e-14])


def _frame_table(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Born table of a normalized frame's POVM, the one ``_frame_povm`` builds."""
    return _born_table(_frame_effects(u), stack)


def _frame_povm(u: np.ndarray) -> Povm:
    """The rank-one POVM of a normalized frame."""
    return Povm(list(_frame_effects(u)))


def _start_frame(start: Povm, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A start POVM's rank-one frame (its nonzero pieces) and the Born table
    of its own effects, which is what the start itself scores."""
    effects = np.stack(start.effects)
    pieces, _ = _rank1_pieces(effects)
    return pieces[pieces.any(axis=1)], _born_table(effects, stack)


def _refine_frame(
    stack: np.ndarray, prior: np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """Ascent of I(prior, .) over rank-one POVMs from ``frame``, one outcome
    per rank-one piece: the normalized frame, its Born table and whether
    L-BFGS-B converged, or None for a singular frame."""

    def value_and_grad(tables):
        value, g = _mi_and_grad(prior, tables[0])
        return value, [g]

    us, ok = _ascend_povm(stack, [frame], value_and_grad, _LBFGS_MAX_ITERS)
    if us is None:
        return None
    return us[0], _frame_table(us[0], stack), ok


def _joint_objective(y: np.ndarray, stack: np.ndarray, rows: int) -> tuple[float, np.ndarray]:
    """-I(p, M) and its exact gradient over a rank-one frame and a prior together.

    y holds the frame's ``rows`` raw vectors, packed as in ``_povm_objective``,
    then the prior's logits z, p = softmax(z). The frame's gradient is
    ``_povm_objective``'s; with D_a = sum_b P[a, b] (log2 P[a, b] - log2 P(b)),
    dI/dp_a = D_a - 1/ln 2 pulls back to dI/dz_a = p_a (D_a - sum_c p_c D_c),
    where the constant cancels.
    """
    n = 2 * rows * stack.shape[1]
    p = _softmax(y[n:])
    div = np.zeros_like(p)

    def value_and_grad(tables):
        ratio = _log_ratio(p, tables[0])
        div[:] = (tables[0] * ratio).sum(axis=1)
        return _mi_from_probs(p, tables[0]), [p[:, None] * ratio]

    value, grad = _povm_objective(y[:n], stack, value_and_grad, [slice(0, rows)])
    return value, np.concatenate([grad, -p * (div - p @ div)])


def _ascend_joint(
    stack: np.ndarray, prior: np.ndarray, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One L-BFGS-B ascent of I(p, M) over the prior and the rank-one frame
    together (``_joint_objective``), stopped only once the projected gradient
    is at most ``_JOINT_GTOL``: the prior, the normalized frame and its Born
    table, or None for a singular frame."""
    y0 = np.concatenate(
        [frame.real.ravel(), frame.imag.ravel(), np.log(np.clip(prior, _EIG_LOG_FLOOR, None))]
    )
    res = sciopt.minimize(
        _joint_objective,
        y0,
        args=(stack, len(frame)),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": _LBFGS_MAX_ITERS, "ftol": 0.0, "gtol": _JOINT_GTOL},
    )
    n = frame.size
    u = _normalized((res.x[:n] + 1j * res.x[n : 2 * n]).reshape(frame.shape))
    if u is None:
        return None
    return _softmax(res.x[2 * n :]), u, _frame_table(u, stack)


def _povm_starts(
    states: tuple[DensityOperator, ...],
    prior: np.ndarray,
    cfg: OptimizerConfig,
    rng: np.random.Generator,
) -> list[Povm]:
    dim = states[0].dim
    starts: list[Povm] = []
    if len(states) == 2:
        starts.append(helstrom(states[0], states[1], float(prior[0])))
    starts.append(pretty_good_measurement(states, prior))
    starts += [random_rank1_povm(dim, dim * dim, rng) for _ in range(cfg.restarts)]
    return starts


def _maximize_over_povm(
    states: tuple[DensityOperator, ...],
    prior: np.ndarray,
    cfg: OptimizerConfig,
    rng: np.random.Generator,
) -> tuple[float, Povm, bool]:
    """Best I(prior, M) over the starts, each refined by ``_refine_frame``.

    A start that its ascent does not improve keeps its own POVM; the
    winner's POVM is built once, at the end.
    """
    stack = np.stack([s.matrix for s in states])
    best = None
    for start in _povm_starts(states, prior, cfg, rng):
        frame, table = _start_frame(start, stack)
        cand = (_mi_from_probs(prior, table), start, None, True)
        step = _refine_frame(stack, prior, frame)
        if step is not None:
            val = _mi_from_probs(prior, step[1])
            if val > cand[0]:
                cand = (val, None, step[0], step[2])
        if best is None or cand[0] > best[0]:
            best = cand
    value, povm, frame, ok = best
    return value, (povm if povm is not None else _frame_povm(frame)), ok


def accessible_information(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_M I(P, M) at the ensemble's own prior."""
    rng = np.random.default_rng(cfg.seed)
    value, povm, ok = _maximize_over_povm(e.states, e.prior, cfg, rng)
    return OptimizationResult(value, e.prior.copy(), povm=povm, converged=ok)


def _best_prior_for_channel(
    rows: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, bool]:
    """Capacity-achieving prior of a fixed classical channel (row-stochastic rows)."""
    k = rows.shape[0]
    if k == 1:
        return np.array([1.0]), 0.0, True
    if k == 2:
        ps = np.linspace(0.0, 1.0, cfg.grid_points)
        vals = _mi_curve(ps, rows)
        i = int(np.argmax(vals))
        return np.array([ps[i], 1.0 - ps[i]]), float(vals[i]), True
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rows = np.where(rows > 0, np.log2(np.where(rows > 0, rows, 1.0)), 0.0)

    def divergences(p):
        log_out = np.log2(np.clip(p @ rows, _EIG_LOG_FLOOR, None))
        return (rows * (log_rows - log_out)).sum(axis=1)

    p, converged = _blahut_arimoto(divergences, np.full(k, 1.0 / k), cfg.tol)
    out = p @ rows
    value = float(max(_entropy_rows(out) - p @ _entropy_rows(rows), 0.0))
    return p, value, converged


def _joint_maximize(
    e: CqEnsemble,
    cfg: OptimizerConfig,
    extra_starts: tuple[tuple[np.ndarray, Povm], ...] = (),
) -> OptimizationResult:
    """Seesaw over (prior, POVM) from each start, until a round gains at
    most ``cfg.tol``.

    A start is held as its rank-one frame, its prior and the Born table of
    its current POVM; no ``Povm`` or ``ClassicalChannel`` is built in the
    loop. Each round
    - ascends the frame at the fixed prior (``_refine_frame``), kept when
      it raises the value;
    - re-optimizes the prior for the row-normalized table
      (``_best_prior_for_channel``), kept when it is at least as good;
    - runs one joint ascent over the frame and the prior
      (``_ascend_joint``), kept whenever it raises the exact value.
    A start that no ascent improved keeps its own POVM, and the winner's
    POVM is built once, at the end. The structured starts (``extra_starts``,
    Helstrom, pretty-good measurement) compete on value alone; a random
    start replaces the best so far only when it beats it by more than
    ``_TIE_BITS``.
    """
    rng = np.random.default_rng(cfg.seed)
    stack = np.stack([s.matrix for s in e.states])
    starts: list[tuple[np.ndarray, Povm]] = list(extra_starts)
    if e.size == 2:
        seen = set()
        for p0 in (float(e.prior[0]), 0.5, 0.25, 0.75):
            key = round(p0, 6)
            if key in seen:
                continue
            seen.add(key)
            prior = np.array([p0, 1.0 - p0])
            starts.append((prior, helstrom(e.states[0], e.states[1], p0)))
    starts.append((e.prior.copy(), pretty_good_measurement(e.states, e.prior)))
    structured = len(starts)
    for _ in range(cfg.restarts):
        prior = rng.dirichlet(np.ones(e.size))
        starts.append((prior, random_rank1_povm(e.dim, e.dim * e.dim, rng)))
    best = None
    for i, (prior, povm) in enumerate(starts):
        frame, table = _start_frame(povm, stack)
        val = _mi_from_probs(prior, table)
        converged = False
        for _ in range(cfg.max_iters):
            v_pov = _mi_from_probs(prior, table)
            step = _refine_frame(stack, prior, frame)
            if step is not None and _mi_from_probs(prior, step[1]) > v_pov:
                (frame, table, _), povm = step, None
                v_pov = _mi_from_probs(prior, table)
            rows = table / table.sum(axis=1, keepdims=True)
            prior_new, v_pri, _ = _best_prior_for_channel(rows, cfg)
            new_val = max(v_pov, v_pri)
            if v_pri >= v_pov:
                prior = prior_new
            joint = _ascend_joint(stack, prior, frame)
            if joint is not None and _mi_from_probs(joint[0], joint[2]) > new_val:
                (prior, frame, table), povm = joint, None
                new_val = _mi_from_probs(prior, table)
            if new_val <= val + cfg.tol:
                val = max(val, new_val)
                converged = True
                break
            val = new_val
        if best is None or val > best[0] + (_TIE_BITS if i >= structured else 0.0):
            best = (val, prior, povm, frame, converged)
    val, prior, povm, frame, converged = best
    povm = povm if povm is not None else _frame_povm(frame)
    return OptimizationResult(val, prior, povm=povm, converged=converged)


def c1(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """Single-copy capacity: max over priors and POVMs of I(P, M)."""
    return _joint_maximize(e, cfg)


def c_k(e: CqEnsemble, k: int, cfg: OptimizerConfig) -> OptimizationResult:
    """Block-k capacity with collective measurements over k copies.

    Maximizes I over priors on length-k words and POVMs on the k-fold
    product space. Lies between k*C1 (product strategies) and k*C (the
    entropy bound), which the seesaw start set exploits.
    """
    k = int(k)
    if k < 1:
        raise ValidationError("block-length", f"k must be >= 1, got {k}")
    if k == 1:
        return c1(e, cfg)
    total = e.dim**k
    if total > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(total, DEFAULT_DIM_BUDGET, f"block capacity k={k}")
    single = c1(e, cfg)
    words = list(itertools.product(range(e.size), repeat=k))
    prod_states = tuple(
        DensityOperator(reduce(np.kron, (e.states[a].matrix for a in w))) for w in words
    )
    prod_prior = reduce(np.kron, [e.prior] * k)
    prod_e = CqEnsemble(prod_prior, prod_states)
    extra = ()
    if single.povm is not None:
        start_prior = reduce(np.kron, [single.prior] * k)
        extra = ((start_prior, expand([single.povm] * k)),)
    result = _joint_maximize(prod_e, cfg, extra_starts=extra)
    result.converged = result.converged and single.converged
    return result


def classical_advantage(
    v: ClassicalChannel, w: ClassicalChannel, cfg: OptimizerConfig
) -> ConditionReport:
    """Wiretap feasibility: is max_P [I(P,V) - I(P,W)] positive?

    The objective is a difference of concave functions, so the search is a
    dense grid (binary input) or multi-start ascent; the verdict margin
    comes from the config.
    """
    if v.in_size != w.in_size:
        raise DimensionMismatch(
            f"channels disagree on input alphabet: {v.in_size} vs {w.in_size}"
        )
    k = v.in_size
    if k == 2:
        ps = np.linspace(0.0, 1.0, cfg.grid_points)

        def advantage(q):
            p = np.array([q, 1.0 - q])
            return mutual_information(p, v) - mutual_information(p, w)

        vals = _mi_curve(ps, v.matrix) - _mi_curve(ps, w.matrix)
        best_p, best_v = _refine_binary_prior(ps, vals, advantage)
        prior = np.array([best_p, 1.0 - best_p])
        return ConditionReport(
            kind="classical", lhs=best_v, rhs=0.0, margin=cfg.margin, lhs_prior=prior
        )
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(k)] + [rng.normal(size=k) for _ in range(max(cfg.restarts, 1))]

    def neg_soft(z):
        p = _softmax(z)
        return -(mutual_information(p, v) - mutual_information(p, w))

    best_v, best_prior, ok = -np.inf, None, True
    for z0 in starts:
        res = sciopt.minimize(neg_soft, z0, method="L-BFGS-B", options={"maxiter": _LBFGS_MAX_ITERS})
        if -res.fun > best_v:
            best_v, best_prior, ok = float(-res.fun), _softmax(res.x), bool(res.success)
    return ConditionReport(
        kind="classical", lhs=best_v, rhs=0.0, margin=cfg.margin, lhs_prior=best_prior,
        converged=ok,
    )


def quantum_condition(
    e: CqEnsemble, theta: QuantumChannel, cfg: OptimizerConfig
) -> ConditionReport:
    """Compare the receiver's collective capacity against the adversary's
    single-copy capacity across the two channel marginals."""
    eb = push_through(e, marginal(theta, "B"))
    ee = push_through(e, marginal(theta, "E"))
    lhs = holevo_capacity(eb, cfg)
    rhs = c1(ee, cfg)
    return ConditionReport(
        kind="quantum",
        lhs=lhs.value,
        rhs=rhs.value,
        margin=cfg.margin,
        lhs_prior=lhs.prior,
        rhs_prior=rhs.prior,
        rhs_povm=rhs.povm,
        converged=lhs.converged and rhs.converged,
    )
