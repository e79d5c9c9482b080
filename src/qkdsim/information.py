"""Information quantities and the two key-distribution feasibility conditions.

The receiver side is scored by the Holevo capacity C = max_P chi(P) (the
collective-decoding capacity of the induced classical-quantum channel); the
adversary side by the single-copy capacity C1 = max_{P,M} I(P, M), an
accessible-information maximum over priors and POVMs. The quantum
feasibility condition compares the two across the channel marginals; the
classical condition is the wiretap criterion max_P [I(P,V) - I(P,W)] > 0.

Every prior search is one ascent, ``_ascend_prior``: L-BFGS-B on weights
q >= 0, p = q / sum(q), whose stop bounds Blahut-Arimoto's duality gap
max_a D_a - p @ D (Nagaoka, ISIT 1998). The concave capacities ascend from
the uniform prior, and Blahut-Arimoto steps polish the prior and certify the
gap (``_capacity_prior``); the wiretap advantage, not concave, ascends from a
start set. C1's prior moves with its POVM, as described below.

POVM maximization runs on rank-one frames: raw vectors w_b, normalized by
the frame operator to u_b = T^(-1/2) w_b and scored through the Born table
P[a, b] = <u_b| rho_a |u_b>. Every ascent of frames is L-BFGS-B on
``_povm_objective``, which pulls the caller's gradient dI/dP_f (for the
mutual information p(a) (log2 P(b|a) - log2 P(b)), ``_mi_and_grad``) back
exactly through the Born rule and the normalization (the Daleckii-Krein
derivative of T^(-1/2)). Several frames go through one stacked pass, their
rows scattered into one zero-padded (F, r, d) array with one batched
``eigh``; a padded row's column of P is 0 and its gradient is never gathered
back. A single frame skips the frame axis, so its bits are a one-frame
pass's. The adversary's seesaw (``simulation.eve_optimize``) ascends a slot
or all of its slots by ``_ascend_povm``. C1, C_k and
``accessible_information`` climb many independent starts at once by
``_ascend_starts``: one L-BFGS-B problem on the sum over starts of
I(p_f, P_f), each start's frame (and in a joint ascent its prior's logits)
one block of x, so the gradient is blockwise (Byrd, Lu, Nocedal and Zhu,
SIAM J. Sci. Comput. 16, 1190 (1995)). L-BFGS-B's one call site is
``_lbfgs``; a start that already meets the projected-gradient stop returns
there without a scipy call, and does not join a stacked ascent.

The starts are held as arrays, one per quantity (``_Starts``): frames
zero-padded into (F, R, d), priors, Born tables and values. An ascent's ends
are normalized, tabled and scored by one call each over every start. A
structured start (Helstrom, pretty-good measurement) keeps its ``Povm`` until
an ascent moves it; otherwise only the winner's is built. C1 and C_k are a
seesaw over (prior, POVM): a round is one joint ascent over the frame and the
prior's logits (``_joint_objective``; Shor, Math. Program. 97, 311 (2003)),
kept when it raises the start's exact value. For two letters that is the
whole round, I being concave in the one-number prior at a fixed POVM. From
three letters on, a letter whose logit has fallen far cannot come back, so
the round first ascends every frame at its fixed prior and re-optimizes each
prior for its row-normalized table. A later start replaces the best only when
it beats it by more than ``_TIE_BITS``, so of starts that reach one maximum
the earliest is the witness. ``accessible_information`` climbs its starts at
the ensemble's prior. Every reported value is re-evaluated through the exact
Born-rule path, so it is achievable by the returned witness.

``scipy.optimize`` is imported inside ``_lbfgs``, not at module level: the
exact enumerator, the command line's set-up and an ascent whose start already
meets its stop run on numpy alone and never pay scipy's import, which costs
more than the rest of the package's start-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble, QuantumChannel, marginal, push_through
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .measurements import (
    COMPLETENESS_ATOL,
    ClassicalChannel,
    Povm,
    _born_table,
    expand,
    helstrom,
    pretty_good_measurement,
    random_rank1_povm,
)
from .states import require_distribution

_BA_MAX_ITERS = 2000
_LBFGS_MAX_ITERS = 300
_EIG_LOG_FLOOR = 1e-18
# L-BFGS-B's projected-gradient stop for every stacked ascent of starts and
# the adversary's joint ascent over its slots; one-slot ascents keep 1e-5.
_JOINT_GTOL = 1e-8
# A later start of C1's seesaw replaces the best start so far only when it
# beats it by more than this; below it, two starts that reached the same
# maximum differ by rounding alone, and the earlier witness stays.
_TIE_BITS = 1e-13


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the prior/POVM searches.

    grid_points is the resolution of the start grid of the binary wiretap
    search, restarts the number of random seesaw restarts (and of random
    wiretap starts), max_iters the alternation cap, tol the convergence
    threshold on the objective and on a capacity's duality gap, and margin the
    verdict margin in bits for "satisfied" condition reports.
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


def _entropy_terms(x: np.ndarray) -> np.ndarray:
    """-x log2 x of every entry, clipped to [0, 1] first, 0 log 0 = 0."""
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    pos = x > 0
    return np.where(pos, -x * np.log2(np.where(pos, x, 1.0)), 0.0)


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, 0 log 0 = 0."""
    return _entropy_terms(rows).sum(axis=-1)


def shannon_entropy(p) -> float:
    """Entropy of a probability vector in bits."""
    p = np.asarray(p, dtype=float).ravel()
    require_distribution(p, "distribution", floor=-1e-12, atol=1e-9)
    return float(_entropy_rows(p))


def mutual_information(p, v: ClassicalChannel) -> float:
    """I(P, V) = H(output) - sum_a P(a) H(row a), in bits."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != v.in_size:
        raise DimensionMismatch(f"prior length {p.size} != channel inputs {v.in_size}")
    require_distribution(p, "distribution", floor=-1e-12, atol=1e-9)
    out = p @ v.matrix
    val = float(_entropy_rows(out) - p @ _entropy_rows(v.matrix))
    return max(val, 0.0)


def holevo_chi(e: CqEnsemble) -> float:
    """H(average state) - average state entropy at the ensemble's own prior."""
    return float(_chi_of_prior(e.prior, e.states))


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


def _log2_psd(matrices: np.ndarray) -> np.ndarray:
    """Base-2 logarithm of a PSD matrix or a stack of them, eigenvalues floored
    at ``_EIG_LOG_FLOOR``."""
    vals, vecs = np.linalg.eigh(matrices)
    logs = np.log2(np.clip(vals, _EIG_LOG_FLOOR, None))
    return (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _channel_divergences(rows: np.ndarray):
    """D_a(p) = D(row a || p @ rows) in bits, for row-stochastic rows."""
    log_rows = np.log2(np.where(rows > 0, rows, 1.0))

    def divergences(p):
        log_out = np.log2(np.clip(p @ rows, _EIG_LOG_FLOOR, None))
        return (rows * (log_rows - log_out)).sum(axis=1)

    return divergences


def _ascend_prior(divergences, p0: np.ndarray, gtol: float) -> np.ndarray:
    """L-BFGS-B ascent from p0 of a value p @ D(p) whose entries D =
    ``divergences(p)`` are its derivatives in p up to a shared constant.

    The variables are weights q >= 0, p = q / sum(q); the value's gradient in
    q is (D - p @ D) / sum(q), so L-BFGS-B's projected-gradient stop at
    ``gtol`` bounds Blahut-Arimoto's duality gap max_a D_a - p @ D, and a
    letter at weight 0 is freed once its D_a exceeds p @ D. The penalty
    (sum(q) - 1)^2 / 2 pins the scale that the value ignores, lest q drift to
    where every gradient is below the stop; q = 0, where p is undefined and
    which a quasi-Newton step can still propose, scores 50.0 with a zero
    gradient, so the line search backs off.
    """

    def objective(q):
        total = q.sum()
        if total <= 0.0:
            return 50.0, np.zeros_like(q)
        p = q / total
        div = divergences(p)
        value = float(p @ div)
        return 0.5 * (total - 1.0) ** 2 - value, (total - 1.0) - (div - value) / total

    bounds = [(0.0, None)] * p0.size
    q, _ = _lbfgs(objective, p0, (), _LBFGS_MAX_ITERS, 0.0, gtol, bounds)
    return q / q.sum()


def _capacity_prior(divergences, size: int, tol: float) -> tuple[np.ndarray, bool]:
    """Capacity-achieving prior of a concave p @ D(p), chi or a classical
    channel's I, and whether its duality gap closed to ``tol``:
    ``_ascend_prior`` from the uniform prior, then Blahut-Arimoto steps as
    polish and certificate, until the gap, which brackets the capacity, is
    within ``tol`` or ``_BA_MAX_ITERS`` steps have run."""
    p = _ascend_prior(divergences, np.full(size, 1.0 / size), tol)
    for _ in range(_BA_MAX_ITERS):
        div = divergences(p)
        if float(div.max()) - float(p @ div) <= tol:
            return p, True
        p = p * np.exp2(div - div.max())
        p = p / p.sum()
    return p, False


def holevo_capacity(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_P chi(P) over the prior simplex, by ``_capacity_prior`` with
    D_a = D(rho_a || rho_bar)."""
    stack = e.states
    self_terms = np.einsum("aij,aji->a", stack, _log2_psd(stack)).real

    def divergences(p):
        log_avg = _log2_psd(np.tensordot(p, stack, axes=1))
        return self_terms - np.einsum("aij,ji->a", stack, log_avg).real

    p, converged = _capacity_prior(divergences, e.size, cfg.tol)
    return OptimizationResult(_chi_of_prior(p, stack), p, converged=converged)


# ---------------------------------------------------------------------------
# POVM optimization


def _rank1_pieces(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split stacked (m, d, d) effects into scaled rank-one vectors sqrt(lam) v, one row each.

    One batched ``eigh`` splits every effect; each effect's rows follow its
    eigenvalues in descending order. ``groups[r]`` is the index of the effect
    that row r came from. An effect with no eigenvalue above 1e-12 keeps its
    outcome through one zero row.
    """
    vals, basis = np.linalg.eigh(np.asarray(effects, dtype=complex))
    vals, basis = vals[:, ::-1], basis[:, :, ::-1]
    keep = vals > 1e-12
    rows = np.sqrt(np.where(keep, vals, 0.0))[..., None] * basis.transpose(0, 2, 1)
    take = keep.copy()
    take[:, 0] |= ~keep.any(axis=1)
    return rows[take], np.nonzero(take)[0]


def _mi_and_marginal(prior: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """I(prior, probs) in bits and the output marginal P(b), from one
    ``_entropy_rows`` call over the rows and the marginal together."""
    out = prior @ probs
    h = _entropy_rows(np.concatenate((probs, out[None])))
    return float(max(h[-1] - prior @ h[:-1], 0.0)), out


def _mi_from_probs(prior: np.ndarray, probs: np.ndarray) -> float:
    return _mi_and_marginal(prior, probs)[0]


def _scores(priors: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """I(p_f, P_f) of F priors (F, A) and Born tables (F, A, R), by
    ``_mi_from_probs``'s entropies summed in table order, so a zero (padded)
    column changes no bit and no start's score depends on another's."""
    out = (priors[:, :, None] * tables).sum(axis=1)
    columns = np.concatenate((tables, out[:, None]), axis=1).transpose(2, 0, 1)
    h = _entropy_terms(np.ascontiguousarray(columns)).sum(axis=0)
    return np.maximum(h[:, -1] - (priors * h[:, :-1]).sum(axis=1), 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    """The prior with logits z, or one prior per row of a stack of logits."""
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def _mi_and_grad(prior: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """I(prior, probs) and its gradient G[a, b] = p(a) (log2 P(b|a) - log2 P(b)),
    both logarithms floored at ``_EIG_LOG_FLOOR``.

    The entropy terms' constants cancel, so G needs no normalization of the
    rows.
    """
    value, out = _mi_and_marginal(prior, probs)
    floor = _EIG_LOG_FLOOR
    ratio = np.log2(np.maximum(probs, floor)) - np.log2(np.maximum(out, floor))
    return value, prior[:, None] * ratio


def _divergences_stacked(priors: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_f[a] = sum_b P_f[a, b] (log2 P_f(b|a) - log2 P_f(b)) of F priors
    (F, A) and Born tables (F, A, m) at once, and the log ratios inside it,
    both logarithms floored as in ``_mi_and_grad``. I(p_f, P_f) = p_f . D_f,
    whose gradient in P_f is p_f[a] times the log ratio. A zero column, such
    as a padded row's, has a log ratio of exactly 0."""
    out = np.einsum("fa,fab->fb", priors, probs)
    floor = _EIG_LOG_FLOOR
    ratio = np.log2(np.maximum(probs, floor)) - np.log2(np.maximum(out, floor))[:, None]
    return (probs * ratio).sum(axis=2), ratio


class _Rows(NamedTuple):
    """Where the packed rows of F frames go in ``_povm_objective``'s zero-padded
    (F, r, d) array: packed row i is row ``row[i]`` of frame ``frame[i]``."""

    frame: np.ndarray
    row: np.ndarray
    shape: tuple[int, int]


def _frame_rows(sizes) -> _Rows:
    """The ``_Rows`` of frames of ``sizes`` rows each, packed one after another."""
    sizes = np.asarray(sizes)
    first = np.cumsum(sizes) - sizes
    row = np.arange(sizes.sum()) - np.repeat(first, sizes)
    return _Rows(np.repeat(np.arange(sizes.size), sizes), row, (sizes.size, int(sizes.max())))


def _pack(frames, logits=()) -> np.ndarray:
    """The packed raw vectors of ``frames``: the real then the imaginary parts
    of their rows, frame after frame, then any ``logits`` arrays."""
    return np.concatenate(
        [w.real.ravel() for w in frames] + [w.imag.ravel() for w in frames] + list(logits)
    )


def _unpack(x: np.ndarray, sizes, dim: int) -> list[np.ndarray]:
    """The complex rows of each frame of ``sizes`` rows in a packed x; the
    values after them (logits) are not read."""
    n = sum(sizes) * dim
    w = (x[:n] + 1j * x[n : 2 * n]).reshape(-1, dim)
    return np.split(w, np.cumsum(sizes)[:-1])


def _povm_objective(
    x: np.ndarray, stack: np.ndarray, value_and_grad, rows: _Rows | None
) -> tuple[float, np.ndarray]:
    """-value and its exact gradient in the packed raw vectors x of one or
    more frames (``_pack``).

    Per frame, with T = sum_b |w_b><w_b| = V diag(lam) V^dagger,
    u_b = T^(-1/2) w_b and P[a, b] = <u_b| rho_a |u_b> clipped at 0, the
    caller's gradient G of value (zero where P was clipped) pulls back through
    the Born rule to h_b = sum_a G[a, b] rho_a u_b, and through the frame by
    the Daleckii-Krein derivative of lam^(-1/2), whose divided differences are
    f1_ij = -1 / (sqrt(lam_i) sqrt(lam_j) (sqrt(lam_i) + sqrt(lam_j))): with
    C = sum_b |w_b><h_b| and D = V (f1 o V^dagger (C + C^dagger) V) V^dagger,
    d value / d conj(w_b) = T^(-1/2) h_b + D w_b. A singular frame scores
    50.0 with a zero gradient.

    With ``rows`` None, x is one frame, whose (r, d) rows go through as 2-D
    arrays (cheapest per call), and ``value_and_grad`` maps its (A, r) table
    to the value and G. Otherwise the F frames of ``rows`` are scattered into
    a zero-padded (F, r, d) array for one stacked pass, and ``value_and_grad``
    maps the (F, A, r) tables to the value and an (F, A, r) G. A padded row
    changes neither T nor the other rows, and its gradient is not gathered.
    """
    d = stack.shape[1]
    w = (x[: x.size // 2] + 1j * x[x.size // 2 :]).reshape(-1, d)
    if rows is not None:
        packed, w = w, np.zeros(rows.shape + (d,), dtype=complex)
        w[rows.frame, rows.row] = packed
    lam, vecs = np.linalg.eigh(np.einsum("...bi,...bj->...ij", w, w.conj()))
    if lam.min() < 1e-12:
        return 50.0, np.zeros_like(x)
    root = np.sqrt(lam)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    inv_sqrt_t = ((vecs / root[..., None, :]) @ vecs_h).swapaxes(-1, -2)
    u = w @ inv_sqrt_t
    raw = np.einsum("...bi,aij,...bj->...ab", u.conj(), stack, u).real
    value, g = value_and_grad(np.maximum(raw, 0.0))
    h = np.einsum("...ab,aij,...bj->...bi", np.where(raw < 0.0, 0.0, g), stack, u)
    c = w.swapaxes(-1, -2) @ h.conj()
    col, row = root[..., :, None], root[..., None, :]
    f1 = -1.0 / ((col * row) * (col + row))
    dd = vecs @ (f1 * (vecs_h @ (c + c.conj().swapaxes(-1, -2)) @ vecs)) @ vecs_h
    grad = 2.0 * (h @ inv_sqrt_t + w @ dd.swapaxes(-1, -2))
    if rows is not None:
        grad = grad[rows.frame, rows.row]
    return -value, -np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def _ascend_povm(
    stack: np.ndarray, frames: list[np.ndarray], value_and_grad, max_iters: int, gtol: float = 1e-5
) -> tuple[list[np.ndarray] | None, bool]:
    """Quasi-Newton ascent of one value(P_1, ..., P_F) over rank-one POVMs,
    the adversary's slot ascent.

    Each of the F ``frames`` holds one POVM's raw vectors, one row per
    rank-one piece; all are optimized together, unconstrained, on
    ``_povm_objective`` with its ``value_and_grad``, so L-BFGS-B (``_lbfgs``)
    gets the exact gradient. It stops after ``max_iters`` iterations or once
    the projected gradient is at most ``gtol``. Returns the normalized final
    frames (None if any fails ``_normalized_frames``) and whether L-BFGS-B
    reported success.
    """
    sizes = [len(w) for w in frames]
    rows = None if len(frames) == 1 else _frame_rows(sizes)
    args = (stack, value_and_grad, rows)
    x, ok = _lbfgs(_povm_objective, _pack(frames), args, max_iters, 1e-12, gtol)
    us, good = zip(*(_normalized_frames(w) for w in _unpack(x, sizes, stack.shape[1])))
    return (list(us) if all(good) else None), ok


def _lbfgs(fun, x0: np.ndarray, args: tuple, max_iters: int, ftol: float, gtol: float,
           bounds=None, first=None):
    """L-BFGS-B minimization of fun(x, *args) = (value, gradient) from x0: the
    final point and whether L-BFGS-B reported success. The package's one
    L-BFGS-B call site, for every analytic-gradient ascent; ``bounds`` are
    L-BFGS-B's (low, high) pairs, None for an unbounded ascent, and ``first``
    is fun(x0, *args) when the caller has it already.

    L-BFGS-B stops at iteration 0 when x0's projected gradient, never
    larger than |g| entry by entry, is at most gtol; so a start with
    max_i |g_i(x0)| <= gtol returns x0 as converged here without a scipy
    call. Otherwise scipy's first evaluation, at x0, is served from a
    one-shot memo. ``scipy.optimize`` is imported here, on first need.
    """
    if first is None:
        first = fun(x0, *args)
    if np.abs(first[1]).max() <= gtol:
        return x0, True

    pending = [first]

    def memo(x, *fun_args):
        return pending.pop() if pending and np.array_equal(x, x0) else fun(x, *fun_args)

    from scipy import optimize

    options = {"maxiter": max_iters, "ftol": ftol, "gtol": gtol}
    res = optimize.minimize(
        memo, x0, args=args, jac=True, method="L-BFGS-B", bounds=bounds, options=options
    )
    return res.x, bool(res.success)


def _normalized_frames(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``normalize_vectors`` of one (r, d) frame or of each of a zero-padded
    (F, R, d) stack by one batched ``eigh``, and whether each is a POVM: not
    singular, and complete within ``COMPLETENESS_ATOL``. A padded row stays 0
    and changes no other bit."""
    t = np.einsum("...bi,...bj->...ij", w, w.conj())
    vals, vecs = np.linalg.eigh(t)
    ok = vals.min(axis=-1) >= 1e-12
    root = np.sqrt(np.where(ok[..., None], vals, 1.0))
    inv_sqrt = (vecs / root[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    u = w @ inv_sqrt.swapaxes(-1, -2)
    err = np.abs(u.swapaxes(-1, -2) @ u.conj() - np.eye(w.shape[-1])).max(axis=(-2, -1))
    return u, ok & (err <= COMPLETENESS_ATOL)


def _kept_rows(u: np.ndarray) -> np.ndarray:
    """The rows of normalized frames that carry an effect: squared norm above 1e-14."""
    return (u.real**2 + u.imag**2).sum(axis=-1) > 1e-14


def _frame_tables(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Born tables (F, A, R) of zero-padded normalized frames (F, R, d), those
    of the POVMs ``_frame_povm`` builds, with a zero column per dropped row."""
    effects = u[..., :, None] * u.conj()[..., None, :]
    return np.where(_kept_rows(u)[:, None, :], _born_table(effects, stack), 0.0)


def _frame_povm(u: np.ndarray) -> Povm:
    """The rank-one POVM of a normalized frame, one effect per kept row."""
    v = u[_kept_rows(u)]
    return Povm(v[:, :, None] * v.conj()[:, None, :])


def _start_frame(start: Povm, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A start POVM's rank-one frame (its nonzero pieces) and its Born table."""
    pieces, _ = _rank1_pieces(start.effects)
    return pieces[pieces.any(axis=1)], _born_table(start.effects, stack)


def _padded(frames, width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Frames zero-padded into one (F, R, d) array, R >= ``width``, and their row counts."""
    sizes = np.array([len(w) for w in frames])
    rows = _frame_rows(sizes)
    out = np.zeros((len(frames), max(rows.shape[1], width), frames[0].shape[1]), dtype=complex)
    out[rows.frame, rows.row] = np.concatenate(frames)
    return out, sizes


@dataclass
class _Starts:
    """Starts held as one array per quantity: rank-one frames zero-padded into
    (F, R, d), frame f's rows its first ``sizes[f]``; priors (F, A); Born
    tables (F, A, R); values (F,), -inf for a rejected frame; and whether
    their last ascent reported success (F,)."""

    priors: np.ndarray
    frames: np.ndarray
    sizes: np.ndarray
    tables: np.ndarray
    values: np.ndarray
    ok: np.ndarray

    def __getitem__(self, f: int):
        """Start f unpadded, (prior, frame, table, flag), or None if rejected."""
        if self.values[f] == -np.inf:
            return None
        r = self.sizes[f]
        return self.priors[f], self.frames[f, :r], self.tables[f, :, :r], bool(self.ok[f])


def _start_set(stack: np.ndarray, priors: np.ndarray, povms, raws) -> _Starts:
    """The starts ``povms`` (``_start_frame``) and the rank-one POVMs that
    ``random_rank1_povm`` makes of the raw frames ``raws``, at ``priors``;
    the random ones are normalized, split and tabled in one batch each and
    get no ``Povm``. A start scores the table of its own effects."""
    frames, tables = map(list, zip(*(_start_frame(povm, stack) for povm in povms)))
    if raws:
        u, ok = _normalized_frames(np.stack(raws))
        if not ok.all():
            raise ValidationError("frame", "random vectors do not span the space")
        effects = u[..., :, None] * u.conj()[..., None, :]
        pieces, groups = _rank1_pieces(effects.reshape(-1, *effects.shape[2:]))
        nonzero = pieces.any(axis=1)
        counts = np.bincount(groups[nonzero] // effects.shape[1], minlength=len(raws))
        frames += np.split(pieces[nonzero], np.cumsum(counts)[:-1])
        tables += list(_born_table(effects, stack))
    cols = _frame_rows([t.shape[1] for t in tables])
    frames, sizes = _padded(frames, cols.shape[1])
    padded = np.zeros((len(tables), len(stack), frames.shape[1]))
    padded[cols.frame, :, cols.row] = np.concatenate(tables, axis=1).T
    return _Starts(priors, frames, sizes, padded, _scores(priors, padded), np.ones(len(sizes), bool))


def _joint_objective(y: np.ndarray, stack: np.ndarray, rows: _Rows) -> tuple[float, np.ndarray]:
    """-sum_f I(p_f, M_f) and its exact gradient over F rank-one frames and F
    priors together.

    y holds the frames' raw vectors, packed as in ``_povm_objective`` with
    ``rows``, then each prior's logits z_f, p_f = softmax(z_f). The frames'
    gradient is ``_povm_objective``'s; with D_f[a] = sum_b P_f[a, b]
    (log2 P_f[a, b] - log2 P_f(b)), dI/dp_f[a] = D_f[a] - 1/ln 2 pulls back
    to dI/dz_f[a] = p_f[a] (D_f[a] - p_f . D_f), where the constant cancels.
    """
    n = 2 * rows.frame.size * stack.shape[1]
    p = _softmax(y[n:].reshape(rows.shape[0], -1))
    div = np.zeros_like(p)

    def value_and_grad(tables):
        div[:], ratio = _divergences_stacked(p, tables)
        return float((p * div).sum()), p[:, :, None] * ratio

    value, grad = _povm_objective(y[:n], stack, value_and_grad, rows)
    pull = p * (div - (p * div).sum(axis=1, keepdims=True))
    return value, np.concatenate([grad, -pull.ravel()])


def _block_max(grad: np.ndarray, rows: _Rows, dim: int) -> np.ndarray:
    """max |grad| over each start's block of a packed gradient: its frame's
    rows, real and imaginary, and any logits after the frames."""
    n = rows.frame.size * dim
    per_row = np.abs(grad[: 2 * n]).reshape(2, -1, dim).max(axis=(0, 2))
    top = np.zeros(rows.shape[0])
    np.maximum.at(top, rows.frame, per_row)
    if grad.size > 2 * n:
        top = np.maximum(top, np.abs(grad[2 * n :]).reshape(rows.shape[0], -1).max(axis=1))
    return top


def _ascend_starts(stack: np.ndarray, priors, frames, joint: bool, sizes=None) -> _Starts:
    """One L-BFGS-B ascent of sum_f I(p_f, M_f) over F starts' rank-one
    frames, and with ``joint`` their priors (``_joint_objective``), at once.

    ``frames`` is a zero-padded (F, R, d) array, frame f's rows its first
    ``sizes[f]``, or without ``sizes`` a sequence of unpadded frames. Each
    start is one block of x, so one stacked ``_povm_objective`` pass serves
    all. A start whose block already meets the stop, max |g| at most
    ``_JOINT_GTOL``, does not join and comes back as it went in, as
    ``_lbfgs`` returns it alone. The others climb in one ``_lbfgs`` call
    (``ftol`` 0) to the stop, a failed line search or ``_LBFGS_MAX_ITERS``
    iterations. The ends are normalized, tabled and scored in one call each
    and returned as ``_Starts`` of width R.
    """
    if sizes is None:
        frames, sizes = _padded(frames)
    priors = np.asarray(priors, dtype=float)
    dim = stack.shape[1]
    w, ends, ok = np.zeros_like(frames), priors.copy(), np.ones(len(frames), dtype=bool)

    def problem(idx):
        rows = _frame_rows(sizes[idx])
        packed = frames[idx[rows.frame], rows.row]
        parts = [packed.real.ravel(), packed.imag.ravel()]
        if joint:
            parts.append(np.log(np.clip(priors[idx], _EIG_LOG_FLOOR, None)).ravel())
            return np.concatenate(parts), _joint_objective, (stack, rows)

        fixed = priors[idx]

        def value_and_grad(tables):
            div, ratio = _divergences_stacked(fixed, tables)
            return float((fixed * div).sum()), fixed[:, :, None] * ratio

        return np.concatenate(parts), _povm_objective, (stack, value_and_grad, rows)

    def end(idx, x, rows):
        n = rows.frame.size * dim
        w[idx[rows.frame], rows.row] = (x[:n] + 1j * x[n : 2 * n]).reshape(-1, dim)
        if joint:
            ends[idx] = _softmax(x[2 * n :].reshape(idx.size, -1))

    everyone = np.arange(len(frames))
    x0, fun, args = problem(everyone)
    first = fun(x0, *args)
    end(everyone, x0, args[-1])
    moving = everyone[_block_max(first[1], args[-1], dim) > _JOINT_GTOL]
    if moving.size:
        if moving.size < everyone.size:
            x0, fun, args = problem(moving)
            first = None
        x, ok[moving] = _lbfgs(fun, x0, args, _LBFGS_MAX_ITERS, 0.0, _JOINT_GTOL, first=first)
        end(moving, x, args[-1])
    u, valid = _normalized_frames(w)
    tables = _frame_tables(u, stack)
    return _Starts(ends, u, sizes, tables, np.where(valid, _scores(ends, tables), -np.inf), ok)


def accessible_information(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_M I(P, M) at the ensemble's own prior, over the starts (Helstrom
    for two letters, the pretty-good measurement, ``cfg.restarts`` random
    rank-one POVMs) climbed by one fixed-prior ``_ascend_starts`` call. A
    start its ascent does not improve keeps its own value and POVM."""
    rng = np.random.default_rng(cfg.seed)
    povms = [pretty_good_measurement(e)]
    if e.size == 2:
        povms.insert(0, helstrom(e.states[0], e.states[1], float(e.prior[0])))
    m = (e.dim * e.dim, e.dim)
    raws = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(cfg.restarts)]
    priors = np.tile(e.prior, (len(povms) + len(raws), 1))
    starts = _start_set(e.states, priors, povms, raws)
    ends = _ascend_starts(e.states, priors, starts.frames, False, starts.sizes)
    f = int(np.argmax(np.maximum(ends.values, starts.values)))
    if ends.values[f] > starts.values[f]:
        _, frame, _, ok = ends[f]
        return OptimizationResult(float(ends.values[f]), e.prior.copy(), _frame_povm(frame), ok)
    povm = povms[f] if f < len(povms) else _frame_povm(starts[f][1])
    return OptimizationResult(float(starts.values[f]), e.prior.copy(), povm)


def _best_prior_for_channel(
    rows: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, bool]:
    """Capacity-achieving prior of a fixed classical channel (row-stochastic
    rows) by ``_capacity_prior``: the prior, its value and whether the duality
    gap closed to ``cfg.tol``."""
    p, converged = _capacity_prior(_channel_divergences(rows), rows.shape[0], cfg.tol)
    out = p @ rows
    value = float(max(_entropy_rows(out) - p @ _entropy_rows(rows), 0.0))
    return p, value, converged


def _climb(stack, held: _Starts, active, news, own, joint: bool) -> np.ndarray:
    """One ``_ascend_starts`` of the ``active`` starts; each moves to its end
    where that beats its ``news``, which then takes the end's value, and no
    longer holds its ``own`` POVM. Returns the new ``news``."""
    ends = _ascend_starts(stack, held.priors[active], held.frames[active], joint, held.sizes[active])
    up = ends.values > news
    moved = active[up]
    held.priors[moved], held.frames[moved] = ends.priors[up], ends.frames[up]
    held.tables[moved], own[moved] = ends.tables[up], False
    return np.where(up, ends.values, news)


def _joint_maximize(
    e: CqEnsemble,
    cfg: OptimizerConfig,
    extra_starts: tuple[tuple[np.ndarray, Povm], ...] = (),
) -> OptimizationResult:
    """Seesaw over (prior, POVM) from each start, until a round gains at
    most ``cfg.tol``.

    The starts (``extra_starts``, for two letters Helstrom at the ensemble's
    prior and at 0.5, 0.25 and 0.75, the pretty-good measurement and
    ``cfg.restarts`` random ones) are ``_Starts`` with a converged flag each,
    and every start still climbing takes its round in the same stacked
    ascents. A round is one joint ascent, kept when it raises the start's
    value; from three letters on it first has a fixed-prior frame ascent,
    kept likewise, and ``_best_prior_for_channel`` on the row-normalized
    table, kept when as good. A start leaves once a round gains at most
    ``cfg.tol``, or after ``cfg.max_iters`` rounds.
    """
    rng = np.random.default_rng(cfg.seed)
    stack = e.states
    starts: list[tuple[np.ndarray, Povm]] = list(extra_starts)
    if e.size == 2:
        ps = (float(e.prior[0]), 0.5, 0.25, 0.75)
        for i, p0 in enumerate(ps):
            if round(p0, 6) not in {round(p, 6) for p in ps[:i]}:
                starts.append((np.array([p0, 1.0 - p0]), helstrom(e.states[0], e.states[1], p0)))
    starts.append((e.prior.copy(), pretty_good_measurement(e)))
    priors, povms = map(list, zip(*starts))
    raws, m = [], (e.dim * e.dim, e.dim)
    for _ in range(cfg.restarts):
        priors.append(rng.dirichlet(np.ones(e.size)))
        raws.append(rng.normal(size=m) + 1j * rng.normal(size=m))
    held = _start_set(stack, np.array(priors), povms, raws)
    active = np.arange(held.values.size)
    own, converged = active < len(povms), np.zeros(active.size, dtype=bool)
    for _ in range(cfg.max_iters):
        if not active.size:
            break
        news = held.values[active]
        if e.size > 2:
            # A kept prior step leaves a start's value apart from its table's.
            news = _scores(held.priors[active], held.tables[active])
            news = _climb(stack, held, active, news, own, False)
            for j, f in enumerate(active):
                # Its nonzero columns in C order, as an unpadded table holds them.
                table = held.tables[f].compress(held.tables[f].any(axis=0), axis=1)
                prior, value, _ = _best_prior_for_channel(table / table.sum(axis=1, keepdims=True), cfg)
                if value >= news[j]:
                    held.priors[f], news[j] = prior, value
        news = _climb(stack, held, active, news, own, True)
        converged[active] = news <= held.values[active] + cfg.tol
        held.values[active] = np.maximum(held.values[active], news)
        active = active[~converged[active]]
    values, best = held.values.tolist(), 0
    for f, value in enumerate(values):
        if value > values[best] + _TIE_BITS:
            best = f
    povm = povms[best] if own[best] else _frame_povm(held[best][1])
    return OptimizationResult(values[best], held.priors[best], povm, bool(converged[best]))


def c1(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """Single-copy capacity: max over priors and POVMs of I(P, M)."""
    return _joint_maximize(e, cfg)


def c_k(e: CqEnsemble, k: int, cfg: OptimizerConfig) -> OptimizationResult:
    """Block-k capacity with collective measurements over k copies.

    Maximizes I over priors on length-k words and POVMs on the k-fold
    product space by C1's seesaw (``_joint_maximize``), its start set led by
    the product of C1's witness. Lies between k*C1 (product strategies) and
    k*C (the entropy bound), which the seesaw start set exploits.
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
    words = itertools.product(range(e.size), repeat=k)
    prod_states = [reduce(np.kron, (e.states[a] for a in w)) for w in words]
    prod_e = CqEnsemble(reduce(np.kron, [e.prior] * k), prod_states)
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

    The objective p @ (D^V - D^W) is a difference of concave functions, so
    ``_ascend_prior`` climbs it from the best point of a ``cfg.grid_points``
    grid (two inputs) or from the uniform and ``max(cfg.restarts, 1)`` random
    priors, and the best end wins. Here the gap max_a D_a - p @ D certifies a
    stationary point only; a gap g leaves about g^2 to a local maximum of unit
    curvature, so the search converged when the winner's is <= sqrt(cfg.tol).
    """
    if v.in_size != w.in_size:
        raise DimensionMismatch(
            f"channels disagree on input alphabet: {v.in_size} vs {w.in_size}"
        )
    k = v.in_size
    div_v, div_w = _channel_divergences(v.matrix), _channel_divergences(w.matrix)

    def divergences(p):
        return div_v(p) - div_w(p)

    if k == 2:
        ps = np.linspace(0.0, 1.0, cfg.grid_points)
        q = ps[int(np.argmax(_mi_curve(ps, v.matrix) - _mi_curve(ps, w.matrix)))]
        starts = [np.array([q, 1.0 - q])]
    else:
        rng = np.random.default_rng(cfg.seed)
        starts = [np.full(k, 1.0 / k)]
        starts += [rng.dirichlet(np.ones(k)) for _ in range(max(cfg.restarts, 1))]
    best_v, best_prior = -np.inf, None
    for p0 in starts:
        p = _ascend_prior(divergences, p0, cfg.tol)
        val = mutual_information(p, v) - mutual_information(p, w)
        if val > best_v:
            best_v, best_prior = val, p
    div = divergences(best_prior)
    return ConditionReport(
        kind="classical", lhs=best_v, rhs=0.0, margin=cfg.margin, lhs_prior=best_prior,
        converged=bool(div.max() - best_prior @ div <= math.sqrt(cfg.tol)),
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
        kind="quantum", lhs=lhs.value, rhs=rhs.value, margin=cfg.margin, lhs_prior=lhs.prior,
        rhs_prior=rhs.prior, rhs_povm=rhs.povm, converged=lhs.converged and rhs.converged,
    )
