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
the frame operator to u_b = T^(-1/2) w_b (``measurements._normalized_frames``)
and scored through the Born table P[a, b] = <u_b| rho_a |u_b>. Frames have
one layout everywhere: F frames zero-padded into one (F, R, d) array, a
frame's rows its nonzero rows; an ascent's row of variables holds the real and
then the imaginary parts of its frames, then a tail: logits, a fixed prior or
nothing. ``_frame_pullback`` pulls the caller's gradient dI/dP_f (for the
mutual information p(a) (log2 P(b|a) - log2 P(b)), ``_divergences_stacked``)
back exactly through the Born rule and the normalization (the Daleckii-Krein
derivative of T^(-1/2)), every frame in one batched pass and each frame's
bits its own. A padded row is a variable whose gradient is exactly 0 (u_b = 0
gives it a zero column of P, whose log ratio is 0), so an ascent leaves it at
exactly 0.

Every POVM ascent is ``_ascend_frames``: the package's own L-BFGS,
``_lbfgs_rows``, on one row objective, ``_frame_rows``, with the caller's
value function of the rows' Born tables and tails, one row per problem, each
row with its own curvature pairs, step and stop. All rows still climbing share
one stacked evaluation per round, so a row ends where it would alone, one that
has stopped is no longer evaluated, and one that already meets its stop does
not climb. C1's and C_k's joint ascents (``_ascend_starts``) climb one row per
start, its frame and its prior's logits, on ``_mi_values``; the fixed-prior
ascents (accessible information, and the frame step of C1's three-letter
round) carry the prior itself with a gradient of exactly 0; both stop at max
|g| at most ``_JOINT_GTOL``. The adversary's seesaw
(``simulation.eve_optimize``) climbs a slot or all of its slots as one row of
the slots' frames and no tail, on its own value function and to its own stops.

The starts are held as arrays, one per quantity (``_Starts``): frames
zero-padded into (F, R, d), priors, Born tables and values. An ascent's ends
are normalized, tabled and scored by one call each over every start. The
structured starts (``_structured_starts``: for two letters Helstrom, then the
pretty-good measurement, each at the ensemble's and the uniform prior) are
built from the ensemble alone and shared by C1 and accessible information;
one keeps its ``Povm`` until an ascent moves it, and otherwise only the
winner's is built. C1 and C_k are a
seesaw over (prior, POVM): a round is one joint ascent over the frame and the
prior's logits (``_mi_values``; Shor, Math. Program. 97, 311 (2003)), kept
when it raises the start's exact value. For two letters that is the
whole round, I being concave in the one-number prior at a fixed POVM, and a
start whose joint ascent met its stop has converged: a further round would
only re-climb from the normalized copy of its end frame. From three letters
on, a letter whose logit has fallen far cannot come back, so the round first
ascends every frame at its fixed prior and re-optimizes each prior for its
row-normalized table, and a start converges only on a round that gains at
most ``cfg.tol``. A later start replaces the best only when it beats it by
more than ``_TIE_BITS``, so of starts that reach one maximum the earliest is
the witness. Two rank-one letters need no seesaw: ``c1`` returns their closed
form's witness, the Helstrom measurement at the uniform prior (Levitin 1995),
and builds no start. ``accessible_information`` climbs its starts at the
ensemble's prior. Every reported value is re-evaluated through the exact
Born-rule path, so it is achievable by the returned witness.

``scipy.optimize`` is imported inside ``_ascend_prior``, not at module level,
and only for the prior ascents, on bounded weights: the exact enumerator, the
command line's set-up, every POVM ascent, and so the adversary's seesaw, C1 of
two letters and accessible information, run on numpy alone and never pay
scipy's import, which costs more than the rest of the package's start-up.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble, QuantumChannel, marginal, push_through
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .measurements import (
    ClassicalChannel,
    Povm,
    _born_table,
    _normalized_frames,
    expand,
    helstrom,
    pretty_good_measurement,
)
from .states import require_distribution

_BA_MAX_ITERS = 2000
_LBFGS_MAX_ITERS = 300
_EIG_LOG_FLOOR = 1e-18
# The stop max |g| of every ascent of starts, whose witnesses C1, C_k and
# accessible information print to 12 digits; the seesaw's stops are its own.
_JOINT_GTOL = 1e-8
# Curvature pairs each start keeps in an ascent of starts (scipy's default
# maxcor), the rejected trial steps in a row after which a start stops, and
# the least factor by which one rejection shrinks a step. The first step has
# unit length and a start near its stop needs one about its gradient's norm,
# so a floor of 0.1 would cost it one rejected trial per decade.
_LBFGS_MEMORY = 10
_MAX_REJECTS = 30
_MIN_SHRINK = 1e-10
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
        # bool is an Integral and a Real, but True is no count and no tolerance.
        for name in ("grid_points", "restarts", "max_iters", "seed"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(name.replace("_", "-"), f"{name} must be an integer, got {value!r}")
        for name, invariant in (("tol", "tolerance"), ("margin", "margin")):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, numbers.Real):
                raise ValidationError(invariant, f"{name} must be a real number, got {value!r}")
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
    """I(P, V) = H(output) - sum_a P(a) H(row a), in bits (``_mi_from_probs``)."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != v.in_size:
        raise DimensionMismatch(f"prior length {p.size} != channel inputs {v.in_size}")
    require_distribution(p, "distribution", floor=-1e-12, atol=1e-9)
    return _mi_from_probs(p, v.matrix)


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
    ``divergences(p)`` are its derivatives in p up to a shared constant: the
    package's one ``scipy.optimize`` call site, imported here on first need.

    The variables are weights q >= 0, p = q / sum(q); the value's gradient in
    q is (D - p @ D) / sum(q), so L-BFGS-B's projected-gradient stop at
    ``gtol`` bounds Blahut-Arimoto's duality gap max_a D_a - p @ D, and a
    letter at weight 0 is freed once its D_a exceeds p @ D. The penalty
    (sum(q) - 1)^2 / 2 pins the scale that the value ignores, lest q drift to
    where every gradient is below the stop; q = 0, where p is undefined and
    which a quasi-Newton step can still propose, scores 50.0 with a zero
    gradient, so the line search backs off. A p0 whose |g| is at most
    ``gtol`` entry by entry, where L-BFGS-B would stop at iteration 0, is
    returned without a scipy call; otherwise scipy's first evaluation, at
    p0, is served from a one-shot memo.
    """

    def objective(q):
        total = q.sum()
        if total <= 0.0:
            return 50.0, np.zeros_like(q)
        p = q / total
        div = divergences(p)
        value = float(p @ div)
        return 0.5 * (total - 1.0) ** 2 - value, (total - 1.0) - (div - value) / total

    pending = [objective(p0)]
    if np.abs(pending[0][1]).max() <= gtol:
        return p0 / p0.sum()

    def memo(q):
        return pending.pop() if pending and np.array_equal(q, p0) else objective(q)

    from scipy import optimize

    options = {"maxiter": _LBFGS_MAX_ITERS, "ftol": 0.0, "gtol": gtol}
    q = optimize.minimize(memo, p0, jac=True, method="L-BFGS-B",
                          bounds=[(0.0, None)] * p0.size, options=options).x
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


def _mi_from_probs(prior: np.ndarray, probs: np.ndarray) -> float:
    """I(prior, probs) in bits, from one ``_entropy_rows`` call over the rows
    and the output marginal together."""
    out = prior @ probs
    h = _entropy_rows(np.concatenate((probs, out[None])))
    return float(max(h[-1] - prior @ h[:-1], 0.0))


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
    both logarithms floored at ``_EIG_LOG_FLOOR``; the value is sum probs * G,
    from the same log ratios.

    The entropy terms' constants cancel, so G needs no normalization of the
    rows.
    """
    floor = _EIG_LOG_FLOOR
    ratio = np.log2(np.maximum(probs, floor)) - np.log2(np.maximum(prior @ probs, floor))
    g = prior[:, None] * ratio
    return float((probs * g).sum()), g


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


def _frame_pullback(w: np.ndarray, lam: np.ndarray, vecs: np.ndarray, stack: np.ndarray,
                    value_fn, tail: np.ndarray):
    """value_fn's value at the Born tables of the k rows' raw frames w, F a
    row stacked into (k F, R, d), and at their tails (k, t), its gradient
    2 d value / d conj(w) and its gradient in the tails, given the frame
    operators' eigenvalues lam (all positive) and eigenvectors. value_fn
    sees the tables as (k, F, A, R).

    Per frame, with T = sum_b |w_b><w_b| = V diag(lam) V^dagger,
    u_b = T^(-1/2) w_b and P[a, b] = <u_b| rho_a |u_b> clipped at 0, the
    caller's gradient G of value (zero where P was clipped) pulls back through
    the Born rule to h_b = sum_a G[a, b] rho_a u_b, and through the frame by
    the Daleckii-Krein derivative of lam^(-1/2), whose divided differences are
    f1_ij = -1 / (sqrt(lam_i) sqrt(lam_j) (sqrt(lam_i) + sqrt(lam_j))): with
    C = sum_b |w_b><h_b| and D = V (f1 o V^dagger (C + C^dagger) V) V^dagger,
    d value / d conj(w_b) = T^(-1/2) h_b + D w_b. Every step acts frame by
    frame, so no frame's bits depend on the others.
    """
    root = np.sqrt(lam)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    inv_sqrt_t = ((vecs / root[..., None, :]) @ vecs_h).swapaxes(-1, -2)
    u = w @ inv_sqrt_t
    raw = np.einsum("...bi,aij,...bj->...ab", u.conj(), stack, u).real
    value, g, tail_grad = value_fn(np.maximum(raw, 0.0).reshape(len(tail), -1, *raw.shape[1:]),
                                   tail)
    g = g.reshape(raw.shape)
    h = np.einsum("...ab,aij,...bj->...bi", np.where(raw < 0.0, 0.0, g), stack, u)
    c = w.swapaxes(-1, -2) @ h.conj()
    col, row = root[..., :, None], root[..., None, :]
    f1 = -1.0 / ((col * row) * (col + row))
    dd = vecs @ (f1 * (vecs_h @ (c + c.conj().swapaxes(-1, -2)) @ vecs)) @ vecs_h
    return value, 2.0 * (h @ inv_sqrt_t + w @ dd.swapaxes(-1, -2)), tail_grad


def _frame_rows(x: np.ndarray, stack: np.ndarray, shape: tuple[int, int, int], value_fn):
    """-value of every row of x and its exact gradient, (k,) and (k, n).

    A row holds F frames zero-padded to ``shape`` (F, R, d), their real and
    then their imaginary parts, then a tail that the frames do not touch (a
    prior's logits, a fixed prior, or nothing). ``value_fn(tables, tail)``
    maps the rows' (k, F, A, R) Born tables and their (k, t) tails to the
    values (k,), their gradient in the tables (k, F, A, R) and their gradient
    in the tails (k, t); the frames' gradient is ``_frame_pullback``'s. A row
    with a singular frame scores 50.0 with a zero gradient in its own row
    only. A padded row changes neither T nor the other rows, and its gradient
    is exactly 0 when the tables' gradient is finite on its zero column; no
    row's bits depend on the others when ``value_fn``'s do not.
    """
    k, m = len(x), math.prod(shape)
    w = (x[:, :m] + 1j * x[:, m : 2 * m]).reshape(k * shape[0], *shape[1:])
    lam, vecs = np.linalg.eigh(np.einsum("...bi,...bj->...ij", w, w.conj()))
    if lam[:, 0].min() < 1e-12:
        good = lam[:, 0].reshape(k, -1).min(axis=1) >= 1e-12
        values, grads = np.full(k, 50.0), np.zeros_like(x)
        if good.any():
            values[good], grads[good] = _frame_rows(x[good], stack, shape, value_fn)
        return values, grads
    value, grad, pull = _frame_pullback(w, lam, vecs, stack, value_fn, x[:, 2 * m :])
    return -value, -np.concatenate([grad.real.reshape(k, m), grad.imag.reshape(k, m), pull], 1)


def _ascend_frames(stack: np.ndarray, frames: np.ndarray, tail: np.ndarray, value_fn,
                   gtol: float, max_iters: int):
    """Every POVM ascent: each row of k climbs on its own by ``_lbfgs_rows`` on
    ``_frame_rows`` with ``value_fn``, from its F raw frames, zero-padded into
    one (k, F, R, d) array, and its tail (k, t), to max |g| at most ``gtol``
    or ``max_iters`` accepted steps, unconstrained and on the exact gradient.

    Returns the raw end frames (k, F, R, d), the end tails, whether each row
    met the stop and whether each took a step; padded rows stay exactly 0.
    The caller normalizes the end frames it uses (``_normalized_frames``):
    C1's starts every row, the seesaw only a row that took a step.
    """
    k, m = len(frames), frames[0].size
    x0 = np.concatenate([frames.real.reshape(k, m), frames.imag.reshape(k, m), tail], 1)
    x, ok = _lbfgs_rows(lambda y: _frame_rows(y, stack, frames.shape[1:], value_fn), x0, gtol,
                        max_iters)
    w = (x[:, :m] + 1j * x[:, m : 2 * m]).reshape(frames.shape)
    return w, x[:, 2 * m :], ok, (x != x0).any(axis=1)


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


def _padded(arrays, width: int = 0) -> np.ndarray:
    """F arrays of shape (r_f, c) zero-padded into one (F, R, c) array of their
    dtype, R >= ``width``."""
    sizes = np.array([len(a) for a in arrays])
    out = np.zeros((len(arrays), max(sizes.max(), width), arrays[0].shape[1]), arrays[0].dtype)
    out[np.arange(out.shape[1]) < sizes[:, None]] = np.concatenate(arrays)
    return out


@dataclass
class _Starts:
    """Starts held as one array per quantity: rank-one frames zero-padded into
    (F, R, d), a frame's rows its nonzero rows; priors (F, A); Born tables
    (F, A, R), a zero column per padded or dropped row; values (F,), -inf for
    a rejected frame; and whether their last ascent reported success (F,)."""

    priors: np.ndarray
    frames: np.ndarray
    tables: np.ndarray
    values: np.ndarray
    ok: np.ndarray


def _start_set(stack: np.ndarray, priors: np.ndarray, povms, raws) -> _Starts:
    """The starts ``povms`` (``_start_frame``) and the rank-one POVMs of the
    raw frames ``raws``, at ``priors``. ``_normalized_frames`` normalizes the
    raw frames as it normalizes ``random_rank1_povm``'s draw, so a frame drawn
    as that function draws gives its POVM; the random ones are normalized,
    split and tabled in one batch each and get no ``Povm``. A start scores the
    table of its own effects. Frames and tables are zero-padded to one width."""
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
    frames = _padded(frames, max(t.shape[1] for t in tables))
    padded = np.ascontiguousarray(_padded([t.T for t in tables], frames.shape[1]).swapaxes(1, 2))
    return _Starts(priors, frames, padded, _scores(priors, padded), np.ones(len(tables), bool))


def _mi_values(logits: bool):
    """``_frame_rows``' value function of I(p_f, M_f), one frame a row, whose
    tail is the prior: with ``logits`` its logits z_f, p_f = softmax(z_f),
    otherwise p_f itself, whose gradient is exactly 0 so that an ascent
    leaves it as it is. With D_f[a] = sum_b P_f[a, b] (log2 P_f[a, b] -
    log2 P_f(b)), dI/dp_f[a] = D_f[a] - 1/ln 2 pulls back to dI/dz_f[a] =
    p_f[a] (D_f[a] - p_f . D_f), where the constant cancels."""

    def value_fn(tables, tail):
        p = _softmax(tail) if logits else tail
        div, ratio = _divergences_stacked(p, tables[:, 0])
        value = (p * div).sum(axis=1)
        pull = p * (div - value[:, None]) if logits else np.zeros_like(p)
        return value, (p[:, :, None] * ratio)[:, None], pull

    return value_fn


class _Pairs:
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
    drops out exactly. A call of ``_lbfgs_rows`` builds it once a row climbs.
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


def _lbfgs_rows(fun, x: np.ndarray, gtol: float, max_iters: int):
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
    stop. numpy holds the n-vectors and ``_Pairs``' products; each row's
    scalars and flags are Python numbers, updated in one loop over the rows
    per round in the same IEEE double arithmetic, so every decision and bit
    is what masked numpy updates give.
    """
    slack = 8.0 * math.ulp(1.0)
    f, g = fun(x)
    ends, ok = x.copy(), np.ones(len(x), dtype=bool)
    live = np.flatnonzero(np.abs(g).max(axis=1) > gtol)
    if not live.size:
        return ends, ok
    x, g, k = x[live], g[live], live.size
    gamma = 1.0 / np.sqrt((g * g).sum(axis=1))
    d = -gamma[:, None] * g
    f, gamma, slope = f[live].tolist(), gamma.tolist(), (g * d).sum(axis=1).tolist()
    t, steps, rejects, accept, pairs = [1.0] * k, [0] * k, [0] * k, [True] * k, _Pairs(*x.shape)
    while live.size:
        trial = x + d if all(accept) else x + np.array(t)[:, None] * d
        f_new, g_new = fun(trial)
        s, y = trial - x, g_new - g
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        peaks, flags = np.abs(g_new).max(axis=1).tolist(), []
        for i, (fi, syi, yyi) in enumerate(zip(f_new.tolist(), sy.tolist(), yy.tolist())):
            up = fi <= f[i] + (1e-4 * t[i]) * slope[i] + slack * abs(f[i])
            good = up and syi > slack * yyi
            if good:
                gamma[i] = syi / yyi if yyi else math.inf
            if up:
                f[i], t[i], steps[i], rejects[i] = fi, 1.0, steps[i] + 1, 0
            else:
                # q is the decrease over its linear prediction t * slope, below
                # Armijo's 1e-4; the quadratic through f, slope and f_new has its
                # minimizer at t / (2 (1 - q)). numpy divides: t * slope = 0 gives inf or nan.
                q = float(np.float64(fi - f[i]) / (t[i] * slope[i]))
                t[i] *= max(0.5 / (1.0 - q) if 1.0 - q > 1.0 else 0.5, _MIN_SHRINK)
                rejects[i] += 1
            met = up and peaks[i] <= gtol
            flags.append((up, good, met, met or steps[i] >= max_iters or rejects[i] >= _MAX_REJECTS))
        accept, valid, met, stop = map(list, zip(*flags))
        if not all(valid):
            mask = np.array(valid)
            s, y, sy = s * mask[:, None], y * mask[:, None], sy * mask
        pairs.push(s, y, sy)
        moved = None if all(accept) else np.array(accept)[:, None]
        x, g = (trial, g_new) if moved is None else (np.where(moved, trial, x), np.where(moved, g_new, g))
        if any(stop):
            keep = [i for i, st in enumerate(stop) if not st]
            ends[live[stop]], ok[live[stop]] = x[stop], np.array(met)[stop]
            live, x, g, d = live[keep], x[keep], g[keep], d[keep]
            f, t, slope, gamma, steps, rejects, accept = (
                [v[i] for i in keep] for v in (f, t, slope, gamma, steps, rejects, accept))
            pairs.take(keep)
        if any(accept):
            step = -pairs.times(g, np.array(gamma))
            d = step if all(accept) else np.where(np.array(accept)[:, None], step, d)
            slope = (g * d).sum(axis=1).tolist()
    return ends, ok


def _ascend_starts(stack: np.ndarray, priors, frames: np.ndarray, joint: bool) -> _Starts:
    """An ascent of I(p_f, M_f) from each of F starts' rank-one frames, a
    zero-padded (F, R, d) array, and with ``joint`` their priors, else at
    their fixed priors. Each start is one row of ``_ascend_frames`` with
    ``_mi_values``: its frame, then its prior's logits (joint) or its prior
    itself, which gets a gradient of exactly 0 and so never moves. So a
    start's end does not depend on the other starts, and a start that
    already meets the stop, max |g| at most ``_JOINT_GTOL``, does not climb.
    The ends are normalized, tabled and scored in one call each and returned
    as ``_Starts`` of width R; padded rows stay exactly 0.
    """
    priors = np.asarray(priors, dtype=float)
    tail = np.log(np.clip(priors, _EIG_LOG_FLOOR, None)) if joint else priors
    w, ends, ok, _ = _ascend_frames(stack, frames[:, None], tail, _mi_values(joint), _JOINT_GTOL,
                                    _LBFGS_MAX_ITERS)
    if joint:
        ends = _softmax(ends)
    u, valid = _normalized_frames(w[:, 0])
    tables = _frame_tables(u, stack)
    return _Starts(ends, u, tables, np.where(valid, _scores(ends, tables), -np.inf), ok)


def _structured_starts(e: CqEnsemble) -> list[tuple[np.ndarray, Povm]]:
    """The structured starts of C1 and accessible information, (prior, POVM)
    pairs at the ensemble's prior and then the uniform prior, the latter left
    out when within 1e-6 of the former: for two letters the Helstrom
    measurement at each prior's first weight, then the pretty-good
    measurement at each prior."""
    uniform = np.full(e.size, 1.0 / e.size)
    priors = [e.prior, uniform] if np.abs(uniform - e.prior).max() > 1e-6 else [e.prior]
    starts = [(p, helstrom(*e.states, float(p[0]))) for p in priors if e.size == 2]
    return starts + [(p, pretty_good_measurement(CqEnsemble(p, e.states))) for p in priors]


def accessible_information(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_M I(P, M) at the ensemble's own prior, over the frames of C1's
    ``_structured_starts`` (built at the ensemble's and the uniform prior) and
    ``cfg.restarts`` random rank-one POVMs, each climbed on its own at that
    prior by one fixed-prior ``_ascend_starts`` call, so the value is the
    maximum over independent starts. A start its ascent does not improve
    keeps its own value and POVM."""
    rng = np.random.default_rng(cfg.seed)
    povms = [povm for _, povm in _structured_starts(e)]
    m = (e.dim * e.dim, e.dim)
    raws = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(cfg.restarts)]
    priors = np.tile(e.prior, (len(povms) + len(raws), 1))
    starts = _start_set(e.states, priors, povms, raws)
    ends = _ascend_starts(e.states, priors, starts.frames, False)
    f = int(np.argmax(np.maximum(ends.values, starts.values)))
    if ends.values[f] > starts.values[f]:
        povm = _frame_povm(ends.frames[f])
        return OptimizationResult(float(ends.values[f]), e.prior.copy(), povm, bool(ends.ok[f]))
    povm = povms[f] if f < len(povms) else _frame_povm(starts.frames[f])
    return OptimizationResult(float(starts.values[f]), e.prior.copy(), povm)


def _best_prior_for_channel(
    rows: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, bool]:
    """Capacity-achieving prior of a fixed classical channel (row-stochastic
    rows) by ``_capacity_prior``: the prior, its value and whether the duality
    gap closed to ``cfg.tol``."""
    p, converged = _capacity_prior(_channel_divergences(rows), rows.shape[0], cfg.tol)
    return p, _mi_from_probs(p, rows), converged


def _climb(stack, held: _Starts, active, news, own, joint: bool) -> tuple[np.ndarray, np.ndarray]:
    """One ``_ascend_starts`` of the ``active`` starts, joint or at their
    fixed priors, each start on its own; each moves to its end where that
    beats its ``news``, which then takes the end's value, and no longer holds
    its ``own`` POVM. Returns the new ``news`` and whether each start's
    ascent met its stop, max |g| at most ``_JOINT_GTOL``."""
    ends = _ascend_starts(stack, held.priors[active], held.frames[active], joint)
    up = ends.values > news
    moved = active[up]
    held.priors[moved], held.frames[moved] = ends.priors[up], ends.frames[up]
    held.tables[moved], own[moved] = ends.tables[up], False
    return np.where(up, ends.values, news), ends.ok


def _joint_maximize(
    e: CqEnsemble,
    cfg: OptimizerConfig,
    extra_starts: tuple[tuple[np.ndarray, Povm], ...] = (),
) -> OptimizationResult:
    """Seesaw over (prior, POVM) from each start: the starts are
    ``extra_starts``, then ``_structured_starts``, then ``cfg.restarts`` random
    ones. Each climbs on its own for at most ``cfg.max_iters`` rounds of shared
    ``_ascend_starts`` calls, so the value is a maximum over independent
    starts. A round is one joint ascent, kept when it raises the start's value,
    after (from three letters on) a fixed-prior frame ascent, kept likewise,
    and ``_best_prior_for_channel`` on the row-normalized table, kept when as
    good. A start is converged once a round gains at most ``cfg.tol`` or, for
    two letters, once its joint ascent met its stop: another round would only
    re-climb from the normalized copy of its end frame."""
    rng = np.random.default_rng(cfg.seed)
    stack = e.states
    priors, povms = map(list, zip(*extra_starts, *_structured_starts(e)))
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
            news, _ = _climb(stack, held, active, news, own, False)
            for j, f in enumerate(active):
                # Its nonzero columns in C order, as an unpadded table holds them.
                table = held.tables[f].compress(held.tables[f].any(axis=0), axis=1)
                prior, value, _ = _best_prior_for_channel(table / table.sum(axis=1, keepdims=True), cfg)
                if value >= news[j]:
                    held.priors[f], news[j] = prior, value
        news, ok = _climb(stack, held, active, news, own, True)
        converged[active] = (news <= held.values[active] + cfg.tol) | (ok & (e.size == 2))
        held.values[active] = np.maximum(held.values[active], news)
        active = active[~converged[active]]
    values, best = held.values.tolist(), 0
    for f, value in enumerate(values):
        if value > values[best] + _TIE_BITS:
            best = f
    povm = povms[best] if own[best] else _frame_povm(held.frames[best])
    return OptimizationResult(values[best], held.priors[best], povm, bool(converged[best]))


def c1(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """Single-copy capacity: max over priors and POVMs of I(P, M).

    Two rank-one letters have it in closed form, 1 - h((1 - sqrt(1 - F)) / 2)
    with F their fidelity, reached at the uniform prior by the Helstrom
    measurement at 1/2 (Levitin 1995; Fuchs, PRL 79, 1162 (1997)), whatever
    the ensemble's own prior: that witness is returned, converged, and scored
    through the exact Born-rule path. Any other ensemble takes C1's seesaw,
    ``_joint_maximize``.
    """
    stack = e.states
    if e.size == 2 and _rank1_pieces(stack)[1].size == 2:
        prior, povm = np.array([0.5, 0.5]), helstrom(stack[0], stack[1], 0.5)
        value = _scores(prior[None], _born_table(povm.effects, stack)[None])[0]
        return OptimizationResult(float(value), prior, povm)
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
    extra = ((reduce(np.kron, [single.prior] * k), expand([single.povm] * k)),)
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
