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
``_blahut_arimoto``. POVM
maximization is a seesaw: structured starts (Helstrom, pretty-good
measurement) plus random restarts, each refined by quasi-Newton ascent over
rank-one effect parametrizations with at most dim^2 outcomes.

That ascent, ``_ascend_povm``, is the single one in the package: it serves
``accessible_information``, ``c1`` and ``c_k`` here and the adversary's
per-slot seesaw in ``simulation.eve_optimize``. Each caller supplies its
objective of the Born table P together with the gradient dI/dP; for the
mutual information that is p(a) (log2 P(b|a) - log2 P(b)) (``_mi_and_grad``).
``_povm_objective`` pulls it back exactly through the Born rule and the
frame normalization u_b = T^(-1/2) w_b (the Daleckii-Krein derivative of
T^(-1/2) on T's eigenbasis), so L-BFGS-B runs on the analytic gradient.
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
    ClassicalChannel,
    FactorizedPovm,
    Povm,
    expand,
    helstrom,
    induced_channel,
    normalize_vectors,
    pretty_good_measurement,
    random_rank1_povm,
)
from .states import DensityOperator, hermitian_eigensystem

_BA_MAX_ITERS = 2000
_LBFGS_MAX_ITERS = 300
_EIG_LOG_FLOOR = 1e-18


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


def _rank1_pieces(povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Split effects into scaled rank-one vectors sqrt(lam) v, one row each.

    ``groups[r]`` is the index of the effect that row r came from. An effect
    with no eigenvalue above 1e-12 keeps its outcome through one zero row.
    """
    vecs, groups = [], []
    for b, m in enumerate(povm.effects):
        vals, basis = hermitian_eigensystem(m)
        added = False
        for lam, v in zip(vals, basis.T):
            if lam > 1e-12:
                vecs.append(np.sqrt(lam) * v)
                groups.append(b)
                added = True
        if not added:
            vecs.append(np.zeros(povm.dim, dtype=complex))
            groups.append(b)
    return np.stack(vecs), np.array(groups)


def _born_table(effects: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Born probabilities P[a, b] = Tr[M_b rho_a], clipped at 0."""
    return np.clip(np.einsum("bij,aji->ab", effects, stack).real, 0.0, None)


def _mi_from_probs(prior: np.ndarray, probs: np.ndarray) -> float:
    out = prior @ probs
    return float(max(_entropy_rows(out) - prior @ _entropy_rows(probs), 0.0))


def _mi_and_grad(prior: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """I(prior, probs) and its gradient G[a, b] = p(a) (log2 P(b|a) - log2 P(b)).

    The entropy terms' constants cancel, so G needs no normalization of the
    rows; both logarithms are floored at ``_EIG_LOG_FLOOR``.
    """
    log_rows = np.log2(np.clip(probs, _EIG_LOG_FLOOR, None))
    log_out = np.log2(np.clip(prior @ probs, _EIG_LOG_FLOOR, None))
    return _mi_from_probs(prior, probs), prior[:, None] * (log_rows - log_out)


def _povm_objective(
    x: np.ndarray, stack: np.ndarray, value_and_grad
) -> tuple[float, np.ndarray]:
    """-value(P) and its exact gradient in the packed raw vectors x.

    x holds the real then the imaginary parts of the raw rows w_b. With
    T = sum_b |w_b><w_b| = V diag(lam) V^dagger, u_b = T^(-1/2) w_b and
    P[a, b] = <u_b| rho_a |u_b> clipped at 0, the caller's gradient G of
    value(P) (zero where P was clipped) pulls back through the Born rule to
    h_b = sum_a G[a, b] rho_a u_b, and through the frame by the
    Daleckii-Krein derivative of lam^(-1/2), whose divided differences are
    f1_ij = -1 / (sqrt(lam_i) sqrt(lam_j) (sqrt(lam_i) + sqrt(lam_j))): with
    C = sum_b |w_b><h_b| and D = V (f1 o V^dagger (C + C^dagger) V) V^dagger,
    d value / d conj(w_b) = T^(-1/2) h_b + D w_b. A singular frame scores
    50.0 with a zero gradient.
    """
    dim = stack.shape[1]
    w = (x[: x.size // 2] + 1j * x[x.size // 2 :]).reshape(-1, dim)
    lam, vecs = np.linalg.eigh(np.einsum("bi,bj->ij", w, w.conj()))
    if lam.min() < 1e-12:
        return 50.0, np.zeros_like(x)
    root = np.sqrt(lam)
    inv_sqrt = (vecs / root) @ vecs.conj().T
    u = w @ inv_sqrt.T
    raw = np.einsum("bi,aij,bj->ab", u.conj(), stack, u).real
    value, g = value_and_grad(np.clip(raw, 0.0, None))
    g = np.where(raw < 0.0, 0.0, g)
    h = np.einsum("ab,aij,bj->bi", g, stack, u)
    c = w.T @ h.conj()
    f1 = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
    d = vecs @ (f1 * (vecs.conj().T @ (c + c.conj().T) @ vecs)) @ vecs.conj().T
    grad = 2.0 * (h @ inv_sqrt.T + w @ d.T)
    return -value, -np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def _ascend_povm(
    stack: np.ndarray, w0: np.ndarray, value_and_grad, max_iters: int
) -> tuple[np.ndarray | None, bool]:
    """Quasi-Newton ascent of value(P) over rank-one POVMs, with exact gradients.

    The rows of w0 are raw vectors, one per rank-one piece. They are
    optimized unconstrained and mapped onto a POVM by ``normalize_vectors``;
    P[a, b] = <u_b| rho_a |u_b> for the normalized vectors u_b and the
    states rho_a in ``stack``. ``value_and_grad(P)`` returns the value and
    G[a, b] = d value / d P[a, b]; ``_povm_objective`` pulls G back through
    the Born rule and the frame normalization, so L-BFGS-B gets the exact
    gradient with every evaluation. Returns the normalized final vectors
    (None if their frame is singular) and whether L-BFGS reported success.
    """
    x0 = np.concatenate([w0.real.ravel(), w0.imag.ravel()])
    res = sciopt.minimize(
        _povm_objective,
        x0,
        args=(stack, value_and_grad),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": 1e-12},
    )
    w = res.x[: res.x.size // 2] + 1j * res.x[res.x.size // 2 :]
    return normalize_vectors(w.reshape(-1, stack.shape[1])), bool(res.success)


def _refine_povm(stack: np.ndarray, prior: np.ndarray, start: Povm) -> tuple[float, Povm, bool]:
    """Ascent of the mutual information over rank-one POVMs, one outcome per
    rank-one piece; never returns less than the start's value."""
    pieces, _ = _rank1_pieces(start)
    w0 = pieces[pieces.any(axis=1)]
    u, ok = _ascend_povm(stack, w0, lambda probs: _mi_and_grad(prior, probs), _LBFGS_MAX_ITERS)
    best = (_exact_value(prior, start, stack), start, True)
    if u is not None:
        try:
            povm = Povm([np.outer(v, v.conj()) for v in u if np.vdot(v, v).real > 1e-14])
        except ValidationError:
            povm = None
        if povm is not None:
            val = _exact_value(prior, povm, stack)
            if val > best[0]:
                best = (val, povm, ok)
    return best


def _exact_value(prior: np.ndarray, povm: Povm, stack: np.ndarray) -> float:
    return _mi_from_probs(prior, _born_table(np.stack(povm.effects), stack))


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
    extra_starts: tuple[Povm, ...] = (),
) -> tuple[float, Povm, bool]:
    stack = np.stack([s.matrix for s in states])
    best: tuple[float, Povm, bool] | None = None
    for start in list(extra_starts) + _povm_starts(states, prior, cfg, rng):
        cand = _refine_povm(stack, prior, start)
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def accessible_information(e: CqEnsemble, cfg: OptimizerConfig) -> OptimizationResult:
    """max_M I(P, M) at the ensemble's own prior."""
    rng = np.random.default_rng(cfg.seed)
    value, povm, ok = _maximize_over_povm(e.states, e.prior, cfg, rng)
    return OptimizationResult(value, e.prior.copy(), povm=povm, converged=ok)


def _best_prior_for_channel(
    chan: ClassicalChannel, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, bool]:
    """Capacity-achieving prior of a fixed classical channel."""
    rows = chan.matrix
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
    """Seesaw over (prior, POVM): refine the POVM at a fixed prior, then
    re-optimize the prior for the induced channel, until stationary."""
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
    for _ in range(cfg.restarts):
        prior = rng.dirichlet(np.ones(e.size))
        starts.append((prior, random_rank1_povm(e.dim, e.dim * e.dim, rng)))
    best: OptimizationResult | None = None
    for prior0, povm0 in starts:
        prior, povm = prior0, povm0
        val = _exact_value(prior, povm, stack)
        converged = False
        for _ in range(cfg.max_iters):
            v_pov, povm, _ = _refine_povm(stack, prior, povm)
            chan = induced_channel(povm, e)
            prior_new, v_pri, _ = _best_prior_for_channel(chan, cfg)
            new_val = max(v_pov, v_pri)
            if v_pri >= v_pov:
                prior = prior_new
            if new_val <= val + cfg.tol:
                val = max(val, new_val)
                converged = True
                break
            val = new_val
        if best is None or val > best.value:
            best = OptimizationResult(val, prior, povm=povm, converged=converged)
    return best


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
        start_povm = expand(FactorizedPovm([single.povm] * k))
        flat = Povm(start_povm.effects)
        extra = ((start_prior, flat),)
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
        z = z - z.max()
        p = np.exp(z)
        p /= p.sum()
        return -(mutual_information(p, v) - mutual_information(p, w))

    best_v, best_prior, ok = -np.inf, None, True
    for z0 in starts:
        res = sciopt.minimize(neg_soft, z0, method="L-BFGS-B", options={"maxiter": _LBFGS_MAX_ITERS})
        if -res.fun > best_v:
            z = res.x - res.x.max()
            p = np.exp(z)
            best_v, best_prior, ok = float(-res.fun), p / p.sum(), bool(res.success)
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
