"""Work capacity: closed forms, numeric lower bounds, and a property check.

Closed forms cover the three special channel classes (noiseless, memoryless
invariant, unifilar product).  For everything else a quasi-Newton search
over bounded-memory agent kernels (restarted full BFGS, all restarts as one
stack under one shared weak-Wolfe line search, each keeping a dense inverse
curvature, 8 R dim² bytes for R restarts plus one update temporary, with
the points and curvatures stacked in numpy and each run's line-search
state in Python scalars, on exact work rates with their exact adjoint
gradients, one formula for periodic, reducible and every other chain
structure) yields an explicitly labeled lower bound; the true capacity
maximizes over all finite agent models and no general algorithm for it is
known, so the numeric value is never presented as exact.
:func:`check_subadditivity` checks cascade subadditivity of memoryless
invariant channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import agents, channels, info, loop
from .errors import ChannelClassError, DimensionError, DomainError
from .info import BITS, LN2, _base_factor, _xlogy

CLOSED_FORM_NOISELESS = "closed_form_noiseless"
CLOSED_FORM_MEMORYLESS = "closed_form_memoryless"
CLOSED_FORM_UNIFILAR_PRODUCT = "closed_form_unifilar_product"
NUMERIC_LOWER_BOUND = "numeric_lower_bound"

BFGS_STEPS = 500  # iteration cap of one BFGS run
BFGS_FTOL = 1e-12  # a run stops when a step gains at most this times max(1, |value|)
BFGS_GTOL = 1e-9  # ... or when no gradient entry exceeds this
_ARMIJO, _CURVATURE = 1e-4, 0.9  # the weak Wolfe conditions' constants
ASCENT_STEPS = 2000  # step cap of the memoryless ascent
FACE_TOL = 1e-12  # memoryless entries below this get a Newton step alone; witness ones are tried at 0
NEWTON_FLAT = 1e-12  # relative singular values the memoryless Newton step drops
DUST = 1e-100  # least weight a memoryless ascent step leaves a played action
VERTEX_TOL = 1e-6  # a searched row whose largest entry is within this of 1 is that vertex
SUBADDITIVITY_SLACK = 1e-8  # nats between bounds that check_subadditivity still decides


@dataclass(frozen=True)
class CapacityResult:
    """A work-capacity value (nats) plus how it was obtained.

    ``witness`` is an agent model whose work rate is the value; the numeric
    method records (restart, value) pairs in ``optimizer_trace``.  ``exact``
    tells closed forms from the numeric lower bound; ``stalled`` is set when
    an optimizer's step or iteration cap ran out before it stopped.
    ``upper_nats`` is a certified upper bound on the capacity: the value
    itself for the noiseless and unifilar product forms, the Frank–Wolfe
    bound of :func:`capacity_memoryless` for memoryless channels, and None
    for the numeric lower bound.
    """

    value_nats: float
    method: str
    witness: agents.AgentModel | None = None
    witness_params: dict | None = None
    optimizer_trace: tuple[tuple[int, float], ...] = ()
    stalled: bool = False
    upper_nats: float | None = None

    @property
    def exact(self) -> bool:
        return self.method != NUMERIC_LOWER_BOUND

    @property
    def value_bits(self) -> float:
        return self.value_nats / LN2

    def value(self, base: str = BITS) -> float:
        return self.value_nats * _base_factor(base)


def capacity_noiseless(env: channels.EnvironmentModel) -> CapacityResult:
    """Noiseless channels echo actions back, so no work can be extracted."""
    if not channels.is_noiseless(env):
        raise ChannelClassError("capacity_noiseless needs a noiseless environment")
    witness = agents.build_identity(env.alphabet)
    return CapacityResult(0.0, CLOSED_FORM_NOISELESS, witness=witness, upper_nats=0.0)


def _percepts(reduced: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The percept law pR of each row of ``p``; ``reduced`` is one kernel or
    a stack with one kernel per row."""
    return (p[..., None, :] @ reduced)[..., 0, :]


def _memoryless_objective(reduced: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """One-shot work term H(action) - H(induced percept), in nats.

    This is the work rate of the memoryless agent that plays ``p`` every
    round, so its maximum over the simplex is the capacity of a memoryless
    invariant channel.  ``p`` may stack one distribution per row, and
    ``reduced`` one kernel per row; the result then has one value per row.
    """
    q = _percepts(reduced, p)
    return _xlogy(q, q).sum(axis=-1) - _xlogy(p, p).sum(axis=-1)


def _rounding(terms: np.ndarray) -> np.ndarray:
    """Worst-case rounding of summing ``terms`` along the last axis."""
    return terms.shape[-1] * np.finfo(float).eps * np.abs(terms).sum(axis=-1)


def _value_rounding(reduced: np.ndarray, p: np.ndarray) -> float:
    """Worst-case rounding of :func:`_memoryless_objective` at one row."""
    q = p @ reduced
    return float(_rounding(np.concatenate([_xlogy(q, q), _xlogy(p, p)])))


def _gain(reduced: np.ndarray, p: np.ndarray, cand: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the objective at ``cand`` minus that at ``p``, and the
    worst-case rounding of that sum; ``reduced`` broadcasts against the
    rows' leading axes, one kernel or one per row.

    Each entry x of p and of pR that moves by d adds d log(x + d) +
    x log1p(d / x) with the sign of its entropy, so a gain too small to
    survive the difference of two values is kept.  The objective is
    homogeneous of degree one, so the change of mass (rows sum to 1 up to
    rounding) times the value at ``p`` is taken off.
    """
    d = cand - p
    x = np.concatenate([_percepts(reduced, p), p], axis=-1)
    dx = np.concatenate([_percepts(reduced, d), d], axis=-1)
    moved = np.maximum(x + dx, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = _xlogy(dx, moved) + x * np.log1p(dx / x)
    terms = np.where((x > 0) & (moved > 0), near, _xlogy(moved, moved) - _xlogy(x, x))
    sign = np.repeat([1.0, -1.0], p.shape[-1])
    gain = terms @ sign - d.sum(axis=-1) * _memoryless_objective(reduced, p)
    return gain, _rounding(terms)


def _certain_gain(reduced: np.ndarray, p: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Per row, the exact gain of moving from ``p`` to ``cand`` where it
    exceeds its rounding and DUST, else 0."""
    gain, bound = _gain(reduced, p, cand)
    return np.where(gain > np.maximum(bound, DUST), gain, 0.0)


def _floored(rows: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Each row with every entry raised to at least ``floor``, renormalized;
    a row already above its floor is returned as it is."""
    lifted = np.maximum(rows, floor)
    low = ~(rows >= floor).all(axis=-1, keepdims=True)
    return np.where(low, lifted / lifted.sum(axis=-1, keepdims=True), rows)


def _ascent(reduced: np.ndarray, start: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the concave H(p) - H(pR) over the simplex, for a stack of
    channels ``reduced`` ``(B, n, n)`` from the rows of ``start`` ``(B, n)``.

    With c = R log(pR) (0 log 0 = 0) and g_a = c_a - log p_a, the maximum is
    where g_a equals its mean g·p on every played action.  Each step tries
    three moves and takes the one that gains most, the first on a tie:

    - the fixed-point step p ∝ exp(c) (alternating maximization; Blahut
      1972, Arimoto 1972), counted only when its computed value rises, so it
      stops crawling on a flat objective;
    - a Newton step on g_a = g·p in log p, taken as p ∝ p exp(du) so it stays
      in the simplex.  Its Jacobian P - I, P_ab = sum_s R_as p_b R_bs / q_s
      with P row-stochastic, stays well scaled where an entry is 1e-40,
      unlike the Hessian in p.  The Jacobian and the right-hand side are
      zeroed off the played block, and the step is the pseudo-inverse
      solution without the singular values below NEWTON_FLAT (the constant
      shift of log p, and directions along which the objective is linear);
      the padding adds only zero singular values, so this is the
      minimum-norm least-squares step on the played block.  While some
      played entries are below FACE_TOL, the step restricted to them is
      tried too, since rounding of the large entries' move can hide what
      they gain;
    - emptying a block: the played actions split into blocks that share no
      percept, the objective is linear in the blocks' masses, and a block's
      capacity is at most its largest g_a (:func:`_upper_bound`), so the
      block of the least g_a is emptied when that bound is below the mean.
      The fixed-point step alone shrinks such a block by a factor of about
      exp(bound - mean) per step.

    The first two moves are lifted so that no played entry falls below
    min(p_a, DUST): an entry at 0 is a face no step leaves again, and a
    subnormal one has no precision left.  A move counts when its exact gain
    (:func:`_gain`) exceeds its rounding and DUST, since the last Newton
    steps gain less than a rounding step of the value.  A member stops when
    no move gains, and the later steps run on the members still moving, so
    each member takes the steps it would take alone.  Returns, with a
    leading B, the last rows; the weights for :func:`_upper_bound`, which
    are the rows with each emptied block at DUST times its last relative
    weights; and whether ASCENT_STEPS ran out while a move gained.
    """
    p = start.copy()
    ghost = np.ones_like(p)  # relative weights of the emptied blocks
    stalled = np.ones(len(p), dtype=bool)
    live = np.arange(len(p))
    support = reduced > 0
    n = p.shape[1]
    for _ in range(ASCENT_STEPS):
        if not live.size:
            break
        rk, x, hits = reduced[live], p[live], support[live]
        played = x > 0
        q = _percepts(rk, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = _xlogy(rk, q[:, None, :]).sum(axis=2)
            log_p = np.log(x)
            g = np.where(played, c - log_p, 0.0)
        mean = (g * x).sum(axis=1)
        floor = np.where(played, np.minimum(x, DUST), 0.0)
        # the fixed-point, Newton, tiny-entry Newton and emptying moves
        rows = np.empty((len(live), 4, n))

        rows[:, 0] = _floored(_softmax_rows(c), floor)
        rises = _memoryless_objective(rk, rows[:, 0]) > _memoryless_objective(rk, x)

        post = np.where(q[:, None, :] > 0,
                        x[:, :, None] * rk / np.where(q > 0, q, 1.0)[:, None, :], 0.0)
        both = played[:, :, None] & played[:, None, :]
        jac = np.where(both, rk @ post.transpose(0, 2, 1) - np.eye(n), 0.0)
        rhs = np.where(played, mean[:, None] - g, 0.0)
        du = (np.linalg.pinv(jac, rcond=NEWTON_FLAT) @ rhs[:, :, None])[:, :, 0]
        tiny = played & (x < FACE_TOL)
        for k, direction in ((1, du), (2, np.where(tiny, du, 0.0))):
            with np.errstate(invalid="ignore"):
                rows[:, k] = _floored(_softmax_rows(np.where(played, log_p + direction, -np.inf)),
                                   floor)

        block = np.arange(n) == np.argmin(np.where(played, g, np.inf), axis=1)[:, None]
        while True:  # the played actions that share a percept with the block
            shared = (hits & block[:, :, None]).any(axis=1)
            grown = played & (hits & shared[:, None, :]).any(axis=2)
            if (grown == block).all():
                break
            block = grown
        empty = (block != played).any(axis=1) & (np.where(block, g, -np.inf).max(axis=1) < mean)
        kept = np.where(block & empty[:, None], 0.0, x)
        rows[:, 3] = kept / kept.sum(axis=1, keepdims=True)

        # a move not offered gains -inf
        offered = np.stack([rises, np.ones_like(rises), tiny.any(axis=1), empty], axis=1)
        gains = np.where(offered, _certain_gain(rk[:, None], x[:, None], rows), -np.inf)
        best = gains.argmax(axis=1)
        moving = gains[np.arange(len(live)), best] > 0
        stalled[live[~moving]] = False
        empties = moving & (best == 3)
        top = np.where(block, x, 0.0).max(axis=1, keepdims=True)
        ghost[live[empties]] = np.where(block, x / top, ghost[live])[empties]
        p[live[moving]] = rows[moving, best[moving]]
        live = live[moving]
    return p, np.where(p > 0, p, DUST * ghost), stalled


def _snap_face(reduced: np.ndarray, p: np.ndarray, value: float
               ) -> tuple[np.ndarray, float]:
    """Set the entries of ``p`` below FACE_TOL to 0 and renormalize, unless
    the exact loss of doing so (:func:`_gain`) exceeds the rounding of the
    value beyond the loss's own rounding; returns the row and its value.

    The fixed-point step only approaches a face of the simplex
    geometrically, so an optimum on or next to a face is reached with
    entries such as 1e-22 for actions it never plays.
    """
    if not (p < FACE_TOL).any():
        return p, value
    snapped = np.where(p < FACE_TOL, 0.0, p)
    snapped /= snapped.sum()
    gain, bound = _gain(reduced, p[None], snapped[None])
    if gain[0] < -(bound[0] + _value_rounding(reduced, p)):
        return p, value
    return snapped, max(value, float(_memoryless_objective(reduced, snapped)))


def _upper_bound(reduced: np.ndarray, w: np.ndarray) -> float:
    """A certified upper bound on the capacity from positive weights ``w``:
    max_a g_a(w) plus its rounding.

    With W(a|s) = w_a R_as / (wR)_s, H(A|S) <= -sum p_a R_as log W(a|s) for
    every p, so the capacity is at most max_a g_a(w), g_a(w) = sum_s R_as
    log (wR)_s - log w_a (0 log 0 = 0).  At w = p this is the Frank–Wolfe
    bound f(p) + max_a g_a - g·p, since f(p) = g·p.  The bound does not
    change when all the weights of a block of actions sharing no percept
    with the others are scaled, so a block :func:`_ascent` emptied enters
    at DUST times its last weights and keeps its bound.
    """
    terms = np.concatenate([_xlogy(reduced, w @ reduced), -np.log(w)[:, None]], axis=1)
    return float((terms.sum(axis=1) + _rounding(terms)).max())


def capacity_memoryless(env: channels.EnvironmentModel) -> CapacityResult:
    """Maximize the one-shot work term over action distributions.

    The objective is concave: H(p) - H(pR) = H(A|S) - H(S|A), where H(S|A)
    = sum_a p_a H(R_a) is linear in p and H(A|S) is concave in the joint
    p_a R_as, which is linear in p.  So :func:`_ascent` runs from the
    uniform start alone, and ``upper_nats`` certifies how close it came
    (:func:`_upper_bound` at the weights the ascent returns, plus the
    rounding of the value, capped at log n).  The witness is the memoryless
    agent playing the argmax distribution, whose work rate equals the value
    by construction.
    """
    reduced = channels.is_memoryless_invariant(env)
    if reduced is None:
        raise ChannelClassError("capacity_memoryless needs a memoryless invariant environment")
    ((best, value, upper, stalled),) = _memoryless_bounds([reduced])
    return CapacityResult(value, CLOSED_FORM_MEMORYLESS,
                          witness=agents.build_memoryless(env.alphabet, best),
                          witness_params={"action_distribution": tuple(float(x) for x in best)},
                          stalled=stalled, upper_nats=upper)


def _memoryless_bounds(reduceds: list[np.ndarray]
                       ) -> list[tuple[np.ndarray, float, float, bool]]:
    """The distribution, value, certified upper bound and stalled flag of
    :func:`capacity_memoryless` for each reduced kernel.  The kernels of
    each alphabet size run as one stack through :func:`_ascent`, and each
    member's result is bit for bit the one it gets alone; the face snap and
    the certificate are per channel."""
    by_size: dict[int, list[int]] = {}
    for i, reduced in enumerate(reduceds):
        by_size.setdefault(reduced.shape[0], []).append(i)
    results: list[tuple[np.ndarray, float, float, bool]] = [None] * len(reduceds)
    for n, members in by_size.items():
        stack = np.stack([reduceds[i] for i in members])
        lasts, weights, stalled = _ascent(stack, np.full((len(members), n), 1.0 / n))
        values = _memoryless_objective(stack, lasts)
        for k, i in enumerate(members):
            best, value = _snap_face(stack[k], lasts[k], float(values[k]))
            upper = _upper_bound(stack[k], weights[k]) + _value_rounding(stack[k], best)
            results[i] = best, value, min(math.log(n), upper), bool(stalled[k])
    return results


def capacity_unifilar_product(env: channels.EnvironmentModel) -> CapacityResult:
    """log |A| minus the percept entropy rate, attained by the predictive
    extension of the uniform memoryless agent.  Raises ChannelClassError
    unless the model is unifilar and ``channels.is_product``."""
    if channels.is_unifilar(env) is None:
        raise ChannelClassError("capacity_unifilar_product needs a unifilar model")
    if not channels.is_product(env):
        raise ChannelClassError("capacity_unifilar_product needs a product channel")
    value = math.log(len(env.alphabet)) - info._unifilar_entropy_rate(env)
    witness = agents.build_predictive(agents.build_uniform(env.alphabet), env)
    return CapacityResult(float(value), CLOSED_FORM_UNIFILAR_PRODUCT, witness=witness,
                          upper_nats=float(value))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _agent_rows(x: np.ndarray, rows: int) -> np.ndarray:
    """The ``(B, rows + 1, rows)`` stack of agent rows from a ``(B, dim)``
    stack of unconstrained coordinates, ``rows = |A| M``: one normalized
    exponential per kernel row and one for the opening joint, the last
    row, each row whose largest entry is at least 1 - VERTEX_TOL set to
    that vertex, exact 0/1.

    Normalized exponentials reach a vertex only in the limit, so without
    the vertices a run creeps toward one for hundreds of steps, through
    subnormal entries.  A vertex row's slope is exactly 0, so the search
    leaves it only by a step the line search accepts, one that raises the
    value."""
    probs = _softmax_rows(x.reshape(len(x), rows + 1, rows))
    top = probs.max(axis=-1, keepdims=True)
    # an entry of at least 1 - VERTEX_TOL ties no other, so it alone equals top
    return np.where(top >= 1.0 - VERTEX_TOL, probs == top, probs)


def _agent_kernels(probs: np.ndarray, n_a: int, n_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Agent kernels ``(B, |A|, M, |A|, M)`` and opening joints ``(B, |A|,
    M)`` as views of a stack of :func:`_agent_rows`."""
    rows = n_a * n_m
    return probs[:, :rows].reshape(-1, n_a, n_m, n_a, n_m), probs[:, rows].reshape(-1, n_a, n_m)


def _kernels_from_params(x: np.ndarray, n_a: int, n_m: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Agent kernels and opening joints (:func:`_agent_kernels`) of the
    rows :func:`_agent_rows` makes of a ``(B, dim)`` stack of coordinates."""
    return _agent_kernels(_agent_rows(x, n_a * n_m), n_a, n_m)


def _params_from_agent(model: agents.AgentModel, memory_size: int) -> np.ndarray:
    """Logits reproducing ``model``, padded with inert extra memory states.

    Rows of the padded states mirror the original rows (modulo the original
    memory count), and nothing ever transitions into them, so the padded
    agent realizes the same loop behavior.
    """
    n_a, n_m = model.n_symbols, model.n_memory
    if n_m > memory_size:
        raise DomainError("warm start has more memory states than the search space")
    rows = n_a * memory_size
    theta = np.zeros((n_a, memory_size, n_a, memory_size))
    for m in range(memory_size):
        theta[:, m, :, :n_m] = model.theta[:, m % n_m]
    init = np.zeros((n_a, memory_size))
    init[:, :n_m] = model.initial_joint
    flat = np.concatenate([
        theta.reshape(n_a * memory_size, rows).reshape(-1), init.reshape(-1)])
    return np.log(np.maximum(flat, 1e-12))


def _bfgs(objective, starts: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize ``objective`` by full BFGS (Nocedal & Wright 2006, §6.1)
    from each row of ``starts`` ``(R, dim)``, all runs as one stack under
    one shared line search.

    ``objective`` maps a ``(k, dim)`` stack of points to their values and
    gradients, each row's results those it gets alone.  Each call takes one
    point of every run still going, and a run leaves the stack when it
    stops, so its points, and its results, are bit for bit those of its run
    alone.  Each run keeps a dense inverse curvature H, ``(R, dim, dim)``
    for the stack: ``8 R dim²`` bytes plus one update temporary of that
    size: 100 kB at 32 runs of dim 20 and 1.3 MB at dim 72.  H starts at
    I, is scaled by s.y / y.y at the run's first pair with s.y > 0 (eq.
    6.20), and takes the inverse update (eq. 6.17) of every pair with s.y >
    0 as one product, H += [s, -ρh] [w; s] with h = H y, ρ = 1 / s.y and w
    = ρ(1 + ρ y.h) s - ρh.  A step goes along d = H g (the first along the
    gradient, from length 1 / |g|, and later ones from t = 1) and is
    accepted at the weak Wolfe conditions f(x + t d) >= f(x) + _ARMIJO t
    g.d and g(x + t d).d <= _CURVATURE g.d: t doubles until it is bracketed
    and is bisected after that (Lewis & Overton 2013, who run full BFGS
    with this line search).  Each accepted step raises the value, so a
    run's last point is the best it accepted.

    The points, gradients, directions and H are stacked numpy arrays, and
    every vector reduction (g.d, s.y, y.y, y.h, max |g|) runs on the stack.
    Each run's line-search state (its value, t, the bracket, g.d, the step
    count and the accept and stop verdicts) is a Python float, int or bool:
    a few scalar operations per run, each the IEEE operation numpy would
    do, with no numpy call.  A step where every run accepts, the usual one,
    merges no arrays.

    A run stops when no gradient entry exceeds BFGS_GTOL; when a step gains
    at most BFGS_FTOL max(1, |value|); when, before a step is accepted, the
    bracket's width times g.d falls to that size; or, stalled, when it has
    taken BFGS_STEPS steps.  Returns per run the last point, its value, the
    steps taken and whether BFGS_STEPS ran out.
    """
    x = np.array(starts, dtype=float)
    f, g = objective(x)
    lasts, values = x.copy(), f.copy()
    steps, stalled = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    run = np.flatnonzero(np.abs(g).max(axis=1) > BFGS_GTOL)  # the runs going, in order
    x, g, f = x[run], g[run], f[run].tolist()
    H = np.tile(np.eye(x.shape[1]), (len(run), 1, 1))
    fresh = [True] * len(run)  # H is still I
    d, slope = g.copy(), (g * g).sum(axis=1).tolist()
    t = [1.0 / math.sqrt(v) for v in slope]
    lo, hi, k = [0.0] * len(run), [math.inf] * len(run), [0] * len(run)
    while run.size:
        trial = x + np.array(t)[:, None] * d
        f_t, g_t = objective(trial)
        f_t, curv = f_t.tolist(), (g_t * d).sum(axis=1).tolist()
        accept, small = [], []
        for i, (ft, fi, ti, si, ci) in enumerate(zip(f_t, f, t, slope, curv)):
            rises, flat = ft >= fi + _ARMIJO * ti * si, ci <= _CURVATURE * si
            accept.append(rises and flat)
            small.append(ft - fi <= BFGS_FTOL * max(1.0, abs(fi), abs(ft)))
            if not rises:  # too long at hi, too short at lo
                hi[i] = ti
            elif not flat:
                lo[i] = ti
        ended = [False] * len(run)
        if any(accept):
            s, y = trial - x, g - g_t
            sy = (s * y).sum(axis=1).tolist()
            if all(accept):
                x, g, f = trial, g_t, f_t
            else:
                mask = np.array(accept)[:, None]
                x, g = np.where(mask, trial, x), np.where(mask, g_t, g)
                f = [ft if a else fi for a, ft, fi in zip(accept, f_t, f)]
            pair = [a and v > 0 for a, v in zip(accept, sy)]
            if any(pair):  # the other runs' s, y and ρ are 0, so their H gains 0
                if not all(pair):
                    mask = np.array(pair)[:, None]
                    s, y = np.where(mask, s, 0.0), np.where(mask, y, 0.0)
                if any(p and r for p, r in zip(pair, fresh)):
                    yy = (y * y).sum(axis=1).tolist()
                    H *= np.array([v / w if p and r else 1.0
                                   for p, r, v, w in zip(pair, fresh, sy, yy)])[:, None, None]
                    fresh = [r and not p for p, r in zip(pair, fresh)]
                rho = np.array([1.0 / v if p else 0.0 for p, v in zip(pair, sy)])[:, None]
                h = (H @ y[:, :, None])[:, :, 0]
                rho_h = rho * h
                w = rho * (1.0 + rho * (y * h).sum(axis=1, keepdims=True)) * s - rho_h
                # H += [s, -ρh] [w; s], each factor C-ordered as np.stack lays it out
                left, right = np.empty((*s.shape, 2)), np.empty((len(s), 2, s.shape[1]))
                left[:, :, 0], left[:, :, 1], right[:, 0], right[:, 1] = s, -rho_h, w, s
                H += left @ right
            top = np.abs(g).max(axis=1).tolist()
            ended = [a and (m or v <= BFGS_GTOL) for a, m, v in zip(accept, small, top)]
        for i, a in enumerate(accept):
            if a:
                k[i] += 1
                if not ended[i] and k[i] >= BFGS_STEPS:
                    stalled[run[i]] = ended[i] = True
                t[i], lo[i], hi[i] = 1.0, 0.0, math.inf
            elif hi[i] < math.inf:
                ended[i] = (hi[i] - lo[i]) * slope[i] <= BFGS_FTOL * max(1.0, abs(f[i]))
                t[i] = (lo[i] + hi[i]) / 2
            else:
                t[i] *= 2
        go = [a and not e for a, e in zip(accept, ended)]
        if any(go):
            ahead = (H @ g[:, :, None])[:, :, 0]
            d = ahead if all(go) else np.where(np.array(go)[:, None], ahead, d)
            slope = (g * d).sum(axis=1).tolist()
        if any(ended):
            stop = [i for i, e in enumerate(ended) if e]
            lasts[run[stop]], steps[run[stop]] = x[stop], [k[i] for i in stop]
            values[run[stop]] = [f[i] for i in stop]
            keep = [i for i, e in enumerate(ended) if not e]
            run, x, g, H, d = (v[keep] for v in (run, x, g, H, d))
            f, fresh, slope, k, t, lo, hi = ([v[i] for i in keep]
                                             for v in (f, fresh, slope, k, t, lo, hi))
    return lasts, values, steps, stalled


def _search_objective(env: channels.EnvironmentModel, memory_size: int):
    """The objective :func:`capacity_lower_bound` maximizes: a ``(k, dim)``
    stack of coordinates to the work rates, in nats, of the agents
    :func:`_kernels_from_params` makes of them, and their gradients: one
    call of :func:`loop._rate_gradients` gives the exact gradients in the
    kernels and opening joints, taken through each row's normalized
    exponential, the opening joint one more row.  The kernels and joints
    are views of the one stack of rows (:func:`_agent_rows`), which the
    chain rule reads as it is.  A vertex row's slopes are 0."""
    n_a, n_m = len(env.alphabet), memory_size
    rows = n_a * n_m

    def objective(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probs = _agent_rows(points, rows)
        values, (d_theta, d_init) = loop._rate_gradients(env, *_agent_kernels(probs, n_a, n_m))
        grads = np.concatenate([d_theta.reshape(-1, rows, rows), d_init.reshape(-1, 1, rows)], 1)
        slope = probs * (grads - (probs * grads).sum(axis=2, keepdims=True))
        return values, slope.reshape(len(points), -1)

    return objective


def capacity_lower_bound(env: channels.EnvironmentModel, memory_size: int = 2,
                         restarts: int = 32, seed: int = 0,
                         warm_starts: tuple[agents.AgentModel, ...] = ()
                         ) -> CapacityResult:
    """Best work rate over agents with ``memory_size`` memory states.

    Agent kernels are parameterized on the product of simplices through
    normalized exponentials of unconstrained coordinates, each row within
    VERTEX_TOL of a vertex taken at it (:func:`_agent_rows`).
    The uniform agent, the warm starts and ``restarts - 1`` seeded random
    points start one run each of full BFGS (:func:`_bfgs`), all runs as
    one stack under one weak-Wolfe line search, on the exact work rates and
    their exact gradients on every chain structure
    (:func:`_search_objective`).  Each run keeps a dense ``dim x dim``
    inverse curvature, ``dim = (|A| memory_size)² + |A| memory_size``, so
    the stack holds ``8 restarts dim²`` bytes plus one update temporary of
    that size: 100 kB at the CLI defaults and 1.3 MB at memory 4 on a
    binary alphabet.  A run's result is its last point; the search is
    ``stalled`` when a run reaches ``BFGS_STEPS`` iterations.  The value is
    the best run's value, and the witness is the agent the objective
    evaluated there, so its work rate is the value.  It
    is a lower bound on the work capacity, which maximizes over unbounded
    memory.  A warm start's vertex rows are vertex rows again, so passing
    the witness of a smaller search as a warm start makes the bound
    monotone in ``memory_size`` up to rounding and the 1e-12 weight
    :func:`_params_from_agent` gives the zeros of its other rows.
    """
    if memory_size < 1:
        raise DomainError("memory_size must be >= 1")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    alphabet = env.alphabet
    for warm in warm_starts:
        if warm.alphabet != alphabet:
            raise DimensionError(f"warm start alphabet {warm.alphabet} does not match "
                                 f"environment alphabet {alphabet}")
    rows = len(alphabet) * memory_size
    dim = rows * rows + rows

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    starts += [_params_from_agent(w, memory_size) for w in warm_starts]
    starts += [rng.normal(scale=1.5, size=dim) for _ in range(restarts - 1)]

    lasts, values, _, stalled = _bfgs(_search_objective(env, memory_size), np.stack(starts))
    best = int(np.argmax(values))  # ties keep the lowest restart index
    theta, init = _kernels_from_params(lasts[best:best + 1], len(alphabet), memory_size)
    witness = agents.AgentModel(alphabet, tuple(f"m{i}" for i in range(memory_size)),
                                theta[0], init[0])
    return CapacityResult(float(values[best]), NUMERIC_LOWER_BOUND, witness=witness,
                          optimizer_trace=tuple((r, float(v)) for r, v in enumerate(values)),
                          stalled=bool(stalled.any()))


def compute_capacity(env: channels.EnvironmentModel, memory_size: int = 2,
                     restarts: int = 32, seed: int = 0) -> CapacityResult:
    """Dispatch: noiseless > memoryless invariant > unifilar product > numeric.
    A model decides each channel class once (see :mod:`channels`), so the
    closed forms read the verdicts the dispatch asked for."""
    if channels.is_noiseless(env):
        return capacity_noiseless(env)
    if channels.is_memoryless_invariant(env) is not None:
        return capacity_memoryless(env)
    if channels.is_unifilar(env) is not None and channels.is_product(env):
        return capacity_unifilar_product(env)
    return capacity_lower_bound(env, memory_size=memory_size, restarts=restarts,
                                seed=seed)


@dataclass(frozen=True)
class SubadditivityReport:
    value_first_nats: float
    value_second_nats: float
    value_cascade_nats: float
    upper_first_nats: float
    upper_second_nats: float
    upper_cascade_nats: float
    holds: bool | None


def check_subadditivity(env1: channels.EnvironmentModel,
                        env2: channels.EnvironmentModel) -> SubadditivityReport:
    """C(second o first) <= C(first) + C(second) for memoryless invariant
    channels, decided from certified bounds.  Each capacity lies between
    its attained value and its ``upper_nats``, so ``holds`` is True when the
    cascade's upper bound is at most the factors' values plus
    SUBADDITIVITY_SLACK, False when the cascade's value exceeds the
    factors' upper bounds plus SUBADDITIVITY_SLACK, and None when the
    bounds decide neither.  The three capacities are solved as one stack
    (:func:`_memoryless_bounds`)."""
    return _subadditivity_reports([(env1, env2)])[0]


def _subadditivity_reports(pairs: list[tuple[channels.EnvironmentModel,
                                             channels.EnvironmentModel]]
                           ) -> list[SubadditivityReport]:
    """:func:`check_subadditivity` of each pair, with the factors and
    cascades of all pairs solved in one call of :func:`_memoryless_bounds`,
    which builds no witness agents."""
    reduceds = []

    def add(env: channels.EnvironmentModel, which: str) -> None:
        reduced = channels.is_memoryless_invariant(env)
        if reduced is None:
            raise ChannelClassError(f"{which} channel is not memoryless invariant")
        reduceds.append(reduced)

    for env1, env2 in pairs:
        add(env1, "first")
        add(env2, "second")
        add(channels.cascade(env1, env2), "cascade")
    bounds = _memoryless_bounds(reduceds)
    reports = []
    for (_, value1, upper1, _), (_, value2, upper2, _), (_, value, upper, _) in zip(
            bounds[0::3], bounds[1::3], bounds[2::3]):
        holds = None
        if upper <= value1 + value2 + SUBADDITIVITY_SLACK:
            holds = True
        elif value > upper1 + upper2 + SUBADDITIVITY_SLACK:
            holds = False
        reports.append(SubadditivityReport(value1, value2, value, upper1, upper2, upper,
                                           holds))
    return reports


@dataclass(frozen=True)
class AgentSetReport:
    """Membership evidence for the three agent classes of one loop."""

    in_mea: bool
    mean_action_entropy_nats: float
    pred_estimate: float
    pred_units: str
    pred_horizon: int
    work_rate: float
    rate_units: str
    is_efficient_vs: bool | None
    reference_capacity_nats: float | None


def classify_agent_sets(env: channels.EnvironmentModel, agent: agents.AgentModel,
                        horizon: int = 4, reference_capacity_nats: float | None = None,
                        base: str = BITS) -> AgentSetReport:
    """Bundle the mea test, the truncated predictiveness estimate, the work
    rate, and (optionally) a comparison against a supplied capacity value;
    the mea test and the comparison each allow 1e-9 nats."""
    tol = 1e-9
    pal = loop.PerceptActionLoop(agent, env)
    report = loop.work_rate(pal, base="nats", rounds=0)
    mea_nats = report.action_entropy
    in_mea = bool(abs(mea_nats - math.log(len(env.alphabet))) <= tol)
    pred = loop.am_predictiveness(pal, horizon=horizon, base=base)
    efficient = None
    if reference_capacity_nats is not None:
        efficient = bool(report.rate >= reference_capacity_nats - tol)
    return AgentSetReport(
        in_mea=in_mea,
        mean_action_entropy_nats=mea_nats,
        pred_estimate=pred.mean,
        pred_units=base,
        pred_horizon=horizon,
        work_rate=report.rate * _base_factor(base),
        rate_units=base,
        is_efficient_vs=efficient,
        reference_capacity_nats=reference_capacity_nats,
    )
