"""Percept-action loops: the global Markov chain and its analysis.

Composing an agent model with an environment model yields a homogeneous
Markov chain over tuples (memory, action, percept, hidden state).  This
module builds that chain, computes per-round work terms and the asymptotic
work rate, and the predictiveness scores that decide membership in the
predictive agent class.

Every asymptotic rate comes from one Cesàro engine, ``_cesaro_tables``,
which keeps the state's law under each subsequence limit from
``markov._limit_laws`` and forms no limit matrix: ``work_rate`` runs it on
one agent, and ``_work_rates`` and the capacity search's
``_rate_gradients`` (rates with their exact gradients) on a stack.  It
runs on the pre-percept chain (memory, action, hidden state), |S| times
smaller than the global chain: the percept is a fresh draw from the
emission e(s | a, z), so each law of the global chain is a law of that
chain times the emission (Kemeny & Snell 1960, functions of a Markov
chain); every work term is read from its marginals p(m, a) and p(m, s).
``build_global_chain`` keeps the global chain for inspection and checks.

Every finite-horizon trajectory quantity comes from one contraction engine,
``_trajectory_marginal``: it multiplies in the product-form factors in round
order and sums out each variable the caller did not ask for as soon as no
later factor reads it.  ``trajectory_distribution`` asks for every variable;
the predictiveness scores ask only for the ones their conditional mutual
information reads, so their tables stay near the size of that marginal.

Index convention throughout: a range subscript l:m includes l and excludes m,
so the action block relevant at round t is A_0..A_t and the percept past is
S_0..S_{t-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .channels import AgentModel, EnvironmentModel
from .errors import BudgetError, DimensionError
from .info import (BITS, JointTable, _base_factor, _clamp_nonneg,
                   conditional_mutual_information)
from .markov import (Distribution, TransitionKernel, _check_stochastic, _limit_laws,
                     _pattern_groups, bfs_levels)

TRAJECTORY_BUDGET = 10 ** 7


@dataclass(frozen=True)
class PerceptActionLoop:
    """An agent model paired with an alphabet-compatible environment model."""

    agent: AgentModel
    env: EnvironmentModel

    def __post_init__(self):
        if self.agent.alphabet != self.env.alphabet:
            raise DimensionError(
                f"agent alphabet {self.agent.alphabet} does not match "
                f"environment alphabet {self.env.alphabet}"
            )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n = len(self.env.alphabet)
        return (self.agent.n_memory, n, n, self.env.n_hidden)


@dataclass(frozen=True)
class GlobalChain:
    """The homogeneous chain over u = (memory, action, percept, hidden state).

    States are indexed row-major in that order.  Rows whose percept cannot be
    emitted from the (action, hidden state) pair carry a uniform placeholder
    and are flagged infeasible; such states are never entered, and asymptotic
    analysis is restricted to ``reachable`` (the closure of the initial
    support).
    """

    shape: tuple[int, int, int, int]
    kernel: TransitionKernel
    initial: Distribution
    feasible: np.ndarray
    reachable: np.ndarray

    @property
    def n_states(self) -> int:
        return int(np.prod(self.shape))


def build_global_chain(loop: PerceptActionLoop) -> GlobalChain:
    """Assemble the one-step kernel and the round-0 distribution.

    With e(s | a, z) the emission marginal, the transition probability from
    (m, a, s, z) to (m2, a2, s2, z2) factors as

        e(s2 | a2, z2) * theta(a2, m2 | s, m) * phi(s, z2 | a, z) / e(s | a, z)

    and the round-0 distribution is agent_init(a, m) * env_init(z) * e(s|a, z).
    """
    phi = loop.env.phi
    emission = loop.env.emission()  # [a, z, s]
    feasible4 = emission > 0.0
    X = phi / np.where(feasible4, emission, 1.0)[..., None]
    n = int(np.prod(loop.shape))
    K = np.einsum("azsw,smbn,bwt->masznbtw", X, loop.agent.theta, emission).reshape(n, n)
    feasible = np.broadcast_to(feasible4.transpose(0, 2, 1), loop.shape).reshape(n)
    K[~feasible] = 1.0 / n  # uniform placeholder; never entered
    init = np.einsum("am,z,azs->masz", loop.agent.initial_joint, loop.env.initial,
                     emission).reshape(n)
    return GlobalChain(loop.shape, TransitionKernel(K), Distribution(init),
                       feasible, bfs_levels(init > 0.0, K > 0.0) >= 0)


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Exact joint over M_0, A_0, S_0, Z_0, ..., M_{T-1}, A_{T-1}, S_{T-1}, Z_{T-1}."""

    horizon: int
    joint: JointTable


_ROUND_VARS = ("M", "A", "S", "Z")


def _elimination_plan(horizon: int, keep: set[str]) -> list[list[str]]:
    """Per round, the einsum subscripts that multiply the message by the
    round's factors and sum out its variables outside ``keep``.

    The message is indexed ``pmaz``: p the kept past, flattened, and m a z
    the memory, action and hidden state of round t.  A round before the last
    multiplies in phi[a, s, z, w] and then theta[m, s, n, b], where n b w
    are the memory, action and hidden state of round t + 1; the last round
    multiplies in the emission e[a, s, z].  An unkept A_t or Z_t is summed
    out by the phi product, an unkept M_t or S_t by the theta product, after
    which no factor reads them.
    """
    plan = []
    for t in range(horizon):
        m, a, s, z = (v.lower() if f"{v}{t}" in keep else "" for v in _ROUND_VARS)
        if t < horizon - 1:
            plan.append([f"pmaz,aszw->pm{a}s{z}w", f"pm{a}s{z}w,msnb->p{m}{a}{s}{z}nbw"])
        else:
            plan.append([f"pmaz,asz->p{m}{a}{s}{z}"])
    return plan


def _trajectory_marginal(loop: PerceptActionLoop, horizon: int, keep) -> JointTable:
    """Exact marginal over ``keep`` (names such as ``"S3"``) of the joint
    of the first ``horizon`` rounds, by variable elimination in round order
    (Zhang & Poole 1994): the forward message over the kept past and the
    current (M_t, A_t, Z_t) takes in one factor at a time and loses each
    unkept variable as soon as no later factor reads it.  TRAJECTORY_BUDGET,
    read at each call, bounds the largest table formed, which is computed
    from the shapes first.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    names = [f"{v}{t}" for t in range(horizon) for v in _ROUND_VARS]
    keep = set(keep)
    unknown = keep.difference(names)
    if unknown:
        raise KeyError(f"unknown variable {sorted(unknown)[0]!r}")
    n_m, n_a, n_s, n_z = loop.shape
    size = dict(zip("masznbw", (n_m, n_a, n_s, n_z, n_m, n_a, n_z)))
    plan = _elimination_plan(horizon, keep)

    past, required = 1, n_m * n_a * n_z
    for steps in plan:
        outs = [subscripts.split("->")[1][1:] for subscripts in steps]
        required = max(required, *(past * math.prod(size[c] for c in out) for out in outs))
        past *= math.prod(size[c] for c in outs[-1] if c in "masz")
    if required > TRAJECTORY_BUDGET:
        raise BudgetError(
            f"trajectory contraction would form a table of {required} entries "
            f"(budget {TRAJECTORY_BUDGET})", required=required, budget=TRAJECTORY_BUDGET,
        )

    phi = loop.env.phi.transpose(0, 2, 1, 3)  # [a, s, z, w]
    theta = loop.agent.theta.transpose(1, 0, 3, 2)  # [m, s, n, b]
    emission = loop.env.emission().transpose(0, 2, 1)  # [a, s, z]
    msg = np.einsum("am,z->maz", loop.agent.initial_joint, loop.env.initial)[None]
    for to_env, to_agent in plan[:-1]:
        msg = np.einsum(to_agent, np.einsum(to_env, msg, phi), theta)
        msg = msg.reshape(-1, n_m, n_a, n_z)
    msg = np.einsum(plan[-1][0], msg, emission)
    kept = tuple(name for name in names if name in keep)
    return JointTable._owning(kept, msg.reshape([size[name[0].lower()] for name in kept]))


def trajectory_distribution(loop: PerceptActionLoop, horizon: int) -> TrajectoryDistribution:
    """Exact joint table of the first ``horizon`` rounds, variables ordered
    M_0, A_0, S_0, Z_0, M_1, ...; TRAJECTORY_BUDGET bounds its entries."""
    names = [f"{v}{t}" for t in range(horizon) for v in _ROUND_VARS]
    return TrajectoryDistribution(horizon, _trajectory_marginal(loop, horizon, names))


# ---------------------------------------------------------------------------
# Work rate and entropy functionals of the limit laws
# ---------------------------------------------------------------------------

def _marginals(laws: np.ndarray, env: EnvironmentModel) -> tuple[np.ndarray, np.ndarray]:
    """p(m, a) and p(m, s) = sum_{a, z} p(m, a, z) e(s | a, z) from laws
    over the pre-percept states (m, a, z) of :func:`_cesaro_tables`,
    flattened on the last axis; leading axes stack laws."""
    emission = env.emission()  # [a, z, s]
    n_a, n_z, n_s = emission.shape
    w = laws.reshape(*laws.shape[:-1], laws.shape[-1] // (n_a * n_z), n_a, n_z)
    return w.sum(axis=-1), w.reshape(*w.shape[:-2], n_a * n_z) @ emission.reshape(-1, n_s)


def _work_terms(p_ma: np.ndarray, p_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The work term H(M, A) - H(M, S) = H(A|M) - H(S|M) and H(A|M), in
    nats, of each law with marginals p(m, a) and p(m, s) on the last two
    axes; leading axes stack laws."""
    neg_h_ma = xlogy(p_ma, p_ma).sum(axis=(-2, -1))
    p_m = p_ma.sum(axis=-1)
    return (xlogy(p_ms, p_ms).sum(axis=(-2, -1)) - neg_h_ma,
            xlogy(p_m, p_m).sum(axis=-1) - neg_h_ma)


@dataclass(frozen=True)
class WorkReport:
    """Per-round work terms and the asymptotic rate.

    Values are in units of k_B T ln 2 when ``units`` is "bits".
    ``action_entropy`` is the Cesàro limit of H(A_t | M_t) in ``units``.
    The global chain's states are indexed as in :class:`GlobalChain`:
    ``reachable`` marks the closure of the round-0 support,
    ``recurrent_states`` counts the reachable states in closed classes, and
    ``cesaro_law`` is the Cesàro limit of the law of U_t, zero off
    ``reachable``.  ``residual`` is the invariance gap ``max_r |t_r P -
    t_{r+1 mod d}|`` of the d subsequence-limit laws t_r the rate is read
    from, d = ``period_used``, with P the kernel of the pre-percept chain
    (memory, action, hidden state) those laws are solved on (see
    :func:`_cesaro_tables`); it shows how well they solve their defining
    equations, not a bound on the rate's error.
    """

    per_round: tuple[float, ...]
    rate: float
    action_entropy: float
    period_used: int
    residual: float
    units: str
    reachable: np.ndarray = field(repr=False, compare=False)
    recurrent_states: int
    cesaro_law: np.ndarray = field(repr=False, compare=False)


def _cesaro_tables(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray):
    """The Cesàro engine behind every work rate, for a stack of B agents on
    ``env`` (``theta`` ``(B, |A|, M, |A|, M)``, ``init`` ``(B, |A|, M)``).

    It runs on the pre-percept chain W_t = (M_t, A_t, Z_t), states indexed
    row-major in that order: the percept S_t is a fresh draw from e(s | a,
    z), so W_t is a Markov chain with kernel ``Kw[(m, a, z), (n, b, w)] =
    sum_s phi(s, w | a, z) theta(b, n | s, m)``, and the law of U_t = (M_t,
    A_t, S_t, Z_t) is the law of W_t times e(s | a, z) at every t and in
    every subsequence limit (:func:`_lift`).  This chain is |S| times
    smaller than the global one, and it has no infeasible states.

    Returns the kernels ``Kw`` ``(B, n, n)``, the round-0 vectors ``(B,
    n)`` and, for each group of members with one support pattern (kernel
    and round-0 vector), ``(members, reach, structure, tables)``: the mask
    of reachable W states, the structure of the reachable subchain, and
    ``tables[i, r] = u P^r L`` for r < d, the laws of W_{nd+r} as n grows
    (zero off ``reach``), with u the round-0 vector, P the reachable
    subchain, d its period lcm and L = lim P^{nd}, from
    :func:`markov._limit_laws`.  The stack shares one kernel einsum and one
    validation, and a group's limit laws are solved at once.  What the
    patterns decide (the groups' reachable sets and structures) comes from
    the one structure memo of :mod:`markov`, so it is worked out once per
    pattern, not once per call.  When every state is reachable, the group's
    kernels and round-0 vectors go to ``_limit_laws`` as they are and its
    laws are the tables; otherwise the reachable subchain is gathered and
    its laws padded with zeros.
    """
    n_b, n_a, n_m = init.shape
    n = n_m * n_a * env.n_hidden
    K = np.einsum("azsw,Bsmbn->Bmaznbw", env.phi, theta).reshape(n_b, n, n)
    p0 = np.einsum("Bam,z->Bmaz", init, env.initial).reshape(n_b, n)
    _check_stochastic(K, name="kernel")
    _check_stochastic(p0, name="initial distribution")
    groups = []
    for members, structure in _pattern_groups(K > 0.0, p0 > 0.0):
        reach = structure.reach
        if reach.all():
            _, laws = _limit_laws(K[members], p0[members][:, None, :], structure)
            tables = laws[:, 0]
        else:
            rows = np.arange(n_b)[members]
            _, laws = _limit_laws(K[np.ix_(rows, reach, reach)],
                                  p0[np.ix_(rows, reach)][:, None, :], structure)
            tables = np.zeros((len(rows), structure.period_lcm, n))
            tables[:, :, reach] = laws[:, 0]
        groups.append((members, reach, structure, tables))
    return K, p0, groups


def _lift(laws: np.ndarray, env: EnvironmentModel) -> np.ndarray:
    """Tables p(m, a, s, z) = p(m, a, z) e(s | a, z) from laws over the
    pre-percept states (m, a, z) of :func:`_cesaro_tables`, flattened on
    the last axis; leading axes stack laws."""
    emission = env.emission()  # [a, z, s]
    w = laws.reshape(*laws.shape[:-1], -1, *emission.shape[:2])
    return np.einsum("...maz,azs->...masz", w, emission)


def work_rate(loop: PerceptActionLoop, rounds: int = 8, base: str = BITS) -> WorkReport:
    """Asymptotic expected work per round, H(A_t|M_t) - H(S_t|M_t) averaged.

    The rate is the exact Cesàro limit, the mean of the work terms of the
    subsequence-limit laws from :func:`_cesaro_tables` on a stack of one;
    ``per_round`` lists the first ``rounds`` finite-t work terms from
    propagating the round-0 vector through the same kernel.  Every term is
    read from its law's marginals p(m, a) and p(m, s) (:func:`_work_terms`).
    """
    factor = _base_factor(base)
    K, p0, ((_, reach, structure, tables),) = _cesaro_tables(
        loop.env, loop.agent.theta[None], loop.agent.initial_joint[None])
    P, p, t = K[0], p0[0], tables[0]
    laws = np.empty((rounds, len(p)))
    for r in range(rounds):
        laws[r], p = p, p @ P
    per_round = _work_terms(*_marginals(laws, loop.env))[0] * factor
    work, h_action = _work_terms(*_marginals(t, loop.env))
    action_entropy = _clamp_nonneg(float(h_action.mean()), "mean action entropy") * factor
    residual = float(np.max(np.abs(t @ P - np.roll(t, -1, axis=0))))
    recurrent = np.zeros_like(reach)
    recurrent[np.flatnonzero(reach)[structure.classification.recurrent]] = True
    return WorkReport(tuple(per_round.tolist()), float(work.mean()) * factor, action_entropy,
                      len(t), residual, base, _lift(reach, loop.env).reshape(-1) > 0.0,
                      int(np.count_nonzero(_lift(recurrent, loop.env))),
                      _lift(t.mean(axis=0), loop.env).reshape(-1))


def _work_rates(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray
                ) -> np.ndarray:
    """Exact Cesàro work rates, in nats, of a stack of B agents on ``env``
    (shapes as in :func:`_cesaro_tables`); member b's rate is ``work_rate``
    of that agent in nats, read from the same tables."""
    _, _, groups = _cesaro_tables(env, theta, init)
    rates = np.empty(len(init))
    for members, _, _, tables in groups:
        rates[members] = _work_terms(*_marginals(tables, env))[0].mean(axis=-1)
    return rates


def _rate_gradients(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work rates, in nats, of a stack of B agents on ``env`` (shapes as in
    :func:`_cesaro_tables`) with their exact gradients in ``theta``, and
    which members have one.

    A member has one when its reachable pre-percept chain has one closed
    class and that class is aperiodic.  Its Cesàro law is then the
    stationary vector π, and with p the marginals of π(m, a, z) e(s | a, z)
    the rate is f = H(M, A) - H(M, S).  Its gradient in π is ``g[m, a, z] =
    sum_s e(s | a, z) log p(m, s) - log p(m, a)``; a marginal at 0 enters
    as 0 (0 log 0 = 0), which changes nothing, since the states it touches
    have π = 0 and keep it to first order.  A move dK of the kernel that
    keeps its rows stochastic moves π by ``π dK Z``, Z = (I - K + 1π)^-1
    (Schweitzer 1968), so with ``w = Z g``, solved once on the reachable
    states (zero off them), ``df/dK[i, j] = π_i w_j`` and through the
    kernel's einsum ``df/dtheta[s, m, b, n] = sum π(m, a, z) phi(s, w | a,
    z) w(n, b, w)``.  The rate does not depend on the opening joint.  The
    LU solve may be ill-conditioned on a sticky chain, where I - K + 1π is
    nearly singular, or fail on one singular in floating point.  The
    gradient only sets a search direction: π, and so the rate, still comes
    from the GTH elimination of :func:`_cesaro_tables`.

    Every rate, whatever the structure, and g come from the marginals that
    :func:`_work_rates` reads.  Members with several closed classes or a
    periodic one, and those whose solve fails, get a zero gradient and
    ``exact`` False.  Each member gets, bit for bit, the results it gets alone.
    """
    K, _, groups = _cesaro_tables(env, theta, init)
    n_b, n_a, n_m = init.shape
    n_z = env.n_hidden
    emission = env.emission().reshape(n_a * n_z, -1)  # [(a, z), s]
    rates = np.empty(n_b)
    grads = np.zeros(theta.shape)
    exact = np.zeros(n_b, dtype=bool)
    for members, reach, structure, tables in groups:
        p_ma, p_ms = _marginals(tables, env)
        rates[members] = _work_terms(p_ma, p_ms)[0].mean(axis=-1)
        if len(structure.closed) > 1 or structure.period_lcm > 1:
            continue
        pi = tables[:, 0]
        g = ((_log_positive(p_ms[:, 0]) @ emission.T).reshape(-1, n_m, n_a, n_z)
             - _log_positive(p_ma[:, 0])[..., None]).reshape(len(pi), -1)
        K_g = K[members]
        if not reach.all():
            K_g = K_g[np.ix_(np.arange(len(pi)), reach, reach)]
        w = np.zeros_like(pi)
        w[:, reach], solved = _deviations(K_g, pi[:, reach], g[:, reach])
        flow = pi.reshape(-1, n_m, n_a * n_z) @ env.phi.reshape(n_a * n_z, -1)  # [m, (s, w)]
        grad = (flow.reshape(-1, n_m * n_a, n_z)
                @ w.reshape(-1, n_m * n_a, n_z).transpose(0, 2, 1))  # [(m, s), (n, b)]
        grads[members] = grad.reshape(-1, n_m, n_a, n_m, n_a).transpose(0, 2, 1, 4, 3)
        exact[members] = solved
    return rates, grads, exact


def _log_positive(p: np.ndarray) -> np.ndarray:
    """log p where p > 0, and 0 where p = 0."""
    return np.log(np.where(p > 0.0, p, 1.0))


def _deviations(K: np.ndarray, pi: np.ndarray, g: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``w = (I - K + 1π)^-1 g`` for each member of a ``(B, n, n)`` stack of
    unichain kernels with stationary vectors ``pi`` ``(B, n)``, by LU, and
    whether each w is finite; w is 0 where it is not.  When one matrix is
    singular, the members are solved one at a time, so each gets the
    solution it gets alone."""
    A = np.eye(K.shape[-1]) - K + pi[:, None, :]
    try:
        w = np.linalg.solve(A, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        w = np.full(g.shape, np.nan)
        for b in range(len(A)):
            try:
                w[b] = np.linalg.solve(A[b], g[b][:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass  # singular: w stays NaN, so the member has no gradient
    solved = np.isfinite(w).all(axis=1)
    return np.where(solved[:, None], w, 0.0), solved


# ---------------------------------------------------------------------------
# Predictiveness
# ---------------------------------------------------------------------------

def _past_vars(t: int) -> list[str]:
    # A_{0:t+1} = A_0..A_t together with S_{0:t} = S_0..S_{t-1}
    return [f"A{i}" for i in range(t + 1)] + [f"S{i}" for i in range(t)]


def predictiveness_score(loop: PerceptActionLoop, t: int, base: str = BITS) -> float:
    """Exact I[A_0..A_t, S_0..S_{t-1}; S_t | M_t]; zero iff the memory is a
    sufficient statistic of the past for the current percept.

    Only the marginal over those variables is formed, so TRAJECTORY_BUDGET
    bounds its contraction's largest table, not the full joint of t + 1 rounds.
    """
    if t < 0:
        raise DimensionError("round index must be >= 0")
    past = _past_vars(t)
    joint = _trajectory_marginal(loop, t + 1, {*past, f"S{t}", f"M{t}"})
    return conditional_mutual_information(
        joint, past, (f"S{t}",), (f"M{t}",), base=base)


@dataclass(frozen=True)
class PredictivenessEstimate:
    """Truncated Cesàro mean of per-round predictiveness scores.

    This is an estimator of the asymptotic mean, not the exact limit; the
    horizon and the last per-round score are carried so callers cannot
    mistake the truncation for the limit.
    """

    mean: float
    horizon: int
    last_score: float
    units: str

    def __float__(self) -> float:
        return self.mean


def am_predictiveness(loop: PerceptActionLoop, horizon: int,
                      base: str = BITS) -> PredictivenessEstimate:
    """Arithmetic mean of predictiveness scores over rounds t < horizon."""
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    scores = [predictiveness_score(loop, t, base=base) for t in range(horizon)]
    return PredictivenessEstimate(float(np.mean(scores)), horizon, scores[-1], base)


def future_predictiveness(loop: PerceptActionLoop, t: int, future_len: int,
                          base: str = BITS) -> float:
    """Truncated I[A_0..A_t, S_0..S_{t-1}; S_t..S_{t+k-1} | M_t] with k =
    ``future_len``; nondecreasing in k by the chain rule."""
    if t < 0 or future_len < 1:
        raise DimensionError("need t >= 0 and future_len >= 1")
    past = _past_vars(t)
    future = [f"S{i}" for i in range(t, t + future_len)]
    joint = _trajectory_marginal(loop, t + future_len, {*past, *future, f"M{t}"})
    return conditional_mutual_information(joint, past, future, (f"M{t}",), base=base)
