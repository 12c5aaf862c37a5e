"""Percept-action loops: the global Markov chain and its analysis.

Composing an agent model with an environment model yields a homogeneous
Markov chain over tuples (memory, action, percept, hidden state).  This
module builds that chain, computes per-round work terms and the asymptotic
work rate, and the predictiveness scores that decide membership in the
predictive agent class.

Every asymptotic rate comes from one Cesàro engine, ``_cesaro_tables``,
which keeps the state's law under each subsequence limit from
``markov._limit_laws`` and forms no limit matrix: ``work_rate`` runs it on
one agent, and the capacity search's ``_rate_gradients`` (rates with their
exact gradients, one formula for every chain structure) on a stack.  It
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

    Returns the kernels ``Kw`` ``(B, n, n)``, the round-0 vectors ``(B, n)``
    and, for each group of members with one structure (by their kernels'
    and round-0 vectors' support patterns; :func:`markov._pattern_groups`),
    ``(members, reach, structure, tables, limit)``: the
    mask of reachable W states, the structure of the reachable subchain,
    ``tables[i, r] = u P^r L`` for r < d, the laws of W_{nd+r} as n grows
    (zero off ``reach``), and ``limit``, Q = P^d and L's factors on
    ``reach``, with u the round-0 vector, P the reachable subchain, d its
    period lcm and L = lim Q^n, from :func:`markov._limit_laws`.  The stack
    shares one kernel einsum and one validation, and a group's limit laws
    are solved at once.  What the patterns decide (the groups' reachable
    sets and structures) comes from the one structure memo of :mod:`markov`,
    so it is worked out once per pattern, not once per call.  When every
    state is reachable, the group's kernels and round-0 vectors go to
    ``_limit_laws`` as they are and its laws are the tables; otherwise the
    reachable subchain is gathered and its laws padded with zeros.
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
            _, laws, limit = _limit_laws(K[members], p0[members][:, None, :], structure)
            tables = laws[:, 0]
        else:
            rows = np.arange(n_b)[members]
            _, laws, limit = _limit_laws(K[np.ix_(rows, reach, reach)],
                                         p0[np.ix_(rows, reach)][:, None, :], structure)
            tables = np.zeros((len(rows), structure.period_lcm, n))
            tables[:, :, reach] = laws[:, 0]
        groups.append((members, reach, structure, tables, limit))
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
    K, p0, ((_, reach, structure, tables, _),) = _cesaro_tables(
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


def _rate_gradients(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Work rates, in nats, of a stack of B agents on ``env`` (shapes as in
    :func:`_cesaro_tables`), each its ``work_rate``, and ``grads``, their
    exact gradients in ``theta`` and ``init``, each bit for bit as alone.

    On a member's reachable pre-percept chain P with round-0 vector u,
    period lcm d, Q = P^d and L = lim Q^n, the rate is F = (1/d) sum_r
    f(ℓ_r), ℓ_r = ℓ_0 P^r, ℓ_0 = uL, where f = H(M, A) - H(M, S) of ℓ(m,
    a, z) e(s | a, z) has gradient ``sum_s e(s | a, z) log p(m, s) - log
    p(m, a)`` at ``[m, a, z]`` (0 log 0 = 0).  With g_r = ∇f(ℓ_r)/d, the
    sweep λ_{d-1} = g_{d-1}, λ_{r-1} = g_{r-1} + P λ_r adds ℓ_{r-1} ⊗ λ_r
    to dF/dP and leaves h = λ_0.  With M = I - Q + L, dL = L dQ A# + A# dQ
    L (Meyer 1975), A# = M^-1 - L the group inverse of I - Q (Golub &
    Meyer 1986), is L dQ M^-1 + M^-1 dQ L, since dQ keeps Q's closed
    classes closed and its rows sum to 0, so L dQ L = 0.  So ℓ_0 adds ℓ_0
    dQ (M^-1 h) + (u M^-1) dQ (Lh), dQ = sum_k P^k dP P^{d-1-k}, and u
    adds dF/du = Lh, with Q and L = sum_c a_c π_c from
    :func:`markov._limit_laws`.  On one aperiodic class, M = I - K + 1π is
    Schweitzer's (1968) deviation matrix, and the terms through Lh are
    constant along each row (dQ 1 = 0), so they are not formed: there the
    gradients are exact along the simplex of each row, and the ``init``
    gradient is 0.  A term x ⊗ y of dF/dP enters ``theta`` as ``sum
    x(m, a, z) phi(s, w | a, z) y(n, b, w)`` at ``[s, m, b, n]``.  A
    member whose M is singular in floating point gets a zero gradient.
    """
    K, p0, groups = _cesaro_tables(env, theta, init)
    n_b, n_a, n_m = init.shape
    n_z = env.n_hidden
    emission = env.emission().reshape(n_a * n_z, -1)  # [(a, z), s]
    rates = np.empty(n_b)
    grads = np.zeros(theta.shape), np.zeros(init.shape)
    for members, reach, structure, tables, (Q, absorb, stationary) in groups:
        p_ma, p_ms = _marginals(tables, env)
        rates[members] = _work_terms(p_ma, p_ms)[0].mean(axis=-1)
        B, d, n = tables.shape
        lam = ((_log_positive(p_ms) @ emission.T).reshape(B, d, n_m, n_a, n_z)
               - _log_positive(p_ma)[..., None]).reshape(B, d, n) / d  # g_r
        P, ell = K[members], tables
        if not reach.all():
            P = P[np.ix_(np.arange(B), reach, reach)]
            lam, ell = lam[..., reach], ell[..., reach]
        for r in range(d - 1, 0, -1):  # the reverse sweep turns g into λ
            lam[:, r - 1] += (P @ lam[:, r, :, None])[..., 0]
        one_class = len(structure.closed) == 1 and d == 1
        L = ell[:, :1] if one_class else absorb @ stationary  # on one class, L = 1π = 1ℓ_0
        M = np.eye(len(P[0])) - Q + L
        x, solved = _solve(M, lam[:, 0])
        lefts, rights = ell[:, :1], x[:, None]
        if not one_class:
            # ahead[:, :, k] = P^{d-1-k} (M^-1 h, Lh), behind[:, k] = u M^-1 P^k
            ahead, behind = np.empty((B, 2, d, len(P[0]))), np.empty(ell.shape)
            ahead[:, :, -1] = np.stack([x, (L @ lam[:, 0, :, None])[..., 0]], axis=1)
            behind[:, 0], solved_u = _solve(M.transpose(0, 2, 1), p0[members][:, reach])
            for k in range(d - 1, 0, -1):
                ahead[:, :, k - 1] = ahead[:, :, k] @ P.transpose(0, 2, 1)
                behind[:, d - k] = (behind[:, d - k - 1, None] @ P)[:, 0]
            ahead[:, 0, :-1] += lam[:, 1:]
            ahead[~(solved & solved_u)] = 0.0
            lefts, rights = np.concatenate([ell, behind], axis=1), ahead.reshape(B, 2 * d, -1)
            slope_u = np.zeros((B, n_m, n_a, n_z))
            slope_u.reshape(B, n)[:, reach] = ahead[:, 1, -1]
            grads[1][members] = (slope_u @ env.initial).transpose(0, 2, 1)
        if not reach.all():  # zero off the reachable states
            terms = np.zeros((2, *lefts.shape[:2], n))
            terms[..., reach] = lefts, rights
            lefts, rights = terms
        flow = lefts.reshape(B, -1, n_m, n_a * n_z) @ env.phi.reshape(n_a * n_z, -1)
        grad = np.add.reduce(flow.reshape(B, -1, n_m * n_a, n_z)  # [(m, s), (n, b)] per term
                             @ rights.reshape(B, -1, n_m * n_a, n_z).transpose(0, 1, 3, 2), 1)
        grads[0][members] = grad.reshape(-1, n_m, n_a, n_m, n_a).transpose(0, 2, 1, 4, 3)
    return rates, grads


def _log_positive(p: np.ndarray) -> np.ndarray:
    """log p where p > 0, and 0 where p = 0."""
    return np.log(np.where(p > 0.0, p, 1.0))


def _solve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A^-1 b`` for a ``(B, n, n)`` stack by LU, 0 where it is not
    finite, and where it is; with a singular matrix in the stack, each
    member is solved alone, so it gets the solution it gets alone."""
    try:
        x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(A)):
            try:
                x[k] = np.linalg.solve(A[k], b[k][:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass  # singular: x stays NaN, so the member has no gradient
    solved = np.isfinite(x).all(axis=1)
    return np.where(solved[:, None], x, 0.0), solved


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
