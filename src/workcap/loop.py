"""Percept-action loops: the global Markov chain and its analysis.

Composing an agent model with an environment model yields a homogeneous
Markov chain over tuples (memory, action, percept, hidden state).  This
module builds that chain, computes per-round work terms and the asymptotic
work rate, and the predictiveness scores that decide membership in the
predictive agent class.

Every asymptotic rate comes from one Cesàro engine, ``markov._limit_laws``,
which gives the state's law under each subsequence limit and forms no
limit matrix: ``work_rate`` runs it on one agent, and the capacity search's
``_rate_gradients`` (rates with their exact gradients, one formula for
every chain structure) on a stack, whose members it groups by structure.
It runs on the pre-percept chain (memory, action, hidden state) of
``_pre_percept_chain``, |S| times smaller than the global chain: the
percept is a fresh draw from the emission e(s | a, z), so each law of the
global chain is a law of that chain times the emission (Kemeny & Snell
1960, functions of a Markov chain); every work term is read from its
marginals p(m, a) and p(m, s).  ``build_global_chain`` keeps the global
chain for inspection and checks.

Each kernel is built by one einsum into one C-ordered buffer, so it is the
only n x n float array its builder forms.  ``work_rate`` owns the kernel it
builds: it reads the round laws off it and then hands it to the engine,
whose elimination runs in it, so a work rate keeps one n x n array alive.
``_rate_gradients`` reads the kernels the engine solved on, and Q, after
the limit, so it keeps them, and the engine eliminates in a copy.

Every finite-horizon trajectory quantity comes from one forward pass,
``_forward_pass``: its message, a matrix from the kept past to the current
(M_t, A_t, Z_t), takes in each round, and each variable the caller did not
ask for is summed inside the product that last reads it.  On a loop of at
most _ONE_PRODUCT_STATES states (m, a, z) a round is one product with its
factor F, the round applied to each point mass, whose rows are in the next
message's order; on a larger one, where F's n^2 entries per kept value
cost more than they save, it is phi's product and then theta's.  A table
is read off the message by one product with the emission.  A loop keeps
the factors its passes build, one per pattern of kept variables.
``trajectory_distribution`` keeps every variable; the predictiveness
quantities keep only the ones their conditional mutual information reads,
so their tables stay near the size of that marginal, and each is read off
a 4-axis view (past, M_t, A_t, future) of its table.
``am_predictiveness`` reads every round's table off one pass.

Index convention throughout: a range subscript l:m includes l and excludes m,
so the action block relevant at round t is A_0..A_t and the percept past is
S_0..S_{t-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import AgentModel, EnvironmentModel
from .errors import BudgetError, DimensionError
from .info import BITS, JointTable, _base_factor, _clamp_nonneg, _entropy_nats, _sum_out, _xlogy
from .markov import Distribution, TransitionKernel, _limit_laws, _owning, bfs_levels

TRAJECTORY_BUDGET = 10 ** 7
# The most pre-percept states (m, a, z) on which a forward-pass round is
# one product with its factor F (:func:`_step`).  F has n^2 entries per
# kept value, and the product about n times the two products' flops, so
# above this the two products win.  Measured with one OpenBLAS thread on a
# 2-vCPU x86-64 host, every variable kept: at 64 states one product takes
# 165 us against 21 on one message row, at 32 states 11 against 10 on one
# row and 204 against 989 on 64; with none or A_t and S_t kept it wins up
# to 64 states and loses from 128.  Two products on every loop took the
# benchmark's verify wall_s from 75.8 to 83.5 ms and predictiveness from
# 2.39 to 2.52 ms.
_ONE_PRODUCT_STATES = 32


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

    @cached_property
    def _factors(self) -> dict:
        """The forward pass's env, agent, round and read-out factors,
        filled on first use, one per pattern of the kept variables each
        reads: the models are frozen, so the factors never go stale."""
        return {}


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
    Both are products of the models' checked arrays and are not checked
    again, so a row may miss 1 by a few ROW_SUM_TOL.
    """
    phi = loop.env.phi
    emission = loop.env.emission()  # [a, z, s]
    feasible4 = emission > 0.0
    X = phi / np.where(feasible4, emission, 1.0)[..., None]
    n = int(np.prod(loop.shape))
    K = np.empty(loop.shape * 2)  # one C-ordered buffer: the only n x n array formed
    np.einsum("azsw,smbn,bwt->masznbtw", X, loop.agent.theta, emission, out=K)
    K = K.reshape(n, n)
    feasible = np.broadcast_to(feasible4.transpose(0, 2, 1), loop.shape).reshape(n)
    K[~feasible] = 1.0 / n  # uniform placeholder; never entered
    init = np.einsum("am,z,azs->masz", loop.agent.initial_joint, loop.env.initial,
                     emission).reshape(n)
    return GlobalChain(loop.shape, _owning(TransitionKernel, K), _owning(Distribution, init),
                       feasible, bfs_levels(init > 0.0, K > 0.0) >= 0)


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Exact joint over M_0, A_0, S_0, Z_0, ..., M_{T-1}, A_{T-1}, S_{T-1}, Z_{T-1}."""

    horizon: int
    joint: JointTable


_ROUND_VARS = ("M", "A", "S", "Z")


def _diagonal(n: int, axes: tuple[int, int], ndim: int) -> np.ndarray:
    """The n x n identity on ``axes`` of an ndim-axis tensor."""
    shape = [1] * ndim
    shape[axes[0]] = shape[axes[1]] = n
    return np.eye(n).reshape(shape)


def _env_factor(table: np.ndarray, kept_a: bool, kept_s: bool, kept_z: bool) -> np.ndarray:
    """``table`` (phi[a, z, s, w] or e[a, z, s]) as a matrix from (a, z) to
    (A_t, S_t, Z_t, w): a kept A_t or Z_t is copied onto its own column axis
    (a diagonal), and S_t is summed where it is not kept."""
    n_a, n_z = table.shape[:2]
    f = table[:, :, None, :, None]  # [a, z, A_t, s, Z_t, w]
    if kept_a:
        f = f * _diagonal(n_a, (0, 2), f.ndim)
    if kept_z:
        f = f * _diagonal(n_z, (1, 4), f.ndim)
    if not kept_s:
        f = f.sum(axis=3)
    return f.reshape(n_a * n_z, -1)


def _agent_factor(theta: np.ndarray, kept_m: bool, kept_s: bool) -> np.ndarray:
    """theta[s, m, b, n] as a matrix from (m, s) to (M_t, S_t, n, b), a kept
    M_t or S_t copied onto its own column axis."""
    n_s, n_m = theta.shape[:2]
    f = theta.transpose(1, 0, 3, 2)[:, :, None, None]  # [m, s, M_t, S_t, n, b]
    if kept_m:
        f = f * _diagonal(n_m, (0, 2), f.ndim)
    if kept_s:
        f = f * _diagonal(n_s, (1, 3), f.ndim)
    return f.reshape(n_m * n_s, -1)


def _two_products(msg: np.ndarray, shape, kept, to_env, to_agent) -> np.ndarray:
    """One round as phi's product and then theta's: the message, columns by
    (m, a, z), becomes the next one, rows by the past and the kept M_t, A_t,
    S_t, Z_t, and columns by (n, b, w)."""
    n_m, n_a, n_s, n_z = shape
    k_m, k_a, k_s, k_z = (n if k else 1 for n, k in zip(shape, kept))
    rows = len(msg)
    x = msg.reshape(rows * n_m, n_a * n_z) @ to_env  # [p, m, A_t, s, Z_t, w]
    x = x.reshape(rows, n_m, k_a, n_s, k_z, n_z).transpose(0, 2, 4, 5, 1, 3)
    y = x.reshape(-1, n_m * n_s) @ to_agent  # [p, A_t, Z_t, w, M_t, S_t, (n, b)]
    y = y.reshape(rows, k_a, k_z, n_z, k_m, k_s, n_m * n_a).transpose(0, 4, 1, 5, 2, 6, 3)
    return y.reshape(-1, n_m * n_a * n_z)


def _forward_pass(loop: PerceptActionLoop, plan) -> list[np.ndarray]:
    """The read-outs of one forward pass over the rounds, in round order.

    ``plan`` holds one ``(read, step)`` per round up to the last read, each
    None or four flags saying which of (M_t, A_t, S_t, Z_t) it keeps.  The
    message before round t is a matrix: one row per value of the kept past
    (the variables the steps of rounds before t keep, in round and variable
    order) and one column per value of (M_t, A_t, Z_t).  A read is one
    product with the emission, the marginal over the kept past and the
    round-t variables it keeps; a step forms the next message, keeping the
    round-t variables it flags and summing the rest inside the product
    that last reads them (variable elimination in round order, Zhang &
    Poole 1994): one product with the round's factor F on a loop of at
    most _ONE_PRODUCT_STATES states (m, a, z), phi's product and then
    theta's on a larger one (:func:`_step`).  Each factor is built once
    per loop, one per pattern of kept variables (:func:`_run_pass`), and a
    kept variable of the message's state is copied onto its own column
    axis of the factor.  A read-out carries a kept M_t in the message's
    rows, so its factor never copies M_t onto a diagonal; an unkept M_t is
    summed by the emission's rows repeated for each memory state.

    TRAJECTORY_BUDGET, read at each call, bounds the largest array the pass
    forms, factors F included, which is computed from the shapes before
    any product; phi's product is never larger than the round's output,
    nor than F, since |S| = |A|.  Each read-out is a C-contiguous matrix
    whose row-major order is the kept past and then round t's kept
    variables.
    """
    shape = loop.shape
    n_m, n_a, n_s, n_z = shape
    state = n_m * n_a * n_z
    past, required = 1, state  # the round-0 message has one row
    for read, step in plan:
        if read is not None:
            k_m, k_a, k_s, k_z = [n if k else 1 for n, k in zip(shape, read)]
            # the emission's matrix before S_t is summed and as repeated for
            # each memory state, and the table
            required = max(required, n_a * n_z * k_a * n_s * k_z,
                           (1 if read[0] else n_m) * n_a * n_z * k_a * k_s * k_z,
                           past * k_m * k_a * k_s * k_z)
        if step is not None:
            k_m, k_a, k_s, k_z = [n if k else 1 for n, k in zip(shape, step)]
            kept = k_m * k_a * k_s * k_z
            # phi's matrix, theta's matrix, the round's factor F on a small
            # loop (phi's product on the identity is no larger, since |S| =
            # |A|) and the round's output
            required = max(required, n_a * n_z * k_a * n_s * k_z * n_z,
                           n_m * n_s * k_m * k_s * n_m * n_a,
                           (state * kept * state if state <= _ONE_PRODUCT_STATES else 0),
                           past * kept * state)
            past *= kept
    if required > TRAJECTORY_BUDGET:
        raise BudgetError(
            f"trajectory contraction would form a table of {required} entries "
            f"(budget {TRAJECTORY_BUDGET})", required=required, budget=TRAJECTORY_BUDGET,
        )
    return _run_pass(loop, plan)


def _run_pass(loop: PerceptActionLoop, plan) -> list[np.ndarray]:
    """The products of :func:`_forward_pass`'s ``plan``, returning the
    read-outs.  The env, agent, round and read-out factors, one per kind
    of product and pattern of the kept variables it reads, stay on the loop
    after its first pass (``loop._factors``)."""
    n_m = loop.shape[0]
    factors = loop._factors
    msg = (loop.agent.initial_joint.T[:, :, None] * loop.env.initial).reshape(1, -1)
    tables = []
    for read, step in plan:
        if read is not None:
            if ("read", read) not in factors:
                factors["read", read] = np.tile(_env_factor(loop.env.emission(), *read[1:]),
                                                (1 if read[0] else n_m, 1))
            emit = factors["read", read]
            tables.append(msg.reshape(-1, len(emit)) @ emit)
        if step is None:
            return tables
        msg = _step(loop, msg, step)


def _step(loop: PerceptActionLoop, msg: np.ndarray, kept) -> np.ndarray:
    """One round of the forward pass for the four flags ``kept``.  On a
    loop of at most _ONE_PRODUCT_STATES pre-percept states (m, a, z) it is
    one product, ``msg @ F``, with the round's factor F
    (:func:`_round_factor`); on a larger one it is :func:`_two_products`
    with the loop's env and agent factors.  Each factor is keyed by the
    kept variables it reads (phi's by A_t and Z_t, theta's by M_t and S_t,
    F by all four) and built on first use.  With no variable kept, it
    takes laws over the pre-percept states one step on: F is then the
    pre-percept kernel ``Kw``, and the two products sum ``msg @ Kw`` in
    another order."""
    kept_m, kept_a, kept_s, kept_z = kept
    factors = loop._factors
    if ("env", kept_a, kept_z) not in factors:
        factors["env", kept_a, kept_z] = _env_factor(loop.env.phi, kept_a, True, kept_z)
    if ("agent", kept_m, kept_s) not in factors:
        factors["agent", kept_m, kept_s] = _agent_factor(loop.agent.theta, kept_m, kept_s)
    to_env, to_agent = factors["env", kept_a, kept_z], factors["agent", kept_m, kept_s]
    n_m, n_a, _, n_z = loop.shape
    state = n_m * n_a * n_z
    if state > _ONE_PRODUCT_STATES:
        return _two_products(msg, loop.shape, kept, to_env, to_agent)
    if ("round", kept) not in factors:
        factors["round", kept] = _round_factor(loop.shape, kept, to_env, to_agent)
    return (msg @ factors["round", kept]).reshape(-1, state)


def _round_factor(shape, kept, to_env, to_agent) -> np.ndarray:
    """The round of :func:`_two_products` as one matrix F from (m, a, z) to
    the kept M_t, A_t, S_t, Z_t and then (n, b, w): the round applied to
    each point mass of the message's state.  Its rows are already in the
    row-major order of the next message, so ``msg @ F`` is the round's
    output with no transposed copy."""
    n_m, n_a, _, n_z = shape
    state = n_m * n_a * n_z
    return _two_products(np.eye(state), shape, kept, to_env, to_agent).reshape(state, -1)


def _trajectory_marginal(loop: PerceptActionLoop, horizon: int, keep) -> JointTable:
    """Exact marginal over ``keep`` (names such as ``"S3"``) of the joint
    of the first ``horizon`` rounds, its variables in round order: the last
    round's read-out of one forward pass (:func:`_forward_pass`)."""
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    names = [f"{v}{t}" for t in range(horizon) for v in _ROUND_VARS]
    keep = set(keep)
    unknown = keep.difference(names)
    if unknown:
        raise KeyError(f"unknown variable {sorted(unknown)[0]!r}")
    flags = [name in keep for name in names]
    rounds = [tuple(flags[i:i + 4]) for i in range(0, len(flags), 4)]
    table, = _forward_pass(loop, [(None, step) for step in rounds[:-1]] + [(rounds[-1], None)])
    kept = tuple(name for name, k in zip(names, flags) if k)
    sizes = dict(zip(_ROUND_VARS, loop.shape))
    return JointTable._owning(kept, table.reshape([sizes[name[0]] for name in kept]))


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
    over the pre-percept states (m, a, z) of :func:`_pre_percept_chain`,
    flattened on the last axis; leading axes stack laws."""
    emission = env.emission()  # [a, z, s]
    n_a, n_z, n_s = emission.shape
    w = laws.reshape(*laws.shape[:-1], laws.shape[-1] // (n_a * n_z), n_a, n_z)
    return w.sum(axis=-1), w.reshape(*w.shape[:-2], n_a * n_z) @ emission.reshape(-1, n_s)


def _work_terms(p_ma: np.ndarray, p_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The work term H(M, A) - H(M, S) = H(A|M) - H(S|M) and H(A|M), in
    nats, of each law with marginals p(m, a) and p(m, s) on the last two
    axes; leading axes stack laws."""
    neg_h_ma = _xlogy(p_ma, p_ma).sum(axis=(-2, -1))
    p_m = p_ma.sum(axis=-1)
    return (_xlogy(p_ms, p_ms).sum(axis=(-2, -1)) - neg_h_ma,
            _xlogy(p_m, p_m).sum(axis=-1) - neg_h_ma)


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
    :func:`_pre_percept_chain`); it shows how well they solve their defining
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


def _pre_percept_chain(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The pre-percept chain of a stack of B agents on ``env`` (``theta``
    ``(B, |A|, M, |A|, M)``, ``init`` ``(B, |A|, M)``): its kernels ``Kw``
    ``(B, n, n)`` and its round-0 vectors ``(B, n)``.

    W_t = (M_t, A_t, Z_t), states indexed row-major in that order: the
    percept S_t is a fresh draw from e(s | a, z), so W_t is a Markov chain
    with kernel ``Kw[(m, a, z), (n, b, w)] = sum_s phi(s, w | a, z)
    theta(b, n | s, m)``, and the law of U_t = (M_t, A_t, S_t, Z_t) is the
    law of W_t times e(s | a, z) at every t and in every subsequence limit
    (:func:`_lift`).  This chain is |S| times smaller than the global one,
    and it has no infeasible states.  The einsum writes ``Kw`` into one
    C-ordered buffer, so it is the only n x n array formed.  Nothing is
    validated: the agents' and the environment's arrays are checked at model
    construction, or are stochastic by construction in the search's stacks
    (:func:`_rate_gradients`), and ``Kw`` and the round-0 vectors are their
    products, whose rows can miss 1 by about twice what their factors' rows
    do."""
    n_b, n_a, n_m = init.shape
    n_z = env.n_hidden
    K = np.empty((n_b, n_m, n_a, n_z, n_m, n_a, n_z))
    np.einsum("azsw,Bsmbn->Bmaznbw", env.phi, theta, out=K)
    p0 = np.einsum("Bam,z->Bmaz", init, env.initial)
    n = n_m * n_a * n_z
    return K.reshape(n_b, n, n), p0.reshape(n_b, n)


def _lift(laws: np.ndarray, env: EnvironmentModel) -> np.ndarray:
    """Tables p(m, a, s, z) = p(m, a, z) e(s | a, z) from laws over the
    pre-percept states (m, a, z) of :func:`_pre_percept_chain`, flattened on
    the last axis; leading axes stack laws."""
    emission = env.emission()  # [a, z, s]
    w = laws.reshape(*laws.shape[:-1], -1, *emission.shape[:2])
    return np.einsum("...maz,azs->...masz", w, emission)


def work_rate(loop: PerceptActionLoop, rounds: int = 8, base: str = BITS) -> WorkReport:
    """Asymptotic expected work per round, H(A_t|M_t) - H(S_t|M_t) averaged.

    The rate is the exact Cesàro limit, the mean of the work terms of the
    subsequence-limit laws from :func:`markov._limit_laws` on a stack of one;
    ``per_round`` lists the first ``rounds`` finite-t work terms from
    propagating the round-0 vector through the pre-percept kernel.  Every
    term is read from its law's marginals p(m, a) and p(m, s)
    (:func:`_work_terms`).  The kernel is the one n x n array of the call:
    the round laws are read off it first, and then it is handed to the
    engine, whose elimination may run in it.  So the residual applies P
    through the loop's factors, as a forward-pass step with nothing kept
    does (:func:`_step`): on a small loop one product with F, which is P,
    on a larger one phi's product and then theta's.
    """
    factor = _base_factor(base)
    K, p0 = _pre_percept_chain(loop.env, loop.agent.theta[None], loop.agent.initial_joint[None])
    per_round = ()
    if rounds:  # rounds=0, as the search and verify ask, skips the empty stack
        p, laws = p0[0], np.empty((rounds, p0.shape[1]))
        for r in range(rounds):
            laws[r], p = p, p @ K[0]
        per_round = tuple((_work_terms(*_marginals(laws, loop.env))[0] * factor).tolist())
    ((_, structure, laws, _, _),) = _limit_laws(K, p0[:, None], overwrite=True)
    reach, t = structure.reach, laws[0, 0]
    work, h_action = _work_terms(*_marginals(t, loop.env))
    action_entropy = _clamp_nonneg(float(h_action.mean()), "mean action entropy") * factor
    residual = float(np.max(np.abs(_step(loop, t, (False,) * 4) - np.roll(t, -1, axis=0))))
    recurrent = np.zeros_like(reach)
    recurrent[np.flatnonzero(reach)[np.concatenate(structure.closed)]] = True
    return WorkReport(per_round, float(work.mean()) * factor, action_entropy,
                      len(t), residual, base, _lift(reach, loop.env).reshape(-1) > 0.0,
                      int(np.count_nonzero(_lift(recurrent, loop.env))),
                      _lift(t.mean(axis=0), loop.env).reshape(-1))


def _rate_gradients(env: EnvironmentModel, theta: np.ndarray, init: np.ndarray
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Work rates, in nats, of a stack of B agents on ``env`` (shapes as in
    :func:`_pre_percept_chain`), each its ``work_rate``, and ``grads``, their
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
    Nothing is checked: every row of the search's stacks is a normalized
    exponential or an exact vertex (``capacity._agent_rows``).
    """
    n_b, n_a, n_m = init.shape
    K, p0 = _pre_percept_chain(env, theta, init)
    n_z = env.n_hidden
    emission = env.emission().reshape(n_a * n_z, -1)  # [(a, z), s]
    rates = np.empty(n_b)
    grads = np.zeros(theta.shape), np.zeros(init.shape)
    for members, structure, laws, P, (Q, absorb, stationary) in _limit_laws(K, p0[:, None]):
        reach, tables = structure.reach, laws[:, 0]
        B, d, n = tables.shape
        p_ma, p_ms = _marginals(tables, env)
        log_ma, log_ms = _log_positive(p_ma), _log_positive(p_ms)
        # p log+ p is _xlogy(p, p) bit for bit, so these are _work_terms'
        # rates, with np.mean's sum and quotient
        rates[members] = ((p_ms * log_ms).sum(axis=(-2, -1))
                          - (p_ma * log_ma).sum(axis=(-2, -1))).sum(axis=-1) / d
        lam = ((log_ms @ emission.T).reshape(B, d, n_m, n_a, n_z)
               - log_ma[..., None]).reshape(B, d, n) / d  # g_r
        ell = tables
        if not reach.all():
            lam, ell = lam[..., reach], ell[..., reach]
        for r in range(d - 1, 0, -1):  # the reverse sweep turns g into λ
            lam[:, r - 1] += (P @ lam[:, r, :, None])[..., 0]
        # this shortcut keeps the benchmark's capacity_numeric wall_s at 82.1
        # ms; forming the terms through Lh on one class too took it to 101.5
        # (2-vCPU x86-64 host)
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
    """The solutions ``A^-1 b`` of a ``(B, n, n)`` stack, by LU, and the
    ``(B,)`` mask of the members solved; a member whose solution is not
    finite is not solved and gets 0.  With a singular matrix in the stack,
    each member is solved alone, so it gets the solution it gets alone."""
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
    return (x if solved.all() else np.where(solved[:, None], x, 0.0)), solved


# ---------------------------------------------------------------------------
# Predictiveness
# ---------------------------------------------------------------------------

def _view_cmi(p: np.ndarray) -> float:
    """I[X, A; F | M] in nats of a 4-axis table p(x, m, a, f), as H(X, M, A)
    + H(M, F) - H(X, M, A, F) - H(M): the entropies of the table's sum over
    f, of its sum over x and a, of the table, and of its margin over m.
    Each sum is ``info._sum_out``'s, which sums the same runs of a named
    table alike, and the three margins' terms come from one ``_xlogy`` over
    their concatenation, each entropy one contiguous segment's sum, as
    ``_entropy_nats`` sums each margin alone, so a score is the generic
    CMI's bit for bit."""
    margins = [_sum_out(p, kept).reshape(-1) for kept in ((True, True, True, False),
                                                          (False, True, False, True),
                                                          (False, True, False, False))]
    terms = np.concatenate(margins)
    terms = _xlogy(terms, terms)
    ends = np.cumsum([len(m) for m in margins]).tolist()
    h_xma, h_mf, h_m = (float(-np.add.reduce(terms[start:end]))
                        for start, end in zip([0] + ends, ends))
    h = h_xma + h_mf - _entropy_nats(p) - h_m
    return _clamp_nonneg(h, "conditional mutual information")


def _scores(loop: PerceptActionLoop, rounds, base: str) -> list[float]:
    """I[A_0..A_t, S_0..S_{t-1}; S_t | M_t] for each t in ``rounds``, each
    read off one forward pass that keeps the actions and percepts: round
    t's read-out is the table over the kept past (A_0..A_{t-1},
    S_0..S_{t-1}), M_t, A_t and S_t, and its score that of its 4-axis view
    (:func:`_view_cmi`), with A_t beside the past and S_t the future.
    """
    factor = _base_factor(base)
    n_m, n_a, n_s, _ = loop.shape
    last = max(rounds)
    plan = [((True, True, True, False) if t in rounds else None,
             (False, True, True, False) if t < last else None) for t in range(last + 1)]
    return [_view_cmi(table.reshape(-1, n_m, n_a, n_s)) * factor
            for table in _forward_pass(loop, plan)]


def predictiveness_score(loop: PerceptActionLoop, t: int, base: str = BITS) -> float:
    """Exact I[A_0..A_t, S_0..S_{t-1}; S_t | M_t]; zero iff the memory is a
    sufficient statistic of the past for the current percept.

    Only the marginal over those variables is formed, so TRAJECTORY_BUDGET
    bounds its contraction's largest table, not the full joint of t + 1 rounds.
    """
    if t < 0:
        raise DimensionError("round index must be >= 0")
    return _scores(loop, [t], base)[0]


@dataclass(frozen=True)
class PredictivenessEstimate:
    """Truncated Cesàro mean of per-round predictiveness scores.

    This is an estimator of the asymptotic mean, not the exact limit; the
    horizon and the per-round scores ``scores[t]``, t < horizon, are carried
    so callers cannot mistake the truncation for the limit.
    """

    mean: float
    horizon: int
    scores: tuple[float, ...]
    units: str

    @property
    def last_score(self) -> float:
        return self.scores[-1]

    def __float__(self) -> float:
        return self.mean


def am_predictiveness(loop: PerceptActionLoop, horizon: int,
                      base: str = BITS) -> PredictivenessEstimate:
    """Arithmetic mean of predictiveness scores over rounds t < horizon.

    The scores come from one forward pass over the horizon, which carries
    its message from round t to t + 1 and reads each round's table off it
    (:func:`_forward_pass`), so it contracts each round once; each score is
    bit for bit ``predictiveness_score``'s.  TRAJECTORY_BUDGET bounds the
    largest array of the whole pass, before any product is formed.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    scores = _scores(loop, range(horizon), base)
    return PredictivenessEstimate(float(np.mean(scores)), horizon, tuple(scores), base)


def future_predictiveness(loop: PerceptActionLoop, t: int, future_len: int,
                          base: str = BITS) -> float:
    """Truncated I[A_0..A_t, S_0..S_{t-1}; S_t..S_{t+k-1} | M_t] with k =
    ``future_len``; nondecreasing in k by the chain rule.  It is read, as
    the scores are, off a 4-axis view of one read-out (:func:`_view_cmi`),
    so at k = 1 it is ``predictiveness_score``'s bit for bit."""
    if t < 0 or future_len < 1:
        raise DimensionError("need t >= 0 and future_len >= 1")
    n_m, n_a, n_s, _ = loop.shape
    # the table over the past, M_t, A_t and the future, in that order
    keep = {f"M{t}", *(f"A{i}" for i in range(t + 1)), *(f"S{i}" for i in range(t + future_len))}
    joint = _trajectory_marginal(loop, t + future_len, keep)
    return _view_cmi(joint.probs.reshape(-1, n_m, n_a, n_s ** future_len)) * _base_factor(base)
