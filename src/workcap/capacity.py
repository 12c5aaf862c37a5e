"""Work capacity: closed forms, numeric lower bounds, and a property check.

Closed forms cover the three special channel classes (noiseless, memoryless
invariant, unifilar product).  For everything else a derivative-free
optimizer over bounded-memory agent kernels yields an explicitly labeled
lower bound; the true capacity maximizes over all finite agent models and no
general algorithm for it is known, so the numeric value is never presented
as exact.  :func:`check_subadditivity` checks cascade subadditivity of
memoryless invariant channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from . import agents, channels, info, loop
from .errors import ChannelClassError, DomainError
from .info import BITS, LN2, _base_factor

CLOSED_FORM_NOISELESS = "closed_form_noiseless"
CLOSED_FORM_MEMORYLESS = "closed_form_memoryless"
CLOSED_FORM_UNIFILAR_PRODUCT = "closed_form_unifilar_product"
NUMERIC_LOWER_BOUND = "numeric_lower_bound"

NM_STEPS = 4000  # iteration cap of one Nelder-Mead run
MEMORYLESS_RESTARTS = 8  # random Dirichlet starts of the memoryless ascent
ASCENT_STEPS = 2000  # step cap of each row of the memoryless ascent


@dataclass(frozen=True)
class CapacityResult:
    """A work-capacity value (nats) plus how it was obtained.

    ``witness`` is an agent model whose work rate is the value; the numeric
    method records (restart, value) pairs in ``optimizer_trace``.  ``exact``
    tells closed forms from the numeric lower bound; ``stalled`` is set when
    an optimizer ran out of steps while still improving.
    """

    value_nats: float
    method: str
    witness: agents.AgentModel | None = None
    witness_params: dict | None = None
    optimizer_trace: tuple[tuple[int, float], ...] = ()
    exact: bool = True
    stalled: bool = False

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
    return CapacityResult(0.0, CLOSED_FORM_NOISELESS, witness=witness)


def _memoryless_objective(reduced: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """One-shot work term H(action) - H(induced percept), in nats.

    This is the work rate of the memoryless agent that plays ``p`` every
    round, so its maximum over the simplex is the capacity of a memoryless
    invariant channel.  ``p`` may stack one distribution per row; the result
    then has one value per row.
    """
    q = p @ reduced
    return xlogy(q, q).sum(axis=-1) - xlogy(p, p).sum(axis=-1)


def _gain(reduced: np.ndarray, p: np.ndarray, cand: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the objective at ``cand`` minus that at ``p``, and the
    worst-case rounding of that sum.

    Each entry x of p and of pR that moves by d adds d log(x + d) +
    x log1p(d / x) with the sign of its entropy, so a gain too small to
    survive the difference of two values is kept.  The objective is
    homogeneous of degree one, so the change of mass (rows sum to 1 up to
    rounding) times the value at ``p`` is taken off.
    """
    d = cand - p
    x = np.concatenate([p @ reduced, p], axis=1)
    dx = np.concatenate([d @ reduced, d], axis=1)
    moved = np.maximum(x + dx, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = xlogy(dx, moved) + x * np.log1p(dx / x)
    terms = np.where((x > 0) & (moved > 0), near, xlogy(moved, moved) - xlogy(x, x))
    sign = np.repeat([1.0, -1.0], p.shape[1])
    gain = terms @ sign - d.sum(axis=1) * _memoryless_objective(reduced, p)
    return gain, x.shape[1] * np.finfo(float).eps * np.abs(terms).sum(axis=1)


def _ascent(reduced: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, bool]:
    """Maximize H(p) - H(pR) from every row of ``starts`` at once.

    Stationary points satisfy p ∝ exp(c), c = R log(pR) (0 log 0 = 0).  Each
    step offers every row that fixed-point step, which never lowers the
    value (alternating maximization; Blahut 1972, Arimoto 1972), and a
    Newton step dp on the same condition tangent to the simplex, Hessian
    -diag(1/p) + R diag(1/q) R^T, taken as p ∝ p exp(dp / p) so it stays in
    the simplex.  Rows with an empty entry or a tangent Hessian that is not
    numerically negative definite (e.g. every p on the identity channel)
    get no Newton step.  A row keeps the better candidate while one gains:
    the fixed-point step by its computed value, so it stops crawling on a
    flat objective; the Newton step by its exact gain (:func:`_gain`) above
    rounding, since its last steps gain less than a rounding step of the
    value and judging them by value leaves the argmax about 1e-9 off.
    Returns the rows and whether ASCENT_STEPS ran out while a row gained.
    """
    p = starts.copy()
    n = p.shape[1]
    tangent = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    active = np.ones(p.shape[0], dtype=bool)
    for _ in range(ASCENT_STEPS):
        q = p @ reduced
        c = xlogy(reduced, q[:, None, :]).sum(axis=-1)
        fixed = _softmax_rows(c)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hess = (reduced * np.where(q > 0, 1.0 / q, 0.0)[:, None, :]) @ reduced.T
            hess -= np.eye(n) / p[:, :, None]
            grad = c - np.log(p)
            curv = tangent.T @ hess @ tangent
        ok = np.isfinite(curv).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        lam = np.linalg.eigvalsh(np.where(ok[:, None, None], curv, 0.0))
        # negative definite, with condition number below 1 / eps
        ok &= lam.max(axis=1, initial=-np.inf) < np.finfo(float).eps * lam.min(axis=1, initial=0.0)
        curv[~ok] = -np.eye(n - 1)
        rhs = -np.where(ok[:, None], grad, 0.0) @ tangent
        step = np.linalg.solve(curv, rhs[..., None])[..., 0] @ tangent.T
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(ok[:, None], _softmax_rows(np.log(p) + step / p), p)

        fixed_gain = _memoryless_objective(reduced, fixed) - _memoryless_objective(reduced, p)
        gain, bound = _gain(reduced, p, newton)
        newton_gain = np.where(gain > bound, gain, 0.0)
        active &= np.maximum(fixed_gain, newton_gain) > 0
        if not active.any():
            return p, False
        chosen = np.where((newton_gain > fixed_gain)[:, None], newton, fixed)
        p[active] = chosen[active]
    return p, True


def capacity_memoryless(env: channels.EnvironmentModel, seed: int = 0) -> CapacityResult:
    """Maximize the one-shot work term over action distributions.

    :func:`_ascent` runs from n + 9 starts at once (uniform, one near each
    of the n vertices, and MEMORYLESS_RESTARTS Dirichlet draws), and the
    first start attaining the maximum gives the argmax.  The objective is
    not concave, so this is a multistart optimum, not a certified one.  The
    witness is the memoryless agent playing the argmax distribution, whose
    work rate equals the value by construction.
    """
    reduced = channels.is_memoryless_invariant(env)
    if reduced is None:
        raise ChannelClassError("capacity_memoryless needs a memoryless invariant environment")
    n = reduced.shape[0]
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n)]
    starts += [np.eye(n)[i] * (1 - 1e-6) + 1e-6 / n for i in range(n)]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(MEMORYLESS_RESTARTS)]

    rows, stalled = _ascent(reduced, np.array(starts))
    values = _memoryless_objective(reduced, rows)
    best = rows[int(np.argmax(values))]  # the first start attaining the maximum
    witness = agents.build_memoryless(env.alphabet, best)
    return CapacityResult(float(values.max()), CLOSED_FORM_MEMORYLESS, witness=witness,
                          witness_params={"action_distribution": tuple(float(x) for x in best)},
                          stalled=stalled)


def capacity_unifilar_product(env: channels.EnvironmentModel,
                              product_horizon: int = channels.DEFAULT_PRODUCT_HORIZON
                              ) -> CapacityResult:
    """log |A| minus the percept entropy rate, attained by the predictive
    extension of the uniform memoryless agent."""
    if channels.is_unifilar(env) is None:
        raise ChannelClassError("capacity_unifilar_product needs a unifilar model")
    if not channels.is_product(env, horizon=product_horizon):
        raise ChannelClassError(
            f"capacity_unifilar_product needs a product channel "
            f"(certificate horizon {product_horizon})"
        )
    h = info.entropy_rate(env, base="nats", product_horizon=product_horizon)
    value = math.log(len(env.alphabet)) - h
    witness = agents.build_predictive(agents.build_uniform(env.alphabet), env)
    return CapacityResult(float(value), CLOSED_FORM_UNIFILAR_PRODUCT, witness=witness)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _agent_from_params(x: np.ndarray, alphabet: tuple[str, ...],
                       memory: tuple[str, ...]) -> agents.AgentModel:
    n_a, n_m = len(alphabet), len(memory)
    rows = n_a * n_m
    theta = _softmax_rows(x[: rows * rows].reshape(n_a, n_m, rows)).reshape(
        n_a, n_m, n_a, n_m)
    init = _softmax(x[rows * rows:]).reshape(n_a, n_m)
    return agents.AgentModel(alphabet, memory, theta, init)


def _snap_vertices(model: agents.AgentModel, eps: float = 1e-6) -> agents.AgentModel:
    """Round near-deterministic rows to exact 0/1 kernels."""
    theta = model.theta.reshape(model.n_symbols * model.n_memory, -1).copy()
    for row in theta:
        j = int(np.argmax(row))
        if row[j] >= 1.0 - eps:
            row[:] = 0.0
            row[j] = 1.0
    init = model.initial_joint.copy()
    j = int(np.argmax(init))
    if init.flat[j] >= 1.0 - eps:
        init[:] = 0.0
        init.flat[j] = 1.0
    return agents.AgentModel(
        model.alphabet, model.memory_states,
        theta.reshape(model.theta.shape), init)


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


class _TrackedObjective:
    """Remembers the best point seen across all evaluations of one run."""

    def __init__(self, func):
        self.func = func
        self.best = math.inf
        self.best_x: np.ndarray | None = None
        self.evals = 0

    def __call__(self, x):
        value = self.func(x)
        self.evals += 1
        if value < self.best:
            self.best = value
            self.best_x = np.array(x)
        return value


def _nelder_mead_run(objective, x0: np.ndarray, window: int = 50,
                     min_gain: float = 1e-9):
    """One local search; stops when ``window`` iterations improve the best
    objective by less than ``min_gain``; NM_STEPS iterations count as a stall."""
    tracked = _TrackedObjective(objective)
    history: list[float] = []

    def stop_when_flat(xk):
        history.append(tracked.best)
        if len(history) > window and history[-window - 1] - history[-1] < min_gain:
            raise StopIteration  # scipy terminates the run cleanly

    res = minimize(tracked, x0, method="Nelder-Mead", callback=stop_when_flat,
                   options={"maxiter": NM_STEPS, "xatol": 1e-10, "fatol": 1e-12})
    x = tracked.best_x if tracked.best_x is not None else res.x
    stalled = len(history) >= NM_STEPS
    return x, tracked.best, stalled


def capacity_lower_bound(env: channels.EnvironmentModel, memory_size: int = 2,
                         restarts: int = 32, seed: int = 0,
                         warm_starts: tuple[agents.AgentModel, ...] = ()
                         ) -> CapacityResult:
    """Best work rate over agents with ``memory_size`` memory states.

    Agent kernels are parameterized on the product of simplices through
    normalized exponentials of unconstrained coordinates, searched by
    restarted Nelder-Mead (stopping a run when 50 iterations improve the
    objective by less than 1e-9).  Deterministic rows exist only in the
    parameterization's limit, so a final vertex-snapping pass rounds
    near-deterministic rows and re-evaluates.  The result is a lower bound on
    the work capacity, which maximizes over unbounded memory; passing the
    witness of a smaller search as a warm start makes the bound monotone in
    ``memory_size`` by construction.
    """
    if memory_size < 1:
        raise DomainError("memory_size must be >= 1")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    alphabet = env.alphabet
    memory = tuple(f"m{i}" for i in range(memory_size))
    n_a, n_m = len(alphabet), memory_size
    rows = n_a * n_m
    dim = rows * rows + rows

    def rate_nats(model: agents.AgentModel) -> float:
        return loop.work_rate(loop.PerceptActionLoop(model, env), rounds=0,
                              base="nats").rate

    def objective(x: np.ndarray) -> float:
        return -rate_nats(_agent_from_params(x, alphabet, memory))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    starts += [_params_from_agent(w, memory_size) for w in warm_starts]
    starts += [rng.normal(scale=1.5, size=dim) for _ in range(restarts - 1)]

    trace: list[tuple[int, float]] = []
    best_x, best_value = starts[0], -math.inf
    stalls = 0
    for restart, x0 in enumerate(starts):
        x, neg_value, stalled = _nelder_mead_run(objective, x0)
        value = -neg_value
        stalls += stalled
        trace.append((restart, float(value)))
        if value > best_value:  # strict: ties keep the lowest restart index
            best_x, best_value = x, value

    model = _agent_from_params(best_x, alphabet, memory)
    snapped = _snap_vertices(model)
    snapped_value = rate_nats(snapped)
    if snapped_value >= best_value - 1e-12:
        model, best_value = snapped, max(best_value, snapped_value)
    return CapacityResult(float(best_value), NUMERIC_LOWER_BOUND, witness=model,
                          optimizer_trace=tuple(trace), exact=False,
                          stalled=bool(stalls))


def compute_capacity(env: channels.EnvironmentModel, memory_size: int = 2,
                     restarts: int = 32, seed: int = 0) -> CapacityResult:
    """Dispatch: noiseless > memoryless invariant > unifilar product > numeric."""
    if channels.is_noiseless(env):
        return capacity_noiseless(env)
    if channels.is_memoryless_invariant(env) is not None:
        return capacity_memoryless(env, seed=seed)
    if channels.is_unifilar(env) is not None and channels.is_product(env):
        return capacity_unifilar_product(env)
    return capacity_lower_bound(env, memory_size=memory_size, restarts=restarts,
                                seed=seed)


@dataclass(frozen=True)
class SubadditivityReport:
    value_first_nats: float
    value_second_nats: float
    value_cascade_nats: float
    slack: float
    holds: bool


def check_subadditivity(env1: channels.EnvironmentModel,
                        env2: channels.EnvironmentModel,
                        slack: float = 1e-8) -> SubadditivityReport:
    """C(second o first) <= C(first) + C(second) for memoryless invariant
    channels.  All three capacities are multistart optima of
    :func:`capacity_memoryless`, not certified maxima, so a missed maximum
    of the cascade could hide a violation."""
    for which, env in (("first", env1), ("second", env2)):
        if channels.is_memoryless_invariant(env) is None:
            raise ChannelClassError(f"{which} channel is not memoryless invariant")
    c1 = capacity_memoryless(env1).value_nats
    c2 = capacity_memoryless(env2).value_nats
    composite = channels.cascade(env1, env2)
    cc = capacity_memoryless(composite).value_nats
    return SubadditivityReport(c1, c2, cc, slack, bool(cc <= c1 + c2 + slack))


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
                        horizon: int = 4, tol: float = 1e-9,
                        reference_capacity_nats: float | None = None,
                        base: str = BITS) -> AgentSetReport:
    """Bundle the mea test, the truncated predictiveness estimate, the work
    rate, and (optionally) a comparison against a supplied capacity value."""
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
