"""Work capacity: closed forms, numeric lower bounds, and a property check.

Closed forms cover the three special channel classes (noiseless, memoryless
invariant, unifilar product).  For everything else a quasi-Newton search
(L-BFGS-B on central-difference gradients of exact work rates, evaluated a
stack of agents at a time) over bounded-memory agent kernels yields an
explicitly labeled lower bound; the true capacity maximizes over all finite
agent models and no general algorithm for it is known, so the numeric value
is never presented as exact.  :func:`check_subadditivity` checks cascade
subadditivity of memoryless invariant channels.
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

LBFGS_STEPS = 500  # iteration cap of one L-BFGS-B run
LBFGS_FTOL = 1e-12  # a run stops when a step gains less than this times max(1, |value|)
LBFGS_GTOL = 1e-9  # ... or when no gradient entry exceeds this
FD_STEP = 6e-6  # central-difference step, relative to max(1, |x_i|)
MEMORYLESS_RESTARTS = 8  # random Dirichlet starts of the memoryless ascent
ASCENT_STEPS = 2000  # step cap of each row of the memoryless ascent
FACE_TOL = 1e-12  # memoryless witness entries below this are tried at 0


@dataclass(frozen=True)
class CapacityResult:
    """A work-capacity value (nats) plus how it was obtained.

    ``witness`` is an agent model whose work rate is the value; the numeric
    method records (restart, value) pairs in ``optimizer_trace``.  ``exact``
    tells closed forms from the numeric lower bound; ``stalled`` is set when
    an optimizer's step or iteration cap ran out before it stopped.
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


def _snap_face(reduced: np.ndarray, p: np.ndarray, value: float
               ) -> tuple[np.ndarray, float]:
    """Set the entries of ``p`` below FACE_TOL to 0 and renormalize, unless
    the exact gain of doing so (:func:`_gain`) is negative beyond rounding;
    returns the row and its value.

    The fixed-point step only approaches a face of the simplex
    geometrically, so an optimum on a face is reached with entries such as
    1e-22 for actions it never plays.
    """
    if not (p < FACE_TOL).any():
        return p, value
    snapped = np.where(p < FACE_TOL, 0.0, p)
    snapped /= snapped.sum()
    gain, bound = _gain(reduced, p[None], snapped[None])
    if gain[0] < -bound[0]:
        return p, value
    return snapped, max(value, float(_memoryless_objective(reduced, snapped)))


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
    k = int(np.argmax(values))  # the first start attaining the maximum
    best, value = _snap_face(reduced, rows[k], float(values[k]))
    witness = agents.build_memoryless(env.alphabet, best)
    return CapacityResult(value, CLOSED_FORM_MEMORYLESS, witness=witness,
                          witness_params={"action_distribution": tuple(float(x) for x in best)},
                          stalled=stalled)


def capacity_unifilar_product(env: channels.EnvironmentModel) -> CapacityResult:
    """log |A| minus the percept entropy rate, attained by the predictive
    extension of the uniform memoryless agent.  Raises ChannelClassError
    unless the model is unifilar and ``channels.is_product``."""
    if channels.is_unifilar(env) is None:
        raise ChannelClassError("capacity_unifilar_product needs a unifilar model")
    if not channels.is_product(env):
        raise ChannelClassError("capacity_unifilar_product needs a product channel")
    h = info.entropy_rate(env, base="nats")
    value = math.log(len(env.alphabet)) - h
    witness = agents.build_predictive(agents.build_uniform(env.alphabet), env)
    return CapacityResult(float(value), CLOSED_FORM_UNIFILAR_PRODUCT, witness=witness)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _kernels_from_params(x: np.ndarray, n_a: int, n_m: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Agent kernels ``(B, |A|, M, |A|, M)`` and opening joints ``(B, |A|,
    M)`` from a ``(B, dim)`` stack of unconstrained coordinates: one
    normalized exponential per kernel row and one for the opening joint."""
    rows = n_a * n_m
    theta = _softmax_rows(x[:, : rows * rows].reshape(-1, n_a, n_m, rows))
    init = _softmax_rows(x[:, rows * rows:])
    return theta.reshape(-1, n_a, n_m, n_a, n_m), init.reshape(-1, n_a, n_m)


def _agent_from_params(x: np.ndarray, alphabet: tuple[str, ...],
                       memory: tuple[str, ...]) -> agents.AgentModel:
    theta, init = _kernels_from_params(x[None], len(alphabet), len(memory))
    return agents.AgentModel(alphabet, memory, theta[0], init[0])


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


def capacity_lower_bound(env: channels.EnvironmentModel, memory_size: int = 2,
                         restarts: int = 32, seed: int = 0,
                         warm_starts: tuple[agents.AgentModel, ...] = ()
                         ) -> CapacityResult:
    """Best work rate over agents with ``memory_size`` memory states.

    Agent kernels are parameterized on the product of simplices through
    normalized exponentials of unconstrained coordinates, searched by
    restarted L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).  Each objective call
    evaluates the point and its 2 dim central-difference neighbours (step
    ``FD_STEP * max(1, |x_i|)``) as one stack of exact work rates
    (:func:`loop._work_rates`), and the best point seen in a run, neighbours
    included, is that run's result.  A run is ``stalled`` when it reaches
    ``LBFGS_STEPS`` iterations.  Deterministic rows exist only in the
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

    def rates(points: np.ndarray) -> np.ndarray:
        return loop._work_rates(env, *_kernels_from_params(points, n_a, n_m))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    starts += [_params_from_agent(w, memory_size) for w in warm_starts]
    starts += [rng.normal(scale=1.5, size=dim) for _ in range(restarts - 1)]

    trace: list[tuple[int, float]] = []
    best_x, best_value = starts[0], -math.inf
    stalls = 0
    for restart, x0 in enumerate(starts):
        run_best = [-math.inf, x0]

        def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
            step = np.diag(FD_STEP * np.maximum(1.0, np.abs(x)))
            ahead, behind = x + step, x - step
            points = np.concatenate([x[None], ahead, behind])
            values = rates(points)
            i = int(np.argmax(values))  # the first point attaining the maximum
            if values[i] > run_best[0]:
                run_best[:] = values[i], points[i]
            slope = (values[1:dim + 1] - values[dim + 1:]) / (ahead - behind).diagonal()
            return -values[0], -slope

        res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": LBFGS_STEPS, "ftol": LBFGS_FTOL,
                                "gtol": LBFGS_GTOL})
        stalls += res.nit >= LBFGS_STEPS
        value, x = run_best
        trace.append((restart, float(value)))
        if value > best_value:  # strict: ties keep the lowest restart index
            best_x, best_value = x, value

    model = _agent_from_params(best_x, alphabet, memory)
    snapped = _snap_vertices(model)
    snapped_value = loop._work_rates(env, snapped.theta[None], snapped.initial_joint[None])[0]
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
