"""Built-in verification suite.

Each check reproduces one concrete claim about the bundled environments or
one structural property of the machinery, with its tolerance pinned here.  The
CLI's ``verify`` command prints one PASS/FAIL line per check; the pytest
acceptance module runs the same functions.  All randomness is seeded, so a
fixed seed gives byte-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import agents, bayesnet, capacity, channels, info, loop, markov
from .errors import WorkcapError
from .random_models import (random_agent, random_environment, random_kernel,
                            random_memoryless_environment,
                            random_structured_kernel)

FIG5_CAPACITY_NATS = 0.5 * math.log(0.75 + 2 ** -0.5)
FIG5_OPT_ACTION = 2 ** -0.5
FIG5_MEA_RATE_BITS = 1.0 - math.log(256 / 27) / math.log(16)
# errors and deviations below this print as "< 1e-12": their digits are
# rounding, and any reordering of floating-point operations changes them
REPORT_FLOOR = 1e-12
_DEVIATION_BLOCK = 1 << 15  # entries: the buffer _markov_deviation reuses


def bundled_model_path(name: str):
    return resources.files("workcap") / "models" / f"{name}.json"


def load_bundled(name: str) -> channels.Model:
    return channels.loads_model(bundled_model_path(name).read_text())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Failure(Exception):
    pass


def _require(cond: bool, detail: str):
    if not cond:
        raise _Failure(detail)


def _small(x: float) -> str:
    """A nonnegative error for a detail string, floored at REPORT_FLOOR."""
    return f"< {REPORT_FLOOR:g}" if x < REPORT_FLOOR else f"{x:.2e}"


def check_fig5_capacity(seed: int = 0) -> str:
    """Capacity of the bundled fig5 channel: value within 1e-6 nats, argmax
    within 1e-4."""
    env = load_bundled("fig5")
    result = capacity.compute_capacity(env, seed=seed)
    _require(result.method == capacity.CLOSED_FORM_MEMORYLESS,
             f"dispatched to {result.method}")
    err = abs(result.value_nats - FIG5_CAPACITY_NATS)
    _require(err < 1e-6, f"capacity off by {err:.3g} nats")
    p0 = result.witness_params["action_distribution"][0]
    _require(abs(p0 - FIG5_OPT_ACTION) < 1e-4,
             f"argmax p(0) = {p0}, expected {FIG5_OPT_ACTION}")
    return (f"value {result.value_nats:.9f} nats "
            f"(err {_small(err)}), p(0) = {p0:.6f}")


def check_fig5_mea_rate(seed: int = 0) -> str:
    """Uniform memoryless agent on the fig5 channel: rate within 1e-9 bits."""
    env = load_bundled("fig5")
    agent = agents.build_uniform(env.alphabet)
    report = loop.work_rate(loop.PerceptActionLoop(agent, env))
    err = abs(report.rate - FIG5_MEA_RATE_BITS)
    _require(err < 1e-9, f"rate off by {err:.3g} bits")
    return f"rate {report.rate:.12f} bits (err {_small(err)})"


def check_identity_and_noiseless(seed: int = 0) -> str:
    """Identity agent extracts nothing (20 random environments, 1e-10);
    noiseless capacity is exactly zero."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(20):
        n_sym = 2 + (i % 2)
        n_hid = 1 + (i % 3)
        env = random_environment(rng, n_symbols=n_sym, n_hidden=n_hid)
        agent = agents.build_identity(env.alphabet)
        report = loop.work_rate(loop.PerceptActionLoop(agent, env),
                                rounds=0, base="nats")
        worst = max(worst, abs(report.rate))
    _require(worst <= 1e-10, f"identity rate as large as {worst:.3g}")
    noiseless = capacity.capacity_noiseless(load_bundled("identity"))
    _require(noiseless.value_nats == 0.0,
             f"noiseless capacity {noiseless.value_nats!r} != 0")
    return f"worst |identity rate| {_small(worst)} nats; noiseless capacity exactly 0"


def check_golden_mean_realizability(seed: int = 0) -> str:
    """Golden-mean source: capacity 1/3 bit within 1e-5 and the constructed
    predictive agent attains it within 1e-5."""
    env = load_bundled("golden_mean")
    result = capacity.capacity_unifilar_product(env)
    err = abs(result.value_bits - 1.0 / 3.0)
    _require(err < 1e-5, f"capacity off by {err:.3g} bits")
    witness_rate = loop.work_rate(loop.PerceptActionLoop(result.witness, env)).rate
    gap = abs(witness_rate - result.value_bits)
    _require(gap < 1e-5, f"witness misses capacity by {gap:.3g} bits")
    return (f"capacity {result.value_bits:.8f} bits (err {_small(err)}); "
            f"witness rate off by {_small(gap)}")


def check_fig5_exclusivity(seed: int = 0) -> str:
    """Mutual exclusivity of the mea / predictive / efficient classes on the
    fig5 channel, via classify_agent_sets on three agents."""
    env = load_bundled("fig5")
    cap_nats = capacity.capacity_memoryless(env).value_nats

    uniform = capacity.classify_agent_sets(
        env, agents.build_uniform(env.alphabet), horizon=4,
        reference_capacity_nats=cap_nats)
    _require(uniform.in_mea, "uniform agent not recognized as mea")
    _require(uniform.pred_estimate > 1e-3, "uniform agent looks predictive")
    _require(uniform.is_efficient_vs is False, "uniform agent looks efficient")
    _require(abs(uniform.work_rate - FIG5_MEA_RATE_BITS) < 1e-9,
             "uniform agent rate off")

    last = agents.build_last_action(env.alphabet, [0.5, 0.5])
    last_pal = loop.PerceptActionLoop(last, env)
    for t, score in enumerate(loop.am_predictiveness(last_pal, 4).scores):
        _require(abs(score) <= 1e-10, f"last-action score {score:.3g} at t={t}")
    last_report = capacity.classify_agent_sets(
        env, last, horizon=4, reference_capacity_nats=cap_nats)
    _require(not last_report.in_mea, "last-action agent should not be mea")
    _require(last_report.mean_action_entropy_nats <= 1e-10,
             "last-action agent has nonzero action entropy")
    _require(last_report.work_rate <= 1e-12, "last-action rate not <= 0")

    opt = capacity.classify_agent_sets(
        env, agents.build_memoryless(env.alphabet, [FIG5_OPT_ACTION, 1 - FIG5_OPT_ACTION]),
        horizon=4, reference_capacity_nats=cap_nats)
    _require(opt.is_efficient_vs is True, "optimal agent not efficient")
    _require(not opt.in_mea, "optimal agent should not be mea")
    hb = -(FIG5_OPT_ACTION * math.log(FIG5_OPT_ACTION)
           + (1 - FIG5_OPT_ACTION) * math.log(1 - FIG5_OPT_ACTION))
    _require(abs(opt.mean_action_entropy_nats - hb) < 1e-9,
             "optimal agent action entropy off")
    _require(opt.pred_estimate > 1e-3, "optimal agent looks predictive")
    return ("uniform: mea, not pred, not eff; last-action: pred, rate <= 0, "
            "not mea; p=1/sqrt(2): eff, not mea, not pred")


def _markov_deviation(joint: np.ndarray, mass: np.ndarray, pair: np.ndarray) -> float:
    """max |p(u_t | u_0..u_{t-1}) - p(u_t | u_{t-1})| over the histories of
    positive mass, in one pass over ``joint`` (axes u_0..u_t).  ``mass`` is
    ``joint.sum(axis=-1)`` and ``pair`` the (u_{t-1}, u_t) marginal.

    The deviations are formed in slices of whole u_{t-1} cycles of the
    joint's rows, at most _DEVIATION_BLOCK entries each, in one reused
    buffer, so no temporary of the joint's size is formed.  A zero-mass
    history's row is zero, so it is divided by 1, and its deviations are
    then set to 0, which no maximum of absolute values can exceed: the
    history is dropped without a gather of the positive rows."""
    step_mass = pair.sum(axis=-1)
    step = np.divide(pair, step_mass[:, None],
                     out=np.zeros_like(pair), where=step_mass[:, None] > 0)
    n = len(step)
    rows = joint.reshape(-1, n)  # row r has u_{t-1} = r mod n
    positive = mass.reshape(-1) > 0
    divisor = np.where(positive, mass.reshape(-1), 1.0)[:, None]
    block = max(1, _DEVIATION_BLOCK // (n * n)) * n  # rows per slice
    buf = np.empty((min(block, len(rows)), n))
    worst = 0.0
    for start in range(0, len(rows), block):
        at = slice(start, start + block)
        dev = buf[:len(rows[at])]
        np.divide(rows[at], divisor[at], out=dev)
        cycles = dev.reshape(-1, n, n)
        cycles -= step  # p(u_t | u_{t-1}), broadcast over the cycles of u_{t-1}
        np.abs(dev, out=dev)
        dev[~positive[at]] = 0.0
        worst = max(worst, float(dev.max()))
    return worst


def check_global_markov(seed: int = 0) -> str:
    """Exact T=4 trajectory tables of 10 random loops satisfy the one-step
    Markov and homogeneity conditions within 1e-12.

    Each marginal of a table is summed once and shared by both tests:
    p(u0, u1) and p(u1, u2) are read off p(u0, u1, u2), and p(u2, u3) is the
    column sums of the table's (n^2, n^2) view, so no pass walks the
    4-axis table with strides.  Each Markov deviation is one pass over its
    table (:func:`_markov_deviation`)."""
    rng = np.random.default_rng(seed)
    worst_markov = 0.0
    worst_homog = 0.0
    for i in range(10):
        n_m = 1 + (i % 3)
        n_z = 1 + ((i + 1) % 3)
        pal = loop.PerceptActionLoop(random_agent(rng, 2, n_m),
                                     random_environment(rng, 2, n_z))
        traj = loop.trajectory_distribution(pal, 4).joint
        n_u = int(np.prod(pal.shape))
        flat = traj.probs.reshape(n_u, n_u, n_u, n_u)
        kernel = loop.build_global_chain(pal).kernel.probs
        p012 = flat.sum(axis=3)
        p01 = p012.sum(axis=2)
        p12 = p012.sum(axis=0)
        p23 = traj.probs.reshape(n_u * n_u, n_u * n_u).sum(axis=0).reshape(n_u, n_u)

        # Markov: p(u_t | whole past) equals p(u_t | u_{t-1}), for t = 2 and 3
        worst_markov = max(worst_markov,
                           _markov_deviation(p012, p01, p12),
                           _markov_deviation(flat, p012, p23))

        # homogeneity: each step's conditional equals the one-step kernel
        for pair in (p01, p12, p23):
            source = pair.sum(axis=1)
            cond = np.divide(pair, source[:, None],
                             out=np.zeros_like(pair), where=source[:, None] > 0)
            positive = source > 0
            worst_homog = max(worst_homog,
                              float(np.abs(cond[positive] - kernel[positive]).max()))
    _require(worst_markov <= 1e-12, f"Markov deviation {worst_markov:.3g}")
    _require(worst_homog <= 1e-12, f"homogeneity deviation {worst_homog:.3g}")
    return (f"worst Markov dev {_small(worst_markov)}, "
            f"homogeneity dev {_small(worst_homog)}")


def _power_sum(P: np.ndarray, N: int) -> np.ndarray:
    """sum_{k<N} P^k by binary doubling over the bits of N, in O(log N)
    matrix products: S_2m = S_m + P^m S_m and S_m+1 = I + P S_m."""
    eye = np.eye(P.shape[0])
    total, power = np.zeros_like(eye), eye  # S_m and P^m, starting at m = 0
    for bit in bin(N)[2:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = eye + P @ total
            power = P @ power
    return total


def _hits_and_returns(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-passage statistics by dense solves, an oracle independent of
    the GTH engine: ``f[i, j]``, the probability of a first visit to j from
    i after at least one step, and ``m[j]``, the mean return time to j (inf
    for transient j).

    X_j is P with column j zeroed, so no path passes through j before its
    first visit.  One batched solve of (I - X_j) x = b over all targets j,
    with two right-hand sides: b = P[:, j] gives f[:, j], and b = 1 gives
    mean hitting times, whose entry j is m_j for recurrent j, since j's
    closed class decides its own rows.  States that never reach j (BFS on
    P^T) get identity rows and b = 0, so each system is nonsingular: every
    other state leaks towards j.  The solve is exact to rounding on chains
    without tiny entries, such as this module's (Dirichlet rows floored at
    1e-3, and deterministic cycles); on a cycle with 1e-12 flips it loses
    digits that only GTH censoring, the engine under test, keeps."""
    n = len(P)
    states = np.arange(n)
    # reach[j, i]: i reaches j in zero or more steps
    reach = np.array([markov.bfs_levels(states == j, P.T > 0.0) >= 0 for j in states])
    recurrent = ~(reach.T & ~reach).any(axis=1)  # j reaches only states that reach j
    off = np.where(np.eye(n, dtype=bool), 0.0, P)
    # I - P with each 1 - P_ii summed from the row's other entries, free of
    # cancellation when P_ii is near 1; A[j] = I - X_j
    A = np.where(reach[:, :, None], np.diag(off.sum(axis=1)) - off, np.eye(n))
    A[states, :, states] = np.eye(n)
    f, tau = np.moveaxis(np.linalg.solve(A, np.stack((P.T, 1.0 * reach), axis=2)), 2, 0)
    return f.T, np.where(recurrent, tau[states, states], np.inf)


def check_cesaro_machinery(seed: int = 0) -> str:
    """On 20 random chains (n <= 6): the Cesàro limit laws of the point
    starts match the finite time average sum_{k<N} P^k / N, N = 20000 d
    (d the period lcm), within 1e-3, and every entry matches
    pi_ij = f_ij / m_j (Kemeny & Snell 1960; 0 for transient j) from the
    exact first-passage oracle :func:`_hits_and_returns` within 1e-12: 360
    entries in all.  The time average is formed by binary doubling."""
    rng = np.random.default_rng(seed)
    worst_avg = 0.0
    worst_fm = 0.0
    entries = 0
    for i in range(20):
        n = 2 + (i % 5)
        if i % 4 == 3:
            kernel = random_structured_kernel(rng, n)
        else:
            kernel = random_kernel(rng, n)
        # the Cesàro limit laws of the n point starts, row i from state i
        ((_, structure, laws, _, _),) = markov._limit_laws(kernel.probs[None], np.eye(n)[None])
        cesaro = laws[0].mean(axis=1)
        d = structure.period_lcm

        N = 20_000 * d
        average = _power_sum(kernel.probs, N) / N
        worst_avg = max(worst_avg, float(np.abs(average - cesaro).max()))

        f, m = _hits_and_returns(kernel.probs)
        worst_fm = max(worst_fm, float(np.abs(cesaro - f / m).max()))
        entries += cesaro.size
    _require(worst_avg <= 1e-3, f"Cesàro brute-force gap {worst_avg:.3g}")
    _require(worst_fm <= 1e-12, f"pi = f/m gap {worst_fm:.3g}")
    return (f"brute-force gap {_small(worst_avg)}; f/m gap {_small(worst_fm)} "
            f"over {entries} entries")


def check_cascade_subadditivity(seed: int = 0) -> str:
    """50 random binary memoryless channel pairs satisfy cascade
    subadditivity: the cascade's certified upper bound is at most the sum of
    the two attained capacities (up to capacity.SUBADDITIVITY_SLACK).  The
    150 capacities are solved as one stack."""
    rng = np.random.default_rng(seed)
    pairs = [(random_memoryless_environment(rng), random_memoryless_environment(rng))
             for _ in range(50)]
    worst = -math.inf
    for report in capacity._subadditivity_reports(pairs):
        both = report.value_first_nats + report.value_second_nats
        worst = max(worst, report.value_cascade_nats - both)
        excess = report.upper_cascade_nats - both
        verdict = "violated" if report.holds is False else "undecided"
        _require(report.holds, f"{verdict}: cascade upper bound exceeds C1 + C2 by "
                               f"{excess:.3g} nats")
    return f"max C(cascade) - (C1 + C2) = {worst:.3e} nats over 50 pairs"


def check_dsep_soundness(seed: int = 0) -> str:
    """>= 200 sampled d-separated triples across the three templates have
    exact CMI < 1e-9; known-dependent triples exceed 1e-3 (negative controls).

    Seven loops, 40 triples each, from
    :func:`bayesnet.sample_separated_triples`: attempts drawn in blocks with
    the law of single draws, at most ``_ATTEMPTS_PER_TRIPLE`` per triple,
    trails read from the walk memo of each shared template, so the seven
    loops reuse their walks.  Each loop's CMIs read every
    distinct marginal entropy from one sum (see
    :func:`bayesnet.validate_compatibility`): 471 sums for the 1,017 CMI
    terms at seed 0."""
    rng = np.random.default_rng(seed)
    total = 0
    fig5 = load_bundled("fig5")
    golden = load_bundled("golden_mean")

    jobs = []
    for k in range(3):
        jobs.append(("general", loop.PerceptActionLoop(
            random_agent(rng, 2, 2), random_environment(rng, 2, 2))))
    jobs.append(("memoryless_env", loop.PerceptActionLoop(
        random_agent(rng, 2, 2), random_memoryless_environment(rng))))
    jobs.append(("memoryless_env", loop.PerceptActionLoop(
        agents.build_uniform(fig5.alphabet), fig5)))
    jobs.append(("product_env", loop.PerceptActionLoop(
        random_agent(rng, 2, 2), random_environment(rng, 2, 2, action_invariant=True))))
    jobs.append(("product_env", loop.PerceptActionLoop(
        random_agent(rng, 2, 2), golden)))

    for variant, pal in jobs:
        report = bayesnet.validate_compatibility(
            pal, horizon=3, n_triples=40, seed=int(rng.integers(1 << 30)),
            variant=variant)
        _require(report.ok, f"{variant}: {len(report.violations)} CMI violations")
        total += report.n_checked
    _require(total >= 200, f"only {total} separated triples sampled")

    # negative controls: one known-dependent pair per template
    controls = [
        ("general", loop.PerceptActionLoop(agents.build_uniform(fig5.alphabet), fig5),
         ("A0",), ("S0",)),
        ("memoryless_env", loop.PerceptActionLoop(agents.build_uniform(fig5.alphabet), fig5),
         ("A0",), ("S0",)),
        ("product_env", loop.PerceptActionLoop(agents.build_uniform(golden.alphabet), golden),
         ("S0",), ("S1",)),
    ]
    for variant, pal, a, b in controls:
        dag = bayesnet.build_loop_dag(3, variant)
        _require(not bayesnet.d_separated(dag, a, b, ()),
                 f"{variant}: control pair unexpectedly separated")
        joint = loop.trajectory_distribution(pal, 3).joint
        cmi = info.conditional_mutual_information(joint, a, b, (), base="nats")
        _require(cmi > 1e-3, f"{variant}: control CMI only {cmi:.3g}")
    return f"{total} separated triples all below 1e-9; 3 negative controls above 1e-3"


ALL_CHECKS = (
    ("fig5_capacity", check_fig5_capacity),
    ("fig5_mea_work_rate", check_fig5_mea_rate),
    ("identity_and_noiseless", check_identity_and_noiseless),
    ("golden_mean_realizability", check_golden_mean_realizability),
    ("fig5_agent_set_exclusivity", check_fig5_exclusivity),
    ("global_markov_chain", check_global_markov),
    ("cesaro_machinery", check_cesaro_machinery),
    ("cascade_subadditivity", check_cascade_subadditivity),
    ("d_separation_soundness", check_dsep_soundness),
)


def run_check(name: str, func, seed: int = 0) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = func(seed=seed)
        passed = True
    except _Failure as exc:
        detail, passed = str(exc), False
    except WorkcapError as exc:
        detail, passed = f"{type(exc).__name__}: {exc}", False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_check(name, func, seed=seed) for name, func in ALL_CHECKS]
