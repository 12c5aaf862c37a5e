import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from workcap import (AgentModel, ChannelClassError, DimensionError, EnvironmentModel,
                     PerceptActionLoop, build_uniform, capacity_lower_bound, capacity_memoryless,
                     capacity_noiseless, capacity_unifilar_product,
                     check_subadditivity, classify_agent_sets, work_rate)
from workcap.capacity import (_ARMIJO, _CURVATURE, ASCENT_STEPS, BFGS_FTOL, BFGS_GTOL,
                              BFGS_STEPS, DUST, FACE_TOL, NEWTON_FLAT, VERTEX_TOL,
                              _ascent, _bfgs, _gain, _kernels_from_params,
                              _memoryless_bounds, _memoryless_objective,
                              _search_objective, _softmax_rows, _subadditivity_reports,
                              _upper_bound, compute_capacity)
from workcap.channels import dumps_model, is_memoryless_invariant, save_model
from workcap.errors import DomainError
from workcap.info import LN2
from workcap.loop import _pre_percept_chain, _rate_gradients
from workcap.markov import _limit_laws
from workcap.random_models import (random_environment,
                                   random_memoryless_environment)
from workcap.verify import load_bundled

FIG5_CAPACITY_NATS = 0.5 * math.log(0.75 + 2 ** -0.5)
MEMORYLESS_RESTARTS = 8  # random Dirichlet starts of the multistart oracle


def grid_search_oracle(reduced: np.ndarray, points: int = 200_001) -> tuple[float, float]:
    """Independent oracle for binary channels: dense scan of the one-shot
    work term H(A) - H(S) over the action simplex."""
    p0 = np.linspace(0.0, 1.0, points)
    p = np.stack([p0, 1.0 - p0], axis=1)
    q = p @ reduced
    values = (-xlogy(p, p).sum(axis=1)) - (-xlogy(q, q).sum(axis=1))
    best = int(np.argmax(values))
    return float(values[best]), float(p0[best])


def stationarity_bisection(reduced: np.ndarray, lo: float, hi: float,
                           tol: float = 1e-14) -> float | None:
    """Independent cross-check for binary alphabets: bisect the first-order
    stationarity condition of H(A) - H(S) on [lo, hi].  Returns None when the
    derivative does not change sign on the bracket."""
    if reduced.shape != (2, 2):
        raise DomainError("stationarity bisection is for binary alphabets")

    def deriv(p0):
        p = np.array([p0, 1.0 - p0])
        q = p @ reduced
        dq = reduced[0] - reduced[1]
        dHq = float(-(dq * (np.log(np.maximum(q, 1e-300)) + 1.0)).sum())
        dHp = float(math.log((1.0 - p0) / p0))
        return dHp - dHq

    f_lo, f_hi = deriv(lo), deriv(hi)
    if f_lo * f_hi > 0:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if deriv(lo) * deriv(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u * np.arange(1, v.size + 1) > css)[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _ascend(reduced: np.ndarray, p0: np.ndarray, iters: int = 2000) -> np.ndarray:
    """Projected gradient ascent from one start (backtracking step size)."""
    p = p0.copy()
    lr = 0.5
    value = _memoryless_objective(reduced, p)
    for _ in range(iters):
        with np.errstate(divide="ignore"):
            log_q = np.log(np.maximum(p @ reduced, 1e-300))
            log_p = np.log(np.maximum(p, 1e-300))
        grad = -(log_p + 1.0) + reduced @ (log_q + 1.0)
        cand = _project_simplex(p + lr * grad)
        cand_value = _memoryless_objective(reduced, cand)
        if cand_value > value + 1e-16:
            p, value = cand, cand_value
            lr = min(lr * 1.5, 10.0)
        else:
            lr *= 0.5
            if lr < 1e-13:
                break
    return p


def simplex_grid_oracle(reduced: np.ndarray, steps: int) -> float:
    """Best one-shot work term H(A) - H(S) over a grid on the action simplex:
    ``steps + 1`` points for binary alphabets, the ``steps``-step barycentric
    grid for ternary ones."""
    if reduced.shape[0] == 2:
        p0 = np.linspace(0.0, 1.0, steps + 1)
        p = np.stack([p0, 1.0 - p0], axis=1)
    else:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = i + j <= steps
        i, j = i[keep], j[keep]
        p = np.stack([i, j, steps - i - j], axis=1) / steps
    q = p @ reduced
    return float(np.max(-xlogy(p, p).sum(axis=1) + xlogy(q, q).sum(axis=1)))


def scalar_ascent(reduced: np.ndarray, start: np.ndarray, steps: int = ASCENT_STEPS
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ascent on one channel, its Newton step solved by least squares on
    the played block: the oracle for the stacked :func:`_ascent`, which it
    matches move for move."""
    def certain_gain(cand):
        gain, bound = _gain(reduced, p[None], cand[None])
        return float(gain[0]) if gain[0] > max(bound[0], DUST) else 0.0

    def lift(row):
        if (row >= floor).all():
            return row
        row = np.maximum(row, floor)
        return row / row.sum()

    p = start.copy()
    ghost = np.ones(p.size)
    for _ in range(steps):
        played = p > 0
        q = p @ reduced
        c = xlogy(reduced, q).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.log(p)
            g = np.where(played, c - log_p, 0.0)
        mean = g @ p
        floor = np.where(played, np.minimum(p, DUST), 0.0)
        moves = []  # (exact gain, row, whether it empties a block)

        fixed = lift(_softmax_rows(c))
        if _memoryless_objective(reduced, fixed) > _memoryless_objective(reduced, p):
            moves.append((certain_gain(fixed), fixed, False))

        post = np.where(q > 0, p[:, None] * reduced / np.where(q > 0, q, 1.0), 0.0)
        jac = (reduced @ post.T - np.eye(p.size))[np.ix_(played, played)]
        du = np.zeros(p.size)
        du[played] = np.linalg.lstsq(jac, mean - g[played], rcond=NEWTON_FLAT)[0]
        tiny = played & (p < FACE_TOL)
        for direction in (du, np.where(tiny, du, 0.0))[: 1 + tiny.any()]:
            with np.errstate(invalid="ignore"):
                newton = lift(_softmax_rows(np.where(played, log_p + direction, -np.inf)))
            moves.append((certain_gain(newton), newton, False))

        block = np.arange(p.size) == np.argmin(np.where(played, g, np.inf))
        while True:
            grown = played & (reduced[:, reduced[block].sum(axis=0) > 0].sum(axis=1) > 0)
            if (grown == block).all():
                break
            block = grown
        if (block != played).any() and g[block].max() < mean:
            emptied = np.where(block, 0.0, p) / p[~block].sum()
            moves.append((certain_gain(emptied), emptied, True))

        gain, row, empties = max(moves, key=lambda move: move[0], default=(0.0, p, False))
        if gain <= 0:
            return p, np.where(played, p, DUST * ghost), False
        if empties:
            ghost = np.where(block, p / p[block].max(), ghost)
        p = row
    return p, np.where(p > 0, p, DUST * ghost), True


def memoryless_starts(n: int) -> list[np.ndarray]:
    """n + 9 starts for the multistart oracles: uniform, near each vertex,
    MEMORYLESS_RESTARTS Dirichlet draws."""
    rng = np.random.default_rng(0)
    starts = [np.full(n, 1.0 / n)]
    starts += [np.eye(n)[i] * (1 - 1e-6) + 1e-6 / n for i in range(n)]
    return starts + [rng.dirichlet(np.ones(n)) for _ in range(MEMORYLESS_RESTARTS)]


def multistart_rows(reduced: np.ndarray) -> np.ndarray:
    """The last rows of the ascent from each of the n + 9 starts."""
    return np.array([scalar_ascent(reduced, start)[0]
                     for start in memoryless_starts(reduced.shape[0])])


def multistart_oracle(reduced: np.ndarray) -> float:
    """Best value of the ascent over the n + 9 starts."""
    return float(_memoryless_objective(reduced, multistart_rows(reduced)).max())


# action 1 alone emits percept 1, so the objective is linear in p(1) and the
# optimum is on the face p(1) = 0
LINEAR_COORDINATE = np.array([[0.4985281874059936, 0.0, 0.5014718125940064],
                              [0.0, 1.0, 0.0],
                              [0.42425037824447015, 0.0, 0.5757496217555298]])
# the optimum plays action 1 with probability 2.5e-14, so the 1/p(1) term
# of the Hessian in p puts its condition number past 1e13
TINY_ENTRY = np.array([
    [0.9997282841796845, 0.0002717158203155115, 0.0, 0.0],
    [0.00010127899366700252, 0.0, 0.039270100977116924, 0.9606286200292161],
    [9.797257265079788e-07, 0.24953514334328436, 0.7504638769309891, 0.0],
    [1.0, 0.0, 0.0, 0.0]])
# action 0 alone emits percept 2, so it is a block of its own with bound 0
# and the optimum does not play it; on the way an entry passes 1e-20
PRIVATE_ACTION = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0010524524846682014, 0.9989469547614643, 0.0, 5.927538675123242e-07],
    [0.0, 0.0, 0.0, 1.0]])
# actions {0, 1} and {2, 3, 4} share no percept; the second block's bound
# falls below the first's value on the way, and the block is emptied
EMPTIED_BLOCK = np.array([
    [0.0, 0.0, 0.0, 0.6628839236353841, 0.3371160763646159],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.3609934849452368, 0.4067520131665795, 0.23225450188818372, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0]])

# actions 1 and 2 are identical and the optimum plays only them; the others
# end at 1e-17 to 1e-43, where rounding of the large entries' Newton move
# hides what the small ones gain, so they get a Newton step of their own
IDENTICAL_PAIR = np.array([
    [0.012987397710745389, 0.0, 0.0, 0.9870126022892547, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.9837205209858315, 0.016279479014168555, 0.0],
    [0.0, 0.9565819297012444, 0.0, 1.3855294172203712e-18, 0.043418070298755676]])
# nearly equal rows make the objective flat: near the optimum a Newton step
# gains less than the computed value's rounding, and a fixed-point step back
# gains by computed value alone, a cycle that counting exact gains breaks
FLAT_FULL_SUPPORT = np.array([
    [0.490001372481213, 0.22152332600945995, 0.2884753015093269],
    [0.5565099729828591, 0.17309670006782413, 0.27039332694931667],
    [0.42869514426756006, 0.24895322549207533, 0.32235163024036484]])


def memoryless_env(reduced: np.ndarray) -> EnvironmentModel:
    n = reduced.shape[0]
    return EnvironmentModel(tuple(str(i) for i in range(n)), ("z",),
                            reduced[:, None, :, None], np.array([1.0]))


def random_channel(gen: np.random.Generator, n: int, sparse: bool) -> np.ndarray:
    """Dirichlet rows from spiky to flat; a sparse channel has about 40% of
    its entries zeroed, which puts optima on or next to faces."""
    reduced = gen.dirichlet(np.full(n, gen.choice([0.1, 0.5, 1.0, 5.0])), size=n)
    if sparse:
        reduced[gen.random((n, n)) < 0.4] = 0.0
        for row in reduced:
            if row.sum() == 0.0:
                row[gen.integers(n)] = 1.0
        reduced /= reduced.sum(axis=1, keepdims=True)
    return reduced


def sparse_ternary_channel(seed: int) -> np.ndarray:
    """Dirichlet rows with about 40% of the entries zeroed."""
    rng = np.random.default_rng(seed)
    reduced = rng.dirichlet(np.ones(3), size=3)
    reduced[rng.random((3, 3)) < 0.4] = 0.0
    for row in reduced:
        if row.sum() == 0.0:
            row[rng.integers(3)] = 1.0
    return reduced / reduced.sum(axis=1, keepdims=True)


class TestNoiseless:
    def test_binary_identity(self, identity_env):
        result = capacity_noiseless(identity_env)
        assert result.value_nats == 0.0
        rate = work_rate(PerceptActionLoop(result.witness, identity_env),
                         base="nats").rate
        assert abs(rate) < 1e-12

    def test_ternary_identity(self):
        phi = np.zeros((3, 1, 3, 1))
        for a in range(3):
            phi[a, 0, a, 0] = 1.0
        env = EnvironmentModel(("0", "1", "2"), ("z",), phi, np.array([1.0]))
        assert capacity_noiseless(env).value_nats == 0.0

    def test_class_mismatch(self, fig5):
        with pytest.raises(ChannelClassError):
            capacity_noiseless(fig5)


class TestMemoryless:
    def test_fig5_value_and_argmax(self, fig5):
        result = capacity_memoryless(fig5)
        assert abs(result.value_nats - FIG5_CAPACITY_NATS) < 1e-9
        p0 = result.witness_params["action_distribution"][0]
        assert abs(p0 - 2 ** -0.5) < 1e-9
        assert not result.stalled
        assert 0.0 <= result.upper_nats - result.value_nats <= 1e-12

    def test_matches_grid_oracle_on_random_channels(self, rng):
        for _ in range(6):
            env = random_memoryless_environment(rng)
            result = capacity_memoryless(env)
            oracle_value, oracle_p0 = grid_search_oracle(
                is_memoryless_invariant(env))
            assert abs(result.value_nats - oracle_value) < 1e-8

    def test_fully_noisy_channel(self):
        # both actions give a uniform percept: randomizing actions is free,
        # percept noise costs one bit; the optimum is zero at uniform actions
        phi = np.full((2, 1, 2, 1), 0.5)
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        result = capacity_memoryless(env)
        oracle_value, oracle_p0 = grid_search_oracle(is_memoryless_invariant(env))
        assert oracle_value == pytest.approx(0.0, abs=1e-10)
        assert oracle_p0 == pytest.approx(0.5, abs=1e-4)
        assert result.value_nats == pytest.approx(0.0, abs=1e-10)
        assert result.value_nats <= result.upper_nats
        assert result.witness_params["action_distribution"][0] == pytest.approx(
            0.5, abs=1e-4)

    def test_identity_reduced_kernel_gives_zero(self, identity_env):
        result = capacity_memoryless(identity_env)
        assert abs(result.value_nats) < 1e-12
        assert result.value_nats <= result.upper_nats

    def test_bisection_cross_check(self, fig5):
        reduced = is_memoryless_invariant(fig5)
        p0 = stationarity_bisection(reduced, 0.55, 0.95)
        assert p0 == pytest.approx(2 ** -0.5, abs=1e-12)

    # Hard inputs for the ascent: on near-Z channels the fixed-point step
    # alone crawls (the Newton step closes the gap), and the fixed sparse
    # ternary channel has an optimum on a face of the simplex.
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_near_z_channel_reaches_dense_grid(self, eps):
        reduced = np.array([[1.0, 0.0], [eps, 1.0 - eps]])
        result = capacity_memoryless(memoryless_env(reduced))
        oracle = simplex_grid_oracle(reduced, 2_000_000)
        assert oracle - 1e-10 <= result.value_nats <= result.upper_nats

    @pytest.mark.parametrize("reduced", [
        np.array([[0.0, 0.0, 1.0],
                  [0.417719, 0.0, 0.582281],
                  [0.004338, 0.995662, 0.0]]),
        *(sparse_ternary_channel(seed) for seed in range(6)),
    ])
    def test_sparse_ternary_reaches_barycentric_grid(self, reduced):
        result = capacity_memoryless(memoryless_env(reduced))
        oracle = simplex_grid_oracle(reduced, 1000)
        assert oracle - 1e-10 <= result.value_nats <= result.upper_nats

    def test_face_optimum_witness_has_exact_zero(self):
        # the ascent ends with p(2) ~ 2.5e-25 on this channel; the witness
        # plays action 2 with probability exactly 0 at no loss of value
        reduced = np.array([[0.0, 0.0, 1.0],
                            [0.417719, 0.0, 0.582281],
                            [0.004338, 0.995662, 0.0]])
        result = capacity_memoryless(memoryless_env(reduced))
        p = result.witness_params["action_distribution"]
        assert p[2] == 0.0 and p[0] > 0.5
        rows = multistart_rows(reduced)
        assert 0.0 < rows[np.argmax(_memoryless_objective(reduced, rows)), 2] < 1e-12
        best = _memoryless_objective(reduced, rows).max()
        assert result.upper_nats > best
        assert result.value_nats >= best - 1e-15

    def test_flat_channel_stops_unstalled(self):
        # from a start near vertex 2 the ascent crawls on this channel and
        # runs out of steps; the single uniform start stops on its own
        eps = 1e-10
        reduced = np.array([[1.0, 0.0, 0.0], [eps, 1.0 - eps, 0.0], [0.0, eps, 1.0 - eps]])
        result = capacity_memoryless(memoryless_env(reduced))
        assert not result.stalled
        assert multistart_oracle(reduced) - 1e-15 <= result.value_nats <= result.upper_nats

    @pytest.mark.parametrize("reduced", [
        *(np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
          for n in (2, 3, 5) for seed in range(3)),
        np.array([[1.0, 0.0], [1e-4, 1.0 - 1e-4]]),
        np.array([[1.0, 0.0], [1e-6, 1.0 - 1e-6]]),
        np.array([[0.0, 0.0, 1.0],
                  [0.417719, 0.0, 0.582281],
                  [0.004338, 0.995662, 0.0]]),
        0.99 * np.eye(3) + 0.01 / 3,  # near identity
        np.array([[0.6, 0.4, 0.0],  # no action yields percept 2
                  [0.1, 0.9, 0.0],
                  [0.5, 0.5, 0.0]]),
        np.array([[0.2, 0.5, 0.3],  # two actions with the same percept law
                  [0.2, 0.5, 0.3],
                  [0.7, 0.1, 0.2]]),
        np.eye(3),  # the objective is 0 for every p
        # the tangent Hessian passes the definiteness test by a rounding
        # step at one point, and an LU solve meets an exact zero pivot there
        np.array([[0.0, 0.6413027290225687, 0.0, 0.35869727097743137],
                  [0.41014311490486727, 0.147266343118668, 0.0, 0.4425905419764647],
                  [0.0, 0.28963748507763587, 0.0, 0.7103625149223641],
                  [0.0, 0.0, 1.0, 0.0]]),
        # the first Newton step from uniform underflows three entries to 0,
        # a face the fixed-point step never leaves; the optimum is interior
        np.array([[0.6127530362542185, 0.0, 0.2569854847948309, 0.0, 0.13026147895095055],
                  [0.00027476182865979, 0.9994665448836431, 0.0, 0.00025869328769717, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0],
                  [0.05738445280883171, 0.0, 0.9426048061630513, 6.92640980802e-06,
                   3.81461830874e-06],
                  [1.0018e-13, 0.9999999999998996, 0.0, 0.0, 0.0]]),
        LINEAR_COORDINATE,
        TINY_ENTRY,
        PRIVATE_ACTION,
        EMPTIED_BLOCK,
        IDENTICAL_PAIR,
        FLAT_FULL_SUPPORT,
    ])
    def test_batched_ascent_matches_scalar_oracle(self, reduced):
        # the scalar projected ascent from each of the n + 9 starts (uniform,
        # near each vertex, MEMORYLESS_RESTARTS Dirichlet draws), and the
        # ascent itself from those starts
        oracle = max(_memoryless_objective(reduced, _ascend(reduced, p0))
                     for p0 in memoryless_starts(reduced.shape[0]))
        result = capacity_memoryless(memoryless_env(reduced))
        assert oracle - 1e-12 <= result.value_nats <= result.upper_nats
        assert multistart_oracle(reduced) - 1e-15 <= result.value_nats
        assert not result.stalled
        assert result.upper_nats - result.value_nats <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_near_z_witness_is_stationary(self, eps):
        reduced = np.array([[1.0, 0.0], [eps, 1.0 - eps]])
        result = capacity_memoryless(memoryless_env(reduced))
        p0 = result.witness_params["action_distribution"][0]
        assert abs(p0 - stationarity_bisection(reduced, 0.01, 0.99)) < 1e-8

    def test_stalled_only_when_step_cap_runs_out(self, fig5, monkeypatch):
        import workcap.capacity as capacity_mod
        monkeypatch.setattr(capacity_mod, "ASCENT_STEPS", 1)
        result = capacity_memoryless(fig5)
        assert result.stalled
        # one step falls short, and the certificate still covers the capacity
        assert result.value_nats < FIG5_CAPACITY_NATS <= result.upper_nats

    def test_witness_rate_equals_value(self, fig5, flip_noise):
        for env in (fig5, flip_noise):
            result = capacity_memoryless(env)
            rate = work_rate(PerceptActionLoop(result.witness, env),
                             base="nats").rate
            assert abs(rate - result.value_nats) < 1e-9
            assert result.value_nats <= result.upper_nats

    def test_upper_bound_certifies_random_channels(self):
        # every third channel is sparse
        gen = np.random.default_rng(2024)
        for k in range(300):
            n = 2 + k % 5
            reduced = random_channel(gen, n, sparse=k % 3 == 0)
            result = capacity_memoryless(memoryless_env(reduced))
            assert result.value_nats <= result.upper_nats <= math.log(n), reduced
            if (reduced > 0).all():
                assert result.upper_nats - result.value_nats <= 1e-12, reduced
                assert not result.stalled, reduced


def mixed_stack(n: int, count: int = 24) -> np.ndarray:
    """The hard channels of size ``n`` above and ``count`` random ones (every
    third sparse), so the members stop at different steps."""
    gen = np.random.default_rng(n)
    hard = [reduced for reduced in (LINEAR_COORDINATE, TINY_ENTRY, PRIVATE_ACTION,
                                    EMPTIED_BLOCK, IDENTICAL_PAIR, FLAT_FULL_SUPPORT)
            if reduced.shape[0] == n]
    return np.stack(hard + [random_channel(gen, n, sparse=k % 3 == 0) for k in range(count)])


def uniform_starts(stack: np.ndarray) -> np.ndarray:
    return np.full(stack.shape[:2], 1.0 / stack.shape[1])


def mixed_sizes() -> list[np.ndarray]:
    """The stacks of sizes 3, 4 and 5, interleaved."""
    stacks = [list(mixed_stack(n, count=6)) for n in (3, 4, 5)]
    return [reduced for group in zip(*stacks) for reduced in group]


class TestStackedAscent:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_member_equals_stack_of_one(self, n):
        stack = mixed_stack(n)
        start = uniform_starts(stack)
        rows, weights, stalled = _ascent(stack, start)
        for k in range(len(stack)):
            alone = _ascent(stack[k:k + 1], start[k:k + 1])
            assert (alone[0][0] == rows[k]).all() and (alone[1][0] == weights[k]).all()
            assert alone[2][0] == stalled[k]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_members_match_scalar_oracle(self, n):
        stack = mixed_stack(n)
        start = uniform_starts(stack)
        rows, weights, stalled = _ascent(stack, start)
        values = _memoryless_objective(stack, rows)
        for k, reduced in enumerate(stack):
            last, oracle_weights, oracle_stalled = scalar_ascent(reduced, start[k])
            assert abs(values[k] - _memoryless_objective(reduced, last)) <= 1e-15
            assert stalled[k] == oracle_stalled
            bound = _upper_bound(reduced, weights[k])
            assert abs(bound - _upper_bound(reduced, oracle_weights)) <= 1e-12

    def test_members_stop_at_different_steps(self):
        # with a cap of 5 steps some members have stopped and some still
        # move; each gets the flag and the row it gets from the oracle
        stack = mixed_stack(4)
        start = uniform_starts(stack)
        import workcap.capacity as capacity_mod
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capacity_mod, "ASCENT_STEPS", 5)
            rows, _, stalled = _ascent(stack, start)
        assert stalled.any() and not stalled.all()
        for k, reduced in enumerate(stack):
            last, _, oracle_stalled = scalar_ascent(reduced, start[k], steps=5)
            assert stalled[k] == oracle_stalled
            assert np.abs(rows[k] - last).max() <= 1e-12

    def test_forms_group_sizes_and_equal_solo_results(self):
        # the stacked bounds of channels of mixed sizes are each channel's
        # capacity_memoryless bit for bit
        channels = mixed_sizes()
        for reduced, (best, value, upper, stalled) in zip(channels,
                                                          _memoryless_bounds(channels)):
            alone = capacity_memoryless(memoryless_env(reduced))
            assert value == alone.value_nats
            assert upper == alone.upper_nats
            assert stalled == alone.stalled
            assert alone.witness_params == {"action_distribution": tuple(best.tolist())}
            assert value <= upper <= math.log(reduced.shape[0])

    def test_one_step_stalls_every_member_and_certifies(self, monkeypatch):
        import workcap.capacity as capacity_mod
        channels = mixed_sizes()
        full = _memoryless_bounds(channels)
        monkeypatch.setattr(capacity_mod, "ASCENT_STEPS", 1)
        for (_, value, _, _), (_, short, upper, stalled) in zip(full,
                                                                _memoryless_bounds(channels)):
            assert stalled
            assert short <= value <= upper

    def test_subadditivity_reports_equal_pairwise_checks(self, rng):
        pairs = [(random_memoryless_environment(rng), random_memoryless_environment(rng))
                 for _ in range(12)]
        assert _subadditivity_reports(pairs) == [check_subadditivity(*pair)
                                                 for pair in pairs]


class TestUnifilarProduct:
    def test_iid_uniform_source_zero(self):
        phi = np.zeros((2, 1, 2, 1))
        phi[:, 0, :, 0] = 0.5
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        assert abs(capacity_unifilar_product(env).value_bits) < 1e-12

    def test_deterministic_source_one_bit(self):
        phi = np.zeros((2, 1, 2, 1))
        phi[:, 0, 0, 0] = 1.0
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        assert capacity_unifilar_product(env).value_bits == pytest.approx(
            1.0, abs=1e-12)

    def test_golden_mean_one_third(self, golden_mean):
        result = capacity_unifilar_product(golden_mean)
        assert abs(result.value_bits - 1.0 / 3.0) < 1e-5
        rate = work_rate(PerceptActionLoop(result.witness, golden_mean)).rate
        assert abs(rate - result.value_bits) < 1e-5

    def test_class_mismatch(self, fig5):
        with pytest.raises(ChannelClassError):
            capacity_unifilar_product(fig5)

    def test_delayed_echo_gets_no_closed_form(self, delayed_echo):
        # unifilar, and its first four percepts ignore the actions, but the
        # echo from round 4 on makes it not product
        env = delayed_echo(4)
        with pytest.raises(ChannelClassError):
            capacity_unifilar_product(env)
        result = compute_capacity(env, memory_size=1, restarts=2)
        assert result.method == "numeric_lower_bound"
        assert not result.exact


def scalar_bfgs(objective, start: np.ndarray):
    """One run of weak-Wolfe BFGS written plainly, one point per call: the
    oracle for the stacked :func:`_bfgs`, whose runs it matches bit for
    bit.  Returns the last point, its value, the steps taken, whether the
    step cap ran out, and a log of each trial's verdict ("accept", "long"
    when it fails the Armijo condition, "short" when it fails the
    curvature one) followed by the reason the run stopped."""
    def evaluate(point):
        f, g = objective(point[None])
        return float(f[0]), g[0]

    x = np.array(start, dtype=float)
    f, g = evaluate(x)
    if np.abs(g).max() <= BFGS_GTOL:
        return x, f, 0, False, ["stationary"]
    H, fresh, log, k = np.eye(len(x)), True, [], 0
    d, slope = g, (g * g).sum()
    t, lo, hi = 1.0 / math.sqrt(slope), 0.0, math.inf
    while True:
        trial = x + t * d
        f_t, g_t = evaluate(trial)
        if f_t < f + _ARMIJO * t * slope:
            log.append("long")
            hi = t
        elif (g_t * d).sum() > _CURVATURE * slope:
            log.append("short")
            lo = t
        else:
            log.append("accept")
            s, y = trial - x, g - g_t
            small = f_t - f <= BFGS_FTOL * max(1.0, abs(f), abs(f_t))
            x, f, g, k = trial, f_t, g_t, k + 1
            sy = (s * y).sum()
            if sy > 0:
                if fresh:
                    H, fresh = H * (sy / (y * y).sum()), False
                rho = 1.0 / sy
                h = H @ y
                w = rho * (1.0 + rho * (y * h).sum()) * s - rho * h
                H = H + np.stack([s, -rho * h], axis=1) @ np.stack([w, s])
            if small or np.abs(g).max() <= BFGS_GTOL:
                return x, f, k, False, log + ["ftol" if small else "gtol"]
            if k >= BFGS_STEPS:
                return x, f, k, True, log + ["steps"]
            d = H @ g
            slope = (g * d).sum()
            t, lo, hi = 1.0, 0.0, math.inf
            continue
        if hi == math.inf:
            t = 2 * t
        elif (hi - lo) * slope <= BFGS_FTOL * max(1.0, abs(f)):
            return x, f, k, False, log + ["bracket"]
        else:
            t = (lo + hi) / 2


def assert_runs_match_scalar_bfgs(objective, starts: np.ndarray) -> list[list[str]]:
    """Each run of one stacked :func:`_bfgs` call equals
    :func:`scalar_bfgs` from its start, bit for bit, and the stack makes
    one call per step of its longest run; returns the runs' logs."""
    calls = []

    def counted(points):
        calls.append(len(points))
        return objective(points)

    lasts, values, steps, stalled = _bfgs(counted, starts)
    logs = []
    for r, start in enumerate(starts):
        x, f, k, cap, log = scalar_bfgs(objective, start)
        assert np.array_equal(lasts[r], x)
        assert values[r] == f and steps[r] == k and stalled[r] == cap
        logs.append(log)
    assert len(calls) == 1 + max(len(log) - 1 for log in logs)
    return logs


def central_differences(env: EnvironmentModel, x: np.ndarray, memory_size: int) -> np.ndarray:
    """Oracle: the central-difference gradient of the work rate at the
    coordinates ``x`` (step 6e-6 max(1, |x_i|)), from exact rates."""
    step = np.diag(6e-6 * np.maximum(1.0, np.abs(x)))
    values = _rate_gradients(env, *_kernels_from_params(
        np.concatenate([x + step, x - step]), len(env.alphabet), memory_size))[0]
    return (values[:len(x)] - values[len(x):]) / (2 * step.diagonal())


def assert_vertices_at_argmax(x: np.ndarray, n_a: int, n_m: int) -> None:
    """Oracle: :func:`_kernels_from_params` of ``x`` is bit for bit the
    kernels whose vertex rows put their 1 at the row's argmax, each row's
    largest entry read by ``take_along_axis``."""
    rows = n_a * n_m
    probs = _softmax_rows(x.reshape(len(x), rows + 1, rows))
    top = probs.argmax(axis=-1)[..., None]
    vertex = np.take_along_axis(probs, top, axis=-1) >= 1.0 - VERTEX_TOL
    probs = np.where(vertex, np.arange(rows) == top, probs)
    theta, init = _kernels_from_params(x, n_a, n_m)
    assert np.array_equal(theta, probs[:, :rows].reshape(-1, n_a, n_m, n_a, n_m))
    assert np.array_equal(init, probs[:, rows].reshape(-1, n_a, n_m))


def periodic_env() -> EnvironmentModel:
    """The hidden state alternates whatever the agent does, so every
    agent's pre-percept chain has period 2; the percept is 0 with
    probability 0.9 in state 0, whatever the action, and echoes the action
    with probability 0.8 in state 1."""
    phi = np.zeros((2, 2, 2, 2))
    for a in range(2):
        phi[a, 0, :, 1] = 0.9, 0.1
        phi[a, 1, a, 0], phi[a, 1, 1 - a, 0] = 0.8, 0.2
    return EnvironmentModel(("0", "1"), ("z0", "z1"), phi, np.array([1.0, 0.0]))


def reducible_env() -> EnvironmentModel:
    """Two hidden states that never change, each started with probability
    1/2, so every agent's pre-percept chain has two closed classes; the
    percepts are those of :func:`periodic_env` in the same states."""
    phi = periodic_env().phi[:, :, :, ::-1].copy()
    return EnvironmentModel(("0", "1"), ("z0", "z1"), phi, np.array([0.5, 0.5]))


def cycles_env() -> EnvironmentModel:
    """A start state that enters a hidden cycle of length 2 or of length 3,
    whatever the action, so every agent's pre-percept chain has two closed
    classes and period lcm 6; the percepts are seeded random draws that
    depend on the action and the hidden state."""
    gen = np.random.default_rng(11)
    move = np.zeros((6, 6))
    move[0, [1, 3]] = gen.dirichlet(np.ones(2))
    move[1, 2] = move[2, 1] = move[3, 4] = move[4, 5] = move[5, 3] = 1.0
    emit = gen.dirichlet(np.ones(2), size=(2, 6))  # [a, z, s]
    return EnvironmentModel(("0", "1"), tuple(f"z{z}" for z in range(6)),
                            emit[..., None] * move[None, :, None, :], np.eye(6)[0])


def choice_env() -> EnvironmentModel:
    """Hidden state 0 is transient, and action a moves it to the absorbing
    state a + 1, which has its own percept law, so the opening action picks
    the closed class the chain ends in."""
    phi = np.zeros((2, 3, 2, 3))
    for a in range(2):
        phi[a, 0, :, a + 1] = 0.5
        phi[a, 1, :, 1] = (0.9, 0.1) if a == 0 else (0.3, 0.7)
        phi[a, 2, :, 2] = (0.2, 0.8) if a == 0 else (0.6, 0.4)
    return EnvironmentModel(("0", "1"), ("z0", "z1", "z2"), phi, np.eye(3)[0])


def late_choice_env() -> EnvironmentModel:
    """Hidden state 0 moves to the transient state 1 whatever the action,
    and action b moves state 1 to the absorbing state b + 2, so the agent's
    kernel, not only its opening joint, sets the odds of each closed
    class."""
    phi = np.zeros((2, 4, 2, 4))
    for a in range(2):
        phi[a, 0, :, 1] = 0.7, 0.3
        phi[a, 1, :, a + 2] = (0.4, 0.6) if a == 0 else (0.8, 0.2)
        phi[a, 2, :, 2] = (0.9, 0.1) if a == 0 else (0.3, 0.7)
        phi[a, 3, :, 3] = (0.2, 0.8) if a == 0 else (0.6, 0.4)
    return EnvironmentModel(("0", "1"), ("z0", "z1", "z2", "z3"), phi, np.eye(4)[0])


class TestLowerBound:
    def test_fig5_recovers_memoryless_optimum(self, fig5):
        result = capacity_lower_bound(fig5, memory_size=1, restarts=32, seed=0)
        assert result.value_nats / LN2 >= 0.2715 - 1e-3
        assert result.value_nats <= FIG5_CAPACITY_NATS + 1e-9  # it is a lower bound
        assert not result.exact
        assert len(result.optimizer_trace) == 32

    def test_noiseless_stays_at_zero(self, identity_env):
        result = capacity_lower_bound(identity_env, memory_size=2, restarts=8, seed=0)
        assert result.value_nats / LN2 <= 1e-6

    def test_golden_mean_reaches_closed_form(self, golden_mean):
        result = capacity_lower_bound(golden_mean, memory_size=2, restarts=12, seed=0)
        assert result.value_nats / LN2 >= 1.0 / 3.0 - 1e-2

    def test_monotone_in_memory_size(self, rng):
        # warm-starting each size from the previous witness makes the bound
        # nondecreasing by construction; the sweep checks it end to end
        for _ in range(5):
            env = random_environment(rng, 2, 2)
            values, witness = [], None
            for m in (1, 2, 3):
                warm = (witness,) if witness is not None else ()
                result = capacity_lower_bound(env, memory_size=m, restarts=3,
                                              seed=3, warm_starts=warm)
                values.append(result.value_nats)
                witness = result.witness
            assert values[0] <= values[1] + 1e-12
            assert values[1] <= values[2] + 1e-12

    def test_witness_rate_matches_value(self, fig5):
        result = capacity_lower_bound(fig5, memory_size=1, restarts=8, seed=1)
        rate = work_rate(PerceptActionLoop(result.witness, fig5), base="nats").rate
        assert abs(rate - result.value_nats) < 1e-9

    def test_value_is_best_restart_value(self, fig5):
        # the value is the search's best value and the witness the agent the
        # objective evaluated there, whether or not its rows reach a vertex:
        # none do on fig5, some do with memory on the random channel
        env = random_environment(np.random.default_rng(0), 2, 2)
        for channel, memory_size, restarts in ((fig5, 1, 8), (env, 2, 32)):
            result = capacity_lower_bound(channel, memory_size=memory_size,
                                          restarts=restarts, seed=0)
            assert result.value_nats == max(value for _, value in result.optimizer_trace)
            rate = work_rate(PerceptActionLoop(result.witness, channel), base="nats").rate
            assert rate == result.value_nats
            rows = np.concatenate([result.witness.theta.reshape(-1, 2 * memory_size),
                                   result.witness.initial_joint.reshape(1, -1)])
            vertex = rows.max(axis=1) >= 1.0 - VERTEX_TOL
            assert np.isin(rows[vertex], (0.0, 1.0)).all()
            assert vertex.any() == (channel is env)

    def test_cli_defaults_keep_their_value_on_the_ci_channel(self):
        # the value of the CLI-default search (memory 2, 32 restarts, seed 0)
        # before the search kept a dense inverse curvature per run
        result = compute_capacity(random_environment(np.random.default_rng(0), 2, 2))
        assert result.method == "numeric_lower_bound"
        assert result.value_nats >= 0.10762852813856494 - 1e-10

    @pytest.mark.parametrize("alphabet", [("0", "1", "2"), ("p", "q")],
                             ids=["three_symbols", "other_labels"])
    def test_rejects_warm_start_on_another_alphabet(self, fig5, alphabet):
        with pytest.raises(DimensionError, match="alphabet"):
            capacity_lower_bound(fig5, memory_size=1, restarts=2,
                                 warm_starts=(build_uniform(alphabet),))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_non_positive_restarts(self, fig5, restarts):
        with pytest.raises(DomainError, match="restarts"):
            capacity_lower_bound(fig5, memory_size=1, restarts=restarts)

    def test_structure_computed_once_per_support_pattern(self, rng, monkeypatch):
        # softmax kernels are positive, so the search's many engine calls
        # share a few support patterns; each pattern is analysed once
        import workcap.loop as loop_mod
        from workcap import markov
        patterns, points = [], []
        classify, chain = markov._classify, loop_mod._pre_percept_chain

        def spy_classify(support):
            patterns.append((support.shape, np.packbits(support).tobytes()))
            return classify(support)

        def spy_chain(env, theta, init):
            points.append(len(theta))
            return chain(env, theta, init)
        monkeypatch.setattr(markov, "_classify", spy_classify)
        monkeypatch.setattr(loop_mod, "_pre_percept_chain", spy_chain)
        markov._memo_structure.cache_clear()
        capacity_lower_bound(random_environment(rng, 2, 2), memory_size=1,
                             restarts=3, seed=0)
        assert len(points) > 30 and sum(points) > 60
        assert 0 < len(patterns) == len(set(patterns)) <= 10

    def test_reachability_searched_once_per_pattern(self, rng, monkeypatch):
        # the states reached from the start pattern are part of the
        # structure memo, so the search's points share one breadth-first
        # search per (support, start) pattern instead of running one each
        import workcap.loop as loop_mod
        from workcap import markov
        searches, points = [], []
        bfs, chain = markov.bfs_levels, loop_mod._pre_percept_chain

        def spy_bfs(start, support):
            searches.append((support.shape, np.packbits(support).tobytes(),
                             np.packbits(start).tobytes()))
            return bfs(start, support)

        def spy_chain(env, theta, init):
            points.append(len(theta))
            return chain(env, theta, init)
        monkeypatch.setattr(markov, "bfs_levels", spy_bfs)
        monkeypatch.setattr(loop_mod, "bfs_levels", spy_bfs)
        monkeypatch.setattr(loop_mod, "_pre_percept_chain", spy_chain)
        markov._memo_structure.cache_clear()
        capacity_lower_bound(random_environment(rng, 2, 2), memory_size=1,
                             restarts=3, seed=0)
        assert len(points) > 30 and sum(points) > 60
        assert 0 < len(searches) == len(set(searches)) <= 20

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the numeric search has its own BFGS, and numpy is the only runtime
        # dependency, so no path imports scipy.optimize or any other scipy
        # module: not the imports, a capacity search nor a work rate on a
        # 72-state pre-percept chain, which GTH censors in blocks
        import workcap
        code = ("import sys, numpy as np, workcap, workcap.cli, workcap.verify; "
                "from workcap import markov; "
                "from workcap.random_models import random_agent, random_environment; "
                "rng = np.random.default_rng(0); "
                "workcap.capacity_lower_bound(random_environment(rng, 2, 2), "
                "memory_size=1, restarts=2); "
                "inverses = markov._triangular_inverses; blocks = []; "
                "markov._triangular_inverses = lambda T: blocks.append(1) or inverses(T); "
                "workcap.work_rate(workcap.PerceptActionLoop(random_agent(rng, 2, 4), "
                "random_environment(rng, 2, 9))); "
                "print(len(blocks) > 0, "
                "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(workcap.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout.strip() == "True []"

    @pytest.mark.parametrize("n_z", [2, 3])
    @pytest.mark.parametrize("memory_size", [1, 2, 3])
    def test_adjoint_matches_central_differences(self, memory_size, n_z):
        gen = np.random.default_rng(10 * memory_size + n_z)
        env = random_environment(gen, 2, n_z)
        objective = _search_objective(env, memory_size)
        rows = 2 * memory_size
        points = gen.normal(scale=1.5, size=(3, rows * rows + rows))
        values, slopes = objective(points)
        assert values.tolist() == _rate_gradients(
            env, *_kernels_from_params(points, 2, memory_size))[0].tolist()
        for x, slope in zip(points, slopes):
            oracle = central_differences(env, x, memory_size)
            assert np.abs(slope - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_adjoint_at_underflowed_rows(self, rng):
        # row 0 of the kernel is a vertex and no row reaches (action 1,
        # memory 1), whose entries underflow to 0: those states are never
        # reached, so marginals p(m, a) are 0 and enter as 0 log 0 = 0
        env = random_environment(rng, 2, 3)
        x = rng.normal(scale=1.5, size=20)
        x[1:4] = -1000.0
        x[3:16:4] = -1000.0
        x[19] = -1000.0
        theta, init = _kernels_from_params(x[None], 2, 2)
        assert_vertices_at_argmax(x[None], 2, 2)
        assert theta[0, 0, 0].ravel().tolist() == [1.0, 0.0, 0.0, 0.0]
        assert (theta[0, :, :, 1, 1] == 0.0).all() and init[0, 1, 1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (d_theta, _) = _rate_gradients(env, theta, init)
            _, (slope,) = _search_objective(env, 2)(x[None])
        assert d_theta.any() and np.isfinite(slope).all()
        oracle = central_differences(env, x, 2)
        assert np.abs(slope - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_singular_deviation_solve_falls_back_alone(self, rng):
        # memory kept with probability 1 - 4e-18 on a channel that echoes
        # the action with probability 0.75: the chain is one closed class,
        # but I - K + 1π is singular in floating point, so that member gets
        # a zero slope, which ends its run, and the others keep, bit for
        # bit, the rates and gradients they get alone
        phi = np.array([[0.75, 0.25], [0.25, 0.75]])[:, None, :, None]
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.ones(1))
        logits = np.zeros((2, 2, 2, 2))  # [s, m, b, n]
        for m in range(2):
            logits[:, m, :, 1 - m] = -40.0
        sticky = np.concatenate([logits.ravel(), np.zeros(4)])
        points = np.stack([rng.normal(size=20), sticky, rng.normal(size=20)])
        rates, grads = _rate_gradients(env, *_kernels_from_params(points, 2, 2))
        assert not grads[0][1].any() and not grads[1][1].any()
        for k in (0, 2):
            alone = _rate_gradients(env, *_kernels_from_params(points[k:k + 1], 2, 2))
            assert rates[k] == alone[0][0] and grads[0][k].any()
            for got, want in zip(grads, alone[1]):
                assert np.array_equal(got[k], want[0])
        values, slopes = _search_objective(env, 2)(points)
        assert not slopes[1].any() and np.isfinite(slopes).all()
        assert np.array_equal(slopes[1], _search_objective(env, 2)(points[1:2])[1][0])
        _, _, steps, _ = _bfgs(_search_objective(env, 2), points[1:2])
        assert steps.tolist() == [0]

    def test_vertex_rows_are_evaluated_at_their_vertex(self, rng):
        # a kernel row and the opening row past 1 - VERTEX_TOL: the objective
        # reads the agent with both at their vertices, so its value is that
        # agent's work rate and those rows' slopes are exactly 0
        env = random_environment(rng, 2, 2)
        x = rng.normal(size=20)
        x[4:8] = 0.0, 0.0, 15.0, 0.0  # the largest entry is 1 - 9.2e-7
        x[16:20] = 15.0, 0.0, 0.0, 0.0
        probs = _softmax_rows(x.reshape(5, 4))
        assert 1.0 - VERTEX_TOL <= probs[[1, 4]].max(axis=1).min() < 1.0
        probs[1], probs[4] = np.eye(4)[2], np.eye(4)[0]
        agent = AgentModel(env.alphabet, ("m0", "m1"), probs[:4].reshape(2, 2, 2, 2),
                           probs[4].reshape(2, 2))
        assert_vertices_at_argmax(x[None], 2, 2)
        (value,), (slope,) = _search_objective(env, 2)(x[None])
        assert value == work_rate(PerceptActionLoop(agent, env), base="nats").rate
        assert not slope[4:8].any() and not slope[16:].any()
        assert np.delete(slope, np.r_[4:8, 16:20]).all()

    def test_one_limit_solve_per_structure(self, rng, call_counts):
        # a vertex row gives its member another support pattern but keeps
        # the chain one aperiodic class on every state: the stack solves its
        # limit laws once, and each member gets the results it gets alone
        phi = np.zeros((2, 1, 2, 1))
        phi[0, 0, :, 0] = 1.0, 0.0  # action 0 is echoed
        phi[1, 0, :, 0] = 0.3, 0.7
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.ones(1))
        theta, init = _kernels_from_params(rng.normal(scale=1.5, size=(1, 20)), 2, 2)
        snapped = theta.copy()
        snapped[0, 0, 0] = np.eye(4)[3].reshape(2, 2)  # percept 0 in memory 0: action 1, memory 1
        theta, init = np.concatenate([theta, snapped]), np.concatenate([init, init])
        K, p0 = _pre_percept_chain(env, theta, init)
        assert not np.array_equal(K[0] > 0.0, K[1] > 0.0)
        assert len(_limit_laws(K, p0[:, None])) == 1
        calls = call_counts("markov._power_limit")
        rates, grads = _rate_gradients(env, theta, init)
        assert calls == {"_power_limit": 1}
        for k in range(2):
            alone = _rate_gradients(env, theta[k:k + 1], init[k:k + 1])
            assert rates[k] == alone[0][0]
            for got, want in zip(grads, alone[1]):
                assert np.array_equal(got[k], want[0])

    @pytest.mark.parametrize("make, memory_size", [(None, 2), (periodic_env, 1)])
    def test_restart_in_stack_equals_run_alone(self, rng, make, memory_size):
        env = random_environment(rng, 2, 2) if make is None else make()
        rows = 2 * memory_size
        starts = rng.normal(scale=1.5, size=(4, rows * rows + rows))
        objective = _search_objective(env, memory_size)
        stacked = _bfgs(objective, starts)
        assert len(set(stacked[2].tolist())) > 1  # the runs leave the stack at different times
        for r in range(len(starts)):
            alone = _bfgs(objective, starts[r:r + 1])
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[r:r + 1], want)

    @pytest.mark.parametrize("memory_size", [1, 2])
    @pytest.mark.parametrize("make", [None, periodic_env, reducible_env])
    def test_one_rate_per_agent(self, rng, make, memory_size):
        # random softmax agents (unichain on a random channel) and, at
        # memory 2, an agent whose memory flips every round (period 2) and
        # one whose memory never changes (a closed class per memory state):
        # the stacked rates, the gradient path's rates and each agent's
        # work_rate are one number
        env = random_environment(rng, 2, 3) if make is None else make()
        rows = 2 * memory_size
        theta, init = _kernels_from_params(rng.normal(scale=1.5, size=(4, rows * rows + rows)),
                                           2, memory_size)
        flip, stay = np.zeros((2, memory_size, 2, memory_size)), np.zeros_like(theta[0])
        for m in range(memory_size):
            flip[:, m, :, (m + 1) % memory_size] = stay[:, m, :, m] = 0.5
        theta = np.concatenate([theta, [flip, stay]])
        init = np.concatenate([init, np.full((2, 2, memory_size), 0.5 / memory_size)])
        rates, grads = _rate_gradients(env, theta, init)
        assert all(np.isfinite(g).all() for g in grads)
        assert rates.tolist() == [_rate_gradients(env, theta[k:k + 1], init[k:k + 1])[0][0]
                                  for k in range(len(theta))]
        memory = tuple(f"m{i}" for i in range(memory_size))
        for k in range(len(theta)):
            agent = AgentModel(env.alphabet, memory, theta[k], init[k])
            assert work_rate(PerceptActionLoop(agent, env), base="nats").rate == rates[k]

    @pytest.mark.parametrize("memory_size", [1, 2])
    @pytest.mark.parametrize("make", [periodic_env, reducible_env, cycles_env, choice_env,
                                      late_choice_env])
    def test_gradient_on_every_structure(self, rng, call_counts, make, memory_size):
        # one reverse-mode formula, in one engine call, gives every chain
        # structure its exact gradient, in the kernels and in the opening
        # joint: a period-2 class, two closed classes, classes of period 2
        # and 3 fed by a transient state, classes the opening action picks,
        # and classes the kernel's later action picks (the term through
        # u M^-1 dQ L)
        env = make()
        rows = 2 * memory_size
        points = rng.normal(scale=1.5, size=(3, rows * rows + rows))
        calls = call_counts("markov._limit_laws")
        values, slopes = _search_objective(env, memory_size)(points)
        assert calls == {"_limit_laws": 1}
        assert values.tolist() == _rate_gradients(
            env, *_kernels_from_params(points, 2, memory_size))[0].tolist()
        for x, slope in zip(points, slopes):
            oracle = central_differences(env, x, memory_size)
            scale = np.abs(oracle).max()
            for part in (slice(None, rows * rows), slice(rows * rows, None)):
                assert np.abs(slope[part] - oracle[part]).max() <= 1e-6 * scale
            if make is choice_env:
                assert np.abs(slope[rows * rows:]).max() >= 1e-3 * scale
        if memory_size == 1:
            result = capacity_lower_bound(env, memory_size=1, restarts=2, seed=0)
            rate = work_rate(PerceptActionLoop(result.witness, env), base="nats").rate
            assert rate == result.value_nats > 0.0

    def test_bfgs_reaches_the_maximizer_of_concave_quadratics(self):
        # f = -(x - c) A (x - c) / 2, A's eigenvalues 1e-6 to 3.2e-5: flat
        # enough that each step up to the maximizer gains more than
        # BFGS_FTOL, so every run stops on BFGS_GTOL.  The step counts were
        # measured; dropping the eq. 6.20 scaling, the update's ρ² term or
        # the update of H before each direction changes them
        gen = np.random.default_rng(2)
        Q, _ = np.linalg.qr(gen.normal(size=(6, 6)))
        A = (Q * np.geomspace(1e-6, 3.2e-5, 6)) @ Q.T
        c = gen.normal(scale=100.0, size=6)

        def objective(points):
            r = points - c
            return -0.5 * np.einsum("ki,ij,kj->k", r, A, r), -r @ A

        starts = c + gen.normal(scale=100.0, size=(4, 6))
        lasts, values, steps, stalled = _bfgs(objective, starts)
        assert steps.tolist() == [21, 23, 22, 21] and not stalled.any()
        assert np.abs(objective(lasts)[1]).max() <= BFGS_GTOL
        assert np.abs(lasts - c).max() <= 1e-3 and values.min() >= -1e-12

    def test_bfgs_line_search_branches_match_scalar_oracle(self):
        # on f = -(x - c) A (x - c) / 2 the first trial goes a distance 1
        # along the gradient: from 5 away along A's first axis it is
        # accepted, from 20 away it is too short (t doubles), from 0.3 away
        # too long (t is bisected), all in the stack's second call; a run
        # from c is stationary and takes no step
        A, c = np.diag([1.0, 3.0]), np.array([0.5, -1.25])

        def objective(points):
            r = points - c
            return -0.5 * np.einsum("ki,ij,kj->k", r, A, r), -r @ A

        starts = c + np.array([[5.0, 0.0], [20.0, 0.0], [0.3, 0.0], [0.0, 0.0],
                               [-2.0, 7.0], [0.1, -0.2]])
        logs = assert_runs_match_scalar_bfgs(objective, starts)
        assert [log[0] for log in logs[:4]] == ["accept", "short", "long", "stationary"]
        assert {log[-1] for log in logs} == {"gtol", "ftol", "stationary"}

    def test_bfgs_bracket_width_stop_matches_scalar_oracle(self):
        # f = sum_i min(x_i, -2 x_i) peaks at a kink, and its gradient
        # jumps there, so near the peak steps keep failing the Armijo
        # condition: two runs stop when the bracket's width times g.d falls
        # below BFGS_FTOL, before a step is accepted, and one on BFGS_FTOL
        def objective(points):
            return np.minimum(points, -2 * points).sum(axis=1), np.where(points < 0, 1.0, -2.0)

        starts = np.array([[-0.5, 2.0], [3.0, 0.25], [-1.0, -3.0]])
        logs = assert_runs_match_scalar_bfgs(objective, starts)
        assert [log[-1] for log in logs] == ["bracket", "bracket", "ftol"]

    def test_stalled_exactly_when_step_cap_runs_out(self, rng, monkeypatch):
        import workcap.capacity as capacity_mod
        env = random_environment(rng, 2, 2)
        starts = rng.normal(scale=1.5, size=(4, 20))
        objective = _search_objective(env, 2)
        _, _, steps, stalled = _bfgs(objective, starts)
        assert not stalled.any() and steps.min() > 3
        assert not capacity_lower_bound(env, memory_size=2, restarts=4).stalled
        monkeypatch.setattr(capacity_mod, "BFGS_STEPS", 3)
        _, _, capped, stalled = _bfgs(objective, starts)
        assert capped.tolist() == [3] * 4 and stalled.all()
        assert capacity_lower_bound(env, memory_size=2, restarts=4).stalled

    def test_same_seed_same_result(self, rng):
        env = random_environment(rng, 2, 2)
        first, second = (capacity_lower_bound(env, memory_size=2, restarts=3, seed=7)
                         for _ in range(2))
        assert first.value_nats == second.value_nats
        assert first.optimizer_trace == second.optimizer_trace
        assert dumps_model(first.witness) == dumps_model(second.witness)

    def test_cli_json_and_witness_byte_identical(self, tmp_path, capsys):
        from workcap import cli
        env_path, witness = tmp_path / "env.json", tmp_path / "witness.json"
        save_model(random_environment(np.random.default_rng(0), 2, 2), env_path)
        runs = []
        for _ in range(2):
            assert cli.main(["capacity", str(env_path), "--json", "--memory-size", "1",
                             "--restarts", "2", "--seed", "0", "--out", str(witness)]) == 0
            runs.append((capsys.readouterr().out, witness.read_bytes()))
        assert '"numeric_lower_bound"' in runs[0][0]
        assert runs[0] == runs[1]


class TestParameterization:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=20, max_size=20),
           st.sampled_from([0.5, 2.0, 7.0]))
    # near-tied logits: rounding may break the tie differently in the two
    # softmax rows, so the rows' own argmaxes can differ
    @example([0.0, 0.0, 2.220446049250313e-16, -1.5] + [0.0] * 16, 0.5)
    def test_scaling_preserves_rowwise_argmax(self, values, scale):
        # the entry at each row's logit argmax is maximal in both rows
        x = np.array(values)
        top = x.reshape(5, 4).argmax(axis=1)
        for point in (x, scale * x):
            assert_vertices_at_argmax(point[None], 2, 2)
            theta, init = _kernels_from_params(point[None], 2, 2)
            rows = np.concatenate([theta[0].reshape(4, 4), init[0].reshape(1, 4)])
            assert (rows[np.arange(5), top] == rows.max(axis=1)).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=20, max_size=20),
           st.floats(-5, 5))
    def test_shift_invariance(self, values, shift):
        x = np.array(values)[None]
        for a, b in zip(_kernels_from_params(x, 2, 2), _kernels_from_params(x + shift, 2, 2)):
            assert np.allclose(a, b, atol=1e-12)


class TestCapacityProperties:
    def test_bounds_hold_for_all_methods(self, fig5, identity_env, golden_mean):
        for env, result in (
            (identity_env, capacity_noiseless(identity_env)),
            (fig5, capacity_memoryless(fig5)),
            (golden_mean, capacity_unifilar_product(golden_mean)),
        ):
            assert 0.0 <= result.value_nats <= math.log(len(env.alphabet))

    def test_subadditivity_fig5_with_itself(self, fig5):
        report = check_subadditivity(fig5, fig5)
        assert report.holds

    def test_subadditivity_decides_each_class_once(self, fig5, flip_noise, call_counts):
        # one verdict per factor, handed to its closed form, and one for the cascade
        calls = call_counts("channels.is_memoryless_invariant")
        assert check_subadditivity(flip_noise, fig5).holds
        assert calls == {"is_memoryless_invariant": 3}

    def test_subadditivity_rejects_channel_with_memory(self, fig5, golden_mean):
        with pytest.raises(ChannelClassError, match="second"):
            check_subadditivity(fig5, golden_mean)

    def test_subadditivity_identities(self, identity_env):
        report = check_subadditivity(identity_env, identity_env)
        assert report.holds
        assert report.value_cascade_nats == pytest.approx(0.0, abs=1e-12)

    def test_subadditivity_random_sweep(self, rng):
        for _ in range(10):
            report = check_subadditivity(random_memoryless_environment(rng),
                                         random_memoryless_environment(rng))
            assert report.holds

    def test_subadditivity_judged_by_cascade_upper_bound(self, fig5, flip_noise,
                                                         monkeypatch):
        # with no ascent step the values and the bounds are far apart, and
        # neither the cascade's bound nor its value decides the inequality
        import workcap.capacity as capacity_mod
        monkeypatch.setattr(capacity_mod, "ASCENT_STEPS", 0)
        report = check_subadditivity(flip_noise, fig5)
        assert report.value_cascade_nats <= report.value_first_nats + report.value_second_nats
        assert report.upper_cascade_nats > report.value_first_nats + report.value_second_nats
        assert report.value_cascade_nats <= report.upper_first_nats + report.upper_second_nats
        assert report.holds is None

    @pytest.mark.parametrize("reduced", [LINEAR_COORDINATE, TINY_ENTRY, PRIVATE_ACTION])
    def test_subadditivity_sparse_channel_then_identity(self, reduced):
        # the cascade is the channel itself and the identity adds 0, so the
        # verdict rests on the sparse channel's certificate alone
        n = reduced.shape[0]
        report = check_subadditivity(memoryless_env(reduced), memoryless_env(np.eye(n)))
        assert report.value_second_nats == 0.0 and report.upper_second_nats <= 1e-14
        assert report.value_cascade_nats == report.value_first_nats
        assert report.holds is True

    def test_dispatch_priority(self, fig5, identity_env, golden_mean, rng):
        assert compute_capacity(identity_env).method == "closed_form_noiseless"
        assert compute_capacity(fig5).method == "closed_form_memoryless"
        assert compute_capacity(golden_mean).method == "closed_form_unifilar_product"
        general = compute_capacity(random_environment(rng, 2, 2),
                                   restarts=2)
        assert general.method == "numeric_lower_bound"


    def test_each_channel_class_decided_once(self, call_counts):
        # a model keeps its verdicts, so the dispatch, the closed forms and
        # the predictive agent's construction ask for them at no cost; fresh
        # models, since the shared fixtures may have decided theirs
        names = ("noiseless", "memoryless_invariant", "unifilar", "product",
                 "action_invariant_kernel")
        calls = call_counts(*(f"channels._decide_{name}" for name in names))
        golden_mean, fig5 = load_bundled("golden_mean"), load_bundled("fig5")
        for _ in range(2):
            assert compute_capacity(golden_mean).method == "closed_form_unifilar_product"
        assert calls == {f"_decide_{name}": 1 for name in names}
        calls.update(dict.fromkeys(calls, 0))
        assert compute_capacity(fig5).method == "closed_form_memoryless"
        assert calls == {"_decide_noiseless": 1, "_decide_memoryless_invariant": 1,
                         "_decide_unifilar": 0, "_decide_product": 0,
                         "_decide_action_invariant_kernel": 0}

class TestClassifyAgentSets:
    def test_builds_one_chain_and_profile(self, fig5, call_counts):
        # one pre-percept chain and one call of the Cesàro engine, which
        # solves one start's limit laws
        from workcap import build_uniform
        calls = call_counts("loop._pre_percept_chain", "loop.build_global_chain",
                            "markov._limit_laws")
        classify_agent_sets(fig5, build_uniform(fig5.alphabet), horizon=2)
        assert calls == {"_pre_percept_chain": 1, "build_global_chain": 0, "_limit_laws": 1}

    def test_fig5_three_agents(self, fig5):
        from workcap import build_last_action, build_memoryless, build_uniform
        cap = capacity_memoryless(fig5).value_nats

        uniform = classify_agent_sets(fig5, build_uniform(fig5.alphabet),
                                      reference_capacity_nats=cap)
        assert uniform.in_mea and not uniform.is_efficient_vs
        assert uniform.pred_estimate > 0.3

        last = classify_agent_sets(fig5, build_last_action(fig5.alphabet, [0.5, 0.5]),
                                   reference_capacity_nats=cap)
        assert not last.in_mea
        assert last.pred_estimate == pytest.approx(0.0, abs=1e-10)
        assert last.work_rate <= 0.0

        p0 = 2 ** -0.5
        opt = classify_agent_sets(fig5, build_memoryless(fig5.alphabet, [p0, 1 - p0]),
                                  reference_capacity_nats=cap)
        assert opt.is_efficient_vs and not opt.in_mea
        assert opt.pred_estimate > 0.0
