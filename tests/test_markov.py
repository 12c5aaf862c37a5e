import functools
import math
import warnings
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from workcap import (DimensionError, Distribution, DomainError, EnvironmentModel,
                     PerceptActionLoop, TransitionKernel, classify_states, loop, markov, verify,
                     work_rate)
from workcap.channels import load_model
from workcap.random_models import (random_agent, random_environment, random_kernel,
                                   random_structured_kernel)
from workcap.verify import _power_sum

SWAP = TransitionKernel([[0.0, 1.0], [1.0, 0.0]])
ABSORB = TransitionKernel([[1.0, 0.0], [1.0, 0.0]])
CYCLE3 = TransitionKernel([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# leaves state 0 at rate 3e-6 per step, 1:2 to two absorbing states
SLOW_LEAK = TransitionKernel([[1.0 - 3e-6, 1e-6, 2e-6], [0, 1, 0], [0, 0, 1]])


def stationary_by_linear_solve(P: np.ndarray) -> np.ndarray:
    """Independent oracle: solve pi P = pi, sum(pi) = 1 as a linear system."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def gth_in_blocks_of_32(blocks: np.ndarray) -> np.ndarray:
    """Oracle: GTH elimination with per-state updates of every panel, the
    trailing matrix updated once per 32 states; a chain of at most 32
    states is censored one state at a time throughout."""
    A = np.array(blocks, dtype=float)
    n = A.shape[-1]
    for hi in range(n, 1, -32):
        lo = max(hi - 32, 0)
        for k in range(hi - 1, max(lo, 1) - 1, -1):
            A[:, :k, k] /= A[:, k, :k].sum(axis=1, keepdims=True)
            A[:, :k, lo:k] += A[:, :k, k, None] * A[:, k, None, lo:k]
            if lo:
                A[:, lo:k, :lo] += A[:, lo:k, k, None] * A[:, k, None, :lo]
        if lo:
            A[:, :lo, :lo] += A[:, :lo, lo:hi] @ A[:, lo:hi, :lo]
    x = np.empty(A.shape[:2])
    x[:, 0] = 1.0
    for j in range(1, n):
        x[:, j] = (x[:, None, :j] @ A[:, :j, j, None])[:, 0, 0]
    return x / x.sum(axis=1, keepdims=True)


def first_passage_per_target(P: np.ndarray, horizon: int):
    """Independent oracle: one taboo recursion per target state, each with
    its own kernel whose column j is zeroed.  Returns the hit probabilities
    and the truncated mean return times (for every state)."""
    n = P.shape[0]
    hit = np.zeros((n, n))
    mean_return = np.zeros(n)
    for j in range(n):
        taboo = P.copy()
        taboo[:, j] = 0.0  # forbid passing through j before the first visit
        v = P[:, j].copy()
        hit[:, j] = v
        m_partial = v[j]
        for step in range(2, horizon + 1):
            v = taboo @ v
            hit[:, j] += v
            m_partial += step * v[j]
        mean_return[j] = m_partial
    return hit, mean_return


def cycles_fed_by_transients():
    """Deterministic 2-, 3-, 5- and 7-cycles (period lcm 210); t0 leaks
    slowly into t1 and the 5- and 7-cycles, t1 splits between the 2- and
    3-cycles, and t2 (on no cycle) feeds t0.  Returns the kernel and each
    cycle's first state and length."""
    lengths = (2, 3, 5, 7)
    starts = np.cumsum((0,) + lengths)[:-1]
    n = sum(lengths) + 3
    t0, t1, t2 = n - 3, n - 2, n - 1
    P = np.zeros((n, n))
    for start, length in zip(starts, lengths):
        for i in range(length):
            P[start + i, start + (i + 1) % length] = 1.0
    P[t0, [t0, t1, starts[2], starts[3]]] = [1.0 - 8e-6, 2e-6, 3e-6, 3e-6]
    P[t1, [starts[0], starts[1]]] = 0.5
    P[t2, t0] = 1.0
    return P, starts, lengths


def group_laws(P: np.ndarray, u: np.ndarray):
    """The structure and laws of ``markov._limit_laws`` on a stack whose
    members form one group."""
    ((_, structure, laws, _, _),) = markov._limit_laws(P, u)
    return structure, laws


def limit_laws(kernel: TransitionKernel):
    """The kernel's structure and the subsequence-limit laws of its n point
    starts as an ``(n, d, n)`` array: ``laws[i, r]`` is row i of ``P^r L``,
    L = lim P^{nd}."""
    P = kernel.probs
    structure, laws = group_laws(P[None], np.eye(len(P))[None])
    return structure, laws[0]


def structure_of(support: np.ndarray):
    """The structure of the chain on every state of the pattern ``support``."""
    return markov._pattern_groups(support[None])[0][1]


def transient_states(structure) -> np.ndarray:
    """The states in no closed class of ``structure``, ascending."""
    return np.setdiff1d(np.arange(structure.reach.sum()), np.concatenate(structure.closed))


def cesaro_matrix(kernel: TransitionKernel) -> np.ndarray:
    """The Cesàro limit laws of the n point starts, row i from state i."""
    return limit_laws(kernel)[1].mean(axis=1)


def bfs_gcd_period(support: np.ndarray, members) -> int:
    """Independent oracle: the gcd of level[u] + 1 - level[v] over the
    edges (u, v) inside one closed class, with levels from a queue-based
    BFS from its first state."""
    inside = set(members)
    level = {members[0]: 0}
    queue = deque([members[0]])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(support[u]).tolist():
            if v in inside and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return functools.reduce(math.gcd, (level[u] + 1 - level[v] for u in members
                                       for v in np.flatnonzero(support[u]).tolist()
                                       if v in inside), 0)


def periods(kernel: TransitionKernel) -> dict[int, int]:
    """Each recurrent state's period, that of its closed class, as
    ``markov._classify`` reads it off BFS levels; checked against the
    gcd-of-BFS oracle."""
    support = kernel.probs > 0.0
    labels, closed, class_periods = markov._classify(support)
    closed = [np.flatnonzero(labels == c).tolist() for c in np.flatnonzero(closed)]
    assert list(class_periods) == [bfs_gcd_period(support, members) for members in closed]
    return {s: period for members, period in zip(closed, class_periods) for s in members}


def invariance_gap(P: np.ndarray, laws: np.ndarray) -> float:
    """max_r |t_r P - t_{r+1 mod d}| over the laws t_r on the second axis
    of ``laws``."""
    return float(np.max(np.abs(laws @ P - np.roll(laws, -1, axis=1))))


def brute_force_cesaro(P: np.ndarray, N: int) -> np.ndarray:
    """Independent oracle: (1/N) sum_{t<N} P^t."""
    n = P.shape[0]
    acc = np.zeros((n, n))
    power = np.eye(n)
    for _ in range(N):
        acc += power
        power = power @ P
    return acc / N


class TestClassify:
    def test_swap_is_one_recurrent_class(self):
        cls = classify_states(SWAP)
        assert cls.classes == ((0, 1),)
        assert cls.recurrent.tolist() == [True, True]

    def test_absorbing_chain(self):
        cls = classify_states(ABSORB)
        assert cls.recurrent.tolist() == [True, False]
        assert ((0,) in cls.classes) and ((1,) in cls.classes)

    def test_identity_three_singletons(self):
        cls = classify_states(TransitionKernel(np.eye(3)))
        assert cls.classes == ((0,), (1,), (2,))
        assert all(cls.class_recurrent)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            TransitionKernel([[0.5, 0.25, 0.25]])


class TestPeriod:
    def test_swap_period_two(self):
        assert periods(SWAP)[0] == 2

    def test_three_cycle(self):
        assert periods(CYCLE3) == {0: 3, 1: 3, 2: 3}

    def test_self_loop_gives_one(self):
        k = TransitionKernel([[0.5, 0.5], [1.0, 0.0]])
        assert periods(k)[0] == 1

    def test_non_return_state_rejected(self):
        # state 1 is transient, so the structure gives it no period
        assert periods(ABSORB) == {0: 1}


def structured_supports() -> dict[str, np.ndarray]:
    """Supports whose classes come in long lines, cycles and feeders."""
    path = np.eye(1024, k=1, dtype=bool)
    path[-1, -1] = True  # 1,024 classes, the last absorbing
    two_cycles = np.zeros((300, 300), dtype=bool)  # 150 two-cycles in a line
    even = np.arange(0, 300, 2)
    two_cycles[even, even + 1] = two_cycles[even + 1, even] = True
    two_cycles[even[:-1] + 1, even[1:]] = True
    # 2-, 3-, 5- and 7-cycles fed by 283 transient states, each moving to one
    # or two earlier states
    rng = np.random.default_rng(0)
    feeders = cycles_fed_by_transients()[0][:17, :17] > 0.0
    feeders = np.pad(feeders, (0, 283))
    for t in range(17, 300):
        feeders[t, rng.choice(t, size=rng.integers(1, 3), replace=False)] = True
    # the global chain of a memory-1 agent on a channel that enters a 2-, 3-,
    # 5- or 7-cycle from its start state (period lcm 210)
    lengths = (2, 3, 5, 7)
    move = np.zeros((18, 18))
    entries = np.cumsum((1,) + lengths)[:-1]
    for entry, length in zip(entries, lengths):
        for i in range(length):
            move[entry + i, entry + (i + 1) % length] = 1.0
    move[0, entries] = 0.25
    emit = rng.dirichlet(np.ones(2), size=(2, 18))  # [a, z, s]
    env = EnvironmentModel(("0", "1"), tuple(f"z{z}" for z in range(18)),
                           emit[..., None] * move[None, :, None, :], np.eye(18)[0])
    chain = loop.build_global_chain(PerceptActionLoop(random_agent(rng, 2, 1), env))
    return {"path1024": path, "two_cycles300": two_cycles,
            "cycles_cut": cycles_fed_by_transients()[0] > 0.0, "cycles_fed300": feeders,
            "cycles_global72": chain.kernel.probs > 0.0,
            "dense512": np.ones((512, 512), dtype=bool)}


def csgraph_partition(support: np.ndarray):
    """Independent oracle: the classes by scipy's csgraph, each sorted and
    in order of their smallest state, and whether each is closed."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    count, labels = connected_components(csr_array(support), directed=True, connection="strong")
    classes = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(count))
    rows, cols = np.nonzero(support)
    leaving = set(labels[rows[labels[rows] != labels[cols]]].tolist())
    return tuple(classes), tuple(labels[c[0]] not in leaving for c in classes)


def check_classes_and_periods(support: np.ndarray):
    """classify_states, on a kernel with the pattern ``support``, against
    csgraph (classes, order and closedness), the class labels of _classify
    against its classes, and the closed classes' periods against the
    gcd-of-BFS oracle."""
    cls = classify_states(TransitionKernel(support / support.sum(axis=1, keepdims=True)))
    assert (cls.classes, cls.class_recurrent) == csgraph_partition(support)
    labels, closed, class_periods = markov._classify(support)
    recurrent = np.zeros(len(support), dtype=bool)
    for c, members in enumerate(cls.classes):
        assert (labels[list(members)] == c).all()
        recurrent[list(members)] = cls.class_recurrent[c]
    assert cls.recurrent.tolist() == recurrent.tolist() == closed[labels].tolist()
    closed = [members for members, rec in zip(cls.classes, cls.class_recurrent) if rec]
    assert list(class_periods) == [bfs_gcd_period(support, members) for members in closed]
    return cls, class_periods


class TestClassesAgainstOracles:
    """Forward-backward reachability with trimming gives the strongly
    connected components that scipy's csgraph and networkx give, and the
    closed classes' periods that the gcd-of-BFS oracle gives."""

    def test_random_supports_match_csgraph(self):
        pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(37)
        for _ in range(5000):
            n = int(rng.integers(1, 25))
            support = rng.random((n, n)) < rng.choice([0.02, 0.08, 0.15, 0.3, 0.6])
            empty = np.flatnonzero(~support.any(axis=1))  # every row of a kernel has mass
            support[empty, rng.integers(n, size=empty.size)] = True
            check_classes_and_periods(support)
        # a 1,024-state path and a line of 150 two-cycles: every class is
        # listed from one argsort, not by one scan of all states per class
        lines = structured_supports()
        for name in ("path1024", "two_cycles300"):
            check_classes_and_periods(lines[name])

    @pytest.mark.parametrize("name", list(structured_supports()))
    def test_structured_supports_match_networkx_and_csgraph(self, name):
        nx = pytest.importorskip("networkx")
        pytest.importorskip("scipy.sparse.csgraph")
        support = structured_supports()[name]
        cls, class_periods = check_classes_and_periods(support)
        graph = nx.from_numpy_array(support.astype(int), create_using=nx.DiGraph)
        components = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(graph))
        assert cls.classes == tuple(components)
        if name.startswith("cycles"):
            assert math.lcm(*class_periods) == 210


class TestTriangularInverses:
    @pytest.mark.parametrize("lower", [True, False])
    def test_match_lapack_dtrtri(self, lower):
        # nonnegative, the same zeros, and within a few ulps of LAPACK's
        # substitution, on M-matrices whose rows span ten orders of magnitude;
        # an upper one is inverted as its transpose, as GTH's blocks do
        lapack = pytest.importorskip("scipy.linalg.lapack")
        rng = np.random.default_rng(5)
        m = markov._GTH_BLOCK
        diag = np.arange(m)
        for _ in range(40):
            W = rng.random((3, m, m)) * (rng.random((3, m, m)) < rng.random())
            W *= 10.0 ** rng.integers(-8, 3, size=(3, m, 1))
            T = np.tril(-W, -1) if lower else np.triu(-W, 1)
            off_diagonal = np.abs(T).sum(axis=2 if lower else 1)
            T[:, diag, diag] = rng.random((3, m)) + rng.random() * off_diagonal
            if lower:
                got = markov._triangular_inverses(T)
            else:
                got = markov._triangular_inverses(T.transpose(0, 2, 1).copy()).transpose(0, 2, 1)
            want = np.stack([lapack.dtrtri(t, lower=lower)[0] for t in T])
            assert (got >= 0.0).all()
            assert ((got == 0.0) == (want == 0.0)).all()
            assert (np.abs(got - want) <= 16 * np.finfo(float).eps * want).all()


class TestAsymptoticProfile:
    """The limit laws of the point starts: ``laws[:, r]`` is the
    subsequence limit P^r L and their mean is the Cesàro matrix."""

    def test_swap(self):
        structure, laws = limit_laws(SWAP)
        assert structure.period_lcm == 2
        assert np.allclose(laws.mean(axis=1), 0.5)
        assert np.allclose(laws[:, 0], np.eye(2))

    def test_absorbing(self):
        # starting from state 1, all time-averaged mass sits on state 0
        assert np.allclose(cesaro_matrix(ABSORB)[1], [1.0, 0.0])

    def test_one_state_degenerate(self):
        structure, laws = limit_laws(TransitionKernel([[1.0]]))
        assert structure.period_lcm == 1
        assert np.allclose(laws.mean(axis=1), [[1.0]])

    def test_random_aperiodic_columns_equal_stationary(self, rng):
        kernel = random_kernel(rng, 4)
        structure, laws = limit_laws(kernel)
        assert structure.period_lcm == 1
        pi = stationary_by_linear_solve(kernel.probs)
        for row in laws.mean(axis=1):
            assert np.allclose(row, pi, atol=1e-9)

    def test_subsequence_relation(self, rng):
        # Phi^(r)_inf = Phi^r Phi^(d)_inf
        for i in range(6):
            kernel = (random_structured_kernel(rng, 4) if i % 2
                      else random_kernel(rng, 3 + i % 3))
            structure, laws = limit_laws(kernel)
            d = structure.period_lcm
            for r in range(1, d + 1):
                expected = np.linalg.matrix_power(kernel.probs, r) @ laws[:, 0]
                assert np.max(np.abs(laws[:, r % d] - expected)) < 1e-9

    def test_cesaro_matches_brute_force(self, rng):
        for n in (2, 4, 6):
            kernel = random_kernel(rng, n)
            structure, laws = limit_laws(kernel)
            oracle = brute_force_cesaro(kernel.probs, 20_000 * structure.period_lcm)
            assert np.max(np.abs(oracle - laws.mean(axis=1))) < 1e-3

    def test_transient_mass_vanishes(self):
        assert np.max(np.abs(cesaro_matrix(ABSORB)[:, 1])) < 1e-12

    def test_continuous_functional_cesaro(self, rng):
        # Cesàro mean of g(Phi^t) equals the mean of g over subsequence limits,
        # with g an entropy-of-rows functional
        def g(M):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(M > 0, -M * np.log(M), 0.0)
            return float(terms.sum(axis=1).mean())

        kernel = random_structured_kernel(rng, 5)
        structure, laws = limit_laws(kernel)
        d = structure.period_lcm
        N = 5000 * d
        power = np.eye(5)
        acc = 0.0
        for _ in range(N):
            acc += g(power)
            power = power @ kernel.probs
        lhs = acc / N
        rhs = sum(g(laws[:, r]) for r in range(d)) / d
        assert abs(lhs - rhs) < 1e-3

    def test_residual_is_invariance_check(self, rng):
        # the laws solve their defining equations t_r P = t_{r+1} (mod d),
        # and L = lim P^{nd} absorbs P^d: P^d L = L
        for i in range(6):
            kernel = (random_structured_kernel(rng, 5) if i % 2
                      else random_kernel(rng, 4))
            structure, laws = limit_laws(kernel)
            assert invariance_gap(kernel.probs, laws) < 1e-13
            power = np.linalg.matrix_power(kernel.probs, structure.period_lcm)
            assert np.max(np.abs(power @ laws[:, 0] - laws[:, 0])) < 1e-13

    def test_power_rows_sum_to_one(self, rng):
        kernel = random_kernel(rng, 5)
        for n in (1, 3, 10, 50):
            rows = np.linalg.matrix_power(kernel.probs, n).sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) < 1e-10


class TestExactLimits:
    """Limits of sticky, slowly leaking, periodic and reducible chains match
    their closed forms to rounding level."""

    @pytest.mark.parametrize("flip", [1e-4, 1e-5, 1e-8])
    def test_sticky_two_state_chain(self, flip):
        back = 3.0 * flip
        P = [[1.0 - flip, flip], [back, 1.0 - back]]
        structure, laws = limit_laws(TransitionKernel(P))
        pi = np.array([back, flip]) / (flip + back)
        assert structure.period_lcm == 1
        assert np.max(np.abs(laws.mean(axis=1) - pi)) <= 1e-14

    @pytest.mark.parametrize("leak", [1e-6, 1e-10])
    def test_slow_leak_into_two_absorbing_states(self, leak):
        P = [[1.0 - 3.0 * leak, leak, 2.0 * leak], [0, 1, 0], [0, 0, 1]]
        expected = [[0.0, 1 / 3, 2 / 3], [0, 1, 0], [0, 0, 1]]
        assert np.max(np.abs(cesaro_matrix(TransitionKernel(P)) - expected)) <= 1e-14

    @pytest.mark.parametrize("n, up, down, stay", [(100, 0.3, 0.6, 0.1), (300, 0.3, 0.6, 0.1),
                                                   (300, 3e-10, 6e-10, 1.0 - 9e-10)])
    def test_long_birth_death_chain(self, n, up, down, stay):
        # several elimination blocks, the last case sticky; detailed balance
        # gives pi_i proportional to 2^-i, matched entrywise to relative 1e-12
        P = np.zeros((n, n))
        for i in range(n):
            P[i, min(i + 1, n - 1)] += up
            P[i, max(i - 1, 0)] += down
            P[i, i] += stay
        pi = 0.5 ** np.arange(n)
        pi /= pi.sum()
        cesaro = cesaro_matrix(TransitionKernel(P))
        assert np.max(np.abs(cesaro - pi)) <= 1e-14
        assert np.max(np.abs(cesaro / pi - 1.0)) <= 1e-12

    def test_dense_chain_across_elimination_blocks(self, rng):
        kernel = random_kernel(rng, 100)
        pi = stationary_by_linear_solve(kernel.probs)
        assert np.max(np.abs(cesaro_matrix(kernel) - pi)) <= 1e-14

    def test_cycles_of_lcm_210_fed_by_transient_states(self):
        # absorption from t0: 1/8, 1/8, 3/8, 3/8
        P, starts, lengths = cycles_fed_by_transients()
        n = P.shape[0]
        t0, t1, t2 = n - 3, n - 2, n - 1
        structure, laws = limit_laws(TransitionKernel(P))
        assert structure.period_lcm == 210

        def on_cycles(weights):
            row = np.zeros(n)
            for start, length, w in zip(starts, lengths, weights):
                row[start:start + length] = w / length
            return row

        expected = np.zeros((n, n))
        for start, length in zip(starts, lengths):
            expected[start:start + length] = on_cycles(
                [float(length == other) for other in lengths])
        expected[t0] = expected[t2] = on_cycles([1 / 8, 1 / 8, 3 / 8, 3 / 8])
        expected[t1] = on_cycles([1 / 2, 1 / 2, 0, 0])
        assert np.max(np.abs(laws.mean(axis=1) - expected)) <= 1e-14
        assert invariance_gap(P, laws) <= 1e-14


class TestBlockedGTH:
    """Blocked GTH against the per-state oracle: the block holding state 0
    is censored one state at a time, so short chains agree bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 32])
    def test_short_chains_bit_identical(self, rng, n):
        # the capacity search's stacks: 13 positive kernels of at most 32
        # states.  The limit engine gathers each closed class in C order, so
        # its laws are the oracle's on the C-ordered stack, and each member's
        # are those of that member alone
        P = np.stack([random_kernel(rng, n).probs for _ in range(13)])
        expected = gth_in_blocks_of_32(P)
        np.testing.assert_array_equal(markov._gth_stationary(P.copy()), expected)
        start = np.zeros((13, 1, n))
        start[:, 0, 0] = 1.0
        _, laws = group_laws(P, start)
        np.testing.assert_array_equal(laws[:, 0, 0], expected)
        for member, law in zip(P, laws[:, 0, 0]):
            np.testing.assert_array_equal(group_laws(member[None], start[:1])[1][0, 0, 0], law)

    @pytest.mark.parametrize("n", [33, 100, 257, 600])
    def test_long_chains_within_rounding(self, rng, n):
        P = random_kernel(rng, n).probs[None]
        expected = gth_in_blocks_of_32(P)
        assert np.max(np.abs(markov._gth_stationary(P.copy()) - expected)) <= 1e-15

    def test_stack_matches_members(self, rng):
        P = np.stack([random_kernel(rng, 150).probs for _ in range(3)])
        alone = [markov._gth_stationary(member[None].copy())[0] for member in P]
        np.testing.assert_array_equal(markov._gth_stationary(P), alone)


def lazy_blocks(rng, blocks, B):
    """A ``(B, n, n)`` stack with one pattern: the block-diagonal kernels
    ``blocks``, each member made lazy by its own random holding weights,
    so every closed class is aperiodic and its stationary vector is not
    exact."""
    n = sum(len(b) for b in blocks)
    P = np.zeros((n, n))
    start = 0
    for b in blocks:
        P[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    hold = rng.uniform(0.2, 0.8, size=(B, n, 1))
    return hold * np.eye(n) + (1.0 - hold) * P


class TestClassStacks:
    """_power_limit eliminates the closed classes of one size as one
    C-ordered stack; each class of each member gets the bits it gets alone."""

    @staticmethod
    def assert_per_class(Q, calls):
        closed = structure_of(Q[0] > 0.0).closed
        V = np.ones((len(Q), 1, Q.shape[-1])) / Q.shape[-1]
        calls.update(dict.fromkeys(calls, 0))
        _, _, stationary = markov._power_limit(Q, closed, V)
        assert calls == {"_gth_stationary": len({len(members) for members in closed})}
        for b, member in enumerate(Q):
            for c, members in enumerate(closed):
                alone = markov._gth_stationary(member[np.ix_(members, members)][None])[0]
                np.testing.assert_array_equal(stationary[b, c, members], alone)
        return closed

    def test_cycles_2_3_5_7(self, rng, call_counts):
        # the (2, 3, 5, 7) cycles fed by transients: under P^210 every cycle
        # state is a class of one, so all 17 are one stack; made lazy, the
        # cycles are classes of four sizes, and twice over, two of each size
        calls = call_counts("markov._gth_stationary")
        P = cycles_fed_by_transients()[0]
        Q = np.linalg.matrix_power(np.stack([P, P]), 210)
        assert len(self.assert_per_class(Q, calls)) == 17
        cycles = [P[start:start + k, start:start + k]
                  for start, k in zip(*cycles_fed_by_transients()[1:])]
        closed = self.assert_per_class(lazy_blocks(rng, cycles + cycles, 3), calls)
        assert [len(members) for members in closed] == [2, 3, 5, 7] * 2

    def test_random_structured_kernels(self, rng, call_counts):
        calls = call_counts("markov._gth_stationary")
        for _ in range(5):
            blocks = [random_structured_kernel(rng, int(k)).probs
                      for k in rng.integers(2, 6, size=6)]
            self.assert_per_class(lazy_blocks(rng, blocks, 4), calls)


def solve_absorption(Q, closed, t):
    """Oracle: absorption probabilities from a pivoting LU solve of the
    outflow-form system ``(I - Q_TT) H = R``, whose diagonal is each row's
    off-diagonal sum; elimination still subtracts, so it is exact only on
    well-conditioned chains."""
    diag = np.arange(t.size)
    rows = Q.take(t, axis=1)
    rows[:, diag, t] = 0.0
    A = -rows.take(t, axis=2)
    A[:, diag, diag] = rows.sum(axis=2)
    R = np.stack([rows.take(members, axis=2).sum(axis=2) for members in closed], axis=2)
    return np.linalg.solve(A, R)


def solved_limit_laws(P, u):
    """Oracle: ``markov._limit_laws`` with absorption by :func:`solve_absorption`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markov, "_absorption", solve_absorption)
        return group_laws(P, u)[1]


def fraction_absorption(P: np.ndarray, closed, t) -> np.ndarray:
    """Oracle: absorption probabilities of the transient states ``t`` into
    each closed class, the outflow-form system solved exactly in Fraction on
    the float entries (with ``1 - eps`` rounded, ``1 - p01 p10`` is not the
    outflow of a circulating pair)."""
    q = [[Fraction(float(x)) for x in row] for row in P]
    M = [[sum(q[i][j] for j in range(len(P)) if j != i) if i == j else -q[i][j] for j in t]
         + [sum(q[i][s] for s in members) for members in closed] for i in t]
    for col in range(len(t)):  # Gauss-Jordan; exact, so any nonzero pivot does
        piv = next(r for r in range(col, len(t)) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for r in range(len(t)):
            if r != col and M[r][col] != 0:
                M[r] = [a - M[r][col] * b for a, b in zip(M[r], M[col])]
    return np.array([[float(x) for x in row[len(t):]] for row in M])


def fraction_stationary(P: np.ndarray) -> list[Fraction]:
    """Oracle: the stationary law of an irreducible kernel by GTH's
    elimination in exact Fraction arithmetic on the float entries."""
    n = len(P)
    A = [[Fraction(float(x)) for x in row] for row in P]
    for k in range(n - 1, 0, -1):
        out = sum(A[k][:k])
        for i in range(k):
            A[i][k] /= out
            for j in range(k):
                A[i][j] += A[i][k] * A[k][j]
    x = [Fraction(1)]
    for j in range(1, n):
        x.append(sum(x[i] * A[i][j] for i in range(j)))
    total = sum(x)
    return [v / total for v in x]


def assert_matches_fractions(got: np.ndarray, exact: list[Fraction]) -> None:
    """Every entry of ``got`` is finite, and each whose exact value is above
    the smallest normal number is within 1e-12 of it, relatively."""
    assert np.isfinite(got).all()
    for g, e in zip(got.tolist(), exact):
        if e > np.finfo(float).tiny:
            assert abs(Fraction(g) / e - 1) <= 1e-12


def circulating_pair(eps: float) -> np.ndarray:
    """States 0 and 1 flip into each other; 0 leaks eps into the absorbing
    state 2 and 1 leaks 2 eps into the absorbing state 3."""
    P = np.zeros((4, 4))
    P[0, [1, 2]] = [1.0 - eps, eps]
    P[1, [0, 3]] = [1.0 - 2.0 * eps, 2.0 * eps]
    P[2, 2] = P[3, 3] = 1.0
    return P


def transient_ladder(rng, n_transient: int) -> np.ndarray:
    """A ladder of transient states 2, ..., n_transient + 1, each moving to
    its neighbours, itself and the two aperiodic closed classes {0, 1} and
    {n - 2, n - 1} with random probabilities."""
    n = n_transient + 4
    P = np.zeros((n, n))
    P[np.ix_([0, 1], [0, 1])] = [[0.3, 0.7], [0.6, 0.4]]
    P[np.ix_([n - 2, n - 1], [n - 2, n - 1])] = [[0.5, 0.5], [0.9, 0.1]]
    for i in range(2, n - 2):
        P[i, [i - 1, i, i + 1, 0, n - 1]] += rng.dirichlet(np.ones(5))
    return P


def leaky_cycles(rng, leak: float) -> np.ndarray:
    """Two random deterministic cycles (sometimes with a transient state of
    their own) and 4 transient states that pass mass among themselves and
    leak ``leak`` into the cycles, the states shuffled."""
    cycles = [random_structured_kernel(rng, int(k)).probs for k in rng.integers(2, 6, size=2)]
    n = sum(len(c) for c in cycles) + 4
    P = np.zeros((n, n))
    at = 0
    for c in cycles:
        P[at:at + len(c), at:at + len(c)] = c
        at += len(c)
    P[at:, at:] = (1.0 - leak) * rng.dirichlet(np.ones(4), size=4)
    P[at:, :at] = leak * rng.dirichlet(np.ones(at), size=4)
    order = rng.permutation(n)
    return P[np.ix_(order, order)]


class TestAbsorptionByCensoring:
    """Absorption probabilities come from the GTH elimination that gives
    stationary vectors: transient states are censored down to one absorbing
    state per closed class, so every sum adds nonnegative numbers."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
    def test_circulating_pair_keeps_its_digits(self, eps):
        P = circulating_pair(eps)
        _, laws = limit_laws(TransitionKernel(P))
        expected = fraction_absorption(P, [[2], [3]], [0, 1])
        assert np.max(np.abs(laws[:2, 0, 2:] / expected - 1.0)) <= 1e-14

    @pytest.mark.parametrize("leak", [1e-3, 1e-10])
    def test_slow_leaks_through_random_transient_states(self, rng, leak):
        for _ in range(5):
            P = leaky_cycles(rng, leak)
            structure = structure_of(P > 0.0)
            t = transient_states(structure)
            H = markov._absorption(P[None], structure.closed, t)[0]
            expected = fraction_absorption(P, [c.tolist() for c in structure.closed], t.tolist())
            assert np.all(np.abs(H - expected) <= 1e-13 * expected)

    @pytest.mark.parametrize("n_transient", [64, 300])
    def test_ladder_across_elimination_blocks(self, rng, n_transient):
        # 300 transient states are 4 blocks of 64 and 44 censored alone
        P = np.stack([transient_ladder(rng, n_transient) for _ in range(3)])
        u = np.broadcast_to(np.eye(len(P[0])), P.shape)
        _, laws = group_laws(P, u)
        assert np.max(np.abs(laws - solved_limit_laws(P, u))) <= 1e-13
        assert np.max(np.abs(laws.sum(axis=-1) - 1.0)) <= 1e-14
        for member, law in zip(P, laws):
            np.testing.assert_array_equal(group_laws(member[None], u[:1])[1][0], law)

    def test_periodic_reducible_chains_match_the_solve(self, rng):
        for _ in range(10):
            P = leaky_cycles(rng, float(rng.uniform(0.05, 0.5)))[None]
            u = np.eye(P.shape[-1])[None]
            structure, laws = group_laws(P, u)
            assert transient_states(structure).size
            assert np.max(np.abs(laws - solved_limit_laws(P, u))) <= 1e-13

    def test_one_gather_gives_the_two_take_elimination_array(self, rng, monkeypatch):
        # the array _absorption eliminates, built by gathering the transient
        # rows and then their columns: same entries, same class sums
        def two_takes(Q, closed, t):
            c = len(closed)
            rows = Q.take(t, axis=1)
            A = np.zeros((len(Q), c + t.size, c + t.size))
            for j, members in enumerate(closed):
                A[:, c:, j] = rows.take(members, axis=2).sum(axis=2)
            A[:, c:, c:] = rows.take(t, axis=2)
            return A

        seen = []
        eliminate = markov._eliminate
        monkeypatch.setattr(markov, "_eliminate",
                            lambda A, keep: seen.append(A.copy()) or eliminate(A, keep))
        ladders = np.stack([transient_ladder(rng, 300) for _ in range(3)])
        # two closed classes of 20 states, whose sums round by pairs
        # (numpy's pairwise summation) only when the gather is C-ordered
        wide = np.zeros((3, 60, 60))
        for lo in (0, 40):
            wide[:, lo:lo + 20, lo:lo + 20] = rng.dirichlet(np.ones(20), size=(3, 20))
        wide[:, 20:40] = rng.dirichlet(np.ones(60), size=(3, 20))
        for P in (circulating_pair(1e-12)[None], ladders, wide):
            structure = structure_of(P[0] > 0.0)
            t = transient_states(structure)
            markov._absorption(P, structure.closed, t)
            np.testing.assert_array_equal(seen.pop(), two_takes(P, structure.closed, t))

    def test_no_pivoting_solve(self, rng, monkeypatch):
        def spy(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", spy)
        P, _, _ = cycles_fed_by_transients()
        for chain in (P, circulating_pair(1e-9), transient_ladder(rng, 100)):
            _, laws = group_laws(chain[None], np.eye(len(chain))[None])
            assert np.max(np.abs(laws.sum(axis=-1) - 1.0)) <= 1e-14


class TestSubnormalGTH:
    """Chains whose stationary law spans more than the float range: GTH
    keeps every law finite by scaling with powers of two."""

    @pytest.mark.parametrize("P", [
        # the divisor of state 1 is subnormal; the law is about (2e-310, 1)
        [[0.5, 0.5], [1e-310, 1.0]],
        # every entry is normal, but x_2 / x_0 is about 5e319
        [[0.5, 0.5, 0.0], [1e-160, 1 - 1e-10, 1e-10], [0.0, 1e-170, 1.0]],
        # x_2 overflows as above, and state 3 is formed after it with a zero
        # entry A[2, 3] that would meet an overflowed x_2
        [[0.25, 0.5, 0.0, 0.25], [1e-160, 1 - 1e-10, 1e-10, 0.0],
         [0.0, 1e-170, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
    ], ids=["subnormal_divisor", "overflowing_back_substitution", "state_after_overflow"])
    def test_stationary_law_matches_exact_elimination(self, P):
        P = np.array(P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = markov._gth_stationary(P[None].copy())[0]
            _, laws = group_laws(P[None], np.eye(len(P))[:1][None])
        assert_matches_fractions(got, fraction_stationary(P))
        np.testing.assert_array_equal(laws[0, 0, 0], got)

    def test_members_that_need_no_scaling_keep_their_bits(self):
        # the first member overflows as in state_after_overflow; the second
        # has its zero pattern but needs no scaling, so in the stack it is
        # scaled by 2^0 at every step
        P = np.array([[[0.25, 0.5, 0.0, 0.25], [1e-160, 1 - 1e-10, 1e-10, 0.0],
                       [0.0, 1e-170, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                      [[0.25, 0.5, 0.0, 0.25], [0.3, 0.4, 0.3, 0.0],
                       [0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]]])
        alone = [markov._gth_stationary(member[None].copy())[0] for member in P]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(markov._gth_stationary(P.copy()), alone)

    def test_absorption_through_a_subnormal_outflow(self):
        # transient state 3 leaves for the absorbing states 0 and 1 with
        # probability 3e-310 a round, and state 2 enters it with probability
        # 1/2: censoring state 3 divides by that subnormal outflow
        P = np.array([[1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [0.25, 0.25, 0.0, 0.5],
                      [2e-310, 1e-310, 0.0, 1.0]])
        structure = structure_of(P > 0.0)
        t = transient_states(structure)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = markov._absorption(P[None], structure.closed, t)[0]
        expected = fraction_absorption(P, [c.tolist() for c in structure.closed], t.tolist())
        assert np.all(np.abs(H - expected) <= 1e-12 * expected)

    def test_subnormal_outflow_inside_a_block_raises(self, rng):
        # the last state leaves only with probability 1e-310.  Of 60 states
        # it is censored alone, with rescaling; of 70 it is censored inside
        # a 64-state block, which is not rescaled, so it raises where it
        # overflowed to NaN
        for n in (60, 70):
            P = rng.dirichlet(np.ones(n), size=n)
            P[-1] = 0.0
            P[-1, [0, -1]] = 1e-310, 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if n < markov._GTH_BLOCK:
                    law = markov._gth_stationary(P[None].copy())[0]
                    assert np.isfinite(law).all() and law[-1] == 1.0 and law[:-1].max() < 1e-300
                else:
                    with pytest.raises(DomainError, match="subnormal outflow inside a 64-state"):
                        markov._gth_stationary(P[None].copy())

    def test_work_rate_of_a_subnormal_agent(self):
        # the first member whose rate was NaN in the memory-3 search of the
        # CLI's defaults on random_environment(rng(0), 2, 2): an entry of
        # 1.4e-311 gives pre-percept kernel entries near 1e-314
        env = random_environment(np.random.default_rng(0), 2, 2)
        agent = load_model(Path(__file__).parent / "fixtures" / "subnormal_agent.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = work_rate(PerceptActionLoop(agent, env), base="nats")
            K, p0 = loop._pre_percept_chain(env, agent.theta[None], agent.initial_joint[None])
            _, laws = group_laws(K, p0[:, None])
        exact = fraction_stationary(K[0])
        assert_matches_fractions(laws[0, 0, 0], exact)
        law = np.array([float(x) for x in exact])
        rate = float(loop._work_terms(*loop._marginals(law, env))[0])
        assert abs(report.rate - rate) <= 1e-12


def _underflow_chains():
    # a softmax row whose smallest entry underflowed to exactly 0
    logits = np.array([[0.0, 1.0, -800.0], [0.5, 0.0, 0.0], [0.0, 2.0, 1.0]])
    softmax = np.exp(logits - logits.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    assert softmax[0, 2] == 0.0
    # a period-2 chain whose square loses the entry (0, 1) to underflow, so
    # its numeric pattern closes {0} where the graph closes {0, 1}
    tiny = 1e-200
    bipartite = np.array([[0, 0, 1 - tiny, tiny], [0, 0, 0.5, 0.5],
                          [1, 0, 0, 0], [1 - tiny, tiny, 0, 0]])
    assert (bipartite @ bipartite)[0, 1] == 0.0
    return [softmax, bipartite]


class TestStructureMemo:
    """Structure depends only on the support and start patterns and is
    shared between calls; results from a cold memo and a warm one are
    identical."""

    def test_shared_recurrent_arrays_are_read_only(self, rng):
        kernel = random_structured_kernel(rng, 5)
        structure = limit_laws(kernel)[0]
        for mask in (classify_states(kernel).recurrent, structure.reach):
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
        for members in structure.closed:
            assert not members.flags.writeable
            with pytest.raises(ValueError):
                members[0] = 0

    def test_cold_and_warm_memo_agree(self, rng):
        chains = [np.array([[1.0 - f, f], [3.0 * f, 1.0 - 3.0 * f]])
                  for f in (1e-4, 1e-5, 1e-8)]
        chains += [np.array([[1.0 - 3.0 * leak, leak, 2.0 * leak], [0, 1, 0], [0, 0, 1]])
                   for leak in (1e-6, 1e-10)]
        chains += [random_kernel(rng, 100).probs, cycles_fed_by_transients()[0]]
        chains += _underflow_chains()

        def fields(P):
            structure, laws = limit_laws(TransitionKernel(P))
            return (structure.period_lcm, periods(TransitionKernel(P)),
                    [members.tolist() for members in structure.closed], laws.tobytes())

        cold = []
        for P in chains:
            markov._memo_structure.cache_clear()
            cold.append(fields(P))
        for P in chains:  # fill the memo with every pattern, then reuse it
            limit_laws(TransitionKernel(P))
        hits = markov._memo_structure.cache_info().hits
        warm = [fields(P) for P in chains]
        assert markov._memo_structure.cache_info().hits > hits
        assert warm == cold

    def test_state_period_and_classes_follow_the_pattern(self):
        # same pattern, different numbers: one memo entry serves both
        markov._memo_structure.cache_clear()
        a = TransitionKernel([[0.5, 0.5, 0], [0, 0, 1], [1, 0, 0]])
        b = TransitionKernel([[0.9, 0.1, 0], [0, 0, 1], [1, 0, 0]])
        assert limit_laws(a)[0] is limit_laws(b)[0]
        assert classify_states(a).classes == classify_states(b).classes
        assert periods(a) == periods(b)
        assert periods(a)[1] == 1
        assert markov._memo_structure.cache_info().misses == 1

    def test_start_pattern_selects_the_reachable_subchain(self):
        markov._memo_structure.cache_clear()
        # a 3-cycle: state 0 alone reaches every state, so that start has
        # the structure of the whole chain, and a stack of both is one group
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
        ((_, whole),) = markov._pattern_groups(cycle[None])
        ((_, from_0),) = markov._pattern_groups(cycle[None], np.array([[True, False, False]]))
        assert whole.reach.all() and whole.period_lcm == 3
        assert from_0.reach.all() and from_0.period_lcm == 3
        assert [c.tolist() for c in from_0.closed] == [c.tolist() for c in whole.closed]
        ((members, _),) = markov._pattern_groups(np.stack([cycle] * 2),
                                                 np.array([[1, 1, 1], [1, 0, 0]], dtype=bool))
        assert members == slice(None)
        # state 2 leaks into the closed class {0, 1}, which never leaves it
        leaky = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)
        groups = markov._pattern_groups(np.stack([leaky] * 3),
                                        np.array([[1, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=bool))
        (first, part), (second, whole) = groups
        assert (first, second) == ([0, 2], [1])
        assert part.reach.tolist() == [True, True, False] and not part.reach.flags.writeable
        assert [members.tolist() for members in part.closed] == [[0, 1]]
        assert whole.reach.all() and whole.period_lcm == 1
        assert [members.tolist() for members in whole.closed] == [[0, 1]]


def mixed_stack(rng):
    """Six 6-state kernels with two start vectors each: two positive
    kernels of one pattern (one started from every state, one from two),
    a period-6 chain (a 2-cycle and a 3-cycle fed by state 5), a closed
    class {0, 1, 2} fed by transient states started inside the class and
    started outside it, and the period-6 chain started on its 3-cycle."""
    cycles = np.zeros((6, 6))
    cycles[0, 1] = cycles[1, 0] = 1.0
    cycles[2, 3] = cycles[3, 4] = cycles[4, 2] = 1.0
    cycles[5, [0, 2, 5]] = [0.3, 0.3, 0.4]
    leaky = np.zeros((6, 6))
    leaky[:3, :3] = rng.dirichlet(np.ones(3), size=3)
    leaky[3:] = rng.dirichlet(np.ones(6), size=3)
    P = np.stack([random_kernel(rng, 6).probs, random_kernel(rng, 6).probs, cycles,
                  leaky, leaky, cycles])
    eye = np.eye(6)
    u = np.stack([rng.dirichlet(np.ones(6), size=2), eye[[0, 3]],
                  [eye[5], (eye[0] + eye[1]) / 2], [[0.5, 0.5, 0, 0, 0, 0], eye[0]],
                  eye[[3, 4]], eye[[2, 3]]])
    return P, u


class TestMixedStacks:
    """``markov._limit_laws`` takes any stack and groups it itself: each
    member gets, bit for bit, what it gets alone."""

    def test_each_member_gets_its_laws_alone(self, rng):
        P, u = mixed_stack(rng)
        groups = markov._limit_laws(P, u)
        assert [list(np.arange(6)[members]) for members, *_ in groups] == [
            [0, 1], [2], [3], [4], [5]]
        reaches = {}
        for members, structure, laws, solved, (Q, _, _) in groups:
            for j, i in enumerate(np.arange(6)[members]):
                ((_, alone, want, solved_alone, (Q_alone, _, _)),) = markov._limit_laws(
                    P[i:i + 1], u[i:i + 1])
                reach = structure.reach
                reaches[int(i)] = reach.tolist()
                assert np.array_equal(reach, alone.reach)
                assert structure.period_lcm == alone.period_lcm
                assert [c.tolist() for c in structure.closed] == [c.tolist()
                                                                  for c in alone.closed]
                np.testing.assert_array_equal(laws[j], want[0])
                # solved is the gathered reachable subchain, and Q = solved^d
                np.testing.assert_array_equal(solved[j], P[i][np.ix_(reach, reach)])
                np.testing.assert_array_equal(solved_alone[0], solved[j])
                np.testing.assert_array_equal(Q[j], Q_alone[0])
                assert laws.shape[1:] == (2, structure.period_lcm, 6)
                assert (laws[j][..., ~reach] == 0.0).all()
                assert np.max(np.abs(laws[j].sum(axis=-1) - 1.0)) <= 1e-14
        assert [groups[k][1].period_lcm for k in range(5)] == [1, 6, 1, 1, 3]
        assert reaches[3] == [True] * 3 + [False] * 3 and reaches[5] == [False, False, True,
                                                                          True, True, False]
        assert all(reaches[i] == [True] * 6 for i in (0, 1, 2, 4))


class TestPowerSum:
    """The doubling sum behind verify's Cesàro check equals the explicit
    N-term loop within 1e-12 N."""

    @pytest.mark.parametrize("structured", [False, True])
    def test_every_length_up_to_70(self, rng, structured):
        make = random_structured_kernel if structured else random_kernel
        P = make(rng, 6).probs
        for N in range(1, 71):
            gap = np.abs(_power_sum(P, N) / N - brute_force_cesaro(P, N))
            assert gap.max() <= 1e-12, N

    def test_verify_length_on_period_six_chain(self):
        # a 2-cycle and a 3-cycle fed by one transient state: period lcm 6
        P = np.zeros((6, 6))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 4] = P[4, 2] = 1.0
        P[5, [0, 2, 5]] = [0.3, 0.3, 0.4]
        d = structure_of(P > 0.0).period_lcm
        assert d == 6
        N = 20_000 * d
        gap = np.abs(_power_sum(P, N) / N - brute_force_cesaro(P, N))
        assert gap.max() <= 1e-12


def first_passage_kernels(rng, kind: str) -> list[TransitionKernel]:
    """Random, periodic (deterministic cycles, some with a transient state)
    or reducible kernels, whose taboo recursions all die out geometrically."""
    if kind == "random":
        return [random_kernel(rng, n) for n in (2, 4, 7)]
    if kind == "periodic":
        return [TransitionKernel([[1.0]]), SWAP, CYCLE3] + [
            random_structured_kernel(rng, n) for n in (4, 5, 6)]
    P = np.zeros((6, 6))
    P[0, 1] = P[1, 0] = 1.0
    P[2, 3] = P[3, 4] = P[4, 2] = 1.0
    P[5, [0, 2, 5]] = [0.3, 0.3, 0.4]
    return [ABSORB, TransitionKernel(P)]


def taboo_leftover(P: np.ndarray, hit: np.ndarray, horizon: int) -> np.ndarray:
    """X_j^horizon hit[:, j] for each target j, X_j being P with column j
    zeroed: the first-visit mass after ``horizon`` steps, which a taboo
    recursion truncated there has not collected."""
    left = np.empty_like(hit)
    for j in range(len(P)):
        taboo = P.copy()
        taboo[:, j] = 0.0
        left[:, j] = np.linalg.matrix_power(taboo, horizon) @ hit[:, j]
    return left


class TestFirstPassage:
    """``verify._hits_and_returns``, the dense-solve oracle behind the
    Cesàro check, against exact values and the per-target recursion."""

    def test_swap(self):
        f, m = verify._hits_and_returns(SWAP.probs)
        np.testing.assert_array_equal(f, np.ones((2, 2)))
        np.testing.assert_array_equal(m, [2.0, 2.0])

    def test_absorbing(self):
        f, m = verify._hits_and_returns(ABSORB.probs)
        np.testing.assert_array_equal(f, [[1.0, 0.0], [1.0, 0.0]])  # 1 never returns
        assert m[0] == 1.0 and math.isinf(m[1])

    def test_cycle3(self):
        f, m = verify._hits_and_returns(CYCLE3.probs)
        np.testing.assert_array_equal(f, np.ones((3, 3)))
        np.testing.assert_array_equal(m, [3.0, 3.0, 3.0])

    def test_cesaro_coefficients_formula(self, rng):
        # Pi[i, j] = f(i, j) / m(j, j) in every entry, both sides independent
        kernel = random_kernel(rng, 3)
        f, m = verify._hits_and_returns(kernel.probs)
        assert np.max(np.abs(cesaro_matrix(kernel) - f / m)) <= 1e-12

    def test_slow_leak_splits_one_third_two_thirds(self):
        # a recursion truncated at 2^20 steps still misses 0.029 of the 2/3
        P = SLOW_LEAK.probs
        f, m = verify._hits_and_returns(P)
        assert abs(f[0, 1] - 1 / 3) <= 1e-12 and abs(f[0, 2] - 2 / 3) <= 1e-12
        assert math.isinf(m[0]) and m[1] == m[2] == 1.0
        assert taboo_leftover(P, f, 2 ** 20)[0, 2] == pytest.approx(0.0286, abs=1e-4)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 8, 255, 256, 300])
    @pytest.mark.parametrize("kind", ["random", "periodic", "reducible"])
    def test_batched_matches_per_target_recursion(self, rng, kind, horizon):
        # at any horizon the recursion's hit probabilities are the oracle's
        # less the first-visit mass after the horizon, and its mean return
        # times are partial sums of the oracle's
        kernels = first_passage_kernels(rng, kind)
        if kind == "reducible":
            kernels.append(SLOW_LEAK)
        for kernel in kernels:
            P = kernel.probs
            f, m = verify._hits_and_returns(P)
            hit, mean_return = first_passage_per_target(P, horizon)
            assert np.max(np.abs(hit + taboo_leftover(P, f, horizon) - f)) <= 1e-13
            recurrent = classify_states(kernel).recurrent
            assert np.all(np.isinf(m[~recurrent]))
            assert np.all(mean_return[recurrent] <= m[recurrent] * (1.0 + 1e-13))

    @pytest.mark.parametrize("kind", ["random", "periodic", "reducible"])
    def test_converged_per_target_recursion_gives_both(self, rng, kind):
        # once the recursion's leftover is below 1e-14 it agrees with the
        # oracle on hit probabilities and mean return times
        horizon = 1000
        for kernel in first_passage_kernels(rng, kind):
            P = kernel.probs
            f, m = verify._hits_and_returns(P)
            assert np.max(taboo_leftover(P, f, horizon)) < 1e-14
            hit, mean_return = first_passage_per_target(P, horizon)
            recurrent = classify_states(kernel).recurrent
            assert np.max(np.abs(hit - f)) <= 1e-13
            assert np.max(np.abs(mean_return[recurrent] - m[recurrent])) <= 1e-13

    def test_cesaro_check_fails_on_a_skewed_stationary_law(self, monkeypatch):
        # every stationary vector off by 1e-9 (relative): far inside the
        # time average's 1e-3, far outside the f/m comparison's 1e-12
        gth = markov._gth_stationary

        def skewed(A):
            x = gth(A)
            x = x * (1.0 + 1e-9 * (-1.0) ** np.arange(x.shape[-1]))
            return x / x.sum(axis=-1, keepdims=True)

        monkeypatch.setattr(markov, "_gth_stationary", skewed)
        result = verify.run_check("cesaro_machinery", verify.check_cesaro_machinery)
        assert not result.passed and result.detail.startswith("pi = f/m gap")


class TestKernelValidation:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(DomainError, match="row 0"):
            TransitionKernel([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            TransitionKernel([[1.2, -0.2], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # every comparison with NaN is false, so a check written as
        # "any entry out of range" would let it through
        with pytest.raises(DomainError):
            TransitionKernel([[bad, 1.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            Distribution([bad, 1.0])

    def test_vector_is_one_row(self):
        # a vector's row sum is 0-d, so a check that only looks for bad
        # indices among the row sums would find none
        with pytest.raises(DomainError, match="v: sums to 0.9"):
            markov._check_stochastic(np.array([0.5, 0.4]), name="v")
        with pytest.raises(DomainError, match="v: has an entry"):
            markov._check_stochastic(np.array([1.2, -0.2]), name="v")
        markov._check_stochastic(np.array([0.6, 0.4]), name="v")

    def test_immutable(self):
        with pytest.raises(ValueError):
            SWAP.probs[0, 0] = 0.3
