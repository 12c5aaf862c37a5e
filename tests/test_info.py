import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workcap import (ChannelClassError, DomainError, JointTable,
                     conditional_entropy, conditional_mutual_information,
                     entropy, entropy_rate)
from workcap import info
from workcap.errors import ConvergenceError, InternalConsistencyError
from workcap.info import LN2
from workcap.loop import PerceptActionLoop, _trajectory_marginal
from workcap.random_models import random_agent, random_environment

# frozen high-precision oracle values (evaluated from -sum p log2 p)
H_34_BITS = 0.8112781244591328  # H(3/4, 1/4)


def make_joint(names, probs):
    return JointTable(tuple(names), np.asarray(probs, dtype=float))


@st.composite
def joint_tables(draw, n_vars, max_size=3):
    sizes = [draw(st.integers(2, max_size)) for _ in range(n_vars)]
    n = int(np.prod(sizes))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    if total <= 1e-6:
        weights = [1.0] * n
        total = float(n)
    probs = np.array(weights).reshape(sizes) / total
    return JointTable(tuple(f"X{i}" for i in range(n_vars)), probs)


class TestEntropy:
    def test_uniform_four(self):
        j = make_joint(["X"], [0.25, 0.25, 0.25, 0.25])
        assert entropy(j, "X") == pytest.approx(2.0, abs=1e-12)

    def test_delta(self):
        j = make_joint(["X"], [1.0, 0.0, 0.0])
        assert entropy(j, "X") == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters(self):
        j = make_joint(["X"], [0.75, 0.25])
        assert entropy(j, "X") == pytest.approx(H_34_BITS, abs=1e-6)

    def test_unknown_variable(self):
        j = make_joint(["X"], [0.5, 0.5])
        with pytest.raises(KeyError):
            entropy(j, "Y")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(DomainError):
            JointTable(("X", "Y"), [[bad, 0.5], [0.25, 0.25]])

    def test_base_consistency(self):
        j = make_joint(["X"], [0.6, 0.3, 0.1])
        assert entropy(j, "X", base="bits") * LN2 == pytest.approx(
            entropy(j, "X", base="nats"), abs=1e-12)


class TestClampNonneg:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_named_as_such(self, bad):
        # NaN fails every comparison, so it must not be reported as negative
        with pytest.raises(InternalConsistencyError, match=r"entropy = .* is not finite"):
            info._clamp_nonneg(bad, "mean action entropy")

    def test_rounding_and_larger_negatives(self):
        assert info._clamp_nonneg(0.25, "entropy") == 0.25
        assert info._clamp_nonneg(-1e-12, "entropy") == 0.0
        with pytest.raises(InternalConsistencyError, match="negative beyond rounding"):
            info._clamp_nonneg(-1e-3, "entropy")


class TestJointTable:
    @pytest.mark.parametrize("view", ["array", "read_only_view"])
    def test_caller_array_never_aliased(self, view):
        base = np.full((2, 2), 0.25)
        probs = base
        if view == "read_only_view":
            probs = base.view()
            probs.setflags(write=False)  # the base stays writable
        j = JointTable(("X", "Y"), probs)
        base[0] = [0.5, 0.0]
        assert not np.shares_memory(j.probs, base)
        assert not j.probs.flags.writeable
        np.testing.assert_array_equal(j.probs, np.full((2, 2), 0.25))
        assert entropy(j) == pytest.approx(2.0, abs=1e-12)

    def test_marginal_is_frozen(self):
        j = make_joint(["X", "Y"], [[0.5, 0.25], [0.125, 0.125]])
        for keep, expected in ((["X"], [0.75, 0.25]), (["X", "Y"], j.probs)):
            m = j.marginal(keep)
            assert not m.probs.flags.writeable
            np.testing.assert_array_equal(m.probs, expected)

    def test_marginal_over_every_variable_is_fresh(self):
        # the sum kernel hands back a view when nothing is summed, also when
        # only axes of one entry are; the marginal still owns its array
        j = make_joint(["X", "Y", "Z"], [[[0.5], [0.25]], [[0.125], [0.125]]])
        for keep in (["X", "Y", "Z"], ["X", "Y"]):
            m = j.marginal(keep)
            assert m.variables == tuple(keep)
            assert not np.shares_memory(m.probs, j.probs)
            assert not m.probs.flags.writeable
            np.testing.assert_array_equal(m.probs.ravel(), j.probs.ravel())


class TestSumOut:
    @pytest.mark.parametrize("block", [info._SUM_BLOCK, 7, 40])
    def test_equals_numpy_sum_on_random_shapes_and_flags(self, rng, monkeypatch, block):
        # small blocks take the sliced routes: along a kept axis, and along a
        # summed one when a single kept entry's row exceeds the block
        monkeypatch.setattr(info, "_SUM_BLOCK", block)
        for _ in range(30):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 7)))
            probs = rng.random(shape)
            for pattern in range(2 ** len(shape)):
                kept = [bool(pattern >> i & 1) for i in range(len(shape))]
                got = info._sum_out(probs, kept)
                want = probs.sum(axis=tuple(i for i, k in enumerate(kept) if not k))
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("keep", [range(0, 22, 2), [10]])
    def test_interleaved_marginal_of_a_large_table_copies_one_block(self, keep):
        # 2^22 entries, near loop.TRAJECTORY_BUDGET; the summed axes interleave
        # with the kept ones, and with one kept axis each kept entry's row
        # (2^21 entries) alone exceeds the block
        names = tuple(f"X{i}" for i in range(22))
        j = JointTable._owning(names, np.full((2,) * 22, 2.0 ** -22))
        tracemalloc.start()
        try:
            m = j.marginal([names[i] for i in keep])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.probs.size == 2 ** len(keep)
        np.testing.assert_allclose(m.probs, 2.0 ** -len(keep), rtol=1e-15)
        assert peak <= 8 * info._SUM_BLOCK + m.probs.nbytes + 2 ** 16

    @pytest.mark.parametrize("shape", [(1 << 20, 2), (1 << 16, 3, 2)])
    def test_leading_summed_axis_within_ulps_of_fsum(self, shape):
        # each kept entry's terms are copied into one contiguous row and summed
        # pairwise; numpy's sum over a leading axis, or over a strided row,
        # adds them up one by one, 275 and 64 ulps off on these tables
        probs = np.random.default_rng(0).random(shape)
        probs /= probs.sum()
        got = info._sum_out(probs, [False] + [True] * (len(shape) - 1))
        rows = np.moveaxis(probs, 0, -1).reshape(got.size, -1)
        exact = np.array([math.fsum(row) for row in rows]).reshape(got.shape)
        assert (np.abs(got - exact) <= 4 * np.finfo(float).eps * exact).all()

    def test_marginal_entropies_near_a_long_double_reference(self):
        # each kept entry sums its past and A_t as one row, pairwise; numpy's
        # strided multi-axis sum accumulated them one by one, 8.7e-15 nats off
        rng = np.random.default_rng(7)
        for _ in range(3):
            pal = PerceptActionLoop(random_agent(rng, 3, 2), random_environment(rng, 3, 2))
            for t in range(1, 6):
                past = [f"A{i}" for i in range(t + 1)] + [f"S{i}" for i in range(t)]
                joint = _trajectory_marginal(pal, t + 1, {*past, f"M{t}", f"S{t}"})
                keep = (f"M{t}", f"S{t}")
                axes = tuple(i for i, n in enumerate(joint.variables) if n not in keep)
                exact = joint.probs.astype(np.longdouble).sum(axis=axes)
                exact = exact[exact > 0]
                reference = -(exact * np.log(exact)).sum()
                assert abs(entropy(joint, keep, base="nats") - reference) <= 1e-15


class TestXlogy:
    """``info._xlogy`` against ``scipy.special.xlogy``: 0 wherever x is 0,
    and otherwise x log y, whose log may differ from libm's by an ulp."""

    @staticmethod
    def assert_matches_scipy(x, y, got):
        special = pytest.importorskip("scipy.special")
        want = special.xlogy(x, y)
        exact = (x == 0) | (y == 0)  # 0, or an infinity of x's opposite sign
        assert got.shape == want.shape
        assert (got[exact] == want[exact]).all()
        np.testing.assert_allclose(got[~exact], want[~exact], rtol=4 * np.finfo(float).eps, atol=0)

    def test_matches_scipy_with_zeros_and_negative_x(self, rng):
        x = rng.random((300, 6)) * rng.choice([-1.0, 0.0, 1.0], size=(300, 6))
        y = rng.random((300, 6)) * (rng.random((300, 6)) < 0.8)
        with np.errstate(divide="ignore"):
            got = info._xlogy(x, y)
        assert ((x == 0) & (y == 0)).any() and (got[x == 0] == 0.0).all()
        self.assert_matches_scipy(x, y, got)
        # broadcast as capacity._ascent calls it: kernels against percept laws
        x, y = rng.random((4, 3, 5)), rng.random((4, 1, 5))
        self.assert_matches_scipy(x, y, info._xlogy(x, y))

    def test_capacity_gain_calls_match_scipy(self, rng, monkeypatch):
        from workcap import capacity
        seen = []

        def spy(x, y):
            seen.append((x, y, info._xlogy(x, y)))
            return seen[-1][2]
        monkeypatch.setattr(capacity, "_xlogy", spy)
        reduced = rng.dirichlet(np.ones(4), size=4)  # [a, s]
        p = rng.dirichlet(np.ones(4), size=50)
        p[::3, 0] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        cand = np.where(rng.random((50, 4)) < 0.2, 0.0, rng.dirichlet(np.ones(4), size=50))
        capacity._gain(reduced, p, cand / cand.sum(axis=1, keepdims=True))
        assert any((x < 0).any() for x, _, _ in seen)
        assert any(((x == 0) & (y == 0)).any() for x, y, _ in seen)
        for x, y, got in seen:
            self.assert_matches_scipy(x, y, got)


class TestConditionalEntropy:
    def test_independent(self):
        p = np.outer([0.3, 0.7], [0.25, 0.75])
        j = make_joint(["X", "Y"], p)
        assert conditional_entropy(j, "X", "Y") == pytest.approx(
            entropy(j, "X"), abs=1e-12)

    def test_copy_is_zero(self):
        p = np.diag([0.4, 0.6])
        j = make_joint(["X", "Y"], p)
        assert conditional_entropy(j, "X", "Y") == pytest.approx(0.0, abs=1e-12)

    def test_fig5_uniform_action(self, fig5):
        # H(S | A) = 1/2 * 0 + 1/2 * 1 = 0.5 bits under uniform actions
        e = fig5.emission()[:, 0, :]  # [a, s]
        j = make_joint(["A", "S"], 0.5 * e)
        assert conditional_entropy(j, "S", "A") == pytest.approx(0.5, abs=1e-12)

    def test_overlap_rejected(self):
        j = make_joint(["X", "Y"], np.full((2, 2), 0.25))
        with pytest.raises(DomainError):
            conditional_entropy(j, ("X",), ("X", "Y"))


class TestCMI:
    def test_independent_pair(self):
        p = np.outer([0.3, 0.7], [0.25, 0.75])
        j = make_joint(["A", "B"], p)
        assert conditional_mutual_information(j, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_equal_variables(self):
        p = np.diag([0.4, 0.6])
        j = make_joint(["A", "B"], p)
        assert conditional_mutual_information(j, "A", "B") == pytest.approx(
            entropy(j, "A"), abs=1e-12)

    def test_fig5_action_percept(self, fig5):
        e = fig5.emission()[:, 0, :]
        j = make_joint(["A", "S"], 0.5 * e)
        expected = H_34_BITS - 0.5
        assert conditional_mutual_information(j, "A", "S") == pytest.approx(
            expected, abs=1e-6)

    def test_overlap_rejected(self):
        j = make_joint(["A", "B"], np.full((2, 2), 0.25))
        with pytest.raises(DomainError):
            conditional_mutual_information(j, "A", "B", "A")


class TestChainRules:
    @settings(max_examples=60, deadline=None)
    @given(joint_tables(n_vars=4))
    def test_entropy_chain_rule(self, joint):
        total = entropy(joint, joint.variables, base="nats")
        acc = 0.0
        for t, name in enumerate(joint.variables):
            acc += conditional_entropy(joint, name, joint.variables[:t], base="nats")
        assert abs(total - acc) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(joint_tables(n_vars=4))
    def test_cmi_chain_rule(self, joint):
        x0, x1, y, z = joint.variables
        lhs = conditional_mutual_information(joint, (x0, x1), y, z, base="nats")
        rhs = (conditional_mutual_information(joint, x0, y, z, base="nats")
               + conditional_mutual_information(joint, x1, y, (z, x0), base="nats"))
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(joint_tables(n_vars=3))
    def test_nonnegativity_and_base_consistency(self, joint):
        a, b, c = joint.variables
        for base_pair in ((entropy, (joint, a)),
                          (conditional_entropy, (joint, a, b)),
                          (conditional_mutual_information, (joint, a, b, c))):
            func, arg = base_pair
            bits = func(*arg, base="bits")
            nats = func(*arg, base="nats")
            assert bits >= 0.0
            assert abs(bits * LN2 - nats) < 1e-12


class TestEntropyRate:
    def test_iid_biased_coin(self):
        from workcap import EnvironmentModel
        phi = np.zeros((2, 1, 2, 1))
        phi[:, 0, 0, 0] = 0.75
        phi[:, 0, 1, 0] = 0.25
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        assert entropy_rate(env) == pytest.approx(H_34_BITS, abs=1e-9)

    def test_alternating_source(self):
        from workcap import EnvironmentModel
        phi = np.zeros((2, 2, 2, 2))
        for a in range(2):
            phi[a, 0, 1, 1] = 1.0  # state 0 emits 1, moves to 1
            phi[a, 1, 0, 0] = 1.0  # state 1 emits 0, moves back
        env = EnvironmentModel(("0", "1"), ("u", "v"), phi, np.array([1.0, 0.0]))
        assert entropy_rate(env) == pytest.approx(0.0, abs=1e-12)
        # from the uniform start it is not unifilar, but its transitions are,
        # so the closed form gives 0 there too
        assert entropy_rate(uniform_start(env)) == 0.0

    def test_golden_mean_closed_form_vs_block_oracle(self, golden_mean):
        h = entropy_rate(golden_mean)
        assert h == pytest.approx(2.0 / 3.0, abs=1e-6)
        # independent oracle: block entropies from direct path enumeration
        oracle = block_entropy_oracle(golden_mean, n=18)
        assert abs(h - oracle) < 1e-5

    def test_unifilar_reducible_periodic_source(self):
        from workcap.channels import is_unifilar
        env = reducible_periodic_source(np.eye(N_Z_CYCLES)[0])
        assert is_unifilar(env) is not None
        expected = cycle_mixture_rate(0.3)
        assert expected == pytest.approx(0.70370896, abs=1e-8)
        assert abs(entropy_rate(env) - expected) <= 1e-12

    def test_mixed_start_reducible_periodic_source_takes_the_closed_form(self):
        # half the mass starts in the 2-cycle: that cycle holds 0.5 + 0.5 * 0.3 of
        # pi.  The start is not a delta, but the transitions are unifilar, so
        # given Z_0 the cycle and its phase are known and the closed form is
        # the rate; the sandwich's upper side learns the phase of the 2-cycle
        # (emissions 0.2 and 0.5) too slowly for the budget
        from workcap.channels import is_unifilar
        env = reducible_periodic_source(np.eye(N_Z_CYCLES)[:2].mean(axis=0))
        assert is_unifilar(env) is None
        assert abs(entropy_rate(env) - cycle_mixture_rate(0.65)) <= 1e-12

    def test_non_product_rejected(self, fig5):
        with pytest.raises(ChannelClassError):
            entropy_rate(fig5)

    def test_nonunifilar_block_route(self, rng):
        # a product channel with uniform initial state is not unifilar; the
        # block-entropy route must still converge for a fast-mixing source
        env = uniform_start(random_environment(rng, 2, 2, action_invariant=True))
        h = entropy_rate(env)
        oracle = block_entropy_oracle(env, n=16)
        assert abs(h - oracle) < 1e-4

    def test_block_route_reads_the_budget_when_called(self, rng, monkeypatch):
        # the first table p((Z_0, S_0), Z_1) holds n_z * |S| * n_z = 8 entries
        from workcap import loop
        env = uniform_start(random_environment(rng, 2, 2, action_invariant=True))
        monkeypatch.setattr(loop, "TRAJECTORY_BUDGET", 7)
        with pytest.raises(ConvergenceError, match="budget") as caught:
            entropy_rate(env)
        assert caught.value.estimates == (0.0, 1.0)  # no round: 0 <= rate <= log|S|
        monkeypatch.setattr(loop, "TRAJECTORY_BUDGET", 8)
        with pytest.raises(ConvergenceError, match="budget") as caught:
            entropy_rate(env, base="nats")
        # one round: H(S_0 | Z_0) <= rate <= H(S_0) under the stationary law
        pi = info._stationary_law(env)
        emission = env.phi[0].sum(axis=2)
        lower = float(-(pi[:, None] * emission * np.log(emission)).sum())
        upper = float(-(pi @ emission * np.log(pi @ emission)).sum())
        assert caught.value.estimates == pytest.approx((lower, upper), abs=1e-15)

    def test_golden_mean_from_a_uniform_start(self, golden_mean):
        # a product source that is not unifilar, since is_unifilar needs a
        # delta start, but whose transitions are: the closed form gives its
        # rate, exactly 2/3 bit
        from workcap.channels import is_unifilar
        env = uniform_start(golden_mean)
        assert is_unifilar(env) is None
        assert abs(entropy_rate(env) - 2.0 / 3.0) <= 1e-12

    def test_block_route_on_random_sources(self):
        # action-invariant draws with 2, 3 and 4 hidden states, in turn from one rng
        rng = np.random.default_rng(0)
        for n_hidden in (2, 3, 4):
            env = uniform_start(random_environment(rng, 2, n_hidden, action_invariant=True))
            h = entropy_rate(env)
            assert abs(h - block_entropy_oracle(env, n=18)) < 1e-5

    def test_sticky_source_raises_with_nested_certified_intervals(self, monkeypatch):
        # mixes too slowly for the budget (at loop.TRAJECTORY_BUDGET itself the
        # interval is still about 2.4e-9 nats wide); a larger budget narrows
        # the interval within the last one, and each holds 0.53082796608,
        # what the old two-estimate stopping rule returned
        from workcap import EnvironmentModel, loop
        emit = np.array([[0.9, 0.1], [0.2, 0.8]])
        move = np.array([[0.95, 0.05], [0.05, 0.95]])
        phi = emit[:, :, None] * move[:, None, :]
        env = EnvironmentModel(("0", "1"), ("u", "v"), np.stack([phi, phi]),
                               np.array([0.5, 0.5]))
        intervals = []
        for budget in (2 ** 12, 2 ** 16):
            monkeypatch.setattr(loop, "TRAJECTORY_BUDGET", budget)
            with pytest.raises(ConvergenceError, match="budget") as caught:
                entropy_rate(env, base="nats")
            intervals.append(caught.value.estimates)
        (lo_small, hi_small), (lo_large, hi_large) = intervals
        assert lo_small < lo_large < 0.53082796608 < hi_large < hi_small
        assert 1e-6 < hi_large - lo_large < 2e-6

    def test_unifilar_vs_block_on_random_sources(self, rng):
        from workcap import EnvironmentModel
        for _ in range(4):
            env = random_unifilar_source(rng, n_hidden=2)
            h = entropy_rate(env)
            oracle = block_entropy_oracle(env, n=17)
            assert abs(h - oracle) < 1e-5


def uniform_start(env):
    from workcap import EnvironmentModel
    return EnvironmentModel(env.alphabet, env.hidden_states, env.phi,
                            np.full(env.n_hidden, 1.0 / env.n_hidden))


# z0 is transient: it emits 0 (p = .3) into a 2-cycle and 1 into a 3-cycle,
# whose states emit 1 with the probabilities below
CYCLE_EMISSIONS = ((0.2, 0.5), (0.1, 0.4, 0.9))
N_Z_CYCLES = 1 + sum(map(len, CYCLE_EMISSIONS))


def reducible_periodic_source(initial):
    from workcap import EnvironmentModel
    phi = np.zeros((2, N_Z_CYCLES, 2, N_Z_CYCLES))
    phi[:, 0, 0, 1], phi[:, 0, 1, 3] = 0.3, 0.7
    offset = 1
    for emits in CYCLE_EMISSIONS:
        for i, e in enumerate(emits):
            nxt = offset + (i + 1) % len(emits)
            phi[:, offset + i, 0, nxt], phi[:, offset + i, 1, nxt] = 1.0 - e, e
        offset += len(emits)
    return EnvironmentModel(("0", "1"), tuple(f"z{i}" for i in range(N_Z_CYCLES)), phi,
                            initial)


def cycle_mixture_rate(weight_2_cycle: float) -> float:
    """The rate in bits of the reducible periodic source: the mean emission
    entropy of each cycle, weighted by the law's mass on that cycle."""
    def h(e):
        return -(e * math.log2(e) + (1.0 - e) * math.log2(1.0 - e))
    two, three = (np.mean([h(e) for e in emits]) for emits in CYCLE_EMISSIONS)
    return weight_2_cycle * two + (1.0 - weight_2_cycle) * three


def block_entropy_oracle(env, n: int) -> float:
    """Independent oracle: Aitken-accelerated limit of the conditional block
    entropies H(S_{0:k}) - H(S_{0:k-1}), computed by explicit enumeration of
    percept sequences under the all-zeros action sequence.  Level k holds one
    forward vector per positive-probability word of length k as a
    ``(words, n_z)`` array."""
    alpha = env.initial[None, :]
    blocks = []
    for length in range(n + 1):
        if length >= n - 3:
            probs = alpha.sum(axis=1)
            blocks.append(float(-(probs * np.log2(probs)).sum()))
        alpha = np.einsum("wy,ysz->wsz", alpha, env.phi[0]).reshape(-1, env.n_hidden)
        alpha = alpha[alpha.sum(axis=1) > 0]
    h = [b2 - b1 for b1, b2 in zip(blocks, blocks[1:])]
    # Aitken delta-squared on the geometric tail of the estimates
    d1, d2 = h[1] - h[0], h[2] - h[1]
    if abs(d2 - d1) < 1e-15:
        return h[2]
    return h[2] - d2 * d2 / (d2 - d1)


def random_unifilar_source(rng, n_hidden=2):
    """Random unifilar product model: random emissions, random deterministic
    successor map (with a pinned self-loop so the hidden chain is aperiodic
    and the oracle's conditional entropies converge), delta initial state."""
    from workcap import EnvironmentModel
    n_s = 2
    emit = rng.dirichlet(np.ones(n_s), size=n_hidden)
    emit = np.maximum(emit, 0.05)
    emit /= emit.sum(axis=1, keepdims=True)
    succ = rng.integers(0, n_hidden, size=(n_hidden, n_s))
    succ[0, 0] = 0
    phi = np.zeros((n_s, n_hidden, n_s, n_hidden))
    for a in range(n_s):
        for z in range(n_hidden):
            for s in range(n_s):
                phi[a, z, s, succ[z, s]] = emit[z, s]
    return EnvironmentModel(("0", "1"), tuple(f"z{i}" for i in range(n_hidden)),
                            phi, np.eye(n_hidden)[0])
