import math

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
from workcap.random_models import random_environment

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

    def test_golden_mean_closed_form_vs_block_oracle(self, golden_mean):
        h = entropy_rate(golden_mean)
        assert h == pytest.approx(2.0 / 3.0, abs=1e-6)
        # independent oracle: block entropies from direct path enumeration
        oracle = block_entropy_oracle(golden_mean, n=18)
        assert abs(h - oracle) < 1e-5

    def test_unifilar_reducible_periodic_source(self):
        # z0 is transient: it emits 0 (p = .3) into a 2-cycle and 1 into a
        # 3-cycle, whose states emit 1 with the probabilities below; the
        # rate is the absorption-weighted mean emission entropy per cycle
        from workcap import EnvironmentModel
        from workcap.channels import is_unifilar
        cycles = ((0.2, 0.5), (0.1, 0.4, 0.9))
        n_z = 1 + sum(map(len, cycles))
        phi = np.zeros((2, n_z, 2, n_z))
        phi[:, 0, 0, 1], phi[:, 0, 1, 3] = 0.3, 0.7
        offset = 1
        for emits in cycles:
            for i, e in enumerate(emits):
                nxt = offset + (i + 1) % len(emits)
                phi[:, offset + i, 0, nxt], phi[:, offset + i, 1, nxt] = 1.0 - e, e
            offset += len(emits)
        env = EnvironmentModel(("0", "1"), tuple(f"z{i}" for i in range(n_z)), phi,
                               np.eye(n_z)[0])
        assert is_unifilar(env) is not None

        def h(e):
            return -(e * math.log2(e) + (1.0 - e) * math.log2(1.0 - e))
        expected = 0.3 * np.mean([h(e) for e in cycles[0]]) + 0.7 * np.mean(
            [h(e) for e in cycles[1]])
        assert expected == pytest.approx(0.70370896, abs=1e-8)
        assert abs(entropy_rate(env) - expected) <= 1e-12

    def test_non_product_rejected(self, fig5):
        with pytest.raises(ChannelClassError):
            entropy_rate(fig5)

    def test_nonunifilar_block_route(self, rng):
        # a product channel with uniform initial state is not unifilar; the
        # block-entropy route must still converge for a fast-mixing source
        from workcap import EnvironmentModel
        base = random_environment(rng, 2, 2, action_invariant=True)
        env = EnvironmentModel(base.alphabet, base.hidden_states, base.phi,
                               np.array([0.5, 0.5]))
        h = entropy_rate(env, tol=1e-7)
        oracle = block_entropy_oracle(env, n=16)
        assert abs(h - oracle) < 1e-4

    def test_block_route_reads_the_budget_when_called(self, rng, monkeypatch):
        # the first prefix table holds n_z * |S| = 4 entries
        from workcap import EnvironmentModel
        base = random_environment(rng, 2, 2, action_invariant=True)
        env = EnvironmentModel(base.alphabet, base.hidden_states, base.phi,
                               np.array([0.5, 0.5]))
        monkeypatch.setattr(info, "ENUMERATION_BUDGET", 3)
        with pytest.raises(ConvergenceError, match="enumeration budget"):
            entropy_rate(env)

    def test_unifilar_vs_block_on_random_sources(self, rng):
        from workcap import EnvironmentModel
        for _ in range(4):
            env = random_unifilar_source(rng, n_hidden=2)
            h = entropy_rate(env)
            oracle = block_entropy_oracle(env, n=17)
            assert abs(h - oracle) < 1e-5


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
