import math

import numpy as np
import pytest

from workcap import (ChannelClassError, DomainError, EnvironmentModel,
                     PerceptActionLoop, build_identity, build_last_action,
                     build_memoryless, build_predictive, build_uniform)
from workcap.loop import (predictiveness_score, trajectory_distribution,
                          work_rate)
from workcap.random_models import random_agent, random_environment


def unifilar_feedback_env():
    """Unifilar but genuinely action-dependent (not product)."""
    phi = np.zeros((2, 2, 2, 2))
    emit = np.array([[[0.9, 0.1], [0.3, 0.7]], [[0.6, 0.4], [0.2, 0.8]]])
    for a in range(2):
        for z in range(2):
            for s in range(2):
                phi[a, z, s, (a + z + s) % 2] = emit[a, z, s]
    return EnvironmentModel(("0", "1"), ("u", "v"), phi, np.array([1.0, 0.0]))


class TestBuilders:
    def test_identity_kernel_echoes_percept(self):
        agent = build_identity(("0", "1"))
        assert agent.n_memory == 1
        for s in range(2):
            assert agent.theta[s, 0, s, 0] == 1.0
        assert agent.initial_joint[0, 0] == 1.0  # first symbol opens

    def test_identity_on_noiseless_env_repeats_action(self, identity_env):
        agent = build_identity(identity_env.alphabet)
        traj = trajectory_distribution(PerceptActionLoop(agent, identity_env), 3).joint
        marg = traj.marginal(("A0", "A1", "A2")).probs
        assert marg[0, 0, 0] == pytest.approx(1.0)

    def test_memoryless_iid_actions(self):
        agent = build_memoryless(("0", "1"), [0.7, 0.3])
        assert agent.n_memory == 1
        assert np.allclose(agent.theta[:, 0, :, 0], [[0.7, 0.3]] * 2)
        assert np.allclose(agent.initial_joint[:, 0], [0.7, 0.3])

    @pytest.mark.parametrize("builder", [build_memoryless, build_last_action])
    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf],
                                   [1.2, -0.2], [0.5, 0.6]])
    def test_rejects_non_distribution(self, builder, p):
        with pytest.raises(DomainError):
            builder(("0", "1"), p)

    def test_delta_action_zero_entropy(self, fig5):
        agent = build_memoryless(fig5.alphabet, [1.0, 0.0])
        assert work_rate(PerceptActionLoop(agent, fig5)).action_entropy == pytest.approx(
            0.0, abs=1e-12)

    def test_last_action_memory_mirrors_action(self, fig5):
        agent = build_last_action(fig5.alphabet, [0.5, 0.5])
        assert agent.memory_states == fig5.alphabet
        traj = trajectory_distribution(PerceptActionLoop(agent, fig5), 4).joint
        for t in range(4):
            pam = traj.marginal((f"M{t}", f"A{t}")).probs
            assert pam[0, 1] + pam[1, 0] == pytest.approx(0.0, abs=1e-15)


class TestPredictiveConstruction:
    def test_memory_size_general(self):
        env = unifilar_feedback_env()
        base = build_uniform(env.alphabet)
        agent = build_predictive(base, env)
        assert agent.n_memory == base.n_memory * len(env.alphabet) * env.n_hidden

    def test_memory_size_product_shortcut(self, golden_mean):
        agent = build_predictive(build_uniform(golden_mean.alphabet), golden_mean)
        assert agent.n_memory == 1 * golden_mean.n_hidden

    def test_scores_vanish_on_unifilar_env(self, rng):
        env = unifilar_feedback_env()
        # memoryless base keeps the t = 3 trajectory inside the table budget
        agent = build_predictive(build_uniform(env.alphabet), env)
        pal = PerceptActionLoop(agent, env)
        for t in range(4):
            assert abs(predictiveness_score(pal, t)) < 1e-10
        two_state_base = build_predictive(random_agent(rng, 2, 2), env)
        pal2 = PerceptActionLoop(two_state_base, env)
        for t in range(3):
            assert abs(predictiveness_score(pal2, t)) < 1e-10

    def test_channel_preserved(self, rng):
        # marginal p(A_{0:3}, S_{0:3}) identical for base and extension
        env = unifilar_feedback_env()
        base = random_agent(rng, 2, 2)
        ext = build_predictive(base, env)
        keep = [f"{v}{t}" for t in range(3) for v in "AS"]
        m_base = trajectory_distribution(PerceptActionLoop(base, env), 3).joint.marginal(keep)
        m_ext = trajectory_distribution(PerceptActionLoop(ext, env), 3).joint.marginal(keep)
        assert np.max(np.abs(m_base.probs - m_ext.probs)) < 1e-12

    def test_hidden_state_tracked_exactly(self):
        env = unifilar_feedback_env()
        agent = build_predictive(build_uniform(env.alphabet), env, circuit="general")
        pal = PerceptActionLoop(agent, env)
        traj = trajectory_distribution(pal, 4).joint
        n_z = env.n_hidden
        for t in range(4):
            pz = traj.marginal((f"M{t}", f"Z{t}")).probs
            mismatch = sum(pz[mem, z]
                           for mem in range(agent.n_memory)
                           for z in range(n_z) if z != mem % n_z)
            assert mismatch == pytest.approx(0.0, abs=1e-15)

    def test_general_and_product_circuits_agree(self, golden_mean, rng):
        base = random_agent(rng, 2, 2)
        a_general = build_predictive(base, golden_mean, circuit="general")
        a_product = build_predictive(base, golden_mean, circuit="product")
        keep = [f"{v}{t}" for t in range(3) for v in "AS"]
        m_g = trajectory_distribution(
            PerceptActionLoop(a_general, golden_mean), 3).joint.marginal(keep)
        m_p = trajectory_distribution(
            PerceptActionLoop(a_product, golden_mean), 3).joint.marginal(keep)
        assert np.max(np.abs(m_g.probs - m_p.probs)) < 1e-12
        for t in range(3):
            s_g = predictiveness_score(PerceptActionLoop(a_general, golden_mean), t)
            s_p = predictiveness_score(PerceptActionLoop(a_product, golden_mean), t)
            assert abs(s_g) < 1e-10 and abs(s_p) < 1e-10

    def test_uniform_predictive_attains_capacity(self, golden_mean):
        # the extension of the uniform agent is in mea and pred, and reaches
        # log|A| - h(S) on a unifilar product env
        from workcap.capacity import classify_agent_sets
        from workcap.loop import am_predictiveness
        agent = build_predictive(build_uniform(golden_mean.alphabet), golden_mean)
        pal = PerceptActionLoop(agent, golden_mean)
        rate = work_rate(pal).rate
        assert abs(rate - (1.0 - 2.0 / 3.0)) < 1e-6
        assert classify_agent_sets(golden_mean, agent, horizon=1).in_mea
        assert am_predictiveness(pal, horizon=4).last_score <= 1e-9

    def test_non_unifilar_env_rejected(self, rng):
        env = random_environment(rng, 2, 2)  # dense kernel: branching successors
        with pytest.raises(ChannelClassError):
            build_predictive(build_uniform(env.alphabet), env)

    def test_product_circuit_requires_action_invariance(self, fig5):
        with pytest.raises(ChannelClassError):
            build_predictive(build_uniform(fig5.alphabet), fig5, circuit="product")
