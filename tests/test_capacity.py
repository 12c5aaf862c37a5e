import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workcap import (ChannelClassError, EnvironmentModel, PerceptActionLoop,
                     capacity_lower_bound, capacity_memoryless,
                     capacity_noiseless, capacity_unifilar_product,
                     check_capacity_bounds, check_subadditivity,
                     classify_agent_sets, work_rate)
from workcap.capacity import (_agent_from_params, _softmax_rows,
                              compute_capacity, stationarity_bisection)
from workcap.channels import is_memoryless_invariant
from workcap.info import LN2
from workcap.random_models import (random_environment,
                                   random_memoryless_environment)

FIG5_CAPACITY_NATS = 0.5 * math.log(0.75 + 2 ** -0.5)


def grid_search_oracle(reduced: np.ndarray, points: int = 200_001) -> tuple[float, float]:
    """Independent oracle for binary channels: dense scan of the one-shot
    work term H(A) - H(S) over the action simplex."""
    from scipy.special import xlogy
    p0 = np.linspace(0.0, 1.0, points)
    p = np.stack([p0, 1.0 - p0], axis=1)
    q = p @ reduced
    values = (-xlogy(p, p).sum(axis=1)) - (-xlogy(q, q).sum(axis=1))
    best = int(np.argmax(values))
    return float(values[best]), float(p0[best])


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
        assert abs(p0 - 2 ** -0.5) < 1e-6

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
        assert result.witness_params["action_distribution"][0] == pytest.approx(
            0.5, abs=1e-4)

    def test_identity_reduced_kernel_gives_zero(self, identity_env):
        result = capacity_memoryless(identity_env)
        assert abs(result.value_nats) < 1e-12

    def test_bisection_cross_check(self, fig5):
        reduced = is_memoryless_invariant(fig5)
        p0 = stationarity_bisection(reduced, 0.55, 0.95)
        assert p0 == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_witness_rate_equals_value(self, fig5, flip_noise):
        for env in (fig5, flip_noise):
            result = capacity_memoryless(env)
            rate = work_rate(PerceptActionLoop(result.witness, env),
                             base="nats").rate
            assert abs(rate - result.value_nats) < 1e-9


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
            assert values[0] <= values[1] + 1e-9
            assert values[1] <= values[2] + 1e-9

    def test_witness_rate_matches_value(self, fig5):
        result = capacity_lower_bound(fig5, memory_size=1, restarts=8, seed=1)
        rate = work_rate(PerceptActionLoop(result.witness, fig5), base="nats").rate
        assert abs(rate - result.value_nats) < 1e-9


class TestParameterization:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=20, max_size=20),
           st.sampled_from([0.5, 2.0, 7.0]))
    def test_scaling_preserves_rowwise_argmax(self, values, scale):
        x = np.array(values)
        a = _agent_from_params(x, ("0", "1"), ("m0", "m1"))
        b = _agent_from_params(scale * x, ("0", "1"), ("m0", "m1"))
        rows_a = a.theta.reshape(4, 4)
        rows_b = b.theta.reshape(4, 4)
        assert (rows_a.argmax(axis=1) == rows_b.argmax(axis=1)).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=8, max_size=8),
           st.floats(-5, 5))
    def test_shift_invariance(self, values, shift):
        x = np.array(values).reshape(2, 4)
        assert np.allclose(_softmax_rows(x), _softmax_rows(x + shift), atol=1e-12)


class TestCapacityProperties:
    def test_bounds_hold_for_all_methods(self, fig5, identity_env, golden_mean):
        for env, result in (
            (identity_env, capacity_noiseless(identity_env)),
            (fig5, capacity_memoryless(fig5)),
            (golden_mean, capacity_unifilar_product(golden_mean)),
        ):
            assert check_capacity_bounds(result, env)

    def test_subadditivity_fig5_with_itself(self, fig5):
        report = check_subadditivity(fig5, fig5)
        assert report.holds

    def test_subadditivity_identities(self, identity_env):
        report = check_subadditivity(identity_env, identity_env)
        assert report.holds
        assert report.value_cascade_nats == pytest.approx(0.0, abs=1e-12)

    def test_subadditivity_random_sweep(self, rng):
        for _ in range(10):
            report = check_subadditivity(random_memoryless_environment(rng),
                                         random_memoryless_environment(rng))
            assert report.holds

    def test_dispatch_priority(self, fig5, identity_env, golden_mean, rng):
        assert compute_capacity(identity_env).method == "closed_form_noiseless"
        assert compute_capacity(fig5).method == "closed_form_memoryless"
        assert compute_capacity(golden_mean).method == "closed_form_unifilar_product"
        general = compute_capacity(random_environment(rng, 2, 2),
                                   restarts=2)
        assert general.method == "numeric_lower_bound"


class TestClassifyAgentSets:
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
                                  tol=1e-6, reference_capacity_nats=cap)
        assert opt.is_efficient_vs and not opt.in_mea
        assert opt.pred_estimate > 0.0
