import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import xlogy

from workcap import (AgentModel, BudgetError, DimensionError,
                     EnvironmentModel, PerceptActionLoop, build_global_chain,
                     build_identity, build_memoryless, build_predictive,
                     build_uniform, build_last_action, trajectory_distribution,
                     work_rate)
from workcap import loop as loop_mod
from workcap import markov
from workcap.bayesnet import validate_compatibility
from workcap.capacity import _kernels_from_params, _params_from_agent, classify_agent_sets
from workcap.info import (JointTable, _entropy_nats, _sum_out, conditional_mutual_information,
                          entropy_rate)
from workcap.loop import (GlobalChain, _lift, _pre_percept_chain,
                          _rate_gradients, _trajectory_marginal, am_predictiveness,
                          future_predictiveness, predictiveness_score)
from workcap.markov import TransitionKernel, _limit_laws, classify_states
from workcap.random_models import random_agent, random_environment
from workcap import verify as verify_mod
from workcap.verify import _markov_deviation, load_bundled

FIG5_MEA_RATE_BITS = 1.0 - math.log(256 / 27) / math.log(16)


def _axis_placed(x: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    """View of x broadcast into an ndim-dimensional tensor at ``axes``."""
    order = np.argsort(axes)
    xt = np.transpose(x, order)
    shape = [1] * ndim
    for pos, size in zip(sorted(axes), xt.shape):
        shape[pos] = size
    return xt.reshape(shape)


def full_trajectory_table(loop: PerceptActionLoop, horizon: int) -> JointTable:
    """Oracle: the joint of ``horizon`` rounds as the product of every factor
    broadcast over the full (M, A, S, Z)^T table, with nothing summed out."""
    n_m, n_a, n_s, n_z = loop.shape
    T = horizon
    dims = (n_m, n_a, n_s, n_z) * T
    ndim = 4 * T

    def pos(var: str, t: int) -> int:
        return 4 * t + {"M": 0, "A": 1, "S": 2, "Z": 3}[var]

    emission = loop.env.phi.sum(axis=3)
    factors = [
        (loop.agent.initial_joint, (pos("A", 0), pos("M", 0))),
        (loop.env.initial, (pos("Z", 0),)),
        (emission, (pos("A", T - 1), pos("Z", T - 1), pos("S", T - 1))),
    ]
    for t in range(T - 1):
        factors.append((loop.agent.theta,
                        (pos("S", t), pos("M", t), pos("A", t + 1), pos("M", t + 1))))
        factors.append((loop.env.phi,
                        (pos("A", t), pos("Z", t), pos("S", t), pos("Z", t + 1))))

    table = np.ones(dims)
    for x, axes in factors:
        table *= _axis_placed(x, axes, ndim)

    names = tuple(f"{v}{t}" for t in range(T) for v in ("M", "A", "S", "Z"))
    return JointTable(names, table)


def oracle_loops(rng, fig5, golden_mean):
    """Random dense loops with memory and hidden sizes 1-3, and loops on
    fig5 and golden mean whose tables have zero entries."""
    loops = [PerceptActionLoop(random_agent(rng, 2, n_m), random_environment(rng, 2, n_z))
             for n_m in (1, 2, 3) for n_z in (1, 2, 3)]
    loops += [
        PerceptActionLoop(build_last_action(fig5.alphabet, [0.5, 0.5]), fig5),
        PerceptActionLoop(build_uniform(fig5.alphabet), fig5),
        PerceptActionLoop(build_predictive(build_uniform(golden_mean.alphabet),
                                           golden_mean, circuit="general"), golden_mean),
        PerceptActionLoop(random_agent(rng, 2, 2), golden_mean),
    ]
    return loops


def oracle_horizon(loop: PerceptActionLoop, most: int, entries: int = 2 * 10 ** 6) -> int:
    """The longest horizon up to ``most`` whose full table fits ``entries``."""
    per_round = math.prod(loop.shape)
    return max(h for h in range(1, most + 1) if per_round ** h <= entries)


class TestGlobalChain:
    def test_state_count_product(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 3))
        assert build_global_chain(pal).n_states == 2 * 2 * 2 * 3

    def test_fig5_memoryless_hand_computed(self, fig5):
        # one memory and one hidden state: the chain lives on (action, percept)
        # pairs and every feasible row equals p(a') * e(s' | a')
        agent = build_memoryless(fig5.alphabet, [0.5, 0.5])
        chain = build_global_chain(PerceptActionLoop(agent, fig5))
        expected_row = np.array([0.5 * 1.0, 0.5 * 0.0, 0.5 * 0.5, 0.5 * 0.5])
        for u in range(4):
            if chain.feasible[u]:
                assert np.allclose(chain.kernel.probs[u], expected_row, atol=1e-15)
        # initial: p(a) * e(s | a)
        assert np.allclose(chain.initial.probs, expected_row, atol=1e-15)

    def test_infeasible_pairs_flagged_and_never_entered(self, fig5):
        agent = build_memoryless(fig5.alphabet, [0.5, 0.5])
        chain = build_global_chain(PerceptActionLoop(agent, fig5))
        # (a=0, s=1) cannot be emitted
        infeasible = [u for u in range(4) if not chain.feasible[u]]
        assert infeasible == [1]
        assert not chain.reachable[1]
        # no feasible state ever transitions into it (only its own
        # placeholder row touches it)
        assert np.max(chain.kernel.probs[chain.feasible][:, 1]) == 0.0

    def test_rows_stochastic_including_placeholders(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 2))
        chain = build_global_chain(pal)
        assert np.max(np.abs(chain.kernel.probs.sum(axis=1) - 1.0)) < 1e-12

    def test_alphabet_mismatch_rejected(self, fig5):
        agent = build_uniform(("x", "y"))
        with pytest.raises(DimensionError):
            PerceptActionLoop(agent, fig5)


class TestTrajectory:
    def test_horizon_one_equals_initial(self, fig5, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2), fig5)
        chain = build_global_chain(pal)
        traj = trajectory_distribution(pal, 1)
        assert np.allclose(traj.joint.probs.reshape(-1), chain.initial.probs,
                           atol=1e-15)

    def test_markov_property_exact(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 2))
        flat = trajectory_distribution(pal, 3).joint.probs.reshape(16, 16, 16)
        j01 = flat.sum(axis=2)
        j12 = flat.sum(axis=0)
        j1 = j01.sum(axis=0)
        for u0 in range(16):
            for u1 in range(16):
                if j01[u0, u1] > 0:
                    lhs = flat[u0, u1] / j01[u0, u1]
                    rhs = j12[u1] / j1[u1]
                    assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("model,kind", [
        ("fig5", "identity"), ("fig5", "last_action"),
        ("identity", "identity"), ("identity", "last_action"), ("random", "random")])
    def test_markov_deviation_pass_matches_masked_conditionals(self, model, kind, rng):
        """verify's one-pass Markov deviations, for t = 2 and 3, equal bit for
        bit the masked-conditional formula: both conditionals divided where
        their mass is positive, the gap gathered on histories of positive
        mass.  The pass raises no RuntimeWarning on zero-mass histories."""
        if model == "random":
            pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 3))
        else:
            env = load_bundled(model)
            agent = (build_identity(env.alphabet) if kind == "identity"
                     else build_last_action(env.alphabet, [0.3, 0.7]))
            pal = PerceptActionLoop(agent, env)
        n = int(np.prod(pal.shape))
        flat = trajectory_distribution(pal, 4).joint.probs.reshape(n, n, n, n)
        p012 = flat.sum(axis=3)
        # deterministic agents leave most histories at zero mass, which
        # verify's dense random loops never do
        assert (p012.sum(axis=-1) == 0).any() == (model != "random")

        def masked(lhs, rhs):
            joint_hist = lhs.sum(axis=-1)
            cond_hist = np.divide(lhs, joint_hist[..., None], out=np.zeros_like(lhs),
                                  where=joint_hist[..., None] > 0)
            marg_hist = rhs.sum(axis=-1)
            cond_marg = np.divide(rhs, marg_hist[..., None], out=np.zeros_like(rhs),
                                  where=marg_hist[..., None] > 0)
            pad = (1,) * (lhs.ndim - rhs.ndim)
            diff = np.abs(cond_hist - cond_marg.reshape(pad + rhs.shape))
            mask = joint_hist[..., None] > 0
            return float(diff[np.broadcast_to(mask, diff.shape)].max())

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = (_markov_deviation(p012, p012.sum(axis=-1), flat.sum(axis=(0, 3))),
                   _markov_deviation(flat, p012, flat.sum(axis=(0, 1))))
        assert got == (masked(flat.sum(axis=3), flat.sum(axis=(0, 3))),
                       masked(flat, flat.sum(axis=(0, 1))))

    def test_marginal_matches_kernel_power(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 2))
        chain = build_global_chain(pal)
        traj = trajectory_distribution(pal, 3).joint
        p2 = chain.initial.probs @ np.linalg.matrix_power(chain.kernel.probs, 2)
        m2 = traj.marginal(("M2", "A2", "S2", "Z2")).probs.reshape(-1)
        assert np.max(np.abs(p2 - m2)) < 1e-12

    def test_normalized(self, golden_mean, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2), golden_mean)
        traj = trajectory_distribution(pal, 4).joint
        assert traj.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_keep_all_table_is_not_copied(self, rng):
        # the computed table becomes the JointTable as it is; a copy would put
        # the peak at twice the table.  The last message adds a quarter on
        # the first loop and a half on the second, a 16-memory, 16-hidden
        # binary loop whose one-round factor with every variable kept, by
        # the count of a dense diagonal embedding, would take 2.1 GB
        loops = [(PerceptActionLoop(random_agent(rng, 4, 1), random_environment(rng, 4, 1)), 5),
                 (PerceptActionLoop(random_agent(rng, 2, 16), random_environment(rng, 2, 16)),
                  2)]
        for loop, horizon in loops:
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                probs = trajectory_distribution(loop, horizon).joint.probs
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert probs.size == 2 ** 20
            assert not probs.flags.writeable
            assert probs.flags.c_contiguous
            assert peak < 1.6 * probs.nbytes

    def test_global_markov_reshape_is_a_view(self, monkeypatch):
        # check_global_markov reads each T=4 table as a 4-axis array over
        # global states; a C-contiguous table makes that reshape a view
        tables, joints = [], []
        real_table, real_deviation = loop_mod.trajectory_distribution, _markov_deviation

        def table(pal, horizon):
            traj = real_table(pal, horizon)
            tables.append(traj.joint.probs)
            return traj

        def deviation(joint, *rest):
            joints.append(joint)
            return real_deviation(joint, *rest)

        monkeypatch.setattr(loop_mod, "trajectory_distribution", table)
        monkeypatch.setattr(verify_mod, "_markov_deviation", deviation)
        verify_mod.check_global_markov(0)
        assert len(tables) == 10
        flats = [joint for joint in joints if joint.ndim == 4]  # the t = 3 deviations
        assert len(flats) == 10
        for flat, probs in zip(flats, tables):
            assert probs.flags.c_contiguous
            assert np.shares_memory(flat, probs)

    def test_budget_error_reports_required_size(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 3),
                                random_environment(rng, 2, 3))
        with pytest.raises(BudgetError) as excinfo:
            trajectory_distribution(pal, 5)
        assert excinfo.value.required == (3 * 2 * 2 * 3) ** 5


class TestContraction:
    def test_keep_all_matches_full_product(self, rng, fig5, golden_mean):
        for pal in oracle_loops(rng, fig5, golden_mean):
            for horizon in range(1, oracle_horizon(pal, 3) + 1):
                got = trajectory_distribution(pal, horizon).joint
                want = full_trajectory_table(pal, horizon)
                assert got.probs.flags.c_contiguous
                assert got.variables == want.variables
                assert np.max(np.abs(got.probs - want.probs)) <= 1e-15

    def test_any_keep_set_matches_oracle_marginal(self, rng, fig5, golden_mean):
        for pal in oracle_loops(rng, fig5, golden_mean):
            horizon = oracle_horizon(pal, 3)
            oracle = full_trajectory_table(pal, horizon)
            for _ in range(4):
                keep = [v for v in oracle.variables if rng.random() < 0.4]
                got = _trajectory_marginal(pal, horizon, keep)
                want = oracle.marginal(keep)
                assert got.probs.flags.c_contiguous
                assert got.variables == want.variables
                assert np.max(np.abs(got.probs - want.probs)) <= 1e-15

    def test_scores_match_oracle_cmi(self, rng, fig5, golden_mean):
        def oracle_cmi(oracle, t, k):
            past = [f"A{i}" for i in range(t + 1)] + [f"S{i}" for i in range(t)]
            future = [f"S{i}" for i in range(t, t + k)]
            joint = oracle.marginal([*past, *future, f"M{t}"])
            return conditional_mutual_information(joint, past, future, (f"M{t}",))

        for pal in oracle_loops(rng, fig5, golden_mean):
            # the first rounds' joint is a marginal of a longer horizon's
            horizon = oracle_horizon(pal, 6)
            oracle = full_trajectory_table(pal, horizon)
            scores = []
            for t in range(min(4, horizon)):
                scores.append(oracle_cmi(oracle, t, 1))
                assert abs(predictiveness_score(pal, t) - scores[-1]) <= 1e-13
                assert abs(am_predictiveness(pal, t + 1).mean - np.mean(scores)) <= 1e-13
                for k in range(1, min(3, horizon - t) + 1):
                    assert abs(future_predictiveness(pal, t, k)
                               - oracle_cmi(oracle, t, k)) <= 1e-13

    def test_one_pass_scores_equal_each_score(self, rng, fig5, golden_mean):
        # am_predictiveness reads every round's table off one pass; each of
        # its scores is the score of that round computed alone, bit for bit
        for pal in oracle_loops(rng, fig5, golden_mean):
            for horizon in range(1, 7):
                est = am_predictiveness(pal, horizon)
                assert len(est.scores) == horizon
                assert est.scores == tuple(predictiveness_score(pal, t) for t in range(horizon))
                assert est.last_score == est.scores[-1]
                assert est.mean == float(np.mean(est.scores))

    def test_scores_from_views_equal_the_generic_cmi(self, rng, fig5, golden_mean):
        # each score is read off a 4-axis view of its read-out; the generic
        # path sums the same table as a JointTable by variable names
        loops = oracle_loops(rng, fig5, golden_mean)
        loops.append(PerceptActionLoop(build_predictive(build_uniform(golden_mean.alphabet),
                                                        golden_mean), golden_mean))
        for pal in loops:
            for t in range(6):
                past = [f"A{i}" for i in range(t + 1)] + [f"S{i}" for i in range(t)]
                joint = _trajectory_marginal(pal, t + 1, {*past, f"M{t}", f"S{t}"})
                want = conditional_mutual_information(joint, past, (f"S{t}",), (f"M{t}",))
                assert abs(predictiveness_score(pal, t) - want) <= 1e-15

    def test_view_entropies_come_from_one_xlogy_bit_for_bit(self, rng, monkeypatch):
        # the three margins' terms are one _xlogy over their concatenation,
        # the table's another; each entropy is its segment's sum, which is
        # the margin's own _entropy_nats bit for bit, zero entries included
        calls = []
        real = loop_mod._xlogy

        def xlogy(x, y):
            calls.append(x.size)
            return real(x, y)
        monkeypatch.setattr(loop_mod, "_xlogy", xlogy)
        for shape in [(1, 1, 1, 2), (3, 2, 2, 2), (256, 3, 2, 2), (5, 1, 7, 3), (64, 4, 2, 8)]:
            p = rng.random(shape) ** 3
            p[p < 0.05] = 0.0
            p.flat[0] = 1.0
            p /= p.sum()
            calls.clear()
            got = loop_mod._view_cmi(p)
            margins = [_sum_out(p, kept) for kept in ((True, True, True, False),
                                                      (False, True, False, True),
                                                      (False, True, False, False))]
            assert calls == [sum(m.size for m in margins)]
            want = (_entropy_nats(margins[0]) + _entropy_nats(margins[1])
                    - _entropy_nats(p) - _entropy_nats(margins[2]))
            assert got == max(want, 0.0)

    def test_factors_are_built_once_per_loop_and_pattern(self, rng, monkeypatch):
        # every entry point reuses the env, agent, round and read-out factors
        # its loop built before, one per kind and pattern of the kept
        # variables it reads, and a second loop on the same models builds
        # its own
        built = []
        for name in ("_env_factor", "_agent_factor", "_round_factor"):
            def spy(*args, _name=name, _real=getattr(loop_mod, name)):
                built.append(_name)
                return _real(*args)
            monkeypatch.setattr(loop_mod, name, spy)
        agent, env = random_agent(rng, 2, 3), random_environment(rng, 2, 2)

        def every_entry_point(pal):
            am_predictiveness(pal, 5)
            for t in range(5):
                predictiveness_score(pal, t)
            future_predictiveness(pal, 1, 3)

        first, second = PerceptActionLoop(agent, env), PerceptActionLoop(agent, env)
        every_entry_point(first)
        once = len(built)
        assert once == len(first._factors)
        assert {key[0] for key in first._factors} == {"env", "agent", "read", "round"}
        every_entry_point(first)
        assert len(built) == once
        every_entry_point(second)
        assert len(built) == 2 * once
        assert second._factors.keys() == first._factors.keys()

    def test_pass_runs_each_round_once_in_one_form(self, rng, monkeypatch):
        # each round keeping A_t and S_t: the past has 1, 4, 16 and 64 rows
        # before rounds 0-3, and each round is one call of the round
        # function.  On shape (3, 2, 2, 2), 12 states (m, a, z), a round is
        # one product with F, which phi's product and then theta's build
        # once from the 12 point masses; on shape (3, 2, 2, 6), 36 states,
        # each round is phi's product and then theta's
        for n_z, form in ((2, [12]), (6, [1, 4, 16, 64])):
            pal = PerceptActionLoop(random_agent(rng, 2, 3), random_environment(rng, 2, n_z))
            rows, two = [], []
            real_step, real_two = loop_mod._step, loop_mod._two_products

            def step(loop, msg, kept):
                rows.append(len(msg))
                return real_step(loop, msg, kept)

            def two_products(msg, *args):
                two.append(len(msg))
                return real_two(msg, *args)
            monkeypatch.setattr(loop_mod, "_step", step)
            monkeypatch.setattr(loop_mod, "_two_products", two_products)
            am_predictiveness(pal, 5)
            assert rows == [1, 4, 16, 64]
            assert two == form
            am_predictiveness(pal, 5)
            assert two == form + ([] if n_z == 2 else [1, 4, 16, 64])
            monkeypatch.undo()

    def test_one_step_future_is_the_score(self, rng, fig5, golden_mean):
        # at future_len 1 the pass and the 4-axis view are the score's, so
        # the two agree bit for bit
        for pal in oracle_loops(rng, fig5, golden_mean):
            for t in range(4):
                assert future_predictiveness(pal, t, 1) == predictiveness_score(pal, t)

    def test_pass_checks_the_budget_before_any_product(self, golden_mean, monkeypatch):
        # the pass's arrays are those of its rounds' scores together, so its
        # required size is the largest of theirs, 2^20 at horizon 9 (see
        # test_budget_bounds_largest_table_formed), and no product is formed
        # before the budget is checked
        pal = PerceptActionLoop(build_predictive(build_uniform(golden_mean.alphabet),
                                                 golden_mean, circuit="general"),
                                golden_mean)

        def no_products(*args):
            raise AssertionError("a product was formed before the budget check")
        monkeypatch.setattr(loop_mod, "_run_pass", no_products)

        def required(call):
            with pytest.raises(BudgetError) as excinfo:
                call()
            return excinfo.value.required
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 0)
        for horizon in range(1, 10):
            assert required(lambda: am_predictiveness(pal, horizon)) == max(
                required(lambda t=t: predictiveness_score(pal, t)) for t in range(horizon))
        assert required(lambda: am_predictiveness(pal, 9)) == 2 ** 20
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 2 ** 20 - 1)
        assert required(lambda: am_predictiveness(pal, 9)) == 2 ** 20
        monkeypatch.undo()
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 2 ** 20)
        assert am_predictiveness(pal, 9).last_score <= 1e-10

    def test_budget_bounds_largest_table_formed(self, golden_mean, monkeypatch):
        # shape (4, 2, 2, 2); the score at t = 8 keeps A_0..A_8, S_0..S_8
        # and M_8.  Round 7's product forms [A_0..A_7, S_0..S_7, M_8, A_8,
        # Z_8] and round 8's read-out [A_0..A_8, S_0..S_8, M_8]: 2^16 * 16 =
        # 2^20 entries each, against 16^9 = 2^36 for the full joint.
        pal = PerceptActionLoop(build_predictive(build_uniform(golden_mean.alphabet),
                                                 golden_mean, circuit="general"),
                                golden_mean)
        assert pal.shape == (4, 2, 2, 2)
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 2 ** 20 - 1)
        with pytest.raises(BudgetError) as excinfo:
            predictiveness_score(pal, 8)
        assert excinfo.value.required == 2 ** 20
        assert excinfo.value.budget == 2 ** 20 - 1
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 2 ** 20)
        assert predictiveness_score(pal, 8) <= 1e-10

    def test_budget_counts_hidden_state_summed_early(self, rng, monkeypatch):
        # shape (1, 2, 2, 3), keeping S_0..S_3.  Each of rounds 0-2 is one
        # product with the round's factor F [(m, a, z), S_t, (n, b, w)], 6 *
        # 2 * 6 = 72 entries, the largest array.  As phi's product and then
        # theta's, phi's forms [S_0..S_t, Z_{t+1}] (Z_t and A_t summed
        # inside it), 2^t * 6 entries, and theta's [S_0..S_t, A_{t+1},
        # Z_{t+1}], 2^t * 12, which at t = 2 is the largest, 48.  Keeping
        # Z_t one product longer would form 2^t * 18 = 72 entries.
        pal = PerceptActionLoop(build_uniform(("0", "1")), random_environment(rng, 2, 3))
        assert pal.shape == (1, 2, 2, 3)
        percepts = {"S0", "S1", "S2", "S3"}
        want = full_trajectory_table(pal, 4).marginal(percepts)
        for bound, required in ((loop_mod._ONE_PRODUCT_STATES, 72), (0, 48)):
            monkeypatch.setattr(loop_mod, "_ONE_PRODUCT_STATES", bound)
            monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", required - 1)
            with pytest.raises(BudgetError) as excinfo:
                _trajectory_marginal(pal, 4, percepts)
            assert excinfo.value.required == required
            monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", required)
            got = _trajectory_marginal(pal, 4, percepts)
            assert np.max(np.abs(got.probs - want.probs)) <= 1e-15

    def test_budget_counts_the_round_factor(self, rng, monkeypatch):
        # shape (2, 2, 2, 2), 8 states (m, a, z), every variable kept over
        # two rounds: F [(m, a, z), M_0, A_0, S_0, Z_0, (n, b, w)] has 8 *
        # 16 * 8 = 1,024 entries, more than the 256-entry table, and the
        # pass counts it; as two products the table is the largest array
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))
        for bound, required in ((loop_mod._ONE_PRODUCT_STATES, 8 * 16 * 8), (7, 16 ** 2)):
            monkeypatch.setattr(loop_mod, "_ONE_PRODUCT_STATES", bound)
            monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", required - 1)
            with pytest.raises(BudgetError) as excinfo:
                trajectory_distribution(pal, 2)
            assert excinfo.value.required == required
            monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", required)
            assert trajectory_distribution(pal, 2).joint.probs.size == 16 ** 2
        assert ("round", (True,) * 4) in pal._factors
        assert pal._factors["round", (True,) * 4].size == 8 * 16 * 8

    def test_unknown_variable_rejected(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))
        with pytest.raises(KeyError):
            _trajectory_marginal(pal, 2, {"S2"})

    def test_every_entry_point_reads_the_budget_when_called(self, rng, monkeypatch):
        # the smallest table any contraction forms is the round-0 message,
        # M * A * Z = 8 entries, so a budget of 7 stops every call
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))
        calls = {
            "trajectory_distribution": lambda: trajectory_distribution(pal, 2),
            "predictiveness_score": lambda: predictiveness_score(pal, 1),
            "am_predictiveness": lambda: am_predictiveness(pal, 2),
            "future_predictiveness": lambda: future_predictiveness(pal, 0, 2),
            "validate_compatibility": lambda: validate_compatibility(pal, 2, n_triples=5),
        }
        for call in calls.values():
            call()
        monkeypatch.setattr(loop_mod, "TRAJECTORY_BUDGET", 7)
        for name, call in calls.items():
            with pytest.raises(BudgetError) as excinfo:
                call()
            assert excinfo.value.budget == 7, name


class TestOneProductRound:
    """A round as one product with its factor F, on loops of at most
    _ONE_PRODUCT_STATES states (m, a, z), against phi's product and then
    theta's, on loops on both sides of the bound: each quantity is formed
    with either form forced by moving the bound."""

    SHAPES = ((1, 1), (2, 2), (3, 3), (2, 4), (4, 4), (3, 6), (4, 6), (1, 18))  # (M, Z)

    @staticmethod
    def both_forms(monkeypatch, agent, env, quantity):
        """``quantity`` of a fresh loop with every round one product, and
        with every round two products."""
        got = []
        for bound in (10 ** 6, 0):
            monkeypatch.setattr(loop_mod, "_ONE_PRODUCT_STATES", bound)
            got.append(quantity(PerceptActionLoop(agent, env)))
        monkeypatch.undo()
        return got

    def test_rounds_agree(self, rng, monkeypatch):
        states = [2 * n_m * n_z for n_m, n_z in self.SHAPES]
        assert min(states) <= loop_mod._ONE_PRODUCT_STATES < max(states)  # both sides
        for n_m, n_z in self.SHAPES:
            agent, env = random_agent(rng, 2, n_m), random_environment(rng, 2, n_z)
            state = 2 * n_m * n_z
            for kept in [(False,) * 4, (False, True, True, False), (True,) * 4]:
                msg = rng.random((5, state))
                one, two = self.both_forms(monkeypatch, agent, env,
                                           lambda pal: loop_mod._step(pal, msg, kept))
                assert one.shape == two.shape and one.flags.c_contiguous
                assert np.max(np.abs(one - two)) <= 1e-15 * np.max(np.abs(two))

    def test_tables_scores_and_residuals_agree(self, rng, monkeypatch):
        # a table's entries agree within 1e-15 of its largest; a score is a
        # difference of entropies of up to log2 of its table's entries, so
        # it agrees within 1e-15 of that; a residual is a gap between laws
        for n_m, n_z in self.SHAPES:
            agent, env = random_agent(rng, 2, n_m), random_environment(rng, 2, n_z)
            horizon = 2 if 4 * n_m * n_z > 40 else 3
            one, two = self.both_forms(monkeypatch, agent, env, lambda pal: (
                trajectory_distribution(pal, horizon).joint.probs,
                _trajectory_marginal(pal, 3, {"S0", "M1", "S2"}).probs,
                am_predictiveness(pal, 4).scores,
                future_predictiveness(pal, 1, 2),
                work_rate(pal, rounds=0).residual))
            for table, want in zip(one[:2], two[:2]):
                assert np.max(np.abs(table - want)) <= 1e-15 * np.max(want)
            for t, (score, want) in enumerate(zip(one[2], two[2])):
                entries = 4 ** t * n_m * 2 * 2  # (A_0..A_{t-1}, S_0..S_{t-1}), M_t, A_t, S_t
                assert abs(score - want) <= 1e-15 * math.log2(entries)
            assert abs(one[3] - two[3]) <= 1e-15 * math.log2(4 ** 2 * n_m * 2 * 2)
            assert abs(one[4] - two[4]) <= 1e-15

    def test_small_residual_applies_the_pre_percept_kernel(self, rng):
        # below the bound the residual's factor F with nothing kept is the
        # pre-percept kernel Kw
        for n_m, n_z in self.SHAPES[:5]:
            pal = PerceptActionLoop(random_agent(rng, 2, n_m), random_environment(rng, 2, n_z))
            work_rate(pal, rounds=0)
            K, _ = loop_mod._pre_percept_chain(pal.env, pal.agent.theta[None],
                                               pal.agent.initial_joint[None])
            assert np.max(np.abs(pal._factors["round", (False,) * 4] - K[0])) <= 1e-15

    def test_work_rate_without_rounds_skips_the_round_terms(self, rng, monkeypatch):
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))
        calls = []
        real = loop_mod._work_terms

        def work_terms(*args):
            calls.append(args[0].shape)
            return real(*args)
        monkeypatch.setattr(loop_mod, "_work_terms", work_terms)
        report = work_rate(pal, rounds=0)
        assert report.per_round == ()
        assert len(calls) == 1  # the limit laws' terms only
        assert replace(work_rate(pal, rounds=3), per_round=()) == report


class TestMarkovDeviationSlices:
    """verify's Markov deviation, formed in slices of one reused buffer,
    against the deviation formed over the whole table at once."""

    @staticmethod
    def whole_table(joint, mass, pair):
        step_mass = pair.sum(axis=-1)
        step = np.divide(pair, step_mass[:, None],
                         out=np.zeros_like(pair), where=step_mass[:, None] > 0)
        positive = mass > 0
        dev = joint / np.where(positive, mass, 1.0)[..., None]
        dev -= step
        np.abs(dev, out=dev)
        dev[~positive] = 0.0
        return float(dev.max())

    def deviations(self, pal):
        n = int(np.prod(pal.shape))
        flat = trajectory_distribution(pal, 4).joint.probs.reshape(n, n, n, n)
        p012 = flat.sum(axis=3)
        return ((p012, p012.sum(axis=-1), flat.sum(axis=(0, 3))),
                (flat, p012, flat.sum(axis=(0, 1))))

    def test_slices_equal_the_whole_table(self, rng, fig5, identity_env, monkeypatch):
        # deterministic agents on fig5 and identity leave histories of zero
        # mass; blocks of one, two and three u_{t-1} cycles, the last
        # slice ragged, and the default block
        loops = [PerceptActionLoop(build_identity(fig5.alphabet), fig5),
                 PerceptActionLoop(build_last_action(identity_env.alphabet, [0.3, 0.7]),
                                   identity_env),
                 PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 3))]
        for pal in loops:
            n = int(np.prod(pal.shape))
            for args in self.deviations(pal):
                want = self.whole_table(*args)
                for block in (n * n, 2 * n * n, 3 * n * n, verify_mod._DEVIATION_BLOCK):
                    monkeypatch.setattr(verify_mod, "_DEVIATION_BLOCK", block)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        assert _markov_deviation(*args) == want
        assert (self.deviations(loops[0])[0][1] == 0).any()

    def test_no_table_sized_temporary(self, rng):
        # verify's largest loop, 36 states per round: the T=4 table takes
        # 13.4 MB, and the deviation's temporaries stay under an eighth of it
        pal = PerceptActionLoop(random_agent(rng, 2, 3), random_environment(rng, 2, 3))
        _, (flat, p012, p23) = self.deviations(pal)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            got = _markov_deviation(flat, p012, p23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flat.size == 36 ** 4
        assert peak < flat.nbytes / 8
        assert got == self.whole_table(flat, p012, p23)


class TestWorkRate:
    def test_identity_agent_extracts_nothing(self, rng):
        for _ in range(5):
            env = random_environment(rng, 2, 2)
            pal = PerceptActionLoop(build_identity(env.alphabet), env)
            assert abs(work_rate(pal).rate) < 1e-10

    def test_fig5_uniform_rate(self, fig5):
        pal = PerceptActionLoop(build_uniform(fig5.alphabet), fig5)
        report = work_rate(pal)
        assert abs(report.rate - FIG5_MEA_RATE_BITS) < 1e-9
        assert report.units == "bits"

    def test_fig5_optimal_rate_matches_closed_form(self, fig5):
        p0 = 2 ** -0.5
        pal = PerceptActionLoop(build_memoryless(fig5.alphabet, [p0, 1 - p0]), fig5)
        rate = work_rate(pal, base="nats").rate
        assert abs(rate - 0.5 * math.log(0.75 + 2 ** -0.5)) < 1e-6

    def test_per_round_within_entropy_bounds(self, rng):
        # -log|S| <= W_t <= log|A| for every round
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 2))
        report = work_rate(pal, rounds=12, base="nats")
        for w in report.per_round:
            assert -math.log(2) - 1e-12 <= w <= math.log(2) + 1e-12

    def test_rate_matches_truncated_mean(self, fig5):
        # loops with modest transients: the truncated Cesàro mean carries an
        # O(total transient / N) error, so wild starts need larger N
        gen = np.random.default_rng(2)
        loops = [
            PerceptActionLoop(random_agent(gen, 2, 2), random_environment(gen, 2, 2)),
            PerceptActionLoop(build_last_action(fig5.alphabet, [0.5, 0.5]), fig5),
            PerceptActionLoop(build_uniform(fig5.alphabet), fig5),
        ]
        for pal in loops:
            report = work_rate(pal, base="nats")
            n_rounds = 5000 * report.period_used
            truncated = work_rate(pal, rounds=n_rounds, base="nats")
            assert abs(np.mean(truncated.per_round) - report.rate) < 1e-4

    def test_product_env_decomposition(self, golden_mean):
        # W = <H(A|M)> - h(S) - <predictiveness>, each term computed by its
        # own route, for a loop whose scores vanish identically
        agent = build_predictive(build_uniform(golden_mean.alphabet), golden_mean)
        pal = PerceptActionLoop(agent, golden_mean)
        report = work_rate(pal, base="nats")
        lhs, action_term = report.rate, report.action_entropy
        h = entropy_rate(golden_mean, base="nats")
        cmi_term = am_predictiveness(pal, horizon=4, base="nats").mean
        assert abs(lhs - (action_term - h - cmi_term)) < 1e-6

    def test_iid_source_decomposition(self):
        from workcap import EnvironmentModel
        phi = np.zeros((2, 1, 2, 1))
        phi[:, 0, 0, 0] = 0.75
        phi[:, 0, 1, 0] = 0.25
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        pal = PerceptActionLoop(build_uniform(env.alphabet), env)
        lhs = work_rate(pal, base="nats").rate
        rhs = math.log(2) - entropy_rate(env, base="nats") - 0.0
        assert abs(lhs - rhs) < 1e-9

    def test_models_at_the_row_sum_tolerance(self, rng):
        # every row of both models sums to 1 + 0.9e-12, within ROW_SUM_TOL,
        # so both construct; the composed kernel's rows miss 1 by about
        # twice that, and neither work_rate nor build_global_chain may
        # reject what construction took
        env, agent = random_environment(rng, 2, 2), random_agent(rng, 2, 2)
        scale = 1.0 + 0.9e-12
        env_edge = EnvironmentModel(env.alphabet, env.hidden_states, env.phi * scale,
                                    env.initial)
        agent_edge = AgentModel(agent.alphabet, agent.memory_states, agent.theta * scale,
                                agent.initial_joint)
        assert np.abs(env_edge.phi.sum(axis=(2, 3)) - 1.0).min() > 0.8e-12
        assert np.abs(agent_edge.theta.sum(axis=(2, 3)) - 1.0).min() > 0.8e-12
        rate = work_rate(PerceptActionLoop(agent_edge, env_edge), base="nats").rate
        assert abs(rate - work_rate(PerceptActionLoop(agent, env), base="nats").rate) <= 1e-10
        chain = build_global_chain(PerceptActionLoop(agent_edge, env_edge))
        plain = build_global_chain(PerceptActionLoop(agent, env))
        assert np.abs(chain.kernel.probs.sum(axis=1) - 1.0).max() > markov.ROW_SUM_TOL
        assert np.abs(chain.kernel.probs - plain.kernel.probs).max() <= 1e-11
        assert np.abs(chain.initial.probs - plain.initial.probs).max() <= 1e-11
        assert not (chain.kernel.probs.flags.writeable or chain.initial.probs.flags.writeable)


class TestPredictiveness:
    def test_uniform_agent_on_fig5_round_zero(self, fig5):
        pal = PerceptActionLoop(build_uniform(fig5.alphabet), fig5)
        expected = 0.8112781244591328 - 0.5  # I[A_0; S_0] in bits
        assert predictiveness_score(pal, 0) == pytest.approx(expected, abs=1e-6)

    def test_last_action_agent_scores_zero(self, fig5):
        pal = PerceptActionLoop(build_last_action(fig5.alphabet, [0.5, 0.5]), fig5)
        for t in range(4):
            assert abs(predictiveness_score(pal, t)) <= 1e-10

    def test_am_predictiveness_three_loops(self, fig5, golden_mean):
        pred = build_predictive(build_uniform(golden_mean.alphabet), golden_mean)
        est = am_predictiveness(PerceptActionLoop(pred, golden_mean), horizon=4)
        assert est.mean == pytest.approx(0.0, abs=1e-10)

        last = build_last_action(fig5.alphabet, [0.5, 0.5])
        est = am_predictiveness(PerceptActionLoop(last, fig5), horizon=4)
        assert est.mean == pytest.approx(0.0, abs=1e-10)

        uni = build_uniform(fig5.alphabet)
        est = am_predictiveness(PerceptActionLoop(uni, fig5), horizon=4)
        assert est.mean == pytest.approx(0.3112781244591328, abs=1e-3)
        assert est.horizon == 4

    def test_future_predictiveness_zero_for_predictive_agent(self, golden_mean):
        pred = build_predictive(build_uniform(golden_mean.alphabet), golden_mean)
        pal = PerceptActionLoop(pred, golden_mean)
        assert future_predictiveness(pal, t=1, future_len=2) == pytest.approx(
            0.0, abs=1e-10)

    def test_future_predictiveness_zero_on_iid_source(self):
        from workcap import EnvironmentModel
        phi = np.zeros((2, 1, 2, 1))
        phi[:, 0, 0, 0] = 0.75
        phi[:, 0, 1, 0] = 0.25
        env = EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))
        pal = PerceptActionLoop(build_uniform(env.alphabet), env)
        assert future_predictiveness(pal, t=1, future_len=2) == pytest.approx(
            0.0, abs=1e-12)

    def test_future_predictiveness_positive_on_golden_mean(self, golden_mean):
        pal = PerceptActionLoop(build_uniform(golden_mean.alphabet), golden_mean)
        value = future_predictiveness(pal, t=1, future_len=1)
        assert value > 1e-3

    @pytest.mark.parametrize("circuit", ["general", "product"])
    def test_golden_mean_predictive_agent_scores_zero(self, golden_mean, circuit):
        # the full joint of t + 1 rounds would need 16^(t+1) or more entries,
        # beyond the default budget from t = 5; its marginals stay small
        pred = build_predictive(build_uniform(golden_mean.alphabet), golden_mean,
                                circuit=circuit)
        pal = PerceptActionLoop(pred, golden_mean)
        for t in range(9):
            assert 0.0 <= predictiveness_score(pal, t) <= 1e-10

    def test_future_predictiveness_monotone_in_k(self, golden_mean, rng):
        for pal in (PerceptActionLoop(build_uniform(golden_mean.alphabet), golden_mean),
                    PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))):
            values = [future_predictiveness(pal, t=1, future_len=k) for k in (1, 2, 3, 4)]
            assert values[0] > 1e-6
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestMaxEntropyActions:
    """The mea verdict of ``classify_agent_sets``: the Cesàro limit of
    H(A_t|M_t) attains log |A| within 1e-9."""

    def test_uniform_agent(self, fig5):
        report = classify_agent_sets(fig5, build_uniform(fig5.alphabet), horizon=1)
        assert report.in_mea
        assert report.mean_action_entropy_nats == pytest.approx(math.log(2), abs=1e-12)

    def test_last_action_agent_limit_zero(self, fig5):
        report = classify_agent_sets(fig5, build_last_action(fig5.alphabet, [0.5, 0.5]),
                                     horizon=1)
        assert not report.in_mea
        assert report.mean_action_entropy_nats == pytest.approx(0.0, abs=1e-12)

    def test_delta_agent(self, fig5):
        report = classify_agent_sets(fig5, build_memoryless(fig5.alphabet, [1.0, 0.0]),
                                     horizon=1)
        assert not report.in_mea
        assert report.mean_action_entropy_nats == pytest.approx(0.0, abs=1e-12)


def stack(agents):
    return (np.stack([a.theta for a in agents]),
            np.stack([a.initial_joint for a in agents]))


def agents_of(alphabet, theta, init):
    memory = tuple(f"m{i}" for i in range(theta.shape[2]))
    return [AgentModel(alphabet, memory, th, ini) for th, ini in zip(theta, init)]


def by_pattern(patterns: np.ndarray) -> list[list[int]]:
    """Indices of a stack's members grouped by equal boolean pattern, in
    order of first appearance."""
    groups: dict[bytes, list[int]] = {}
    for i, bits in enumerate(np.packbits(patterns.reshape(len(patterns), -1), axis=1)):
        groups.setdefault(bits.tobytes(), []).append(i)
    return list(groups.values())


def gather_power_limit(Q, closed, V):
    """Oracle: the gather path of ``markov._power_limit``, which takes every
    closed class with ``take`` and ``ix_``, even one holding every state,
    and assigns its law and its stationary vector into zeroed arrays.
    Absorption is the engine's (``tests/test_markov.py`` checks it against
    a pivoting solve)."""
    transient = np.ones(Q.shape[-1], dtype=bool)
    absorb = np.zeros((len(Q), Q.shape[-1], len(closed)))
    weights = []
    for c, members in enumerate(closed):
        transient[members] = False
        absorb[:, members, c] = 1.0
        weights.append(V.take(members, axis=2).sum(axis=2))
    t = np.flatnonzero(transient)
    if t.size:
        absorb[:, t] = markov._absorption(Q, closed, t)
        absorbed = V.take(t, axis=2) @ absorb[:, t]
        weights = [w + absorbed[:, :, c] for c, w in enumerate(weights)]
    laws = np.zeros(V.shape)
    stationary = np.zeros((len(Q), len(closed), Q.shape[-1]))
    for c, (members, w) in enumerate(zip(closed, weights)):
        pi = markov._gth_stationary(Q[np.ix_(np.arange(len(Q)), members, members)])
        laws[:, :, members] = w[:, :, None] * pi[:, None, :]
        stationary[:, c, members] = pi
    return laws, absorb, stationary


def structure_of(support):
    """The structure of the chain on every state of the pattern ``support``."""
    return markov._pattern_groups(support[None])[0][1]


def gather_group_laws(P, u):
    """Oracle: the laws and limit of ``markov._limit_laws`` on a stack of
    one pattern whose every state is reachable, by
    :func:`gather_power_limit`, with the structure worked out from ``P`` on
    every call."""
    structure = structure_of(P[0] > 0.0)
    d = structure.period_lcm
    if d == 1:
        laws, absorb, stationary = gather_power_limit(P, structure.closed, u)
        return structure, laws[:, :, None], (P, absorb, stationary)
    steps = [u]
    for _ in range(d - 1):
        steps.append(steps[-1] @ P)
    V = np.stack(steps, axis=2).reshape(len(P), -1, P.shape[-1])
    Q = np.linalg.matrix_power(P, d)
    laws = np.empty_like(V)
    parts = []
    for idx in by_pattern(Q > 0.0):
        laws[idx], *factors = gather_power_limit(
            Q[idx], structure_of(Q[idx[0]] > 0.0).closed, V[idx])
        parts.append((idx, *factors))
    C = max(a.shape[-1] for _, a, _ in parts)
    absorb, stationary = np.zeros((*P.shape[:2], C)), np.zeros((len(P), C, P.shape[-1]))
    for idx, a, s in parts:
        absorb[idx, :, :a.shape[-1]] = a
        stationary[idx, :s.shape[1]] = s
    return structure, laws.reshape(*u.shape[:2], d, -1), (Q, absorb, stationary)


def gather_limit_laws(P, u, overwrite=False):
    """Oracle: ``markov._limit_laws`` by its gather path, which groups the
    members by equal patterns, searches each group's reachable states on
    every call, gathers the reachable subchain with ``ix_`` even when it is
    the whole chain, and pads its laws from :func:`gather_group_laws` into
    zeroed arrays; it never writes ``P``."""
    B, k, n = u.shape
    support, start = P > 0.0, (u > 0.0).any(axis=1)
    groups = []
    for members in by_pattern(np.concatenate([support.reshape(B, -1), start], axis=1)):
        reach = markov.bfs_levels(start[members[0]], support[members[0]]) >= 0
        solved = P[np.ix_(members, reach, reach)]
        sub, laws, limit = gather_group_laws(solved, u[np.ix_(members, range(k), reach)])
        padded = np.zeros((len(members), k, sub.period_lcm, n))
        padded[..., reach] = laws
        groups.append((members, markov._Structure(reach, sub.closed, sub.period_lcm), padded,
                       solved, limit))
    return groups


def assert_equals_gather_path(env, agents):
    """The pre-percept kernels are the einsum's reshaped result bit for
    bit, and the batched rates and each work_rate report equal, bit for
    bit, those of the gather path (:func:`gather_limit_laws`), which
    work_rate, handing its kernel over, and _rate_gradients both run."""
    import workcap.loop as loop_mod
    theta, init = stack(agents)
    K, p0 = loop_mod._pre_percept_chain(env, theta, init)
    n = K.shape[-1]
    assert K.flags.c_contiguous
    np.testing.assert_array_equal(
        K, np.einsum("azsw,Bsmbn->Bmaznbw", env.phi, theta).reshape(len(K), n, n))
    np.testing.assert_array_equal(
        p0, np.einsum("Bam,z->Bmaz", init, env.initial).reshape(len(K), n))
    loops = [PerceptActionLoop(agent, env) for agent in agents]
    rates, grads = _rate_gradients(env, theta, init)
    reports = [work_rate(pal, rounds=3, base="nats") for pal in loops]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loop_mod, "_limit_laws", gather_limit_laws)
        oracle_rates, oracle_grads = _rate_gradients(env, theta, init)
        oracles = [work_rate(pal, rounds=3, base="nats") for pal in loops]
    assert rates.tolist() == oracle_rates.tolist()
    for got, want in zip(grads, oracle_grads):
        np.testing.assert_array_equal(got, want)
    for report, oracle in zip(reports, oracles):
        assert report == oracle
        assert np.array_equal(report.reachable, oracle.reachable)
        assert np.array_equal(report.cesaro_law, oracle.cesaro_law)


def limit_state_tables(chain: GlobalChain):
    """The reachable subchain's structure, its n x n Cesàro matrix (the
    limit laws of all n point starts) and the full-shape p(m, a, s, z)
    under each subsequence limit, from the point starts' laws contracted
    with the round-0 vector."""
    reach = np.flatnonzero(chain.reachable)
    sub = chain.kernel.probs[np.ix_(reach, reach)]
    ((_, structure, (laws,), _, _),) = _limit_laws(sub[None], np.eye(reach.size)[None])
    init = chain.initial.probs[reach]
    tables = []
    for r in range(structure.period_lcm):
        full = np.zeros(chain.n_states)
        full[reach] = init @ laws[:, r]
        tables.append(full.reshape(chain.shape))
    return structure, laws.mean(axis=1), tables


def four_axis_work_terms(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the work term H(A|M) - H(S|M) and H(A|M), in nats, of
    tables p(m, a, s, z) on the last four axes, each conditional entropy
    read from the table's (M, X) marginal; leading axes stack tables."""
    def cond_entropy(keep_axis: int) -> np.ndarray:
        pm_x = tables.sum(axis=tuple(ax - 4 for ax in (1, 2, 3) if ax != keep_axis))
        pm = pm_x.sum(axis=-1)
        return xlogy(pm, pm).sum(axis=-1) - xlogy(pm_x, pm_x).sum(axis=(-2, -1))

    h_action = cond_entropy(1)
    return h_action - cond_entropy(2), h_action


def full_matrix_work_rate(loop: PerceptActionLoop):
    """Oracle: the Cesàro work rate and action entropy, in nats, read from
    the global chain's tables p(m, a, s, z) under the n x n subsequence
    limits of its reachable subchain, with the chain, its structure and its
    Cesàro matrix."""
    chain = build_global_chain(loop)
    structure, cesaro, tables = limit_state_tables(chain)
    work, h_action = four_axis_work_terms(np.stack(tables))
    return float(work.mean()), float(h_action.mean()), chain, structure, cesaro


def assert_matches_scalar(env, agents):
    """Each member of the batched rates, and each scalar work_rate with its
    chain summary, matches the full-matrix oracle."""
    rates = _rate_gradients(env, *stack(agents))[0]
    assert rates.shape == (len(agents),)
    assert_equals_gather_path(env, agents)
    for agent, batched in zip(agents, rates):
        pal = PerceptActionLoop(agent, env)
        report = work_rate(pal, rounds=0, base="nats")
        rate, h_action, chain, structure, cesaro = full_matrix_work_rate(pal)
        assert abs(batched - rate) <= 1e-12
        assert abs(report.rate - rate) <= 1e-12
        assert abs(report.action_entropy - h_action) <= 1e-12
        assert report.period_used == structure.period_lcm
        assert (report.reachable == chain.reachable).all()
        reach = np.flatnonzero(chain.reachable)
        labels, closed, _ = markov._classify(chain.kernel.probs[np.ix_(reach, reach)] > 0.0)
        assert report.recurrent_states == int(closed[labels].sum())
        law = chain.initial.probs[chain.reachable] @ cesaro
        assert np.max(np.abs(report.cesaro_law[chain.reachable] - law)) <= 1e-12
        assert (report.cesaro_law[~chain.reachable] == 0.0).all()


def cycles_env(rng, cycles=(2, 3)):
    """A transient start state entering one of several deterministic hidden
    cycles with seeded emissions; class periods are the cycle lengths."""
    n_z = 1 + sum(cycles)
    move = np.zeros((n_z, n_z))
    offset = 1
    for length in cycles:
        for i in range(length):
            move[offset + i, offset + (i + 1) % length] = 1.0
        offset += length
    move[0, np.cumsum((1,) + cycles)[:-1]] = 1.0 / len(cycles)
    emit = rng.dirichlet(np.ones(2), size=(2, n_z))
    init = np.zeros(n_z)
    init[0] = 1.0
    return EnvironmentModel(("0", "1"), tuple(f"z{i}" for i in range(n_z)),
                            emit[..., None] * move[None, :, None, :], init)


def echo_after_random_first_action(q):
    """Memory m0 plays 1 with probability q and moves to m1, which echoes the
    percept forever; on a noiseless channel the loop has transient states
    and two closed classes."""
    theta = np.zeros((2, 2, 2, 2))
    theta[:, 0, 0, 1], theta[:, 0, 1, 1] = 1.0 - q, q
    for s in range(2):
        theta[s, 1, s, 1] = 1.0
    init = np.array([[1.0 - q, 0.0], [q, 0.0]])
    return AgentModel(("0", "1"), ("m0", "m1"), theta, init)


def sparse_emission_env(rng, n_a=2, n_z=3):
    """A random environment with about a third of its emissions e(s | a, z)
    zeroed, at least one percept kept per (action, hidden state), so the
    global chain has infeasible states."""
    env = random_environment(rng, n_a, n_z)
    keep = rng.random((n_a, n_z, n_a)) >= 1 / 3
    keep[np.arange(n_a)[:, None], np.arange(n_z), rng.integers(n_a, size=(n_a, n_z))] = True
    phi = env.phi * keep[..., None]
    phi /= phi.sum(axis=(2, 3), keepdims=True)
    return EnvironmentModel(env.alphabet, env.hidden_states, phi, env.initial)


class TestBatchedWorkRates:
    def test_random_dense_loops(self, rng):
        for n_z, n_m in ((1, 1), (2, 2), (3, 2), (2, 3)):
            env = random_environment(rng, 2, n_z)
            assert_matches_scalar(env, [random_agent(rng, 2, n_m) for _ in range(6)])
        env = random_environment(rng, 3, 2)
        assert_matches_scalar(env, [random_agent(rng, 3, 2) for _ in range(4)])

    def test_periodic_loop(self, rng):
        env = cycles_env(rng)
        agents = [random_agent(rng, 2, 2) for _ in range(4)]
        assert work_rate(PerceptActionLoop(agents[0], env)).period_used == 6
        assert_matches_scalar(env, agents)

    def test_reducible_loops(self, rng, golden_mean, identity_env):
        agents = [echo_after_random_first_action(q) for q in (0.5, 0.1, 1e-9)]
        chain = build_global_chain(PerceptActionLoop(agents[0], identity_env))
        reach = np.flatnonzero(chain.reachable)
        classes = classify_states(TransitionKernel(chain.kernel.probs[np.ix_(reach, reach)]))
        assert sum(classes.class_recurrent) == 2 and not classes.recurrent.all()
        assert_matches_scalar(identity_env, agents)
        # the same kernel started in the echo state m1 never reaches m0, so
        # its reachable set is smaller than that of the members after it
        echo = agents[1]
        in_echo = AgentModel(echo.alphabet, echo.memory_states, echo.theta,
                             [[0.0, 0.6], [0.0, 0.4]])
        assert_matches_scalar(identity_env, [in_echo] + agents)
        assert_matches_scalar(identity_env, [build_identity(("0", "1")),
                                             build_memoryless(("0", "1"), [0.2, 0.8])])
        assert_matches_scalar(golden_mean, [
            build_predictive(build_uniform(golden_mean.alphabet), golden_mean),
            build_predictive(build_memoryless(golden_mean.alphabet, [0.3, 0.7]),
                             golden_mean),
        ])
        assert_matches_scalar(golden_mean, [random_agent(rng, 2, 2) for _ in range(3)]
                              + [build_last_action(golden_mean.alphabet, [0.5, 0.5])])

    def test_padded_agents(self, rng):
        # padded memory states mirror the original rows and are never
        # entered: exactly, or with the 1e-12 logit floor of a warm start
        env = random_environment(rng, 2, 2)
        base = [random_agent(rng, 2, 1), random_agent(rng, 2, 2),
                build_last_action(("0", "1"), [0.3, 0.7])]
        padded = []
        for agent in base:
            theta = np.zeros((2, 3, 2, 3))
            for m in range(3):
                theta[:, m, :, :agent.n_memory] = agent.theta[:, m % agent.n_memory]
            init = np.zeros((2, 3))
            init[:, :agent.n_memory] = agent.initial_joint
            padded.append(AgentModel(("0", "1"), ("m0", "m1", "m2"), theta, init))
        x = np.stack([_params_from_agent(agent, 3) for agent in base])
        warm = agents_of(env.alphabet, *_kernels_from_params(x, 2, 3))
        assert_matches_scalar(env, padded + warm)

    def test_underflowing_softmax_agents(self, rng):
        # logits of +-800 underflow kernel entries to exactly 0, so members
        # of one stack have different support patterns
        env = random_environment(rng, 2, 2)
        dim = 4 * 4 + 4
        x = rng.normal(scale=1.5, size=(8, dim))
        extreme = rng.random((8, dim)) < 0.4
        x[extreme] = rng.choice([-800.0, 800.0], size=int(extreme.sum()))
        x[:3] = rng.normal(size=(3, dim))  # positive agents ...
        # ... but the third never changes its memory state, so its opening
        # pattern is theirs and its reachable chain has two closed classes
        x[2, :16].reshape(2, 2, 4)[:, 0, 1::2] = -800.0
        x[2, :16].reshape(2, 2, 4)[:, 1, 0::2] = -800.0
        theta, init = _kernels_from_params(x, 2, 2)
        assert (theta == 0.0).any() and (theta[:2] > 0.0).all() and (init[:3] > 0.0).all()
        assert_matches_scalar(env, agents_of(env.alphabet, theta, init))

    def test_zeroed_emissions(self, rng):
        # reach, period and recurrent counts over the global chain's states
        # are read off the pre-percept chain; infeasible states must stay out
        for n_a, n_z in ((3, 2), (2, 4), (2, 3)):
            env = sparse_emission_env(rng, n_a, n_z)
            assert (env.phi.sum(axis=3) == 0.0).any()
            assert_matches_scalar(env, [random_agent(rng, n_a, 2) for _ in range(3)])
            for agent in (build_identity(env.alphabet), random_agent(rng, n_a, 1),
                          build_last_action(env.alphabet, np.full(n_a, 1 / n_a))):
                assert_matches_scalar(env, [agent])
        assert_matches_scalar(sparse_emission_env(rng),
                              [echo_after_random_first_action(q) for q in (0.3, 1e-9)])

    def test_member_equals_solo_rate(self, rng):
        # each member's rate is that agent's work_rate bit for bit, whatever
        # else its stack holds
        dim = 4 * 4 + 4
        x = rng.normal(scale=1.5, size=(10, dim))
        extreme = rng.random((10, dim)) < 0.3
        extreme[:4] = False
        x[extreme] = rng.choice([-800.0, 800.0], size=int(extreme.sum()))
        stacks = [(random_environment(rng, 2, 3), agents_of(("0", "1"),
                                                           *_kernels_from_params(x, 2, 2))),
                  (random_environment(rng, 3, 2), [random_agent(rng, 3, 2) for _ in range(5)]),
                  (cycles_env(rng), [random_agent(rng, 2, 2) for _ in range(4)]),
                  (sparse_emission_env(rng), [random_agent(rng, 2, 3) for _ in range(4)])]
        for env, agents in stacks:
            rates = _rate_gradients(env, *stack(agents))[0]
            for agent, batched in zip(agents, rates):
                assert batched == work_rate(PerceptActionLoop(agent, env), rounds=0,
                                            base="nats").rate


def invariance_gap(P: np.ndarray, tables: np.ndarray) -> float:
    """max_r |t_r P - t_{r+1 mod d}| over the d rows t_r of ``tables``."""
    d = len(tables)
    return max(float(np.max(np.abs(tables[r] @ P - tables[(r + 1) % d])))
               for r in range(d))


def residual_loops(rng):
    """Dense random loops and periodic ones, with period lcm 6 and 210."""
    loops = [PerceptActionLoop(random_agent(rng, n_a, n_m), random_environment(rng, n_a, n_z))
             for n_a, n_m, n_z in ((2, 1, 1), (2, 2, 3), (3, 2, 2))]
    loops += [PerceptActionLoop(random_agent(rng, 2, 2), cycles_env(rng, cycles))
              for cycles in ((2, 3), (2, 3, 5, 7))]
    return loops


class TestResidual:
    def test_small_on_random_and_periodic_loops(self, rng):
        periods = []
        for pal in residual_loops(rng):
            report = work_rate(pal, rounds=0)
            periods.append(report.period_used)
            assert report.residual < 1e-13
        assert periods == [1, 1, 1, 6, 210]

    def test_residual_is_table_invariance_gap(self, rng, monkeypatch):
        # move 1e-6 of t_0's mass between two reachable states: the residual
        # must be the gap of exactly the tables the rate is read from
        # (P is kept before the engine, which may eliminate in it)
        import workcap.loop as loop_mod
        engine, seen = loop_mod._limit_laws, []

        def perturbed(K, u, overwrite=False):
            P = K[0].copy()
            groups = engine(K, u, overwrite)
            ((_, structure, laws, _, _),) = groups
            first, last = np.flatnonzero(structure.reach)[[0, -1]]
            laws[0, 0, 0, first] += 1e-6
            laws[0, 0, 0, last] -= 1e-6
            seen.append((P, laws[0, 0]))
            return groups
        monkeypatch.setattr(loop_mod, "_limit_laws", perturbed)
        for pal in residual_loops(rng):
            residual = work_rate(pal, rounds=0).residual
            P, tables = seen[-1]
            assert residual > 1e-8
            assert abs(residual - invariance_gap(P, tables)) <= 1e-15


class TestKernelBuffer:
    """work_rate forms one n x n array, the pre-percept kernel: it reads its
    round laws off the kernel and then hands it to the engine, which may
    eliminate in it.  build_global_chain forms one N x N array too."""

    def test_donating_run_equals_non_donating_run(self, rng, identity_env, monkeypatch):
        # reachable, reducible and periodic loops: the fields other than
        # the residual are the engine's on a copy of the kernel, and the
        # residual is within rounding of the invariance gap of t P
        import workcap.loop as loop_mod
        loops = residual_loops(rng) + [
            PerceptActionLoop(echo_after_random_first_action(0.1), identity_env),
            PerceptActionLoop(build_identity(("0", "1")), identity_env),
            PerceptActionLoop(random_agent(rng, 2, 2), sparse_emission_env(rng))]
        engine, seen, spent = loop_mod._limit_laws, [], []

        def spy(K, u, overwrite=False):
            P = K[0].copy()
            groups = engine(K, u, overwrite)
            seen.append((P, groups[0][2][0, 0]))
            spent.append(not np.array_equal(K[0], P))
            return groups
        monkeypatch.setattr(loop_mod, "_limit_laws", spy)
        donated = [work_rate(pal, rounds=6) for pal in loops]
        monkeypatch.setattr(loop_mod, "_limit_laws",
                            lambda K, u, overwrite=False: engine(K, u))
        kept = [work_rate(pal, rounds=6) for pal in loops]
        assert spent[0]  # a dense loop's elimination ran in its kernel
        for report, oracle, (P, tables) in zip(donated, kept, seen):
            assert replace(report, residual=0.0) == replace(oracle, residual=0.0)
            assert np.array_equal(report.reachable, oracle.reachable)
            assert np.array_equal(report.cesaro_law, oracle.cesaro_law)
            assert abs(report.residual - invariance_gap(P, tables)) <= 1e-15
        assert [r.period_used for r in donated[:5]] == [1, 1, 1, 6, 210]
        # transient states, and states off the reachable set
        assert [(r.recurrent_states, int(r.reachable.sum()), r.reachable.size)
                for r in donated[5:7]] == [(2, 4, 8), (1, 1, 4)]

    def test_work_rate_forms_one_kernel(self):
        # a 512-state pre-percept chain, which GTH censors in 7 blocks: the
        # parent's strided einsum result, its reshape copy and the copy GTH
        # ran in made a peak of 2.33 kernels
        rng = np.random.default_rng(0)
        pal = PerceptActionLoop(random_agent(rng, 2, 16), random_environment(rng, 2, 16))
        n = 512
        work_rate(pal)  # the structure memo and the loop's factors are filled
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            work_rate(pal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_global_chain_forms_one_kernel(self):
        # the parent's strided einsum result and its reshape copy made a
        # peak of 2 kernels; the kernel is the reshaped einsum bit for bit
        rng = np.random.default_rng(0)
        pal = PerceptActionLoop(random_agent(rng, 2, 16), random_environment(rng, 2, 16))
        N = 1024
        build_global_chain(pal)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            chain = build_global_chain(pal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.n_states == N and chain.kernel.probs.flags.c_contiguous
        assert peak < 1.5 * 8 * N * N
        emission = pal.env.emission()
        X = pal.env.phi / np.where(emission > 0.0, emission, 1.0)[..., None]
        np.testing.assert_array_equal(
            chain.kernel.probs,
            np.einsum("azsw,smbn,bwt->masznbtw", X, pal.agent.theta, emission).reshape(N, N))


class TestPrePerceptChain:
    """Every rate is solved on W_t = (M_t, A_t, Z_t); the law of U_t is the
    law of W_t times the emission e(s | a, z)."""

    def test_round_laws_lift_to_global_chain_laws(self, rng, fig5, identity_env,
                                                  golden_mean):
        loops = [PerceptActionLoop(random_agent(rng, 2, 2), env)
                 for env in (fig5, identity_env, golden_mean, cycles_env(rng))]
        loops += [PerceptActionLoop(build_identity(("0", "1")), identity_env),
                  PerceptActionLoop(echo_after_random_first_action(0.1), identity_env)]
        for pal in loops:
            chain = build_global_chain(pal)
            K, p0 = _pre_percept_chain(pal.env, pal.agent.theta[None],
                                       pal.agent.initial_joint[None])
            u, w = chain.initial.probs, p0[0]
            for _ in range(6):
                assert np.max(np.abs(u - _lift(w, pal.env).reshape(-1))) <= 1e-15
                u, w = u @ chain.kernel.probs, w @ K[0]
        assert not build_global_chain(loops[1]).feasible.all()

    def test_per_round_terms_match_global_chain_laws(self, rng, fig5, identity_env):
        # each finite-t term, read from p(m, a) and p(m, s) of the
        # pre-percept law, is the four-axis formula on the global chain's
        # law u P^t, infeasible states included
        loops = [PerceptActionLoop(random_agent(rng, 2, 2), env)
                 for env in (fig5, identity_env, cycles_env(rng))]
        loops.append(PerceptActionLoop(echo_after_random_first_action(0.1), identity_env))
        for pal in loops:
            chain = build_global_chain(pal)
            u, laws = chain.initial.probs, []
            for _ in range(6):
                laws.append(u.reshape(chain.shape))
                u = u @ chain.kernel.probs
            oracle = four_axis_work_terms(np.stack(laws))[0]
            per_round = work_rate(pal, rounds=6, base="nats").per_round
            assert np.max(np.abs(np.array(per_round) - oracle)) <= 1e-14

    def test_limit_engine_sees_pre_percept_chains(self, rng, monkeypatch):
        import workcap.loop as loop_mod
        engine, sizes = loop_mod._limit_laws, []

        def spy(P, u, overwrite=False):
            sizes.append(P.shape[1:])
            return engine(P, u, overwrite)
        monkeypatch.setattr(loop_mod, "_limit_laws", spy)
        for n_a, n_m, n_z in ((2, 1, 1), (2, 2, 3), (3, 2, 2)):
            env = random_environment(rng, n_a, n_z)
            agents = [random_agent(rng, n_a, n_m) for _ in range(3)]
            _rate_gradients(env, *stack(agents))[0]
            work_rate(PerceptActionLoop(agents[0], env), rounds=0)
            n = n_m * n_a * n_z
            assert sizes == [(n, n)] * 2
            assert build_global_chain(PerceptActionLoop(agents[0], env)).n_states == n * n_a
            sizes.clear()
