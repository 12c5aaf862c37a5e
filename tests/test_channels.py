import itertools
from importlib import resources

import numpy as np
import pytest

from workcap import (DimensionError, DomainError, EnvironmentModel,
                     ModelFormatError, cascade, is_memoryless_invariant,
                     is_noiseless, is_product, is_unifilar)
from workcap.capacity import check_subadditivity, compute_capacity
from workcap.channels import (AgentModel, dumps_model,
                              has_action_invariant_kernel, loads_model,
                              reachable_hidden)
from workcap.info import entropy_rate
from workcap.markov import ROW_SUM_TOL
from workcap.random_models import random_agent, random_environment
from workcap.verify import load_bundled


def channel_law(env: EnvironmentModel, actions: tuple[int, ...]) -> np.ndarray:
    """Exact nu(s_{0:T} | a_{0:T}) for one action sequence, by forward
    enumeration: entry [s_0, ..., s_{T-1}] is the probability of that
    percept sequence.  The oracle for ``is_product`` and ``cascade``."""
    # alpha[s_0, ..., s_{t-1}, z]: joint of the percept prefix and the hidden state
    alpha = env.initial.copy()
    for a in actions:
        alpha = np.tensordot(alpha, env.phi[a], axes=([-1], [0]))
    return alpha.sum(axis=-1)


def bit_flip_env():
    phi = np.zeros((2, 1, 2, 1))
    phi[0, 0, 1, 0] = 1.0
    phi[1, 0, 0, 0] = 1.0
    return EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))


class TestValidate:
    """Models are checked at construction: a table or initial law that is
    not stochastic raises DomainError naming it and its first bad row (the
    flat (input symbol, state) index)."""

    def test_fig5_ok(self):
        # every bundled model loads, so passes the construction check
        names = [path.name.removesuffix(".json")
                 for path in (resources.files("workcap") / "models").iterdir()
                 if path.name.endswith(".json")]
        assert "fig5" in names
        for name in names:
            assert isinstance(load_bundled(name), EnvironmentModel)

    def test_row_sum_violation_names_row(self):
        phi = np.zeros((2, 1, 2, 1))
        phi[0, 0, 0, 0] = 0.9
        phi[1, 0, 0, 0] = 0.5
        phi[1, 0, 1, 0] = 0.5
        with pytest.raises(DomainError, match=r"^phi: row 0 sums to 0\.9"):
            EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))

    def test_negative_entry_violation(self):
        phi = np.zeros((2, 1, 2, 1))
        phi[0, 0, 0, 0] = 1.2
        phi[0, 0, 1, 0] = -0.2
        phi[1, 0, :, 0] = 0.5
        with pytest.raises(DomainError, match=r"^phi: row 0 has an entry not in \[0, 1\]"):
            EnvironmentModel(("0", "1"), ("z",), phi, np.array([1.0]))

    def test_nan_entry_names_row(self, rng):
        env = random_environment(rng, 2, 2)
        phi = np.array(env.phi)
        phi[1, 0, 0, 1] = np.nan
        # row (a, z) = (1, 0) of the 2 x 2 input pairs is flat row 2
        with pytest.raises(DomainError, match=r"^phi: row 2 has an entry"):
            EnvironmentModel(env.alphabet, env.hidden_states, phi, env.initial)

    def test_nan_initial_entry(self, rng):
        env = random_environment(rng, 2, 2)
        initial = np.array(env.initial)
        initial[0] = np.nan
        with pytest.raises(DomainError, match=r"^initial: has an entry"):
            EnvironmentModel(env.alphabet, env.hidden_states, env.phi, initial)

    def test_initial_sum_violation(self, rng):
        env = random_environment(rng, 2, 2)
        with pytest.raises(DomainError, match=r"^initial: sums to 0\.9"):
            EnvironmentModel(env.alphabet, env.hidden_states, env.phi, [0.9, 0.0])

    def test_agent_theta_row_sum_violation(self, rng):
        agent = random_agent(rng, 2, 2)
        theta = np.array(agent.theta)
        theta[1, 1] *= 0.9 / theta[1, 1].sum()
        with pytest.raises(DomainError, match=r"^theta: row 3 sums to 0\.9"):
            AgentModel(agent.alphabet, agent.memory_states, theta, agent.initial_joint)

    def test_agent_initial_sum_violation(self, rng):
        agent = random_agent(rng, 2, 2)
        initial = 0.9 * agent.initial_joint
        with pytest.raises(DomainError, match=r"^initial_joint: sums to 0\.9"):
            AgentModel(agent.alphabet, agent.memory_states, agent.theta, initial)


    def test_arrays_cannot_be_made_writable(self, rng):
        # each array is a read-only view of a read-only base, so numpy
        # refuses to unfreeze it, and the facts a model keeps stay true
        env, fig5 = load_bundled("golden_mean"), load_bundled("fig5")
        agent = random_agent(rng, 2, 2)
        for arr in (env.phi, env.initial, agent.theta, agent.initial_joint, env.emission(),
                    reachable_hidden(env), is_unifilar(env), is_memoryless_invariant(fig5)):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.setflags(write=True)


class TestModelFacts:
    def test_span_procedure_runs_once_per_model(self, call_counts):
        # fresh models, since the shared fixtures may have decided theirs
        calls = call_counts("channels._decide_product")
        for models in (1, 2):
            env = load_bundled("golden_mean")
            for _ in range(2):
                assert is_product(env)
                assert entropy_rate(env) == pytest.approx(2.0 / 3.0, abs=1e-9)
                assert compute_capacity(env).method == "closed_form_unifilar_product"
            assert calls == {"_decide_product": models}

    def test_facts_are_shared_across_calls(self, golden_mean):
        assert golden_mean.emission() is golden_mean.emission()
        assert reachable_hidden(golden_mean) is reachable_hidden(golden_mean)
        assert is_unifilar(golden_mean) is is_unifilar(golden_mean)


class TestPredicates:
    def test_identity_is_noiseless(self, identity_env):
        assert is_noiseless(identity_env)

    def test_fig5_not_noiseless(self, fig5):
        assert not is_noiseless(fig5)

    def test_bit_flip_not_noiseless(self):
        assert not is_noiseless(bit_flip_env())

    def test_noiseless_implies_identity_reduced_kernel(self, identity_env):
        reduced = is_memoryless_invariant(identity_env)
        assert reduced is not None
        assert np.allclose(reduced, np.eye(2))

    def test_fig5_reduced_kernel(self, fig5):
        reduced = is_memoryless_invariant(fig5)
        assert np.allclose(reduced, [[1.0, 0.0], [0.5, 0.5]])

    def test_state_dependent_emission_not_memoryless(self, golden_mean):
        assert is_memoryless_invariant(golden_mean) is None

    def test_single_hidden_state_always_memoryless(self, rng):
        env = random_environment(rng, 2, 1)
        assert is_memoryless_invariant(env) is not None

    def test_product_when_action_ignored(self, golden_mean):
        assert is_product(golden_mean)

    def test_fig5_not_product_at_horizon_one(self, fig5):
        assert not is_product(fig5)

    def test_noiseless_not_product(self, identity_env):
        assert not is_product(identity_env)


def enumerated_product(env):
    """Oracle: is the law identical across all action words of length
    2 n_z - 1 (Paz's bound for two n_z-state automata)?"""
    horizon = 2 * env.n_hidden - 1
    reference = channel_law(env, (0,) * horizon)
    return all(
        np.max(np.abs(channel_law(env, actions) - reference)) <= 1e-12
        for actions in itertools.product(range(env.n_symbols), repeat=horizon)
    )


def late_dependence(rng, n_a, n_z):
    """States 0 .. n_z-2 form a chain with random action-free emissions; the
    last state's emissions depend on the action, first visible at round n_z - 1."""
    phi = np.zeros((n_a, n_z, n_a, n_z))
    for z in range(n_z - 1):
        phi[:, z, :, z + 1] = rng.dirichlet(np.ones(n_a))
    phi[:, n_z - 1, :, n_z - 1] = rng.dirichlet(np.ones(n_a), size=n_a)
    return EnvironmentModel(tuple(str(i) for i in range(n_a)),
                            tuple(f"z{z}" for z in range(n_z)), phi, np.eye(n_z)[0])


def hidden_permutation(rng, n_a, n_classes, reveal):
    """Hidden states (c, b): emissions and class moves read only c, and
    action a flips the bit b when odd, so the actions permute hidden states.
    With ``reveal`` one class's emissions read b too."""
    n_z = 2 * n_classes
    emit = rng.dirichlet(np.ones(n_a), size=(n_classes, 2))
    if not reveal:
        emit[:, 1] = emit[:, 0]
    move = rng.dirichlet(np.ones(n_classes), size=(n_classes, n_a))
    phi = np.zeros((n_a, n_z, n_a, n_z))
    for a, c, b, s, c2 in itertools.product(range(n_a), range(n_classes), range(2),
                                            range(n_a), range(n_classes)):
        phi[a, 2 * c + b, s, 2 * c2 + (b ^ (a % 2))] = emit[c, b, s] * move[c, s, c2]
    return EnvironmentModel(tuple(str(i) for i in range(n_a)),
                            tuple(f"z{z}" for z in range(n_z)), phi,
                            rng.dirichlet(np.ones(n_z)))


def unreachable_dependence(rng, n_a, n_z):
    """An action-free channel on states 0 .. n_z-2 plus an unreachable last
    state whose kernel depends on the action."""
    phi = np.zeros((n_a, n_z, n_a, n_z))
    phi[:, : n_z - 1, :, : n_z - 1] = rng.dirichlet(
        np.ones(n_a * (n_z - 1)), size=n_z - 1).reshape(n_z - 1, n_a, n_z - 1)
    phi[:, n_z - 1] = rng.dirichlet(np.ones(n_a * n_z), size=n_a).reshape(n_a, n_a, n_z)
    initial = np.append(rng.dirichlet(np.ones(n_z - 1)), 0.0)
    return EnvironmentModel(tuple(str(i) for i in range(n_a)),
                            tuple(f"z{z}" for z in range(n_z)), phi, initial)


def action_free(env, rng):
    """``env`` with every action's kernel replaced by action 0's, then one
    random (action, state) row redrawn half the time."""
    phi = np.broadcast_to(env.phi[0], env.phi.shape).copy()
    if rng.random() < 0.5:
        a, z = rng.integers(1, env.n_symbols), rng.integers(env.n_hidden)
        phi[a, z] = rng.dirichlet(np.ones(phi[a, z].size)).reshape(phi[a, z].shape)
    return EnvironmentModel(env.alphabet, env.hidden_states, phi, env.initial)


class TestExactProduct:
    SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]

    @pytest.mark.parametrize("n_a,n_z", SIZES)
    def test_random_channels_match_enumeration(self, rng, n_a, n_z):
        verdicts = []
        for _ in range(8):
            env = random_environment(rng, n_a, n_z)
            for candidate in (env, action_free(env, rng)):
                verdicts.append(is_product(candidate))
                assert verdicts[-1] == enumerated_product(candidate)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n_a,n_z", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_late_action_dependence(self, rng, n_a, n_z):
        for _ in range(4):
            env = late_dependence(rng, n_a, n_z)
            assert not is_product(env)
            assert not enumerated_product(env)

    @pytest.mark.parametrize("n_a,n_classes", [(2, 1), (2, 2), (3, 1)])
    def test_hidden_permutation(self, rng, n_a, n_classes):
        for reveal in (False, True):
            for _ in range(4):
                env = hidden_permutation(rng, n_a, n_classes, reveal)
                assert is_product(env) == enumerated_product(env)
                if not reveal:
                    assert is_product(env)

    @pytest.mark.parametrize("n_a,n_z", [(2, 2), (2, 3), (3, 3)])
    def test_dependence_only_in_unreachable_states(self, rng, n_a, n_z):
        for _ in range(4):
            env = unreachable_dependence(rng, n_a, n_z)
            assert is_product(env)
            assert enumerated_product(env)

    def test_sticky_product_channels(self, rng):
        # near-deterministic rows give nearly parallel word vectors, which a
        # basis that loses orthogonality overfills
        for _ in range(20):
            env = random_environment(rng, 2, int(rng.integers(5, 30)))
            phi = np.broadcast_to(env.phi[0] ** 20, env.phi.shape)
            phi = phi / phi.sum(axis=(2, 3), keepdims=True)
            assert is_product(EnvironmentModel(env.alphabet, env.hidden_states, phi,
                                               env.initial))

    @pytest.mark.parametrize("delay", [1, 4, 63])
    def test_delayed_echo_not_product(self, delayed_echo, delay):
        # at delay 63 each percept word has probability 2^-63, so only a
        # scale-free test sees the echo
        assert not is_product(delayed_echo(delay))

    def test_bundled_verdicts(self, fig5, identity_env, golden_mean, flip_noise):
        assert [is_product(env) for env in (fig5, identity_env, golden_mean,
                                            flip_noise)] == [False, False, True, False]


class TestUnifilar:
    def test_golden_mean_map(self, golden_mean):
        uni = is_unifilar(golden_mean)
        assert uni is not None
        a_idx = golden_mean.hidden_states.index("a")
        b_idx = golden_mean.hidden_states.index("b")
        # emitting 1 from state a leads to b; emitting 0 returns to a
        assert uni[0, a_idx, 1] == b_idx
        assert uni[0, a_idx, 0] == a_idx
        assert uni[0, b_idx, 0] == a_idx

    def test_uniform_initial_not_unifilar(self, golden_mean):
        env = EnvironmentModel(golden_mean.alphabet, golden_mean.hidden_states,
                               golden_mean.phi, np.array([0.5, 0.5]))
        assert is_unifilar(env) is None

    def test_branching_not_unifilar(self):
        phi = np.zeros((2, 2, 2, 2))
        phi[:, :, 0, 0] = 0.25
        phi[:, :, 0, 1] = 0.25  # percept 0 branches to both states
        phi[:, :, 1, 0] = 0.5
        env = EnvironmentModel(("0", "1"), ("u", "v"), phi, np.array([1.0, 0.0]))
        assert is_unifilar(env) is None

    def test_map_matches_per_triple_oracle(self, rng):
        # the map is found for all triples at once; the oracle reads each
        # reachable (a, z, s) triple's successors alone
        def oracle(env):
            if np.max(env.initial) < 1.0 - ROW_SUM_TOL:
                return None
            reach = reachable_hidden(env)
            nxt = np.zeros((env.n_symbols, env.n_hidden, env.n_symbols), dtype=int)
            for z in range(env.n_hidden):
                nxt[:, z, :] = z
                for a, s in itertools.product(range(env.n_symbols), repeat=2):
                    succ = np.flatnonzero(env.phi[a, z, s] > 0.0)
                    if reach[z] and succ.size > 1:
                        return None
                    if reach[z] and succ.size == 1:
                        nxt[a, z, s] = succ[0]
            return nxt

        unifilar = 0
        for _ in range(300):
            n_a, n_z = rng.integers(1, 4), rng.integers(1, 5)
            # each (a, z, s) moves to at most one state, a few to two
            phi = np.zeros((n_a, n_z, n_a, n_z))
            for a, z, s in itertools.product(range(n_a), range(n_z), range(n_a)):
                targets = rng.choice(n_z, size=min(n_z, rng.choice(3, p=[0.3, 0.6, 0.1])),
                                     replace=False)
                phi[a, z, s, targets] = rng.random(len(targets)) + 0.1
            phi[..., 0, 0] += (phi.sum(axis=(2, 3)) == 0.0)
            phi /= phi.sum(axis=(2, 3), keepdims=True)
            initial = np.eye(n_z)[rng.integers(n_z)] if rng.random() < 0.9 else np.ones(n_z) / n_z
            env = EnvironmentModel(tuple("abc"[:n_a]), tuple(f"z{i}" for i in range(n_z)),
                                   phi, initial)
            got, want = is_unifilar(env), oracle(env)
            assert (got is None) == (want is None)
            if want is not None:
                unifilar += 1
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert 50 < unifilar < 250

    def test_map_simulation_matches_full_kernel(self, golden_mean):
        uni = is_unifilar(golden_mean)
        emission = golden_mean.emission()
        T = 4
        for a_seq_flat in range(2 ** T):
            actions = tuple((a_seq_flat >> i) & 1 for i in range(T))
            law = channel_law(golden_mean, actions)
            for s_seq_flat in range(2 ** T):
                percepts = tuple((s_seq_flat >> i) & 1 for i in range(T))
                z = int(np.argmax(golden_mean.initial))
                prob = 1.0
                for a, s in zip(actions, percepts):
                    prob = prob * emission[a, z, s]
                    z = uni[a, z, s]
                assert law[percepts] == prob  # exact, same float products


class TestCascade:
    def test_identity_of_identities_is_noiseless(self, identity_env):
        assert is_noiseless(cascade(identity_env, identity_env))

    def test_memoryless_cascade_is_matrix_product(self, fig5, flip_noise):
        composed = cascade(fig5, flip_noise)
        reduced = is_memoryless_invariant(composed)
        expected = is_memoryless_invariant(fig5) @ is_memoryless_invariant(flip_noise)
        assert np.allclose(reduced, expected, atol=1e-12)

    def test_hidden_state_count_multiplies(self, rng):
        e1 = random_environment(rng, 2, 2)
        e2 = random_environment(rng, 2, 3)
        assert cascade(e1, e2).n_hidden == 6

    def test_alphabet_mismatch_rejected(self, fig5):
        other = EnvironmentModel(("x", "y"), ("z",), fig5.phi, fig5.initial)
        with pytest.raises(DimensionError):
            cascade(fig5, other)

    def test_models_at_the_row_sum_tolerance(self, rng):
        # every row of both factors sums to 1 + 0.9e-12, within ROW_SUM_TOL,
        # so both construct; the cascade's rows miss 1 by about twice that,
        # and neither cascade nor check_subadditivity may reject what
        # construction took
        scale = 1.0 + 0.9e-12
        plain = [random_environment(rng, 2, 1), random_environment(rng, 2, 1)]
        edge = [EnvironmentModel(e.alphabet, e.hidden_states, e.phi * scale, e.initial)
                for e in plain]
        assert min(np.abs(e.phi.sum(axis=(2, 3)) - 1.0).min() for e in edge) > 0.8e-12
        composed = cascade(*edge)
        assert np.abs(composed.phi.sum(axis=(2, 3)) - 1.0).max() > ROW_SUM_TOL
        assert np.abs(composed.phi - cascade(*plain).phi).max() <= 1e-11
        assert not (composed.phi.flags.writeable or composed.initial.flags.writeable)
        with pytest.raises(ValueError):
            composed.phi.setflags(write=True)
        report, want = check_subadditivity(*edge), check_subadditivity(*plain)
        assert report.holds is want.holds is True
        assert abs(report.value_cascade_nats - want.value_cascade_nats) <= 1e-10

    def test_cascade_labels_are_distinct(self):
        # joined plainly, the pairs ("a,b", "c") and ("a", "b,c") would both
        # read "(a,b,c)"; a backslash goes before each comma inside a label
        phi = np.full((2, 2, 2, 2), 0.25)
        first = EnvironmentModel(("0", "1"), ("a,b", "a"), phi, np.array([1.0, 0.0]))
        second = EnvironmentModel(("0", "1"), ("c", "b,c"), phi, np.array([1.0, 0.0]))
        assert cascade(first, second).hidden_states == (
            r"(a\,b,c)", r"(a\,b,b\,c)", "(a,c)", r"(a,b\,c)")
        # and before each backslash, or ("a\", ",b") and ("a,\", "b") would
        # both read "(a\,\,b)"
        first = EnvironmentModel(("0", "1"), ("a\\", "a,\\"), phi, np.array([1.0, 0.0]))
        second = EnvironmentModel(("0", "1"), (",b", "b"), phi, np.array([1.0, 0.0]))
        labels = cascade(first, second).hidden_states
        assert labels[0] == r"(a\\,\,b)" and labels[3] == r"(a\,\\,b)"
        assert len(set(labels)) == 4
        # labels with neither character come out unchanged
        plain = EnvironmentModel(("0", "1"), ("z0", "z1"), phi, np.array([1.0, 0.0]))
        assert cascade(plain, plain).hidden_states == ("(z0,z0)", "(z0,z1)", "(z1,z0)", "(z1,z1)")

    def test_associative_channel_law(self, rng):
        a = random_environment(rng, 2, 2)
        b = random_environment(rng, 2, 2)
        c = random_environment(rng, 2, 2)
        left = cascade(cascade(a, b), c)
        right = cascade(a, cascade(b, c))
        for T in (1, 2, 3):
            for flat in range(2 ** T):
                actions = tuple((flat >> i) & 1 for i in range(T))
                diff = channel_law(left, actions) - channel_law(right, actions)
                assert np.max(np.abs(diff)) < 1e-10


class TestReachability:
    def test_unreachable_state_ignored_by_predicates(self):
        # state u is never entered; its weird emission must not matter
        phi = np.zeros((2, 2, 2, 2))
        phi[:, 0, 0, 0] = 1.0          # reachable state echoes percept 0
        phi[0, 1, 1, 1] = 1.0          # unreachable state does something else
        phi[1, 1, 0, 1] = 1.0
        env = EnvironmentModel(("0", "1"), ("r", "u"), phi, np.array([1.0, 0.0]))
        assert reachable_hidden(env).tolist() == [True, False]
        assert is_memoryless_invariant(env) is not None


class TestFileFormat:
    def test_environment_round_trip_bytes(self, fig5, golden_mean):
        for model in (fig5, golden_mean):
            text = dumps_model(model)
            assert dumps_model(loads_model(text)) == text

    def test_agent_round_trip_bytes(self, rng):
        agent = random_agent(rng, 2, 2)
        text = dumps_model(agent)
        assert dumps_model(loads_model(text)) == text

    def test_agent_loads_as_agent(self, rng):
        text = dumps_model(random_agent(rng, 2, 2))
        assert isinstance(loads_model(text), AgentModel)

    def test_rejects_large_row_deviation(self):
        text = """{
          "alphabet": ["0", "1"], "hidden_states": ["z"],
          "initial": {"z": "1"},
          "transitions": {"0,z": {"0,z": "0.9"},
                          "1,z": {"0,z": "0.5", "1,z": "0.5"}}
        }"""
        with pytest.raises(ModelFormatError, match="0,z"):
            loads_model(text)

    def test_normalizes_small_row_deviation(self):
        text = """{
          "alphabet": ["0", "1"], "hidden_states": ["z"],
          "initial": {"z": "1"},
          "transitions": {"0,z": {"0,z": "0.3333333333", "1,z": "0.6666666666"},
                          "1,z": {"0,z": "0.5", "1,z": "0.5"}}
        }"""
        env = loads_model(text)
        assert abs(env.phi[0, 0].sum() - 1.0) < 1e-15

    def test_missing_row_rejected(self):
        text = """{
          "alphabet": ["0", "1"], "hidden_states": ["z"],
          "initial": {"z": "1"},
          "transitions": {"0,z": {"0,z": "1"}}
        }"""
        with pytest.raises(ModelFormatError, match="missing"):
            loads_model(text)

    def test_unknown_state_rejected(self):
        text = """{
          "alphabet": ["0"], "hidden_states": ["z"],
          "initial": {"q": "1"},
          "transitions": {"0,z": {"0,z": "1"}}
        }"""
        with pytest.raises(ModelFormatError):
            loads_model(text)

    def test_probabilities_accept_decimal_strings(self):
        text = """{
          "alphabet": ["0", "1"], "hidden_states": ["z"],
          "initial": {"z": "1"},
          "transitions": {"0,z": {"0,z": "0.70710678118654752", "1,z": "0.29289321881345248"},
                          "1,z": {"0,z": "0.5", "1,z": "0.5"}}
        }"""
        env = loads_model(text)
        assert env.phi[0, 0, 0, 0] == pytest.approx(2 ** -0.5, abs=1e-15)

    @pytest.mark.parametrize("initial, row", [('{"z": true}', '{"0,z": "1"}'),
                                              ('{"z": "1"}', '{"0,z": true}'),
                                              ('{"z": "1"}', '{"0,z": false, "1,z": 1}')])
    def test_probabilities_reject_json_booleans(self, initial, row):
        # bool is an int in Python, so true would otherwise read as 1.0
        text = f"""{{
          "alphabet": ["0", "1"], "hidden_states": ["z"],
          "initial": {initial},
          "transitions": {{"0,z": {row}, "1,z": {{"0,z": "0.5", "1,z": "0.5"}}}}
        }}"""
        with pytest.raises(ModelFormatError, match="decimal string"):
            loads_model(text)


class TestActionInvariance:
    def test_golden_mean_kernel_action_invariant(self, golden_mean):
        assert has_action_invariant_kernel(golden_mean)

    def test_fig5_not_action_invariant(self, fig5):
        assert not has_action_invariant_kernel(fig5)
