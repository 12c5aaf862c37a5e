import numpy as np
import pytest

from workcap import (Dag, DomainError, PerceptActionLoop, bayesnet, build_loop_dag,
                     build_uniform, d_separated, info, validate_compatibility, verify)
from workcap.bayesnet import (_ATTEMPTS_PER_TRIPLE, _d_connected, _mask,
                              sample_separated_triples)
from workcap.errors import DimensionError
from workcap.info import conditional_mutual_information
from workcap.loop import _trajectory_marginal, trajectory_distribution
from workcap.random_models import (random_agent, random_environment,
                                   random_memoryless_environment)


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        dag = Dag(("X", "Y", "Z"), frozenset({("X", "Y"), ("Y", "Z")}))
        assert d_separated(dag, "X", "Z", "Y")
        assert not d_separated(dag, "X", "Z", ())

    def test_fork_blocked_by_middle(self):
        dag = Dag(("X", "Y", "Z"), frozenset({("Y", "X"), ("Y", "Z")}))
        assert d_separated(dag, "X", "Z", "Y")
        assert not d_separated(dag, "X", "Z", ())

    def test_collider(self):
        dag = Dag(("X", "Y", "Z"), frozenset({("X", "Y"), ("Z", "Y")}))
        assert d_separated(dag, "X", "Z", ())
        assert not d_separated(dag, "X", "Z", "Y")

    def test_collider_descendant_activates(self):
        dag = Dag(("X", "Y", "Z", "D"),
                  frozenset({("X", "Y"), ("Z", "Y"), ("Y", "D")}))
        assert not d_separated(dag, "X", "Z", "D")

    def test_unknown_node(self):
        dag = Dag(("X",), frozenset())
        with pytest.raises(KeyError):
            d_separated(dag, "X", "Q", ())

    def test_overlap_rejected(self):
        dag = Dag(("X", "Y"), frozenset({("X", "Y")}))
        with pytest.raises(DomainError):
            d_separated(dag, "X", "X", ())

    def test_cycle_rejected(self):
        with pytest.raises(DomainError):
            Dag(("X", "Y"), frozenset({("X", "Y"), ("Y", "X")}))


class TestTemplates:
    def test_general_has_auxiliary_wiring(self):
        dag = build_loop_dag(2, "general")
        for t in range(2):
            for edge in ((f"V{t}", f"M{t}"), (f"V{t}", f"A{t}"),
                         (f"W{t}", f"S{t}"), (f"W{t}", f"Z{t + 1}"),
                         (f"A{t}", f"W{t}"), (f"Z{t}", f"W{t}")):
                assert edge in dag.edges

    def test_memoryless_direct_action_edge(self):
        dag = build_loop_dag(2, "memoryless_env")
        assert ("A0", "S0") in dag.edges
        assert ("A1", "S1") in dag.edges
        assert not any(n.startswith("Z") or n.startswith("W") for n in dag.nodes)

    def test_product_has_no_action_into_w_chain(self):
        dag = build_loop_dag(2, "product_env")
        assert not any(u.startswith("A") and v.startswith("W")
                       for u, v in dag.edges)
        assert ("Z0", "W0") in dag.edges

    def test_memoryless_action_separates_memory_from_percept(self):
        dag = build_loop_dag(2, "memoryless_env")
        assert d_separated(dag, "M0", "S0", "A0")

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            build_loop_dag(2, "bogus")

    def test_bad_horizon(self):
        with pytest.raises(DimensionError):
            build_loop_dag(0, "general")

    def test_templates_are_shared_and_bad_arguments_raise_every_time(self):
        for variant in ("general", "memoryless_env", "product_env"):
            assert build_loop_dag(3, variant) is build_loop_dag(3, variant)
        for _ in range(2):
            with pytest.raises(DimensionError):
                build_loop_dag(0, "general")
            with pytest.raises(DomainError):
                build_loop_dag(2, "bogus")


class TestCompatibility:
    def test_random_loop_no_violations(self, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2),
                                random_environment(rng, 2, 2))
        report = validate_compatibility(pal, horizon=3, n_triples=50, seed=5)
        assert report.n_checked == 50
        assert report.ok

    def test_handpicked_memoryless_independence(self, fig5):
        # I[S_0; M_0 | A_0] = 0 exactly for a memoryless environment
        pal = PerceptActionLoop(random_agent(np.random.default_rng(3), 2, 2), fig5)
        joint = trajectory_distribution(pal, 2).joint
        cmi = conditional_mutual_information(joint, "S0", "M0", "A0", base="nats")
        assert cmi < 1e-12

    def test_negative_control_fig5(self, fig5):
        pal = PerceptActionLoop(build_uniform(fig5.alphabet), fig5)
        joint = trajectory_distribution(pal, 2).joint
        assert conditional_mutual_information(joint, "A0", "S0", (), base="nats") > 1e-3

    def test_negative_controls_per_template(self, rng, golden_mean):
        # a known-dependent pair must register as dependent on a generic model
        mem_env = random_memoryless_environment(rng)
        pal = PerceptActionLoop(random_agent(rng, 2, 2), mem_env)
        joint = trajectory_distribution(pal, 2).joint
        assert conditional_mutual_information(joint, "A0", "S0", (), base="nats") > 1e-3

        pal = PerceptActionLoop(random_agent(rng, 2, 2), golden_mean)
        joint = trajectory_distribution(pal, 2).joint
        assert conditional_mutual_information(joint, "S0", "S1", (), base="nats") > 1e-3

    def test_memoryless_template_matches_full_joint(self, rng, monkeypatch):
        # the template's pool has no Z, so only the (M, A, S) marginal is
        # formed; with a negative tolerance every sampled triple is reported,
        # and each must carry the CMI that the full joint gives it
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_memoryless_environment(rng))
        monkeypatch.setattr(bayesnet, "CMI_SOUNDNESS_TOL", -1.0)
        report = validate_compatibility(pal, horizon=3, n_triples=40, seed=4,
                                        variant="memoryless_env")
        pool = [f"{v}{t}" for t in range(3) for v in "MAS"]
        triples = sample_separated_triples(build_loop_dag(3, "memoryless_env"), pool, 40,
                                           np.random.default_rng(4))
        joint = trajectory_distribution(pal, 3).joint
        assert report.n_checked == len(triples) == 40
        assert [violation[:3] for violation in report.violations] == triples
        for *trip, cmi in report.violations:
            assert cmi == pytest.approx(
                conditional_mutual_information(joint, *trip, base="nats"), abs=1e-12)

    @pytest.mark.parametrize("variant", ["general", "memoryless_env", "product_env"])
    def test_entropy_memo_keeps_each_cmi_and_sums_each_set_once(self, rng, golden_mean,
                                                                monkeypatch, variant):
        env = {"general": random_environment(rng, 2, 2),
               "memoryless_env": random_memoryless_environment(rng),
               "product_env": golden_mean}[variant]
        pal = PerceptActionLoop(random_agent(rng, 2, 2), env)
        summed = []
        original = info._marginal_entropy_nats

        def spy(joint, vars):
            summed.append(frozenset(vars))
            return original(joint, vars)
        monkeypatch.setattr(info, "_marginal_entropy_nats", spy)
        # with a negative tolerance every sampled triple is reported with its CMI
        monkeypatch.setattr(bayesnet, "CMI_SOUNDNESS_TOL", -1.0)
        report = validate_compatibility(pal, horizon=3, n_triples=40, seed=4, variant=variant)
        needed = {frozenset(s) for a, b, c in (v[:3] for v in report.violations)
                  for s in (a + c, b + c, a + b + c, c) if s}
        assert report.n_checked == len(report.violations) == 40
        assert len(summed) == len(set(summed)) == len(needed)

        pool = [f"{v}{t}" for t in range(3)
                for v in ("MAS" if variant == "memoryless_env" else "MASZ")]
        joint = _trajectory_marginal(pal, 3, pool)
        for *trip, cmi in report.violations:
            assert cmi == info.conditional_mutual_information(joint, *trip, base="nats")

    def test_dsep_check_sums_each_entropy_once(self, monkeypatch):
        # the seven jobs' CMIs and the three controls need 471 distinct
        # (joint, variable set) entropies; one sum per CMI term made 1,017
        joints, keys = [], []
        original = info._marginal_entropy_nats

        def spy(joint, vars):
            joints.append(joint)  # held, so no id is reused by a later joint
            keys.append((id(joint), frozenset(vars)))
            return original(joint, vars)
        monkeypatch.setattr(info, "_marginal_entropy_nats", spy)
        verify.check_dsep_soundness(0)
        assert len(keys) == len(set(keys)) == 471

    def test_product_template_requires_invariant_kernel(self, fig5, rng):
        pal = PerceptActionLoop(random_agent(rng, 2, 2), fig5)
        with pytest.raises(DomainError):
            validate_compatibility(pal, horizon=3, variant="product_env")

    @pytest.mark.parametrize("n_triples", [0, -3])
    def test_no_triples_requested_is_rejected(self, rng, n_triples):
        # a check of no triples would pass vacuously
        pal = PerceptActionLoop(random_agent(rng, 2, 2), random_environment(rng, 2, 2))
        with pytest.raises(DimensionError):
            validate_compatibility(pal, 3, n_triples=n_triples)
        pool = [f"{v}{t}" for t in range(3) for v in "MASZ"]
        with pytest.raises(DimensionError):
            sample_separated_triples(build_loop_dag(3, "general"), pool, n_triples, rng)

    def test_sampler_yields_enough_triples(self, rng):
        dag = build_loop_dag(3, "general")
        pool = [f"{v}{t}" for t in range(3) for v in "MASZ"]
        triples = sample_separated_triples(dag, pool, 60, rng)
        assert len(triples) == 60
        for trip in triples:
            assert d_separated(dag, *trip)

    def test_sampler_rejects_a_repeated_or_unknown_pool_node(self, rng):
        # an attempt is rejected on the popcount of the free pool mask, which
        # counts a repeated node once where the scan of the order sees it twice
        dag = build_loop_dag(3, "general")
        pool = [f"{v}{t}" for t in range(3) for v in "MASZ"]
        with pytest.raises(DimensionError, match="repeats"):
            sample_separated_triples(dag, pool + ["S1"], 10, rng)
        with pytest.raises(KeyError, match="Q0"):
            sample_separated_triples(dag, pool + ["Q0"], 10, rng)


def parents_and_children(dag: Dag) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Each node's parents and children, read from the edge set."""
    parents = {n: set() for n in dag.nodes}
    children = {n: set() for n in dag.nodes}
    for u, v in dag.edges:
        parents[v].add(u)
        children[u].add(v)
    return parents, children


def enumerate_paths_oracle(dag: Dag, set_a, set_b, set_c) -> bool:
    """Independent d-separation oracle: enumerate every simple undirected
    path between the endpoint sets and apply the blocking definition to each
    interior node (chain/fork blocked when the middle node is conditioned on;
    collider blocked when neither it nor any descendant is)."""
    parents, children = parents_and_children(dag)
    cond = set(set_c)

    descendants = {}
    for node in dag.nodes:
        seen, stack = set(), [node]
        while stack:
            cur = stack.pop()
            for ch in children[cur]:
                if ch not in seen:
                    seen.add(ch)
                    stack.append(ch)
        descendants[node] = seen

    def path_active(path):
        for i in range(1, len(path) - 1):
            prev, mid, nxt = path[i - 1], path[i], path[i + 1]
            into_left = prev in parents[mid]
            into_right = nxt in parents[mid]
            if into_left and into_right:  # collider
                if mid not in cond and not (descendants[mid] & cond):
                    return False
            else:  # chain or fork
                if mid in cond:
                    return False
        return True

    neighbors = {n: parents[n] | children[n] for n in dag.nodes}
    targets = set(set_b)
    for start in set_a:
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            if node in targets and len(path) > 1:
                if path_active(path):
                    return False
                continue
            for nxt in neighbors[node]:
                if nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    return True


def random_dag(rng, n_nodes: int, edge_prob: float = 0.4) -> Dag:
    names = tuple(f"N{i}" for i in range(n_nodes))
    edges = set()
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.add((names[i], names[j]))
    return Dag(names, frozenset(edges))


class TestAgainstPathOracle:
    def test_matches_on_random_dags(self):
        gen = np.random.default_rng(99)
        agree = 0
        for _ in range(40):
            dag = random_dag(gen, int(gen.integers(4, 8)))
            for _ in range(15):
                nodes = list(dag.nodes)
                gen.shuffle(nodes)
                a, b = (nodes[0],), (nodes[1],)
                c = tuple(nodes[2: 2 + int(gen.integers(0, 3))])
                fast = d_separated(dag, a, b, c)
                oracle = enumerate_paths_oracle(dag, a, b, c)
                assert fast == oracle, (dag.edges, a, b, c)
                agree += 1
        assert agree == 600

    def test_symmetry_in_endpoints(self):
        gen = np.random.default_rng(17)
        for _ in range(30):
            dag = random_dag(gen, 6)
            nodes = list(dag.nodes)
            gen.shuffle(nodes)
            a, b, c = (nodes[0],), (nodes[1],), tuple(nodes[2:4])
            assert d_separated(dag, a, b, c) == d_separated(dag, b, a, c)

    def test_loop_templates_match_oracle(self):
        gen = np.random.default_rng(5)
        for variant in ("general", "memoryless_env", "product_env"):
            dag = build_loop_dag(2, variant)
            nodes = [n for n in dag.nodes]
            for _ in range(60):
                picks = list(nodes)
                gen.shuffle(picks)
                a, b = (picks[0],), (picks[1],)
                c = tuple(picks[2: 2 + int(gen.integers(0, 3))])
                assert d_separated(dag, a, b, c) == \
                    enumerate_paths_oracle(dag, a, b, c)

    # networkx is a second, independent oracle for what the path-oracle tests
    # above leave out: multi-node endpoint sets and templates beyond horizon 2
    def test_multi_node_sets_match_networkx(self):
        nx = pytest.importorskip("networkx")
        gen = np.random.default_rng(41)
        for _ in range(40):
            dag = random_dag(gen, int(gen.integers(6, 11)))
            graph = networkx_graph(nx, dag)
            for _ in range(10):
                a, b, c = disjoint_sets(gen, dag, 3, 3, 3)
                assert d_separated(dag, a, b, c) == nx.is_d_separator(graph, a, b, c), \
                    (dag.edges, a, b, c)

    @pytest.mark.parametrize("horizon", [3, 4])
    @pytest.mark.parametrize("variant", ["general", "memoryless_env", "product_env"])
    def test_long_loop_templates_match_networkx(self, horizon, variant):
        nx = pytest.importorskip("networkx")
        gen = np.random.default_rng(horizon)
        dag = build_loop_dag(horizon, variant)
        graph = networkx_graph(nx, dag)
        separated = 0
        for _ in range(100):
            a, b, c = disjoint_sets(gen, dag, 2, 2, 5)
            verdict = d_separated(dag, a, b, c)
            assert verdict == nx.is_d_separator(graph, a, b, c), (variant, a, b, c)
            separated += verdict
        assert 0 < separated < 100  # both verdicts exercised

    @pytest.mark.parametrize("variant", ["general", "memoryless_env", "product_env"])
    def test_sampled_triples_match_networkx(self, variant):
        nx = pytest.importorskip("networkx")
        dag = build_loop_dag(4, variant)
        graph = networkx_graph(nx, dag)
        pool = [n for n in dag.nodes if n[0] in "MASZ"]
        triples = sample_separated_triples(dag, pool, 200, np.random.default_rng(0))
        assert len(triples) == 200
        for a, b, c in triples:
            assert nx.is_d_separator(graph, set(a), set(b), set(c)), (variant, a, b, c)


def set_walk_oracle(dag: Dag, a, c) -> set[str]:
    """Nodes outside ``c`` (``a`` included) on an active trail from ``a``
    given ``c``: the textbook walk over (node, travel-direction) pairs on
    name sets, a depth-first reference for the bitmask walk."""
    parents, children = parents_and_children(dag)
    c = set(c)
    anc_c: set[str] = set()
    stack = list(c)
    while stack:
        n = stack.pop()
        if n not in anc_c:
            anc_c.add(n)
            stack.extend(parents[n])
    visited: set[tuple[str, str]] = set()
    frontier = [(n, "up") for n in a]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if direction == "up":
            if node not in c:
                frontier += [(p, "up") for p in parents[node]]
                frontier += [(ch, "down") for ch in children[node]]
        else:
            if node not in c:
                frontier += [(ch, "down") for ch in children[node]]
            if node in anc_c:
                frontier += [(p, "up") for p in parents[node]]
    return {node for node, _ in visited if node not in c}


def sample_with_set_walk(dag: Dag, pool: list[str], n_triples: int, rng):
    """``sample_separated_triples`` on :func:`set_walk_oracle`, with the same
    draws from ``rng`` in the same order: blocks of ``n_triples`` attempts,
    the sizes from one ``integers`` call and each attempt's order of the pool
    from the argsort of a row of ``random``."""
    found = []
    budget = _ATTEMPTS_PER_TRIPLE * n_triples
    while budget and len(found) < n_triples:
        block = min(n_triples, budget)
        budget -= block
        sizes = rng.integers((1, 1, 0), 3, size=(block, 3))
        keys = rng.random((block, len(pool)))
        for (k_a, k_b, k_c), row in zip(sizes, keys):
            names = [pool[i] for i in np.argsort(row)]
            a, c = tuple(names[:k_a]), tuple(names[k_a:k_a + k_c])
            blocked = set_walk_oracle(dag, a, c).union(c)
            b = tuple(n for n in names[k_a + k_c:] if n not in blocked)[:k_b]
            if len(b) == k_b and len(found) < n_triples:
                found.append((a, b, c))
    return found


def sample_one_at_a_time(dag: Dag, pool: list[str], n_triples: int, rng):
    """Reference sampler with the per-attempt law of
    ``sample_separated_triples``, drawn one attempt at a time: scalar size
    draws, a permutation for A and C, then a second permutation of the
    nodes separated from A given C for B."""
    bit = {n: _mask(dag, n) for n in pool}
    walks = {}
    found = []
    while len(found) < n_triples:
        k_a, k_b, k_c = (int(rng.integers(low, 3)) for low in (1, 1, 0))
        names = [pool[i] for i in rng.permutation(len(pool))[: k_a + k_c]]
        a, c = _mask(dag, names[:k_a]), _mask(dag, names[k_a:])
        if (a, c) not in walks:
            walks[a, c] = _d_connected(dag, a, c) | c
        rest = [n for n in pool if not walks[a, c] & bit[n]]
        if len(rest) >= k_b:
            found.append((names[:k_a], [rest[i] for i in rng.permutation(len(rest))[:k_b]],
                          names[k_a:]))
    return found


class TestAgainstSetWalk:
    def test_bitmask_walk_matches_on_templates_and_random_dags(self):
        gen = np.random.default_rng(8)
        dags = [build_loop_dag(h, v) for h in range(1, 6)
                for v in ("general", "memoryless_env", "product_env")]
        dags += [random_dag(gen, int(gen.integers(4, 12))) for _ in range(20)]
        for dag in dags:
            for _ in range(50):
                a, _, c = disjoint_sets(gen, dag, 3, 1, 4)
                mask = _d_connected(dag, _mask(dag, a), _mask(dag, c))
                names = {n for i, n in enumerate(dag.nodes) if mask >> i & 1}
                assert names == set_walk_oracle(dag, a, c), (dag.edges, a, c)

    @pytest.mark.parametrize("variant", ["general", "memoryless_env", "product_env"])
    def test_sampler_draws_the_set_walk_triples(self, variant):
        dag = build_loop_dag(3, variant)
        pool = [n for n in dag.nodes if n[0] in "MASZ"]
        for seed in range(10):
            fast = sample_separated_triples(dag, pool, 40, np.random.default_rng(seed))
            assert fast == sample_with_set_walk(dag, pool, 40, np.random.default_rng(seed))

    def test_block_draws_keep_the_size_law(self):
        # each block attempt must have the law of a one-at-a-time attempt, so
        # the (|A|, |B|, |C|) frequencies of the accepted triples agree
        dag = build_loop_dag(3, "general")
        pool = [f"{v}{t}" for t in range(3) for v in "MASZ"]
        n = 5000
        patterns = [tuple(map(len, trip)) for trip in
                    sample_separated_triples(dag, pool, n, np.random.default_rng(11))]
        reference = [tuple(map(len, trip)) for trip in
                     sample_one_at_a_time(dag, pool, n, np.random.default_rng(12))]
        assert len(patterns) == len(reference) == n
        for pattern in set(patterns) | set(reference):
            p_new, p_ref = patterns.count(pattern) / n, reference.count(pattern) / n
            pooled = (p_new + p_ref) / 2
            se = np.sqrt(pooled * (1 - pooled) * 2 / n)
            assert abs(p_new - p_ref) <= 4 * se, (pattern, p_new, p_ref)

    def test_walk_memo_matches_set_walk(self, rng):
        # after the templates' checks, every memoised single-source walk is
        # the set walk from that node
        loops = {
            "general": random_environment(rng, 2, 2),
            "memoryless_env": random_memoryless_environment(rng),
            "product_env": random_environment(rng, 2, 2, action_invariant=True),
        }
        for variant, env in loops.items():
            pal = PerceptActionLoop(random_agent(rng, 2, 2), env)
            assert validate_compatibility(pal, horizon=3, n_triples=40, seed=1,
                                          variant=variant).ok
            dag = build_loop_dag(3, variant)
            assert dag._reach_memo
            for (node, c), reach in dag._reach_memo.items():
                c_names = {n for i, n in enumerate(dag.nodes) if c >> i & 1}
                names = {n for i, n in enumerate(dag.nodes) if reach >> i & 1}
                assert names == set_walk_oracle(dag, {dag.nodes[node]}, c_names), \
                    (variant, dag.nodes[node], c_names)


def networkx_graph(nx, dag: Dag):
    graph = nx.DiGraph()
    graph.add_nodes_from(dag.nodes)
    graph.add_edges_from(dag.edges)
    return graph


def disjoint_sets(gen, dag: Dag, max_a: int, max_b: int, max_c: int):
    """Random pairwise disjoint node sets, the first two nonempty."""
    nodes = list(dag.nodes)
    gen.shuffle(nodes)
    n_a, n_b = int(gen.integers(1, max_a + 1)), int(gen.integers(1, max_b + 1))
    n_c = int(gen.integers(0, max_c + 1))
    return (set(nodes[:n_a]), set(nodes[n_a:n_a + n_b]),
            set(nodes[n_a + n_b:n_a + n_b + n_c]))
