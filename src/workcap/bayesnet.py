"""Finite-horizon Bayesian networks of percept-action loops.

Three DAG templates are provided: the general loop (with the auxiliary
joint-output nodes V_t = (A_t, M_t) and W_t = (S_t, Z_{t+1}) that make the
channel factorization graphical), the memoryless-environment reduction
(direct A_t -> S_t wiring, no hidden chain), and the product-environment
variant (no action input into the W chain).  d-separation uses the standard
active-trail reachability with collider logic, run on node bitmasks (one
Python int per node set), and separations can be cross-validated against
exact conditional mutual information on trajectory tables.  The three loop
templates are built once per (horizon, variant) and shared; each keeps a
memo of the single-source walks that the triple sampler reads.

Truncation at a finite horizon is sound for queries whose conditioning set
contains no node beyond the horizon: any path escaping into the future must
pass a collider whose descendants all lie in the future too, hence blocked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import channels, info, loop
from .errors import DimensionError, DomainError

CMI_SOUNDNESS_TOL = 1e-9
# draws of (A, C) allowed per requested d-separated triple
_ATTEMPTS_PER_TRIPLE = 400


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph over named nodes."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise DimensionError("duplicate node names")
        for u, v in self.edges:
            if u not in node_set or v not in node_set:
                raise DomainError(f"edge ({u!r}, {v!r}) mentions an unknown node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(self.edges))
        # node i is bit i of a node-set mask; the adjacency masks are built
        # once and shared by every query
        index = {n: i for i, n in enumerate(nodes)}
        parents, children = [0] * len(nodes), [0] * len(nodes)
        for u, v in self.edges:
            parents[index[v]] |= 1 << index[u]
            children[index[u]] |= 1 << index[v]
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parent_bits", tuple(parents))
        object.__setattr__(self, "_child_bits", tuple(children))
        # (node index, conditioning mask) -> _d_connected from that one node;
        # filled and read by sample_separated_triples
        object.__setattr__(self, "_reach_memo", {})
        self._check_acyclic()

    def _check_acyclic(self):
        indeg = [bin(bits).count("1") for bits in self._parent_bits]
        frontier = [i for i, d in enumerate(indeg) if d == 0]
        seen = 0
        while frontier:
            u = frontier.pop()
            seen += 1
            for v in _bits(self._child_bits[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    frontier.append(v)
        if seen != len(self.nodes):
            raise DomainError("graph has a directed cycle")


@functools.lru_cache(maxsize=16)
def build_loop_dag(horizon: int, variant: str = "general") -> Dag:
    """DAG template for a ``horizon``-round loop.

    general:        V_t -> {M_t, A_t}, (A_t, Z_t) -> W_t -> {S_t, Z_{t+1}},
                    (M_t, S_t) -> V_{t+1}
    memoryless_env: V_t -> {M_t, A_t}, A_t -> S_t, (M_t, S_t) -> V_{t+1}
    product_env:    like general but Z_t alone feeds W_t

    The (immutable) result is cached, so repeated calls with the same
    arguments return the same ``Dag`` and share its walk memo.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    if variant not in ("general", "memoryless_env", "product_env"):
        raise DomainError(f"unknown variant {variant!r}")

    nodes: list[str] = []
    edges: set[tuple[str, str]] = set()
    with_hidden = variant != "memoryless_env"

    for t in range(horizon):
        nodes += [f"V{t}", f"M{t}", f"A{t}", f"S{t}"]
        if with_hidden:
            nodes += [f"Z{t}", f"W{t}"]
        edges.add((f"V{t}", f"M{t}"))
        edges.add((f"V{t}", f"A{t}"))
        if variant == "general":
            edges.add((f"A{t}", f"W{t}"))
            edges.add((f"Z{t}", f"W{t}"))
            edges.add((f"W{t}", f"S{t}"))
        elif variant == "product_env":
            edges.add((f"Z{t}", f"W{t}"))
            edges.add((f"W{t}", f"S{t}"))
        else:
            edges.add((f"A{t}", f"S{t}"))
        if t + 1 < horizon:
            edges.add((f"M{t}", f"V{t + 1}"))
            edges.add((f"S{t}", f"V{t + 1}"))
    if with_hidden:
        nodes.append(f"Z{horizon}")
        for t in range(horizon):
            edges.add((f"W{t}", f"Z{t + 1}"))
    return Dag(tuple(nodes), frozenset(edges))


def d_separated(dag: Dag, set_a, set_b, set_c) -> bool:
    """True iff every path between the two sets is blocked by the third.

    Standard rules: a chain or fork is blocked when its middle node is in the
    conditioning set; a collider is blocked when neither it nor any of its
    descendants is.  The sets are walked as bitmasks (:func:`_d_connected`).
    """
    a = _mask(dag, set_a)
    b = _mask(dag, set_b)
    c = _mask(dag, set_c)
    if (a & b) or (a & c) or (b & c):
        raise DomainError("node sets must be pairwise disjoint")
    if not a or not b:
        raise DomainError("both endpoint sets must be nonempty")
    return not (_d_connected(dag, a, c) & b)


def _bits(mask: int):
    """Indices of the set bits of ``mask``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _d_connected(dag: Dag, a: int, c: int) -> int:
    """Mask of the nodes outside ``c`` (``a`` included) on an active trail
    from ``a`` given ``c``, by the textbook walk over (node, travel-direction)
    pairs, one mask of visited nodes per direction."""
    parents = dag._parent_bits
    children = dag._child_bits

    # ancestors of the conditioning set (inclusive), for collider activation
    anc_c, new = 0, c
    while new:
        anc_c |= new
        up_one = 0
        for i in _bits(new):
            up_one |= parents[i]
        new = up_one & ~anc_c

    # "up": entered against edge direction (from a child); "down": entered
    # along edge direction (from a parent)
    seen_up = seen_down = 0
    up, down = a, 0
    while up or down:
        seen_up |= up
        seen_down |= down
        next_up = next_down = 0
        for i in _bits(up & ~c):
            next_up |= parents[i]
            next_down |= children[i]
        for i in _bits(down & ~c):
            next_down |= children[i]
        for i in _bits(down & anc_c):  # collider at this node can be active
            next_up |= parents[i]
        up, down = next_up & ~seen_up, next_down & ~seen_down
    return (seen_up | seen_down) & ~c


def _mask(dag: Dag, names) -> int:
    names = (names,) if isinstance(names, str) else tuple(names)
    mask = 0
    for n in names:
        if n not in dag._index:
            raise KeyError(f"unknown node {n!r}")
        mask |= 1 << dag._index[n]
    return mask


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of sampling d-separated triples and checking exact CMI."""

    variant: str
    horizon: int
    n_checked: int
    violations: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def sample_separated_triples(dag: Dag, pool: list[str], n_triples: int,
                             rng: np.random.Generator):
    """Randomly sampled (A, B, C) subsets of ``pool`` that are d-separated.

    Each attempt draws |A|, |B| in {1, 2} and |C| in {0, 1, 2} uniformly and
    a uniform order of ``pool``: A is its first |A| nodes, C the next |C|,
    and B the first |B| of the remaining nodes that are d-separated from A
    given C, a uniform ordered subset of those.  The attempt fails when
    fewer than |B| remain.  The first ``n_triples`` successes are returned,
    from at most ``_ATTEMPTS_PER_TRIPLE * n_triples`` attempts.

    Attempts are drawn in blocks of ``n_triples``: one ``rng.integers``
    call for the sizes and one ``rng.random`` row per attempt whose argsort
    is the order.  Each attempt has the law of a one-at-a-time draw.
    Trails from a set are the union of the trails from its members, read
    from the dag's memo of single-source walks (``dag._reach_memo``), so a
    walk is run once per dag, not per attempt.
    An attempt is rejected, before the pool is scanned, as soon as fewer
    than |B| pool nodes are outside the blocked mask: one popcount.  So the
    pool may not repeat a node (``DimensionError``), and an unknown node
    raises ``KeyError``.
    """
    if n_triples < 1:
        raise DimensionError(f"n_triples must be >= 1, got {n_triples}")
    pool_mask = _mask(dag, pool)
    if pool_mask.bit_count() != len(pool):
        raise DimensionError("pool repeats a node")
    index = [dag._index[n] for n in pool]
    memo = dag._reach_memo
    found = []
    budget = _ATTEMPTS_PER_TRIPLE * n_triples
    while budget and len(found) < n_triples:
        block = min(n_triples, budget)
        budget -= block
        sizes = rng.integers((1, 1, 0), 3, size=(block, 3)).tolist()
        orders = rng.random((block, len(pool))).argsort(axis=1).tolist()
        for (k_a, k_b, k_c), order in zip(sizes, orders):
            c = 0
            for i in order[k_a:k_a + k_c]:
                c |= 1 << index[i]
            blocked = c
            for i in order[:k_a]:
                reach = memo.get((index[i], c))
                if reach is None:
                    reach = memo[index[i], c] = _d_connected(dag, 1 << index[i], c)
                blocked |= reach
            # the free pool nodes are those after A and C in the order
            if (pool_mask & ~blocked).bit_count() < k_b:
                continue
            b = [pool[i] for i in order[k_a + k_c:] if not blocked >> index[i] & 1][:k_b]
            found.append((tuple(pool[i] for i in order[:k_a]), tuple(b),
                          tuple(pool[i] for i in order[k_a:k_a + k_c])))
            if len(found) == n_triples:
                break
    return found


def validate_compatibility(pal: loop.PerceptActionLoop, horizon: int,
                           n_triples: int = 50, seed: int = 0,
                           variant: str = "general") -> CompatibilityReport:
    """Check that sampled d-separations hold as exact independences.

    Samples ``n_triples`` d-separated triples over the non-auxiliary nodes of
    the chosen template and asserts CMI below 1e-9 nats on the exact joint
    of the pool they are drawn from, which has no Z in the memoryless
    template.  The memoryless and product templates additionally require
    the environment to be of the matching class.

    The triples come from :func:`sample_separated_triples` seeded with
    ``seed``: attempts drawn in blocks, each with the law of a single draw,
    at most ``_ATTEMPTS_PER_TRIPLE`` per triple, trails read from the
    template's shared walk memo.  ``n_triples < 1`` raises
    ``DimensionError``, since a check of no triples would pass vacuously.

    Each triple's CMI is the one :func:`info.conditional_mutual_information`
    gives it, bit for bit, but the marginal entropy of each distinct
    variable set is summed once per call: triples that share H(C), H(AC) or
    H(BC) read it from a memo local to the call, keyed on the set.
    """
    if variant == "memoryless_env":
        if channels.is_memoryless_invariant(pal.env) is None:
            raise DomainError("memoryless_env template needs a memoryless environment")
        pool_vars = ("M", "A", "S")
    elif variant == "product_env":
        # the template's hidden chain is the action-stripped re-model, which
        # matches the trajectory's Z only for action-invariant kernels
        if not channels.has_action_invariant_kernel(pal.env):
            raise DomainError("product_env template needs an action-invariant kernel")
        pool_vars = ("M", "A", "S", "Z")
    elif variant == "general":
        pool_vars = ("M", "A", "S", "Z")
    else:
        raise DomainError(f"unknown variant {variant!r}")

    dag = build_loop_dag(horizon, variant)
    pool = [f"{v}{t}" for t in range(horizon) for v in pool_vars]
    rng = np.random.default_rng(seed)
    triples = sample_separated_triples(dag, pool, n_triples, rng)

    joint = loop._trajectory_marginal(pal, horizon, pool)
    entropies = {}  # one marginal entropy per variable set, for this call only

    def entropy_of(vars):
        key = frozenset(vars)
        if key not in entropies:
            entropies[key] = info._marginal_entropy_nats(joint, vars)
        return entropies[key]

    violations = []
    for trip in triples:
        cmi = info._cmi_nats(entropy_of, *trip)
        if cmi >= CMI_SOUNDNESS_TOL:
            violations.append((*trip, cmi))
    return CompatibilityReport(variant, horizon, len(triples), tuple(violations))
