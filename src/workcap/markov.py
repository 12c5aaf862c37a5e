"""Finite-state homogeneous Markov chain asymptotics.

Communication structure, periods, and the subsequence-limit laws of given
start vectors, whose mean is their Cesàro (time-average) limit, for
arbitrary finite row-stochastic kernels including reducible and periodic
ones.  This is the package's one asymptotics engine: every limit it
reports, work rates and capacities included, comes from here.  It needs
numpy only.  Classes and periods come from graph structure alone, so no
tolerance is involved: the classes from forward-backward reachability with
trimming on :func:`bfs_levels` sweeps, and each closed class's period from
the BFS levels of the search that found it.
Structure (the states reached from a start pattern, and the closed
classes and period lcm of the chain on them) depends only on the support
pattern, the positions of the nonzero entries, and the start pattern, so it
is computed once per pair of patterns and shared through one LRU memo of
the ``_STRUCTURE_MEMO_SIZE`` most recent pairs; an optimizer's positive
kernels all share one pair.  Callers that ask about the whole chain start
from every state.  Limit laws come from one direct elimination,
GTH's censoring of states, with no iteration or tolerance: a closed class
is censored down to one state for its stationary vector, and the transient
states down to one absorbing state per closed class for absorption.  Every
sum adds numbers of one sign, so sticky, slowly leaking (also through
transient states that pass mass among themselves), periodic and reducible
chains keep their digits.  The elimination runs in blocks of
``_GTH_BLOCK`` states whose panel and trailing updates are products of
nonnegative matrices, as are the blocks' triangular inverses (by block
doubling), so it costs n Python-level steps on small arrays plus O(n^3)
flops in BLAS-3 products.  Every rate needs only the laws of
its start vectors, so no n x n limit matrix is formed.  :func:`_limit_laws`
is the engine's one entry.  It takes any stack of kernels and start
vectors and groups the members by structure, also where their support
patterns differ, so each group shares its Python-level steps; it gathers a
group's reachable subchain only when some state is unreachable, and no
states when one closed class holds them all.
The kernels belong to the caller, and the engine writes them only when the
caller hands them over (``overwrite``): it eliminates in its own gathers,
and when one closed class holds every state, in the kernels themselves if
handed over and in a copy otherwise.  ``loop.work_rate`` hands over the
kernel it built and read, so it makes no n x n copy.

Convention: ``probs[i, j]`` is the probability of moving from state ``i``
to state ``j``; rows sum to one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

ROW_SUM_TOL = 1e-12


def _check_stochastic(arr: np.ndarray, *, name: str) -> None:
    """Raise DomainError, naming the first offending row, unless every row
    (last axis) of ``arr`` is a probability vector within ROW_SUM_TOL; a
    vector is one row, and leading axes stack members."""
    keep = arr.ndim == 1  # a vector's one row keeps an index
    row_sums = arr.sum(axis=-1, keepdims=keep)
    # written so that NaN fails it too: the min and max of NaN are NaN, and
    # every comparison with NaN is false
    if (arr.min() >= -ROW_SUM_TOL and arr.max() <= 1.0 + ROW_SUM_TOL
            and np.abs(row_sums - 1.0).max() <= ROW_SUM_TOL):
        return
    ok = ((arr >= -ROW_SUM_TOL) & (arr <= 1.0 + ROW_SUM_TOL)).all(axis=-1, keepdims=keep)
    bad = tuple(np.argwhere(~(ok & (np.abs(row_sums - 1.0) <= ROW_SUM_TOL)))[0])
    *member, row = bad
    where = f"member {int(member[0])} " if member and len(arr) > 1 else ""
    where += "" if keep else f"row {int(row)} "
    if not ok[bad]:
        raise DomainError(f"{name}: {where}has an entry not in [0, 1]")
    raise DomainError(f"{name}: {where}sums to {float(row_sums[bad])!r}, expected 1")


@dataclass(frozen=True)
class TransitionKernel:
    """A Markov chain's one-step kernel: a square row-stochastic table."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise DimensionError(f"kernel: expected a nonempty square table, got shape {arr.shape}")
        _check_stochastic(arr, name="kernel")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite index set."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"distribution: expected a nonempty vector, got shape {arr.shape}")
        _check_stochastic(arr, name="distribution")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size


def _owning(cls, probs: np.ndarray):
    """A ``cls`` (TransitionKernel or Distribution) around ``probs`` itself,
    neither copied nor checked: only for a fresh product of checked factors."""
    held = object.__new__(cls)
    probs.setflags(write=False)
    object.__setattr__(held, "probs", probs)
    return held


@dataclass(frozen=True)
class StateClassification:
    """Communicating classes plus a per-state recurrent/transient verdict."""

    classes: tuple[tuple[int, ...], ...]
    class_recurrent: tuple[bool, ...]
    recurrent: np.ndarray  # bool per state


def _classify(support: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The classes of the ``support`` pattern, numbered in order of their
    smallest state: each state's class, whether each class is closed, and
    the periods of the closed classes in that order.

    Forward-backward reachability with trimming (Fleischer, Hendrickson &
    Pinar 2000; McLendon et al. 2005), run on one part of the states at a
    time, the first part being all states.  States with no in-edge or no
    out-edge from another state of the part are peeled off as classes of
    their own, the degrees updated as they go, until none is left.  The
    middle state of the rest is the pivot, so a line of classes splits in
    halves: the states it reaches and those reaching it (two
    :func:`bfs_levels` sweeps, the second backward from its in-neighbours)
    meet in its class, and every other class lies wholly in the states only
    the pivot reaches, in those only reaching it or in the others, each a
    new part.  A class with a loop has period 1.  A closed class is all its
    pivot reaches, so its period, the gcd of its cycle lengths, is the gcd
    of ``level[u] + 1 - level[v]`` over its edges (u, v), with the levels
    of the forward sweep; a closed class peeled off is one state with a
    loop."""
    n = len(support)
    labels = np.empty(n, dtype=np.intp)
    periods = {}  # label -> period, of a class with a loop or spanning its pivot's reach
    count = 0
    parts = [np.arange(n)]
    while parts:
        idx = parts.pop()
        sub = support if len(idx) == n else support[idx][:, idx]
        loops = sub.diagonal()
        out_deg, in_deg = sub.sum(axis=1) - loops, sub.sum(axis=0) - loops
        alive = np.ones(len(idx), dtype=bool)
        peel = (out_deg == 0) | (in_deg == 0)
        while peel.any():
            gone = np.flatnonzero(peel)
            labels[idx[gone]] = np.arange(count, count + gone.size)
            count += gone.size
            alive[gone] = False
            out_deg -= sub[:, gone].sum(axis=1)
            in_deg -= sub[gone].sum(axis=0)
            peel = alive & ((out_deg == 0) | (in_deg == 0))
        if not alive.any():
            continue
        if not alive.all():
            keep = np.flatnonzero(alive)
            idx, sub = idx[keep], sub[keep][:, keep]
        middle = len(idx) // 2
        pivot = np.arange(len(idx)) == middle
        level = bfs_levels(pivot, sub)
        ahead = level >= 0
        # the pivot and the states that reach its in-neighbours
        behind = (bfs_levels(sub[:, middle], sub.T) >= 0) | pivot
        own = ahead & behind
        labels[idx[own]] = count
        if sub.diagonal()[own].any():
            periods[count] = 1
        elif own.sum() == ahead.sum():  # no edge leaves the reach, so none its rows
            terms = (level[ahead, None] + 1 - level)[sub[ahead]]
            periods[count] = int(np.gcd.reduce(np.flatnonzero(np.bincount(terms))))
        count += 1
        parts += [idx[part] for part in (ahead & ~own, behind & ~own, ~(ahead | behind))
                  if part.any()]
    closed = np.ones(count, dtype=bool)
    closed[labels[(support & (labels[:, None] != labels)).any(axis=1)]] = False  # an edge leaves
    _, first = np.unique(labels, return_index=True)
    order = np.argsort(first)  # classes by their smallest state
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    return rank[labels], closed[order], tuple(periods.get(int(c), 1) for c in order[closed[order]])


def _class_members(labels: np.ndarray, keep: np.ndarray) -> list[np.ndarray]:
    """The states of each class c with ``keep[c]``, classes numbered as by
    :func:`_classify`, in class order and each ascending: read-only views
    of one stable argsort, so no class costs a scan of every state."""
    states = np.flatnonzero(keep[labels])
    states = states[np.argsort(labels[states], kind="stable")]
    states.setflags(write=False)
    return np.split(states, np.cumsum(np.bincount(labels, minlength=len(keep))[keep])[:-1])


def classify_states(kernel: TransitionKernel) -> StateClassification:
    """Partition states into communicating classes and mark the recurrent ones.

    Classes are the strongly connected components of the positive-probability
    digraph; a class is recurrent iff it is closed (no edge leaves it).
    """
    labels, closed, _ = _classify(kernel.probs > 0.0)
    recurrent = closed[labels]
    recurrent.setflags(write=False)
    classes = _class_members(labels, np.ones_like(closed))
    return StateClassification(tuple(tuple(c.tolist()) for c in classes),
                               tuple(closed.tolist()), recurrent)


def bfs_levels(start: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Fewest steps from the ``start`` mask to each state along the edges
    ``support[i, j]`` (from i to j); -1 for states never reached, so
    ``bfs_levels(start, support) >= 0`` is the reachable set."""
    frontier = np.array(start, dtype=bool)
    level = np.where(frontier, 0, -1)
    depth = 0
    while frontier.any():
        depth += 1
        frontier = support[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


@dataclass(frozen=True)
class _Structure:
    """What a kernel's support pattern and a start pattern alone decide, and
    so what every member of a group of :func:`_pattern_groups` shares: the
    mask ``reach`` of states reached from the start and, for the subchain
    on those states indexed in their order, the closed classes (as index
    arrays) and the lcm of their periods."""

    reach: np.ndarray
    closed: tuple[np.ndarray, ...]
    period_lcm: int


# distinct (support, start) patterns remembered; an optimizer's kernels are
# all positive, so its thousands of evaluations share a handful of patterns
_STRUCTURE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_STRUCTURE_MEMO_SIZE)
def _memo_structure(shape: tuple[int, int], packed: bytes) -> _Structure:
    """``packed`` holds the bits of the ``shape`` support pattern, row by
    row, and then those of the start pattern, one per state."""
    n = shape[0]
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n * n + n).view(bool)
    support, start = bits[:n * n].reshape(shape), bits[n * n:]
    reach = start.copy() if start.all() else bfs_levels(start, support) >= 0
    reach.setflags(write=False)
    labels, closed, periods = _classify(support if reach.all() else support[np.ix_(reach, reach)])
    return _Structure(reach, tuple(_class_members(labels, closed)), math.lcm(*periods))


def _pattern_groups(support: np.ndarray, start: np.ndarray | None = None
                    ) -> list[tuple[list[int] | slice, _Structure]]:
    """A stack's members grouped by structure, in order of first
    appearance, from their support patterns (``support``, ``(B, n, n)``)
    and start patterns (``start``, ``(B, n)``; every state if None).
    Members share a group when their structures are equal, though their
    transient classes may differ.  A stack of one group is the one group
    ``slice(None)``, so taking it copies nothing.  Structures are computed
    once per pair of patterns and shared between callers, so they must not
    be mutated."""
    B, n = support.shape[:2]
    if start is None:
        start = np.ones((B, n), dtype=bool)
    packed = np.packbits(np.concatenate([support.reshape(B, -1), start], axis=1), axis=1)
    if (packed == packed[0]).all():
        return [(slice(None), _memo_structure((n, n), packed[0].tobytes()))]
    patterns: dict[bytes, list[int]] = {}
    for i, bits in enumerate(packed):
        patterns.setdefault(bits.tobytes(), []).append(i)
    groups: dict[tuple, tuple[list[int], _Structure]] = {}
    for key, members in patterns.items():
        structure = _memo_structure((n, n), key)
        read = (structure.reach.tobytes(), structure.period_lcm,
                *map(np.ndarray.tobytes, structure.closed))
        groups.setdefault(read, ([], structure))[0].extend(members)
    merged = [(sorted(members), structure) for members, structure in groups.values()]
    return [(slice(None), merged[0][1])] if len(merged) == 1 else merged


# states per elimination block, a power of two for _triangular_inverses:
# above the block that holds state 0, a block's per-state steps run on its
# own small array and the rest of the elimination is matrix products (blocks
# of 32 to 64 timed within noise of each other at n = 256 to 1024 on one
# BLAS thread, 96 and 128 slower)
_GTH_BLOCK = 64


def _censor(A: np.ndarray, keep: int) -> tuple[list[np.ndarray], bool]:
    """GTH's per-state steps on a ``(B, n, n)`` stack, in place: states
    n-1, ..., keep are censored out in turn, each dividing its column by its
    outflow into the states below it and then passing its row through that
    column, so the row left at its elimination holds its moves to the states
    below it.  Returns those ``(B, 1)`` outflows, the divisors, from state
    n-1 down, and ``careful``, whether some row to censor moves to state 0
    with less than the smallest normal probability.

    A column divided by a subnormal outflow may overflow, so it is divided
    by the outflow times 1/eps, which makes every subnormal normal, and the
    row passed through it is multiplied by 1/eps, which keeps the update:
    the column is left lifted, 1/eps times smaller than the quotient, and
    its readers undo that.  Powers of two scale exactly, so a member whose
    outflow is normal gets the bits it gets without this.  Censoring only
    adds to the rows' entries, and state 0 is below every state censored,
    so unless ``careful``, no outflow is subnormal and no step looks.  A
    step takes its row, its column and the block below it as views once
    and writes the divided column and the block's update into them in
    place, so it costs four ufunc calls."""
    tiny = sys.float_info.min  # the smallest normal number
    careful = A.shape[-1] > keep and not A[:, keep:, 0].min() >= tiny
    divisors = []
    for k in range(A.shape[-1] - 1, keep - 1, -1):
        row, col, block = A[:, k, :k], A[:, :k, k], A[:, :k, :k]
        out = np.add.reduce(row, axis=1, keepdims=True)
        divisors.append(out)
        if careful and not out.min() >= tiny:
            lift = np.where(out < tiny, 1 / sys.float_info.epsilon, 1.0)
            row = row * lift
            out = out * lift
        np.divide(col, out, out=col)
        np.add(block, col[:, :, None] * row[:, None, :], out=block)
    return divisors, careful


def _triangular_inverses(T: np.ndarray) -> np.ndarray:
    """Inverses of a ``(B, m, m)`` stack of lower triangular M-matrices that
    are zero above their diagonal, m a power of two, by block doubling: from
    the inverses of the diagonal blocks of size s, those of size 2s are
    ``inv([[F, 0], [C, G]]) = [[F^-1, 0], [G^-1 (-C) F^-1, G^-1]]``.  The
    inverses and -C are nonnegative, so every sum adds same-signed terms,
    and the zeros above the diagonal stay zeros.  The diagonal blocks of one
    size are strided views of the stack, so each size costs two batched
    matrix products."""
    B, m = T.shape[:2]
    diag = np.arange(m)
    negated = -T
    inverse = np.zeros((B, m, m))
    inverse[:, diag, diag] = 1.0 / T[:, diag, diag]
    s = 1
    while s < m:
        blocks = (B, m // (2 * s), 2 * s, m // (2 * s), 2 * s)
        # the diagonal blocks, (B, m / 2s, 2s, 2s) views
        c = np.einsum("bkikj->bkij", negated.reshape(blocks))[..., s:, :s]
        x = np.einsum("bkikj->bkij", inverse.reshape(blocks))
        x[..., s:, :s] = x[..., s:, s:] @ c @ x[..., :s, :s]
        s *= 2
    return inverse


def _eliminate(A: np.ndarray, keep: int
               ) -> tuple[list[np.ndarray], list[np.ndarray], bool]:
    """GTH elimination of states n-1, ..., ``keep`` of a ``(B, n, n)`` stack,
    in place; states below ``keep`` stay.  Both limit laws read their
    results back from it: a stationary vector keeps state 0 of its class
    and absorption keeps one absorbing state per closed class.  ``A`` is
    C-ordered work space.

    Grassmann, Taksar & Heyman (1985): states are censored out one at a
    time from the last, and each elimination divides by the censored row's
    off-diagonal sum instead of forming ``1 - p_kk``, so only nonnegative
    numbers are ever added and no digits cancel.  The diagonal is never
    read.  Each step acts on the whole stack, so the n Python-level steps
    are shared by its B kernels.

    While more than ``_GTH_BLOCK`` states are left to censor, they are
    censored a block K of that many at a time, R being the states below K.
    The per-state steps run on the small array ``[outflow of each K row
    into R | A_KK]``, since a row sum is all a divisor needs from R.  They
    leave the divisors D, the rows at their elimination L >= 0 (below the
    diagonal) and the divided columns U >= 0 (above it).  The divided
    column panel is then ``X = A_RK (D - L)^-1`` and the row panel at
    elimination ``Z = (I - U)^-1 A_KR``; both factors are triangular
    M-matrices with nonnegative inverses, so these products and the update
    ``A_RR += X Z`` add nonnegative numbers only; ``(I - U)^-1`` is
    inverted as its transpose, in one stack with ``(D - L)^-1``
    (:func:`_triangular_inverses`).  Updates are applied
    left-looking: just before a block is censored, its panels receive the
    updates of all blocks above it in two matrix products, so no update of
    the whole trailing matrix is ever formed.  X, Z and ``(I - U)^-1``
    overwrite A_RK, A_KR and A_KK.  The last states, fewer than
    ``_GTH_BLOCK``, are censored one at a time on ``A`` itself, so a chain
    of at most ``_GTH_BLOCK`` states above ``keep`` is censored one state
    at a time throughout.

    Returns the divisors of the states censored one at a time, from state
    ``keep`` up, each block's ``(D - L)^-1``, from the lowest block up, and
    the ``careful`` flag of :func:`_censor` for the states censored one at
    a time.  Only the states censored one at a time are rescaled where an
    outflow is subnormal, so a block with a subnormal divisor raises
    DomainError before ``(D - L)^-1`` is formed, where 1/D would overflow.
    Cost: n Python-level steps on arrays of at most ``_GTH_BLOCK + 1``
    columns plus O(n^3) flops in matrix products.
    """
    B, n = A.shape[:2]
    m = _GTH_BLOCK
    diag = np.arange(m)
    lower_inverses = []
    lo = n
    while lo - keep >= m:
        hi, lo = lo, lo - m
        if hi < n:
            A[:, :hi, lo:hi] += A[:, :hi, hi:] @ A[:, hi:, lo:hi]
            A[:, lo:hi, :lo] += A[:, lo:hi, hi:] @ A[:, hi:, :lo]
        # state 0 of W is R merged into one state; it is never censored
        W = np.zeros((B, m + 1, m + 1))
        W[:, 1:, 0] = A[:, lo:hi, :lo].sum(axis=2)
        W[:, 1:, 1:] = A[:, lo:hi, lo:hi]
        divisors = np.concatenate(_censor(W, 1)[0][::-1], axis=1)
        if not divisors.min() >= sys.float_info.min:
            raise DomainError(f"a subnormal outflow inside a {m}-state GTH elimination "
                              "block is not supported: blocks are not rescaled")
        # D - L and the transpose of I - U, inverted as one stack
        factors = np.concatenate([np.tril(-W[:, 1:, 1:], -1),
                                  np.tril(-W[:, 1:, 1:].transpose(0, 2, 1), -1)])
        factors[:B, diag, diag] = divisors
        factors[B:, diag, diag] = 1.0
        inverses = _triangular_inverses(factors)
        lower_inverses.append(inverses[:B])
        A[:, :lo, lo:hi] = A[:, :lo, lo:hi] @ inverses[:B]
        # A_KK is spent, so it keeps (I - U)^-1 for the back-substitution
        A[:, lo:hi, lo:hi] = inverses[B:].transpose(0, 2, 1)
        A[:, lo:hi, :lo] = A[:, lo:hi, lo:hi] @ A[:, lo:hi, :lo]
    if lo < n:
        A[:, :lo, :lo] += A[:, :lo, lo:] @ A[:, lo:, :lo]
    divisors, careful = _censor(A[:, :lo, :lo], keep)
    return divisors[::-1], lower_inverses[::-1], careful


def _gth_stationary(A: np.ndarray) -> np.ndarray:
    """Stationary vectors of a ``(B, n, n)`` stack of irreducible kernels
    by GTH elimination (:func:`_eliminate`) down to state 0, one row of the
    ``(B, n)`` result per kernel.  ``A`` is C-ordered work space and may be
    overwritten.  The back-substitution reads each state's divided column:
    ``x_j = x_{:j} A[:j, j]`` for a state censored alone, one product
    written into x in place, and ``x_K = x_R X (I - U)^-1`` for a block, so
    it too adds nonnegative numbers only.

    Every x_j is π_j / π_0 for the chain left to the states censored alone,
    and π_0 is at least its least move to state 0, so unless ``careful``
    (:func:`_censor`), x and its sum stay below 1 + 1/tiny and no column is
    lifted.  A stationary vector is defined up to scale, so otherwise x is
    kept finite by powers of two, which scale exactly.  x_j is at most
    sum(x_{:j}) / out_j, so sum(x) is at most 2^(lo-1) / prod(out), which
    a lifted column's subnormal out_j makes large.  Where that may pass
    2^1020, x_{:j} is scaled before each x_j is formed so that x_j's bound
    sum(x_{:j}) 2^grow_j stays below 2^1020, 2^grow_j bounding 1/out_j, or
    eps/out_j for a lifted column, and after a lifted column x_{:j} is
    multiplied by eps, which undoes the lift.  Only masses that fall below
    the smallest normal number relative to the largest lose digits, and a
    member that needs no scaling gets the bits it gets without this.  The
    blocks' back-substitution does not rescale."""
    B, n = A.shape[:2]
    m = _GTH_BLOCK
    divisors, _, careful = _eliminate(A, 1)
    lo = 1 + len(divisors)
    if careful and lo > 1:
        careful = not np.concatenate(divisors, axis=1).prod(axis=1).min() >= 2.0 ** (lo - 1021)
    x = np.empty((B, n))
    x[:, 0] = 1.0
    for j, out in zip(range(1, lo), divisors):
        if careful:
            lifted = out[:, 0] < sys.float_info.min
            grow = 1 - np.frexp(out[:, 0])[1] - 52 * lifted  # out >= 2^(exponent - 1)
            total = np.frexp(x[:, :j].sum(axis=1))[1]  # sum(x_{:j}) < 2^total
            x[:, :j] = np.ldexp(x[:, :j], np.minimum(1020 - total - grow, 0)[:, None])
        np.matmul(x[:, None, :j], A[:, :j, j, None], out=x[:, None, j:j + 1])
        if careful:
            x[lifted, :j] *= sys.float_info.epsilon
    for k in range(lo, n, m):
        x[:, k:k + m] = (x[:, None, :k] @ A[:, :k, k:k + m] @ A[:, k:k + m, k:k + m])[:, 0]
    return x / x.sum(axis=1, keepdims=True)


def _absorption(Q: np.ndarray, closed: tuple[np.ndarray, ...], t: np.ndarray) -> np.ndarray:
    """``H[b, i, c]``, the probability that kernel b of a ``(B, n, n)``
    stack started in transient state ``t[i]`` ends in closed class
    ``closed[c]``, as a ``(B, |t|, |closed|)`` array.

    The transient states of ``[one absorbing state per closed class |
    transient states]`` are censored (:func:`_eliminate`) down to the
    absorbing states; a censored state's row at its elimination, divided by
    its outflow, is the law of its first move to a state below it, so
    ``h_k = A[k, :k] h_{:k} / out_k`` from the absorbing states up, and
    ``h_K = (D - L)^-1 Z h_R`` for a block.  Every sum adds nonnegative
    numbers, so transient states that pass mass among themselves and leak
    slowly keep their digits.
    """
    B, c, n = len(Q), len(closed), len(closed) + t.size
    m = _GTH_BLOCK
    stack = np.arange(B)  # ix_ gathers are C-ordered: class sums round as alone
    A = np.zeros((B, n, n))
    for j, members in enumerate(closed):
        A[:, c:, j] = Q[np.ix_(stack, t, members)].sum(axis=2)
    A[:, c:, c:] = Q[np.ix_(stack, t, t)]
    divisors, lower_inverses, _ = _eliminate(A, c)
    lo = c + len(divisors)
    h = np.zeros((B, n, c))
    h[:, :c] = np.eye(c)
    for k, out in zip(range(c, lo), divisors):
        h[:, k] = (A[:, k, None, :k] @ h[:, :k])[:, 0] / out
    for k, inverse in zip(range(lo, n, m), lower_inverses):
        h[:, k:k + m] = inverse @ (A[:, k:k + m, :k] @ h[:, :k])
    return h[:, c:]


def _power_limit(Q: np.ndarray, closed: tuple[np.ndarray, ...], V: np.ndarray,
                 overwrite: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``V lim Q^n`` for a ``(B, n, n)`` stack of kernels whose closed
    classes ``closed``, shared by the stack, are aperiodic, and a ``(B, k,
    n)`` stack of row vectors ``V``, with the factors ``(B, n, C)`` and
    ``(B, C, n)`` of the limit: the absorption into each closed class and
    the classes' stationary vectors.

    The limit sends each row to its closed classes' stationary vectors; a
    class's weight is the row's mass in the class plus its transient mass
    times the absorption probabilities into the class.  Both come from one
    GTH elimination (:func:`_eliminate`): a class's stationary vector by
    censoring the class down to its first state, and absorption by
    censoring the transient states down to one absorbing state per class
    (:func:`_absorption`), so every sum adds nonnegative numbers and slow
    leaks keep their digits.  No n x n limit is formed.  The closed classes
    of one size are gathered into one ``(B C_s, s, s)`` stack and eliminated
    at once.  Every gather is a new C-ordered array, so each member's and
    each class's sums round as they do for it alone.  When one closed class
    holds every state, gathers would copy everything, so there are none:
    GTH runs in ``Q`` itself if ``overwrite`` (the caller hands ``Q`` over
    and reads it no more), and otherwise in a copy of it, and each row's
    law is its sum times the stationary vector.  ``Q`` is read only
    otherwise.
    """
    B, n = Q.shape[0], Q.shape[-1]
    if len(closed) == 1 and len(closed[0]) == n:
        pi = _gth_stationary(Q if overwrite else Q.copy())[:, None, :]
        return V.sum(axis=2)[:, :, None] * pi, np.ones((B, n, 1)), pi
    absorb, stationary = np.zeros((B, n, len(closed))), np.zeros((B, len(closed), n))
    transient = np.ones(n, dtype=bool)
    weights = []
    for c, members in enumerate(closed):
        transient[members] = False
        absorb[:, members, c] = 1.0
        weights.append(V.take(members, axis=2).sum(axis=2))
    sizes = np.array([len(members) for members in closed])
    stack = np.arange(B)[:, None, None, None]
    for size in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == size)
        idx = np.stack([closed[c] for c in same])  # (C_s, s)
        # one C-ordered (B, C_s, s, s) gather; GTH may overwrite it
        pi = _gth_stationary(Q[stack, idx[:, :, None], idx[:, None, :]].reshape(-1, size, size))
        stationary[:, same[:, None], idx] = pi.reshape(B, len(same), size)
    t = np.flatnonzero(transient)
    if t.size:
        absorb[:, t] = _absorption(Q, closed, t)
        absorbed = V.take(t, axis=2) @ absorb[:, t]
        weights = [w + absorbed[:, :, c] for c, w in enumerate(weights)]
    return np.stack(weights, axis=2) @ stationary, absorb, stationary


def _limit_laws(P: np.ndarray, u: np.ndarray, overwrite: bool = False) -> list[tuple]:
    """The engine's one entry: the subsequence-limit laws of any ``(B, n,
    n)`` stack of kernels ``P`` from each member's ``(k, n)`` start vectors
    ``u``, by groups of members with one structure.

    Members are grouped by their support patterns and start patterns, a
    start pattern being the states where some start vector is positive
    (:func:`_pattern_groups`).  Each group is ``(members, structure, laws,
    solved, limit)``: ``laws[i, j, r] = u_j P^r L`` for r < d, a ``(B_g,
    k, d, n)`` array whose mean over r is the Cesàro limit of the law from
    u_j, with d the period lcm and ``L = lim Q^n``, Q = P^d; ``solved`` is
    the kernels the laws were solved on, and ``limit`` is Q with L's
    factors from :func:`_power_limit`, padded with zero classes to the most
    any member has.  When some state is unreachable, ``solved`` is the
    group's gathered reachable subchain, ``limit`` lives on it and the laws
    are padded with zeros back to n.  A caller that reads ``P`` no more may
    hand it over (``overwrite``): when d = 1 and one closed class holds
    every reachable state, the elimination then runs in ``solved``, which
    is ``P`` itself for a group of the whole stack, and ``solved`` and Q
    are spent.  ``P`` is read only otherwise.  ``P^d``'s closed classes,
    the cyclic subclasses, are aperiodic; they come from each member's
    numeric pattern of ``P^d``, so underflow counts as 0.  Nothing is
    iterated, so there is no tolerance and no convergence failure.
    """
    B, k, n = u.shape
    groups = []
    for members, structure in _pattern_groups(P > 0.0, (u > 0.0).any(axis=1)):
        reach, d = structure.reach, structure.period_lcm
        if reach.all():
            solved, V = P[members], u[members]
        else:
            rows = np.arange(B)[members]
            solved, V = P[np.ix_(rows, reach, reach)], u[rows][:, :, reach]
        if d == 1:
            laws, absorb, stationary = _power_limit(solved, structure.closed, V, overwrite)
            Q = solved
        else:
            steps = [V]
            for _ in range(d - 1):
                steps.append(steps[-1] @ solved)
            V = np.stack(steps, axis=2).reshape(len(solved), -1, solved.shape[-1])
            Q = np.linalg.matrix_power(solved, d)
            cyclic_groups = _pattern_groups(Q > 0.0)
            C = max(len(cyclic.closed) for _, cyclic in cyclic_groups)
            laws = np.empty_like(V)
            absorb, stationary = np.zeros((*Q.shape[:2], C)), np.zeros((len(Q), C, Q.shape[-1]))
            for idx, cyclic in cyclic_groups:
                c = len(cyclic.closed)
                laws[idx], absorb[idx, :, :c], stationary[idx, :c] = _power_limit(
                    Q[idx], cyclic.closed, V[idx])
        laws = laws.reshape(len(solved), k, d, -1)
        if not reach.all():
            laws, gathered = np.zeros((*laws.shape[:-1], n)), laws
            laws[..., reach] = gathered
        groups.append((members, structure, laws, solved, (Q, absorb, stationary)))
    return groups
