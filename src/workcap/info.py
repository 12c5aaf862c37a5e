"""Discrete information measures over exact joint tables.

Entropy, conditional entropy, (conditional) mutual information, and the
entropy rate of product-channel sources from the Cesàro limit law of the
hidden state (``markov._limit_laws``): a closed form for ones whose
transitions are unifilar, from any start, else a block-entropy sandwich
whose computed width is at most RATE_WIDTH.  All internal arithmetic is in
nats; the ``base`` argument ("bits" or "nats") only converts the returned
value.  Zero-probability outcomes are skipped in every sum (0 log 0 = 0).
Every marginal is summed by one kernel, ``_sum_out``: each kept entry's
terms are summed as one contiguous row, pairwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import channels
from .errors import (ChannelClassError, ConvergenceError, DimensionError,
                     DomainError, InternalConsistencyError)
from .markov import _limit_laws

BITS = "bits"
NATS = "nats"
LN2 = math.log(2.0)

JOINT_SUM_TOL = 1e-10
_CLAMP_RAISE = 1e-9
RATE_WIDTH = 1e-12  # nats: the widest certified interval entropy_rate returns from
_SUM_BLOCK = 1 << 20  # entries: the largest temporary _sum_out copies


def _base_factor(base: str) -> float:
    if base == BITS:
        return 1.0 / LN2
    if base == NATS:
        return 1.0
    raise DomainError(f"base must be {BITS!r} or {NATS!r}, got {base!r}")


def _names(vars) -> tuple[str, ...]:
    return (vars,) if isinstance(vars, str) else tuple(vars)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x log y`` elementwise, broadcast, and 0 wherever x is 0 and y is
    finite (so 0 log 0 = 0).  Where x is not 0 and y is, it is an infinity
    of x's opposite sign, with numpy's divide warning, so a caller that may
    meet that case silences it."""
    terms = np.where(x, y, 1.0)  # log 1 = 0 where x is 0
    np.log(terms, out=terms)
    terms *= x
    return terms


def _entropy_nats(p: np.ndarray) -> float:
    return float(-_xlogy(p, p).sum())


def _sum_out(probs: np.ndarray, kept) -> np.ndarray:
    """``probs`` summed over the axes whose flag in ``kept`` is false, the
    kept axes in their order; a view of ``probs`` when no summed axis has
    more than one entry.

    Axes of one entry are dropped, and adjacent axes that share a flag are
    merged into runs (:func:`_sum_plan`).  The summed runs are moved last,
    so that each kept entry sums one contiguous row, which numpy sums
    pairwise: the rounding error grows with log n, not n (Higham 1993).
    The rows are copied in slices of at most _SUM_BLOCK entries
    (:func:`_row_sums`).  The route depends only on the merged runs, so
    tables with equal runs (a 4-axis view and its named table, say) are
    summed alike, bit for bit."""
    sizes, summed, kept_runs, shape = _sum_plan(probs.shape, tuple(kept))
    if not summed:
        return probs.reshape(shape)
    p = probs.reshape(sizes).transpose(kept_runs + summed)
    return _row_sums(p, len(kept_runs)).reshape(shape)


@functools.lru_cache(maxsize=4096)
def _sum_plan(shape: tuple[int, ...], kept: tuple[bool, ...]):
    """The merged runs of a table of ``shape`` under the flags ``kept``, as
    (run sizes, summed runs, kept runs, result shape).  Cached: callers
    sum tables of few shapes with few patterns, and on a small table the
    merge costs about as much as the sum."""
    sizes, flags, out = [], [], []
    for size, flag in zip(shape, kept):
        if flag:
            out.append(size)
        if size == 1:
            continue
        if flags and flags[-1] == flag:
            sizes[-1] *= size
        else:
            sizes.append(size)
            flags.append(flag)
    return (tuple(sizes), tuple(i for i, flag in enumerate(flags) if not flag),
            tuple(i for i, flag in enumerate(flags) if flag), tuple(out))


def _row_sums(t: np.ndarray, n_kept: int) -> np.ndarray:
    """Sums of ``t`` over its axes after the first ``n_kept``, each as one
    contiguous row, copying at most _SUM_BLOCK entries at a time: slices
    along the first axis whose trailing block fits, a kept axis unless
    one kept entry's row alone exceeds the block, whose slices then add up.
    A block is copied where its rows are not contiguous, since numpy then
    adds the rows up term by term, not pairwise."""
    row = math.prod(t.shape[n_kept:])

    def sums(block):
        return np.add.reduce(np.ascontiguousarray(block).reshape(-1, row), axis=1)

    if t.size <= _SUM_BLOCK:
        return sums(t)
    axis, tail = 0, t.size // t.shape[0]
    while tail > _SUM_BLOCK:
        axis += 1
        tail //= t.shape[axis]
    step = _SUM_BLOCK // tail
    out = np.zeros(t.shape[:n_kept])
    for index in np.ndindex(*t.shape[:axis]):
        for start in range(0, t.shape[axis], step):
            at = index + (slice(start, start + step),)
            if axis < n_kept:
                out[at] = sums(t[at]).reshape(out[at].shape)
            else:
                out[index[:n_kept]] += np.add.reduce(t[at].reshape(-1))
    return out


def _clamp_nonneg(value: float, what: str) -> float:
    """Snap rounding-level negatives to zero; larger negatives and NaN or inf are bugs."""
    if not math.isfinite(value):
        raise InternalConsistencyError(f"{what} = {value!r} is not finite")
    if value >= 0.0:
        return value
    if value > -_CLAMP_RAISE:
        return 0.0
    raise InternalConsistencyError(f"{what} = {value!r} is negative beyond rounding")


@dataclass(frozen=True)
class JointTable:
    """An exact joint distribution over named finite variables."""

    variables: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        # a copy, so no array the caller keeps (or a view of one) aliases the table
        self._take(np.array(self.probs, dtype=float))

    @classmethod
    def _owning(cls, variables, probs: np.ndarray) -> "JointTable":
        """A table around ``probs`` itself, without the constructor's copy;
        only for a fresh array nothing else references, such as a
        computed result."""
        table = object.__new__(cls)
        object.__setattr__(table, "variables", variables)
        table._take(np.asarray(probs, dtype=float))
        return table

    def _take(self, arr: np.ndarray) -> None:
        """Validate ``arr`` against the variables, freeze it and hold it."""
        variables = _names(self.variables)
        if len(set(variables)) != len(variables):
            raise DimensionError("duplicate variable names")
        if arr.ndim != len(variables):
            raise DimensionError(
                f"table has {arr.ndim} axes for {len(variables)} variables"
            )
        # NaN fails this check and +inf the sum below
        if not (arr >= -JOINT_SUM_TOL).all():
            raise DomainError("joint table has a negative or NaN entry")
        if abs(arr.sum() - 1.0) > JOINT_SUM_TOL:
            raise DomainError(f"joint table sums to {float(arr.sum())!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", arr)

    def axes_of(self, vars: Iterable[str]) -> tuple[int, ...]:
        index = {name: i for i, name in enumerate(self.variables)}
        axes = []
        for name in _names(vars):
            if name not in index:
                raise KeyError(f"unknown variable {name!r}")
            axes.append(index[name])
        return tuple(axes)

    def marginal(self, keep: Iterable[str]) -> "JointTable":
        """Marginal over ``keep`` (result variables in this table's order)."""
        keep_set = set(_names(keep))
        unknown = keep_set - set(self.variables)
        if unknown:
            raise KeyError(f"unknown variable {sorted(unknown)[0]!r}")
        kept = tuple(n for n in self.variables if n in keep_set)
        p = _sum_out(self.probs, [name in keep_set for name in self.variables])
        return JointTable._owning(kept, p.copy() if np.may_share_memory(p, self.probs) else p)


def _marginal_entropy_nats(joint: JointTable, vars: tuple[str, ...]) -> float:
    keep = set(vars)
    return _entropy_nats(_sum_out(joint.probs, tuple([name in keep for name in joint.variables])))


def entropy(joint: JointTable, vars=None, base: str = BITS) -> float:
    """Shannon entropy of the marginal over ``vars`` (all variables if None)."""
    vars = joint.variables if vars is None else _names(vars)
    if len(vars) == 0:
        raise DomainError("entropy needs at least one variable")
    joint.axes_of(vars)  # raises KeyError on unknown names
    h = _marginal_entropy_nats(joint, vars)
    return _clamp_nonneg(h, "entropy") * _base_factor(base)


def conditional_entropy(joint: JointTable, target_vars, given_vars,
                        base: str = BITS) -> float:
    """H(target | given) = H(target, given) - H(given).

    Zero-probability conditioning events contribute zero.  An empty ``given``
    set reduces to plain entropy.
    """
    target = _names(target_vars)
    given = _names(given_vars)
    if set(target) & set(given):
        raise DomainError("target and given variable sets overlap")
    joint.axes_of(target + given)
    if not target:
        raise DomainError("conditional entropy needs a nonempty target set")
    h_joint = _marginal_entropy_nats(joint, target + given)
    h_given = _marginal_entropy_nats(joint, given) if given else 0.0
    return _clamp_nonneg(h_joint - h_given, "conditional entropy") * _base_factor(base)


def conditional_mutual_information(joint: JointTable, set_a, set_b, set_c=(),
                                   base: str = BITS) -> float:
    """I[A; B | C]; ``set_c`` may be empty, giving plain mutual information."""
    a, b, c = _names(set_a), _names(set_b), _names(set_c)
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise DomainError("the three variable sets must be pairwise disjoint")
    if not a or not b:
        raise DomainError("both primary variable sets must be nonempty")
    joint.axes_of(a + b + c)
    v = _cmi_nats(lambda vars: _marginal_entropy_nats(joint, vars), a, b, c)
    return v * _base_factor(base)


def _cmi_nats(entropy_of, a: tuple[str, ...], b: tuple[str, ...],
              c: tuple[str, ...]) -> float:
    """I[A;B|C] in nats for checked, pairwise disjoint name tuples, each
    marginal entropy read from ``entropy_of(vars)``; a caller that asks for
    many CMIs of one table may pass a source that sums each set once."""
    # I[A;B|C] = H(AC) + H(BC) - H(ABC) - H(C)
    h_ac = entropy_of(a + c)
    h_bc = entropy_of(b + c)
    h_abc = entropy_of(a + b + c)
    h_c = entropy_of(c) if c else 0.0
    return _clamp_nonneg(h_ac + h_bc - h_abc - h_c, "conditional mutual information")


# ---------------------------------------------------------------------------
# Entropy rate of product-channel sources
# ---------------------------------------------------------------------------

def _stationary_law(env) -> np.ndarray:
    """The Cesàro limit of the hidden state's law under action 0."""
    hidden_step = env.phi[0].sum(axis=1)  # [z, z']
    ((_, _, laws, _, _),) = _limit_laws(hidden_step[None], env.initial[None, None])
    return laws[0, 0].mean(axis=0)


def _unifilar_entropy_rate(env) -> float:
    """:func:`entropy_rate` in nats of a product channel with unifilar
    transitions."""
    # given Z_0 the hidden state is a function of the percept past, so from
    # the stationary start H(S_n | S_{0:n}, Z_0) = H(S_n | Z_n) at every n
    pi = _stationary_law(env)
    emission = env.phi[0].sum(axis=2)  # [z, s]
    h = float(sum(pi[z] * _entropy_nats(emission[z]) for z in range(env.n_hidden)))
    return _clamp_nonneg(h, "entropy rate")


def entropy_rate(env, base: str = BITS) -> float:
    """Per-symbol entropy of the percept process of a product channel, as
    decided by ``channels.is_product`` (ChannelClassError otherwise).

    Both routes start from pi, the Cesàro limit of the hidden state's law:
    the process started from ``env.initial`` is asymptotically mean
    stationary with the pi-started process as its stationary mean, so both
    have one rate.  A model whose transitions are unifilar on its reachable
    states (``channels._unifilar_transitions``), from any start, has the
    closed form sum_z pi(z) H(emission | z): it is the lower side below at
    every n.  Otherwise H(S_n | S_{0:n}, Z_0) <= rate <= H(S_n |
    S_{0:n}) (Cover & Thomas, Thm 4.5.1) is read off the exact table
    p(Z_0, S_{0:n}, Z_n) for n = 0, 1, ... until the computed interval is
    at most RATE_WIDTH nats wide, and its upper side is returned; rounding
    in the entropy sums (about 1e-13 nats at the largest tables) is not in
    that width.  ConvergenceError carries the interval, in ``base``, as
    ``estimates`` when the next table would pass ``loop.TRAJECTORY_BUDGET``
    entries (read at each call).
    """
    factor = _base_factor(base)
    if not channels.is_product(env):
        raise ChannelClassError("entropy rate needs a product channel")
    if channels._unifilar_transitions(env) is not None:
        return _unifilar_entropy_rate(env) * factor

    from . import loop  # here, since loop imports this module
    n_z, n_s = env.n_hidden, env.n_symbols
    emission = env.emission()[0]  # [z, s]
    step = env.phi[0].reshape(n_z, n_s * n_z)  # [z, (s, z')]
    table = np.diag(_stationary_law(env))  # p((Z_0, S_{0:n}), Z_n)
    h_prev = (_entropy_nats(table), 0.0)  # H(Z_0, S_{0:n}) and H(S_{0:n})
    lower, upper = 0.0, math.log(n_s)
    while True:
        if table.size * n_s > loop.TRAJECTORY_BUDGET:
            raise ConvergenceError(f"entropy rate not within {RATE_WIDTH} nats at the budget",
                                   estimates=(lower * factor, upper * factor))
        z_words = (table @ emission).reshape(n_z, -1)  # p(Z_0, S_{0:n+1})
        h = (_entropy_nats(z_words), _entropy_nats(z_words.sum(axis=0)))
        lower, upper = h[0] - h_prev[0], h[1] - h_prev[1]
        if upper - lower <= RATE_WIDTH:
            return _clamp_nonneg(upper, "entropy rate") * factor
        h_prev, table = h, (table @ step).reshape(-1, n_z)
