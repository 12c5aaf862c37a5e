"""Discrete information measures over exact joint tables.

Entropy, conditional entropy, (conditional) mutual information, and the
entropy rate of product-channel sources, which for unifilar ones reads the
Cesàro limit law of the hidden state from ``markov._limit_laws``.  All
internal arithmetic is in nats; the ``base`` argument ("bits" or "nats")
only converts the returned value.  Zero-probability outcomes are skipped in
every sum (0 log 0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import xlogy

from . import channels
from .errors import (ChannelClassError, ConvergenceError, DimensionError,
                     DomainError, InternalConsistencyError)
from .markov import _limit_laws

BITS = "bits"
NATS = "nats"
LN2 = math.log(2.0)

JOINT_SUM_TOL = 1e-10
_CLAMP_RAISE = 1e-9
ENUMERATION_BUDGET = 20_000_000  # entries a block-entropy prefix table may hold


def _base_factor(base: str) -> float:
    if base == BITS:
        return 1.0 / LN2
    if base == NATS:
        return 1.0
    raise DomainError(f"base must be {BITS!r} or {NATS!r}, got {base!r}")


def _names(vars) -> tuple[str, ...]:
    if isinstance(vars, str):
        return (vars,)
    return tuple(vars)


def _entropy_nats(p: np.ndarray) -> float:
    return float(-xlogy(p, p).sum())


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
        axes = tuple(i for i, name in enumerate(self.variables)
                     if name not in keep_set)
        unknown = keep_set - set(self.variables)
        if unknown:
            raise KeyError(f"unknown variable {sorted(unknown)[0]!r}")
        kept = tuple(n for n in self.variables if n in keep_set)
        return JointTable._owning(kept, self.probs.sum(axis=axes))


def _marginal_entropy_nats(joint: JointTable, vars: tuple[str, ...]) -> float:
    keep = set(vars)
    axes = tuple(i for i, name in enumerate(joint.variables) if name not in keep)
    p = joint.probs.sum(axis=axes) if axes else joint.probs
    return _entropy_nats(p)


def entropy(joint: JointTable, vars=None, base: str = BITS) -> float:
    """Shannon entropy of the marginal over ``vars`` (all variables if None)."""
    vars = joint.variables if vars is None else _names(vars)
    if len(vars) == 0:
        raise DomainError("entropy needs at least one variable")
    joint.axes_of(vars)  # raises KeyError on unknown names
    h = _entropy_nats(joint.marginal(vars).probs)
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

def _percept_block_entropies(env, max_len: int):
    """Yields H(S_{0:n}) in nats for n = 1, 2, ... under the fixed all-zeros
    action sequence (the percept law of a product channel does not depend on
    it).  Stops raising once the prefix table would exceed
    ENUMERATION_BUDGET, read at each call."""
    phi0 = env.phi[0]
    alpha = env.initial.copy()  # joint of the percept prefix and hidden state
    for _ in range(max_len):
        if alpha.size * env.n_symbols > ENUMERATION_BUDGET:
            raise ConvergenceError(
                "block-entropy table exceeded the enumeration budget before converging"
            )
        alpha = np.tensordot(alpha, phi0, axes=([-1], [0]))
        yield _entropy_nats(alpha.sum(axis=-1))


def _unifilar_entropy_rate(env) -> float:
    """:func:`entropy_rate` in nats of a unifilar product channel."""
    # hidden-state chain under the fixed action; unifilarity makes the
    # state a function of the percept past, so H(S_t | S_{0:t}) = H(S_t | Z_t)
    hidden_step = env.phi[0].sum(axis=1)  # [z, z']
    _, laws, _ = _limit_laws(hidden_step[None], env.initial[None, None])
    pi = laws[0, 0].mean(axis=0)  # the Cesàro limit of the hidden state's law
    emission = env.phi[0].sum(axis=2)  # [z, s]
    h = float(sum(pi[z] * _entropy_nats(emission[z]) for z in range(env.n_hidden)))
    return _clamp_nonneg(h, "entropy rate")


def entropy_rate(env, tol: float = 1e-9, max_horizon: int = 48,
                 base: str = BITS) -> float:
    """Per-symbol entropy of the percept process of a product channel, as
    decided by ``channels.is_product`` (ChannelClassError otherwise).

    For unifilar models the Cesàro chain rule collapses to the closed form
    sum_z pi(z) H(emission | z) with pi the time-averaged hidden-state
    distribution.  Otherwise increasing-horizon conditional block entropies
    H(S_{0:n+1}) - H(S_{0:n}) are used until two successive estimates differ
    by less than ``tol``; ENUMERATION_BUDGET bounds their prefix tables.
    """
    factor = _base_factor(base)
    if not channels.is_product(env):
        raise ChannelClassError("entropy rate needs a product channel")
    if channels.is_unifilar(env) is not None:
        return _unifilar_entropy_rate(env) * factor

    prev_block = 0.0
    prev_estimate = None
    estimate = None
    for block in _percept_block_entropies(env, max_horizon):
        prev_estimate, estimate = estimate, block - prev_block
        prev_block = block
        if prev_estimate is not None and abs(estimate - prev_estimate) < tol:
            return _clamp_nonneg(estimate, "entropy rate") * factor
    raise ConvergenceError(
        f"entropy rate estimates did not settle within horizon {max_horizon}",
        estimates=(prev_estimate, estimate),
    )
