"""Constructors for the agent families analyzed in this package.

Identity (echo the last percept), memoryless parametric, uniform random,
last-action memory, and the predictive extension of an arbitrary base agent
against a unifilar environment.  Deterministic sub-kernels (copy, hidden-state
update) are represented as 0/1 kernels rather than special-cased code paths,
so composition stays uniform.
"""

from __future__ import annotations

import numpy as np

from .channels import (AgentModel, EnvironmentModel, has_action_invariant_kernel,
                       is_unifilar)
from .errors import ChannelClassError, DimensionError, DomainError


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _check_dist(p, n: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise DimensionError(f"action distribution: expected shape ({n},), got {arr.shape}")
    # written so that NaN fails it too: every comparison with NaN is false
    if not ((arr >= 0).all() and abs(arr.sum() - 1.0) <= 1e-12):
        raise DomainError("action distribution must be a probability vector")
    return arr


def build_identity(alphabet) -> AgentModel:
    """One memory state; the next action deterministically copies the percept.
    The opening action is the first alphabet symbol."""
    alphabet = tuple(alphabet)
    if not alphabet:
        raise DimensionError("alphabet must be nonempty")
    n = len(alphabet)
    theta = np.zeros((n, 1, n, 1))
    for s in range(n):
        theta[s, 0, s, 0] = 1.0
    init = np.zeros((n, 1))
    init[0, 0] = 1.0
    return AgentModel(alphabet, ("m",), theta, init)


def build_memoryless(alphabet, p) -> AgentModel:
    """One memory state; actions i.i.d. with distribution ``p``."""
    alphabet = tuple(alphabet)
    n = len(alphabet)
    p = _check_dist(p, n)
    theta = np.zeros((n, 1, n, 1))
    theta[:, 0, :, 0] = np.tile(p, (n, 1))
    init = p.reshape(n, 1)
    return AgentModel(alphabet, ("m",), theta, init)


def build_uniform(alphabet) -> AgentModel:
    """Memoryless agent with uniform i.i.d. actions (the mea workhorse)."""
    return build_memoryless(alphabet, _uniform(len(tuple(alphabet))))


def build_last_action(alphabet, p) -> AgentModel:
    """Memory stores the current action (M_t = A_t always); actions i.i.d. ~ p
    after an opening with the first alphabet symbol."""
    alphabet = tuple(alphabet)
    n = len(alphabet)
    p = _check_dist(p, n)
    theta = np.zeros((n, n, n, n))
    for s in range(n):
        for m in range(n):
            for a2 in range(n):
                theta[s, m, a2, a2] = p[a2]
    init = np.zeros((n, n))
    init[0, 0] = 1.0
    return AgentModel(alphabet, alphabet, theta, init)


def build_predictive(base: AgentModel, env: EnvironmentModel,
                     circuit: str = "auto") -> AgentModel:
    """Extend ``base`` with memory that tracks the environment's hidden state.

    The extended memory is (base memory, stored previous action, tracked
    hidden state); each step first updates the tracked state through the
    environment's unifilarity map (using the stored action and the incoming
    percept), then runs the base agent, then stores a copy of the new action.
    The input-output channel of the result is exactly that of ``base``.

    For environments whose kernel ignores the action the stored-action slot
    is redundant and ``circuit="product"`` drops it (memory = base x hidden);
    ``circuit="general"`` keeps the full three-factor form, and ``"auto"``
    picks the shortcut whenever the kernel is action-invariant.
    """
    if base.alphabet != env.alphabet:
        raise DimensionError("base agent and environment alphabets differ")
    uni = is_unifilar(env)
    if uni is None:
        raise ChannelClassError("build_predictive needs a unifilar environment model")
    if circuit not in ("auto", "general", "product"):
        raise DomainError(f"unknown circuit {circuit!r}")
    if circuit == "auto":
        circuit = "product" if has_action_invariant_kernel(env) else "general"
    elif circuit == "product" and not has_action_invariant_kernel(env):
        raise ChannelClassError(
            "the product-form circuit needs an action-invariant environment kernel"
        )

    n = len(env.alphabet)
    n_m = base.n_memory
    n_z = env.n_hidden
    z0 = int(np.argmax(env.initial))
    # memory = (m', y', z'); step: z' <- u(y', z', s), base step, y' <- a2.
    # The product circuit has one stored-action slot (y' = 0, unlabeled).
    general = circuit == "general"
    n_y = n if general else 1
    slots = [f"{y}," for y in env.alphabet] if general else [""]
    labels = tuple(
        f"({m},{y}{z})"
        for m in base.memory_states for y in slots for z in env.hidden_states
    )

    def midx(m, a, z):  # a % n_y is the slot that stores action a
        return (m * n_y + a % n_y) * n_z + z

    n_mem = n_m * n_y * n_z
    theta = np.zeros((n, n_mem, n, n_mem))
    for s in range(n):
        for m in range(n_m):
            for y in range(n_y):
                for z in range(n_z):
                    z_new = uni[y, z, s]
                    for a2 in range(n):
                        for m2 in range(n_m):
                            theta[s, midx(m, y, z), a2, midx(m2, a2, z_new)] = \
                                base.theta[s, m, a2, m2]
    init = np.zeros((n, n_mem))
    for a in range(n):
        for m in range(n_m):
            init[a, midx(m, a, z0)] = base.initial_joint[a, m]

    return AgentModel(env.alphabet, labels, theta, init)
