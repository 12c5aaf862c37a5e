"""Independent work-rate oracle for the benchmark's correctness checks.

It shares no code with ``workcap``: the global chain is rebuilt from the raw
model arrays, and its Cesàro limit comes from dense linear solves (one
stationary vector per closed class, absorption probabilities through the
fundamental matrix of the transient states) instead of fixed-point
iteration.  Periodic chains are handled by passing to ``P^d`` with ``d`` the
lcm of the recurrent class periods, whose recurrent classes are aperiodic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

LN2 = math.log(2.0)


def global_chain(theta, agent_init, phi, env_init):
    """Kernel and round-0 distribution over states (m, a, s, z), row-major.

    ``theta[s, m, a2, m2]`` is the agent, ``agent_init[a, m]`` its opening
    joint, ``phi[a, z, s, z2]`` the environment and ``env_init[z]`` its
    initial law.  Rows of states that can never be entered (their percept
    has zero emission probability) are made absorbing.
    """
    n_a, n_m = agent_init.shape
    n_z = env_init.size
    emit = phi.sum(axis=3)  # [a, z, s]
    posterior = np.divide(phi, emit[..., None], out=np.zeros_like(phi),
                          where=emit[..., None] > 0)  # p(z2 | a, z, s)
    n = n_m * n_a * emit.shape[2] * n_z
    kernel = np.einsum("azsw,smbn,bwt->masznbtw", posterior, theta, emit).reshape(n, n)
    dead = kernel.sum(axis=1) == 0.0
    kernel[dead, dead] = 1.0
    init = np.einsum("am,z,azs->masz", agent_init, env_init, emit).reshape(n)
    return kernel, init


def _closure(start: np.ndarray, support: np.ndarray) -> np.ndarray:
    reach = start.copy()
    frontier = start.copy()
    while frontier.any():
        nxt = support[frontier].any(axis=0) & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def _closed_classes(support: np.ndarray) -> list[np.ndarray]:
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    classes = []
    for c in range(n_comp):
        inside = labels == c
        if not support[inside][:, ~inside].any():
            classes.append(np.flatnonzero(inside))
    return classes


def _period(support: np.ndarray, members: np.ndarray) -> int:
    """gcd over the class's edges (u, v) of dist(u) + 1 - dist(v)."""
    sub = support[np.ix_(members, members)]
    dist = shortest_path(sub.astype(float), unweighted=True, indices=0)
    u, v = np.nonzero(sub)
    return int(np.gcd.reduce(np.abs(dist[u] + 1 - dist[v]).astype(np.int64)))


def _bool_power(support: np.ndarray, k: int) -> np.ndarray:
    result = np.eye(support.shape[0], dtype=bool)
    base = support.astype(float)
    while k:
        if k & 1:
            result = (result.astype(float) @ base) > 0
        base = ((base @ base) > 0).astype(float)
        k >>= 1
    return result


def subsequence_limits(kernel: np.ndarray, init: np.ndarray):
    """The d limits of ``init @ P^t`` along t = n*d + r, r = 0..d-1.

    Returns (reachable state indices, list of d vectors over them, d).
    """
    reach = np.flatnonzero(_closure(init > 0, kernel > 0))
    P = kernel[np.ix_(reach, reach)]
    p0 = init[reach]
    support = P > 0

    d = 1
    for members in _closed_classes(support):
        d = math.lcm(d, _period(support, members))
    Q = np.linalg.matrix_power(P, d)
    classes = _closed_classes(_bool_power(support, d))

    n = P.shape[0]
    transient = np.ones(n, dtype=bool)
    for members in classes:
        transient[members] = False
    t_idx = np.flatnonzero(transient)
    if t_idx.size:
        into = np.stack([Q[np.ix_(t_idx, m)].sum(axis=1) for m in classes], axis=1)
        absorb = np.linalg.solve(np.eye(t_idx.size) - Q[np.ix_(t_idx, t_idx)], into)

    mu = np.zeros(n)
    for k, members in enumerate(classes):
        weight = p0[members].sum()
        if t_idx.size:
            weight += p0[t_idx] @ absorb[:, k]
        if weight == 0.0:
            continue
        # stationary vector of the aperiodic class: pi (Q_CC - I) = 0, sum pi = 1
        A = Q[np.ix_(members, members)].T - np.eye(members.size)
        A[-1] = 1.0
        rhs = np.zeros(members.size)
        rhs[-1] = 1.0
        mu[members] = weight * np.linalg.solve(A, rhs)

    limits = [mu]
    for _ in range(d - 1):
        limits.append(limits[-1] @ P)
    return reach, limits, d


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def work_rate_bits(theta, agent_init, phi, env_init) -> float:
    """Cesàro limit of H(A_t|M_t) - H(S_t|M_t) in bits.

    The per-round term equals H(M_t, A_t) - H(M_t, S_t), averaged over the d
    subsequence limits.
    """
    kernel, init = global_chain(theta, agent_init, phi, env_init)
    n_a, n_m = agent_init.shape
    shape = (n_m, n_a, phi.shape[2], env_init.size)
    reach, limits, d = subsequence_limits(kernel, init)
    total = 0.0
    full = np.zeros(kernel.shape[0])
    for mu in limits:
        full[:] = 0.0
        full[reach] = mu
        p = full.reshape(shape)
        total += _entropy(p.sum(axis=(2, 3))) - _entropy(p.sum(axis=(1, 3)))
    return total / d / LN2
