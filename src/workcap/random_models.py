"""Seeded random model generators for property sweeps and verification.

All entries are kept strictly positive (Dirichlet draws with a 1e-3 floor)
unless stated otherwise, so entropy functionals stay Lipschitz.
"""

from __future__ import annotations

import numpy as np

from .channels import AgentModel, EnvironmentModel
from .markov import TransitionKernel


def _dirichlet_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    flat = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1])))
    flat = np.maximum(flat, 1e-3)
    flat /= flat.sum(axis=1, keepdims=True)
    return flat.reshape(shape)


def random_kernel(rng: np.random.Generator, n: int) -> TransitionKernel:
    """Dense row-stochastic kernel (irreducible and aperiodic)."""
    return TransitionKernel(_dirichlet_rows(rng, (n, n)))


def random_structured_kernel(rng: np.random.Generator, n: int) -> TransitionKernel:
    """A kernel with nontrivial structure: a random deterministic cycle
    (period n), sometimes shortened so one state becomes transient."""
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    for i in range(n):
        P[perm[i], perm[(i + 1) % n]] = 1.0
    if n > 2 and rng.random() < 0.5:
        # close the cycle one state early: perm[0] turns transient and the
        # recurrent class has period n - 1
        P[perm[-1]] = 0.0
        P[perm[-1], perm[1]] = 1.0
    return TransitionKernel(P)


def random_environment(rng: np.random.Generator, n_symbols: int = 2,
                       n_hidden: int = 2, action_invariant: bool = False) -> EnvironmentModel:
    alphabet = tuple(str(i) for i in range(n_symbols))
    hidden = tuple(f"z{i}" for i in range(n_hidden))
    phi = _dirichlet_rows(rng, (n_symbols, n_hidden, n_symbols * n_hidden)).reshape(
        n_symbols, n_hidden, n_symbols, n_hidden)
    if action_invariant:
        phi = np.broadcast_to(phi[0], phi.shape).copy()
    initial = _dirichlet_rows(rng, (1, n_hidden))[0]
    return EnvironmentModel(alphabet, hidden, phi, initial)


def random_agent(rng: np.random.Generator, n_symbols: int = 2,
                 n_memory: int = 2) -> AgentModel:
    alphabet = tuple(str(i) for i in range(n_symbols))
    memory = tuple(f"m{i}" for i in range(n_memory))
    theta = _dirichlet_rows(rng, (n_symbols, n_memory, n_symbols * n_memory)).reshape(
        n_symbols, n_memory, n_symbols, n_memory)
    initial = _dirichlet_rows(rng, (1, n_symbols * n_memory))[0].reshape(n_symbols, n_memory)
    return AgentModel(alphabet, memory, theta, initial)


def random_memoryless_environment(rng: np.random.Generator,
                                  n_symbols: int = 2) -> EnvironmentModel:
    """One hidden state, random reduced kernel phi(s|a)."""
    alphabet = tuple(str(i) for i in range(n_symbols))
    reduced = _dirichlet_rows(rng, (n_symbols, n_symbols))
    phi = reduced.reshape(n_symbols, 1, n_symbols, 1)
    return EnvironmentModel(alphabet, ("z",), phi, np.ones(1))
