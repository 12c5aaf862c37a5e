"""Hidden Markov environment and agent models.

An environment model is a transition table phi(s, z' | a, z) over a shared
action/percept alphabet plus an initial hidden-state distribution; an agent
model is theta(a', m' | s, m) plus a joint initial distribution over
(first action, initial memory).  Models are valid by construction: every
table row and initial law must be a probability vector within
``markov.ROW_SUM_TOL`` (DomainError naming the table and row otherwise), and
the arrays are frozen: each is a read-only view of a read-only base, so
numpy refuses to make it writable again.  This module also provides the
channel-class predicates (noiseless, memoryless invariant, product,
unifilar), channel cascade, and the JSON model file format shared with the
CLI.

What a frozen environment model fixes, its emission, its reachable hidden
states and each channel-class verdict, is worked out on first use and kept
on the instance (``functools.cached_property``), so every caller after the
first reads it back instead of deciding it again.  Arrays kept this way are
read-only and shared by every caller.

State labels are strings; file I/O assigns indices by sorted label order so
serialized models round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError
from .markov import ROW_SUM_TOL, _check_stochastic, bfs_levels


def _check_labels(labels, what: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) == 0:
        raise DimensionError(f"{what}: must be nonempty")
    if len(set(labels)) != len(labels):
        raise DimensionError(f"{what}: duplicate labels")
    return labels


def _check_model(model, joint_initial: bool) -> None:
    """Check a model's labels, shapes and stochasticity, then freeze its
    fields (alphabet, states, table, initial) in place.  The table's rows
    are its (input symbol, state) slices; ``joint_initial`` marks an initial
    law over (symbol, state) pairs rather than states."""
    names = [f.name for f in fields(model)]
    alphabet = _check_labels(model.alphabet, "alphabet")
    states = _check_labels(getattr(model, names[1]), names[1])
    n_sym, n_st = len(alphabet), len(states)
    table = np.array(getattr(model, names[2]), dtype=float)
    init = np.array(getattr(model, names[3]), dtype=float)
    expected = ((n_sym, n_st, n_sym, n_st), (n_sym, n_st) if joint_initial else (n_st,))
    for name, arr, shape in zip(names[2:], (table, init), expected):
        if arr.shape != shape:
            raise DimensionError(f"{name}: expected shape {shape}, got {arr.shape}")
    _check_stochastic(table.reshape(n_sym * n_st, -1), name=names[2])
    _check_stochastic(init.ravel(), name=names[3])
    for name, value in zip(names, (alphabet, states, _frozen(table), _frozen(init))):
        object.__setattr__(model, name, value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, which must own its data and is made
    read-only too, so numpy refuses to make the view writable again."""
    arr.setflags(write=False)
    return arr.view()


@dataclass(frozen=True)
class EnvironmentModel:
    """Hidden Markov model of an environment channel.

    ``phi[a, z, s, z2]`` is the probability of emitting percept s and moving
    to hidden state z2 when receiving action a in hidden state z.  The action
    and percept alphabets coincide.  Construction checks that every row
    ``phi[a, z]`` and ``initial`` are probability vectors (DomainError
    otherwise) and freezes the arrays.
    """

    alphabet: tuple[str, ...]
    hidden_states: tuple[str, ...]
    phi: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        _check_model(self, joint_initial=False)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    @property
    def n_hidden(self) -> int:
        return len(self.hidden_states)

    def emission(self) -> np.ndarray:
        """emission[a, z, s]: probability of percept s given action a, state
        z; read-only, summed once per model."""
        return self._emission

    # what the model fixes, each worked out on first use and kept; the
    # module's functions read these
    _emission = cached_property(lambda self: _frozen(self.phi.sum(axis=3)))
    _reachable = cached_property(lambda self: _frozen(
        bfs_levels(self.initial > 0.0, self.phi.sum(axis=(0, 2)) > 0.0) >= 0))
    _noiseless = cached_property(lambda self: _decide_noiseless(self))
    _reduced = cached_property(lambda self: _decide_memoryless_invariant(self))
    _product = cached_property(lambda self: _decide_product(self))
    _unifilar = cached_property(lambda self: _decide_unifilar(self))
    _action_invariant = cached_property(lambda self: _decide_action_invariant_kernel(self))


@dataclass(frozen=True)
class AgentModel:
    """Hidden Markov model of an agent channel.

    ``theta[s, m, a2, m2]`` is the probability of taking action a2 and moving
    to memory m2 after receiving percept s in memory m.  ``initial_joint[a, m]``
    is the joint distribution of the opening action and initial memory.
    Construction checks both as :class:`EnvironmentModel` does.
    """

    alphabet: tuple[str, ...]
    memory_states: tuple[str, ...]
    theta: np.ndarray
    initial_joint: np.ndarray

    def __post_init__(self):
        _check_model(self, joint_initial=True)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    @property
    def n_memory(self) -> int:
        return len(self.memory_states)


Model = EnvironmentModel | AgentModel


def reachable_hidden(env: EnvironmentModel) -> np.ndarray:
    """Read-only boolean mask of hidden states reachable from the initial
    distribution under arbitrary action sequences; edge z -> z2 when some
    action/percept pair moves z to z2."""
    return env._reachable


def is_noiseless(env: EnvironmentModel) -> bool:
    """True iff every reachable state echoes the action back as the percept."""
    return env._noiseless


def _decide_noiseless(env: EnvironmentModel) -> bool:
    e = env.emission()[:, reachable_hidden(env), :]
    return bool(np.max(np.abs(e - np.eye(env.n_symbols)[:, None, :])) <= ROW_SUM_TOL)


def is_memoryless_invariant(env: EnvironmentModel) -> np.ndarray | None:
    """The reduced |A| x |S| kernel phi(s|a), read-only, when the marginal
    output law is the same for every reachable hidden state; None otherwise."""
    return env._reduced


def _decide_memoryless_invariant(env: EnvironmentModel) -> np.ndarray | None:
    e = env.emission()[:, reachable_hidden(env), :]
    if np.max(np.abs(e - e[:, :1, :])) > ROW_SUM_TOL:
        return None
    return _frozen(e[:, 0, :].copy())


# is_product's zero, for relative sizes: a unit vector's residual off the span
# and |p - q| / (p + q).  Word vectors are sums of nonnegative products, so
# rounding stays below about 2 n_z^2 eps (1e-10 at n_z = 500); model files
# give probabilities only to 1e-9 (the loader's normalization threshold), so
# a smaller action dependence is not a property of the file.
_SPAN_TOL = 1e-9


def is_product(env: EnvironmentModel) -> bool:
    """Whether the percept law nu(s_{0:T} | a_{0:T}) is the same for every
    action sequence and every T; decided exactly (Tzeng 1992), by
    :func:`_decide_product`, once per model.

    Letters (a, s) act on vectors (x, y) of length 2 n_z, from (pi, pi),
    by ``x -> x phi[a, :, s, :]`` and ``y -> y phi[0, :, s, :]``; the channel
    is product iff ``sum(x) - sum(y)`` vanishes on the reachable span.  At
    most 2 n_z spanning vectors (words shorter than 2 n_z, Paz 1971) are
    extended, by |A|^2 letters each: O(|A|^2 n_z^3).  Vectors are normalized
    before testing, so improbable words count like probable ones.
    """
    return env._product


def _decide_product(env: EnvironmentModel) -> bool:
    """The span procedure of :func:`is_product`."""
    n_z = env.n_hidden
    start = np.concatenate([env.initial, env.initial])
    spanning = [start / np.linalg.norm(start)]  # grows while it is read
    basis = np.zeros((2 * n_z, 2 * n_z))  # orthonormal rows; the first k are set
    basis[0], k = spanning[0], 1
    for v in spanning:
        x = np.einsum("z,azsw->asw", v[:n_z], env.phi)
        y = np.broadcast_to(np.einsum("z,zsw->sw", v[n_z:], env.phi[0]), x.shape)
        # nonnegative halves: p and q are the two laws' probabilities of
        # one percept word, each summed without cancellation
        p, q = x.sum(axis=-1).ravel(), y.sum(axis=-1).ravel()
        if np.any(np.abs(p - q) > _SPAN_TOL * (p + q)):
            return False
        words = np.concatenate([x, y], axis=-1).reshape(-1, 2 * n_z)[p + q > 0.0]
        for w in words / np.linalg.norm(words, axis=1, keepdims=True):
            span = basis[:k]
            r = w - (w @ span.T) @ span
            # twice is enough: the rows stay orthonormal, so k never passes 2 n_z
            r -= (r @ span.T) @ span
            norm = math.sqrt(r.dot(r))  # np.linalg.norm's arithmetic, without its checks
            if norm > _SPAN_TOL:
                basis[k], k = r / norm, k + 1
                spanning.append(w)
    return True


def has_action_invariant_kernel(env: EnvironmentModel) -> bool:
    """Strong (kernel-level) product witness: phi does not depend on the
    action at any reachable hidden state."""
    return env._action_invariant


def _decide_action_invariant_kernel(env: EnvironmentModel) -> bool:
    phi = env.phi[:, reachable_hidden(env)]
    return bool(np.max(np.abs(phi - phi[:1])) <= ROW_SUM_TOL)


def is_unifilar(env: EnvironmentModel) -> np.ndarray | None:
    """The unifilarity map if the model qualifies, else None.

    Requires a delta initial distribution and unifilar transitions
    (:func:`_unifilar_transitions`), so that the percepts fix the hidden
    state at every round.
    """
    return env._unifilar if np.max(env.initial) >= 1.0 - ROW_SUM_TOL else None


def _unifilar_transitions(env: EnvironmentModel) -> np.ndarray | None:
    """The unifilarity map if every reachable hidden state has at most one
    positive successor per (action, state, percept), from any initial law,
    else None.  The map is a read-only ``(|A|, n_z, |A|)`` int array of
    those successors, with the current state z where the triple (a, z, s)
    has none."""
    return env._unifilar


def _decide_unifilar(env: EnvironmentModel) -> np.ndarray | None:
    reach = reachable_hidden(env)
    positive = env.phi > 0.0  # [a, z, s, z2]
    successors = positive.sum(axis=3)
    if np.any(successors[:, reach] > 1):
        return None
    moves = (successors == 1) & reach[:, None]
    return _frozen(np.where(moves, positive.argmax(axis=3), np.arange(env.n_hidden)[:, None]))


def cascade(first: EnvironmentModel, second: EnvironmentModel) -> EnvironmentModel:
    """Feed ``first``'s percepts into ``second`` as actions.

    Hidden states are pairs (z1, z2), labelled "(z1,z2)" after a backslash
    is put before each backslash and comma inside z1 and z2, so distinct
    pairs get distinct labels.  The composite kernel marginalizes the
    intermediate symbol.  Its tables are products of the two checked
    models' and are not checked again (as ``markov._owning`` does for the
    global chain), so a row may miss 1 by a few ROW_SUM_TOL.
    """
    if first.alphabet != second.alphabet:
        raise DimensionError(
            f"cascade: percept alphabet {first.alphabet} of the first channel must "
            f"equal the action alphabet {second.alphabet} of the second"
        )
    n = first.n_hidden * second.n_hidden
    # out[a, z1, z2, s, w1, w2] = sum_i phi1[a, z1, i, w1] * phi2[i, z2, s, w2]
    phi = _frozen(np.einsum("axiu,iysv->axysuv", first.phi, second.phi))
    z1s, z2s = ([z.replace("\\", "\\\\").replace(",", "\\,") for z in model.hidden_states]
                for model in (first, second))
    labels = tuple(f"({l1},{l2})" for l1 in z1s for l2 in z2s)
    env = object.__new__(EnvironmentModel)
    for name, value in (("alphabet", first.alphabet),
                        ("hidden_states", labels),
                        ("phi", phi.reshape(first.n_symbols, n, first.n_symbols, n)),
                        ("initial", _frozen(np.outer(first.initial, second.initial)).reshape(n))):
        object.__setattr__(env, name, value)
    return env


# ---------------------------------------------------------------------------
# Model file format (shared with the CLI)
# ---------------------------------------------------------------------------
#
# JSON document:
#   alphabet       list of symbol strings
#   hidden_states  (environment) or memory_states (agent): list of labels
#   initial        map state -> prob for environments,
#                  map "action,memory" -> prob for agents
#   transitions    map "input_symbol,state" -> map "output_symbol,next_state" -> prob
#
# Probabilities are decimal strings parsed to binary floating point.  Rows are
# normalized only when they deviate from 1 by less than 1e-9 (and by more than
# 1e-12, so canonical files reload without drift); larger deviations reject.

_NORMALIZE_BELOW = 1e-9


def _parse_prob(value, where: str) -> float:
    if isinstance(value, str):
        try:
            x = float(value)
        except ValueError:
            raise ModelFormatError(f"{where}: {value!r} is not a decimal number") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        x = float(value)
    else:
        raise ModelFormatError(f"{where}: probability must be a decimal string")
    if not 0.0 <= x <= 1.0:
        raise ModelFormatError(f"{where}: probability {x!r} outside [0, 1]")
    return x


def _split_key(key: str, where: str) -> tuple[str, str]:
    if "," not in key:
        raise ModelFormatError(f"{where}: key {key!r} is not 'symbol,state'")
    sym, state = key.split(",", 1)
    return sym, state


def _row_from_map(mapping, sym_index, state_index, where: str) -> np.ndarray:
    row = np.zeros((len(sym_index), len(state_index)))
    for key, value in mapping.items():
        sym, state = _split_key(key, where)
        if sym not in sym_index:
            raise ModelFormatError(f"{where}: unknown symbol {sym!r}")
        if state not in state_index:
            raise ModelFormatError(f"{where}: unknown state {state!r}")
        row[sym_index[sym], state_index[state]] = _parse_prob(value, f"{where}[{key}]")
    s = row.sum()
    if abs(s - 1.0) >= _NORMALIZE_BELOW:
        raise ModelFormatError(f"{where}: row sums to {float(s)!r} (deviation >= {_NORMALIZE_BELOW})")
    if abs(s - 1.0) > ROW_SUM_TOL:
        row /= s
    return row


def loads_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")
    if "hidden_states" in doc:
        kind = "environment"
    elif "memory_states" in doc:
        kind = "agent"
    else:
        raise ModelFormatError("model file needs 'hidden_states' or 'memory_states'")
    for field in ("alphabet", "initial", "transitions"):
        if field not in doc:
            raise ModelFormatError(f"missing field {field!r}")
    if not isinstance(doc["alphabet"], list):
        raise ModelFormatError("'alphabet' must be a list of symbol strings")
    state_field = "hidden_states" if kind == "environment" else "memory_states"
    if not isinstance(doc[state_field], list):
        raise ModelFormatError(f"{state_field!r} must be a list of labels")
    if not isinstance(doc["initial"], dict) or not isinstance(doc["transitions"], dict):
        raise ModelFormatError("'initial' and 'transitions' must be objects")

    alphabet = tuple(sorted(str(x) for x in doc["alphabet"]))
    if len(set(alphabet)) != len(alphabet):
        raise ModelFormatError("alphabet has duplicate symbols")
    states = tuple(sorted(str(x) for x in doc[state_field]))
    if len(set(states)) != len(states):
        raise ModelFormatError(f"{state_field} has duplicate labels")
    sym_index = {s: i for i, s in enumerate(alphabet)}
    state_index = {s: i for i, s in enumerate(states)}

    n_sym, n_state = len(alphabet), len(states)
    table = np.zeros((n_sym, n_state, n_sym, n_state))
    seen = set()
    for key, row_map in doc["transitions"].items():
        sym, state = _split_key(key, "transitions")
        if sym not in sym_index or state not in state_index:
            raise ModelFormatError(f"transitions: unknown input key {key!r}")
        if not isinstance(row_map, dict):
            raise ModelFormatError(f"transitions[{key!r}]: expected an object")
        table[sym_index[sym], state_index[state]] = _row_from_map(
            row_map, sym_index, state_index, f"transitions[{key!r}]"
        )
        seen.add((sym, state))
    missing = [(s, st) for s in alphabet for st in states if (s, st) not in seen]
    if missing:
        raise ModelFormatError(f"transitions: missing row for {missing[0]!r}")

    # environments start from a hidden state, agents from an (action, memory) pair
    init = np.zeros(n_state if kind == "environment" else (n_sym, n_state))
    for key, value in doc["initial"].items():
        if kind == "environment":
            if key not in state_index:
                raise ModelFormatError(f"initial: unknown state {key!r}")
            index = state_index[key]
        else:
            sym, state = _split_key(key, "initial")
            if sym not in sym_index or state not in state_index:
                raise ModelFormatError(f"initial: unknown key {key!r}")
            index = (sym_index[sym], state_index[state])
        init[index] = _parse_prob(value, f"initial[{key}]")
    s = init.sum()
    if abs(s - 1.0) >= _NORMALIZE_BELOW:
        raise ModelFormatError(f"initial: sums to {float(s)!r}")
    if abs(s - 1.0) > ROW_SUM_TOL:
        init /= s
    model_type = EnvironmentModel if kind == "environment" else AgentModel
    return model_type(alphabet, states, table, init)


def load_model(path) -> Model:
    return loads_model(Path(path).read_text(encoding="utf-8"))


def dumps_model(model: Model) -> str:
    """Canonical serialization: sorted keys, shortest-round-trip decimal
    strings, zero entries omitted."""
    if isinstance(model, EnvironmentModel):
        state_field, states = "hidden_states", model.hidden_states
        table = model.phi
        initial = {
            states[z]: repr(float(p))
            for z, p in enumerate(model.initial) if p != 0.0
        }
    else:
        state_field, states = "memory_states", model.memory_states
        table = model.theta
        initial = {
            f"{model.alphabet[a]},{states[m]}": repr(float(p))
            for (a, m), p in np.ndenumerate(model.initial_joint) if p != 0.0
        }
    transitions = {}
    for i, sym in enumerate(model.alphabet):
        for k, state in enumerate(states):
            row = {
                f"{model.alphabet[j]},{states[l]}": repr(float(p))
                for (j, l), p in np.ndenumerate(table[i, k]) if p != 0.0
            }
            transitions[f"{sym},{state}"] = row
    doc = {
        "alphabet": sorted(model.alphabet),
        state_field: sorted(states),
        "initial": initial,
        "transitions": transitions,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(model: Model, path) -> None:
    Path(path).write_text(dumps_model(model))
