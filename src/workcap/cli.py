"""Command-line front end.

    workcap analyze ENV [--agent AGENT]
    workcap work-rate ENV AGENT
    workcap capacity ENV [--out WITNESS]
    workcap build-agent KIND ENV --out FILE
    workcap dsep --variant V --horizon T --a NODES --b NODES [--c NODES]
    workcap verify

Exit codes: 0 success, 1 verification failure, 2 input error.  ``--json``
emits a machine-readable report (12 significant digits, deterministic for
identical inputs and seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import agents, bayesnet, capacity, channels, loop, verify
from .errors import WorkcapError
from .info import BITS, NATS, _base_factor


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _json_num(x) -> float:
    return float(f"{float(x):.12g}")


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


_EXPECTED = {
    channels.EnvironmentModel: "an environment model (hidden_states)",
    channels.AgentModel: "an agent model (memory_states)",
}


def _load(path, kind=channels.EnvironmentModel):
    """The model in ``path``, which must be of type ``kind``."""
    try:
        model = channels.load_model(path)
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except WorkcapError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(model, kind):
        raise InputError(f"{path}: expected {_EXPECTED[kind]}")
    return model


def _save(model, path) -> None:
    """Write ``model`` to ``path``; a path that cannot be written is an
    input error."""
    try:
        channels.save_model(model, path)
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror}") from None


def _check_out(path) -> None:
    """Fail, before any work and creating nothing, on an output path that
    is a directory or whose parent is not one, with the reason writing would
    give; :func:`_save` still maps what this cannot see, such as a read-only
    directory."""
    if Path(path).is_dir():
        raise InputError(f"{path}: cannot write: Is a directory")
    try:
        os.stat(os.path.join(Path(path).parent, ""))  # the trailing / asks for a directory
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror}") from None


def _make_loop(env, agent) -> loop.PerceptActionLoop:
    try:
        return loop.PerceptActionLoop(agent, env)
    except WorkcapError as exc:
        raise InputError(str(exc)) from None


def cmd_analyze(args) -> int:
    env = _load(args.env)
    noiseless = channels.is_noiseless(env)
    reduced = channels.is_memoryless_invariant(env)
    product = channels.is_product(env)
    uni = channels.is_unifilar(env)

    report: dict = {
        "hidden_states": len(env.hidden_states),
        "alphabet": list(env.alphabet),
        "noiseless": noiseless,
        "memoryless_invariant": reduced is not None,
        "product": product,
        "unifilar": uni is not None,
    }
    lines = [
        f"alphabet: {{{', '.join(env.alphabet)}}}; hidden states: {len(env.hidden_states)}",
        f"noiseless: {'yes' if noiseless else 'no'}",
        f"memoryless invariant: {'yes' if reduced is not None else 'no'}",
        f"product: {'yes' if product else 'no'}",
        f"unifilar: {'yes' if uni is not None else 'no'}",
    ]
    if uni is not None:
        entries = {
            f"{env.alphabet[a]},{env.hidden_states[z]},{env.alphabet[s]}":
                env.hidden_states[uni[a, z, s]]
            for a in range(env.n_symbols)
            for z in range(env.n_hidden)
            for s in range(env.n_symbols)
        }
        report["unifilarity_map"] = entries
        lines.append("unifilarity map (action,state,percept -> next state):")
        lines += [f"  {k} -> {v}" for k, v in sorted(entries.items())]

    if args.agent:
        agent = _load(args.agent, channels.AgentModel)
        pal = _make_loop(env, agent)
        work = loop.work_rate(pal, rounds=0)
        reach_idx = np.flatnonzero(work.reachable)
        pi = work.cesaro_law[reach_idx]
        top = [(str(tuple(int(x) for x in np.unravel_index(reach_idx[i], pal.shape))), pi[i])
               for i in np.argsort(pi)[::-1][:5]]
        report["global_chain"] = {
            "states": work.reachable.size,
            "reachable_states": reach_idx.size,
            "period": work.period_used,
            "recurrent_reachable_states": work.recurrent_states,
            "cesaro_top_states": {label: _json_num(p) for label, p in top},
        }
        lines += [
            f"global chain: {work.reachable.size} states ({reach_idx.size} reachable), "
            f"period {work.period_used}, {work.recurrent_states} recurrent reachable states",
            "Cesàro-weightiest states (memory, action, percept, hidden):",
        ]
        lines += [f"  {label}: {_fmt(p)}" for label, p in top]
    _emit(report, args.json, lines)
    return 0


def cmd_work_rate(args) -> int:
    env = _load(args.env)
    agent = _load(args.agent, channels.AgentModel)
    pal = _make_loop(env, agent)
    report = loop.work_rate(pal, rounds=args.horizon, base=args.units)
    doc = {
        "units": args.units,
        "per_round": [_json_num(w) for w in report.per_round],
        "rate": _json_num(report.rate),
        "period": report.period_used,
        "residual": _json_num(report.residual),
    }
    lines = [f"W_{t} = {_fmt(w)} {args.units}" for t, w in enumerate(report.per_round)]
    lines.append(
        f"asymptotic rate: {_fmt(report.rate)} {args.units} "
        f"(period {report.period_used}, residual {report.residual:.2e})")
    _emit(doc, args.json, lines)
    return 0


def cmd_capacity(args) -> int:
    env = _load(args.env)
    if args.out:
        _check_out(args.out)
    result = capacity.compute_capacity(env, memory_size=args.memory_size,
                                       restarts=args.restarts, seed=args.seed)
    value = result.value(args.units)
    doc = {
        "units": args.units,
        "value": _json_num(value),
        "method": result.method,
        "exact": result.exact,
    }
    lines = [f"{_fmt(value)} {args.units} ({result.method})"]
    if result.upper_nats is not None:
        upper = result.upper_nats * _base_factor(args.units)
        doc["upper"] = _json_num(upper)
        lines.append(f"certified upper bound: {_fmt(upper)} {args.units}")
    if result.witness_params:
        p = result.witness_params["action_distribution"]
        doc["witness_action_distribution"] = [_json_num(x) for x in p]
        lines.append("witness action distribution: "
                     + ", ".join(f"p({sym})={_fmt(x)}"
                                 for sym, x in zip(env.alphabet, p)))
    if result.method == capacity.NUMERIC_LOWER_BOUND:
        doc["note"] = "lower bound (bounded agent memory)"
        doc["memory_size"] = args.memory_size
        lines.append(f"note: lower bound with {args.memory_size} memory states")
    if args.out and result.witness is not None:
        _save(result.witness, args.out)
        doc["witness_file"] = str(args.out)
        lines.append(f"witness agent written to {args.out}")
    _emit(doc, args.json, lines)
    return 0


_AGENT_KINDS = ("identity", "memoryless", "uniform", "last-action", "predictive")


def cmd_build_agent(args) -> int:
    env = _load(args.env)
    kind = args.kind
    try:
        if kind == "identity":
            agent = agents.build_identity(env.alphabet)
        elif kind == "uniform":
            agent = agents.build_uniform(env.alphabet)
        elif kind in ("memoryless", "last-action"):
            if args.prob:
                try:
                    p = [float(x) for x in args.prob.split(",")]
                except ValueError:
                    raise InputError(f"--prob {args.prob!r}: expected comma-separated "
                                     "numbers") from None
            else:
                p = [1.0 / len(env.alphabet)] * len(env.alphabet)
            builder = (agents.build_memoryless if kind == "memoryless"
                       else agents.build_last_action)
            agent = builder(env.alphabet, p)
        elif kind == "predictive":
            agent = agents.build_predictive(agents.build_uniform(env.alphabet), env)
        else:
            raise InputError(f"unknown agent kind {kind!r}")
    except WorkcapError as exc:
        raise InputError(f"cannot build {kind!r} agent: {exc}") from None
    _save(agent, args.out)
    doc = {"kind": kind, "memory_states": len(agent.memory_states), "file": str(args.out)}
    _emit(doc, args.json,
          [f"{kind} agent with {len(agent.memory_states)} memory states -> {args.out}"])
    return 0


def _node_set(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(x.strip() for x in text.split(",") if x.strip())


def cmd_dsep(args) -> int:
    try:
        dag = bayesnet.build_loop_dag(args.horizon, args.variant)
        separated = bayesnet.d_separated(dag, _node_set(args.a), _node_set(args.b),
                                         _node_set(args.c))
    except (WorkcapError, KeyError) as exc:
        raise InputError(str(exc)) from None
    doc = {
        "variant": args.variant,
        "horizon": args.horizon,
        "a": list(_node_set(args.a)),
        "b": list(_node_set(args.b)),
        "c": list(_node_set(args.c)),
        "d_separated": separated,
    }
    _emit(doc, args.json, ["d-separated" if separated else "not d-separated"])
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed)
    # timings stay out of the JSON report so identical inputs and seed give
    # byte-identical machine-readable output
    doc = {
        "seed": args.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
        f"[{r.seconds:6.2f}s]  {r.detail}"
        for r in results
    ]
    lines.append("all checks passed" if doc["all_passed"] else "some checks FAILED")
    _emit(doc, args.json, lines)
    return 0 if doc["all_passed"] else 1


def _int_from(least: int):
    """An argparse type: an int of at least ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        return value
    parse.__name__ = "int"
    return parse


# the valued flags; each subcommand accepts only those it reads
_FLAGS = {
    "units": dict(choices=[BITS, NATS], default=BITS),
    "horizon": dict(type=_int_from(1), default=4),
    "seed": dict(type=_int_from(0), default=0),
    "memory-size": dict(type=_int_from(1), default=2),
    "restarts": dict(type=_int_from(1), default=32),
}


def _add_flags(p, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged and gives each call of
    :func:`main` a fresh namespace, whose ``command`` names the
    subcommand."""
    parser = argparse.ArgumentParser(
        prog="workcap",
        description="Percept-action loop analysis: channel classes, work rates, "
                    "work capacity, agent construction, d-separation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="channel-class report for a model file")
    p.add_argument("env")
    p.add_argument("--agent", help="also analyze the global chain with this agent")
    _add_flags(p)

    p = sub.add_parser("work-rate", help="per-round and asymptotic work rate")
    p.add_argument("env")
    p.add_argument("agent")
    _add_flags(p, "units", "horizon")

    p = sub.add_parser("capacity", help="work capacity (closed form or lower bound)")
    p.add_argument("env")
    p.add_argument("--out", help="write the witness agent model here")
    _add_flags(p, "units", "seed", "memory-size", "restarts")

    p = sub.add_parser("build-agent", help="construct an agent model file")
    p.add_argument("kind", choices=_AGENT_KINDS)
    p.add_argument("env")
    p.add_argument("--out", required=True)
    p.add_argument("--prob", help="comma-separated action distribution")
    _add_flags(p)

    p = sub.add_parser("dsep", help="d-separation query on a loop DAG template")
    p.add_argument("--variant", choices=["general", "memoryless_env", "product_env"],
                   default="general")
    p.add_argument("--a", required=True, help="comma-separated node names")
    p.add_argument("--b", required=True, help="comma-separated node names")
    p.add_argument("--c", default="", help="comma-separated conditioning nodes")
    _add_flags(p, "horizon")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    _add_flags(p, "seed")

    return parser


def main(argv=None) -> int:
    """Run one command.  Its ``cmd_*`` function is looked up on this module
    at each call, so a wrapper set on the module after the parser was built
    is the one that runs."""
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (InputError, WorkcapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
