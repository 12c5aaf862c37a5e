"""workcap benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The run generates the workload's inputs from the seed, sets up,
then repeats the workload's fixed batch of operations until about ``S``
seconds have passed (at least three batches).  With ``--trace 0`` it reports
the end-to-end metrics: ``wall_s`` (median batch time), ``setup_s`` (median
of three fresh-process set-ups: import, input generation, one warm-up op),
``peak_rss_mb`` and ``lower_bound_bits``.  Both times are read at the
reference host speed (see ``speed.py``): the shared host's cores change
speed by up to 2x for tens of seconds, which no median within one run can
remove.  The times as measured are in the record line.  With ``--trace 1``
it alternates plain and traced batches and reports per-layer metrics from
spans around every public ``workcap`` function.  Every operation's value is
checked (see ``workloads.py``); repeats must be identical, and the CLI's
``--json`` output must also match the digest stored by earlier runs of the
same source tree, input generator and seed.

The last line of stdout is the result object; the line before it records
the run (environment, batch times, failures).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# one BLAS thread: the host-speed probe measures one core, and the second core
# is left to the system
BLAS_THREADS = 1
SETUP_SAMPLES = 3
MIN_BATCHES = 3
LAYERS = ("cli", "verify", "capacity", "loop", "markov", "info", "channels", "agents", "bayesnet")
CHECKS = ("fig5_capacity", "fig5_mea_work_rate", "identity_and_noiseless",
          "golden_mean_realizability", "fig5_agent_set_exclusivity", "global_markov_chain",
          "cesaro_machinery", "cascade_subadditivity", "d_separation_soundness")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "capacity_numeric", "chain_ladder", "predictiveness"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this process, print the time taken and exit "
                             "(used for the setup_s samples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare_imports() -> None:
    """Pin BLAS threads, put the checkout's ``src`` first on the path and
    make sure ``workcap`` comes from there."""
    if not (SRC / "workcap" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'workcap'} not found; run from a workcap source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    os.chdir(ROOT)
    import workcap
    if Path(workcap.__file__).resolve().parent != SRC / "workcap":
        sys.exit(f"error: imported workcap from {workcap.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "workcap").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def state_key() -> str:
    """Key of the state kept between runs: the library's sources and the
    code that generates the workloads' inputs."""
    h = hashlib.sha256(source_digest().encode())
    h.update((BENCH_DIR / "workloads.py").read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def run_batch(ops, tracer=None, run_probe=None):
    """Run every op once; returns (Speedometer, values, errors by op name)."""
    import speed

    values, errors = {}, {}
    with speed.Speedometer(run_probe=run_probe or speed.probe) as timer:
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            try:
                values[op.name] = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                errors[op.name] = f"{type(exc).__name__}: {exc}"
    return timer, values, errors


class Ledger:
    """Per-op attempts; an attempt fails when it raised, when its value
    differs from the op's first value, or when the op failed its check."""

    def __init__(self):
        self.first: dict = {}
        self.attempts: dict[str, list[bool]] = {}
        self.failures: dict[str, str] = {}

    def record(self, ops, values, errors) -> None:
        for op in ops:
            ok = op.name not in errors
            if not ok:
                self.failures.setdefault(op.name, errors[op.name])
            elif op.name not in self.first:
                self.first[op.name] = values[op.name]
            elif values[op.name] != self.first[op.name]:
                ok = False
                self.failures.setdefault(op.name, "value differs from the first repeat")
            self.attempts.setdefault(op.name, []).append(ok)

    def fail_op(self, name: str, why: str) -> None:
        self.failures.setdefault(name, why)
        self.attempts[name] = [False] * len(self.attempts.get(name, [False]))

    def check(self, workload) -> None:
        if len(self.first) < len(workload.ops):
            return  # some op never succeeded; its attempts already failed
        try:
            failures = workload.check(self.first)
        except Exception as exc:
            failures = {op.name: f"check raised {type(exc).__name__}: {exc}"
                        for op in workload.ops}
        for name, why in failures.items():
            self.fail_op(name, why)

    @property
    def attempted(self) -> int:
        return sum(len(a) for a in self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(a.count(False) for a in self.attempts.values())


def state_file(kind: str, key: str) -> Path:
    from workloads import STATE_DIR
    path = STATE_DIR / kind / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, doc) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)


def check_digests(workload, ledger: Ledger, key: str) -> None:
    """The --json stdout of each op must match earlier runs with this state
    key and seed byte for byte."""
    digests = {name: hashlib.sha256(value.encode()).hexdigest()
               for name, value in ledger.first.items()}
    path = state_file("digests", f"{key[:16]}-{workload.name}-{workload.seed}")
    stored = json.loads(path.read_text()) if path.exists() else {}
    for name, digest in digests.items():
        if stored.get(name, digest) != digest:
            ledger.fail_op(name, "--json output differs from an earlier run with this seed")
    write_json(path, {**digests, **stored})


def lower_bound_bits(workload, ledger: Ledger, key: str) -> float | None:
    """Mean numeric capacity bound over this seed's capacity_numeric
    environments.  Other workloads reuse the value stored for this state
    key and seed, computing it (untimed) when absent."""
    import workloads

    path = state_file("lower_bound", f"{key[:16]}-{workload.seed}")
    if isinstance(workload, workloads.CapacityNumeric):
        cap, values = workload, ledger.first
        ok = ledger.failed == 0
        if len(values) < len(cap.ops):
            return None
    elif path.exists():
        return json.loads(path.read_text())["lower_bound_bits"]
    else:
        cap = workloads.CapacityNumeric(workload.seed)
        probe = Ledger()
        probe.record(cap.ops, *run_batch(cap.ops)[1:])
        probe.check(cap)
        for name, attempts in probe.attempts.items():
            ledger.attempts[f"lower_bound.{name}"] = attempts
        for name, why in probe.failures.items():
            ledger.failures[f"lower_bound.{name}"] = why
        values, ok = probe.first, probe.failed == 0
        if not ok:
            return None
    bound = cap.mean_bound_bits(values)
    if ok:
        write_json(path, {"lower_bound_bits": bound})
    return bound


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int):
    import workloads
    workload = workloads.BY_NAME[name](seed)
    workload.warmup()
    return workload


def setup_samples(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, interpreter start to warm-up done:
    (at the reference speed, as measured).  The host's speed is probed just
    before and just after each process."""
    import speed

    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe_seconds()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        probe_s = (before + speed.probe_seconds()) / 2
        samples.append(seconds * speed.PROBE_REF_S / probe_s)
        raw.append(seconds)
    return samples, raw


# ---------------------------------------------------------------------------
# Traced batches and per-layer metrics
# ---------------------------------------------------------------------------

def _work_rate_info(args, kwargs, report):
    base = kwargs.get("base", args[4] if len(args) > 4 else "bits")
    return {"rate": report.rate, "base": base, "loop": args[0] if args else kwargs["loop"]}


OBSERVERS = {
    "markov.asymptotic_profile":
        lambda a, k, r: {"states": r.cesaro_matrix.shape[0], "period": r.period_lcm},
    "loop.work_rate": _work_rate_info,
    "loop.trajectory_distribution": lambda a, k, r: {"entries": r.joint.probs.size},
    "capacity.capacity_lower_bound":
        lambda a, k, r: {"restarts": len(r.optimizer_trace), "stalled": bool(r.stalled)},
}
LABELS = {"verify.run_check": lambda a, k: a[0] if a else k["name"]}


def traced_batch(ops):
    import importlib

    import spans
    import speed

    modules = {layer: importlib.import_module(f"workcap.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "workcap" or n.startswith("workcap.")]
    tracer = spans.Tracer()
    installed = spans.install(tracer, modules, namespaces, LABELS, OBSERVERS)
    # a probe span is a child of the span it interrupts, so it is not
    # charged to that layer's self time
    run_probe = tracer.wrap("bench.probe", speed.probe)
    try:
        timer, values, errors = run_batch(ops, tracer, run_probe)
    finally:
        installed.restore()
    return timer, values, errors, tracer.spans


def layer_metrics(spans_list) -> dict[str, float]:
    """Per-layer figures of one traced batch."""
    from spans import ancestor, self_times

    selfs = self_times(spans_list)
    calls, self_s, total_s = {}, {}, {}
    for span, st in zip(spans_list, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + st
        total_s[span.name] = total_s.get(span.name, 0.0) + span.end - span.start

    def named(name):
        return [i for i, s in enumerate(spans_list) if s.name == name]

    m = {}
    for name in ("markov.asymptotic_profile", "loop.build_global_chain", "loop.work_rate",
                 "capacity.capacity_memoryless", "loop.trajectory_distribution",
                 "bayesnet.d_separated", "cli.main"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("markov.asymptotic_profile", "markov.classify_states", "markov.first_passage",
                 "loop.build_global_chain", "loop.work_rate", "capacity.capacity_lower_bound",
                 "capacity.capacity_memoryless", "loop.trajectory_distribution",
                 "loop.predictiveness_score", "info.JointTable.marginal",
                 "info.conditional_mutual_information", "info.entropy_rate",
                 "agents.build_predictive", "channels.is_product", "channels.load_model",
                 "bayesnet.validate_compatibility", "bayesnet.d_separated", "cli.main"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    profiles = [spans_list[i].info for i in named("markov.asymptotic_profile")]
    m["markov.asymptotic_profile.states"] = sum(p.get("states", 0) for p in profiles)
    m["markov.asymptotic_profile.period_lcm_max"] = max((p.get("period", 0) for p in profiles),
                                                        default=0)
    rates = named("loop.work_rate")
    m["loop.work_rate.failed"] = sum(spans_list[i].failed for i in rates)
    entries = sum(spans_list[i].info.get("entries", 0)
                  for i in named("loop.trajectory_distribution"))
    m["loop.trajectory_distribution.entries"] = entries
    m["loop.trajectory_distribution.computed_bytes"] = 8 * entries

    searches = named("capacity.capacity_lower_bound")
    best: dict[int, float] = {}
    evals = useful = 0
    for i in rates:
        owner = ancestor(spans_list, i, "capacity.capacity_lower_bound")
        if owner is None:
            continue
        evals += 1
        rate = spans_list[i].info.get("rate")
        if rate is not None and rate > best.get(owner, -math.inf):
            best[owner] = rate
            useful += 1
    search_s = sum(spans_list[i].end - spans_list[i].start for i in searches)
    m["capacity.evals"] = evals
    m["capacity.evals_per_s"] = evals / search_s if search_s else 0.0
    m["capacity.useful_eval_ratio"] = useful / evals if evals else 0.0
    m["capacity.restarts"] = sum(spans_list[i].info.get("restarts", 0) for i in searches)
    m["capacity.stalled"] = sum(spans_list[i].info.get("stalled", False) for i in searches)

    for check in CHECKS:
        m[f"verify.{check}.s"] = total_s.get(f"verify.run_check[{check}]", 0.0)
    return m


def work_rate_max_err_bits(spans_list) -> float:
    """Largest |rate - oracle| over the traced batch's work_rate calls."""
    import oracle

    worst = 0.0
    for span in spans_list:
        if span.name != "loop.work_rate" or span.failed:
            continue
        pal = span.info["loop"]
        rate = span.info["rate"] / (math.log(2) if span.info["base"] == "nats" else 1.0)
        exact = oracle.work_rate_bits(pal.agent.theta, pal.agent.initial_joint,
                                      pal.env.phi, pal.env.initial)
        worst = max(worst, abs(rate - exact))
    return worst


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


UNITS = {"calls": "count", "self_s": "s", "s": "s", "states": "count",
         "period_lcm_max": "count", "failed": "count", "max_err_bits": "bits",
         "entries": "count", "computed_bytes": "bytes", "evals": "count",
         "evals_per_s": "1/s", "useful_eval_ratio": "ratio", "restarts": "count",
         "stalled": "count"}


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_imports()
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    workload = set_up(args.workload, args.seed)
    key = state_key()
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "shape": workload.shape}
    setup, setup_raw = ([], []) if args.trace else setup_samples(args.workload, args.seed)

    ledger = Ledger()
    plain, traced, per_batch, traced_spans = [], [], [], None
    start = time.perf_counter()
    while True:
        gc.collect()
        timer, values, errors = run_batch(workload.ops)
        ledger.record(workload.ops, values, errors)
        plain.append(timer)
        if args.trace:
            gc.collect()
            timer, values, errors, spans_list = traced_batch(workload.ops)
            ledger.record(workload.ops, values, errors)
            traced.append(timer)
            per_batch.append(layer_metrics(spans_list))
            traced_spans = traced_spans or spans_list
        elapsed = time.perf_counter() - start
        last = elapsed / len(plain)
        if len(plain) >= (1 if args.trace else MIN_BATCHES) and elapsed + last > args.seconds:
            break
    plain_s = [t.scaled_s for t in plain]
    traced_s = [t.scaled_s for t in traced]

    ledger.check(workload)
    if workload.cli_output:
        check_digests(workload, ledger, key)

    if args.trace:
        metrics = {name: metric(statistics.median(b[name] for b in per_batch),
                                UNITS[name.rsplit(".", 1)[1]])
                   for name in per_batch[0]}
        metrics["loop.work_rate.max_err_bits"] = metric(work_rate_max_err_bits(traced_spans),
                                                        "bits")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(traced_s) / statistics.median(plain_s), "ratio")
        metrics["fail_ratio"] = metric(ledger.failed / ledger.attempted, "ratio")
        metrics["ops_attempted"] = metric(ledger.attempted, "count")
    else:
        bound = lower_bound_bits(workload, ledger, key)
        metrics = {
            "wall_s": metric(statistics.median(plain_s), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
            "lower_bound_bits": metric(bound, "bits"),
        }

    record.update(batches_s=plain_s, traced_batches_s=traced_s, setup_samples_s=setup,
                  batches_raw_s=[t.raw_s for t in plain],
                  traced_batches_raw_s=[t.raw_s for t in traced], setup_samples_raw_s=setup_raw,
                  probe_median_s=[t.probe_median_s for t in plain + traced],
                  checks=workload.report,
                  attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures)
    print(json.dumps({"run": record}, sort_keys=True, default=str))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
