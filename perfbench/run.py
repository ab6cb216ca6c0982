"""Exact-answer benchmark for exfold.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the library in a closed loop: the next op starts only
after the previous one has returned and been checked.  ``--trace 0`` runs
whole rounds of the workload until ``--seconds`` have passed and at least
MIN_OPS ops are done, and reports the end-to-end metrics, with op times
scaled to a nominal machine speed (see "Machine speed" below).  ``--trace 1`` runs a fixed
number of rounds untraced and the same number of further rounds with every
layer's public functions wrapped, and reports the per-layer metrics (in
unscaled seconds) plus the tracing overhead.

An op fails on a wrong exact output, an unexpected exception or an
unexpected exit code; ``failed`` and ``fail_ratio`` count every failure.
``correct`` is false when any failure is not one of the library's known
defects registered in ``workloads.KNOWN_DEFECTS``.

The last line of stdout is the result object; the line before it is the
run record (machine, interpreter, commit, seed, sample counts).  Both are
also written under ``.bench_out/``, with the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected"
MIN_OPS = 110        # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 5
CHILD_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", type=int, metavar="ROUNDS", default=0,
                   help="regenerate the committed expected outputs of the default "
                        "seed over this many rounds, then exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes


def child_seconds(args: list[str], inner: bool = False) -> float:
    """Wall time of one child interpreter, or the time it reports itself."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    wall = time.perf_counter() - t0
    return float(proc.stdout) if inner else wall


IMPORT_TIMER = ("import time; t = time.perf_counter(); import exfold; "
                "print(time.perf_counter() - t)")


# Machine speed.  The host shares its cores with other tenants: one fixed
# task runs up to 1.6x slower for stretches of seconds to minutes, and its
# CPU time grows with its wall time, so this is not descheduling that a CPU
# clock would hide.  The reported times are therefore scaled to a nominal
# machine: each op's time is divided by the slowdown measured during its
# round.  The slowdown is the time of a fixed task over its time on the
# uncontended machine that defined the benchmark.  In-process workloads run
# reference_task once after every op and take the round's median; cli-cold,
# whose ops are mostly interpreter start-up, starts three bare child
# interpreters after every round and takes the median of the two rounds'
# probes around it.
NOMINAL_TASK_MS = 2.5
NOMINAL_CHILD_MS = 50.0


def reference_task():
    """Fixed pure-Python work in the library's idiom: exact fractions, dict
    updates and a sort."""
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i, i + 1)
        table[i % 97] = table.get(i % 97, 0) + i * i
    return acc, sorted(table.items())


def task_slowdown() -> float:
    t0 = time.perf_counter()
    reference_task()
    return (time.perf_counter() - t0) * 1000 / NOMINAL_TASK_MS


def child_slowdown() -> float:
    return statistics.median(child_seconds(["-c", "pass"]) for _ in range(3)) \
        * 1000 / NOMINAL_CHILD_MS


# ---------------------------------------------------------------------------
# ops


class Outcome:
    __slots__ = ("op", "seconds", "status", "detail", "scaled")

    def __init__(self, op, seconds, status, detail=""):
        self.op, self.seconds, self.status, self.detail = op, seconds, status, detail
        self.scaled = seconds  # seconds on the nominal machine


def judge(W, op, raw, exc, digests) -> tuple[str, str]:
    """ok | known (a registered defect) | error | wrong."""
    if exc is not None:
        if op.known and W.KNOWN_DEFECTS[op.known] in str(exc):
            return "known", op.known
        return "error", f"{type(exc).__name__}: {exc}"
    try:
        canonical = op.check(raw)
    except Exception as err:  # a check that cannot run is a wrong answer too
        return "wrong", f"{type(err).__name__}: {err}"
    want = digests.get(op.id)
    if want is not None and W.digest(canonical) != want:
        return "wrong", "canonical output differs from the committed digest"
    return "ok", ""


def run_ops(W, ops, digests, outcomes, tracer=None, probes=None) -> None:
    """Run and judge each op; with ``probes``, time the reference task after
    each op too."""
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(outcomes)
        t0 = time.perf_counter()
        try:
            raw, exc = op.call(), None
        except Exception as err:  # recorded as a failed op; the loop goes on
            raw, exc = None, err
        seconds = time.perf_counter() - t0
        status, detail = judge(W, op, raw, exc, digests)
        outcomes.append(Outcome(op, seconds, status, detail))
        if probes is not None:
            probes.append(task_slowdown())


# ---------------------------------------------------------------------------
# set-up


def load_expected(W, name: str, seed: int) -> dict:
    path = EXPECTED / f"{name}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if "stdout" in data:
        return data
    return data if data.get("seed") == seed else {}


def set_up(W, workload, seed: int):
    """Import, input generation, expected-output load and warm-up, repeated;
    returns the fixture, expected data, round 0 and the median set-up time.
    The import is timed in fresh child interpreters, since this one has
    already imported the package."""
    import_s = statistics.median(child_seconds(["-c", IMPORT_TIMER], inner=True)
                                 for _ in range(SETUP_REPEATS))
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fx = workload.prepare(ROOT, OUT / "work")
        expected = load_expected(W, workload.name, seed)
        fx["stdout"] = expected.get("stdout")
        first = workload.round(fx, seed, 0)
        warm = [op for op in workload.round(fx, seed, -1) if op.warm]
        run_ops(W, warm, {}, [])
        prep.append(time.perf_counter() - t0)
    return fx, expected.get("digests", {}), first, import_s + statistics.median(prep)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# runs


def timed_run(W, workload, fx, digests, first, seed, seconds, children):
    """Whole rounds until the time is up and MIN_OPS ops are done; returns
    the outcomes, each round's ops per nominal second of op time, and each
    round's measured slowdown."""
    outcomes: list[Outcome] = []
    rates: list[float] = []
    slow = [child_slowdown()] if children else []
    ops, r = first, 0
    start = time.perf_counter()
    while True:
        done = len(outcomes)
        if children:
            run_ops(W, ops, digests, outcomes)
            slow.append(child_slowdown())
            factor = (slow[-2] + slow[-1]) / 2
        else:
            probes: list[float] = []
            run_ops(W, ops, digests, outcomes, probes=probes)
            factor = statistics.median(probes)
            slow.append(factor)
        for o in outcomes[done:]:
            o.scaled = o.seconds / factor
        rates.append((len(outcomes) - done) / sum(o.scaled for o in outcomes[done:]))
        r += 1
        if time.perf_counter() - start >= seconds and len(outcomes) >= MIN_OPS:
            return outcomes, rates, slow
        ops = workload.round(fx, seed, r)


def traced_run(W, S, workload, fx, digests, first, seed):
    k = workload.trace_rounds
    untraced: list[Outcome] = []
    for r in range(k):
        run_ops(W, first if r == 0 else workload.round(fx, seed, r), digests, untraced)
    rounds = [workload.round(fx, seed, r) for r in range(k, 2 * k)]
    tracer = S.Tracer()
    patches = S.install(tracer)
    traced: list[Outcome] = []
    try:
        for ops in rounds:
            run_ops(W, ops, digests, traced, tracer)
    finally:
        patches.undo()
    metrics = S.layer_metrics(tracer)
    metrics.update(cli_metrics(workload.name, traced))
    rate = lambda outs: len(outs) / sum(o.seconds for o in outs)
    metrics["trace_overhead"] = rate(untraced) / rate(traced) - 1
    metrics["traced_ops"] = len(traced)
    metrics["spans"] = len(tracer)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.bin")
    return untraced + traced, 2 * k, metrics


CLI_SUBCOMMANDS = ("enumerate", "solve", "reduce", "levels", "hardgen")


def cli_metrics(name: str, outcomes) -> dict:
    keys = ["process_ms", "import_ms", "python_floor_ms"] + \
        [f"process_ms.{sub}" for sub in CLI_SUBCOMMANDS]
    if name != "cli-cold":
        return dict.fromkeys(keys, 0.0)
    ms = lambda xs: 1000 * statistics.median(xs)
    out = {"process_ms": ms([o.seconds for o in outcomes])}
    for sub in CLI_SUBCOMMANDS:
        out[f"process_ms.{sub}"] = ms([o.seconds for o in outcomes if o.op.kind == f"cli-{sub}"])
    out["import_ms"] = ms([child_seconds(["-c", "import exfold"]) for _ in range(CHILD_REPEATS)])
    out["python_floor_ms"] = ms([child_seconds(["-c", "pass"]) for _ in range(CHILD_REPEATS)])
    return out


def latency_metrics(outcomes, rates, setup_s: float, scaled: bool) -> dict:
    """Every round holds the same mix of work, so the median of the
    per-round rates is the throughput."""
    ms = [1000 * (o.scaled if scaled else o.seconds) for o in outcomes]
    deciles = statistics.quantiles(ms, n=10)
    return {
        "ops_per_s": statistics.median(rates) if scaled
        else len(ms) / (sum(ms) / 1000),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "setup_s": setup_s,
    }


def end_to_end(outcomes, rates, setup_s: float, children: bool) -> dict:
    failed = sum(o.status != "ok" for o in outcomes)
    return {
        **latency_metrics(outcomes, rates, setup_s, scaled=True),
        "fail_ratio": failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb(children),
    }


# ---------------------------------------------------------------------------
# run record


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_record(args, outcomes, rounds, metrics) -> dict:
    src = ROOT / "src" / "exfold"
    ms = sorted(o.scaled for o in outcomes)
    by_status: dict[str, int] = {}
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        by_status[o.status] = by_status.get(o.status, 0) + 1
        by_kind.setdefault(o.op.kind, []).append(1000 * o.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds, "samples": len(outcomes),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "status": by_status,
        "kinds_ms": {kind: [len(xs), round(statistics.median(xs), 3)]
                     for kind, xs in sorted(by_kind.items())},
        "failures": sorted({f"{o.op.kind}: {o.detail}" for o in outcomes if o.status != "ok"}),
    }
    if args.trace == 0:
        record["beyond_p90"] = sum(1000 * s > metrics["op_p90_ms"] for s in ms)
    return record


def write_expected(W, workload, rounds: int) -> int:
    """Record the default seed's digests (or, for cli-cold, the expected
    stdout of each command).  Ops that fail or disagree with their reference
    are reported and get no digest."""
    seed = W.DEFAULT_SEED
    fx = workload.prepare(ROOT, OUT / "work")
    bad = 0
    if workload.name == "cli-cold":
        stdout = {}
        for i in range(len(W.CLI_COMMANDS)):
            op = W.cli_op(fx, i, None)
            try:
                stdout[str(i)] = op.check(op.call())
            except W.ChildFailed as err:
                print(f"command {i} failed: {err}", file=sys.stderr)
        stdout[str(len(W.CLI_COMMANDS) - 1)] = W.nn_long_loop_stdout()
        payload = {"commands": [list(a) for a in W.CLI_COMMANDS], "stdout": stdout}
    else:
        digests = {}
        for r in range(rounds):
            for op in workload.round(fx, seed, r):
                try:
                    digests[op.id] = W.digest(op.check(op.call()))
                except Exception as err:
                    if not op.known:
                        bad += 1
                        print(f"{op.id} {op.kind}: {type(err).__name__}: {err}", file=sys.stderr)
        payload = {"seed": seed, "rounds": rounds, "digests": digests}
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{workload.name}.json").write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exfold" / "__init__.py").is_file():
        print("perfbench: src/exfold not found; run from the root of an exfold checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans as S
    import workloads as W

    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected(W, workload, args.write_expected)

    fx, digests, first, setup_s = set_up(W, workload, args.seed)
    if args.trace:
        outcomes, rounds, metrics = traced_run(W, S, workload, fx, digests, first, args.seed)
        machine, raw = [], {}
    else:
        children = workload.name == "cli-cold"
        outcomes, rates, machine = timed_run(W, workload, fx, digests, first, args.seed,
                                             args.seconds, children)
        rounds = len(rates)
        # set-up is mostly child interpreters importing the package, which
        # neither probe tracks; scaling it widened its spread, so it is not
        metrics = end_to_end(outcomes, rates, setup_s, children)
        raw = latency_metrics(outcomes, rates, setup_s, scaled=False)
    # BENCHMARK.json names the reported metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    record = run_record(args, outcomes, rounds, metrics)
    if machine:
        record["slowdown_median"] = statistics.median(machine)
        record["unscaled"] = raw
    result = {
        "correct": all(o.status in ("ok", "known") for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    samples = [[o.op.id, o.op.kind, o.seconds, o.status] for o in outcomes]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "samples": samples,
                    "slowdown": machine}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
