"""Re-measure the hand-made baselines listed in ROADMAP.md with the
benchmark's tracer, and print them side by side as a Markdown table.

    python3 perfbench/reconcile.py

Each library figure is the median span duration over REPEATS traced calls;
the CLI figures are median wall times of fresh child interpreters.  A row
is flagged when the two figures differ by more than 2x either way.
"""

from __future__ import annotations

import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

REPEATS = 3

# (figure, ROADMAP value in seconds)
BASELINES = {
    "solve_vandermonde N=20": 0.011,
    "solve_vandermonde N=40": 1.41,
    "levels_nn_dp n=16": 0.003,
    "levels_nn_dp n=24": 0.020,
    "levels_nn_dp n=32": 0.119,
    "CLI cold start (exfold enumerate ACGT)": 0.30,
    "python -c pass": 0.15,
    "import exfold (in-process)": 0.125,
}


def traced_span(name: str, call) -> float:
    durations = []
    for _ in range(REPEATS):
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            call()
        finally:
            patches.undo()
        nid = tracer.names.index(name)
        durations += [tracer.end[i] - tracer.start[i]
                      for i in range(len(tracer)) if tracer.name[i] == nid]
    return statistics.median(durations)


def measure() -> dict[str, float]:
    out = {}
    for n_levels in (20, 40):
        seq = "CG" * (n_levels - 1)  # 2(N-1) bases: N pair-count levels
        oracle = W.closed_form_oracle(seq, 2)
        lv = W.levels.levels_bpm(len(seq))
        out[f"solve_vandermonde N={n_levels}"] = traced_span(
            "solve_vandermonde", lambda: W.reductions.dos_via_pf(oracle, lv, Fraction(2)))
    rng = random.Random(16)
    for n in (16, 24, 32):
        system = W.strands.StrandSystem.from_sequences(
            "".join(rng.choice("ACGU") for _ in range(n)))
        params = W.energy.toy_params_a(n)
        out[f"levels_nn_dp n={n}"] = traced_span(
            "levels_nn_dp", lambda: W.levels.levels_nn_dp(system, system.ids, params))
    out["CLI cold start (exfold enumerate ACGT)"] = statistics.median(
        run.child_seconds(["-m", "exfold.cli", "enumerate", "ACGT"]) for _ in range(5))
    out["python -c pass"] = statistics.median(
        run.child_seconds(["-c", "pass"]) for _ in range(5))
    out["import exfold (in-process)"] = statistics.median(
        run.child_seconds(["-c", run.IMPORT_TIMER], inner=True) for _ in range(5))
    return out


def main() -> int:
    measured = measure()
    print("| figure | ROADMAP | measured | ratio | more than 2x |")
    print("| --- | --- | --- | --- | --- |")
    for name, base in BASELINES.items():
        got = measured[name]
        ratio = got / base
        flag = "yes" if ratio > 2 or ratio < 0.5 else ""
        print(f"| {name} | {base:.3f} s | {got:.3f} s | {ratio:.2f} | {flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
