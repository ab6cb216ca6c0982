"""Tests of the benchmark itself: its references, its trace arithmetic,
its correctness gate and its input generation.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import random
from array import array
from fractions import Fraction

import pytest

import run
import spans
import workloads as W
from exfold import oracles, strands
from exfold.energy import BPM


def random_strand(rng, n, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_dos_equals_dos_brute(n):
    rng = random.Random(n)
    cases = [random_strand(rng, n, "ACG") for _ in range(3)]
    if n <= 10:
        cases += [random_strand(rng, n, "ACGU") for _ in range(3)]
    for seq in cases:
        system = strands.StrandSystem.from_sequences(seq)
        brute = oracles.dos_brute(system, W.PK, BPM).counts
        assert W.pk_bpm_counts(seq) == brute, seq
        if "U" not in seq:
            assert W.cf_counts(seq) == brute, seq
            oracle = W.closed_form_oracle(seq, 2)
            assert oracle.pf() == oracles.dos_brute(system, W.PK, BPM).pf(Fraction(2))


def test_noncrossing_count_matches_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        seq = random_strand(rng, rng.randint(4, 11), "ACGU")
        system = strands.StrandSystem.from_sequences(seq)
        assert W.noncrossing_count(seq) == strands.count_structures(system, W.KNOT_FREE)
        assert W.noncrossing_count(seq, min_loop=3) == strands.count_structures(
            system, strands.nn_space())


def test_self_time_on_nested_trace():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [11, 12] is a root
    names = ["a", "b", "c", "d", "e"]
    name = array("i", [0, 1, 2, 3, 4])
    start = array("d", [0, 1, 5, 6, 11])
    end = array("d", [10, 4, 9, 8, 12])
    parent = array("q", [-1, 0, 0, 2, -1])
    totals = spans.span_totals(names, name, start, end, parent)
    assert {k: v["self_s"] for k, v in totals.items()} == \
        {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 1.0}
    assert totals["a"]["total_s"] == 10.0 and totals["a"]["spans"] == 1


def test_tracer_times_generator_steps_and_restores_the_library(tmp_path):
    import exfold

    original = exfold.dos_brute
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        system = strands.StrandSystem.from_sequences("GGCC")
        dos = oracles.dos_brute(system, W.PK, BPM)
    finally:
        patches.undo()
    assert exfold.dos_brute is original and oracles.dos_brute is original
    m = spans.layer_metrics(tracer)
    assert m["structures_yielded"] == dos.total() == 7
    assert m["enumerate_structures.calls"] == 1 and m["energy.calls"] == 7
    totals = spans.span_totals(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
    assert totals["enumerate_structures"]["spans"] == 8  # seven items, then exhaustion
    # every step of the generator is a child of dos_brute, not of the step before
    dos_id = tracer.names.index("dos_brute")
    roots = [i for i in range(len(tracer)) if tracer.parent[i] == -1]
    assert [tracer.name[i] for i in roots] == [dos_id]
    path = tmp_path / "spans.bin"
    tracer.write(path)
    back = spans.load_spans(path)
    assert back["names"] == tracer.names and list(back["end"]) == list(tracer.end)


def default_round(name):
    workload = W.WORKLOADS[name]
    fx = workload.prepare(run.ROOT, run.OUT / "work")
    expected = run.load_expected(W, name, W.DEFAULT_SEED)
    return workload.round(fx, W.DEFAULT_SEED, 0), expected["digests"]


def test_corrupted_digest_fails_its_op():
    ops, digests = default_round("reduce-reconstruct")
    op = next(o for o in ops if o.kind == "map")
    raw = op.call()
    assert run.judge(W, op, raw, None, digests) == ("ok", "")
    corrupted = dict(digests, **{op.id: "0" * 16})
    status, _ = run.judge(W, op, raw, None, corrupted)
    assert status == "wrong"


def test_known_defects_fail_with_their_signature():
    ops, digests = default_round("reduce-reconstruct")
    deep = next(o for o in ops if o.known == "digit-limit")
    outcomes = []
    run.run_ops(W, [deep], digests, outcomes)
    assert outcomes[0].status == "known"


def test_expected_nn_long_loop_stdout_is_the_extended_parameter_dos():
    data = json.loads((run.EXPECTED / "cli-cold.json").read_text())
    index = next(i for i, cmd in enumerate(W.CLI_COMMANDS) if W.NN_LONG_LOOP in cmd)
    assert data["stdout"][str(index)] == W.nn_long_loop_stdout()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    workload = W.WORKLOADS[name]
    fx = workload.prepare(run.ROOT, run.OUT / "work")

    def inputs(seed, r):
        return [(op.id, op.kind, op.inputs) for op in workload.round(fx, seed, r)]

    assert inputs(3, 1) == inputs(3, 1)
    assert inputs(3, 1) != inputs(4, 1)
    assert inputs(3, 1) != inputs(3, 2)
