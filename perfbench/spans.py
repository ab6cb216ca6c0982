"""Span tracing for the traced benchmark run.

The library is instrumented from the outside: public functions are replaced
by timing wrappers in every ``exfold`` module that bound them, and methods
are replaced on their class.  Each wrapper records a span (name, start, end,
parent span, op id) into flat in-memory arrays; the spans are written to
disk once, after the traced phase.  A generator is timed per ``next()``,
because its consumer runs between two items: each step is its own span,
parented to whatever span was open when the consumer asked for the item.

Self time is a span's duration minus the durations of its direct children.
Spans come from one thread and nest strictly, so the children of a span never
overlap and their durations add up to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op_id = -1
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def note_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Header line (JSON) followed by the raw span arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self),
                  "arrays": ["name:i", "start:d", "end:d", "parent:q", "op:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def load_spans(path: Path) -> dict:
    """Read back a file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            out[key] = arr
    return out


def span_totals(names, name, start, end, parent) -> dict[str, dict]:
    """Per span name: number of spans, total (inclusive) seconds and self
    seconds, the latter being duration minus the durations of direct
    children."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {nm: {"spans": 0, "total_s": 0.0, "self_s": 0.0} for nm in names}
    for i in range(n):
        row = out[names[name[i]]]
        dur = end[i] - start[i]
        row["spans"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
    return out


# ---------------------------------------------------------------------------
# wrappers


def _traced_call(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


def _traced_generator(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    calls_key, items_key = f"{name}.calls", f"{name}.items"

    def steps(gen):
        try:
            while True:
                idx = tracer.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.finish(idx)
                tracer.counters[items_key] += 1
                yield item
        finally:
            gen.close()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[calls_key] += 1
        return steps(fn(*args, **kwargs))

    return wrapper


def _counted_call(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Replacements installed into the library; ``undo`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, after=None) -> None:
        """Trace ``module.attr`` under every exfold module name bound to it."""
        original = getattr(sys.modules[module], attr)
        if inspect.isgeneratorfunction(original):
            wrapped = _traced_generator(self.tracer, original, attr)
        else:
            wrapped = _traced_call(self.tracer, original, attr, after)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "exfold" or mod_name.startswith("exfold.")) \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def method(self, cls, attr: str, name: str, count_only: bool = False) -> None:
        original = cls.__dict__[attr]
        if count_only:
            wrapped = _counted_call(self.tracer, original, name)
        else:
            wrapped = _traced_call(self.tracer, original, name)
        self._set(cls, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# what the traced run instruments, layer by layer

REDUCTIONS = ("dmfe_via_mfe", "dpf_via_pf", "mfe_via_dmfe", "mfe_via_ssel",
              "pf_via_ssel", "ssel_via_pf", "dmfe_via_dpf", "pf_via_dpf")
ORACLE_OPS = ("pf", "dpf", "mfe", "dmfe", "ssel")


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _after_reduction(tracer, args, kwargs, out):
    transcript = out[1]
    tracer.counters["transcript_calls"] += transcript.call_count
    tracer.note_max("budget_use_max", transcript.call_count / transcript.budget)


def _after_vandermonde(tracer, args, kwargs, out):
    system = args[0]
    tracer.note_max("vandermonde_max_N", len(system.nodes))
    tracer.note_max("vandermonde_max_bits",
                    max(map(_bits, system.nodes + system.rhs + tuple(out)), default=0))


def _after_levels_dp(tracer, args, kwargs, out):
    n = args[0].n
    tracer.counters["levels_out"] += len(out)
    # three tables (g, gb, gm) over the n(n+1)/2 subsequences [i, j]
    tracer.counters["dp_cells_computed"] += 3 * n * (n + 1) // 2


def _after_bps_auto(tracer, args, kwargs, out):
    tracer.counters[f"route.{out[1]}"] += 1


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of every layer that the per-layer metrics
    read.  Call ``undo`` on the result to remove the wrappers."""
    from exfold import oracles, strands

    p = Patches(tracer)
    # strands
    p.function("exfold.strands", "enumerate_structures")
    p.function("exfold.strands", "is_unpseudoknotted_multi")
    p.method(strands.Flattening, "__init__", "Flattening.calls", count_only=True)
    # energy
    p.function("exfold.energy", "energy")
    p.function("exfold.energy", "decompose_loops")
    p.function("exfold.energy", "rotational_symmetry")
    # oracles
    p.function("exfold.oracles", "dos_brute")
    p.method(oracles.DensityOfStates, "pf", "DensityOfStates.pf")
    for op in ORACLE_OPS:
        p.method(oracles.OracleHandle, op, f"oracle_calls.{op}", count_only=True)
    # reductions and exact math
    for name in REDUCTIONS:
        p.function("exfold.reductions", name, after=_after_reduction)
    p.function("exfold.exactmath", "solve_vandermonde", after=_after_vandermonde)
    # levels
    p.function("exfold.levels", "levels_nn_dp", after=_after_levels_dp)
    p.function("exfold.levels", "levels_nn_grid")
    p.function("exfold.levels", "augment_symmetry")
    # hardness
    for name in ("count_4part_brute", "count_bps_chains", "count_bps_brute",
                 "count_3dm_brute"):
        p.function("exfold.hardness", name)
    p.function("exfold.hardness", "count_bps_auto", after=_after_bps_auto)
    return p


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced phase (seconds and counts)."""
    totals = span_totals(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
    blank = {"spans": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return totals.get(name, blank)

    c, mx = tracer.counters, tracer.maxima
    m: dict[str, float] = {}
    enum = row("enumerate_structures")
    m["enumerate_structures.calls"] = c["enumerate_structures.calls"]
    m["enumerate_structures.self_s"] = enum["self_s"]
    m["structures_yielded"] = c["enumerate_structures.items"]
    m["structures_per_s"] = (c["enumerate_structures.items"] / enum["total_s"]
                             if enum["total_s"] else 0.0)
    m["Flattening.calls"] = c["Flattening.calls"]
    for name in ("is_unpseudoknotted_multi", "energy"):
        m[f"{name}.calls"] = row(name)["spans"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("decompose_loops", "rotational_symmetry", "dos_brute"):
        m[f"{name}.self_s"] = row(name)["self_s"]
    m["DensityOfStates.pf.calls"] = row("DensityOfStates.pf")["spans"]
    m["DensityOfStates.pf.self_s"] = row("DensityOfStates.pf")["self_s"]
    for op in ORACLE_OPS:
        m[f"oracle_calls.{op}"] = c[f"oracle_calls.{op}"]
    for name in REDUCTIONS:
        m[f"{name}.calls"] = row(name)["spans"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    m["transcript_calls"] = c["transcript_calls"]
    m["budget_use_max"] = mx.get("budget_use_max", 0.0)
    m["solve_vandermonde.calls"] = row("solve_vandermonde")["spans"]
    m["solve_vandermonde.self_s"] = row("solve_vandermonde")["self_s"]
    m["vandermonde_max_N"] = mx.get("vandermonde_max_N", 0)
    m["vandermonde_max_bits"] = mx.get("vandermonde_max_bits", 0)
    m["levels_nn_dp.calls"] = row("levels_nn_dp")["spans"]
    m["levels_nn_dp.self_s"] = row("levels_nn_dp")["self_s"]
    m["levels_out"] = c["levels_out"]
    m["dp_cells_computed"] = c["dp_cells_computed"]
    m["levels_nn_grid.self_s"] = row("levels_nn_grid")["self_s"]
    m["augment_symmetry.self_s"] = row("augment_symmetry")["self_s"]
    for name in ("count_4part_brute", "count_bps_chains"):
        m[f"{name}.calls"] = row(name)["spans"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("count_bps_brute", "count_3dm_brute"):
        m[f"{name}.self_s"] = row(name)["self_s"]
    routed = c["route.chain-count"] + c["route.enumeration"]
    m["chain_route_share"] = c["route.chain-count"] / routed if routed else 0.0
    return m
