"""The three energy functions (BPM, BPS, NN), loop decomposition, rotational
symmetry, and NN parameter files.

Energies are integers counting quanta of a global granularity ``delta``
(a positive rational): BPM and BPS use delta = 1, NN parameter sets declare
their own.  Keeping energies integral makes every downstream comparison and
partition-function identity exact.  Magnification is not a property of a
model: the oracles in ``exfold.oracles`` apply it to the density of states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import mpmath

from .strands import (
    BaseRef,
    Flattening,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    check_structure,
    flattening,
    is_connected,
    is_unpseudoknotted_multi,
    _crossing_free,
)

VALID_KINDS = ("bpm", "bps", "nn")


class DecompositionError(InvalidInput):
    """Loop decomposition needs a connected, crossing-free input."""


# ---------------------------------------------------------------------------
# BPM / BPS


def energy_bpm(structure: SecondaryStructure) -> int:
    return -len(structure.pairs)


def stack_count(structure: SecondaryStructure) -> int:
    """Stacked couples: (s,x)-(t,y) with (s,x+1)-(t,y-1), which is the flat
    test (i,j),(i+1,j-1) with no nick inside (i, i+1) or (j-1, j).  Each
    couple counts once under every ordering, so it takes none.  Walking both
    orientations of every pair finds each couple twice."""
    partner = {}
    for a, b in structure.pairs:
        partner[a], partner[b] = b, a
    return sum(1 for a, b in partner.items()
               if (a.strand, a.index + 1) != b
               and partner.get(BaseRef(a.strand, a.index + 1)) == (b.strand, b.index - 1)) // 2


def energy_bps(structure: SecondaryStructure) -> int:
    return -stack_count(structure)


# ---------------------------------------------------------------------------
# NN parameters


@dataclass(frozen=True)
class NNParams:
    """Toy nearest-neighbour parameter set; all energies in quanta of delta.

    Tables:
      stack[(a, b, c, d)]  pair (i,j) stacked on (i+1,j-1), key is the bases
                           at (i, i+1, j-1, j)
      hairpin[m]           loop of m unpaired bases, m >= 3
      bulge[m]             one-sided loop of m unpaired bases, m >= 1
      interior_size[m]     size term for two-sided loops, m = l1 + l2 >= 2
      interior_asym[s]     asymmetry term, s = |l1 - l2|
      mismatch[(a,b,c,d)]  terminal-mismatch term applied once per closing
                           pair of a two-sided interior loop
    Multiloops use the linear form init + b * per_pair + f * per_free_base.
    """

    delta: Fraction = Fraction(1)
    temperature: Fraction = Fraction(310)
    kbt: Fraction = Fraction(1)
    assoc: int = 0
    multi_init: int = 0
    multi_bp: int = 0
    multi_nt: int = 0
    stack: dict = field(default_factory=dict)
    hairpin: dict = field(default_factory=dict)
    bulge: dict = field(default_factory=dict)
    interior_size: dict = field(default_factory=dict)
    interior_asym: dict = field(default_factory=dict)
    mismatch: dict = field(default_factory=dict)
    min_hairpin: int = 3

    def __post_init__(self):
        if self.delta <= 0 or self.temperature <= 0 or self.kbt <= 0:
            raise InvalidInput("delta, temperature and kbt must be positive")

    def table_entry(self, table: dict, key, what: str) -> int:
        try:
            return table[key]
        except KeyError:
            raise InvalidInput(f"missing {what} parameter entry for {key!r}") from None


def round_log_multiple(coef: Fraction, arg: int, delta: Fraction) -> int:
    """Nearest-integer quanta for coef * ln(arg), an irrational for arg >= 2.

    60 decimal digits of working precision; ties cannot occur because the
    value is irrational whenever it is not exactly zero.
    """
    if arg < 1:
        raise InvalidInput("logarithm argument must be >= 1")
    if arg == 1 or coef == 0:
        return 0
    with mpmath.workdps(60):
        t = mpmath.mpf(coef.numerator) / mpmath.mpf(coef.denominator)
        d = mpmath.mpf(delta.numerator) / mpmath.mpf(delta.denominator)
        value = t * mpmath.log(arg) / d
        return int(mpmath.nint(value))


def fill_size_table(table: dict, max_size: int, js_coef: Fraction, delta: Fraction) -> dict:
    """Extend a per-size table up to ``max_size`` with a Jacobson-Stockmayer
    style log extrapolation from the largest explicit entry, rounded to
    quanta."""
    if not table:
        raise InvalidInput("size table needs at least one explicit entry")
    out = dict(table)
    ref = max(out)
    anchor = round_log_multiple(js_coef, max(ref, 1), delta)
    for m in range(ref + 1, max_size + 1):
        out[m] = out[ref] + round_log_multiple(js_coef, m, delta) - anchor
    return out


def finalize_params(params: NNParams, n: int, js_coef: Optional[Fraction] = None) -> NNParams:
    """Make every per-size table cover the sizes reachable for n bases."""
    coef = js_coef if js_coef is not None else Fraction(7, 4) * params.kbt
    return replace(
        params,
        hairpin=fill_size_table(params.hairpin, max(n, 3), coef, params.delta),
        bulge=fill_size_table(params.bulge, max(n, 1), coef, params.delta),
        interior_size=fill_size_table(params.interior_size, max(n, 2), coef, params.delta),
        interior_asym=fill_size_table(params.interior_asym, max(n - 2, 0), coef, params.delta),
    )


# ---------------------------------------------------------------------------
# loop decomposition

LOOP_KINDS = ("hairpin", "stack", "bulge", "interior", "multiloop", "exterior")


@dataclass(frozen=True)
class Loop:
    kind: str
    closing: Optional[tuple[int, int]]  # flat pair owning the face; None for the root
    children: tuple[tuple[int, int], ...]
    free_bases: int
    nick_count: int


def decompose_loops(system: StrandSystem, ordering: Sequence[int],
                    structure: SecondaryStructure) -> list[Loop]:
    """Face decomposition of the polymer graph under ``ordering``.

    The root face always exists (it contains the wrap-around gap of the
    circular layout) and is an exterior loop; every pair owns exactly one
    further face.  Requires a valid, crossing-free, connected input.
    """
    check_structure(system, structure)
    flat = flattening(system, ordering)
    pairs = flat.flat_pairs(structure)
    if not _crossing_free(pairs):
        raise DecompositionError("structure is pseudoknotted under this ordering")
    if not is_connected(system, structure):
        raise DecompositionError("structure is disconnected")

    children: dict[Optional[tuple[int, int]], list[tuple[int, int]]] = {None: []}
    stack: list[tuple[int, int]] = []
    for pair in pairs:  # sorted; nesting resolved with a sweep
        while stack and stack[-1][1] < pair[0]:
            stack.pop()
        parent = stack[-1] if stack else None
        children.setdefault(parent, []).append(pair)
        children.setdefault(pair, [])
        stack.append(pair)

    paired_positions = {p for pair in pairs for p in pair}

    def face(closing: Optional[tuple[int, int]]) -> Loop:
        kids = tuple(children.get(closing, []))
        lo, hi = (closing[0], closing[1]) if closing else (0, system.n + 1)
        spans = []
        prev = lo
        for d, e in kids:
            spans.append((prev + 1, d - 1))
            prev = e
        spans.append((prev + 1, hi - 1))
        free = sum(max(0, b - a + 1) for a, b in spans)
        nicks = _face_nicks(flat, lo, hi, kids)
        if closing is None:
            return Loop("exterior", None, kids, free, nicks + 1)  # +1: wrap gap
        if nicks:
            return Loop("exterior", closing, kids, free, nicks)
        if not kids:
            return Loop("hairpin", closing, kids, free, 0)
        if len(kids) == 1:
            (d, e), (i, j) = kids[0], closing
            l1, l2 = d - i - 1, j - e - 1
            if l1 == 0 and l2 == 0:
                return Loop("stack", closing, kids, 0, 0)
            if l1 == 0 or l2 == 0:
                return Loop("bulge", closing, kids, l1 + l2, 0)
            return Loop("interior", closing, kids, l1 + l2, 0)
        return Loop("multiloop", closing, kids, free, 0)

    faces = [face(None)] + [face(pair) for pair in pairs]
    total_free = sum(f.free_bases for f in faces)
    assert total_free == system.n - len(paired_positions)
    return faces


def _face_nicks(flat: Flattening, lo: int, hi: int, kids) -> int:
    """Nicks whose gap borders the face of (lo, hi) directly: inside the
    closing span but not inside any child span."""
    count = 0
    for p in flat.nicks:
        if not (lo <= p <= hi - 1):
            continue
        if any(d <= p < e for d, e in kids):
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# rotational symmetry


def max_symmetry_order(system: StrandSystem, ordering: Sequence[int]) -> int:
    """v(pi): the largest order of a rotation of the circular ordering that
    maps every strand onto one with an identical sequence."""
    seqs = [system.strand_by_id(t).sequence for t in ordering]
    c = len(seqs)
    best = 1
    for shift in range(1, c):
        if all(seqs[i] == seqs[(i + shift) % c] for i in range(c)):
            best = max(best, c // gcd(c, shift))
    return best


def rotational_symmetry(system: StrandSystem, ordering: Sequence[int],
                        structure: SecondaryStructure) -> int:
    """Largest divisor R of v(pi) whose strand rotation fixes the pair set."""
    ordering = tuple(ordering)
    c = len(ordering)
    v = max_symmetry_order(system, ordering)
    flat = flattening(system, ordering)
    pairs = {tuple(sorted(p)) for p in flat.flat_pairs(structure)}
    starts = {}
    pos = 1
    for t in ordering:
        starts[t] = pos
        pos += len(system.strand_by_id(t))

    best = 1
    for r in range(2, v + 1):
        if v % r != 0 or c % r != 0:
            continue
        shift = c // r
        mapping = {}
        ok = True
        for slot, t in enumerate(ordering):
            u = ordering[(slot + shift) % c]
            if system.strand_by_id(t).sequence != system.strand_by_id(u).sequence:
                ok = False
                break
            for i in range(len(system.strand_by_id(t))):
                mapping[starts[t] + i] = starts[u] + i
        if not ok:
            continue
        rotated = {tuple(sorted((mapping[i], mapping[j]))) for i, j in pairs}
        if rotated == pairs:
            best = max(best, r)
    return best


# ---------------------------------------------------------------------------
# NN energy


@dataclass(frozen=True)
class NNEnergyDetail:
    loops_quanta: int
    assoc_quanta: int
    symmetry_order: int
    symmetry_quanta: int  # k_B T ln R rounded to the nearest quantum
    symmetry_rounded: bool  # True when the term is irrational (R > 1)

    @property
    def total(self) -> int:
        return self.loops_quanta + self.assoc_quanta + self.symmetry_quanta


def interior_like_energy(flat: Flattening, i: int, d: int, e: int, j: int,
                         params: NNParams) -> int:
    """Energy of the loop closed by (i,j) with single inner pair (d,e):
    stack, bulge, or two-sided interior.  Shared by the face-walk energy and
    the candidate-level recursions so both always agree."""
    l1, l2 = d - i - 1, j - e - 1
    if l1 == 0 and l2 == 0:
        key = (flat.base(i), flat.base(i + 1), flat.base(j - 1), flat.base(j))
        return params.table_entry(params.stack, key, "stack")
    if l1 == 0 or l2 == 0:
        return params.table_entry(params.bulge, l1 + l2, "bulge")
    outer = (flat.base(i), flat.base(j), flat.base(i + 1), flat.base(j - 1))
    inner = (flat.base(e), flat.base(d), flat.base(e + 1), flat.base(d - 1))
    return (params.table_entry(params.interior_size, l1 + l2, "interior size")
            + params.table_entry(params.interior_asym, abs(l1 - l2), "interior asymmetry")
            + params.table_entry(params.mismatch, outer, "mismatch")
            + params.table_entry(params.mismatch, inner, "mismatch"))


def loop_energy(loop: Loop, flat: Flattening, params: NNParams) -> int:
    if loop.kind == "exterior":
        return 0
    i, j = loop.closing
    if loop.kind == "hairpin":
        m = j - i - 1
        if m < params.min_hairpin:
            raise InvalidInput(f"hairpin of size {m} is geometrically prohibited")
        return params.table_entry(params.hairpin, m, "hairpin")
    if loop.kind in ("stack", "bulge", "interior"):
        d, e = loop.children[0]
        return interior_like_energy(flat, i, d, e, j, params)
    if loop.kind == "multiloop":
        b = len(loop.children) + 1
        return params.multi_init + b * params.multi_bp + loop.free_bases * params.multi_nt
    raise InvalidInput(f"unknown loop kind {loop.kind}")


def energy_nn_detail(system: StrandSystem, ordering: Sequence[int],
                     structure: SecondaryStructure, params: NNParams) -> NNEnergyDetail:
    flat = flattening(system, ordering)
    loops = decompose_loops(system, ordering, structure)
    loop_sum = sum(loop_energy(loop, flat, params) for loop in loops)
    assoc = (system.c - 1) * params.assoc
    r = rotational_symmetry(system, ordering, structure)
    sym = round_log_multiple(params.kbt, r, params.delta)
    return NNEnergyDetail(loop_sum, assoc, r, sym, r > 1)


def energy_nn(system: StrandSystem, ordering: Sequence[int],
              structure: SecondaryStructure, params: NNParams) -> int:
    return energy_nn_detail(system, ordering, structure, params).total


# ---------------------------------------------------------------------------
# model wrapper


@dataclass(frozen=True)
class EnergyModel:
    kind: str
    params: Optional[NNParams] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidInput(f"unknown energy model kind {self.kind!r}")
        if self.kind == "nn" and self.params is None:
            raise InvalidInput("the nn model needs a parameter set")

    @property
    def delta(self) -> Fraction:
        return self.params.delta if self.kind == "nn" else Fraction(1)


BPM = EnergyModel("bpm")
BPS = EnergyModel("bps")


def nn_model(params: NNParams) -> EnergyModel:
    return EnergyModel("nn", params=params)


def energy(model: EnergyModel, system: StrandSystem,
           structure: SecondaryStructure,
           ordering: Optional[Sequence[int]] = None) -> int:
    """Energy in quanta of ``model.delta``.  NN needs a crossing-free
    ordering; without one the first circular ordering that has no crossing
    is used."""
    if model.kind == "bpm":
        return energy_bpm(structure)
    if model.kind == "bps":
        return energy_bps(structure)
    if ordering is None:
        ok, ordering = is_unpseudoknotted_multi(system, structure)
        if not ok:
            raise DecompositionError("structure admits no crossing-free ordering")
    return energy_nn(system, ordering, structure, model.params)


# ---------------------------------------------------------------------------
# parameter file format: line-oriented "key = value" under [section] headers

_SIZE_SECTIONS = {
    "hairpin": "hairpin",
    "bulge": "bulge",
    "interior.size": "interior_size",
    "interior.asym": "interior_asym",
}
_BASE_SECTIONS = {"stack": "stack", "mismatch": "mismatch"}


def dump_nn_params(params: NNParams) -> str:
    lines = ["[global]",
             f"delta = {params.delta.numerator}/{params.delta.denominator}",
             f"temperature = {params.temperature.numerator}/{params.temperature.denominator}",
             f"kbt = {params.kbt.numerator}/{params.kbt.denominator}",
             f"assoc = {params.assoc}",
             f"min_hairpin = {params.min_hairpin}",
             "", "[multi]",
             f"init = {params.multi_init}",
             f"bp = {params.multi_bp}",
             f"nt = {params.multi_nt}"]
    for section, attr in _BASE_SECTIONS.items():
        lines += ["", f"[{section}]"]
        table = getattr(params, attr)
        lines += [f"{''.join(k)} = {v}" for k, v in sorted(table.items())]
    for section, attr in _SIZE_SECTIONS.items():
        lines += ["", f"[{section}]"]
        table = getattr(params, attr)
        lines += [f"{k} = {v}" for k, v in sorted(table.items())]
    return "\n".join(lines) + "\n"


def parse_nn_params(text: str) -> NNParams:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise InvalidInput(f"parameter file line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current][key] = value

    def quanta(section, key, default=None):
        raw = sections.get(section, {}).get(key)
        if raw is None:
            if default is None:
                raise InvalidInput(f"missing [{section}] {key}")
            return default
        q = Fraction(raw)
        if q.denominator != 1:
            raise InvalidInput(f"[{section}] {key} must be an integer number of quanta")
        return int(q)

    g = sections.get("global", {})
    kwargs = dict(
        delta=Fraction(g.get("delta", "1")),
        temperature=Fraction(g.get("temperature", "310")),
        kbt=Fraction(g.get("kbt", "1")),
        assoc=quanta("global", "assoc", 0),
        min_hairpin=quanta("global", "min_hairpin", 3),
        multi_init=quanta("multi", "init", 0),
        multi_bp=quanta("multi", "bp", 0),
        multi_nt=quanta("multi", "nt", 0),
    )
    for section, attr in _BASE_SECTIONS.items():
        table = {}
        for key, raw in sections.get(section, {}).items():
            if len(key) != 4:
                raise InvalidInput(f"[{section}] keys are 4 bases, got {key!r}")
            table[tuple(key.upper())] = quanta(section, key)
        kwargs[attr] = table
    for section, attr in _SIZE_SECTIONS.items():
        kwargs[attr] = {int(k): quanta(section, k)
                        for k in sections.get(section, {})}
    return NNParams(**kwargs)


def load_nn_params(path) -> NNParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nn_params(fh.read())


def toy_params_file(name: str) -> str:
    """Filesystem path of a shipped parameter file ("toy_nn_a" or
    "toy_nn_b")."""
    from importlib.resources import files
    return str(files("exfold").joinpath(f"data/{name}.txt"))


def _full_base_table(value_of) -> dict:
    """Table entry for every 4-base key."""
    from .strands import VALID_BASES
    table = {}
    for a in VALID_BASES:
        for b in VALID_BASES:
            for c in VALID_BASES:
                for d in VALID_BASES:
                    table[(a, b, c, d)] = value_of(a, b, c, d)
    return table


def toy_params_a(n: int = 16) -> NNParams:
    """Stabilizing stacks, mildly costly loops; delta = 1."""
    params = NNParams(
        delta=Fraction(1),
        temperature=Fraction(310),
        kbt=Fraction(3, 2),
        assoc=2,
        multi_init=3,
        multi_bp=1,
        multi_nt=1,
        stack=_full_base_table(
            lambda a, b, c, d: -3 if {a, d} == {"G", "C"} and {b, c} == {"G", "C"} else -2),
        hairpin={3: 3, 4: 2, 5: 2},
        bulge={1: 3, 2: 3, 3: 4},
        interior_size={2: 2, 3: 2, 4: 3},
        interior_asym={0: 0, 1: 1},
        mismatch=_full_base_table(lambda a, b, c, d: 1 if a == "G" else 0),
    )
    return finalize_params(params, n)


def toy_params_b(n: int = 16) -> NNParams:
    """Finer quantum (delta = 1/2) with positive hairpin shelf and zero
    mismatch terms."""
    params = NNParams(
        delta=Fraction(1, 2),
        temperature=Fraction(310),
        kbt=Fraction(4, 5),
        assoc=3,
        multi_init=5,
        multi_bp=2,
        multi_nt=1,
        stack=_full_base_table(
            lambda a, b, c, d: -5 if (a, d) in (("G", "C"), ("C", "G")) else -4),
        hairpin={3: 4, 4: 3},
        bulge={1: 4, 2: 5},
        interior_size={2: 3, 3: 4},
        interior_asym={0: 0, 1: 1, 2: 2},
        mismatch=_full_base_table(lambda a, b, c, d: 0),
    )
    return finalize_params(params, n)
