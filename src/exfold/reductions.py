"""The oracle-reduction map between the five thermodynamic problems.

Every function here solves one problem by querying an oracle for another,
within a stated call budget, and returns its answer with a transcript of the
oracle traffic.  Reductions never look inside the oracle; magnification
requests go through the oracle's own interface.

The two threshold reductions use the huge magnification whose per-quantum
weight is n!, so the count at one level (< n! for n > 2) cannot spill into
the next digit; they need at least 3 bases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactmath import VandermondeSystem, rat_to_str, solve_vandermonde
from .levels import LevelSet
from .oracles import check_base
from .strands import BudgetViolation, InvalidInput, OracleInconsistency


@dataclass(frozen=True)
class OracleCall:
    """One oracle query, as raw values; ``base`` is set when overridden."""

    op: str
    magnification: int
    base: Optional[Fraction]
    argument: object
    result: object


def _text(value, rational: bool) -> Optional[str]:
    return None if value is None else rat_to_str(value) if rational else str(value)


@dataclass
class ReductionTranscript:
    reduction: str
    budget: int
    calls: list = field(default_factory=list)
    answer: Optional[str] = None
    details: dict = field(default_factory=dict)

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def finish(self, answer):
        self.answer = str(answer)
        if self.call_count > self.budget:
            raise BudgetViolation(
                f"{self.reduction} made {self.call_count} calls, budget {self.budget}")

    def to_json(self) -> str:
        """Bases, pf results and dpf thresholds as "num/den", the rest as str()."""
        calls = [{"op": c.op, "magnification": c.magnification,
                  "base": _text(c.base, True),
                  "argument": _text(c.argument, c.op == "dpf"),
                  "result": _text(c.result, c.op == "pf")} for c in self.calls]
        return json.dumps({
            "reduction": self.reduction,
            "budget": self.budget,
            "call_count": self.call_count,
            "calls": calls,
            "answer": self.answer,
            "details": self.details,
        }, sort_keys=True)


class _Recorder:
    """Counts and logs every oracle query a reduction makes."""

    def __init__(self, oracle, transcript: ReductionTranscript):
        self.oracle = oracle
        self.transcript = transcript

    def _log(self, op, j, base, argument, result):
        self.transcript.calls.append(OracleCall(op, j, base, argument, result))
        return result

    def pf(self, j=1):
        return self._log("pf", j, None, None, self.oracle.pf(j))

    def dpf(self, threshold, base):
        return self._log("dpf", 1, base, threshold, self.oracle.dpf(threshold, base=base))

    def mfe(self):
        return self._log("mfe", 1, None, None, self.oracle.mfe())

    def dmfe(self, threshold):
        return self._log("dmfe", 1, None, threshold, self.oracle.dmfe(threshold))

    def ssel(self, level):
        return self._log("ssel", 1, None, level, self.oracle.ssel(level))


def _levels_tuple(levels) -> tuple[int, ...]:
    if isinstance(levels, LevelSet):
        return levels.levels
    return tuple(sorted(set(levels)))


# ---------------------------------------------------------------------------
# the five straightforward reductions


def dmfe_via_mfe(oracle, threshold) -> tuple[bool, ReductionTranscript]:
    """One mfe call, then a comparison."""
    t = ReductionTranscript("dmfe-via-mfe", budget=1)
    answer = _Recorder(oracle, t).mfe() <= threshold
    t.finish(answer)
    return answer, t


def dpf_via_pf(oracle, threshold: Fraction) -> tuple[bool, ReductionTranscript]:
    """One pf call, then a comparison."""
    t = ReductionTranscript("dpf-via-pf", budget=1)
    answer = _Recorder(oracle, t).pf() >= Fraction(threshold)
    t.finish(answer)
    return answer, t


def mfe_via_dmfe(oracle, levels) -> tuple[int, ReductionTranscript]:
    """Binary search over the candidate levels for the leftmost satisfied
    threshold."""
    lv = _levels_tuple(levels)
    if not lv:
        raise InvalidInput("empty candidate level set")
    t = ReductionTranscript("mfe-via-dmfe",
                            budget=math.ceil(math.log2(len(lv))) + 1 if len(lv) > 1 else 1)
    rec = _Recorder(oracle, t)
    lo, hi = 0, len(lv) - 1
    queried: dict[int, bool] = {}
    while lo < hi:
        mid = (lo + hi) // 2
        queried[mid] = rec.dmfe(lv[mid])
        if queried[mid]:
            hi = mid
        else:
            lo = mid + 1
    if lo not in queried:
        queried[lo] = rec.dmfe(lv[lo])
    if not queried[lo]:
        raise OracleInconsistency("no candidate level satisfies dMFE")
    answer = lv[lo]
    t.finish(answer)
    return answer, t


def mfe_via_ssel(oracle, levels) -> tuple[int, ReductionTranscript]:
    """Linear scan from the most favourable candidate level for the first
    occupied one."""
    lv = _levels_tuple(levels)
    if not lv:
        raise InvalidInput("empty candidate level set")
    t = ReductionTranscript("mfe-via-ssel", budget=len(lv))
    rec = _Recorder(oracle, t)
    for g in lv:
        if rec.ssel(g) > 0:
            t.finish(g)
            return g, t
    raise OracleInconsistency("all candidate levels empty")


def pf_via_ssel(oracle, levels, base: Fraction) -> tuple[Fraction, ReductionTranscript]:
    """PF as the level-count expansion: sum of ssel(g) * base**(-g)."""
    base = check_base(base)
    lv = _levels_tuple(levels)
    t = ReductionTranscript("pf-via-ssel", budget=len(lv))
    rec = _Recorder(oracle, t)
    answer = sum((rec.ssel(g) * base**-g for g in lv), Fraction(0))
    t.finish(answer)
    return answer, t


# ---------------------------------------------------------------------------
# count reconstruction from PF (Vandermonde over magnified calls)


def dos_via_pf(oracle, levels, base: Fraction) -> tuple[dict, ReductionTranscript]:
    """Recover the structure count of every candidate level from N
    magnified PF values.

    The j-magnified PF is sum_i c_i * (base**(-g_i))**j, so the counts c_i
    solve a Vandermonde moment system with nodes base**(-g_i); the nodes are
    pairwise distinct because base != 1 and the levels are distinct.
    ``base`` must be the oracle's own base, the one its pf calls use.
    """
    base = Fraction(base)
    if base != oracle.base:
        raise InvalidInput(
            f"base {rat_to_str(base)} differs from the oracle's base "
            f"{rat_to_str(oracle.base)}")
    lv = _levels_tuple(levels)
    t = ReductionTranscript("dos-via-pf", budget=len(lv))
    rec = _Recorder(oracle, t)
    rhs = tuple(rec.pf(j) for j in range(1, len(lv) + 1))
    nodes = tuple(base**-g for g in lv)
    solution = solve_vandermonde(VandermondeSystem(nodes, rhs))
    counts = {}
    for g, value in zip(lv, solution):
        if value.denominator != 1 or value < 0:
            raise OracleInconsistency(
                f"reconstructed count for level {g} is {value}, not a natural number")
        counts[g] = int(value)
    t.details["counts"] = {str(g): str(c) for g, c in sorted(counts.items())}
    t.finish(json.dumps(t.details["counts"], sort_keys=True))
    return counts, t


def ssel_via_pf(oracle, levels, base: Fraction, level) -> tuple[int, ReductionTranscript]:
    """Count of structures at one level, via the full reconstruction."""
    counts, t = dos_via_pf(oracle, levels, base)
    answer = counts.get(level, 0)
    t.reduction, t.answer = "ssel-via-pf", str(answer)
    return answer, t


# ---------------------------------------------------------------------------
# threshold reductions through the huge n! magnification


def _factorial_base(oracle) -> int:
    n = oracle.n
    if n < 3:
        raise InvalidInput(
            "threshold reductions need n >= 3 (the structure-count bound "
            "#SecStruct < n! fails below that)")
    return math.factorial(n)


def dmfe_via_dpf(oracle, levels, threshold) -> tuple[bool, ReductionTranscript]:
    """One dPF query under the n!-per-quantum magnified model.

    x is the highest candidate level <= threshold; the magnified threshold
    (n!)**(-x) is reached exactly when some structure sits at or below x,
    because everything strictly above x contributes less than one unit of
    the x digit.  A lower candidate would miss the structures between it
    and x.  threshold may be any rational (in quanta); with no
    candidate level at or below it, no structure can be either, and the
    answer is False without any oracle call.
    """
    lv = _levels_tuple(levels)
    t = ReductionTranscript("dmfe-via-dpf", budget=1)
    big = _factorial_base(oracle)
    eligible = [g for g in lv if g <= threshold]
    if not eligible:
        t.finish(False)
        return False, t
    x = max(eligible)
    magnified_threshold = Fraction(big)**-x
    answer = _Recorder(oracle, t).dpf(magnified_threshold, base=Fraction(big))
    t.details["x"] = str(x)
    t.details["threshold"] = rat_to_str(magnified_threshold)
    t.finish(answer)
    return answer, t


def pf_via_dpf(oracle, levels, base: Fraction) -> tuple[Fraction, ReductionTranscript]:
    """Read the magnified PF as a base-n! numeral, one digit per level.

    Level counts are recovered from the most favourable level downward by
    binary-searching each digit against the dPF oracle, accumulating the
    exact prefix; the PF at the requested output base is then assembled
    directly.
    """
    base = check_base(base)
    lv = _levels_tuple(levels)
    big = _factorial_base(oracle)
    per_level = math.ceil(math.log2(big + 1))
    t = ReductionTranscript("pf-via-dpf", budget=len(lv) * per_level)
    rec = _Recorder(oracle, t)
    big_q = Fraction(big)
    prefix = Fraction(0)
    counts: dict[int, int] = {}
    for g in lv:
        weight = big_q**-g
        lo, hi = 0, big
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if rec.dpf(prefix + mid * weight, base=big_q):
                lo = mid
            else:
                hi = mid - 1
        if lo >= big:
            raise OracleInconsistency(
                f"level {g} claims {lo} structures, contradicting the n! bound")
        counts[g] = lo
        prefix += lo * weight
    answer = sum((c * base**-g for g, c in counts.items()), Fraction(0))
    t.details["counts"] = {str(g): str(c) for g, c in sorted(counts.items())}
    t.finish(rat_to_str(answer))
    return answer, t


# ---------------------------------------------------------------------------
# worst-case separation of the huge magnification


def magnified_separation_holds(n: int, x: int) -> bool:
    """Check the separation that makes the n! magnification work, at level x:
    an adversarial (n! - 1) structures one quantum above x stay strictly
    below one structure at x, and exactly n! of them would close the gap.
    The acceptance tests check the separation symbolically with it.
    """
    if n < 2:
        raise InvalidInput("need n >= 2")
    big = Fraction(math.factorial(n))
    at_x = big**-x
    above = big**-(x + 1)
    return (big - 1) * above < at_x and big * above == at_x
