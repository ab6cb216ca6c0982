import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from exfold import cli
from exfold.energy import (
    dump_nn_params, load_nn_params, nn_model, toy_params_a, toy_params_file)
from exfold.exactmath import rat_to_str
from exfold.levels import NN_DP_BASES, augment_symmetry, levels_nn_dp, levels_nn_grid
from exfold.oracles import EMPTY_ENSEMBLE, dos_brute
from exfold.reductions import BudgetViolation, OracleInconsistency
from exfold.strands import BudgetExceeded, InvalidInput, StrandSystem, StructureSpace, nn_space

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "-m", "exfold.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestEnumerate:
    def test_acgt(self):
        out = run_cli("enumerate", "ACGT", "--model", "bpm").stdout
        assert json.loads(out) == {"count": 4}

    def test_inert(self):
        assert json.loads(run_cli("enumerate", "AAAA").stdout) == {"count": 1}

    def test_ggcc_pseudoknots(self):
        out = run_cli("enumerate", "GGCC", "--pseudoknots").stdout
        assert json.loads(out) == {"count": 7}

    def test_dump_structures(self):
        payload = json.loads(run_cli("enumerate", "ACGT", "--dump").stdout)
        assert payload["count"] == 4
        assert [[1, 4], [2, 3]] in payload["structures"]

    # sha256 prefixes of `enumerate ... --dump` stdout: the structures and
    # their order; a change that moves either must update them on purpose
    DUMP_SHA256 = {
        ("GGCCAUGC", "--pseudoknots"): "5f50db775e9db4f4",
        ("GCAU,GGC,CAU",): "57e3cefa28ea1e9e",
        ("GCAUG,CAUGC", "--connected", "--min-hairpin", "2"): "05e414eae8cfc3d9",
        ("ACGU,GA", "--all-pairs", "--pseudoknots"): "6208e55ccc8634f8",
        ("GGGAAACCCAGGGAAACCCU", "--model", "nn", "--params",
         str(ROOT / "src/exfold/data/toy_nn_a.txt")): "5d379fa8bd29d820",
        # 45 candidate pairs
        ("ACGUACGUAGCUAGCAUGC", "--min-hairpin", "3", "--connected"): "829aee165acac547",
    }

    @pytest.mark.parametrize("args", DUMP_SHA256, ids=lambda args: args[0])
    def test_dump_order_is_pinned(self, args):
        out = run_cli("enumerate", *args, "--dump").stdout
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == self.DUMP_SHA256[args]

    def test_multi_strand_inline(self):
        payload = json.loads(run_cli("enumerate", "GC,GC", "--pseudoknots").stdout)
        assert payload["count"] > 1

    def test_budget_exit_code(self):
        proc = run_cli("enumerate", "GGGGGGGGCCCCCCCC", "--budget", "4", check=False)
        assert proc.returncode == 3

    def test_bad_input_exit_code(self):
        proc = run_cli("enumerate", "/nonexistent/file.txt", check=False)
        assert proc.returncode == 4

    @pytest.mark.parametrize("command, budget", [
        ("enumerate", "-1"), ("enumerate", "x"), ("solve", "-1")])
    def test_budget_must_be_a_non_negative_integer(self, command, budget):
        proc = run_cli(command, "ACGT", "--budget", budget, check=False)
        assert proc.returncode == 4
        assert f"argument --budget: '{budget}' is not a non-negative integer" in proc.stderr

    def test_nn_needs_params(self):
        proc = run_cli("enumerate", "ACGT", "--model", "nn", check=False)
        assert proc.returncode == 4
        assert "--model nn needs --params FILE" in proc.stderr


class TestSolve:
    def test_acgt_bpm(self):
        payload = json.loads(run_cli(
            "solve", "ACGT", "--base", "2", "--level", "-1",
            "--pf-threshold", "9", "--pseudoknots").stdout)
        assert payload["mfe"] == "-2"
        assert payload["pf"] == "9/1"
        assert payload["dos"] == {"0": "1", "-1": "2", "-2": "1"}
        assert payload["ssel"] == "2"
        assert payload["dmfe"] is True
        assert payload["dpf"] is True

    def test_inert(self):
        payload = json.loads(run_cli("solve", "AAAA", "--base", "2").stdout)
        assert payload["mfe"] == "0" and payload["pf"] == "1/1"

    def test_ggcc_bps_base3(self):
        payload = json.loads(run_cli(
            "solve", "GGCC", "--model", "bps", "--base", "3",
            "--pseudoknots").stdout)
        assert payload["pf"] == "9/1"

    def test_decimal_display(self):
        payload = json.loads(run_cli(
            "--decimal", "4", "solve", "ACGT", "--base", "1/2",
            "--pseudoknots").stdout)
        assert payload["pf"] == "9/4"
        assert payload["pf_decimal"] == "2.2500"

    def test_nn_model(self):
        payload = json.loads(run_cli(
            "solve", "GGGAAAACCC", "--model", "nn",
            "--params", toy_params_file("toy_nn_a"), "--base", "2").stdout)
        assert payload["delta"] == "1/1"
        assert int(payload["mfe"]) <= 0

    def test_nn_loop_longer_than_the_shipped_tables(self):
        # toy_nn_a.txt stops at loop size 16; this hairpin has 18 bases
        seq = "GAAAAAAAAAAAAAAAAAAC"
        out = run_cli("solve", seq, "--model", "nn",
                      "--params", toy_params_file("toy_nn_a")).stdout
        assert out == ('{"count": "2", "delta": "1/1", "dos": {"0": "1", "6": "1"}, '
                       '"mfe": "0"}\n')
        system = StrandSystem.from_sequences(seq)
        dos = dos_brute(system, nn_space(), nn_model(toy_params_a(system.n)))
        assert json.loads(out)["dos"] == {str(g): str(c) for g, c in dos.counts.items()}


@pytest.mark.parametrize("command, flag", [
    ("enumerate", ("--pseudoknots",)),
    ("enumerate", ("--connected",)),
    ("enumerate", ("--min-hairpin", "5")),
    ("enumerate", ("--all-pairs",)),
    ("solve", ("--pseudoknots",)),
    ("solve", ("--connected",)),
    ("solve", ("--min-hairpin", "3")),
], ids=lambda a: a if isinstance(a, str) else a[0])
def test_nn_rejects_space_flags(command, flag):
    # the NN space comes from --params; a space flag it would ignore is bad input
    proc = run_cli(command, "GGGAAAACCC", "--model", "nn",
                   "--params", toy_params_file("toy_nn_a"), *flag, check=False)
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("bad input:") and flag[0] in proc.stderr


@pytest.mark.parametrize("strands, name", [("GGGAAAACCC", "toy_nn_a"),
                                           ("GCAUGC,GCAUGC", "toy_nn_b")])
def test_reduce_nn_agrees_with_solve(strands, name):
    """Every reduction over an NN oracle searches ``candidate_levels`` and
    answers as ``solve`` does; GCAUGC,GCAUGC is rotation-symmetric, at
    delta 1/2."""
    nn = ["--model", "nn", "--params", toy_params_file(name)]

    def answer(command, *flags):
        code, out, err = run_main([command, strands, *nn, *flags])
        assert code == 0, err
        return json.loads(out)

    def reduce(reduction, *flags):
        code, out, err = run_main(["reduce", reduction, strands, *nn, *flags])
        assert code == 0, err
        return json.loads(out)["answer"]

    solved = answer("solve", "--base", "2")
    mfe, pf = int(solved["mfe"]), solved["pf"]
    assert reduce("mfe-via-dmfe") == reduce("mfe-via-ssel") == mfe
    assert reduce("pf-via-ssel", "--base", "2") == reduce("pf-via-dpf", "--base", "2") == pf
    assert reduce("pf-via-ssel", "--base", "1/2") == answer("solve", "--base", "1/2")["pf"]
    for k in (mfe - 1, mfe, mfe + 1, 0):
        threshold = rat_to_str(Fraction(pf) + k)
        solved = answer("solve", "--base", "2", "--level", str(k),
                        f"--pf-threshold={threshold}")
        assert reduce("ssel-via-pf", f"-k={k}") == int(solved["ssel"])
        assert reduce("dmfe-via-mfe", f"-k={k}") == reduce("dmfe-via-dpf", f"-k={k}") \
            == solved["dmfe"]
        assert reduce("dpf-via-pf", f"-k={threshold}") == solved["dpf"]


@pytest.mark.parametrize("flags, message", [
    ((), "bad input: --model nn needs --params FILE\n"),
    (("--params", toy_params_file("toy_nn_a"), "--dp"), "unrecognized arguments: --dp\n"),
    (("--params", toy_params_file("toy_nn_a"), "--symmetry"),
     "unrecognized arguments: --symmetry\n"),
], ids=["no-params", "dp", "symmetry"])
def test_reduce_nn_needs_params_and_takes_no_level_flags(flags, message):
    code, out, err = run_main(["reduce", "mfe-via-ssel", "GGGAAAACCC", "--model", "nn",
                               *flags])
    assert (code, out) == (4, "") and err.endswith(message)


class TestNNSpaceFromParams:
    """The NN space takes min_hairpin from the parameter file, as the energy
    model and the sumset DP do."""

    @pytest.mark.parametrize("min_hairpin", [4, 2])
    def test_solve_and_levels_agree_with_the_library(self, tmp_path, min_hairpin):
        seq = "GGGAAAACCCAGGGAAACCC" if min_hairpin == 4 else "GGGAACCCAGGGAACCC"
        system = StrandSystem.from_sequences(seq)
        params = replace(toy_params_a(system.n), min_hairpin=min_hairpin)
        if min_hairpin == 2:  # the toy tables start at size 3
            params = replace(params, hairpin={**params.hairpin, 2: params.hairpin[3] + 1})
        path = tmp_path / "params.txt"
        path.write_text(dump_nn_params(params))

        solved = json.loads(run_cli("solve", seq, "--model", "nn",
                                    "--params", str(path)).stdout)
        dos = dos_brute(system, StructureSpace(False, True, min_hairpin), nn_model(params))
        assert solved["dos"] == {str(g): str(c) for g, c in sorted(dos.counts.items())}
        assert solved["count"] == str(dos.total())

        levels = json.loads(run_cli("levels", seq, "--model", "nn", "--dp",
                                    "--params", str(path)).stdout)
        assert levels["levels"] == [str(g) for g in
                                    levels_nn_dp(system, system.ids, params).levels]
        assert set(levels["levels"]) == set(solved["dos"])


class TestReduce:
    def test_ssel_via_pf(self):
        payload = json.loads(run_cli(
            "reduce", "ssel-via-pf", "ACGT", "--base", "2", "-k", "-1",
            "--pseudoknots").stdout)
        assert payload["answer"] == 2 and payload["calls"] == 3

    def test_dmfe_via_dpf(self):
        payload = json.loads(run_cli(
            "reduce", "dmfe-via-dpf", "ACGT", "-k", "-1", "--pseudoknots").stdout)
        assert payload["answer"] is True and payload["calls"] == 1

    def test_pf_via_dpf_inert(self):
        payload = json.loads(run_cli(
            "reduce", "pf-via-dpf", "AAAA", "--base", "2").stdout)
        assert payload["answer"] == "1/1"

    def test_transcript_file(self, tmp_path):
        path = tmp_path / "t.json"
        run_cli("reduce", "mfe-via-dmfe", "ACGT", "--pseudoknots",
                "--transcript", str(path))
        payload = json.loads(path.read_text())
        assert payload["reduction"] == "mfe-via-dmfe"
        assert payload["call_count"] <= payload["budget"]

    def test_all_reductions_run(self):
        for name in ("dmfe-via-mfe", "dpf-via-pf", "mfe-via-dmfe", "mfe-via-ssel",
                     "pf-via-ssel", "ssel-via-pf", "dmfe-via-dpf", "pf-via-dpf"):
            args = ["reduce", name, "GCAU", "--base", "2", "--pseudoknots"]
            if name in ("dmfe-via-mfe", "dpf-via-pf", "ssel-via-pf", "dmfe-via-dpf"):
                args += ["-k", "-1"]
            assert run_cli(*args).returncode == 0

    @pytest.mark.parametrize("name", ["dmfe-via-mfe", "dpf-via-pf", "dmfe-via-dpf"])
    def test_missing_k(self, name):
        proc = run_cli("reduce", name, "GCAU", "--pseudoknots", check=False)
        assert proc.returncode == 4
        assert f"{name} needs -k" in proc.stderr

    @pytest.mark.parametrize("k", [None, "1/2"])
    def test_ssel_needs_an_integer_level(self, k):
        args = ["reduce", "ssel-via-pf", "GCAU", "--pseudoknots"]
        proc = run_cli(*args, *([] if k is None else ["-k", k]), check=False)
        assert proc.returncode == 4
        assert "ssel-via-pf needs an integer -k level" in proc.stderr

    def test_k_is_parsed_where_it_is_ignored(self):
        proc = run_cli("reduce", "mfe-via-ssel", "GCAU", "-k", "abc", check=False)
        assert proc.returncode == 4 and "bad input" in proc.stderr

    @pytest.mark.parametrize("k,answer", [("-1/2", True), ("-5/2", False)])
    def test_negative_rational_k(self, k, answer):
        """The MFE of GCAU is -2 pairs; "-k -1/2" would read as an option."""
        payload = json.loads(run_cli(
            "reduce", "dmfe-via-mfe", "GCAU", f"-k={k}", "--pseudoknots").stdout)
        assert payload["answer"] is answer and payload["calls"] == 1


class TestLevels:
    def test_bpm_closed_form(self):
        payload = json.loads(run_cli("levels", "--model", "bpm", "-n", "7").stdout)
        assert payload == {"delta": "1/1", "levels": ["-3", "-2", "-1", "0"]}

    def test_nn_dp(self):
        payload = json.loads(run_cli(
            "levels", "GGGAAAACCC", "--model", "nn", "--dp",
            "--params", toy_params_file("toy_nn_a")).stdout)
        assert "-4" in payload["levels"] and payload["delta"] == "1/1"

    def test_nn_dp_loop_longer_than_the_shipped_tables(self):
        seq = "GGG" + "A" * 18 + "CCC"
        out = run_cli("levels", seq, "--model", "nn", "--dp",
                      "--params", toy_params_file("toy_nn_a")).stdout
        system = StrandSystem.from_sequences(seq)
        assert out == levels_nn_dp(system, system.ids, toy_params_a(system.n)).to_json() + "\n"

    def test_nn_dp_symmetry_superset(self):
        base = json.loads(run_cli(
            "levels", "GC,GC", "--model", "nn", "--dp",
            "--params", toy_params_file("toy_nn_a")).stdout)
        aug = json.loads(run_cli(
            "levels", "GC,GC", "--model", "nn", "--dp", "--symmetry",
            "--params", toy_params_file("toy_nn_a")).stdout)
        assert set(base["levels"]) <= set(aug["levels"])

    def test_grid(self):
        payload = json.loads(run_cli(
            "levels", "ACGT", "--model", "nn",
            "--params", toy_params_file("toy_nn_b")).stdout)
        assert "0" in payload["levels"]

    # sha256 prefixes of the NN grid of a 35-nt strand, whose loops reach
    # past the shipped tables' largest size, 16
    GRID_SHA256 = {"toy_nn_a": "94551d313a1605ef", "toy_nn_b": "de5d21dec68ea853"}

    @pytest.mark.parametrize("name", GRID_SHA256)
    def test_grid_past_the_shipped_tables_is_pinned(self, name):
        out = run_cli("levels", "GGGGGGGGGGAAAAAAAAAAAAAAACCCCCCCCCC", "--model", "nn",
                      "--params", toy_params_file(name)).stdout
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == self.GRID_SHA256[name]


def test_library_and_cli_agree_past_the_shipped_tables():
    """One parameter file, one answer: the library on the loaded file
    prints what the CLI prints."""
    path = toy_params_file("toy_nn_a")
    params = load_nn_params(path)
    seq = "GGGGGGGGGGAAAAAAAAAAAAAAACCCCCCCCCC"
    grid = levels_nn_grid(StrandSystem.from_sequences(seq), params)
    assert run_cli("levels", seq, "--model", "nn", "--params", path).stdout \
        == grid.to_json() + "\n"
    assert (len(grid), grid.levels[-1]) == (462, 410)
    seq = "GAAAAAAAAAAAAAAAAAAC"
    dos = dos_brute(StrandSystem.from_sequences(seq), nn_space(), nn_model(params))
    solved = json.loads(run_cli("solve", seq, "--model", "nn", "--params", path).stdout)
    assert solved["dos"] == {str(g): str(c) for g, c in sorted(dos.counts.items())}
    assert solved["mfe"] == str(dos.mfe())


@pytest.mark.parametrize("args", [
    ("solve", "AAAA,AAAA", "--connected"),
    ("solve", "AAAA,AAAA", "--model", "nn", "--params", toy_params_file("toy_nn_a")),
    ("reduce", "mfe-via-ssel", "AAAA,AAAA", "--connected"),
])
def test_empty_ensemble_is_bad_input(args):
    proc = run_cli(*args, check=False)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"bad input: {EMPTY_ENSEMBLE}\n"


class TestHardgen:
    @pytest.fixture
    def w_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"weights": ["2", "2", "2", "2"], "bound": "8"}')
        return str(path)

    @pytest.fixture
    def t_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"x": [1], "y": [1], "z": [1], "triples": [[1, 1, 1]]}')
        return str(path)

    def test_bps_from_4part(self, w_json):
        payload = json.loads(run_cli("hardgen", "bps-from-4part", w_json).stdout)
        assert payload == {"strand": "CCACCACCACCAAAGGGGGGGG", "target_stacks": 4}

    def test_verify_bps(self, w_json):
        payload = json.loads(run_cli("hardgen", "verify-bps", w_json).stdout)
        assert payload["status"] == "ok"
        assert payload["lhs"] == "24" and payload["rhs"] == "24"

    def test_4part_from_3dm(self, t_json):
        payload = json.loads(run_cli("hardgen", "4part-from-3dm", t_json).stdout)
        assert payload["alpha"] == "1"
        assert len(payload["instance"]["weights"]) == 4

    def test_verify_4part(self, t_json):
        payload = json.loads(run_cli("hardgen", "verify-4part", t_json).stdout)
        assert payload["status"] == "ok"

    @pytest.mark.parametrize("action", ["4part-from-3dm", "bps-from-4part", "verify-4part"])
    def test_only_verify_bps_reads_the_budget(self, action, w_json, t_json):
        instance = w_json if action == "bps-from-4part" else t_json
        assert run_main(["hardgen", action, instance, "--budget", "0"]) \
            == (4, "", f"bad input: hardgen {action} does not read --budget\n")

    def test_budget_must_be_a_non_negative_integer(self, w_json):
        proc = run_cli("hardgen", "verify-bps", w_json, "--budget", "-5", check=False)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "argument --budget: '-5' is not a non-negative integer" in proc.stderr

    def test_oversized_verify_stops_at_the_memo_ceiling(self, tmp_path):
        # 56 pairable bases let through by --budget 100: the stack count
        # stops at its state ceiling in seconds instead of growing past 1 GB
        path = tmp_path / "w4.json"
        path.write_text(json.dumps({"weights": ["7"] * 4, "bound": "28"}))
        proc = subprocess.run(RUN + ["hardgen", "verify-bps", str(path), "--budget", "100"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        assert payload["status"] == "skipped" and "matching states" in payload["notes"]

    def test_strand_over_budget_exits_3(self, t_json, tmp_path):
        # one triple gives a bound of 6 611 728 523: a 13e9-base strand, never built
        path = tmp_path / "w.json"
        path.write_text(json.dumps(json.loads(
            run_cli("hardgen", "4part-from-3dm", t_json).stdout)["instance"]))
        proc = run_cli("hardgen", "bps-from-4part", str(path), check=False)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "budget exceeded: 13223457052 strand bases exceed the budget 65536\n"

    def test_mismatchless_zero_instance(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"weights": ["2", "2", "2", "2"], "bound": "7"}')
        payload = json.loads(run_cli("hardgen", "verify-bps", str(path)).stdout)
        assert payload["status"] == "ok" and payload["lhs"] == "0"

    def test_invalid_instance_exit_code(self, tmp_path):
        path = tmp_path / "slack.json"
        path.write_text('{"weights": ["2", "2", "2", "2"], "bound": "9"}')
        proc = run_cli("hardgen", "verify-bps", str(path), check=False)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith("bad input: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("action, body, field", [
        ("verify-bps", '{"weights": ["2", "2", "2", "2"]}', "'bound'"),
        ("bps-from-4part", '[2, 2, 2, 2]', "JSON object"),
        ("4part-from-3dm", '{"x": [[1]], "y": [1], "z": [1], "triples": []}', "'x'"),
        ("verify-4part", '{"x": [1], "y": [1], "z": [1], "triples": [5]}', "'triples'"),
        # a JSON float may have lost digits and a bool is no number: once read as 12, inf, 1
        ("verify-bps", '{"weights": ["3", "3", "3", "3"], "bound": 12.5}', "'bound'"),
        ("verify-bps", '{"weights": ["3", "3", "3", "3"], "bound": 1e400}', "'bound'"),
        ("bps-from-4part", '{"weights": [true, true, true, true], "bound": 4}', "'weights'"),
    ])
    def test_malformed_instance_exit_code(self, tmp_path, action, body, field):
        path = tmp_path / "bad.json"
        path.write_text(body)
        proc = run_cli("hardgen", action, str(path), check=False)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr and field in proc.stderr


@pytest.mark.parametrize("args", [
    ("levels", "--model", "bpm", "-n", "x"),
    ("enumerate", "ACGT", "--bogus"),
    ("enumerate",),
    ("reduce", "mfe-via-ssel", "GCAU", "--budget", "100"),
    ("--decimal", "-3", "solve", "ACGU"),
    ("--decimal", "4301", "solve", "ACGU", "--base", "2"),
    ("frobnicate",),
    (),
], ids=lambda a: " ".join(a) or "no-args")
def test_usage_error_exit_code(args):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 4
    assert "usage: exfold" in proc.stderr


@pytest.mark.parametrize("args", [
    ("solve", "ACGT", "--base", "1/0"),
    ("solve", "ACGT", "--base", "2", "--pf-threshold", "1/0"),
    ("solve", "ACGT", "--pf-threshold", "1/0"),
    # parsed before the enumeration, which would exceed its budget (exit 3)
    ("solve", "GGGGGGGGCCCCCCCC", "--budget", "4", "--base", "1/0"),
    ("reduce", "dmfe-via-mfe", "ACGT", "-k", "1/0"),
    ("reduce", "pf-via-ssel", "ACGT", "--base", "1/0"),
], ids=lambda a: " ".join(a))
def test_zero_denominator_is_bad_input(args):
    proc = run_cli(*args, "--pseudoknots", check=False)
    assert proc.returncode == 4
    assert "bad input: zero denominator in '1/0'" in proc.stderr


SOLVE_FLAG_CASES = [
    (("solve", "ACGU", "--pf-threshold", "nan"), "Invalid literal for Fraction: 'nan'"),
    (("solve", "ACGU", "--pf-threshold", "1"), "--pf-threshold needs --base"),
    (("solve", "GGGGGGGGCCCCCCCC", "--pseudoknots", "--budget", "4", "--base", "2",
      "--pf-threshold", "nan"), "Invalid literal for Fraction: 'nan'"),
    # checked before the enumeration, which would exceed its budget (exit 3)
    (("solve", "GGGGGGGGCCCCCCCC", "--pseudoknots", "--budget", "4", "--base", "0"),
     "Boltzmann base must be positive and != 1"),
]


@pytest.mark.parametrize("args, message", SOLVE_FLAG_CASES,
                         ids=[" ".join(args) for args, _ in SOLVE_FLAG_CASES])
def test_solve_flags_are_parsed_whether_or_not_read(args, message):
    proc = run_cli(*args, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"bad input: {message}\n")


HUGE_NUMBER_CASES = [
    (("solve", "ACGU", "--base", "1e1000000000"), "--base"),
    (("solve", "ACGU", "--base", "2", "--pf-threshold=-1E+0999999999"), "--pf-threshold"),
    (("reduce", "dmfe-via-mfe", "ACGU", "-k", "1e1000000000"), "-k"),
    (("reduce", "pf-via-dpf", "ACGU", "--base", "1/" + "9" * 4301), "--base"),
    (("reduce", "dmfe-via-dpf", "ACGU", "-k=1e-5000"), "-k"),
]


@pytest.mark.parametrize("args, flag", HUGE_NUMBER_CASES,
                         ids=[" ".join(a[:16] for a in args) for args, _ in HUGE_NUMBER_CASES])
def test_a_number_of_more_than_4300_digits_is_bad_input_at_once(args, flag):
    # Fraction("1e1000000000") would compute 10**1000000000 first
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (4, "", f"bad input: {flag} has more than 4300 digits\n")


def test_a_number_of_4300_digits_is_read():
    code, out, _ = run_main(["reduce", "dmfe-via-mfe", "ACGU", "-k", "9" * 4300])
    assert (code, json.loads(out)["answer"]) == (0, True)


LEVELS_UNREAD_CASES = [
    (("ACGT", "--model", "bpm", "--dp"), "--dp"),
    (("ACGT", "--model", "bps", "--symmetry"), "--symmetry"),
    (("ACGT", "--model", "bpm", "--params", "nonexistent"), "--params"),
    (("--model", "nn", "-n", "3"), "-n"),
    (("ACGT", "-n", "3"), "-n"),
]


@pytest.mark.parametrize("args, flag", LEVELS_UNREAD_CASES,
                         ids=[" ".join(args) for args, _ in LEVELS_UNREAD_CASES])
def test_levels_refuses_a_flag_its_model_does_not_read(args, flag):
    proc = run_cli("levels", *args, check=False)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("bad input: levels --model") \
        and proc.stderr.endswith(f"does not read {flag}\n")


# (subcommand, model) -> the model-dependent flags it does not read; hardgen
# reads no model, and only its verify-bps action reads --budget
UNREAD_FLAGS = {
    ("enumerate", "bpm"): ["--params"],
    ("enumerate", "bps"): ["--params"],
    ("enumerate", "nn"): ["--pseudoknots", "--connected", "--min-hairpin", "--all-pairs"],
    ("solve", "bpm"): ["--params"],
    ("solve", "bps"): ["--params"],
    ("solve", "nn"): ["--pseudoknots", "--connected", "--min-hairpin"],
    ("reduce", "bpm"): ["--params"],
    ("reduce", "bps"): ["--params"],
    ("reduce", "nn"): ["--pseudoknots", "--connected", "--min-hairpin"],
    ("levels", "bpm"): ["--params", "--dp", "--symmetry"],
    ("levels", "bps"): ["--params", "--dp", "--symmetry"],
}
UNREAD_CASES = [(command, model, flag) for (command, model), flags in UNREAD_FLAGS.items()
                for flag in flags]
FLAG_VALUE = {"--params": ["/nonexistent"], "--min-hairpin": ["0"]}  # a zero is given too


@pytest.mark.parametrize("command, model, flag", UNREAD_CASES,
                         ids=[" ".join(case) for case in UNREAD_CASES])
def test_a_flag_the_model_does_not_read_is_bad_input(command, model, flag):
    params = ["--params", toy_params_file("toy_nn_a")] if model == "nn" else []
    reduction = ["mfe-via-ssel"] if command == "reduce" else []
    argv = [command, *reduction, "GGGAAAACCC", "--model", model, *params, flag,
            *FLAG_VALUE.get(flag, [])]
    assert run_main(argv) == (4, "", f"bad input: {command} --model {model} "
                                     f"does not read {flag}\n")


def test_every_unread_flag_is_named_and_nothing_runs():
    assert run_main(["levels", "ACGT", "--params", "/nonexistent", "--dp", "--symmetry"]) \
        == (4, "", "bad input: levels --model bpm does not read --params, --dp, --symmetry\n")
    for argv, flag in ((("solve", "ACGT", "--params", "/nonexistent"), "--params"),
                       (("enumerate", "ACGT", "--model", "bps", "--params", "/nonexistent"),
                        "--params"),
                       (("enumerate", "GGGAAAACCC", "--model", "nn", "--params",
                         "src/exfold/data/toy_nn_a.txt", "--min-hairpin", "0"), "--min-hairpin")):
        proc = subprocess.run(RUN + list(argv), cwd=ROOT, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith("bad input: ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(f"does not read {flag}\n")


# an edit of the shipped toy_nn_a.txt -> the refusal, naming the line and the key
NN_PARAM_REFUSALS = [
    ("kbt = 3/2", "kbt = 3/2\nasoc = 2", "line 4: unknown key [global] asoc"),
    ("init = 3", "init = 3\nini = 3", "line 9: unknown key [multi] ini"),
    ("[stack]", "[stak]", "line 12: unknown section [stak]"),
    ("GCGC = -3", "GCGC = -3\ngcgc = 5", "line 300: [stack] gcgc is given twice"),
    ("GAGC = -2", "GXGC = -2", "line 274: [stack] GXGC is not 4 bases from ACGTU"),
    ("3 = 3", "three = 3", "line 1267: [hairpin] three is not a non-negative integer size"),
    ("delta = 1/1", "delta = 1/1\ntemperature = 310/1",
     "line 3: unknown key [global] temperature"),
    ("min_hairpin = 3", "min_hairpin = -2", "delta and kbt must be positive and min_hairpin >= 0"),
    ("assoc = 2", "assoc = 1e5000", "line 4: [global] assoc has more than 4300 digits"),
]


@pytest.mark.parametrize("old, new, message", NN_PARAM_REFUSALS,
                         ids=[new.replace("\n", " ") for _, new, _ in NN_PARAM_REFUSALS])
def test_nn_params_refusals_are_bad_input(tmp_path, old, new, message):
    path = tmp_path / "params.txt"
    path.write_text(Path(toy_params_file("toy_nn_a")).read_text().replace(old, new, 1))
    proc = run_cli("solve", "GGGAAACCC", "--model", "nn", "--params", str(path), check=False)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr in (f"bad input: parameter file {message}\n", f"bad input: {message}\n")


@pytest.mark.parametrize("old, new, key", [
    ("delta = 1/1", "delta = 1/0", "[global] delta"),
    ("AAAA = -2", "AAAA = -2/0", "[stack] AAAA"),
])
def test_nn_params_zero_denominator_is_bad_input(tmp_path, old, new, key):
    path = tmp_path / "params.txt"
    path.write_text(Path(toy_params_file("toy_nn_a")).read_text().replace(old, new, 1))
    proc = run_cli("solve", "GGGAAACCC", "--model", "nn", "--params", str(path), check=False)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"bad input: {key} has a zero denominator: {new.split()[-1]!r}\n"


def test_help_exit_code():
    assert "usage: exfold" in run_cli("--help").stdout
    assert "usage: exfold reduce" in run_cli("reduce", "--help").stdout


@pytest.mark.parametrize("error, code, prefix", [
    (OracleInconsistency, 2, "invariant failure"),
    (BudgetViolation, 2, "invariant failure"),
    (BudgetExceeded, 3, "budget exceeded"),
    (InvalidInput, 4, "bad input"),
], ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_main_maps_library_errors_to_exit_codes(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("from the library")

    monkeypatch.setattr(cli, "cmd_solve", fail)
    assert cli.main(["solve", "ACGT"]) == code
    assert capsys.readouterr().err == f"{prefix}: from the library\n"


def test_python_m_exfold_runs_the_cli():
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "exfold", *args], capture_output=True,
                              text=True)
        return proc.returncode, proc.stdout

    assert run("enumerate", "ACGT", "--model", "bpm") == (0, '{"count": 4}\n')
    assert run("solve", "ACGT", "--base", "1/0") == (4, "")


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("exfold ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_block_runs(tmp_path, line):
    command, _, comment = line.partition("#")
    w_json = tmp_path / "w.json"
    w_json.write_text('{"weights": ["3", "3", "3", "3"], "bound": "12"}')
    argv = [str(w_json) if a == "w.json" else a for a in command.split()[1:]]
    proc = subprocess.run(RUN + argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if comment.strip().startswith("{"):
        assert proc.stdout == comment.strip() + "\n"


GOLDEN_CASES = [
    ("enumerate", "ACGT", "--model", "bpm"),
    ("enumerate", "GGCC", "--pseudoknots", "--dump"),
    ("solve", "ACGT", "--base", "2", "--level", "-1", "--pseudoknots"),
    ("solve", "GGCC", "--model", "bps", "--base", "3", "--pseudoknots"),
    ("reduce", "ssel-via-pf", "ACGT", "--base", "2", "-k", "-1", "--pseudoknots"),
    ("reduce", "pf-via-dpf", "GCAU", "--base", "1/2", "--pseudoknots"),
    ("levels", "--model", "bpm", "-n", "7"),
]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: " ".join(c)[:40])
def test_determinism_byte_identical(case):
    first = run_cli(*case)
    second = run_cli(*case)
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def run_main(argv):
    """``cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text("ACGU", min_size=1, max_size=3), min_size=3, max_size=4))
@example(["UCC", "AGG", "AGAG"])  # its one structure at level 7 is knot-free under (1, 3, 2)
def test_nn_levels_hold_every_level_solve_finds(strands):
    system = ",".join(strands)
    nn = ["--model", "nn", "--params", toy_params_file("toy_nn_a")]
    code, out, err = run_main(["solve", system, *nn])
    assert code == 0 or err == f"bad input: {EMPTY_ENSEMBLE}\n"
    solved = json.loads(out)["dos"] if code == 0 else {}
    for flags in (["--dp", "--symmetry"], ["--symmetry"]):
        code, out, _ = run_main(["levels", system, *nn, *flags])
        assert code == 0 and set(solved) <= set(json.loads(out)["levels"]), flags


EIGHT_STRANDS = "GCA,UGC,GCA,UGC,GCA,UGC,GCA,UGC"  # 7! = 5040 orderings, 35 distinct


def test_nn_levels_run_one_dp_per_tuple_of_sequences(monkeypatch):
    from exfold import levels
    orderings = []

    def counted(system, ordering, params):
        orderings.append(ordering)
        return levels_nn_dp(system, ordering, params)

    monkeypatch.setattr(levels, "levels_nn_dp", counted)
    code, out, _ = run_main(["levels", EIGHT_STRANDS, "--model", "nn", "--dp", "--symmetry",
                             "--params", toy_params_file("toy_nn_a")])
    assert code == 0 and len(orderings) == len(set(orderings)) == 35
    assert out == json.dumps({"delta": "1/1", "levels": [str(v) for v in range(2, 42)]},
                             sort_keys=True) + "\n"


@pytest.mark.parametrize("strands", ["GC,GC,GC", "GCA,UGC,GCA,UGC", "GGC,GCC,GGC,GCC",
                                     "AU,GC,AU,GC,GC", "G,C,G,C"])
@pytest.mark.parametrize("flags", [("--dp", "--symmetry"), ("--dp",), ("--symmetry",)],
                         ids=" ".join)
def test_nn_levels_are_the_union_over_every_ordering(strands, flags):
    params = load_nn_params(toy_params_file("toy_nn_a"))
    system = StrandSystem.from_sequences(*strands.split(","))
    union = set()
    for ordering in system.circular_orderings():
        lv = levels_nn_dp(system, ordering, params) if "--dp" in flags \
            else levels_nn_grid(system, params)
        if "--symmetry" in flags:
            lv = augment_symmetry(lv, system, ordering, params)
        union |= set(lv.levels)
    code, out, _ = run_main(["levels", strands, "--model", "nn", *flags,
                             "--params", toy_params_file("toy_nn_a")])
    assert code == 0 and json.loads(out)["levels"] == [str(v) for v in sorted(union)]


def test_enumerate_past_the_ordering_budget_exits_3():
    # 10! orderings: without the budget, hours of flattenings
    proc = subprocess.run(RUN + ["enumerate", ",".join("A" * 11)], capture_output=True,
                          text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "budget exceeded: 11 strands have 10! circular orderings, over the budget of 5040\n")


def test_levels_n_past_the_budget_exits_3():
    assert run_main(["levels", "-n", "1" + "0" * 30]) == \
        (3, "", "budget exceeded: n exceeds the budget of 65536 bases\n")


def test_the_nn_count_dp_past_its_budget_exits_3():
    """Both commands that run the count DP refuse more than NN_DP_BASES
    bases (a random 200-nt strand takes about 30 s); the grid has no such
    budget."""
    strand, path = "A" * (NN_DP_BASES + 1), toy_params_file("toy_nn_a")
    message = f"n = {NN_DP_BASES + 1} exceeds the count DP's budget of {NN_DP_BASES} bases"
    for argv in (["levels", strand, "--model", "nn", "--dp", "--params", path],
                 ["reduce", "pf-via-dpf", strand, "--model", "nn", "--params", path]):
        assert run_main(argv) == (3, "", f"budget exceeded: {message}\n")
    assert run_main(["levels", strand, "--model", "nn", "--params", path])[0] == 0


def test_levels_dp_names_a_missing_entry(tmp_path):
    """A set without hairpins 3 and 4: the count DP's row order meets the
    hairpin of 4 in UAUUUCGAGA before one of 3, which a length-major order
    meets first.  ``levels --dp`` exits 4 naming the library's entry, which
    is missing."""
    shipped = load_nn_params(toy_params_file("toy_nn_a"))
    params = replace(shipped, hairpin={m: v for m, v in shipped.hairpin.items() if m >= 5})
    path = tmp_path / "short.txt"
    path.write_text(dump_nn_params(params))
    system = StrandSystem.from_sequences("UAUUUCGAGA")
    with pytest.raises(InvalidInput) as err:
        levels_nn_dp(system, system.ids, params)
    assert str(err.value) in (f"missing hairpin parameter entry for {m}" for m in (3, 4))
    assert run_main(["levels", "UAUUUCGAGA", "--model", "nn", "--dp", "--params", str(path)]) \
        == (4, "", f"bad input: {err.value}\n")


@pytest.mark.parametrize("args, message", [
    ((), "need -n or strands"),
    (("--model", "bps"), "need -n or strands"),
    (("--model", "nn"), "--model nn needs strands and --params FILE"),
    (("GGGAAACCC", "--model", "nn", "--dp"), "--model nn needs strands and --params FILE"),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
def test_levels_needs_its_input(args, message):
    assert run_main(["levels", *args]) == (4, "", f"bad input: {message}\n")


# ---------------------------------------------------------------------------
# the input contract, by generation: every command line exits 0, 2, 3 or 4,
# never with a traceback, and prints JSON at exit 0.  Each value is drawn
# from a pool of good ones, and one time in eight from a pool of bad ones.

HUGE = "9" * 5000
BAD_NUMBERS = ["nan", "inf", "-inf", "1/0", "x", "", "1e3", "1" + "0" * 30, HUGE, "1/" + HUGE,
               "-" + HUGE, "-3/2", "1e1000000000"]
FLAG_VALUES = {
    "--budget": (["64", "64", "16", "4"], ["-1"] + BAD_NUMBERS),
    "--min-hairpin": (["0", "1", "3"], ["-1"] + BAD_NUMBERS),
    "--level": (["0", "-1", "-2"], BAD_NUMBERS),
    "-n": (["1", "7", "40"], ["0", "-1"] + BAD_NUMBERS),
    "--decimal": (["3", "0"], ["-5"] + BAD_NUMBERS),
    "--base": (["2", "3", "1/2", "2/3"], ["0", "1", "-1"] + BAD_NUMBERS),
    "--pf-threshold": (["1", "2", "1/2", "10"], BAD_NUMBERS),
    "-k": (["0", "-1", "-2", "-1/2"], BAD_NUMBERS),
}
PARAM_LINES = (["[global]", "delta = 1", "kbt = 3/2", "min_hairpin = 3", "assoc = 2",
                "[multi]", "init = 3", "[hairpin]", "3 = 3", "[stack]", "GCGC = -3"],
               ["delta = 1/0", "min_hairpin = -1", "three = 1", "gcgc = 1", "GXGC = 1", "[]",
                "x", f"assoc = {HUGE}"])
JSON_VALUES = ([3, 4, "3", "4"], [0, -3, 12.5, True, None, "nan", "1/0", "x", [3], 10 ** 30,
                                  HUGE])


def pools(good, bad):
    return st.tuples(st.sampled_from(range(8)), st.sampled_from(good),
                     st.sampled_from(bad)).map(lambda t: t[2] if t[0] == 7 else t[1])


@st.composite
def instance_texts(draw, action):
    """An instance for ``action``, mostly small, or something else."""
    value = pools(*JSON_VALUES)
    kind = draw(pools(["3dm" if action in ("4part-from-3dm", "verify-4part") else "4part"],
                      ["3dm", "4part", "other"]))
    if kind == "4part":
        weights = [draw(value) for _ in range(draw(pools([4], [0, 3, 5])))]
        return json.dumps({"weights": weights, "bound": draw(pools([13, 14, "14"], [0, "x"]))})
    if kind == "3dm":
        axis = list(range(1, draw(st.sampled_from([0, 1, 2])) + 1))
        axes = [draw(pools([axis], [[1, 1], ["a"], [2.5], [[1]], [3, 4, 5]])) for _ in "xyz"]
        triples = draw(st.lists(pools([list(t) for t in itertools.product(axis, repeat=3)]
                                      or [[1, 1, 1]], [[1, 2], [9, 9, 9]]), max_size=4))
        return json.dumps({"x": axes[0], "y": axes[1], "z": axes[2], "triples": triples})
    return draw(st.sampled_from(["", "[]", "{", "3", '{"weights": []}', HUGE]))


@st.composite
def command_lines(draw, command, files):
    """A command line for the subcommand ``command`` and the text of the
    instance file it may name; ``files`` names the files the test writes."""
    def maybe(flag, values=None):
        if values is None and flag in FLAG_VALUES:
            values = pools(*FLAG_VALUES[flag])
        if not draw(st.booleans()):
            return []
        return [flag] if values is None else [flag, draw(values)]

    strands = draw(pools([None], ["", ",", "ACGX", "AC,,GU", files["strands"]]))
    if strands is None:
        strands = ",".join(draw(st.lists(st.text("ACGU", min_size=1, max_size=4),
                                         min_size=1, max_size=3)))
    model = maybe("--model", st.sampled_from(["bpm", "bps", "nn"]))
    params = ["--params", draw(pools([toy_params_file("toy_nn_a"), files["params"]],
                                     [files["missing"], files["dir"]]))] \
        if draw(pools([model == ["--model", "nn"]], [True, False])) else []
    space = maybe("--pseudoknots") + maybe("--connected") + maybe("--min-hairpin")
    instance = ""
    if command == "enumerate":
        tail = [strands] + model + params + space + maybe("--all-pairs") + maybe("--dump") \
            + maybe("--budget")
    elif command == "solve":
        tail = [strands] + model + params + space + maybe("--base") \
            + maybe("--level") + maybe("--pf-threshold") + maybe("--budget")
    elif command == "reduce":
        reduction = draw(st.sampled_from(sorted(cli.REDUCTIONS)))
        wants_k = {"k", "level"} & set(cli.REDUCTIONS[reduction])
        k = ["-k", draw(pools(*FLAG_VALUES["-k"]))] if draw(pools([bool(wants_k)], [True])) \
            else []
        tail = [reduction, strands] + model + params + space + maybe("--base") + (["=".join(k)] if k else []) \
            + maybe("--transcript", pools([files["transcript"]], [files["dir"]]))
    elif command == "levels":
        nn = model == ["--model", "nn"]
        by_n = draw(pools([not nn and draw(st.booleans())], [True, False]))
        tail = (["-n", draw(pools(*FLAG_VALUES["-n"]))] if by_n else [strands]) + model \
            + params + (maybe("--dp") + maybe("--symmetry") if draw(pools([nn], [True]))
                        else [])
    else:
        action = draw(st.sampled_from(["4part-from-3dm", "bps-from-4part", "verify-bps",
                                       "verify-4part"]))
        instance = draw(instance_texts(action))
        tail = [action, draw(pools([files["instance"]], [files["missing"]]))] \
            + maybe("--budget", pools(["0", "4", "16"], ["-1", "x"]))
    return maybe("--decimal") + [command] + tail, instance


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    names = {name: str(root / name) for name in ("strands", "params", "instance",
                                                 "transcript", "missing")}
    return {**names, "dir": str(root)}


# command -> (a command line of it, its exit code), run as the explicit example
PINNED_EXITS = {
    # an empty parameter file: the grid reads the entries the loops of n bases read
    "levels": (["levels", "GGGGAAACCCC", "--model", "nn", "--params", os.devnull], 4),
    "reduce": (["reduce", "mfe-via-ssel", "GGGGAAACCCC", "--model", "nn", "--params",
                os.devnull], 4),
    "solve": (["solve", "GGGGAAACCCC", "--model", "nn", "--params", os.devnull], 4),
}


@pytest.mark.parametrize("command", ["enumerate", "solve", "reduce", "levels", "hardgen"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@example(data=None)
def test_every_command_line_exits_with_a_documented_code(contract_files, command, data):
    files = contract_files
    if data is None:  # the explicit example: a pinned command line, if the command has one
        if command not in PINNED_EXITS:
            return
        argv, want = PINNED_EXITS[command]
    else:
        Path(files["strands"]).write_text(data.draw(st.text("ACGUx#\n ", max_size=12)))
        Path(files["params"]).write_text(
            "\n".join(data.draw(st.lists(pools(*PARAM_LINES), max_size=6))))
        argv, instance = data.draw(command_lines(command, files))
        Path(files["instance"]).write_text(instance)
        want = None
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4) and want in (None, code), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out and [json.loads(line) for line in out.splitlines()]
    if code == 4:
        assert out == "" and err.endswith("\n") and (
            err.startswith("bad input: ") or "usage: exfold" in err), (argv, err)
