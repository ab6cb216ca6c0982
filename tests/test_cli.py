import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from exfold import cli
from exfold.energy import (
    dump_nn_params, load_nn_params, nn_model, toy_params_a, toy_params_file)
from exfold.levels import levels_nn_dp, levels_nn_grid
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


def test_reduce_has_no_nn_model():
    proc = run_cli("reduce", "mfe-via-ssel", "GGGAAAACCC", "--model", "nn",
                   "--min-hairpin", "3", check=False)
    assert proc.returncode == 4 and "invalid choice: 'nn'" in proc.stderr


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

    def test_budget_must_be_a_non_negative_integer(self, w_json):
        proc = run_cli("hardgen", "verify-bps", w_json, "--budget", "-5", check=False)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "argument --budget: '-5' is not a non-negative integer" in proc.stderr

    def test_oversized_verify_stops_at_the_memo_ceiling(self, tmp_path):
        # 48 pairable bases let through by --budget 100: the stack count
        # stops at its state ceiling in seconds instead of growing past 1 GB
        path = tmp_path / "w8.json"
        path.write_text(json.dumps({"weights": ["3"] * 8, "bound": "12"}))
        proc = subprocess.run(RUN + ["hardgen", "verify-bps", str(path), "--budget", "100"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        assert payload["status"] == "skipped" and "matching states" in payload["notes"]

    def test_mismatchless_zero_instance(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"weights": ["2", "2", "2", "2"], "bound": "7"}')
        payload = json.loads(run_cli("hardgen", "verify-bps", str(path)).stdout)
        assert payload["status"] == "ok" and payload["lhs"] == "0"

    def test_invalid_instance_exit_code(self, tmp_path):
        path = tmp_path / "slack.json"
        path.write_text('{"weights": ["2", "2", "2", "2"], "bound": "9"}')
        proc = run_cli("hardgen", "verify-bps", str(path), check=False)
        assert proc.returncode == 4

    @pytest.mark.parametrize("action, body, field", [
        ("verify-bps", '{"weights": ["2", "2", "2", "2"]}', "'bound'"),
        ("bps-from-4part", '[2, 2, 2, 2]', "JSON object"),
        ("4part-from-3dm", '{"x": [[1]], "y": [1], "z": [1], "triples": []}', "'x'"),
        ("verify-4part", '{"x": [1], "y": [1], "z": [1], "triples": [5]}', "'triples'"),
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
    ("reduce", "dmfe-via-mfe", "ACGT", "-k", "1/0"),
    ("reduce", "pf-via-ssel", "ACGT", "--base", "1/0"),
], ids=lambda a: " ".join(a))
def test_zero_denominator_is_bad_input(args):
    proc = run_cli(*args, "--pseudoknots", check=False)
    assert proc.returncode == 4
    assert "bad input: zero denominator in '1/0'" in proc.stderr


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
