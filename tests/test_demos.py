import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 prefixes of each demo's stdout; a change that moves any printed
# answer, or the order it is printed in, must update them on purpose
STDOUT_SHA256 = {
    "demo_hardness": "e6370c1f3e927192",
    "demo_levels": "caa52604fae8ae30",
    "demo_oracles": "81b6ae2c807b6767",
    "demo_reductions": "8bb4c30f518f394c",
}


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == ["demo_hardness.py", "demo_levels.py",
                                       "demo_oracles.py", "demo_reductions.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == STDOUT_SHA256[path.stem]
    if path.name == "demo_hardness.py":
        lines = proc.stdout.splitlines()
        assert "structures at target, by enumeration:   24" in lines
        assert "structures at target, by chain counting: 24" in lines
