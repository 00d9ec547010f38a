"""Smoke tests for the scripts under scripts/ and for `python -m accordions`, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.splitlines()


def test_partner_table():
    lines = run_script("partner_table.py", "--max-n", "14")
    assert [line.split() for line in lines[1:-1]] == [["14", "4", "6", "case-minus"]]
    assert lines[-1] == "1 partner pairs with n <= 14"


def test_circulant_accordion_scan():
    lines = run_script("circulant_accordion_scan.py", "--max-n", "6")
    assert lines[-1] == "12 of 20 circulants are accordion graphs (n <= 6)"


def test_python_dash_m_entry_point():
    # README's `python -m accordions`: the exit-code contract through the module's __main__
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "accordions", *argv], capture_output=True, text=True, env=env)

    no = run("decide", "acc-acc", "--n", "10", "--k1", "2", "--k2", "4")
    assert no.returncode == 1 and "isomorphic: no" in no.stdout.splitlines()
    assert run("decide", "acc-acc", "--n", "14", "--k1", "4", "--k2", "6").returncode == 0
    assert run("census", "--max-n", "2").returncode == 2
