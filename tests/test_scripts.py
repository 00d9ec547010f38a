"""Smoke tests for the scripts under scripts/, run as subprocesses."""

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
