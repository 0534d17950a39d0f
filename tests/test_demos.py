"""Every demo runs and prints exactly its checked-in output.

The demos are seeded, so their standard output is deterministic; the
expected text lives in ``tests/golden/demos/<demo>.txt``.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert out.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
