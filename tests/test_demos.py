"""Each demo runs to the end. The demos write their drawings into the
working directory, so each one runs in a fresh temporary directory."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", ["three_disks.py", "closest_pair_cases.py", "four_planes.py", "disclosure.py"]
)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if name == "three_disks.py":
        assert "violating triple (0, 1, 2)" in result.stdout
    if name == "disclosure.py":
        assert "x1 is disclosed by q1, q2, q3" in result.stdout
        assert "x3 is not disclosed" in result.stdout
