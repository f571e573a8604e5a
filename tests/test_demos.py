"""The scripts in demos/ run to completion against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

import fieldreg

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["two_stage_vs_baseline.py", "calibrate_and_inspect.py",
                                    "cli_walkthrough.sh"])
def test_demo_runs(tmp_path, script):
    # the subprocess imports the same fieldreg as this process, and the shell
    # demo's python3 is this interpreter
    src = str(pathlib.Path(fieldreg.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    command = ["sh" if script.endswith(".sh") else sys.executable, str(DEMOS / script)]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
