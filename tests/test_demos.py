"""Each script under ``demos/`` runs to completion, from a directory of its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowrec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(flowrec.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path),  # the demos' scratch directories land here too
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("flowrec-demo-*")), "the demo left its scratch directory behind"
