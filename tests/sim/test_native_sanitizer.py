"""An undefined-behaviour build of the native compiled step.

HCOR's and DECT's steps are built with ``-fsanitize=undefined
-fno-sanitize-recover=all``, through a test-only override of
``cbuild._EXTENSION_FLAGS``, and run their perfbench-style programs in
lockstep with the Python step: every channel, register, RAM word and
count, every cycle (``test_native_step``'s ``_lockstep``).  The builds
run in a child process, so a trap ends the child, with the sanitizer's
report, and not the test run.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import cbuild

ROOT = Path(__file__).resolve().parents[2]
SANITIZE = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
#: The child's exit status when the host cannot build with the sanitizer.
UNSUPPORTED = 77

_CHILD = f"""
import ctypes, sys, warnings
from repro.sim import cbuild
flags = (*cbuild._EXTENSION_FLAGS, *{SANITIZE!r})
try:
    probe = cbuild.library(b"int probe(int x) {{ return x + 1; }}\\n",
                           "ubsan-probe", flags)
    ctypes.CDLL(str(probe))
except (cbuild.BuildError, OSError) as error:
    print(error)
    sys.exit({UNSUPPORTED})
cbuild._EXTENSION_FLAGS = flags
warnings.simplefilter("error")
from repro.designs.dect import build_transceiver
from repro.designs.hcor import build_hcor
from tests.sim.test_native_step import (
    _dect_program, _hcor_program, _lockstep, _pair)
for build, program in ((build_hcor, _hcor_program(3, bursts=16)),
                       (build_transceiver, _dect_program(5))):
    designs, sims = _pair(build)
    assert [s.backend for s in sims] == ["native", "python"]
    _lockstep(designs, sims, program)
"""


def test_hcor_and_dect_steps_run_clean_under_the_sanitizer():
    if shutil.which(cbuild._COMPILER) is None:
        pytest.skip("the host cannot build with -fsanitize=undefined: "
                    "no C compiler")
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=ROOT, capture_output=True,
        text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    if child.returncode == UNSUPPORTED:
        pytest.skip(f"the host cannot build with -fsanitize=undefined: "
                    f"{child.stdout.strip()}")
    assert child.returncode == 0, child.stderr[-4000:]
