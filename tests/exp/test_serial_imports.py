"""A serial run never loads the process pool.

``concurrent.futures.process`` pulls in ``multiprocessing``, ``socket``
and ``subprocess`` (about 2.5 MB of a fresh interpreter's resident set),
so :mod:`repro.exp.executors` imports it only inside
``ParallelExecutor.map``.  The check runs in a fresh interpreter: this
test process has long since imported both.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys

import repro
import repro.crashtest.campaign
import repro.litmus.runner
from repro.exp import make_executor

make_executor(1)
print(" ".join(name for name in ("multiprocessing", "concurrent.futures.process")
               if name in sys.modules))
"""


def test_serial_run_does_not_import_the_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [SRC])
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, check=True,
    )
    assert done.stdout.strip() == ""
