"""Run ruff / mypy --strict over ``src/repro/lint`` when available.

CI installs both tools and runs them as a dedicated job (see
``.github/workflows/ci.yml``); this test gives the same signal locally
for environments that have them, and skips cleanly where they are not
installed (the simulation toolchain does not depend on either).
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


def _have(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


@pytest.mark.skipif(not _have("ruff"), reason="ruff not installed")
def test_ruff_clean_on_typed_packages():
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src/repro/lint",
         "src/repro/workloads", "src/repro/sim", "src/repro/axiom",
         "src/repro/litmus", "src/repro/report",
         "src/repro/exp", "src/repro/fabric",
         "tests/lint", "tests/bench", "tests/axiom", "tests/litmus",
         "tests/report", "tests/exp", "tests/fabric"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not _have("mypy"), reason="mypy not installed")
@pytest.mark.parametrize(
    "package", ["src/repro/lint", "src/repro/sim", "src/repro/axiom",
                "src/repro/litmus", "src/repro/report",
                "src/repro/exp", "src/repro/fabric"]
)
def test_mypy_strict_on_typed_packages(package):
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", package],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
