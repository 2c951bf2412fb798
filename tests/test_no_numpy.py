"""rograd imports and runs its CLI without loading numpy.

The check runs in a fresh interpreter, because the test process itself may
have numpy loaded.  ``python tests/test_no_numpy.py`` runs the same check
directly, for an environment without pytest or numpy.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ["tkk", "--model", "tkk-oct", "--ring", "Fp:5"],
    ["uce", "--model", "sl", "--n", "3", "--ring", "Z"],
    ["degsums", "--type", "E", "--rank", "8", "--method", "both"],
    ["verify", "--suite", "jordan"],
]

GUARD = f"""
import contextlib, io, sys
import rograd
assert "numpy" not in sys.modules, "import rograd loaded numpy"
from rograd.cli import main
for argv in {COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, f"rograd {{' '.join(argv)}} exited {{code}}"
    assert "numpy" not in sys.modules, f"rograd {{' '.join(argv)}} loaded numpy"
"""


def run_guard() -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True, timeout=300
    )


def test_rograd_runs_without_loading_numpy():
    proc = run_guard()
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    proc = run_guard()
    sys.stderr.write(proc.stderr)
    sys.exit(proc.returncode)
