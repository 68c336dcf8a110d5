"""What importing the package and running a command loads.

Start-up is most of the cost of a short command, so the import path keeps
clear of modules that are slow to import and that the package does not
need: ``dataclasses`` (which pulls in ``inspect``), ``importlib.resources``
(which pulls in ``inspect``, ``pathlib`` and ``tempfile`` from CPython 3.12
on) and, outside ``--format json``, ``json``.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh isolated interpreter; the last line of stdout names the
# modules that the import and the command loaded
PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import toricfano
import toricfano.cli
toricfano.shipped_database()
code = toricfano.cli.main(["list"])
print(code, *sorted(set(sys.modules) - before))
"""


def test_list_loads_no_slow_stdlib_module():
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "toricfano.atlas" in loaded
    assert not {"dataclasses", "importlib.resources", "inspect", "json"} & set(loaded)
