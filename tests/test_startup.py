"""What importing the package and running a command loads.

Start-up is most of the cost of a short command, so the import path keeps
clear of modules that are slow to import and that the package does not
need: ``dataclasses`` (which pulls in ``inspect``), ``importlib.resources``
(which pulls in ``inspect``, ``pathlib`` and ``tempfile`` from CPython 3.12
on), ``fractions`` (which pulls in ``decimal``, ``numbers``, ``re`` and
``enum``), ``typing``, ``shutil`` (which pulls in ``bz2``, ``lzma`` and
``fnmatch``; argparse asks it for the terminal width, which the parser
needs only to print help, usage or an error) and, outside ``--format
json``, ``json``. No ``Fraction`` is made on a smooth atlas until ch2 is
evaluated or the reference table is read, so a single ``ch2 --surface``
query loads ``fractions`` and nothing else of these.

The probe runs under ``-I`` and under ``-I -S``: a ``.pth`` file of the
site packages may import ``typing`` or ``re`` before the probe starts, and
a module already loaded is not loaded again, so only ``-S`` shows that the
package itself does not load them. A ``.pth`` file here loads ``shutil``
too, so it is checked under ``-I -S`` only.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh isolated interpreter; the last three lines of stdout are the
# exit codes with the modules that the import and the bundled atlas loaded,
# then the modules loaded by the end of list and validate, and then those
# loaded by the end of a single surface query
PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import toricfano
toricfano.shipped_database()
loaded = set(sys.modules)
import toricfano.cli
codes = [toricfano.cli.main(["list"]), toricfano.cli.main(["validate"])]
batch = set(sys.modules)
codes.append(toricfano.cli.main(["ch2", "H1", "--surface", "3,4"]))
print(*codes, *sorted(loaded - before))
print(*sorted(batch - before))
print(*sorted(set(sys.modules) - before))
"""

# never loaded by the import, the bundled atlas, list or validate
SLOW = {"dataclasses", "importlib.resources", "inspect", "json", "fractions", "decimal", "numbers", "typing"}

# a ch2 value is a Fraction, so a surface query loads fractions and its imports
CH2_SLOW = SLOW - {"fractions", "decimal", "numbers"}


def _probe(*flags, also=frozenset()):
    """Run the probe with the interpreter ``flags``; assert that list and
    validate loaded none of :data:`SLOW`, a surface query none of
    :data:`CH2_SLOW`, and neither any of the modules ``also``."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    value, first, batch, last = done.stdout.splitlines()[-4:]
    list_code, validate_code, ch2_code, *imported = first.split()
    loaded = set(batch.split())
    assert (list_code, validate_code, ch2_code, value) == ("0", "0", "0", "-3/2")
    assert "toricfano.atlas" in imported and "toricfano.cli" in loaded
    assert not (SLOW | also) & loaded
    assert not (CH2_SLOW | also) & set(last.split())
    # argparse, which toricfano.cli imports, loads re and with it enum; the
    # package alone loads neither
    assert not {"re", "enum"} & set(imported)


def test_list_loads_no_slow_stdlib_module():
    _probe("-I")


def test_list_loads_no_slow_stdlib_module_without_site():
    _probe("-I", "-S", also={"shutil"})
