import subprocess
import sys
from pathlib import Path

import numpy as np

import icmixer


def test_every_exported_name_resolves():
    missing = [name for name in icmixer.__all__ if not hasattr(icmixer, name)]
    assert not missing, missing


def test_import_loads_numpy_only():
    """The package and its CLI import no third-party module but numpy.

    A fresh interpreter without site start-up hooks (``-S``, which keep
    their own modules loaded) lists every top-level module it holds after
    the import.
    """
    paths = [str(Path(module.__file__).resolve().parents[1]) for module in (icmixer, np)]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import icmixer, icmixer.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "- set(sys.stdlib_module_names) - {'__main__', 'icmixer'}))")
    out = subprocess.run([sys.executable, "-S", "-c", code, *paths], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['numpy']"
