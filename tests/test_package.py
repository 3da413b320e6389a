import subprocess
import sys
from pathlib import Path

import icmixer


def test_every_exported_name_resolves():
    missing = [name for name in icmixer.__all__ if not hasattr(icmixer, name)]
    assert not missing, missing


def test_import_loads_no_scipy():
    """The package and its CLI import numpy only; a fresh interpreter shows what loads."""
    src = str(Path(icmixer.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import icmixer, icmixer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
