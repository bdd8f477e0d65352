"""Importing the package loads no more of scipy than the package uses."""

import os
import subprocess
import sys
from pathlib import Path

import csvortex


def test_import_leaves_scipy_sparse_unloaded():
    # a fresh interpreter: other test modules import scipy.sparse themselves
    src = str(Path(csvortex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, csvortex, csvortex.cli; "
            "sys.exit(int('scipy.sparse' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
