"""Importing the package loads no more of scipy than the package uses."""

import os
import subprocess
import sys
from pathlib import Path

import csvortex


def _import_loads(module):
    # a fresh interpreter: other test modules import scipy's modules themselves
    src = str(Path(csvortex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, csvortex, csvortex.cli; "
            f"sys.exit(int({module!r} in sys.modules))")
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_import_leaves_scipy_sparse_unloaded():
    assert not _import_loads("scipy.sparse")


def test_import_leaves_scipy_linalg_unloaded():
    assert not _import_loads("scipy.linalg")
