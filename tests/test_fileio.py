"""File modes of the atomic writer."""

from __future__ import annotations

import os
import stat
import subprocess
import sys

import pytest

import capflow


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_honours_the_umask(tmp_path, umask, mode):
    # the writer reads the umask once, at import, so set it in a fresh
    # interpreter before the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(capflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "out.txt"
    code = ("import os, sys; os.umask(int(sys.argv[1])); "
            "from capflow.fileio import atomic_write; atomic_write(sys.argv[2], ['x'])")
    subprocess.run([sys.executable, "-c", code, str(umask), str(path)], env=env, check=True)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]
