from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from ginikit import _util
from ginikit.mwd import MWDataset

from helpers import compiled_kernel_file

DATA_DIR = Path(__file__).parent / "data"
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def two_species() -> MWDataset:
    """The reference two-species distribution: masses 100 and 300, equal parts."""
    return MWDataset(masses=[100.0, 300.0], abundances=[1.0, 1.0], label="two_species")


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Two usable CPUs whatever the host has, and a record of every fork the
    caller made, by the pid it got back."""
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
    pids: list[int] = []
    real_fork = os.fork

    def recorded_fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


@pytest.fixture(scope="session")
def compiled_src(tmp_path_factory) -> Path:
    """A directory to put on ``sys.path`` whose ``ginikit`` has the compiled kernel.

    The package is copied out of the checkout and ``setup.py build_ext``
    builds the extension into the copy, so no ``build/`` directory or
    ``_kernels*.so`` is left in ``src/`` (one there would switch every run
    from the source tree to the compiled backend).  Skips only when there is
    no C compiler; a compiler that fails the build fails the tests.
    """
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    if not compiler or shutil.which(compiler.split()[0]) is None:
        pytest.skip("no C compiler to build the compiled kernel")
    root = tmp_path_factory.mktemp("compiled")
    shutil.copytree(
        REPO / "src" / "ginikit",
        root / "src" / "ginikit",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    # setup.py names its source relative to the working directory, so the
    # build reads the copy; the extension is optional there, so a failed
    # compile exits 0 and only the missing file tells
    build = subprocess.run(
        [
            sys.executable, str(REPO / "setup.py"), "build_ext",
            "--build-lib", str(root / "src"), "--build-temp", str(root / "build"),
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if compiled_kernel_file(root / "src") is None:
        pytest.fail(f"the compiled kernel did not build:\n{build.stdout}\n{build.stderr}")
    return root / "src"
