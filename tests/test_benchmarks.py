"""The scripts under ``benchmarks/`` still fit the package they measure.

No other test runs them, so a changed name or signature in ``src/`` would
break a script unnoticed.  Each script is imported by path (each runs its
``main`` only as ``__main__``), and the oracle benchmark's ``report`` is
called on two small samples and its ``verify_op`` once, so a changed oracle
signature or CLI fails here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def _load(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


def test_oracle_benchmark_reports_on_two_samples(tmp_path):
    bench = _load(BENCHMARKS / "bench_oracle.py")
    # raises unless the report passes with one case per (sample, pair)
    bench.report(bench._random_samples(0, 2))
    # raises unless the command exits 0 with every check held
    bench.verify_op(0, tmp_path / "report.json")
