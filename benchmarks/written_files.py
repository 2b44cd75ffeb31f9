"""Print the sha256 of each distribution file that ``save_mwd`` writes, forked
and in one process, so two commits can be checked byte for byte.

Run from the repository root:

    PYTHONPATH=src python benchmarks/written_files.py

To compare with another commit, run the same script with that commit's
``src`` first on ``PYTHONPATH`` and ``diff`` the two outputs; the script
needs nothing from the package beyond ``save_mwd``, the generators and
``_util._usable_cpus``.

The files are Flory (x = 0.999 and 0.99973, 27,618 to 102,324 rows),
Poisson (mean degree 1e6) and lognormal (sigma 0.5, 40,000 and 40,001
points, median mass 1,000 monomers) distributions at monomer masses 28,
104.37 and 72.5, in CSV and in JSON.  An integral monomer mass puts
integral doubles among the masses, whose ``.0`` the CSV writer drops.
Each file is written with two usable CPUs (``forked``: a file of more
than 8,192 rows is written from both ends) and with one
(``alone``), and the line says whether the two hashes agree.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from unittest import mock

from ginikit import _util, generate_flory, generate_lognormal, generate_poisson, save_mwd

MONOMER_MASSES = (28.0, 104.37, 72.5)


def datasets(m0: float):
    """(name, dataset) of each distribution at monomer mass ``m0``."""
    yield "flory-0.999", generate_flory(m0, 0.999)
    yield "flory-0.99973", generate_flory(m0, 0.99973)
    yield "poisson-1e6", generate_poisson(m0, 1e6)
    yield "lognormal-40000", generate_lognormal(1000 * m0, 0.5, 40_000)
    yield "lognormal-40001", generate_lognormal(1000 * m0, 0.5, 40_001)


def written_hash(dataset, path: Path, cpus: int) -> str:
    """sha256 of the file ``save_mwd`` writes at ``path`` with ``cpus`` usable CPUs."""
    with mock.patch.object(_util, "_usable_cpus", lambda: cpus):
        save_mwd(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    print(f"{'file':<31} {'rows':>7} {'forked sha256':<64} {'alone':>5}")
    with tempfile.TemporaryDirectory() as tmp:
        for m0 in MONOMER_MASSES:
            for name, dataset in datasets(m0):
                for fmt in ("csv", "json"):
                    path = Path(tmp) / f"distribution.{fmt}"
                    forked = written_hash(dataset, path, 2)
                    alone = written_hash(dataset, path, 1)
                    label = f"{name}-m0={m0!r}.{fmt}"
                    same = "same" if alone == forked else alone
                    print(f"{label:<31} {dataset.n:>7} {forked} {same:>5}")


if __name__ == "__main__":
    main()
