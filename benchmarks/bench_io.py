"""Benchmark the distribution-file layer: ``save_mwd`` and ``load_mwd``.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_io.py

Times writing and reading Flory distributions of 27,618 species (as many as
the file the end-to-end ``mwd_report`` workload reads) and 102,324 species
(the Flory file ``mwd_generate`` writes), in CSV and in JSON, in a
temporary directory.  The monomer mass is not integral, so masses print
with all their digits, as in the workloads.  A ``repr`` row for each size
times ``repr`` of every mass and abundance (from ``tolist``), the
formatting floor that any writer of these shortest round-trip fields pays,
so ``save`` shows how far it sits above it.  A ``float`` row for each size
times ``float`` of every field of the CSV file, split beforehand: the
conversion the row scanner pays per field, which numpy's reader does in C
without making Python floats, so each run shows how far ``load`` of the CSV
file sits from it.  Each row gives the median and
the minimum of ``REPEATS`` calls, and nanoseconds per species at the
median.  Every file is loaded back and compared with the dataset written,
bit for bit, so a writer or reader that got faster by getting wrong fails
loudly.  The last line of output is one JSON object with the medians.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

from ginikit import generate_flory, load_mwd, save_mwd
from ginikit._backend import backend_name
from ginikit._util import read_text

#: (conversion, species) of the two Flory distributions.
SIZES = ((0.999, 27_618), (0.99973, 102_324))
MONOMER_MASS = 104.37
REPEATS = 7


def timed(call, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def repr_columns(dataset) -> None:
    """``repr`` of every mass and abundance: the formatting floor of ``save_mwd``."""
    list(map(repr, dataset.masses.tolist()))
    list(map(repr, dataset.abundances.tolist()))


def csv_fields(path: Path) -> list[str]:
    """Every field of the CSV file at ``path`` below its header line, as text."""
    return read_text(path).split("\n", 1)[1].replace(",", "\n").split()


def float_fields(fields: list[str]) -> None:
    """``float`` of every field: the conversion of the row scanner."""
    list(map(float, fields))


def report(op: str, fmt: str, species: int, times: list[float], medians: dict) -> None:
    median = statistics.median(times)
    medians[f"{op}_{species}_s" if fmt == "-" else f"{op}_{fmt}_{species}_s"] = median
    print(
        f"{op:>6} {fmt:>6} {species:>8} {median * 1e3:>8.1f}ms "
        f"{min(times) * 1e3:>8.1f}ms {median / species * 1e9:>10.0f}ns"
    )


def main() -> None:
    print(f"backend {backend_name()}, {REPEATS} calls per row")
    print(f"{'op':>6} {'format':>6} {'species':>8} {'median':>10} {'min':>10} {'per species':>12}")
    medians: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for x, species in SIZES:
            dataset = generate_flory(MONOMER_MASS, x)
            if dataset.n != species:
                raise AssertionError(f"flory x={x} gave {dataset.n} species, not {species}")
            report("repr", "-", species, timed(lambda: repr_columns(dataset), REPEATS), medians)
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"flory.{fmt}"
                rows = {
                    "save": timed(lambda: save_mwd(dataset, path), REPEATS),
                    "load": timed(lambda: load_mwd(path), REPEATS),
                }
                loaded = load_mwd(path)
                if (
                    loaded.masses.tobytes() != dataset.masses.tobytes()
                    or loaded.abundances.tobytes() != dataset.abundances.tobytes()
                ):
                    raise AssertionError(f"{path.name} does not load back bit for bit")
                for op, times in rows.items():
                    report(op, fmt, species, times, medians)
                if fmt == "csv":
                    fields = csv_fields(path)
                    times = timed(lambda: float_fields(fields), REPEATS)
                    report("float", "-", species, times, medians)
    print(json.dumps({"backend": backend_name(), "repeats": REPEATS, "median_s": medians}))


if __name__ == "__main__":
    main()
