"""Benchmark the accumulation kernel: compiled extension and pure-Python twin.

Run from the repository root after an editable install:

    python benchmarks/bench_kernels.py

Both backends are imported directly (ignoring GINIKIT_PURE) and timed on
identical presorted inputs across a range of sample sizes.  The sizes span
the pure kernel's switch from its loop to its numpy path
(``VECTOR_MIN_N``) and reach n = 27,618, the species count of the
end-to-end ``mwd_report`` workload.  When both backends are present the
script also asserts bit-identical outputs while it goes, so a drifting
backend fails loudly rather than reporting a meaningless speedup.  Without
the compiled extension it times the pure kernel alone.
"""

from __future__ import annotations

import time

import numpy as np

from ginikit._backend import available_backends

#: (n, cases) pairs; the case counts keep each row's work comparable.
SIZES = ((4, 4000), (16, 2000), (64, 1000), (256, 400), (4096, 50), (27_618, 8))


def make_case(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    log_values = rng.uniform(-14.0, 14.0, n)
    p = rng.uniform(-50.0, 50.0)
    log_weights = rng.uniform(-2.0, 2.0, n)
    t = p * log_values + log_weights
    shift = float(t.max())
    order = np.lexsort((log_values, t))
    return (
        np.ascontiguousarray(t[order]),
        np.ascontiguousarray(log_values[order]),
        shift,
    )


def bench(fn, cases, repeats: int) -> tuple[float, list[tuple[float, float, float]]]:
    best = float("inf")
    results: list[tuple[float, float, float]] = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = [fn(t, la, m) for (t, la, m) in cases]
        best = min(best, time.perf_counter() - start)
    return best, results


def main() -> None:
    impls = available_backends()
    compiled = impls.get("compiled")
    if compiled is None:
        print("compiled backend not available; timing the pure-Python kernel alone")
        print(f"{'n':>8} {'cases':>7} {'python':>12} {'per elem':>10}")
    else:
        print(f"{'n':>8} {'cases':>7} {'python':>12} {'compiled':>12} {'speedup':>9}")

    rng = np.random.default_rng(2024)
    for n, cases_count in SIZES:
        cases = [make_case(rng, n) for _ in range(cases_count)]
        t_py, r_py = bench(impls["python"].exp_moments, cases, repeats=3)
        if compiled is None:
            per_element_ns = t_py / (n * cases_count) * 1e9
            print(f"{n:>8} {cases_count:>7} {t_py * 1e3:>10.2f}ms {per_element_ns:>8.1f}ns")
            continue
        t_c, r_c = bench(compiled.exp_moments, cases, repeats=3)
        if r_py != r_c:
            raise AssertionError(f"backends disagree at n={n}")
        print(
            f"{n:>8} {cases_count:>7} {t_py * 1e3:>10.2f}ms {t_c * 1e3:>10.2f}ms "
            f"{t_py / t_c:>8.1f}x"
        )
    if compiled is not None:
        print("outputs bit-identical across backends for every case")


if __name__ == "__main__":
    main()
