"""Benchmark the accumulation kernel: compiled extension and pure-Python twin.

Build the compiled kernel into a copy of the package, outside the checkout
(an editable install would write it into ``src/ginikit``; see the README),
then run the script against that copy.  From the repository root, with
SCRATCH any empty directory:

    mkdir -p "$SCRATCH/src" && cp -r src/ginikit "$SCRATCH/src/"
    (cd "$SCRATCH" && python "$OLDPWD/setup.py" build_ext \
        --build-lib "$SCRATCH/src" --build-temp "$SCRATCH/build")
    PYTHONPATH="$SCRATCH/src" python benchmarks/bench_kernels.py

``setup.py`` names its C source relative to the working directory, so the
build reads the copy.  This is the build the tier-1 ``compiled_src`` fixture
makes.

Both backends are imported directly (ignoring GINIKIT_PURE) and timed on
identical inputs, in the pipeline's (ln a, ln w) order, across a range of
sample sizes.  Each call is one ``exp_moments(logs, log_weights, p)``, as
``log_power_sum`` makes it, so the time includes forming the tilt
t = p * ln a + ln w and its shift, which the kernel does itself.  The sizes
span the pure kernel's switch from its loop to its numpy path
(``VECTOR_MIN_N``) and reach n = 27,618, the species count of the
end-to-end ``mwd_report`` workload.  When both backends are present the
script also asserts bit-identical outputs while it goes, so a drifting
backend fails loudly rather than reporting a meaningless speedup.  Without
the compiled extension it times the pure kernel alone.

A second table times the total-only pass, ``exp_moments(..., False)``,
which is what a secant slope asks for, beside the full call at n = 9 (the
loop, at a size like the ``verify`` samples) and n = 27,618 (the numpy
path), on each backend present.  It asserts that the total-only pass gives
the full call's ``(shift, total)`` bits, and that both backends give the
same bits.
"""

from __future__ import annotations

import time

import numpy as np

from ginikit._backend import available_backends

#: (n, cases) pairs; the case counts keep each row's work comparable.
SIZES = ((4, 4000), (16, 2000), (64, 1000), (256, 400), (4096, 50), (27_618, 8))
#: (n, cases) pairs of the total-only table.
TOTAL_ONLY_SIZES = ((9, 4000), (27_618, 8))


def make_case(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One (logs, log_weights, p) triple like the mean pipeline builds.

    ``PositiveSample`` sorts its logs by (ln a, ln w) once, and
    ``log_power_sum`` hands them to the kernel in that order.
    """
    log_values = rng.uniform(-14.0, 14.0, n)
    p = rng.uniform(-50.0, 50.0)
    log_weights = rng.uniform(-2.0, 2.0, n)
    order = np.lexsort((log_weights, log_values))
    return log_values[order], log_weights[order], p


def bench(
    fn, cases, repeats: int, *extra: object
) -> tuple[float, list[tuple[float, float, float, float]]]:
    best = float("inf")
    results: list[tuple[float, float, float, float]] = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = [fn(la, lw, p, *extra) for (la, lw, p) in cases]
        best = min(best, time.perf_counter() - start)
    return best, results


def shift_and_total_bits(results: list[tuple[float, float, float, float]]) -> list[str]:
    """The exact bits of each result's shift and total; tells -0.0 from +0.0."""
    return [f"{shift.hex()} {total.hex()}" for shift, total, _, _ in results]


def total_only(impls: dict) -> None:
    """Time the total-only pass beside the full call, and check its bits."""
    print(f"\n{'n':>8} {'cases':>7} {'backend':>9} {'full':>12} {'total-only':>12} {'ratio':>7}")
    rng = np.random.default_rng(2025)
    for n, cases_count in TOTAL_ONLY_SIZES:
        cases = [make_case(rng, n) for _ in range(cases_count)]
        seen: dict[str, list[str]] = {}
        for name, module in impls.items():
            t_full, r_full = bench(module.exp_moments, cases, 3)
            t_total, r_total = bench(module.exp_moments, cases, 3, False)
            seen[name] = shift_and_total_bits(r_total)
            if seen[name] != shift_and_total_bits(r_full):
                raise AssertionError(f"{name}: total-only pass differs from the full call at n={n}")
            print(
                f"{n:>8} {cases_count:>7} {name:>9} {t_full * 1e3:>10.2f}ms "
                f"{t_total * 1e3:>10.2f}ms {t_full / t_total:>6.2f}x"
            )
        if len({tuple(bits) for bits in seen.values()}) != 1:
            raise AssertionError(f"backends disagree on the total-only pass at n={n}")
    print("total-only (shift, total) bit-identical to the full call's and across backends")


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
    total_only(impls)


if __name__ == "__main__":
    main()
