"""Span tracer that wraps ginikit's public functions from outside the package.

``install`` replaces each traced function at every place it is looked up:
the module that defines it and every ginikit module that imported it by
name (``cli.scan_monotonicity``, ``audit.secant_slope``, ``mwd.gini_mean``
and so on), plus ``PositiveSample.__init__`` on the class.  Each call then
records a span (op id, span id, parent span id, name, start and end in ns,
size) in memory.  Self time is a span's duration minus that of its direct
children.  ``uninstall`` puts the originals back, so untraced ops run the
program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from ginikit import _backend, _util, audit, cli, means, mwd, oracle, plotting
from ginikit.sample import PositiveSample

Size = Callable[[tuple[Any, ...], Any], int]


def _first_len(args: tuple[Any, ...], result: Any) -> int:
    return len(args[0])


def _result_len(args: tuple[Any, ...], result: Any) -> int:
    return len(result) if result is not None else 0


def _rows_loaded(args: tuple[Any, ...], result: Any) -> int:
    return result.n if result is not None else 0


def _rows_saved(args: tuple[Any, ...], result: Any) -> int:
    return args[0].n


class OpStats:
    """Per-name totals of one traced op."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.size: dict[str, int] = defaultdict(int)
        self.lps_distinct = 0

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self.op = -1
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._op_start = 0
        # log_power_sum (sample, exponent) keys of the current op; the samples
        # are kept alive until the op ends so that their ids stay unique.
        self._lps_samples: dict[int, PositiveSample] = {}
        self._lps_keys: set[tuple[int, float]] = set()

    def _lps_size(self, args: tuple[Any, ...], result: Any) -> int:
        sample = args[0]
        self._lps_samples[id(sample)] = sample
        self._lps_keys.add((id(sample), float(args[1])))
        return sample.n

    def _targets(self) -> list[tuple[str, Any, str, Size | None]]:
        targets: list[tuple[str, Any, str, Size | None]] = [
            ("cli.main", cli, "main", None),
            ("audit.scan_monotonicity", audit, "scan_monotonicity", _result_len),
            ("means.gini_mean", means, "gini_mean", None),
            ("means.secant_slope", means, "secant_slope", None),
            ("means.log_power_sum", means, "log_power_sum", self._lps_size),
            ("kernel.exp_moments", _backend, "exp_moments", _first_len),
            ("sample.PositiveSample", PositiveSample, "__init__", None),
            ("oracle.oracle_gini", oracle, "oracle_gini", None),
            ("oracle.equivalence_report", oracle, "equivalence_report", None),
            ("plotting.render_svg", plotting, "render_svg", None),
            ("util.atomic_write_text", _util, "atomic_write_text", None),
        ]
        sizes: dict[str, Size] = {"load_mwd": _rows_loaded, "save_mwd": _rows_saved}
        for name in mwd.__all__:
            if inspect.isfunction(getattr(mwd, name)):
                targets.append((f"mwd.{name}", mwd, name, sizes.get(name)))
        return targets

    def _wrap(self, name: str, fn: Callable[..., Any], size: Size | None) -> Callable[..., Any]:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                n = size(args, result) if size is not None else 0
                spans.append((tracer.op, sid, parent, name, t0, t1, n))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "ginikit" or key.startswith("ginikit.")
        ]
        for name, owner, attr, size in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, size)
            sites = [(owner, attr)] if owner is PositiveSample else [
                (module, key)
                for module in modules
                for key, value in vars(module).items()
                if value is original
            ]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_start = len(self.spans)

    def end_op(self) -> OpStats:
        """Aggregate the spans recorded since ``begin_op``."""
        spans = self.spans[self._op_start :]
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, t0, t1, _ in spans:
            child_ns[parent] += t1 - t0
        stats = OpStats()
        for _, sid, _, name, t0, t1, n in spans:
            stats.calls[name] += 1
            stats.self_ns[name] += (t1 - t0) - child_ns.get(sid, 0)
            stats.size[name] += n
        stats.lps_distinct = len(self._lps_keys)
        self._lps_keys.clear()
        self._lps_samples.clear()
        return stats

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def check_lookup_sites() -> str | None:
    """Trace one ``verify --random 3 200`` op; describe any missed lookup site.

    That op makes 10 secant slopes per sample on the default grid, so every
    one of its 200 samples must show 20 log_power_sum and 20 exp_moments
    spans.  Fewer means a call went through a reference the tracer did not
    replace.
    """
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--random", "3", "200"])
        stats = tracer.end_op()
    finally:
        tracer.uninstall()
    got = (rc, stats.calls["means.log_power_sum"], stats.calls["kernel.exp_moments"])
    if got != (0, 4000, 4000):
        return f"exit code, log_power_sum and exp_moments spans were {got}, not (0, 4000, 4000)"
    return None
