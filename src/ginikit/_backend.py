"""Kernel backend selection.

The compiled extension (``_kernels.c``, built by ``setup.py`` when a C
compiler is present) is preferred when importable; the pure-Python twin is
the fallback.  Set the environment variable ``GINIKIT_PURE=1`` (before
import) to force the pure backend, e.g. to compare them.  Both produce
bit-identical results, so the choice only affects speed.
"""

from __future__ import annotations

import os
from types import ModuleType

from . import _kernels_py


def _load_compiled() -> ModuleType | None:
    try:
        from . import _kernels  # type: ignore[attr-defined]
    except ImportError:
        return None
    return _kernels


_FORCE_PURE = os.environ.get("GINIKIT_PURE", "") not in ("", "0")
_compiled = None if _FORCE_PURE else _load_compiled()

if _compiled is not None:
    BACKEND = "compiled"
    exp_moments = _compiled.exp_moments
else:
    BACKEND = "python"
    exp_moments = _kernels_py.exp_moments


def backend_name() -> str:
    """Name of the kernel backend in use: ``"compiled"`` or ``"python"``."""
    return BACKEND


def available_backends() -> dict[str, ModuleType]:
    """All importable kernel implementations, keyed by name.

    Ignores ``GINIKIT_PURE``; used by the kernel benchmark.
    """
    impls: dict[str, ModuleType] = {"python": _kernels_py}
    compiled = _load_compiled()
    if compiled is not None:
        impls["compiled"] = compiled
    return impls
