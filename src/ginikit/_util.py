"""Small shared helpers: number checks, float formatting, text reads and atomic writes."""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import tempfile
from pathlib import Path
from typing import Iterator, TextIO

from .errors import IngestionError


def _is_finite_real(value: object) -> bool:
    """True for a real number, such as an int, a float or a numpy integer,
    that is a finite double.

    An int past the double range (``10**400``) is not one; ``math.isfinite``
    would raise ``OverflowError`` on it rather than answer.
    """
    if not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value: object) -> str:
    """``value`` as an error message shows it; a huge int is not spelled out
    (past 4,300 digits, ``repr`` would raise ``ValueError`` instead)."""
    if isinstance(value, int) and not _is_finite_real(value):
        return "an integer too large for a double"
    return repr(value)


def format_double(x: float) -> str:
    """Shortest decimal string that round-trips to the same double.

    Integral doubles drop the trailing ``.0`` (``5.0`` prints as ``5``);
    ``float(format_double(x)) == x`` holds either way.
    """
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def read_text(path: str | os.PathLike[str]) -> str:
    """Contents of the UTF-8 text file at ``path``, newlines normalised.

    Newlines are translated as ``open(path, encoding="utf-8")`` does.  Bytes
    that are not valid UTF-8 raise :class:`IngestionError` naming their line,
    so callers see a data error rather than a ``UnicodeDecodeError``.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the appended byte makes the line count one more than the line
        # breaks before the bad byte
        line = len((data[: exc.start] + b"x").splitlines())
        raise IngestionError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line=line
        ) from None
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, broken at ``"\n"`` alone, with no empty last
    line for a final newline.

    :func:`read_text` has normalised every newline to ``"\n"``; ``str.splitlines``
    would also break at ``"\x0c"``, ``"\x85"``, ``"\u2028"`` and the like,
    and so count lines that the file does not have.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


@contextlib.contextmanager
def atomic_writer(path: str | os.PathLike[str]) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` atomically.

    Everything written in the ``with`` block goes to a temp file beside
    ``path``, which is renamed over it when the block ends.  If the block
    raises, or the write or rename fails, the destination is left untouched
    and the temp file is removed; no partial output is ever visible.  So a
    large file can be written a chunk at a time without holding its text.
    :func:`ginikit.mwd.save_mwd` writes the first half of a large file
    through the handle and then appends, through ``handle.buffer``, the
    bytes of the second half that a forked child formatted; the child has
    exited before the block ends, so the rename sees the whole file.

    When the temp file cannot be created (its directory does not exist) or
    cannot be renamed over ``path`` (a directory is there), the ``OSError``
    names ``path`` alone, not the temp file's random name.
    """
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent or Path("."), prefix=f".{target.name}.", suffix=".tmp"
        )
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        try:
            os.replace(tmp_name, target)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _naming(exc: OSError, path: str | os.PathLike[str]) -> OSError:
    """``exc`` with ``path`` as its only file name; ``OSError(errno, ...)``
    builds the same subclass, ``FileNotFoundError`` say."""
    return OSError(exc.errno, exc.strerror, os.fspath(path))


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write ``text`` to ``path`` atomically (see :func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(text)
