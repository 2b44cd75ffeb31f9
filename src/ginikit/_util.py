"""Small shared helpers: float formatting, text file reads and atomic writes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import IngestionError


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


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    On any failure the destination is left untouched; no partial output is
    ever visible.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
