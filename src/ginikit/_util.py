"""Small shared helpers: number and path checks, float formatting, text reads,
atomic writes, and the package's one way to fork: a child that runs a loop
from its other end while the parent runs it from the start."""

from __future__ import annotations

import contextlib
import errno
import gc
import math
import numbers
import os
import signal
import stat
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

from .errors import IngestionError, ParameterDomainError


def _number(
    value: object, *, integral: bool = False, not_real: str | None = None
) -> float | int | None:
    """The number parameter ``value`` as the double an entry computes with,
    or None when it is none: the package's one rule for number parameters.

    A number parameter is a ``numbers.Real`` (an int, float, bool,
    ``Fraction``, numpy integer or float) whose double is finite.  A ``str``,
    ``bytes``, ``Decimal`` or numpy array is none, though ``float()`` takes
    it.  Entries check their range on the double, so a positive ``Fraction``
    that rounds to 0.0 is 0.0 there.  With ``integral`` the result is the
    ``int`` of an integral value (``5``, ``5.0``, ``np.int64(5)``), else None.
    With ``not_real``, a value that is no ``numbers.Real`` raises
    :class:`ParameterDomainError` with that message, for an entry that words
    it apart from a real whose double is not finite.
    """
    # float and int first: the ABC's own check costs about ten times as much
    if not isinstance(value, (float, int, numbers.Real)):
        if not_real is not None:
            raise ParameterDomainError(not_real)
        return None
    try:
        double = float(value)
    except OverflowError:  # an int or a Fraction past the double range
        return None
    if not math.isfinite(double):
        return None
    if integral:
        whole = int(value)
        return whole if whole == value else None
    return double


def _parameter(
    value: object, refusal: str, within: Callable[[float], bool], *, integral: bool = False
) -> float | int:
    """``value`` as :func:`_number` gives it, if ``within`` holds for that;
    otherwise :class:`ParameterDomainError`, ``refusal`` followed by the
    value it got."""
    number = _number(value, integral=integral)
    if number is None or not within(number):
        raise ParameterDomainError(f"{refusal}, got {_shown(value)}")
    return number


def _shown(value: object) -> str:
    """``value`` as an error message shows it; a huge int, or a ``Fraction`` of
    one, is not spelled out (past 4,300 digits ``repr`` raises ``ValueError``)."""
    if isinstance(value, int) and _number(value) is None:
        return "an integer too large for a double"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to show"


def _checked_path(path: object) -> Path:
    """``path`` as a :class:`~pathlib.Path`; anything but a ``str`` or an
    ``os.PathLike`` of one raises :class:`ParameterDomainError`."""
    if isinstance(path, (str, os.PathLike)):
        try:
            return Path(path)
        except TypeError:  # an os.PathLike that gives bytes
            pass
    raise ParameterDomainError(f"a path must be a str or os.PathLike, got {type(path).__name__}")


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
    :func:`ginikit.mwd.save_mwd` writes the first blocks of a large file
    through the handle, flushes it, and then writes through
    ``handle.buffer`` the bytes of the later blocks, which a forked child
    formatted into a file of its own; everything is in the handle before
    the block ends, so the rename sees the whole file.

    The file gets the mode that ``open`` would give it: a new one 0666
    less the umask, and one that replaces an existing file that file's
    permission bits, which are copied onto the temp file before the rename.

    When the temp file cannot be created (its directory does not exist) or
    cannot be renamed over ``path`` (a directory is there), the ``OSError``
    names ``path`` alone, not the temp file's random name.
    """
    target = Path(path)
    try:
        fd, tmp_name = _new_temp_file(target)
    except OSError as exc:
        raise _naming(exc, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        try:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp_name, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp_name, target)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _new_temp_file(target: Path) -> tuple[int, str]:
    """A new file beside ``target``, open for writing, and its name.

    The name is ``target``'s behind a dot, then eight random hex digits and
    ``.tmp``; a name that is taken is drawn again, as ``tempfile.mkstemp``
    does.  The file is created with mode 0666, which the kernel reduces by
    the umask.
    """
    directory = target.parent
    for _ in range(tempfile.TMP_MAX):
        name = os.path.join(directory, f".{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            return os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), name
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "No usable temporary file name found")


def _naming(exc: OSError, path: str | os.PathLike[str]) -> OSError:
    """``exc`` with ``path`` as its only file name; ``OSError(errno, ...)``
    builds the same subclass, ``FileNotFoundError`` say."""
    return OSError(exc.errno, exc.strerror, os.fspath(path))


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write ``text`` to ``path`` atomically (see :func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(text)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _current_cpu() -> int | None:
    """The CPU that this thread last ran on, or None where ``/proc`` does not tell."""
    try:
        with open("/proc/thread-self/stat", "rb") as record:
            # field 39; the fields are counted after the command name, which
            # may hold spaces and ends at the last ")"
            return int(record.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _keep_off_cpu(pid: int, cpu: int | None) -> None:
    """Keep process ``pid``, a child just forked, off ``cpu``, its parent's,
    when it may run on another one.

    A forked child starts on its parent's CPU.  On a 2-vCPU Linux VM it
    stayed there for 50-100 ms while the other CPU idled, so parent and
    child took turns rather than running side by side; moved off, each ran
    at full speed from the start (``BENCH_oracle_fork.json``).  The parent
    moves the child as soon as ``os.fork`` returns: a child that moved
    itself first had to get a turn on its parent's CPU, which delayed its
    start by 2-4 ms and slowed the parent by as much
    (``BENCH_both_ends.json``).
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(pid, others)
    except OSError:
        pass


#: The length of a frame that :func:`_from_both_ends` streams, before its bytes.
_FRAME_LENGTH = struct.Struct("=Q")


def _nothing_sent(index: int) -> None:
    """What :func:`_from_both_ends` gives when no child runs: nothing, ever."""
    return None


@contextlib.contextmanager
def _from_both_ends(
    count: int, payload: Callable[[int], bytes | None]
) -> Iterator[Callable[[int], bytes | None]]:
    """A loop over ``count`` items that a forked child runs from the last item
    back: the package's one way to fork.

    The block gets ``received``: ``received(index)`` is the ``payload(index)``
    that the child sent, once it has arrived, and None before; the caller
    then does that item's work itself.  Indices must be asked for in
    increasing order.  The child (:func:`_send_from_the_back`) writes
    ``payload(i)`` for ``i = count - 1`` down to 0 to a pipe, each as one
    length-prefixed frame, and stops at the first payload that is None or
    raises.  Each call of ``received`` first drains the pipe without
    blocking.  Since the child sends from the back, once it has sent
    ``index`` it has sent every later item too: the first call that finds
    its item sent kills the child, and every later call is served from what
    was read.  A child that fails or lags only sends less; the caller never
    waits for it, and a payload that refuses an item leaves the caller to
    reach that item and raise there.  So every result and every error is
    that of the caller's loop in one process, and a payload's bytes arrive
    as they were sent.

    No child runs, and ``received`` is always None, when ``count`` is 0
    (callers pass 0 below their break-even), with fewer than two usable
    CPUs, without ``os.fork``, or when the pipe or the fork raises
    ``OSError``; the caller then does all the work itself.

    The child is moved off this process's CPU at once (see
    :func:`_keep_off_cpu`).  It turns the garbage collector off, since a
    collection there could finalize the caller's garbage a second time
    (flushing a file's buffer twice, say).  It leaves only through
    ``os._exit``, with status 0 when its loop returns and 1 when it raises,
    so it never returns into the caller's code, flushes the caller's
    buffers or runs its exit hooks.  When the block ends, by returning or by
    raising, the child is killed if it still runs and reaped, and the pipe
    is closed.  So no child outlives the block.

    On Python 3.12 and later, forking a process that runs threads (numpy's
    BLAS pool starts some) emits a ``DeprecationWarning``; this is not
    checked on the Python the package is tested with (3.11).
    """
    ends = None
    if count > 0 and hasattr(os, "fork") and _usable_cpus() >= 2:
        with contextlib.suppress(OSError):  # out of file descriptors, say
            ends = os.pipe()
    if ends is None:
        yield _nothing_sent
        return
    with open(ends[0], "rb", buffering=0) as stream, open(ends[1], "wb", buffering=0) as sink:
        here = _current_cpu()
        pid = None
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                gc.disable()
                _send_from_the_back(count, payload, sink)
                status = 0
            finally:
                os._exit(status)
        # the child holds its own copy of the write end
        sink.close()
        if pid is None:
            yield _nothing_sent
            return
        try:
            _keep_off_cpu(pid, here)
            os.set_blocking(stream.fileno(), False)
            pending = bytearray()
            frames: list[bytes] = []  # frames[k] is the payload of item count - 1 - k
            met = False

            def received(index: int) -> bytes | None:
                nonlocal met
                if not met:
                    # None when nothing is waiting, b"" when the child has gone
                    pending.extend(stream.read() or b"")
                    _take_frames(pending, frames)
                    if count - 1 - index >= len(frames):
                        return None
                    met = True
                    os.kill(pid, signal.SIGKILL)
                return frames[count - 1 - index]

            yield received
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _take_frames(pending: bytearray, frames: list[bytes]) -> None:
    """Move each whole frame at the start of ``pending`` to ``frames``."""
    start = 0
    while len(pending) - start >= _FRAME_LENGTH.size:
        (size,) = _FRAME_LENGTH.unpack_from(pending, start)
        stop = start + _FRAME_LENGTH.size + size
        if stop > len(pending):
            break
        frames.append(bytes(pending[start + _FRAME_LENGTH.size : stop]))
        start = stop
    del pending[:start]


def _send_from_the_back(
    count: int, payload: Callable[[int], bytes | None], sink: BinaryIO
) -> None:
    """Write ``payload(i)`` for ``i = count - 1`` down to 0 to ``sink``, each as
    one frame, up to the first that is None; a forked child's work."""
    for index in range(count - 1, -1, -1):
        data = payload(index)
        if data is None:
            return
        frame = memoryview(_FRAME_LENGTH.pack(len(data)) + data)
        while frame:
            frame = frame[sink.write(frame) :]
