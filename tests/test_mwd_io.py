"""Distribution files: the block writer and the bulk readers.

``save_mwd`` formats rows a block at a time, a large file's from both
ends with a forked child, and must write the same bytes as the per-row
reference writer in ``helpers``.  ``load_mwd`` parses a plain
CSV file, and the rows of a plain JSON file, in bulk and hands every other
text to the row scanner; the two must agree bit for bit, and every error
must be the scanner's.  Every function that takes a dataset or a report,
and every function of ``means`` and ``audit`` that takes a sample, a pair
or an order, refuses an argument of any other type with a package error.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginikit import _util, audit, means, mwd, plotting
from ginikit._util import atomic_writer, format_double, read_text
from ginikit.errors import DataError, GinikitError, IngestionError, ParameterDomainError
from ginikit.mwd import (
    CSV_HEADER, MWDataset, generate_flory, generate_lognormal, generate_poisson, save_mwd
)
from ginikit.sample import ExponentPair, PositiveSample

from helpers import (
    HOSTILE, LOAD_FAULT_LINE, LOAD_SPLIT_CASES, LOAD_SPLIT_ROWS, SAVE_SPLIT_BLOCK_ROWS,
    SAVE_SPLIT_CASES, SPLIT_SENT, load_split_outcome, reference_mwd_text, save_split_outcome,
    split_dataset, split_outcomes_under_both_backends,
)

DOUBLE_MAX = 1.7976931348623157e308
SUBNORMAL_MAX = 2.225073858507201e-308

#: Positive finite doubles, weighted toward the fields whose text is
#: special: integral doubles (``28.0`` is written ``28``), doubles from 1e16
#: up (exponent form, no ``.0`` to strip) and subnormals down to 5e-324.
doubles = st.one_of(
    st.floats(min_value=5e-324, max_value=DOUBLE_MAX),
    st.integers(min_value=1, max_value=2**64).map(float),
    st.floats(min_value=1e16, max_value=DOUBLE_MAX).map(lambda x: float(math.floor(x))),
    st.floats(min_value=5e-324, max_value=SUBNORMAL_MAX),
    st.sampled_from(
        [5e-324, 1.0, 10.0, 28.0, 0.1, 1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0,
         1e16 + 2.0, 123456789012345.6, DOUBLE_MAX]
    ),
)

labels = st.one_of(
    st.text(),
    st.sampled_from(
        ['say "cheese"', "back\\slash\\", "tab\tnew\nline\r\x00\x1f\x7f",
         "Mw ≈ 1.2×10⁵ g/mol", "π 🧪 ü", "lone \ud800 surrogate", ""]
    ),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("mwd_io")


@st.composite
def datasets(draw: st.DrawFn) -> MWDataset:
    n = draw(st.integers(min_value=1, max_value=12))
    masses = draw(st.lists(doubles, min_size=n, max_size=n))
    abundances = draw(st.lists(doubles, min_size=n, max_size=n))
    return MWDataset(masses=masses, abundances=abundances, label=draw(labels))


class TestBlockWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block_rows", [3, mwd._WRITE_BLOCK_ROWS])
    @settings(max_examples=50, deadline=None)
    @given(dataset=datasets())
    def test_same_bytes_as_the_row_writer(self, workdir, fmt, block_rows, dataset):
        path = workdir / f"ds.{fmt}"
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", block_rows):
            save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "dataset",
        [generate_flory(28.0, 0.999), generate_flory(104.37, 0.999), generate_poisson(72.5, 1e6)],
        ids=["flory-integral-m0", "flory", "poisson"],
    )
    def test_generated_files_match_the_row_writer(self, tmp_path, fmt, dataset):
        # 20k to 28k rows: several blocks, the last one partial
        path = tmp_path / f"ds.{fmt}"
        save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_strip_follows_each_blocks_own_integral_doubles(self, tmp_path, fmt):
        # blocks of 3 rows: no integral double in the first, an integral
        # mass only in the second, an integral abundance only in the third;
        # 1e16 is integral but has no ".0", 10.05 holds ".0" mid-field
        dataset = MWDataset(
            masses=[10.05, 104.37, 5e-324, 28.0, 1e16, 2.5, 7.25, 10.05, 0.5],
            abundances=[0.25, 10.05, 1.5, 0.125, 5e-324, 3.75, 0.1, 1e16, 2.0],
        )
        path = tmp_path / f"ds.{fmt}"
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", 3):
            save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_file_keeps_the_old_file(self, tmp_path, monkeypatch, fmt):
        path = tmp_path / f"ds.{fmt}"
        path.write_text("old contents\n", encoding="utf-8")
        dataset = generate_flory(28.0, 0.999)
        real_block = getattr(mwd, f"_{fmt}_block")

        def failing_block(ds, index):
            if index == 2:
                raise RuntimeError("formatting failed")
            return real_block(ds, index)

        monkeypatch.setattr(mwd, f"_{fmt}_block", failing_block)
        path.chmod(0o640)
        with pytest.raises(RuntimeError, match="formatting failed"):
            save_mwd(dataset, path)
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert mode_of(path) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def assert_no_child_is_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def caller_only(block, pid: int, child_work):
    """``block`` in the process ``pid``; ``child_work()`` in any other, a
    forked child."""

    def patched(dataset, index):
        if os.getpid() != pid:
            child_work()
        return block(dataset, index)

    return patched


class TestSplitWriter:
    """A file of more than ``_FORK_MIN_ROWS`` rows is written from both ends:
    a forked child formats blocks from the last one back, the caller from
    the first on, and the caller copies the child's blocks from where they
    meet."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "block_rows, fork_min_rows, n, forked",
        [(3, 3, 1, False), (3, 3, 3, False), (3, 3, 4, True), (3, 3, 7, True), (3, 3, 10, True),
         (3, 7, 7, False), (3, 7, 8, True),
         (mwd._WRITE_BLOCK_ROWS, mwd._FORK_MIN_ROWS, 1, False),
         (mwd._WRITE_BLOCK_ROWS, mwd._FORK_MIN_ROWS, mwd._FORK_MIN_ROWS, False),
         (mwd._WRITE_BLOCK_ROWS, mwd._FORK_MIN_ROWS, mwd._FORK_MIN_ROWS + 1, True),
         (mwd._WRITE_BLOCK_ROWS, mwd._FORK_MIN_ROWS, 2 * mwd._FORK_MIN_ROWS + 5, True)],
    )
    def test_same_bytes_as_the_row_writer(
        self, tmp_path, forks, fmt, block_rows, fork_min_rows, n, forked
    ):
        dataset = split_dataset(n)
        path = tmp_path / f"ds.{fmt}"
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", block_rows):
            with mock.patch.object(mwd, "_FORK_MIN_ROWS", fork_min_rows):
                save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")
        assert len(forks) == forked
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert_no_child_is_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_usable_cpu_writes_alone(self, tmp_path, forks, monkeypatch, fmt):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        dataset = split_dataset(mwd._FORK_MIN_ROWS + 1)
        path = tmp_path / f"ds.{fmt}"
        save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")
        assert forks == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failing_fork_leaves_the_caller_to_write_alone(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)

        def failing_fork() -> int:
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        dataset = split_dataset(7)
        path = tmp_path / f"ds.{fmt}"
        path.write_text("old contents\n", encoding="utf-8")
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", 3):
            with mock.patch.object(mwd, "_FORK_MIN_ROWS", 3):
                save_mwd(dataset, path)
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert_no_child_is_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failing_child_leaves_the_caller_to_write_the_file(
        self, tmp_path, forks, monkeypatch, fmt
    ):
        def fail() -> None:
            raise RuntimeError("formatting failed")

        name = f"_{fmt}_block"
        monkeypatch.setattr(mwd, name, caller_only(getattr(mwd, name), os.getpid(), fail))
        dataset = split_dataset(7)
        path = tmp_path / f"ds.{fmt}"
        path.write_text("old contents\n", encoding="utf-8")
        path.chmod(0o640)
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", 3):
            with mock.patch.object(mwd, "_FORK_MIN_ROWS", 3):
                save_mwd(dataset, path)
        assert len(forks) == 1
        assert path.read_bytes() == reference_mwd_text(dataset, fmt).encode("utf-8")
        assert mode_of(path) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert_no_child_is_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failing_caller_stops_the_child(self, tmp_path, forks, monkeypatch, fmt):
        def fail(dataset, index):
            raise RuntimeError("formatting failed")

        # the child would still run when the caller fails
        name = f"_{fmt}_block"
        monkeypatch.setattr(mwd, name, caller_only(fail, os.getpid(), lambda: time.sleep(60)))
        path = tmp_path / f"ds.{fmt}"
        path.write_text("old contents\n", encoding="utf-8")
        path.chmod(0o640)
        started = time.monotonic()
        with mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", 3):
            with mock.patch.object(mwd, "_FORK_MIN_ROWS", 3):
                with pytest.raises(RuntimeError, match="formatting failed"):
                    save_mwd(split_dataset(7), path)
        assert time.monotonic() - started < 30.0
        assert len(forks) == 1
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert mode_of(path) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert_no_child_is_left()


def assert_save_split_outcome(name: str, joined: bool, outcome: dict) -> None:
    fmt, n, fault, sent = SAVE_SPLIT_CASES[name]
    want = [reference_mwd_text(split_dataset(n), fmt), [f"distribution.{fmt}"]]
    assert outcome["one_process"] == want
    assert outcome["forked"] == want
    assert outcome["children_left"] is False
    assert outcome["open_fds_added"] == 0
    # a lagging child is killed when this process is done, not waited for
    assert outcome["seconds"] < 30.0
    if joined:
        # the caller formats the blocks before the last one the child sent
        blocks = -(-n // SAVE_SPLIT_BLOCK_ROWS)
        here = {"plain": 0, "child-fails-at-once": blocks}.get(fault, blocks - sent)
        status = 0 if fault == "plain" else 1
        assert (outcome["child_statuses"], outcome["computed_here"]) == ([status], here)


class TestSaveFromBothEnds:
    """A file written from both ends has the reference bytes whatever the
    child sent before the caller met it, and leaves no child, temp file or
    open file behind."""

    @pytest.mark.parametrize(
        "name", [name for name in SAVE_SPLIT_CASES if not name.endswith("child-lags")]
    )
    def test_child_that_ran_first(self, tmp_path, name):
        assert_save_split_outcome(name, True, save_split_outcome(name, True, tmp_path))

    @pytest.mark.parametrize("name", SAVE_SPLIT_CASES)
    def test_child_running_alongside(self, tmp_path, name):
        assert_save_split_outcome(name, False, save_split_outcome(name, False, tmp_path))

    def test_both_backends(self, compiled_src, tmp_path):
        runs = split_outcomes_under_both_backends(compiled_src, "save", tmp_path)
        for rows in runs.values():
            assert len(rows) == 2 * len(SAVE_SPLIT_CASES) - 4
            for name, joined, outcome in rows:
                assert_save_split_outcome(name, joined, outcome)


def mode_of(path: Path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.fixture
def umask():
    """Set the process's umask for one test; the old one comes back after it."""
    old = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(old)


#: Every writer of the package that goes through ``atomic_writer``, by what it writes.
WRITERS = {
    "save_mwd-csv": lambda path: save_mwd(split_dataset(5), path.with_suffix(".csv")),
    "save_mwd-json": lambda path: save_mwd(split_dataset(5), path.with_suffix(".json")),
    "save_mwd-split": lambda path: save_mwd(
        split_dataset(mwd._FORK_MIN_ROWS + 1), path.with_suffix(".csv")
    ),
    "save_report": lambda path: mwd.save_report(
        mwd.polydispersity(split_dataset(5)), path.with_suffix(".json")
    ),
    "atomic_write_text": lambda path: _util.atomic_write_text(path.with_suffix(".txt"), "x\n"),
}


class TestWrittenFileModes:
    """A written file gets the mode ``open`` would give it: 0666 less the
    umask when it is new, the old file's permission bits when it replaces
    one."""

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_new_file_follows_the_umask(self, tmp_path, umask, writer, mask, mode):
        umask(mask)
        writer(tmp_path / "out")
        (written,) = tmp_path.iterdir()
        assert mode_of(written) == mode

    @pytest.mark.parametrize("old_mode", [0o640, 0o604, 0o600, 0o755])
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_replaced_file_keeps_its_mode(self, tmp_path, umask, writer, old_mode):
        umask(0o022)
        writer(tmp_path / "out")
        (written,) = tmp_path.iterdir()
        old_bytes = written.read_bytes()
        written.chmod(old_mode)
        writer(tmp_path / "out")
        assert [p.name for p in tmp_path.iterdir()] == [written.name]
        assert mode_of(written) == old_mode
        assert written.read_bytes() == old_bytes

    def test_a_taken_temp_name_is_drawn_again(self, tmp_path, monkeypatch):
        taken = tmp_path / ".out.txt.00000000.tmp"
        taken.write_text("not ours\n", encoding="utf-8")
        draws = iter([b"\0\0\0\0", b"\0\0\0\0", b"\1\1\1\1"])
        monkeypatch.setattr(os, "urandom", lambda size: next(draws))
        _util.atomic_write_text(tmp_path / "out.txt", "x\n")
        assert (tmp_path / "out.txt").read_bytes() == b"x\n"
        assert taken.read_text(encoding="utf-8") == "not ours\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.txt"]

    def test_a_failed_rename_keeps_the_old_mode_and_leaves_no_temp_file(self, tmp_path, umask):
        umask(0o022)
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(IsADirectoryError, match=re.escape(repr(str(tmp_path / "out.txt")))):
            _util.atomic_write_text(tmp_path / "out.txt", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert (tmp_path / "out.txt").is_dir()


class TestAtomicWriter:
    def test_chunk_source_raising_partway_leaves_no_trace(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        written = []

        def chunks():
            for i in range(3):
                # each chunk is larger than the text layer's buffer, so part
                # of the new file has reached the temp file when it fails
                written.append(i)
                yield f"{i}" * 100_000
            raise ValueError("source failed")

        with pytest.raises(ValueError, match="source failed"):
            with atomic_writer(path) as handle:
                handle.writelines(chunks())
        assert written == [0, 1, 2]
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_chunks_replace_the_file_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_writer(path) as handle:
            handle.writelines(["a", "é\n", "c"])
            assert path.read_text(encoding="utf-8") == "old\n"
        assert path.read_bytes() == "aé\nc".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_atomic_write_text_is_one_chunk(self, tmp_path):
        path = tmp_path / "out.txt"
        _util.atomic_write_text(path, "x\ny\n")
        assert path.read_bytes() == b"x\ny\n"


def outcome(load) -> tuple:
    """What a load gives: the error text, or the exact bytes it read."""
    try:
        dataset = load()
    except IngestionError as exc:
        return ("error", str(exc))
    return ("ok", dataset.masses.tobytes(), dataset.abundances.tobytes(), dataset.label)


#: Fields the row scanner sees: numbers in every spelling ``float`` takes,
#: and the ones it refuses or the range checks reject.
fields = st.one_of(
    doubles.map(repr),
    doubles.map(format_double),
    st.integers(min_value=-5, max_value=10**20).map(str),
    st.sampled_from(
        ["1_000", "inf", "-inf", "nan", "1e400", "1e-400", "0", "0.0", "-1", "+5", " 5",
         "5 ", "\t7", "", "1e", "1-2", ".", ".5", "5.", "1E5", "1e+05", "--1", "1e5.5",
         "e5", "0x10", "١٢", "1,5", "1 2", "3 e5"]
    ),
)

rows = st.one_of(
    st.tuples(fields, fields).map(",".join),
    st.lists(fields, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "\t", " \t "]),
)


#: Fields as distribution files spell them: ``repr`` or ``format_double``.
plain_fields = st.one_of(doubles.map(repr), doubles.map(format_double))
plain_rows = st.tuples(plain_fields, plain_fields).map(",".join)


@st.composite
def csv_texts(draw: st.DrawFn) -> str:
    """CSV-shaped text: plain rows with up to three odd rows put in or swapped in."""
    header = draw(
        st.sampled_from([CSV_HEADER] * 4 + [f" {CSV_HEADER} ", "mass,abundance", ""])
    )
    lines = [header, *draw(st.lists(plain_rows, max_size=8))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        position = draw(st.integers(min_value=1, max_value=len(lines)))
        if position < len(lines) and draw(st.booleans()):
            lines[position] = draw(rows)
        else:
            lines.insert(position, draw(rows))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


#: Texts the bulk CSV reader must hand to the row scanner, each named by
#: what makes it not plain; the scanner takes some and refuses the others.
NOT_PLAIN_TEXTS = {
    # at 40 characters a block, 11 rows fill the first block exactly, so the
    # second holds newlines alone (numpy warns on such a block)
    "a-block-of-newlines": f"{CSV_HEADER}\n" + "1,2\n" * 11 + "\n" * 60,
    "blank-first-line": f"{CSV_HEADER}\n\n1,2\n",
    "blank-line-inside": f"{CSV_HEADER}\n1,2\n\n3,4\n",
    "blank-line-at-the-end": f"{CSV_HEADER}\n1,2\n\n",
    "arabic-indic-digits": f"{CSV_HEADER}\n١٢,3\n",
    "underscore": f"{CSV_HEADER}\n1_0,2\n",
    "space": f"{CSV_HEADER}\n1 ,2\n",
    "tab": f"{CSV_HEADER}\n1,\t2\n",
    "form-feed": f"{CSV_HEADER}\n1,2\x0c\n",
    "carriage-return": f"{CSV_HEADER}\n1,2\r\n",
    "comment-line": f"{CSV_HEADER}\n#1,2\n3,4\n",
    "quoted-field": f'{CSV_HEADER}\n"1",2\n',
    "empty-second-field": f"{CSV_HEADER}\n1,\n",
    "empty-first-field": f"{CSV_HEADER}\n,2\n",
    "rows-of-one-field": f"{CSV_HEADER}\n1\n2\n",
    "rows-of-three-fields": f"{CSV_HEADER}\n1,2,3\n4,5,6\n",
    "a-row-of-three-fields": f"{CSV_HEADER}\n1,2\n3,4,5\n",
    "bare-exponent": f"{CSV_HEADER}\n1e,2\n",
    "inner-minus": f"{CSV_HEADER}\n1-2,3\n",
    "inf": f"{CSV_HEADER}\ninf,2\n",
    "nan": f"{CSV_HEADER}\n1,nan\n",
    "zero": f"{CSV_HEADER}\n0,2\n",
    "minus-zero": f"{CSV_HEADER}\n1,-0\n",
}

#: Positive finite doubles as bit patterns, shuffled: a quarter subnormal,
#: the rest below 2**1023, so that no short spelling rounds up to inf.
_rng = np.random.default_rng(2016)
BIT_PATTERNS = _rng.permutation(np.concatenate([
    _rng.integers(1, 1 << 52, 500, dtype=np.uint64),
    _rng.integers(1, 0x7FE0 << 48, 1500, dtype=np.uint64),
]))


# numpy's reader warns with UserWarning (an input of blank lines alone); other
# categories stay warnings, so a failing hypothesis test can still report
@pytest.mark.filterwarnings("error::UserWarning")
class TestBulkReader:
    @pytest.mark.parametrize("block_chars", [40, mwd._PARSE_BLOCK_CHARS])
    @settings(max_examples=120, deadline=None)
    @given(text=csv_texts())
    def test_agrees_with_the_row_scanner(self, workdir, block_chars, text):
        path = workdir / "mwd.csv"
        path.write_text(text, encoding="utf-8")
        scanned = outcome(lambda: mwd._scan_csv(read_text(path), "mwd"))
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", block_chars):
            assert outcome(lambda: mwd.load_mwd(path)) == scanned

    @pytest.mark.parametrize("block_chars", [40, mwd._PARSE_BLOCK_CHARS])
    @settings(max_examples=50, deadline=None)
    @given(
        body=st.lists(plain_rows, min_size=1, max_size=20),
        final_newline=st.booleans(),
    )
    def test_plain_files_take_the_bulk_path(self, block_chars, body, final_newline):
        text = "\n".join([CSV_HEADER, *body]) + ("\n" if final_newline else "")
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", block_chars):
            columns = mwd._parse_plain_csv(text)
        assert columns is not None
        scanned = mwd._scan_csv(text, "x")
        assert columns[0].tobytes() == scanned.masses.tobytes()
        assert columns[1].tobytes() == scanned.abundances.tobytes()

    @pytest.mark.parametrize(
        "text, error",
        [
            (f"{CSV_HEADER}\n1,2\n1_000,3\n", None),
            (f"{CSV_HEADER}\n1,2\n3,inf\n", "line 3: abundance must be finite and > 0, got inf"),
            (f"{CSV_HEADER}\n1e400,2\n", "line 2: molar_mass must be finite and > 0, got 1e400"),
            (f"{CSV_HEADER}\n1,2\n3,1e-400", "line 3: abundance must be finite and > 0, got 1e-400"),
            (f"{CSV_HEADER}\n1,2\n\n 3 , 4 \n", None),
            (f"{CSV_HEADER}\n1,2\n1e,2\n", "line 3: could not parse numbers from '1e,2'"),
            (f"{CSV_HEADER}\n1,2,3\n", "line 2: expected 2 comma-separated fields, got 3"),
            (f"{CSV_HEADER}\n1 2,3\n4,5\n", "line 2: could not parse numbers from '1 2,3'"),
            (f"{CSV_HEADER}\n4,5\n1\t2,3\n", "line 3: could not parse numbers from '1\\t2,3'"),
            (f"{CSV_HEADER}\n", "line 1: no species rows found"),
            (f"{CSV_HEADER}\n\n\n", "line 3: no species rows found"),
            # only "\n" ends a line: "\x0c", "\x1c" to "\x1e", "\x85", "\u2028" and
            # "\u2029" are whitespace inside one
            (f"{CSV_HEADER}\n1,2\x0c\n5,x\n", "line 3: could not parse numbers from '5,x'"),
            (f"{CSV_HEADER}\n1,2\x0b\x1c\x1d\x1e\x85\u2028\u2029\n3,0\n",
             "line 3: abundance must be finite and > 0, got 0"),
            (f"{CSV_HEADER}\n\x0c\n\u2028", "line 3: no species rows found"),
            (f"{CSV_HEADER}\n5,0.25", None),
        ],
    )
    def test_named_cases(self, tmp_path, text, error):
        path = tmp_path / "mwd.csv"
        path.write_text(text, encoding="utf-8")
        got = outcome(lambda: mwd.load_mwd(path))
        assert got == outcome(lambda: mwd._scan_csv(text, "mwd"))
        if error is None:
            assert got[0] == "ok"
        else:
            assert got == ("error", error)

    @pytest.mark.parametrize("block_chars", [40, mwd._PARSE_BLOCK_CHARS])
    @pytest.mark.parametrize("spelling", ["%r", "%.17g", "%.25e", "%.3g", "%.1e", "%g"])
    def test_bulk_columns_are_float_of_each_field(self, block_chars, spelling):
        fields = [spelling % x for x in BIT_PATTERNS.view(np.float64).tolist()]
        rows = map(",".join, zip(fields[0::2], fields[1::2]))
        text = "\n".join([CSV_HEADER, *rows]) + "\n"
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", block_chars):
            masses, abundances = mwd._parse_plain_csv(text)
        assert masses.tobytes() == np.array(list(map(float, fields[0::2]))).tobytes()
        assert abundances.tobytes() == np.array(list(map(float, fields[1::2]))).tobytes()

    @pytest.mark.parametrize("block_chars", [40, mwd._PARSE_BLOCK_CHARS])
    @pytest.mark.parametrize("text", NOT_PLAIN_TEXTS.values(), ids=NOT_PLAIN_TEXTS)
    def test_other_texts_get_the_scanners_outcome(self, tmp_path, block_chars, text):
        path = tmp_path / "mwd.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", block_chars):
            assert mwd._parse_plain_csv(text) is None
            got = outcome(lambda: mwd.load_mwd(path))
        assert got == outcome(lambda: mwd._scan_csv(read_text(path), "mwd"))

    def test_a_lone_surrogate_is_not_plain(self):
        # no UTF-8 file holds one, but the reader takes any str without raising
        assert mwd._parse_plain_csv(f"{CSV_HEADER}\n\ud800,2\n") is None

    def test_bulk_columns_are_taken_without_a_copy(self):
        text = f"{CSV_HEADER}\n2,0.5\n3,0.5\n"
        masses, abundances = mwd._parse_plain_csv(text)
        assert not masses.flags.writeable and not abundances.flags.writeable
        dataset = MWDataset(masses=masses, abundances=abundances)
        assert dataset.masses is masses and dataset.abundances is abundances

    def test_generated_files_load_back_bit_for_bit(self, tmp_path):
        dataset = generate_flory(104.37, 0.999)
        path = tmp_path / "flory.csv"
        save_mwd(dataset, path)
        assert mwd._parse_plain_csv(read_text(path)) is not None
        loaded = mwd.load_mwd(path)
        assert loaded.masses.tobytes() == dataset.masses.tobytes()
        assert loaded.abundances.tobytes() == dataset.abundances.tobytes()


#: The scanner's error for each faulty load split case; a blank line is none.
LOAD_SPLIT_ERRORS = {
    "empty-field": f"line {LOAD_FAULT_LINE}: could not parse numbers from '1,'",
    "bare-exponent": f"line {LOAD_FAULT_LINE}: could not parse numbers from '1e,2'",
    "third-column": f"line {LOAD_FAULT_LINE}: expected 2 comma-separated fields, got 3",
    "zero": f"line {LOAD_FAULT_LINE}: molar_mass must be finite and > 0, got 0",
    "negative": f"line {LOAD_FAULT_LINE}: molar_mass must be finite and > 0, got -1",
}


def assert_load_split_outcome(name: str, joined: bool, outcome: dict) -> None:
    assert outcome["forked"] == outcome["one_process"]
    if name in LOAD_SPLIT_ERRORS:
        assert outcome["one_process"] == ["IngestionError", LOAD_SPLIT_ERRORS[name]]
    else:
        rows = LOAD_SPLIT_ROWS - (name == "blank-line")
        assert [len(column) for column in outcome["one_process"]] == [16 * rows] * 2
    assert outcome["children_left"] is False
    assert outcome["open_fds_added"] == 0
    # a lagging child is killed when this process is done, not waited for
    assert outcome["seconds"] < 30.0
    blocks, fault = outcome["blocks"], outcome["fault_block"]
    assert fault > blocks // 2  # in the child's half
    if joined:
        # the child sends every block it parses from the back, up to one that
        # is not plain; this process parses the rest, and raises in the scanner
        here = {
            "plain": 0, "zero": 0, "negative": 0,
            "child-fails-at-once": blocks, "child-fails-after-some": blocks - SPLIT_SENT,
        }.get(name, fault + 1)
        status = 1 if name.startswith("child-") else 0
        assert (outcome["child_statuses"], outcome["computed_here"]) == ([status], here)


class TestLoadFromBothEnds:
    """A plain CSV text of at least ``_FORK_MIN_CHARS`` on two usable CPUs is
    parsed from both ends: a forked child parses blocks from the last one
    back, this process from the first.  The columns, or the scanner's
    error, are those of one process, and no child or open file is left."""

    @pytest.mark.parametrize("name", [name for name in LOAD_SPLIT_CASES if name != "child-lags"])
    def test_child_that_ran_first(self, tmp_path, name):
        assert_load_split_outcome(name, True, load_split_outcome(name, True, tmp_path))

    @pytest.mark.parametrize("name", LOAD_SPLIT_CASES)
    def test_child_running_alongside(self, tmp_path, name):
        assert_load_split_outcome(name, False, load_split_outcome(name, False, tmp_path))

    def test_both_backends(self, compiled_src, tmp_path):
        runs = split_outcomes_under_both_backends(compiled_src, "load", tmp_path)
        for rows in runs.values():
            assert len(rows) == 2 * len(LOAD_SPLIT_CASES) - 1
            for name, joined, outcome in rows:
                assert_load_split_outcome(name, joined, outcome)

    def test_forks_only_at_the_threshold(self, forks):
        text = CSV_HEADER + "\n" + "1,2\n" * 40
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", 40):
            with mock.patch.object(mwd, "_FORK_MIN_CHARS", len(text) + 1):
                assert mwd._parse_plain_csv(text) is not None
            assert forks == []
            with mock.patch.object(mwd, "_FORK_MIN_CHARS", len(text)):
                masses, abundances = mwd._parse_plain_csv(text)
            assert len(forks) == 1
        assert masses.tolist() == [1.0] * 40 and abundances.tolist() == [2.0] * 40
        assert_no_child_is_left()

    @pytest.mark.parametrize("first_row", ["1,2\r", "1, 2", '"1",2', "1;2"])
    def test_first_block_with_a_char_that_is_not_plain_goes_to_the_scanner_unforked(
        self, forks, first_row
    ):
        text = CSV_HEADER + "\n" + "1,2\n" * 5 + first_row + "\n" + "1,2\n" * 40
        with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", 40):
            with mock.patch.object(mwd, "_FORK_MIN_CHARS", 0):
                assert mwd._parse_plain_csv(text) is None
        assert forks == []

    def test_golden_and_small_files_stay_in_one_process(self, forks, data_dir, tmp_path):
        path = tmp_path / "flory.csv"
        save_mwd(generate_flory(28.0, 0.99), path)  # 2,749 rows in about 100,000 characters
        for path in (data_dir / "two_species.csv", path):
            assert mwd._parse_plain_csv(read_text(path)) is not None
        assert forks == []


def species_json(*rows: str, label: str = '"x"') -> str:
    return '{"label": %s, "species": [%s]}' % (label, ", ".join(rows))


GOOD_ROW = '{"molar_mass": 100.5, "abundance": 0.5}'


class TestBulkJsonReader:
    @pytest.mark.parametrize(
        "dataset",
        [
            generate_flory(28.0, 0.999),
            generate_flory(104.37, 0.999),
            generate_poisson(72.5, 1e6),
            generate_lognormal(1e4, 0.5, 50),
        ],
        ids=["flory-integral-m0", "flory", "poisson", "lognormal"],
    )
    def test_bulk_path_and_row_loop_agree_on_generated_files(self, tmp_path, dataset):
        path = tmp_path / "ds.json"
        save_mwd(dataset, path)
        rows = json.loads(read_text(path))["species"]
        columns = mwd._bulk_json_columns(rows)
        assert columns is not None
        scanned = mwd._scan_json_rows(rows)
        assert columns[0].tobytes() == np.array(scanned[0]).tobytes()
        assert columns[1].tobytes() == np.array(scanned[1]).tobytes()
        loaded = mwd.load_mwd(path)
        assert loaded.masses.tobytes() == dataset.masses.tobytes()
        assert loaded.abundances.tobytes() == dataset.abundances.tobytes()

    @pytest.mark.parametrize(
        "text, error",
        [
            (species_json(GOOD_ROW, '{"molar_mass": 28, "abundance": 1}'), None),
            (species_json('{"molar_mass": 28, "abundance": 1}', GOOD_ROW), None),
            (species_json(GOOD_ROW, '{"molar_mass": 2.5, "abundance": true}'),
             "species[1].abundance must be a number"),
            (species_json('{"molar_mass": false, "abundance": 0.5}'),
             "species[0].molar_mass must be a number"),
            (species_json(GOOD_ROW, '{"molar_mass": NaN, "abundance": 0.5}'),
             "species[1].molar_mass must be finite and > 0, got nan"),
            (species_json(GOOD_ROW, '{"molar_mass": 2.5, "abundance": Infinity}'),
             "species[1].abundance must be finite and > 0, got inf"),
            (species_json('{"molar_mass": 1e400, "abundance": 0.5}'),
             "species[0].molar_mass must be finite and > 0, got inf"),
            (species_json(GOOD_ROW, '{"molar_mass": 1%s, "abundance": 0.5}' % ("0" * 400)),
             "species[1].molar_mass must be finite and > 0, "
             "got an integer too large for a double"),
            (species_json(GOOD_ROW, '{"molar_mass": -2.5, "abundance": 0.5}'),
             "species[1].molar_mass must be finite and > 0, got -2.5"),
            (species_json(GOOD_ROW, '{"molar_mass": 2.5, "abundance": 0.0}'),
             "species[1].abundance must be finite and > 0, got 0.0"),
            (species_json(GOOD_ROW, '{"molar_mass": 2.5, "abundance": -0.0}'),
             "species[1].abundance must be finite and > 0, got -0.0"),
            (species_json(GOOD_ROW, '{"molar_mass": "2.5", "abundance": 0.5}'),
             "species[1].molar_mass must be a number"),
            (species_json(GOOD_ROW, '{"molar_mass": null, "abundance": 0.5}'),
             "species[1].molar_mass must be a number"),
            (species_json(GOOD_ROW, '{"molar_mass": [2.5], "abundance": 0.5}'),
             "species[1].molar_mass must be a number"),
            (species_json(GOOD_ROW, '{"molar_mass": 2.5}'),
             "species[1] must be an object with molar_mass and abundance"),
            (species_json('{"abundance": 0.5}', GOOD_ROW),
             "species[0] must be an object with molar_mass and abundance"),
            (species_json(GOOD_ROW, "[2.5, 0.5]"),
             "species[1] must be an object with molar_mass and abundance"),
            (species_json('"molar_mass"', GOOD_ROW),
             "species[0] must be an object with molar_mass and abundance"),
            (species_json(GOOD_ROW, "null"),
             "species[1] must be an object with molar_mass and abundance"),
            (species_json(GOOD_ROW, label="5"), "'label' must be a string when present"),
            (species_json('{"molar_mass": true, "abundance": 0.5}', label="5"),
             "species[0].molar_mass must be a number"),
        ],
    )
    def test_every_other_document_gets_the_row_loops_outcome(self, text, error):
        got = outcome(lambda: mwd._parse_json(text))
        with mock.patch.object(mwd, "_bulk_json_columns", lambda rows: None):
            assert got == outcome(lambda: mwd._parse_json(text))
        if error is None:
            assert got[0] == "ok"
        else:
            assert got == ("error", error)


class TestWrongTypedArguments:
    # every hostile value in each parameter: tests/test_arguments.py
    def test_the_error_names_the_type(self, tmp_path):
        with pytest.raises(DataError, match="^expected MWDataset, got NoneType$"):
            save_mwd(None, tmp_path / "ds.csv")
        with pytest.raises(DataError, match="^expected MeansReport, got MWDataset$"):
            mwd.save_report(generate_lognormal(1e4, 0.5, 4), tmp_path / "report.json")
        with pytest.raises(DataError, match="^expected MWDataset, got NoneType$"):
            plotting.render_svg(None, {})


#: The functions that take a file path, called with ``value`` as the path.
PATH_ARGUMENT_CALLS = {
    "load_mwd": lambda value: mwd.load_mwd(value),
    "save_mwd": lambda value: save_mwd(split_dataset(3), value),
    "save_report": lambda value: mwd.save_report(mwd.polydispersity(split_dataset(3)), value),
}


class _BytesPath:
    """An ``os.PathLike`` that gives bytes, which no path check of the package takes."""

    def __fspath__(self) -> bytes:
        return b"ds.csv"


class TestPathArguments:
    @pytest.mark.parametrize("call", PATH_ARGUMENT_CALLS.values(), ids=PATH_ARGUMENT_CALLS)
    def test_every_hostile_value_but_a_str_gets_a_parameter_error(
        self, tmp_path, monkeypatch, call
    ):
        monkeypatch.chdir(tmp_path)
        refused = 0
        for value in [*HOSTILE, b"ds.csv", _BytesPath()]:
            if isinstance(value, str):
                continue  # a path, of a file that does not exist
            message = f"a path must be a str or os.PathLike, got {type(value).__name__}"
            with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
                call(value)
            refused += 1
        assert refused == len(HOSTILE) + 1
        assert list(tmp_path.iterdir()) == []

    def test_a_missing_file_is_still_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=re.escape(repr(str(tmp_path / "no.csv")))):
            mwd.load_mwd(tmp_path / "no.csv")


_SAMPLE = PositiveSample([1.0, 2.0])
_PAIR = ExponentPair(2.0, 1.0)

class TestWrongTypedSamples:
    # every hostile value in each parameter: tests/test_arguments.py
    def test_every_hostile_moments_value_gets_its_truth_or_a_parameter_error(self):
        refused = []
        for value in HOSTILE:
            try:
                got = means.log_power_sum(_SAMPLE, 1.0, moments=value)
            except ParameterDomainError as exc:
                refused.append(str(exc))
                continue
            # NaN moments compare unequal, their reprs equal
            assert repr(got) == repr(means.log_power_sum(_SAMPLE, 1.0, moments=bool(value)))
        # only the empty array has no truth value
        assert refused == ["moments must be true or false, got ndarray"]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: means.gini_mean(None, _PAIR), "sample 0 must be a PositiveSample, got NoneType"),
            (lambda: means.log_power_sum(1.0, 1.0), "sample 0 must be a PositiveSample, got float"),
            (lambda: audit.scan_monotonicity(object(), [_PAIR]),
             "sample 0 must be a PositiveSample, got object"),
            (lambda: means.gini_mean(_SAMPLE, (2.0, 1.0)),
             "grid entries must be ExponentPair objects, got (2.0, 1.0)"),
            (lambda: audit.check_monotonicity(_SAMPLE, (ExponentPair(1.0, 0.0), _PAIR)),
             "order must be a ParameterOrder, got (ExponentPair(p=1.0, q=0.0), "
             "ExponentPair(p=2.0, q=1.0))"),
        ],
        ids=["sample-None", "sample-float", "sample-object", "pair-tuple", "order-tuple"],
    )
    def test_the_error_names_the_type(self, call, message):
        with pytest.raises(GinikitError, match=f"^{re.escape(message)}$"):
            call()


class TestGeneratorArrays:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda: generate_flory(28.0, 0.9),
            lambda: generate_poisson(28.0, 40.0),
            lambda: mwd.generate_lognormal(1e4, 0.5, 50),
        ],
        ids=["flory", "poisson", "lognormal"],
    )
    def test_generators_hand_over_their_arrays_without_a_copy(self, monkeypatch, generate):
        kept = []
        real = mwd._as_positive_array

        def spy(data, what):
            arr = real(data, what)
            kept.append(arr is data)
            return arr

        monkeypatch.setattr(mwd, "_as_positive_array", spy)
        dataset = generate()
        assert kept == [True, True]
        assert not dataset.masses.flags.writeable
        assert not dataset.abundances.flags.writeable
        # a caller's array is still copied, and stays writeable
        masses = np.array(dataset.masses)
        MWDataset(masses=masses, abundances=dataset.abundances)
        assert kept[-2:] == [False, True]
        assert masses.flags.writeable
