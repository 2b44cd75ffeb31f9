"""The package's one way to fork, ``_util._from_both_ends``.

Its four users (``save_mwd``, ``load_mwd`` on a plain CSV, the ``mwd``
averages and ``equivalence_report``) each run alone, with the bytes or the
summary of one process, when no child can run: with one usable CPU, where
no pipe is made, and when the pipe or the fork raises ``OSError``.
A scan of the source keeps the process calls inside that one function.
"""

from __future__ import annotations

import ast
import contextlib
import errno
import os
from pathlib import Path
from unittest import mock

import pytest

import ginikit
from ginikit import _util, cli, mwd, oracle
from ginikit.mwd import CSV_HEADER, generate_flory, load_mwd, polydispersity, save_mwd

from helpers import ORACLE_GRID, children_left, open_fd_count, split_dataset

#: The calls that start, feed, signal or reap a child process.
PROCESS_CALLS = {"fork", "pipe", "kill", "waitpid"}


def _saved(fmt: str):
    def case(tmp_path: Path):
        dataset = split_dataset(10)
        path = tmp_path / f"distribution.{fmt}"

        def run() -> object:
            save_mwd(dataset, path)
            return path.read_bytes(), sorted(os.listdir(tmp_path))

        patches = [
            mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", 3),
            mock.patch.object(mwd, "_FORK_MIN_ROWS", 0),
        ]
        return run, patches

    return case


def _loaded(tmp_path: Path):
    path = tmp_path / "plain.csv"
    rows = (f"{100.0 + 7.25 * i!r},{1.0 / (i + 1)!r}" for i in range(120))
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")

    def run() -> object:
        dataset = load_mwd(path)
        return dataset.masses.tobytes(), dataset.abundances.tobytes()

    patches = [
        mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", 200),
        mock.patch.object(mwd, "_FORK_MIN_CHARS", 0),
    ]
    return run, patches


def _averaged(tmp_path: Path):
    dataset = generate_flory(28.0, 0.99)
    run = lambda: repr(polydispersity(dataset, 0.7, [(1.5, -1.5)]))
    patches = [mock.patch.object(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))]
    return run, patches


def _referred(tmp_path: Path):
    samples = list(cli._random_samples(1, 8))
    run = lambda: oracle.equivalence_report(samples, ORACLE_GRID)
    return run, [mock.patch.object(oracle, "_FORK_MIN_TERMS", 0)]


#: Each fork user, as a function of a directory that gives the user's call
#: and the patches under which it forks at any size.
USERS = {
    "save_mwd-csv": _saved("csv"),
    "save_mwd-json": _saved("json"),
    "load_mwd": _loaded,
    "averages": _averaged,
    "equivalence_report": _referred,
}


def _run(user, tmp_path: Path) -> object:
    """The user's call under its patches."""
    run, patches = user(tmp_path)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        return run()


class TestNoChild:
    @pytest.mark.parametrize("user", USERS.values(), ids=USERS)
    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_a_pipe_or_fork_that_fails_leaves_the_work_to_this_process(
        self, tmp_path, forks, monkeypatch, user, failing
    ):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        want = _run(user, tmp_path)
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        failed: list[None] = []

        def fail() -> object:
            failed.append(None)
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(os, failing, fail)
        open_fds = open_fd_count()
        assert _run(user, tmp_path) == want
        assert failed and forks == []
        assert open_fd_count() == open_fds
        assert not children_left()

    @pytest.mark.parametrize("user", USERS.values(), ids=USERS)
    def test_one_usable_cpu_makes_no_pipe(self, tmp_path, forks, monkeypatch, user):
        real_pipe = os.pipe
        pipes: list[None] = []

        def recorded_pipe() -> tuple[int, int]:
            pipes.append(None)
            return real_pipe()

        monkeypatch.setattr(os, "pipe", recorded_pipe)
        want = _run(user, tmp_path)  # two usable CPUs: the user forks
        assert len(pipes) == len(forks) == 1
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        assert _run(user, tmp_path) == want
        assert len(pipes) == len(forks) == 1


def _process_calls() -> list[tuple[str, str, tuple[str, ...]]]:
    """Each ``os.fork``, ``os.pipe``, ``os.kill`` or ``os.waitpid`` in the
    package's source, called or not, as its file, name and the functions
    it lies in, outermost first."""
    found = []
    for path in sorted(Path(ginikit.__file__).parent.glob("*.py")):

        def visit(node: ast.AST, within: tuple[str, ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                within = (*within, node.name)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in PROCESS_CALLS
            ):
                found.append((path.name, node.attr, within))
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in PROCESS_CALLS:
                        found.append((path.name, alias.name, within))
            for child in ast.iter_child_nodes(node):
                visit(child, within)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


class TestOneForkPath:
    @pytest.mark.parametrize("name", sorted(PROCESS_CALLS))
    def test_each_process_call_is_made_only_in_from_both_ends(self, name):
        places = {(file, within[:1]) for file, found, within in _process_calls() if found == name}
        assert places == {("_util.py", ("_from_both_ends",))}
