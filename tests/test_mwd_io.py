"""Distribution files: the block writer and the bulk readers.

``save_mwd`` formats rows a block at a time and must write the same bytes
as the per-row reference writer in ``helpers``.  ``load_mwd`` parses a plain
CSV file, and the rows of a plain JSON file, in bulk and hands every other
text to the row scanner; the two must agree bit for bit, and every error
must be the scanner's.  Every function that takes a dataset or a report
refuses an argument of any other type with a package error.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginikit import _util, mwd, plotting
from ginikit._util import atomic_writer, format_double, read_text
from ginikit.errors import DataError, GinikitError, IngestionError
from ginikit.mwd import (
    CSV_HEADER, MWDataset, generate_flory, generate_lognormal, generate_poisson, save_mwd
)

from helpers import HOSTILE, reference_mwd_text

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
        real_blocks = mwd._row_blocks

        def failing_blocks(ds):
            blocks = real_blocks(ds)
            yield next(blocks)
            yield next(blocks)
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(mwd, "_row_blocks", failing_blocks)
        with pytest.raises(RuntimeError, match="formatting failed"):
            save_mwd(dataset, path)
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


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


#: Every public function that takes a dataset or a report, called with
#: ``value`` in its place and valid arguments everywhere else.
TYPED_ARGUMENT_CALLS = {
    "save_mwd-csv": lambda value, tmp: mwd.save_mwd(value, tmp / "ds.csv"),
    "save_mwd-json": lambda value, tmp: mwd.save_mwd(value, tmp / "ds.json"),
    "polydispersity": lambda value, tmp: mwd.polydispersity(value),
    "number_average": lambda value, tmp: mwd.number_average(value),
    "weight_average": lambda value, tmp: mwd.weight_average(value),
    "z_average": lambda value, tmp: mwd.z_average(value),
    "viscosity_average": lambda value, tmp: mwd.viscosity_average(value, 0.7),
    "hydrodynamic_mean": lambda value, tmp: mwd.hydrodynamic_mean(value, 0.5),
    "sedimentation_mean": lambda value, tmp: mwd.sedimentation_mean(value, 0.5),
    "effective_parameter_mean": lambda value, tmp: mwd.effective_parameter_mean(value),
    "save_report-json": lambda value, tmp: mwd.save_report(value, tmp / "report.json"),
    "save_report-txt": lambda value, tmp: mwd.save_report(value, tmp / "report.txt"),
    "report_to_json": lambda value, tmp: mwd.report_to_json(value),
    "report_to_text": lambda value, tmp: mwd.report_to_text(value),
    "render_svg": lambda value, tmp: plotting.render_svg(value, {"Mn": 100.0}),
    "render_csv": lambda value, tmp: plotting.render_csv(value, {"Mn": 100.0}),
    "histogram_bins": lambda value, tmp: plotting.histogram_bins(value),
}


class TestWrongTypedArguments:
    @pytest.mark.parametrize("call", TYPED_ARGUMENT_CALLS.values(), ids=TYPED_ARGUMENT_CALLS)
    def test_every_hostile_value_gets_a_package_error(self, tmp_path, call):
        for value in HOSTILE:
            with pytest.raises(GinikitError):
                call(value, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_the_error_names_the_type(self, tmp_path):
        with pytest.raises(DataError, match="^expected MWDataset, got NoneType$"):
            save_mwd(None, tmp_path / "ds.csv")
        with pytest.raises(DataError, match="^expected MeansReport, got MWDataset$"):
            mwd.save_report(generate_lognormal(1e4, 0.5, 4), tmp_path / "report.json")
        with pytest.raises(DataError, match="^expected MWDataset, got NoneType$"):
            plotting.render_svg(None, {})


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
