"""Histogram binning and deterministic SVG/CSV rendering."""

from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ginikit.cli import main
from ginikit.errors import DataError, ParameterDomainError
from ginikit.mwd import MWDataset, generate_lognormal, load_mwd
from ginikit.plotting import histogram_bins, render_csv, render_svg


class TestHistogramBins:
    def test_bin_count_and_mass_conservation(self):
        ds = generate_lognormal(1e4, 0.6, 200)
        edges, fractions = histogram_bins(ds)
        assert len(edges) == len(fractions) + 1
        assert len(fractions) == 40
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)

    def test_edges_cover_all_masses(self):
        ds = generate_lognormal(1e4, 0.6, 200)
        edges, _ = histogram_bins(ds)
        assert edges[0] <= ds.masses.min()
        assert edges[-1] >= ds.masses.max()
        assert np.all(np.diff(edges) > 0)

    def test_monodisperse_single_bin(self):
        ds = MWDataset(masses=[500.0, 500.0], abundances=[2.0, 3.0])
        edges, fractions = histogram_bins(ds)
        assert len(fractions) == 1
        assert fractions[0] == 1.0
        assert edges[0] < 500.0 < edges[1]

    def test_two_species_fractions(self, two_species):
        _, fractions = histogram_bins(two_species)
        # equal abundances: half the mass fraction in the first bin,
        # half in the last, nothing in between
        assert fractions[0] == pytest.approx(0.5)
        assert fractions[-1] == pytest.approx(0.5)
        assert fractions[1:-1].sum() == 0.0


class TestRenderCsv:
    def test_structure(self, two_species):
        text = render_csv(two_species, {"Mn": 200.0, "Mw": 250.0})
        lines = text.splitlines()
        assert lines[0] == "bin_low,bin_high,abundance_fraction"
        blank = lines.index("")
        assert blank == 41  # header + 40 bins
        assert lines[blank + 1] == "mark,value"
        assert lines[blank + 2] == "Mn,200"
        assert lines[blank + 3] == "Mw,250"
        assert text.endswith("\n")

    def test_marks_sorted_by_value(self, two_species):
        text = render_csv(two_species, {"Mw": 250.0, "Mn": 200.0, "Mz": 280.0})
        tail = text.splitlines()[-3:]
        assert tail == ["Mn,200", "Mw,250", "Mz,280"]

    def test_deterministic(self, two_species):
        marks = {"Mn": 199.99999999999991, "Mw": 250.0000000000001}
        assert render_csv(two_species, marks) == render_csv(two_species, marks)

    def test_no_marks(self, two_species):
        lines = render_csv(two_species, {}).splitlines()
        assert lines[-1] == "mark,value"


class TestRenderSvg:
    def test_deterministic(self, two_species):
        marks = {"Mn": 199.99999999999991, "Mw": 250.0000000000001}
        assert render_svg(two_species, marks) == render_svg(two_species, marks)

    def test_well_formed(self, two_species):
        svg = render_svg(two_species, {"Mn": 200.0})
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count("<svg") == svg.count("</svg>") == 1

    def test_marker_lines_in_value_order(self, two_species):
        svg = render_svg(two_species, {"Mw": 250.0, "Mn": 200.0, "Mz": 280.0})
        dashed = [line for line in svg.splitlines() if "stroke-dasharray" in line]
        assert len(dashed) == 3
        xs = [float(line.split('x1="')[1].split('"')[0]) for line in dashed]
        assert xs == sorted(xs)

    def test_legend_entries(self, two_species):
        svg = render_svg(two_species, {"Mn": 200.0, "Mw": 250.5})
        assert "Mn = 200<" in svg
        assert "Mw = 250.5<" in svg

    def test_title_from_label_with_escaping(self):
        ds = MWDataset(masses=[100.0, 300.0], abundances=[1.0, 1.0], label="a<b & c>d")
        svg = render_svg(ds, {})
        assert "a&lt;b &amp; c&gt;d" in svg
        assert "a<b" not in svg

    def test_default_title(self):
        ds = MWDataset(masses=[100.0, 300.0], abundances=[1.0, 1.0])
        assert "molecular weight distribution" in render_svg(ds, {})

    def test_axis_ticks_cover_decades(self):
        ds = MWDataset(masses=[10.0, 1e6], abundances=[1.0, 1.0])
        svg = render_svg(ds, {})
        for decade in range(1, 7):
            assert f">1e{decade}</text>" in svg

    def test_monodisperse_renders(self):
        ds = MWDataset(masses=[500.0], abundances=[1.0])
        svg = render_svg(ds, {"Mn": 500.0})
        assert svg.count("<rect") == 2  # background + the one bar

    def test_unknown_mark_gets_fallback_color(self, two_species):
        svg = render_svg(two_species, {"G(1.5,-1.5)": 220.0})
        assert "#636363" in svg


class TestMarks:
    @pytest.mark.parametrize("render", [render_csv, render_svg], ids=["csv", "svg"])
    @pytest.mark.parametrize(
        "marks, message",
        [
            ([("Mn", 100.0)], "marks must be a mapping of names to masses, got list"),
            ({1: 100.0}, "mark names must be str, got 1"),
            ({"Mn": 100.0, "Mw": 0.0}, "mark Mw must be a mass > 0, got 0.0"),
            ({"Mn": math.inf}, "mark Mn must be a mass > 0, got inf"),
            ({"Mn": "100"}, "mark Mn must be a mass > 0, got '100'"),
        ],
        ids=["list", "name", "zero", "inf", "str"],
    )
    def test_marks_that_are_no_masses_are_a_parameter_error(
        self, two_species, render, marks, message
    ):
        with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
            render(two_species, marks)

    @pytest.mark.parametrize("render", [render_csv, render_svg], ids=["csv", "svg"])
    def test_the_dataset_is_checked_first(self, render):
        with pytest.raises(DataError, match="^expected MWDataset, got NoneType$"):
            render(None, None)

    def test_a_mark_of_another_real_type_acts_as_its_double(self, two_species):
        marks = {"Mn": np.float64(150.0), "Mw": Fraction(250)}
        doubles = {"Mn": 150.0, "Mw": 250.0}
        for render in (render_csv, render_svg):
            assert render(two_species, marks) == render(two_species, doubles)


#: Distributions at the top of the double range, as CSV rows, and the bars
#: each plot draws: a bin edge past the largest double, a monodisperse bin
#: whose upper edge is past it, and abundances whose sum overflows.
TOP_OF_THE_RANGE = {
    "edge-past-the-largest-double": (["1,1", "1.7976931348623157e308,1"], 2),
    "monodisperse-at-the-largest-double": (
        ["1.7976931348623157e308,1", "1.7976931348623157e308,1"], 1
    ),
    "abundance-sum-overflows": (["1,1e308", "2,1e308", "3,5e307"], 3),
}


class TestTopOfTheDoubleRange:
    @pytest.mark.parametrize("suffix", [".svg", ".csv"])
    @pytest.mark.parametrize("name", TOP_OF_THE_RANGE)
    def test_plot_has_finite_edges_whole_fractions_and_bars(self, tmp_path, capsys, name, suffix):
        rows, bars = TOP_OF_THE_RANGE[name]
        path = tmp_path / "distribution.csv"
        path.write_text("molar_mass,abundance\n" + "\n".join(rows) + "\n")
        out = tmp_path / f"plot{suffix}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot", "--input", str(path), "--out", str(out)]) == 0
            edges, fractions = histogram_bins(load_mwd(path))
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)
        assert math.fsum(fractions) == pytest.approx(1.0, abs=1e-15)
        assert np.count_nonzero(fractions) == bars
        text = out.read_text()
        if suffix == ".svg":
            assert text.count('fill="#4393c3"') == bars
        else:
            table = [line.split(",") for line in text.split("\n\n")[0].splitlines()[1:]]
            assert [float(low) for low, _, _ in table] == edges[:-1].tolist()
            assert float(table[-1][1]) == edges[-1]
            assert sum(float(fraction) > 0.0 for _, _, fraction in table) == bars
