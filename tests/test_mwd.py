"""Molecular-weight distributions: averages, generators, file round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ginikit.errors import DataError, IngestionError, ParameterDomainError
from ginikit.mwd import (
    MWDataset,
    MeansReport,
    Species,
    effective_parameter_mean,
    generate_flory,
    generate_lognormal,
    generate_poisson,
    hydrodynamic_mean,
    load_mwd,
    number_average,
    polydispersity,
    save_mwd,
    save_report,
    sedimentation_mean,
    viscosity_average,
    weight_average,
    z_average,
)
from ginikit.oracle import oracle_gini
from ginikit.sample import ExponentPair

from helpers import assert_within_ulps


class TestMWDataset:
    def test_construction_from_pairs(self, two_species):
        assert two_species.n == 2
        assert two_species.species == (Species(100.0, 1.0), Species(300.0, 1.0))
        assert two_species.label == "two_species"

    def test_to_sample(self, two_species):
        s = two_species.to_sample()
        assert list(s.values) == [100.0, 300.0]
        assert list(s.weights) == [1.0, 1.0]

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(0.0, 1.0)],
            [(-5.0, 1.0)],
            [(100.0, 0.0)],
            [(100.0, -1.0)],
            [(float("nan"), 1.0)],
            [(100.0, float("inf"))],
        ],
    )
    def test_bad_species_rejected(self, pairs):
        with pytest.raises(DataError):
            MWDataset(pairs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            MWDataset(masses=[1.0, 2.0], abundances=[1.0])

    def test_immutable(self, two_species):
        with pytest.raises(AttributeError):
            two_species.label = "other"


class TestAverages:
    def test_two_species_reference(self, two_species):
        # direct ratios: 400/2, (1e4+9e4)/400, (1e6+2.7e7)/1e5, 250/200
        assert number_average(two_species) == pytest.approx(200.0, rel=5e-15)
        assert weight_average(two_species) == pytest.approx(250.0, rel=5e-15)
        assert z_average(two_species) == pytest.approx(280.0, rel=5e-15)

    def test_viscosity_between_mn_and_mw(self, two_species):
        mv = viscosity_average(two_species, 0.5)
        assert number_average(two_species) < mv < weight_average(two_species)
        reference = oracle_gini(two_species.to_sample(), ExponentPair(1.5, 1.0))
        assert mv == pytest.approx(reference, rel=1e-12)

    def test_viscosity_at_one_is_weight_average_bitwise(self, two_species):
        assert viscosity_average(two_species, 1.0) == weight_average(two_species)

    @pytest.mark.parametrize("s", [0.0, -0.5, 2.5, float("nan"), float("inf")])
    def test_viscosity_domain(self, two_species, s):
        with pytest.raises(ParameterDomainError):
            viscosity_average(two_species, s)

    def test_hydrodynamic(self, two_species):
        # {1,4} at b = 0.5: (S_1/S_0.5)^2 = (5/1.5)^... = 25/9
        quartet = MWDataset([(1.0, 1.0), (4.0, 1.0)])
        assert_within_ulps(hydrodynamic_mean(quartet, 0.5), 25.0 / 9.0, 2)
        value = hydrodynamic_mean(two_species, 0.3)
        reference = oracle_gini(two_species.to_sample(), ExponentPair(1.0, 0.7))
        assert value == pytest.approx(reference, rel=1e-12)
        assert number_average(two_species) < value < weight_average(two_species)

    def test_sedimentation(self, two_species):
        value = sedimentation_mean(two_species, 0.5)
        # mpmath: (100^1.5 + 300^1.5) / (100^0.5 + 300^0.5)
        assert value == pytest.approx(226.79491924311228, rel=1e-13)
        # G(2 - b, 1 - b) tends to G(1, 0) = Mn as b approaches 1
        near = sedimentation_mean(two_species, 0.999999)
        assert near == pytest.approx(number_average(two_species), rel=1e-5)

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_calibration_domain(self, two_species, b):
        with pytest.raises(ParameterDomainError):
            hydrodynamic_mean(two_species, b)
        with pytest.raises(ParameterDomainError):
            sedimentation_mean(two_species, b)

    def test_effective_parameter(self):
        quartet = MWDataset([(1.0, 1.0), (4.0, 1.0)])
        assert effective_parameter_mean(quartet) == 2.0

    def test_hydrodynamic_above_number_average_over_b_grid(self, two_species):
        mn = number_average(two_species)
        for b in np.linspace(0.01, 0.99, 50):
            assert hydrodynamic_mean(two_species, float(b)) > mn


class TestPolydispersityReport:
    def test_report_relations(self, two_species):
        rep = polydispersity(two_species)
        assert isinstance(rep, MeansReport)
        assert rep.pdi == rep.Mw / rep.Mn
        assert rep.z_ratio == rep.Mz / rep.Mw
        assert rep.schulz_u == rep.pdi - 1.0
        assert rep.s == 0.7
        assert rep.pdi == pytest.approx(1.25, rel=5e-15)
        assert rep.z_ratio == pytest.approx(1.12, rel=5e-15)

    def test_chain_ordering(self, two_species):
        rep = polydispersity(two_species)
        assert rep.Mn < rep.Mv < rep.Mw < rep.Mz

    def test_chain_over_s_grid(self):
        dataset = generate_flory(100.0, 0.7)
        mn, mw = number_average(dataset), weight_average(dataset)
        mz = z_average(dataset)
        previous = mn
        for s in np.arange(0.1, 1.0, 0.1):
            mv = viscosity_average(dataset, float(s))
            assert mn < mv < mw < mz
            assert mv >= previous
            previous = mv
        assert viscosity_average(dataset, 1.0) == mw

    def test_uniform_dataset_degenerates_to_equalities(self):
        mono = MWDataset([(500.0, 1.0), (500.0, 3.0)])
        rep = polydispersity(mono)
        assert rep.Mn == rep.Mv == rep.Mw == rep.Mz == 500.0
        assert rep.pdi == 1.0
        assert rep.z_ratio == 1.0
        assert rep.schulz_u == 0.0

    def test_custom_entries(self, two_species):
        rep = polydispersity(two_species, custom=[(0.0, 1.0), (1.5, -1.5)])
        assert [(c.p, c.q) for c in rep.custom] == [(1.0, 0.0), (1.5, -1.5)]
        sample = two_species.to_sample()
        for entry in rep.custom:
            assert entry.value == pytest.approx(
                oracle_gini(sample, ExponentPair(entry.p, entry.q)), rel=1e-12
            )

    @pytest.mark.parametrize("s", [0.0, 1.5, -1.0])
    def test_report_s_domain(self, two_species, s):
        with pytest.raises(ParameterDomainError):
            polydispersity(two_species, s=s)


class TestGenerateFlory:
    def test_truncation_below_tolerance(self):
        ds = generate_flory(100.0, 0.5, 1e-12)
        k = ds.n
        assert 0.5**k < 1e-12 <= 0.5 ** (k - 1)
        assert ds.abundances.sum() == pytest.approx(1.0, rel=1e-14)
        assert list(ds.masses[:3]) == [100.0, 200.0, 300.0]

    def test_closed_forms(self):
        ds = generate_flory(100.0, 0.5, 1e-12)
        rep = polydispersity(ds)
        # truncated at 1e-12, so closed forms of the infinite series hold to ~1e-9
        assert rep.Mn == pytest.approx(200.0, rel=1e-9)
        assert rep.pdi == pytest.approx(1.5, rel=1e-6)

    def test_tail_tolerance_shapes_support(self):
        shorter = generate_flory(100.0, 0.5, 1e-6)
        longer = generate_flory(100.0, 0.5, 1e-12)
        assert shorter.n < longer.n

    @pytest.mark.parametrize(
        "m0,x,tail",
        [
            (0.0, 0.5, 1e-12),
            (-10.0, 0.5, 1e-12),
            (100.0, 0.0, 1e-12),
            (100.0, 1.0, 1e-12),
            (100.0, 1.5, 1e-12),
            (100.0, 0.5, 0.0),
            (100.0, 0.5, 1e-3),
        ],
    )
    def test_domain(self, m0, x, tail):
        with pytest.raises(ParameterDomainError):
            generate_flory(m0, x, tail)


class TestGeneratePoisson:
    def test_pdi_formula(self):
        for lam in (0.5, 5.0, 50.0):
            rep = polydispersity(generate_poisson(100.0, lam))
            expected = lam / (1.0 + lam) ** 2
            assert rep.pdi - 1.0 == pytest.approx(expected, rel=1e-9)
            if lam >= 5.0:
                # for long chains the excess dispersity tracks 1/(1+lam)
                assert abs((rep.pdi - 1.0) - 1.0 / (1.0 + lam)) <= 0.2 / (1.0 + lam)

    def test_small_mean_degree_concentrates_at_monomer(self):
        rep = polydispersity(generate_poisson(100.0, 1e-9))
        assert rep.Mn == pytest.approx(100.0, rel=1e-8)
        assert rep.pdi == pytest.approx(1.0, abs=1e-8)

    def test_masses_are_multiples_of_m0(self):
        ds = generate_poisson(50.0, 3.0)
        assert np.allclose(ds.masses / 50.0, np.round(ds.masses / 50.0))
        assert ds.masses.min() >= 50.0

    @pytest.mark.parametrize("m0,lam", [(0.0, 1.0), (100.0, 0.0), (100.0, -2.0)])
    def test_domain(self, m0, lam):
        with pytest.raises(ParameterDomainError):
            generate_poisson(m0, lam)


class TestGenerateLognormal:
    def test_grid_and_median(self):
        ds = generate_lognormal(1e5, 0.5, 101)
        assert ds.n == 101
        assert ds.masses[50] == 1e5  # z = 0 sits exactly on the grid
        rep = polydispersity(ds)
        assert rep.pdi == pytest.approx(math.exp(0.25), rel=5e-3)

    def test_sigma_zero_is_monodisperse(self):
        ds = generate_lognormal(1000.0, 0.0, 5)
        rep = polydispersity(ds)
        assert rep.pdi == 1.0
        assert rep.Mn == 1000.0

    @pytest.mark.parametrize("median,sigma,n", [(0.0, 1.0, 5), (10.0, -0.1, 5), (10.0, 1.0, 1)])
    def test_domain(self, median, sigma, n):
        with pytest.raises(ParameterDomainError):
            generate_lognormal(median, sigma, n)


class TestFileRoundTrips:
    def test_csv_round_trip_bit_identical(self, tmp_path, two_species):
        path = tmp_path / "ds.csv"
        save_mwd(two_species, path)
        loaded = load_mwd(path)
        assert list(loaded.masses) == list(two_species.masses)
        assert list(loaded.abundances) == list(two_species.abundances)

    def test_csv_round_trip_awkward_doubles(self, tmp_path):
        ds = MWDataset(
            masses=[1.0000000000000002, 9.87654321e12, 3.33e-7],
            abundances=[0.1, 0.30000000000000004, 123.456],
        )
        path = tmp_path / "awkward.csv"
        save_mwd(ds, path)
        loaded = load_mwd(path)
        assert list(loaded.masses) == list(ds.masses)
        assert list(loaded.abundances) == list(ds.abundances)

    def test_json_round_trip_with_label(self, tmp_path):
        ds = MWDataset([(100.0, 1.0), (300.0, 2.0)], label="sample A")
        path = tmp_path / "ds.json"
        save_mwd(ds, path)
        loaded = load_mwd(path)
        assert loaded.label == "sample A"
        assert list(loaded.masses) == list(ds.masses)
        assert list(loaded.abundances) == list(ds.abundances)

    def test_format_override(self, tmp_path, two_species):
        path = tmp_path / "data.dat"
        save_mwd(two_species, path, format="json")
        loaded = load_mwd(path, format="json")
        assert loaded.n == 2

    def test_unknown_format_rejected(self, tmp_path, two_species):
        with pytest.raises(ParameterDomainError):
            save_mwd(two_species, tmp_path / "x.csv", format="xml")
        save_mwd(two_species, tmp_path / "x.csv")
        with pytest.raises(ParameterDomainError):
            load_mwd(tmp_path / "x.csv", format="xml")


class TestIngestionErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "mass,amount\n100,1\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 1

    def test_negative_mass_names_line(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\n-5,1\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\n100,1\n200,1,9\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 3

    def test_non_numeric_mass(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\nabc,1\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 2

    def test_zero_abundance(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\n100,0\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 2

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\n")
        with pytest.raises(IngestionError):
            load_mwd(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = self.write(tmp_path, "molar_mass,abundance\n\n100,1\n\n300,1\n")
        assert load_mwd(path).n == 2

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"species": [\n  {"molar_mass": 100,,}\n]}', encoding="utf-8")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 2

    def test_json_missing_species(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"label": "x"}', encoding="utf-8")
        with pytest.raises(IngestionError):
            load_mwd(path)

    def test_json_bad_entry_names_index(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"species": [{"molar_mass": 100.0, "abundance": 1.0}, {"molar_mass": "x", "abundance": 1.0}]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert "species[1]" in str(err.value)

    def test_non_utf8_csv_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"molar_mass,abundance\n100,1\n\xff00,1\n")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 3
        assert "0xff" in str(err.value)

    def test_non_utf8_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"species": [\r\n  {"label": "\xc3"}]}')
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == 2

    def test_crlf_csv_reads_like_lf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"molar_mass,abundance\r\n100,1\r\n300,1\r\n")
        assert load_mwd(path).n == 2


class TestReportSerialization:
    def test_json_report_full_precision(self, tmp_path, two_species):
        rep = polydispersity(two_species, custom=[(1.5, -1.5)])
        path = tmp_path / "report.json"
        save_report(rep, path, format="json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["Mn"] == rep.Mn
        assert payload["pdi"] == rep.pdi
        assert payload["custom"][0]["value"] == rep.custom[0].value

    def test_text_report_round_trips_values(self, tmp_path, two_species):
        rep = polydispersity(two_species)
        path = tmp_path / "report.txt"
        save_report(rep, path, format="text")
        lines = path.read_text(encoding="utf-8").splitlines()
        table = dict(line.split(None, 1) for line in lines)
        assert float(table["Mn"]) == rep.Mn
        assert float(table["pdi"]) == rep.pdi

    def test_bad_format(self, tmp_path, two_species):
        with pytest.raises(ParameterDomainError):
            save_report(polydispersity(two_species), tmp_path / "r.x", format="yaml")
