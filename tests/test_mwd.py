"""Molecular-weight distributions: averages, generators, file round-trips."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ginikit import _backend, means, mwd
from ginikit import sample as sample_module
from ginikit.cli import main
from ginikit.errors import DataError, IngestionError, ParameterDomainError
from ginikit.mwd import (
    MWDataset,
    MeansReport,
    effective_parameter_mean,
    generate_flory,
    generate_lognormal,
    generate_poisson,
    hydrodynamic_mean,
    load_mwd,
    number_average,
    polydispersity,
    report_to_json,
    report_to_text,
    save_mwd,
    save_report,
    sedimentation_mean,
    viscosity_average,
    weight_average,
    z_average,
)
from ginikit.means import gini_mean
from ginikit.oracle import oracle_gini
from ginikit.sample import ExponentPair

from helpers import (
    AVERAGE_SPLIT_CASES, SPLIT_SENT, assert_within_ulps, average_split_outcome, child_fault,
    children_left, env_importing_from, generator_chains, split_outcomes_under_both_backends,
    two_cpus,
)


class TestMWDataset:
    def test_construction_from_pairs(self, two_species):
        assert two_species.n == 2
        assert two_species.masses.tolist() == [100.0, 300.0]
        assert two_species.abundances.tolist() == [1.0, 1.0]
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
        masses = [mass for mass, _ in pairs]
        abundances = [abundance for _, abundance in pairs]
        with pytest.raises(DataError):
            MWDataset(masses=masses, abundances=abundances)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            MWDataset(masses=[1.0, 2.0], abundances=[1.0])

    def test_immutable(self, two_species):
        with pytest.raises(AttributeError):
            two_species.label = "other"

    def test_caller_arrays_stay_writeable_and_unaliased(self):
        masses = np.array([100.0, 300.0])
        abundances = np.array([1.0, 2.0])
        ds = MWDataset(masses=masses, abundances=abundances)
        assert masses.flags.writeable and abundances.flags.writeable
        assert not ds.masses.flags.writeable and not ds.abundances.flags.writeable
        assert not np.may_share_memory(ds.masses, masses)
        assert not np.may_share_memory(ds.abundances, abundances)
        masses[0] = 5.0
        assert ds.masses[0] == 100.0


#: Each single-average helper with its parameters and its exponent pair as a
#: function of them, written out here as the reference for ``mwd._AVERAGES``.
HELPER_PAIRS = [
    (number_average, [()], lambda: (1.0, 0.0)),
    (weight_average, [()], lambda: (2.0, 1.0)),
    (z_average, [()], lambda: (3.0, 2.0)),
    (viscosity_average, [(0.3,), (0.7,), (1.0,), (1.9,), (2.0,)], lambda s: (1.0 + s, 1.0)),
    (hydrodynamic_mean, [(0.1,), (0.5,), (0.9,)], lambda b: (1.0, 1.0 - b)),
    (sedimentation_mean, [(0.1,), (0.5,), (0.9,)], lambda b: (2.0 - b, 1.0 - b)),
    (effective_parameter_mean, [()], lambda: (1.5, -1.5)),
]


class TestAverages:
    @pytest.mark.parametrize(
        "helper, params, pair", HELPER_PAIRS, ids=[row[0].__name__ for row in HELPER_PAIRS]
    )
    def test_helper_is_gini_mean_of_its_pair_bitwise(self, two_species, helper, params, pair):
        for dataset in (two_species, generate_flory(28.0, 0.9), generate_lognormal(1e4, 0.8, 50)):
            sample = dataset.to_sample()
            for args in params:
                expected = gini_mean(sample, ExponentPair(*pair(*args)))
                assert helper(dataset, *args).hex() == expected.hex()

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
        quartet = MWDataset(masses=[1.0, 4.0], abundances=[1.0, 1.0])
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
        quartet = MWDataset(masses=[1.0, 4.0], abundances=[1.0, 1.0])
        assert effective_parameter_mean(quartet) == 2.0

    @pytest.mark.parametrize(
        "average, value",
        [
            (viscosity_average, np.float32(0.7)),
            (hydrodynamic_mean, np.float32(0.1)),
            (sedimentation_mean, np.float32(0.1)),
            (lambda dataset, s: polydispersity(dataset, s).Mv, np.float32(0.7)),
        ],
        ids=["Mv", "hydrodynamic", "sedimentation", "report-Mv"],
    )
    def test_a_float32_parameter_acts_as_its_double(self, average, value):
        # 1.0 + s, 1.0 - b and 2.0 - b are float32 sums on a float32 (NEP 50),
        # which would move the exponents off the double the parameter stands for
        dataset = generate_flory(28.0, 0.9)
        assert average(dataset, value).hex() == average(dataset, float(value)).hex()

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

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
    def test_chain_is_gini_mean_of_literal_pairs_bitwise(self, s):
        # an ordered chain is reported exactly as gini_mean computes it
        dataset = generate_flory(28.0, 0.95)
        sample = dataset.to_sample()
        rep = polydispersity(dataset, s=s)
        pairs = {"Mn": (1.0, 0.0), "Mw": (2.0, 1.0), "Mz": (3.0, 2.0), "Mv": (1.0 + s, 1.0)}
        for name, pair in pairs.items():
            assert getattr(rep, name).hex() == gini_mean(sample, ExponentPair(*pair)).hex()

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
        mono = MWDataset(masses=[500.0, 500.0], abundances=[1.0, 3.0])
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

    @pytest.mark.parametrize(
        "entry",
        [(1.0,), 1.0, (1.0, 0.0, 2.0), None, 10**5000],
        ids=["one", "float", "three", "None", "huge-int"],
    )
    def test_malformed_custom_entry_is_a_package_error(self, two_species, entry):
        with pytest.raises(ParameterDomainError, match="custom entries must be exponent pairs"):
            polydispersity(two_species, custom=[(1.5, -1.5), entry])

    @pytest.mark.parametrize("custom", [1.0, None, 3])
    def test_custom_that_is_not_iterable_is_a_package_error(self, two_species, custom):
        message = f"custom must be an iterable of exponent pairs, got {custom!r}"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            polydispersity(two_species, custom=custom)

    def test_custom_entries_are_read_and_fail_in_order(self, two_species, monkeypatch):
        # every entry is read and checked before any mean is formed, so the
        # first entry that forms no pair decides the error, even after a pair
        # that the kernel would refuse on this sample
        with pytest.raises(ParameterDomainError, match="custom entries"):
            polydispersity(two_species, custom=[(1e308, 0.0), (1.0,)])
        with pytest.raises(ParameterDomainError, match="custom entries"):
            polydispersity(two_species, custom=[(1.0,), (math.inf, 0.0)])
        with pytest.raises(ParameterDomainError, match="exponents must be finite"):
            polydispersity(two_species, custom=[(math.inf, 0.0), (1.0,)])
        # a refused entry, from a list or an iterator, builds no sample and
        # makes no kernel call
        calls = []
        for module, name in ((_backend, "exp_moments"), (sample_module, "_sample_batch")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
            )
        entries = [(1.5, -1.5), (1e308, 0.0), 1.0]
        for custom in (entries, iter(entries)):
            with pytest.raises(ParameterDomainError, match=re.escape("got 1.0")):
                polydispersity(two_species, custom=custom)
        assert calls == []
        polydispersity(two_species, custom=iter([(1.5, -1.5)]))
        assert calls[0] == "_sample_batch" and "exp_moments" in calls

    @pytest.mark.parametrize("s", [0.0, 1.5, -1.0])
    def test_report_s_domain(self, two_species, s):
        with pytest.raises(ParameterDomainError):
            polydispersity(two_species, s=s)

    def test_chain_holds_at_extreme_spread(self):
        # rounded on its own, Mz came out 2e-13 below Mw here
        rep = polydispersity(MWDataset(masses=[1e-308, 1e308], abundances=[1.0, 1.0]))
        assert rep.Mn <= rep.Mv <= rep.Mw <= rep.Mz
        assert rep.Mw == 1e308 and rep.Mz == rep.Mw
        assert rep.z_ratio == 1.0 and rep.pdi >= 1.0 and rep.schulz_u >= 0.0

    @pytest.mark.parametrize(
        "computed,reported",
        [
            # (Mn, Mw, Mz, Mv) as evaluated -> as reported
            ((1.0, 3.0, 2.9, 2.0), (1.0, 3.0, 3.0, 2.0)),
            ((1.0, 3.0, 4.0, 0.9), (1.0, 3.0, 4.0, 1.0)),
            ((1.0, 3.0, 4.0, 3.1), (1.0, 3.0, 4.0, 3.0)),
            ((2.0, 1.9, 1.8, 2.5), (2.0, 2.0, 2.0, 2.0)),
            ((1.0, 3.0, 4.0, 2.0), (1.0, 3.0, 4.0, 2.0)),
        ],
    )
    def test_inverted_chain_is_clamped(self, two_species, monkeypatch, computed, reported):
        mn, mw, mz, mv = computed
        by_pair = {(1.0, 0.0): mn, (2.0, 1.0): mw, (3.0, 2.0): mz, (1.7, 1.0): mv}
        # every average of the report is evaluated through the sample's memo
        monkeypatch.setattr(means._PowerSums, "gini", lambda sums, pair: by_pair[(pair.p, pair.q)])
        rep = polydispersity(two_species, s=0.7)
        assert (rep.Mn, rep.Mw, rep.Mz, rep.Mv) == reported
        assert rep.pdi == reported[1] / reported[0]
        assert rep.z_ratio == reported[2] / reported[1]


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
        "tail", [np.float32(1e-7), Fraction(1, 10**7)], ids=["float32", "Fraction"]
    )
    def test_any_real_tail_tolerance_acts_as_its_float(self, tail):
        got = generate_flory(28, 0.5, tail)
        want = generate_flory(28, 0.5, float(tail))
        for a, b in ((got.masses, want.masses), (got.abundances, want.abundances)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
            # positive, but 0.0 as the double the truncation works with
            (100.0, 0.5, Fraction(1, 10**400)),
        ],
    )
    def test_domain(self, m0, x, tail):
        with pytest.raises(ParameterDomainError):
            generate_flory(m0, x, tail)


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail the test if a generator reaches its array allocation."""

    def refuse(*args, **kwargs):
        raise AssertionError("generator allocated its support")

    monkeypatch.setattr(mwd.np, "arange", refuse)
    monkeypatch.setattr(mwd.np, "linspace", refuse)


class TestGeneratorSpeciesCap:
    @pytest.mark.parametrize(
        "generate,args",
        [
            (generate_flory, (28.0, 0.999999999)),  # about 2.8e10 species
            (generate_poisson, (28.0, 1e12)),  # about 2e7 species
            (generate_lognormal, (1e5, 0.4, 10**12)),
        ],
    )
    def test_huge_support_rejected_before_allocation(self, no_allocation, generate, args):
        with pytest.raises(ParameterDomainError, match="species"):
            generate(*args)

    @pytest.mark.parametrize(
        "generate,args",
        [
            (generate_flory, (100.0, 0.5)),
            (generate_poisson, (100.0, 5.0)),
            (generate_lognormal, (1e5, 0.4, 101)),
        ],
    )
    def test_cap_is_inclusive(self, monkeypatch, generate, args):
        count = generate(*args).n
        monkeypatch.setattr(mwd, "MAX_SPECIES", count)
        assert generate(*args).n == count
        monkeypatch.setattr(mwd, "MAX_SPECIES", count - 1)
        with pytest.raises(ParameterDomainError):
            generate(*args)


class TestGeneratorMassRange:
    @pytest.mark.parametrize(
        "generate,args,match",
        [
            (generate_flory, (1e306, 0.9), "largest"),
            (generate_flory, (10**308, 0.9), "largest"),
            (generate_poisson, (1e306, 1e4), "largest"),
            (generate_poisson, (10**308, 5.0), "largest"),
            (generate_lognormal, (1.0, 178.0, 5), "largest"),
            (generate_lognormal, (1e305, 2.0, 5), "largest"),
            (generate_lognormal, (5e-324, 1.0, 5), "smallest"),
            (generate_lognormal, (1e-300, 20.0, 5), "smallest"),
        ],
    )
    def test_mass_outside_the_doubles_rejected_before_allocation(
        self, no_allocation, generate, args, match
    ):
        with pytest.raises(ParameterDomainError, match=f"{match} molar mass"):
            generate(*args)

    @pytest.mark.parametrize(
        "generate,args",
        [(generate_poisson, (28.0, 1e-10)), (generate_flory, (28.0, 0.9, 5e-324))],
    )
    def test_underflowing_tail_is_trimmed(self, generate, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = generate(*args)
        assert (ds.abundances > 0.0).all()
        assert ds.abundances.sum() == pytest.approx(1.0, rel=1e-14)
        # the species kept are a prefix of the untrimmed support
        assert list(ds.masses / args[0]) == list(range(1, ds.n + 1))

    @pytest.mark.parametrize(
        "generate,args",
        [
            (generate_flory, (1e300, 0.5)),
            (generate_poisson, (1e306, 5.0)),
            (generate_lognormal, (1e300, 2.0, 5)),
            (generate_lognormal, (1e-300, 2.0, 5)),
        ],
    )
    def test_representable_extremes_are_kept(self, generate, args):
        ds = generate(*args)
        assert np.isfinite(ds.masses).all() and (ds.masses > 0.0).all()


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


#: Positive, but 0.0 as a double.
BELOW_THE_DOUBLES = Fraction(1, 10**400)


class TestGeneratedChainsAreInOrder:
    """Mn <= Mv <= Mw <= Mz is a theorem, and the report clamps an inversion
    that rounding makes; each generator's output keeps the chain without
    the clamp, Mv rising with s, from m0 = 5e-324 up."""

    def test_every_chain_is_in_order(self):
        rows = generator_chains()
        assert len(rows) == 92
        for model, m0, parameter, chain in rows:
            values = [float.fromhex(x) for x in chain]
            assert values == sorted(values), (model, m0, parameter, values)

    def test_the_compiled_kernel_gives_the_same_chains(self, compiled_src):
        env = env_importing_from(compiled_src, GINIKIT_PURE="0")
        tests_dir = str(Path(__file__).resolve().parent)
        env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
        script = (
            "import json, ginikit, helpers; print(ginikit.backend_name()); "
            "print(json.dumps(helpers.generator_chains()))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        name, rows = done.stdout.splitlines()
        assert name == "compiled"
        # the chains are in order under the compiled kernel because they are
        # the same bits as under this process's kernel
        assert json.loads(rows) == generator_chains()


class TestGeneratorParametersAreDoubles:
    """Each parameter is range-checked as the double the generator computes with."""

    @pytest.mark.parametrize(
        "generate,args,message",
        [
            (generate_flory, (BELOW_THE_DOUBLES, 0.5), "m0 must be a finite real > 0"),
            # below 1, but 1.0 as a double
            (
                generate_flory,
                (28.0, Fraction(10**20 - 1, 10**20)),
                "conversion x must be in (0, 1)",
            ),
            (generate_poisson, (BELOW_THE_DOUBLES, 3.0), "m0 must be a finite real > 0"),
            (generate_poisson, (28.0, BELOW_THE_DOUBLES), "mean_degree must be a finite real > 0"),
            (
                generate_lognormal,
                (BELOW_THE_DOUBLES, 0.5, 11),
                "median_mass must be a finite real > 0",
            ),
        ],
    )
    def test_a_value_out_of_range_as_a_double_is_refused(self, generate, args, message):
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            generate(*args)

    @pytest.mark.parametrize(
        "generate,args",
        [
            (generate_flory, (Fraction(281, 10), Fraction(1, 3))),
            (generate_poisson, (Fraction(281, 10), Fraction(7, 3))),
            (generate_lognormal, (Fraction(1, 3), Fraction(1, 3), 11)),
            (generate_lognormal, (1e5, np.float32(0.3), 11)),
        ],
    )
    def test_an_in_range_real_acts_as_its_float(self, generate, args):
        got = generate(*args)
        want = generate(*(a if isinstance(a, int) else float(a) for a in args))
        assert got.label == want.label
        for a, b in ((got.masses, want.masses), (got.abundances, want.abundances)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        ds = MWDataset(masses=[100.0, 300.0], abundances=[1.0, 2.0], label="sample A")
        path = tmp_path / "ds.json"
        save_mwd(ds, path)
        loaded = load_mwd(path)
        assert loaded.label == "sample A"
        assert list(loaded.masses) == list(ds.masses)
        assert list(loaded.abundances) == list(ds.abundances)

    def test_any_suffix_but_json_is_csv(self, tmp_path):
        ds = MWDataset(masses=[28.0, 1.0000000000000002], abundances=[0.1, 3.33e-7])
        save_mwd(ds, tmp_path / "data.dat")
        save_mwd(ds, tmp_path / "data.csv")
        written = (tmp_path / "data.dat").read_bytes()
        assert written == (tmp_path / "data.csv").read_bytes()
        assert written.startswith(b"molar_mass,abundance\n")
        loaded = load_mwd(tmp_path / "data.dat")
        assert loaded.label == "data"
        assert list(loaded.masses) == list(ds.masses)
        assert list(loaded.abundances) == list(ds.abundances)


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

    def test_blank_lines_before_header_tolerated(self, tmp_path):
        path = self.write(tmp_path, "\n  \nmolar_mass,abundance\n100,1\n300,1\n")
        loaded = load_mwd(path)
        assert list(loaded.masses) == [100.0, 300.0]
        assert list(loaded.abundances) == [1.0, 1.0]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("\n\nmass,amount\n100,1\n", 3),  # the header's own line
            ("\n\nmolar_mass,abundance\n100,1\n200,1,9\n", 5),
            ("\nmolar_mass,abundance\nabc,1\n", 3),
            ("\n\n", 1),  # no header at all
            ("", 1),
        ],
    )
    def test_line_numbers_count_from_the_first_line(self, tmp_path, text, line):
        path = self.write(tmp_path, text)
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert err.value.line == line

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

    @pytest.mark.parametrize("field", ["molar_mass", "abundance"])
    def test_json_integer_too_large_for_a_double(self, tmp_path, capsys, field):
        path = tmp_path / "big.json"
        entry = {"molar_mass": 100, "abundance": 1}
        entry[field] = 10**400
        path.write_text(json.dumps({"species": [entry, entry]}), encoding="utf-8")
        with pytest.raises(IngestionError) as err:
            load_mwd(path)
        assert str(err.value).startswith(f"species[0].{field} must be finite and > 0")
        assert main(["mwd-report", "--input", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {err.value}\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"species": [{"molar_mass": 1' + "0" * 5000 + ', "abundance": 1}]}',
            "[" * 100_000,
        ],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
    )
    def test_json_past_parser_limits(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestionError, match="^malformed JSON: "):
            load_mwd(path)

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
        save_report(rep, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["Mn"] == rep.Mn
        assert payload["pdi"] == rep.pdi
        assert payload["custom"][0]["value"] == rep.custom[0].value

    def test_text_report_round_trips_values(self, tmp_path, two_species):
        rep = polydispersity(two_species)
        path = tmp_path / "report.txt"
        save_report(rep, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        table = dict(line.split(None, 1) for line in lines)
        assert float(table["Mn"]) == rep.Mn
        assert float(table["pdi"]) == rep.pdi

    @pytest.mark.parametrize(
        "name, writer",
        [
            ("r.json", report_to_json),
            ("r.JSON", report_to_json),
            ("r.txt", report_to_text),
            ("r.dat", report_to_text),
        ],
    )
    def test_suffix_picks_the_format(self, tmp_path, two_species, name, writer):
        rep = polydispersity(two_species, custom=[(1.5, -1.5)])
        path = tmp_path / name
        save_report(rep, path)
        assert path.read_bytes() == writer(rep).encode("utf-8")


def assert_average_split_outcome(name: str, joined: bool, outcome: dict) -> None:
    assert outcome["forked"] == outcome["one_process"]
    if name == "too-large-exponent":
        assert outcome["one_process"] == [
            "ParameterDomainError",
            "exponent 1e+308 is too large for this sample: |p| * max|ln a| overflows a double",
        ]
    elif name == "custom-iterator":
        from_iterator, from_list = outcome["one_process"]
        assert from_iterator == from_list
    elif name == "uniform":
        assert "Mn=500.0, Mw=500.0, Mz=500.0, Mv=500.0" in outcome["one_process"]
    else:
        code, stdout, written = outcome["one_process"]
        assert code == 0 and (stdout or written)
    assert outcome["children_left"] is False
    assert outcome["open_fds_added"] == 0
    # a lagging child is killed when this process is done, not waited for
    assert outcome["seconds"] < 30.0
    if joined:
        # the CLI forks for the file's blocks, then for the averages; a child
        # that has sent every log sum leaves this process no kernel call
        want = {
            "too-large-exponent": ([1], 7),
            # each report forks once; a tangent's full call is made here
            "custom-iterator": ([0, 0], 0),
            "custom-tangent": ([0, 0], 1),
            "uniform": ([], 0),
            "child-fails-at-once": ([1, 1], 8),
            "child-fails-after-some": ([1, 1], 8 - SPLIT_SENT),
        }.get(name, ([0, 0], 0))
        assert (outcome["child_statuses"], outcome["computed_here"]) == want


class TestAveragesFromBothEnds:
    """Averages whose sample size times the exponents a child can take
    reaches the backend's ``_FORK_MIN_TERMS`` on two usable CPUs have a
    forked child form their log sums from the last exponent back, while
    this process walks the pairs from the first.  The report and plot
    bytes, or the error, are those of one process, and no child or open
    file is left."""

    @pytest.mark.parametrize(
        "name", [name for name in AVERAGE_SPLIT_CASES if name != "child-lags"]
    )
    def test_child_that_ran_first(self, tmp_path, name):
        outcome = average_split_outcome(name, True, tmp_path)
        assert_average_split_outcome(name, True, outcome)

    @pytest.mark.parametrize("name", AVERAGE_SPLIT_CASES)
    def test_child_running_alongside(self, tmp_path, name):
        outcome = average_split_outcome(name, False, tmp_path)
        assert_average_split_outcome(name, False, outcome)

    def test_both_backends(self, compiled_src, tmp_path):
        runs = split_outcomes_under_both_backends(compiled_src, "averages", tmp_path)
        for rows in runs.values():
            assert len(rows) == 2 * len(AVERAGE_SPLIT_CASES) - 1
            for name, joined, outcome in rows:
                assert_average_split_outcome(name, joined, outcome)
        # the bytes agree across backends too; only the times differ
        assert [row[2]["forked"] for row in runs["compiled"]] == [
            row[2]["forked"] for row in runs["python"]
        ]

    def test_forks_only_at_the_threshold(self, forks, monkeypatch):
        dataset = generate_flory(28.0, 0.9)
        # of the chain's exponents 1, 0, 1.7, 2 and 3 a child can take the last two
        terms = dataset.n * 2
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, terms + 1))
        want = polydispersity(dataset)
        assert forks == []
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, terms))
        assert polydispersity(dataset) == want
        assert len(forks) == 1

    def test_iterator_custom_forks_as_a_list_does(self, forks, monkeypatch):
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))
        dataset = generate_flory(28.0, 0.9)
        want = polydispersity(dataset, custom=[(1.5, -1.5)])
        assert len(forks) == 1
        assert polydispersity(dataset, custom=iter([(1.5, -1.5)])) == want
        assert len(forks) == 2

    def test_refused_custom_entry_raises_before_any_fork(self, forks, monkeypatch):
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))
        dataset = generate_flory(28.0, 0.9)
        with pytest.raises(ParameterDomainError, match=re.escape("got (1.0,)")):
            polydispersity(dataset, custom=[(1.5, -1.5), (1.0,)])
        # an entry is read once: the pair an iterator formed is not read again
        with pytest.raises(ParameterDomainError, match=re.escape("got (1.0,)")):
            polydispersity(dataset, custom=[iter((1.5, -1.5)), (1.0,)])
        # a pair that the kernel would refuse on this sample does not raise first
        with pytest.raises(ParameterDomainError, match=re.escape("got (1.0,)")):
            polydispersity(dataset, custom=[(1e308, 0.0), (1.0,)])
        assert forks == [] and not children_left()

    def test_a_tangent_exponent_is_asked_of_the_child_once(self, monkeypatch):
        # the tangent (2.5, 2.5) keeps no log sum, so S_2.5 is still missing
        # when (2.5, 1) reads it, after the walk has taken S_4 from the
        # child; the child sent S_4 alone, so this process forms S_2.5
        dataset = generate_flory(28.0, 0.9)
        custom = [(2.0, 2.0), (2.5, 2.5), (4.0, 0.0), (2.5, 1.0)]
        want = polydispersity(dataset, custom=custom)
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))
        with child_fault("child-fails-after-some", 1), two_cpus(joined=True) as statuses:
            assert polydispersity(dataset, custom=custom) == want
        assert statuses == [1] and not children_left()

    def test_a_child_can_take_the_exponents_past_the_middle(self, forks, monkeypatch):
        dataset = generate_flory(28.0, 0.9)
        fresh = lambda: mwd._PowerSums(dataset.to_sample())
        # of two exponents a child can take none, whatever the threshold
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))
        sums = fresh()
        assert mwd._evaluate(sums, ["Mw"]) == [weight_average(dataset)]
        # S_1 and S_2 are kept, so only S_0 and S_3 are left
        assert mwd._evaluate(sums, ["Mn", "Mz"]) == [number_average(dataset), z_average(dataset)]
        assert forks == []
        # of three (S_1, S_0, S_2) or four (and S_3) it can take one, of five two
        thresholds = lambda terms: dict.fromkeys(mwd._FORK_MIN_TERMS, terms)
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", thresholds(dataset.n))
        mwd._evaluate(fresh(), ["Mn", "Mw"])
        mwd._evaluate(fresh(), ["Mn", "Mw", "Mz"])
        assert len(forks) == 2
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", thresholds(dataset.n + 1))
        mwd._evaluate(fresh(), ["Mn", "Mw", "Mz"])
        assert len(forks) == 2
        mwd._evaluate(fresh(), ["Mn", "Mv", "Mw", "Mz"], 0.5)
        assert len(forks) == 3 and not children_left()

    def test_small_samples_stay_in_one_process(self, forks, data_dir, capsys):
        assert main(["mwd-report", "--input", str(data_dir / "two_species.csv")]) == 0
        assert capsys.readouterr().out == (data_dir / "golden_report.txt").read_text("utf-8")
        polydispersity(generate_flory(28.0, 0.99), custom=[(1.5, -1.5)])
        assert forks == []
