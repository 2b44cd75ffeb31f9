"""CLI subcommands: golden output, exit codes, file handling."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ginikit.cli as cli
import ginikit.oracle as oracle
from ginikit import _backend, _util, means, mwd
from ginikit._util import read_text
from ginikit.audit import AuditVerdict, ParameterOrder, scan_monotonicity
from ginikit.errors import ParameterDomainError
from ginikit.cli import main
from ginikit.means import gini_mean
from ginikit.mwd import load_mwd, polydispersity
from ginikit.oracle import oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

from helpers import (
    env_importing_from, oracle_error_outcomes, outcomes_under_both_backends, two_cpus,
    verify_oracle_outcomes,
)


def run_cli(*argv):
    return main(list(argv))


def kernel_calls(monkeypatch, *argv) -> int:
    """The number of kernel calls one CLI call makes; the call must exit 0."""
    calls = Counter()
    kernel = _backend.exp_moments

    def counted(*args):
        calls["exp_moments"] += 1
        return kernel(*args)

    monkeypatch.setattr(_backend, "exp_moments", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(*argv) == 0
    return calls["exp_moments"]


class TestMean:
    def test_gini_positional(self, capsys):
        assert run_cli("mean", "1", "7", "--p", "2", "--q", "0") == 0
        assert capsys.readouterr().out == "4.999999999999999\n"

    def test_power_equals_gini_with_zero_q(self, capsys):
        run_cli("mean", "1", "7", "2.5", "--p", "3", "--q", "0")
        via_gini = capsys.readouterr().out
        run_cli("mean", "1", "7", "2.5", "--r", "3")
        via_power = capsys.readouterr().out
        assert via_gini == via_power

    def test_lehmer(self, capsys):
        assert run_cli("mean", "1", "2", "--lehmer", "1") == 0
        assert capsys.readouterr().out == "1.4999999999999998\n"

    def test_values_file(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("1\n7\n", encoding="utf-8")
        assert run_cli("mean", "--input", str(path), "--p", "2", "--q", "0") == 0
        assert capsys.readouterr().out == "4.999999999999999\n"

    def test_weighted_values_file(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("2,3\n8,1\n", encoding="utf-8")
        assert run_cli("mean", "--input", str(path), "--p", "1", "--q", "0") == 0
        assert capsys.readouterr().out == "3.4999999999999996\n"

    def test_distribution_file_accepted(self, data_dir, capsys):
        path = str(data_dir / "two_species.csv")
        assert run_cli("mean", "--input", path, "--p", "1", "--q", "0") == 0
        assert capsys.readouterr().out == "199.99999999999991\n"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dist.csv", "molar_mass,abundance\n100,1\n300,1\n"),
            ("dist.csv", "molar_mass,abundance\n 100 , 1\n\n300,1\n"),  # scanned row by row
            ("dist.csv", "\n \nmolar_mass,abundance\n100,1\n300,1\n"),  # header after blanks
            ("vals.txt", "100\n300\n"),
            ("dist.json", '{"species": [{"molar_mass": 100, "abundance": 1},'
                          ' {"molar_mass": 300, "abundance": 1}]}'),
        ],
        ids=[
            "distribution-csv", "distribution-csv-not-plain", "distribution-csv-blank-lead",
            "values", "json",
        ],
    )
    def test_input_file_is_read_once(self, tmp_path, monkeypatch, capsys, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        reads = []

        def counting_read_text(target):
            reads.append(target)
            return read_text(target)

        monkeypatch.setattr(cli, "read_text", counting_read_text)
        monkeypatch.setattr(mwd, "read_text", counting_read_text)
        assert run_cli("mean", "--input", str(path), "--p", "1", "--q", "0") == 0
        assert capsys.readouterr().out == "199.99999999999991\n"
        assert len(reads) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("mean", "1", "2"),  # no selector
            ("mean", "1", "2", "--p", "1"),  # --p without --q
            ("mean", "1", "2", "--p", "1", "--q", "0", "--r", "2"),  # two selectors
            ("mean", "1", "2", "--r", "2", "--lehmer", "1"),
            ("mean", "--p", "1", "--q", "0"),  # no sample at all
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 2
        capsys.readouterr()

    def test_values_and_input_conflict(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("1\n", encoding="utf-8")
        assert run_cli("mean", "3", "--input", str(path), "--r", "1") == 2
        capsys.readouterr()

    def test_nonpositive_value_is_data_error(self, capsys):
        assert run_cli("mean", "--", "-1", "2", "--r", "1") == 2  # argparse rejects -1
        assert run_cli("mean", "0", "2", "--r", "1") == 1
        capsys.readouterr()

    def test_bad_sample_line_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("1\nfoo\n", encoding="utf-8")
        assert run_cli("mean", "--input", str(path), "--r", "1") == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,line",
        [("1\nnan\n", 2), ("1\n\ninf\n", 3), ("2,-inf\n", 1), ("1\n0,1\n", 2)],
    )
    def test_unusable_number_in_values_file_names_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "vals.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli("mean", "--input", str(path), "--r", "1") == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("1\x0c\n2\n5,x\n", "line 3: could not parse numbers from '5,x'"),
            ("1\x0b\x1c\x1d\x1e\x85\u2028\u2029\n0\n", "line 2: value must be finite and > 0, got 0"),
            ("\x0c\n\x85\n", "line 2: no values found"),
            ("\n\n", "line 2: no values found"),
            ("", "line 1: no values found"),
        ],
    )
    def test_only_newlines_end_a_values_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "vals.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli("mean", "--input", str(path), "--r", "1") == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_non_finite_exponent(self, capsys):
        assert run_cli("mean", "1", "2", "--r", "inf") == 2
        capsys.readouterr()

    def test_overflowing_exponent_is_one_error_line(self, capsys):
        # p * ln 1000 overflows a double: no nan, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("mean", "1", "1000", "--r", "1e308") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("1", "2", "--p=1e308", "--q=-1e308"), "1.414213562373095\n"),
            (
                ("2.718281828459045", "7.38905609893065", "--p=8e307", "--q=-8e307"),
                "4.4816890703380645\n",
            ),
        ],
    )
    def test_overflowing_differences(self, argv, want, capsys):
        assert run_cli("mean", *argv) == 0
        assert capsys.readouterr().out == want


class TestMwdReport:
    def test_text_golden(self, data_dir, capsys):
        code = run_cli("mwd-report", "--input", str(data_dir / "two_species.csv"))
        assert code == 0
        golden = (data_dir / "golden_report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_json_golden(self, data_dir, capsys):
        code = run_cli(
            "mwd-report", "--input", str(data_dir / "two_species.csv"),
            "--format", "json",
        )
        assert code == 0
        golden = (data_dir / "golden_report.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_json_matches_library(self, data_dir, capsys):
        run_cli(
            "mwd-report", "--input", str(data_dir / "two_species.csv"),
            "--format", "json",
        )
        payload = json.loads(capsys.readouterr().out)
        report = polydispersity(load_mwd(data_dir / "two_species.csv"))
        assert payload["Mn"] == report.Mn
        assert payload["Mz"] == report.Mz
        assert payload["pdi"] == report.pdi

    def test_custom_pairs_in_text(self, data_dir, capsys):
        run_cli(
            "mwd-report", "--input", str(data_dir / "two_species.csv"),
            "--custom", "1.5:-1.5",
        )
        assert "G(1.5,-1.5)" in capsys.readouterr().out

    def test_calibration_block(self, data_dir, capsys):
        run_cli(
            "mwd-report", "--input", str(data_dir / "two_species.csv"), "--b", "0.5"
        )
        out = capsys.readouterr().out
        assert "G(1,0.5)" in out
        assert "G(1.5,0.5)" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ("--custom", "1.5"),
            ("--custom", "a:b"),
            ("--b", "1.5"),
            ("--b", "0"),
            ("--s", "0"),
            ("--s", "1.5"),
        ],
    )
    def test_usage_errors(self, data_dir, extra, capsys):
        argv = ("mwd-report", "--input", str(data_dir / "two_species.csv")) + extra
        assert run_cli(*argv) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("mwd-report", "--input", str(tmp_path / "nope.csv")) == 1
        capsys.readouterr()

    @staticmethod
    def report_and_plot(tmp_path: Path) -> list[tuple[list[str], list[float]]]:
        """The end-to-end benchmark's mwd_report op, each call with the
        exponents whose S_p it needs: the report's 7 pairs at 0, 1, 1.7, 2,
        3, 0.5, 1.5 and -1.5, the plot's 4 marks at 0, 1, 1.7, 2 and 3;
        then the chain alone at s = 1, where Mv is Mw, at 0, 1, 2 and 3."""
        path = tmp_path / "flory.csv"
        mwd.save_mwd(mwd.generate_flory(28.0, 0.99), path)
        report = ["mwd-report", "--input", str(path), "--b", "0.5"]
        report += ["--custom", "1.5:-1.5", "--format", "json"]
        plot = ["plot", "--input", str(path), "--out", str(tmp_path / "flory.svg")]
        chain = ["mwd-report", "--input", str(path), "--s", "1"]
        return [
            (report, [1.0, 0.0, 1.7, 2.0, 3.0, 0.5, 1.5, -1.5]),
            (plot, [1.0, 0.0, 1.7, 2.0, 3.0]),
            (chain, [1.0, 0.0, 2.0, 3.0]),
        ]

    def test_one_kernel_call_per_distinct_exponent(self, tmp_path, monkeypatch):
        # the calls are counted in this process, so every log sum is formed here
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        for argv, exponents in self.report_and_plot(tmp_path):
            assert kernel_calls(monkeypatch, *argv) == len(exponents)

    @pytest.mark.parametrize("joined", [True, False], ids=["child-ran-first", "alongside"])
    def test_forked_twin_forms_each_log_sum_once(self, tmp_path, monkeypatch, joined):
        # with a child forming log sums from the last exponent back, the
        # kernel calls made here and the log sums taken from the child cover
        # each exponent once
        monkeypatch.setattr(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0))
        kernel, keep = _backend.exp_moments, means._PowerSums.keep
        for argv, exponents in self.report_and_plot(tmp_path):
            here: list[float] = []
            taken: list[float] = []
            monkeypatch.setattr(
                _backend, "exp_moments", lambda *args: here.append(args[2]) or kernel(*args)
            )
            monkeypatch.setattr(
                means._PowerSums, "keep", lambda sums, p, s: taken.append(p) or keep(sums, p, s)
            )
            with two_cpus(joined) as statuses, contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(*argv) == 0
            assert sorted(here + taken) == sorted(exponents)
            assert statuses == ([0] if joined else [])
            if joined:
                assert here == []

    @pytest.mark.parametrize(
        "custom,message",
        [
            (["1e308:0"], "exponent 1e+308 is too large for this sample: "
                          "|p| * max|ln a| overflows a double"),
            # every pair is checked before the kernel refuses one
            (["1e308:0", "inf:0"], "exponents must be finite, got p=inf, q=0.0"),
        ],
        ids=["too-large", "then-infinite"],
    )
    def test_too_large_custom_exponent(self, data_dir, capsys, custom, message):
        argv = ["mwd-report", "--input", str(data_dir / "two_species.csv")]
        for spec in custom:
            argv += ["--custom", spec]
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("molar_mass,abundance\n-1,1\n", encoding="utf-8")
        assert run_cli("mwd-report", "--input", str(path)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_header_after_blank_lines(self, data_dir, tmp_path, capsys):
        path = tmp_path / "two_species.csv"
        text = (data_dir / "two_species.csv").read_text(encoding="utf-8")
        path.write_text("\n\n" + text, encoding="utf-8")
        assert run_cli("mwd-report", "--input", str(path)) == 0
        golden = (data_dir / "golden_report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_header_after_blank_lines_keeps_file_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("\n\nmolar_mass,abundance\n100,1\n-1,1\n", encoding="utf-8")
        assert run_cli("mwd-report", "--input", str(path)) == 1
        err = capsys.readouterr().err
        assert err == "error: line 5: molar_mass must be finite and > 0, got -1\n"


class TestVerify:
    def test_file_audit_passes(self, data_dir, capsys):
        code = run_cli("verify", "--input", str(data_dir / "two_species.csv"))
        assert code == 0
        out = capsys.readouterr().out
        assert "checks=5 holds=5 weak=0 degenerate=0 failed=0" in out
        assert out.count("HOLDS") == 5

    def test_margin_within_rounding_of_zero_reads_weak(self, tmp_path, capsys):
        # at 1e-308 and 1e308 the high exponents put nearly all the weight on
        # the larger value, so G(2,1) and G(3,2) round to adjacent doubles
        # and their margin lies within the tolerance below zero: WEAK, not
        # FAIL.  Item 1's tie-pair grid still fails by far more than that
        path = tmp_path / "wide.csv"
        path.write_text("molar_mass,abundance\n1e-308,1\n1e308,1\n", encoding="utf-8")
        assert run_cli("verify", "--input", str(path)) == 0
        out = capsys.readouterr().out
        assert "G(2,1) -> G(3,2)  WEAK       margin=-2.273737e-13\n" in out
        assert out.endswith("checks=5 holds=5 weak=1 degenerate=0 failed=0\n")
        assert run_cli("verify", "--random", "1", "20", "--grid", "2:2,2.0000000596046448:2") == 3
        assert capsys.readouterr().out.endswith("holds=14 weak=0 degenerate=0 failed=6\n")

    def test_uniform_input_degenerates(self, tmp_path, capsys):
        path = tmp_path / "mono.csv"
        path.write_text("molar_mass,abundance\n500,1\n500,2\n", encoding="utf-8")
        assert run_cli("verify", "--input", str(path)) == 0
        out = capsys.readouterr().out
        assert "degenerate=5 failed=0" in out
        assert "DEGENERATE" in out

    @pytest.mark.parametrize("grid", [None, "1:0,40:0"])
    def test_oracle_domain_checked_before_the_audit(self, tmp_path, capsys, grid):
        # too many species for the oracle, or an exponent beyond its bound:
        # the command fails before it prints or writes anything
        path = tmp_path / ("wide.csv" if grid is None else "two.csv")
        report = tmp_path / "report.json"
        assert run_cli(
            "generate", "lognormal", "--median", "1e4", "--sigma", "1",
            "--n", "2000" if grid is None else "2", "--out", str(path),
        ) == 0
        argv = ["verify", "--input", str(path), "--oracle", "--report", str(report)]
        assert run_cli(*argv, *(["--grid", grid] if grid else [])) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: sample size 2000 exceeds the oracle cap of 1024\n"
            if grid is None
            else "error: |exponents| must be <= 30.0 for the oracle, got (40.0, 0.0)\n"
        )
        assert not report.exists()

    def test_random_audit(self, capsys):
        assert run_cli("verify", "--random", "7", "3") == 0
        out = capsys.readouterr().out
        assert "checks=15" in out
        assert "failed=0" in out

    def test_check_lines_name_each_link(self, capsys):
        # one line per link of each chain, labelled by its two pairs, for
        # both chains of the default grid and for a --grid chain
        assert run_cli("verify", "--random", "7", "1") == 0
        assert capsys.readouterr().out == (
            "sample 0000  G(1,-1) -> G(1,0)  HOLDS      margin=4.260846e+00\n"
            "sample 0000  G(1,0) -> G(2,0)  HOLDS      margin=1.042599e+00\n"
            "sample 0000  G(2,0) -> G(2,1)  HOLDS      margin=1.042599e+00\n"
            "sample 0000  G(2,1) -> G(3,2)  HOLDS      margin=4.443934e-01\n"
            "sample 0000  G(1.5,-1.5) -> G(2,0)  HOLDS      margin=5.352015e+00\n"
            "checks=5 holds=5 weak=0 degenerate=0 failed=0\n"
        )
        assert run_cli("verify", "--random", "7", "2", "--grid", "1e-3:-2,0.5:-1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:37] for line in lines[:2]] == [
            "sample 0000  G(0.001,-2) -> G(0.5,-1)",
            "sample 0001  G(0.001,-2) -> G(0.5,-1)",
        ]

    def test_random_audit_call_counts(self, monkeypatch, capsys):
        # the default grid's 10 secant slopes per sample take two power sums
        # each, one kernel call per power sum.  The end-to-end benchmark's
        # tracer self-test pins the same counts on the same op, so a change
        # to them is made together with that pin.  The 200 samples are built
        # by one batch, which runs no PositiveSample.__init__.
        counts = Counter()
        batches = []
        real_batch = cli._sample_batch

        def batch(values, weights, lengths, *rest):
            batches.append(len(lengths))
            return real_batch(values, weights, lengths, *rest)

        monkeypatch.setattr(cli, "_sample_batch", batch)

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            means, "log_power_sum", counting("log_power_sum", means.log_power_sum)
        )
        monkeypatch.setattr(
            _backend, "exp_moments", counting("exp_moments", _backend.exp_moments)
        )
        monkeypatch.setattr(
            PositiveSample, "__init__", counting("PositiveSample", PositiveSample.__init__)
        )
        assert run_cli("verify", "--random", "3", "200") == 0
        capsys.readouterr()
        # no "PositiveSample" key: 0 calls
        assert dict(counts) == {"log_power_sum": 4000, "exp_moments": 4000}
        assert batches == [200]

    def test_random_oracle_call_counts(self, monkeypatch):
        # the oracle's fast side forms one power sum per distinct exponent of
        # the default grid (7 per sample) in the sample's memo, and the audit
        # reads its 20 from that memo, so it makes no kernel call of its own
        assert kernel_calls(monkeypatch, "verify", "--random", "7", "100", "--oracle") == 700

    def test_random_is_deterministic(self, capsys):
        run_cli("verify", "--random", "42", "2")
        first = capsys.readouterr().out
        run_cli("verify", "--random", "42", "2")
        assert capsys.readouterr().out == first

    def test_report_payload(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run_cli(
            "verify", "--random", "7", "3", "--report", str(out_path)
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["all_passed"] is True
        assert payload["source"] == "random(seed=7, n=3)"
        assert payload["summary"]["checks"] == 15
        assert len(payload["checks"]) == 15
        assert payload["oracle"] is None
        first = payload["checks"][0]
        assert set(first) == {
            "sample", "lower", "upper", "holds", "degenerate",
            "weak", "margin", "tolerance",
        }

    def test_report_keeps_worst_oracle_case(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert run_cli("verify", "--random", "7", "3", "--oracle") == 0
        plain = capsys.readouterr().out
        code = run_cli(
            "verify", "--random", "7", "3", "--oracle", "--report", str(out_path)
        )
        assert code == 0
        assert capsys.readouterr().out == plain
        oracle = json.loads(out_path.read_text(encoding="utf-8"))["oracle"]
        worst = oracle["worst"]
        assert set(worst) == {"sample", "p", "q", "rel_error"}
        assert worst["rel_error"] == oracle["max_rel_error"] > 0.0
        sample = cli._random_samples(7, 3)[worst["sample"]]
        pair = ExponentPair(worst["p"], worst["q"])
        reference = oracle_gini(sample, pair)
        assert abs(gini_mean(sample, pair) - reference) / reference == worst["rel_error"]

    def test_oracle_cross_check(self, capsys):
        code = run_cli("verify", "--random", "3", "2", "--oracle")
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle:" in out
        assert "-> ok" in out

    def test_default_grid_is_its_literal_chains(self):
        assert cli.DEFAULT_GRID_CHAINS == (
            ((1.0, -1.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (3.0, 2.0)),
            ((1.5, -1.5), (2.0, 0.0)),
        )
        pairs = [pair for chain in cli.DEFAULT_GRID_CHAINS for pair in chain]
        assert all(type(pair) is tuple for pair in pairs)
        assert all(type(x) is float for pair in pairs for x in pair)

    def test_default_chains_pass_the_order_hypothesis(self):
        assert cli._parse_grid("default") == [
            [ExponentPair(*pair) for pair in chain] for chain in cli.DEFAULT_GRID_CHAINS
        ]
        for chain in cli.DEFAULT_GRID_CHAINS:
            for lower, upper in zip(chain, chain[1:]):
                order = ParameterOrder(ExponentPair(*lower), ExponentPair(*upper))
                assert (order.lower.p, order.lower.q) == lower
                assert (order.upper.p, order.upper.q) == upper

    @pytest.mark.parametrize(
        "grid, message",
        [
            (
                "1:-1,1:0,2:0,2:1,3:2,2.5:2",
                "upper pair must dominate componentwise: (2.5, 2.0) does not dominate (3.0, 2.0)",
            ),
            ("1:0,1:0", "at least one component must increase strictly"),
            ("1:1,2:0", "upper pair must dominate componentwise: (2.0, 0.0) does not dominate (1.0, 1.0)"),
            ("inf:0,2:0", "exponents must be finite, got p=inf, q=0.0"),
            # links are checked in order, each after the pair that ends it
            (
                "2:0,1:0,inf:0",
                "upper pair must dominate componentwise: (1.0, 0.0) does not dominate (2.0, 0.0)",
            ),
            ("1:0,2:0,inf:0", "exponents must be finite, got p=inf, q=0.0"),
        ],
    )
    def test_broken_grid_is_refused_before_any_sample(self, grid, message, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work was done before the grid was checked")

        monkeypatch.setattr(cli, "_random_samples", never)
        monkeypatch.setattr(oracle, "equivalence_report", never)
        monkeypatch.setattr(cli, "PositiveSample", never)
        monkeypatch.setattr(cli, "_sample_batch", never)
        code = run_cli("verify", "--random", "1", "3000", "--grid", grid, "--oracle")
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")

    def test_broken_grid_wins_over_a_bad_source(self, tmp_path, capsys):
        # the grid is checked before the seed and before the input file
        grid = ("--grid", "2:0,1:0")
        want = "error: upper pair must dominate componentwise: (1.0, 0.0) does not dominate (2.0, 0.0)\n"
        for source in (("--random", "-1", "5"), ("--input", str(tmp_path / "missing.csv"))):
            assert run_cli("verify", *source, *grid) == 2
            assert capsys.readouterr().err == want

    def test_grid_echo_is_canonical(self, tmp_path, capsys):
        # a pair given as p < q is echoed as the pair it labels and checks
        out_path = tmp_path / "r.json"
        code = run_cli(
            "verify", "--random", "7", "1", "--grid", "0:1,2:1", "--report", str(out_path)
        )
        assert code == 0
        assert "G(1,0) -> G(2,1)" in capsys.readouterr().out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["grid"] == [[[1.0, 0.0], [2.0, 1.0]]]
        assert payload["checks"][0]["lower"] == [1.0, 0.0]

    def test_tie_pairs_in_the_grid(self, capsys):
        code = run_cli("verify", "--random", "1", "1", "--grid", "1:0,1:1,2:1")
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("sample ")]
        assert [line.split()[2:6] for line in lines] == [
            ["G(1,0)", "->", "G(1,1)", "HOLDS"],
            ["G(1,1)", "->", "G(2,1)", "HOLDS"],
        ]

    def test_custom_grid(self, data_dir, capsys):
        code = run_cli(
            "verify", "--input", str(data_dir / "two_species.csv"),
            "--grid", "1:0,2:1,3:2",
        )
        assert code == 0
        assert "checks=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify",),  # neither source
            ("verify", "--random", "1", "2", "--input", "x.csv"),  # both
            ("verify", "--random", "1", "0"),  # bad count
            ("verify", "--random", "-1", "5"),  # negative seed
            ("verify", "--random", "1", "100001"),  # count past the cap
            ("verify", "--random", "1", "2", "--grid", "2:0"),  # one pair only
            ("verify", "--random", "1", "2", "--grid", "1:0,abc"),
            ("verify", "--random", "1", "2", "--grid", "2:0,1:0"),  # not increasing
            ("verify", "--random", "1", "2", "--grid", "1:0,,2:0"),
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("count", [cli.MAX_RANDOM_SAMPLES + 1, 10**30])
    def test_random_count_past_the_cap_is_one_error_line(self, count, capsys, monkeypatch):
        # refused before any sample is built
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was built")

        monkeypatch.setattr(cli, "PositiveSample", no_sample)
        monkeypatch.setattr(cli, "_sample_batch", no_sample)
        assert run_cli("verify", "--random", "1", str(count)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: sample count must be <= 100000, got {count}\n"

    def test_error_on_a_later_sample_keeps_the_earlier_lines(self, capsys):
        # the grid's second exponent overflows |p| * max|ln a| only on the
        # first sample whose max |ln a| beats every earlier sample's (sample
        # 3 of seed 2).  Each line before the error still goes out; the bytes
        # are the ones the command printed when it wrote one line at a time.
        samples = cli._random_samples(2, 8)
        largest = [sample._max_abs_log_value for sample in samples]
        late = next(i for i in range(1, 8) if largest[i] > max(largest[:i]))
        exponent = sys.float_info.max / math.sqrt(largest[late] * max(largest[:late]))
        assert (late, exponent) == (3, 2.834641996018895e+307)
        assert math.isfinite(exponent * max(largest[:late]))
        assert not math.isfinite(exponent * largest[late])
        assert run_cli("verify", "--random", "2", "8", "--grid", f"1:0,{exponent!r}:0") == 2
        out, err = capsys.readouterr()
        link = "G(1,0) -> G(2.834641996018895e+307,0)"
        assert out == (
            f"sample 0000  {link}  HOLDS      margin=1.948012e+00\n"
            f"sample 0001  {link}  HOLDS      margin=1.050826e+00\n"
            f"sample 0002  {link}  HOLDS      margin=1.114111e+00\n"
        )
        assert err == (
            "error: exponent 2.834641996018895e+307 is too large for this sample: "
            "|p| * max|ln a| overflows a double\n"
        )

    def test_error_in_a_later_chain_keeps_the_sample_s_earlier_lines(self, capsys, monkeypatch):
        # a scan's lines are written together; if a sample's second chain
        # raises, the lines of its first chain still go out before the error
        assert run_cli("verify", "--random", "4", "3") == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        real, scans = cli.scan_monotonicity, []

        def faulty(sample, chain, **memo):
            scans.append(sample)
            if len(scans) == 4:
                raise ParameterDomainError("no audit here")
            return real(sample, chain, **memo)

        monkeypatch.setattr(cli, "scan_monotonicity", faulty)
        assert run_cli("verify", "--random", "4", "3") == 2
        out, err = capsys.readouterr()
        assert out == "".join(lines[:9])
        assert out.endswith("G(2,1) -> G(3,2)  HOLDS      margin=" + lines[8].split("=")[1])
        assert err == "error: no audit here\n"

    def test_failed_check_exits_three(self, data_dir, capsys, monkeypatch):
        def always_fails(sample, chain):
            return [
                AuditVerdict(holds=False, margin=-0.5, degenerate=False, tolerance=1e-12)
                for _ in range(len(chain) - 1)
            ]

        monkeypatch.setattr(cli, "scan_monotonicity", always_fails)
        code = run_cli("verify", "--input", str(data_dir / "two_species.csv"))
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in out
        assert "failed=5" in out

    def test_failed_check_still_writes_report(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def always_fails(sample, chain):
            return [
                AuditVerdict(holds=False, margin=-0.5, degenerate=False, tolerance=1e-12)
                for _ in range(len(chain) - 1)
            ]

        monkeypatch.setattr(cli, "scan_monotonicity", always_fails)
        out_path = tmp_path / "report.json"
        code = run_cli(
            "verify", "--input", str(data_dir / "two_species.csv"),
            "--report", str(out_path),
        )
        capsys.readouterr()
        assert code == 3
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["all_passed"] is False
        assert payload["summary"]["failed"] == 5

    @pytest.mark.parametrize(
        "rows, source, exit_codes",
        [
            (None, ("--random", "7", "3", "--oracle"), {0}),
            (None, ("--random", "7", "2", "--grid", "1e-3:-2,0.5:-1,1:0"), {0}),
            # uniform: every check is degenerate
            ("500,1\n500,2\n", (), {0}),
            # a WEAK row of negative margin, within the tolerance of zero
            # (ROADMAP item 4 step 0), so the audit exits 0
            ("1e-308,1\n1e308,1\n", (), {0}),
        ],
    )
    def test_report_is_laid_out_as_json_dumps(self, tmp_path, capsys, rows, source, exit_codes):
        if rows is None:
            samples = cli._random_samples(int(source[1]), int(source[2]))
        else:
            path = tmp_path / "input.csv"
            path.write_text("molar_mass,abundance\n" + rows, encoding="utf-8")
            source = ("--input", str(path))
            samples = [load_mwd(path).to_sample()]
        out_path = tmp_path / "report.json"
        assert run_cli("verify", *source, "--report", str(out_path)) in exit_codes
        capsys.readouterr()
        text = out_path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        # each row holds its verdict's values, and writes every float as one
        grid = source[source.index("--grid") + 1] if "--grid" in source else "default"
        want = []
        for index, sample in enumerate(samples):
            for pairs in cli._parse_grid(grid):
                for link, verdict in enumerate(scan_monotonicity(sample, pairs)):
                    lower, upper = pairs[link], pairs[link + 1]
                    want.append({
                        "sample": index, "lower": [lower.p, lower.q],
                        "upper": [upper.p, upper.q], "holds": verdict.holds,
                        "degenerate": verdict.degenerate, "weak": verdict.weak,
                        "margin": verdict.margin, "tolerance": verdict.tolerance,
                    })
        assert json.dumps(json.loads(text)["checks"]) == json.dumps(want)


class TestVerifyOracleOverlap:
    """``verify --oracle`` checks the oracle's domain of every sample and pair
    first, then forms each sample's fast values, audit, lines and report
    rows while a forked child computes references from the last sample
    back, and walks the references from the front only after that."""

    @staticmethod
    def assert_overlap(runs: dict) -> None:
        one = runs["one_process"]
        assert one["code"] == 0 and one["stdout"].endswith("failed=0\n")
        assert one["stdout"].splitlines()[-2].startswith("oracle: cases=600 ")
        for name, run in runs.items():
            got = [run["code"], run["stdout"], run["report"]]
            assert got == [one["code"], one["stdout"], one["report"]], name
            # two chains per sample, each scanned before any reference is formed here
            assert run["audits"] == run["audits_first"] == 200, name
        assert one["references_here"] == 100
        assert runs["joined"]["child_statuses"] == [0]
        assert runs["joined"]["references_here"] == 0

    @staticmethod
    def assert_errors(outcome: dict) -> None:
        values = "oracle accepts values in [1e-30, 1e+30], got range [1.0, 1e+31]"
        grid = "error: |exponents| must be <= 30.0 for the oracle, got (40.0, 0.0)\n"
        for cpus in (1, 2):
            # sample 3 is refused before the fast side reaches sample 20
            assert outcome[f"later_fast_side-{cpus}"] == ["OracleDomainError", values]
            # a pair that both sides refuse gets the fast side's error
            assert outcome[f"both_sides-{cpus}"] == ["ParameterDomainError", "the fast side refused"]
            # no audit line and no report
            assert outcome[f"grid-{cpus}"] == [1, "", grid, False]

    def test_forked_runs_match_one_process(self, tmp_path):
        self.assert_overlap(verify_oracle_outcomes(tmp_path))

    def test_domain_errors_keep_their_order(self, tmp_path):
        self.assert_errors(oracle_error_outcomes(tmp_path))

    def test_both_backends(self, compiled_src, tmp_path):
        workdir = f"pathlib.Path({str(tmp_path)!r})"
        runs = outcomes_under_both_backends(compiled_src, f"verify_oracle_outcomes({workdir})")
        for backend_runs in runs.values():
            self.assert_overlap(backend_runs)
        assert runs["compiled"]["one_process"] == runs["python"]["one_process"]
        errors = outcomes_under_both_backends(compiled_src, f"oracle_error_outcomes({workdir})")
        for outcome in errors.values():
            self.assert_errors(outcome)


class TestGenerate:
    def test_flory(self, tmp_path, capsys):
        out = tmp_path / "flory.csv"
        code = run_cli(
            "generate", "flory", "--m0", "100", "--x", "0.5", "--out", str(out)
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        ds = load_mwd(out)
        assert ds.n == 40
        assert ds.masses[0] == 100.0

    def test_poisson_json(self, tmp_path):
        out = tmp_path / "poisson.json"
        code = run_cli(
            "generate", "poisson", "--m0", "100", "--mean-degree", "5",
            "--out", str(out),
        )
        assert code == 0
        ds = load_mwd(out)
        assert ds.label.startswith("poisson(")

    def test_lognormal_then_report(self, tmp_path, capsys):
        out = tmp_path / "logn.csv"
        assert run_cli(
            "generate", "lognormal", "--median", "1e5", "--sigma", "0.4",
            "--n", "101", "--out", str(out),
        ) == 0
        assert run_cli("mwd-report", "--input", str(out)) == 0
        assert "pdi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "flory", "--m0", "100", "--x", "1.5", "--out", "f.csv"),
            ("generate", "flory", "--m0", "-1", "--x", "0.5", "--out", "f.csv"),
            ("generate", "poisson", "--m0", "100", "--mean-degree", "0", "--out", "p.csv"),
            ("generate", "flory", "--m0", "28", "--x", "0.999999999", "--out", "f.csv"),
            ("generate", "poisson", "--m0", "28", "--mean-degree", "1e12", "--out", "p.csv"),
            ("generate", "lognormal", "--median", "1", "--sigma", "1", "--n", "1000000000000", "--out", "l.csv"),
            ("generate", "lognormal", "--median", "1", "--sigma", "-1", "--n", "5", "--out", "l.csv"),
            ("generate", "lognormal", "--median", "1", "--sigma", "1", "--n", "1", "--out", "l.csv"),
            # a molar mass beyond the largest double, or below the smallest
            ("generate", "lognormal", "--median", "1", "--sigma", "178", "--n", "5", "--out", "l.csv"),
            ("generate", "flory", "--m0", "1e306", "--x", "0.9", "--out", "f.csv"),
            ("generate", "lognormal", "--median", "5e-324", "--sigma", "1", "--n", "5", "--out", "l.csv"),
        ],
    )
    def test_domain_errors(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("poisson", "--m0", "28", "--mean-degree", "1e-10"),
            ("flory", "--m0", "28", "--x", "0.9", "--tail", "5e-324"),
        ],
        ids=["poisson", "flory"],
    )
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_underflowing_tail_is_trimmed(self, argv, suffix, tmp_path, capsys):
        out = tmp_path / f"d{suffix}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("generate", *argv, "--out", str(out)) == 0
        assert capsys.readouterr() == ("", "")
        model = mwd.generate_poisson if argv[0] == "poisson" else mwd.generate_flory
        want = model(*(float(a) for a in argv[2::2]))
        got = load_mwd(out)
        assert got.masses.tobytes() == want.masses.tobytes()
        assert got.abundances.tobytes() == want.abundances.tobytes()
        assert (got.abundances > 0.0).all()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "f.csv"
        code = run_cli(
            "generate", "flory", "--m0", "100", "--x", "0.5", "--out", str(out)
        )
        assert code == 1
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv,name",
    [
        (("verify", "--random", "1", "3", "--report"), "r.json"),
        (("generate", "flory", "--m0", "28", "--x", "0.5", "--out"), "f.csv"),
        (("plot", "--input", "INPUT", "--out"), "p.svg"),
    ],
    ids=["verify", "generate", "plot"],
)
def test_write_into_a_missing_directory_names_the_path(
    argv, name, data_dir, tmp_path, capsys
):
    # the error names the path given, not the random name of the temp file
    # that the write could not create beside it
    target = tmp_path / "missing" / name
    argv = [str(data_dir / "two_species.csv") if a == "INPUT" else a for a in argv]
    assert run_cli(*argv, str(target)) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == []



def test_write_over_a_directory_names_the_path(tmp_path, capsys):
    # the rename over the directory fails; the error names the path given
    # and the temp file is gone
    target = tmp_path / "taken"
    target.mkdir()
    assert run_cli("verify", "--random", "1", "3", "--report", str(target)) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == [target]


class TestPlot:
    def test_svg_golden(self, data_dir, tmp_path):
        out = tmp_path / "plot.svg"
        code = run_cli(
            "plot", "--input", str(data_dir / "two_species.csv"), "--out", str(out)
        )
        assert code == 0
        assert out.read_bytes() == (data_dir / "golden_plot.svg").read_bytes()

    def test_csv_golden(self, data_dir, tmp_path):
        out = tmp_path / "plot.csv"
        code = run_cli(
            "plot", "--input", str(data_dir / "two_species.csv"), "--out", str(out)
        )
        assert code == 0
        assert out.read_bytes() == (data_dir / "golden_plot.csv").read_bytes()

    def test_mark_subset(self, data_dir, tmp_path):
        out = tmp_path / "plot.csv"
        run_cli(
            "plot", "--input", str(data_dir / "two_species.csv"),
            "--out", str(out), "--marks", "Mn,Mz",
        )
        tail = out.read_text(encoding="utf-8").splitlines()[-3:]
        assert tail[0] == "mark,value"
        assert tail[1].startswith("Mn,")
        assert tail[2].startswith("Mz,")

    @pytest.mark.parametrize("s", ["0.7", "1.5"])
    def test_marks_keep_the_chain_at_the_top_of_the_range(self, tmp_path, s):
        # the log-domain rounding puts Mz a few ulps below Mw on this file;
        # the marks are clamped into the chain as the report's averages are
        path = tmp_path / "wide.csv"
        path.write_text("molar_mass,abundance\n1,1\n1.7976931348623157e308,1\n", encoding="utf-8")
        chain = ["Mn", "Mv", "Mw", "Mz"] if s == "0.7" else ["Mn", "Mw", "Mv", "Mz"]
        out = tmp_path / "plot.csv"

        def marks(*extra: str) -> dict[str, float]:
            argv = ["plot", "--input", str(path), "--out", str(out), "--s", s, *extra]
            assert run_cli(*argv) == 0
            rows = out.read_text(encoding="utf-8").splitlines()
            pairs = (row.split(",") for row in rows[rows.index("mark,value") + 1 :])
            return {name: float(value) for name, value in pairs}

        got = marks()
        values = [got[name] for name in chain]
        assert values == sorted(values)
        assert got["Mz"] == got["Mw"] == 1.7976931348622732e308
        assert marks("--marks", "Mz") == {"Mz": got["Mz"]}
        if s == "0.7":
            report = polydispersity(load_mwd(path), 0.7)
            assert got == {name: getattr(report, name) for name in chain}

    def test_monodisperse_least_subnormal(self, tmp_path):
        # both edges of the one bin round to the mass; the top goes one double up
        path = tmp_path / "tiny.csv"
        path.write_text("molar_mass,abundance\n5e-324,1\n5e-324,1\n", encoding="utf-8")
        csv, svg = tmp_path / "plot.csv", tmp_path / "plot.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for out in (csv, svg):
                assert run_cli("plot", "--input", str(path), "--out", str(out)) == 0
        assert csv.read_text(encoding="utf-8").splitlines()[1] == "5e-324,1e-323,1"
        bars = re.findall(r'<rect x="[^"]*" y="[^"]*" width="([^"]*)"', svg.read_text("utf-8"))
        assert len(bars) == 1 and float(bars[0]) > 0.0

    def test_no_marks(self, data_dir, tmp_path):
        out = tmp_path / "plot.csv"
        run_cli(
            "plot", "--input", str(data_dir / "two_species.csv"),
            "--out", str(out), "--marks", "",
        )
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "mark,value"

    @pytest.mark.parametrize(
        "argv_extra",
        [
            ("--out", "plot.png"),
            ("--out", "plot.svg", "--marks", "Mn,Bogus"),
            ("--out", "plot.svg", "--s", "0"),
        ],
    )
    def test_usage_errors(self, data_dir, tmp_path, argv_extra, capsys):
        argv = ["plot", "--input", str(data_dir / "two_species.csv")] + [
            str(tmp_path / a) if a.startswith("plot.") else a for a in argv_extra
        ]
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("marks", ["Mn,Mv,Mw,Mz", "Mz", "Mv,Mn", "Mw,Mw"])
    def test_one_sample_per_run(self, data_dir, tmp_path, monkeypatch, marks):
        built = []
        init = PositiveSample.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PositiveSample, "__init__", counting_init)
        out = tmp_path / "plot.csv"
        code = run_cli(
            "plot", "--input", str(data_dir / "two_species.csv"),
            "--out", str(out), "--marks", marks,
        )
        assert code == 0
        assert len(built) == 1

    def test_marks_are_the_library_averages(self, data_dir, tmp_path):
        out = tmp_path / "plot.csv"
        path = data_dir / "two_species.csv"
        assert run_cli("plot", "--input", str(path), "--out", str(out), "--s", "1.5") == 0
        dataset = load_mwd(path)
        expected = {
            "Mn": mwd.number_average(dataset),
            "Mv": mwd.viscosity_average(dataset, 1.5),
            "Mw": mwd.weight_average(dataset),
            "Mz": mwd.z_average(dataset),
        }
        rows = out.read_text(encoding="utf-8").splitlines()
        marks = dict(row.split(",") for row in rows[rows.index("mark,value") + 1 :])
        assert {name: float(value) for name, value in marks.items()} == expected

    @pytest.mark.parametrize(
        "input_name, extra, code, message",
        [
            # a bad mark name is a usage error before the file is read
            ("missing.csv", ("--marks", "Mn,Bogus"), 2,
             "error: unknown mark 'Bogus'; choose from Mn, Mv, Mw, Mz"),
            # then an unreadable file is a data error, bad --s or not
            ("missing.csv", ("--s", "0"), 1, "error: [Errno 2]"),
            ("bad.csv", ("--s", "0"), 1, "error: line 2: could not parse numbers"),
            # a bad --s is a usage error only when Mv is requested
            ("good.csv", ("--s", "0"), 2,
             "error: viscosity exponent s must be in (0, 2], got 0.0"),
            ("good.csv", ("--s", "2.5", "--marks", "Mz,Mv"), 2,
             "error: viscosity exponent s must be in (0, 2], got 2.5"),
            ("good.csv", ("--s", "0", "--marks", "Mn,Mw,Mz"), 0, ""),
            ("good.csv", ("--s", "nan", "--marks", ""), 0, ""),
        ],
    )
    def test_error_precedence(self, tmp_path, capsys, input_name, extra, code, message):
        good = "molar_mass,abundance\n100,1\n300,1\n"
        (tmp_path / "good.csv").write_text(good, encoding="utf-8")
        (tmp_path / "bad.csv").write_text("molar_mass,abundance\nnope,1\n", encoding="utf-8")
        out = tmp_path / "plot.svg"
        argv = ["plot", "--input", str(tmp_path / input_name), "--out", str(out), *extra]
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and (code == 0) == (err == "")
        assert out.exists() == (code == 0)

    def test_failed_run_leaves_existing_output_untouched(self, tmp_path, capsys):
        bad_input = tmp_path / "bad.csv"
        bad_input.write_text("molar_mass,abundance\nnope,1\n", encoding="utf-8")
        out = tmp_path / "plot.svg"
        out.write_text("sentinel", encoding="utf-8")
        code = run_cli("plot", "--input", str(bad_input), "--out", str(out))
        capsys.readouterr()
        assert code == 1
        assert out.read_text(encoding="utf-8") == "sentinel"


class TestNonUtf8Input:
    """Undecodable input bytes are a data error (exit 1), not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("mwd-report", "--input", "{csv}"),
            ("plot", "--input", "{csv}", "--out", "{out}"),
            ("verify", "--input", "{csv}"),
            ("verify", "--input", "{json}"),
            ("mean", "--input", "{txt}", "--r", "1"),
        ],
    )
    def test_clean_error_line(self, tmp_path, argv, capsys):
        paths = {
            "csv": tmp_path / "bad.csv",
            "json": tmp_path / "bad.json",
            "txt": tmp_path / "bad.txt",
            "out": tmp_path / "plot.svg",
        }
        paths["csv"].write_bytes(b"molar_mass,abundance\n100,1\n\xe9,1\n")
        paths["json"].write_bytes(b'{"species": [\n  {"molar_mass": "\xe9"}]}')
        paths["txt"].write_bytes(b"1\n2\n\xe9\n")
        assert run_cli(*(a.format(**paths) for a in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ")
        assert "invalid UTF-8 byte 0xe9" in err
        assert not paths["out"].exists()


class TestEntryPoints:
    def test_module_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "ginikit", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "mwd-report" in out.stdout

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.skipif(shutil.which("ginikit") is None, reason="script not on PATH")
    def test_console_script(self):
        out = subprocess.run(
            ["ginikit", "mean", "1", "7", "--p", "2", "--q", "0"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout == "4.999999999999999\n"

    def test_only_the_oracle_imports_mpmath(self, data_dir):
        # one fresh interpreter, in order: once loaded, mpmath stays loaded
        script = f"""
import contextlib, io, json, sys
import ginikit
from ginikit import cli
steps = [["import ginikit", "mpmath" in sys.modules]]
for argv in (
    ["mean", "1", "7", "--p", "2", "--q", "0"],
    ["mwd-report", "--input", {str(data_dir / "two_species.csv")!r}],
    ["verify", "--random", "1", "2", "--oracle"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, "mpmath" in sys.modules])
from ginikit import EquivalenceSummary, equivalence_report, oracle_gini
from ginikit import oracle
served = (EquivalenceSummary, equivalence_report, oracle_gini)
steps.append(["served", served == tuple(getattr(oracle, n.__name__) for n in served)])
print(json.dumps(steps))
"""
        src = Path(cli.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env_importing_from(src),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [
            ["import ginikit", False],
            ["mean", 0, False],
            ["mwd-report", 0, False],
            ["verify", 0, True],
            ["served", True],
        ]

    def test_golden_report_independent_of_backend(self, data_dir, compiled_src):
        golden = (data_dir / "golden_report.txt").read_bytes()
        for pure in ("0", "1"):
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            out = subprocess.run(
                [
                    sys.executable, "-m", "ginikit", "mwd-report",
                    "--input", str(data_dir / "two_species.csv"),
                ],
                capture_output=True,
                env=env,
            )
            assert out.returncode == 0
            assert out.stdout == golden

    def test_golden_plot_independent_of_backend(self, data_dir, tmp_path, compiled_src):
        golden = (data_dir / "golden_plot.svg").read_bytes()
        for pure in ("0", "1"):
            out_path = tmp_path / f"plot{pure}.svg"
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            out = subprocess.run(
                [
                    sys.executable, "-m", "ginikit", "plot",
                    "--input", str(data_dir / "two_species.csv"),
                    "--out", str(out_path),
                ],
                capture_output=True,
                env=env,
            )
            assert out.returncode == 0
            assert out_path.read_bytes() == golden


#: The commands that read a user's file, with ``{path}`` for the file.
INGEST_COMMANDS = (
    ("mwd-report", "--input", "{path}"),
    ("mean", "--input", "{path}", "--r", "1"),
    ("verify", "--input", "{path}"),
)

_json_scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
_species_entries = st.fixed_dictionaries(
    {"molar_mass": _json_scalars, "abundance": _json_scalars}
)
_species_documents = st.fixed_dictionaries(
    {"species": st.lists(_species_entries, max_size=6)},
    optional={"label": _json_values},
)
#: Arbitrary JSON, and JSON shaped like a distribution, which gets past the
#: top-level checks.
json_documents = (_json_values | _species_documents).map(lambda doc: json.dumps(doc).encode())

_csv_fields = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=6)
#: Arbitrary bytes, and text shaped like a distribution or values file.
file_bytes = st.binary(max_size=120) | st.builds(
    lambda header, rows: "\n".join([header, *rows]).encode(),
    st.sampled_from(["molar_mass,abundance", ""]),
    st.lists(st.lists(_csv_fields, min_size=1, max_size=3).map(",".join), max_size=8),
)


#: Argument lists that ``main`` answers from its parser alone: the help of
#: every subcommand and model, and malformed calls of each kind.
PARSER_ONLY_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["frobnicate"], ["--bogus"], ["-5", "verify"],
    *([name, "-h"] for name in ("mean", "mwd-report", "verify", "generate", "plot")),
    *(["generate", model, "--help"] for model in ("flory", "poisson", "lognormal")),
    ["verify", "--random", "1", "2", "-h"],
    ["mean", "--p", "x"],
    ["mean", "1", "--lehmer"],
    ["mwd-report"],
    ["mwd-report", "--input", "a.csv", "--format", "xml"],
    ["mwd-report", "--input", "a.csv", "extra"],
    ["verify", "--random", "1"],
    ["verify", "--random", "a", "b"],
    ["verify", "--random", "1", "2", "3"],
    ["verify", "--oracle=yes"],
    ["generate"],
    ["generate", "gaussian"],
    ["generate", "flory", "--m0", "1"],
    ["generate", "poisson", "--m0", "1", "--mean-degree", "x", "--out", "o.csv"],
    ["generate", "lognormal", "--median", "1", "--sigma", "1", "--n", "2.5", "--out", "o.csv"],
    ["plot", "--input", "a.csv"],
    ["plot", "--out", "a.svg", "--input"],
]

#: The functions that add each subcommand's (or model's) arguments.
ARGUMENT_BUILDERS = (
    "_mean_arguments", "_mwd_report_arguments", "_verify_arguments", "_flory_arguments",
    "_poisson_arguments", "_lognormal_arguments", "_plot_arguments",
)


class TestParser:
    @staticmethod
    def outcome(parse, argv, capsys) -> tuple[object, str, str]:
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("argv", PARSER_ONLY_ARGVS, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        # main adds the arguments of the running subcommand alone; its usage,
        # help, errors and exit code are those of the complete build_parser()
        full = self.outcome(lambda args: cli.build_parser().parse_args(args), argv, capsys)
        assert full[0] in (0, 2)
        assert self.outcome(main, argv, capsys) == full

    def test_choice_errors_list_every_subcommand(self, capsys):
        assert main(["verfy"]) == 2
        assert "{mean,mwd-report,verify,generate,plot}" in capsys.readouterr().err
        assert main(["generate", "flroy"]) == 2
        assert "{flory,poisson,lognormal}" in capsys.readouterr().err

    def test_main_adds_the_arguments_of_the_running_subcommand_alone(self, monkeypatch, capsys):
        built = []
        for name in ARGUMENT_BUILDERS:
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda parser, real=real, name=name: built.append(name) or real(parser)
            )
        assert main(["verify", "-h"]) == 0
        assert built == ["_verify_arguments"]
        assert main(["generate", "poisson", "-h"]) == 0
        assert built[1:] == ["_poisson_arguments"]
        assert main(["mean", "1", "7", "--r", "1"]) == 0
        assert built[2:] == ["_mean_arguments"]
        capsys.readouterr()
        del built[:]
        cli.build_parser()
        assert sorted(built) == sorted(ARGUMENT_BUILDERS)


class TestIngestFuzz:
    """Any input file ends in exit 0, or exit 1 with exactly one ``error:`` line."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def assert_exit_contract(path, data, command):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path) for arg in command])
        assert code in (0, 1)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("command", INGEST_COMMANDS, ids=lambda c: c[0])
    @given(data=file_bytes)
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_bytes(self, workdir, command, data):
        self.assert_exit_contract(workdir / "input.csv", data, command)

    @pytest.mark.parametrize("command", INGEST_COMMANDS, ids=lambda c: c[0])
    @given(data=json_documents)
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_json(self, workdir, command, data):
        self.assert_exit_contract(workdir / "input.json", data, command)
