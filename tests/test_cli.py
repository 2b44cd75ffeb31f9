"""CLI subcommands: golden output, exit codes, file handling."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import ginikit.cli as cli
from ginikit.audit import AuditVerdict
from ginikit.cli import main
from ginikit.mwd import load_mwd, polydispersity


def run_cli(*argv):
    return main(list(argv))


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

    def test_non_finite_exponent(self, capsys):
        assert run_cli("mean", "1", "2", "--r", "inf") == 2
        capsys.readouterr()


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

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("molar_mass,abundance\n-1,1\n", encoding="utf-8")
        assert run_cli("mwd-report", "--input", str(path)) == 1
        assert "line 2" in capsys.readouterr().err


class TestVerify:
    def test_file_audit_passes(self, data_dir, capsys):
        code = run_cli("verify", "--input", str(data_dir / "two_species.csv"))
        assert code == 0
        out = capsys.readouterr().out
        assert "checks=5 holds=5 weak=0 degenerate=0 failed=0" in out
        assert out.count("HOLDS") == 5

    def test_uniform_input_degenerates(self, tmp_path, capsys):
        path = tmp_path / "mono.csv"
        path.write_text("molar_mass,abundance\n500,1\n500,2\n", encoding="utf-8")
        assert run_cli("verify", "--input", str(path)) == 0
        out = capsys.readouterr().out
        assert "degenerate=5 failed=0" in out
        assert "DEGENERATE" in out

    def test_random_audit(self, capsys):
        assert run_cli("verify", "--random", "7", "3") == 0
        out = capsys.readouterr().out
        assert "checks=15" in out
        assert "failed=0" in out

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

    def test_oracle_cross_check(self, capsys):
        code = run_cli("verify", "--random", "3", "2", "--oracle")
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle:" in out
        assert "-> ok" in out

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
            ("verify", "--random", "1", "2", "--grid", "2:0"),  # one pair only
            ("verify", "--random", "1", "2", "--grid", "1:0,abc"),
            ("verify", "--random", "1", "2", "--grid", "2:0,1:0"),  # not increasing
            ("verify", "--random", "1", "2", "--grid", "1:0,,2:0"),
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 2
        capsys.readouterr()

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
            ("generate", "lognormal", "--median", "1", "--sigma", "-1", "--n", "5", "--out", "l.csv"),
            ("generate", "lognormal", "--median", "1", "--sigma", "1", "--n", "1", "--out", "l.csv"),
        ],
    )
    def test_domain_errors(self, argv, capsys):
        assert run_cli(*argv) == 2
        capsys.readouterr()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "f.csv"
        code = run_cli(
            "generate", "flory", "--m0", "100", "--x", "0.5", "--out", str(out)
        )
        assert code == 1
        capsys.readouterr()


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

    def test_golden_report_independent_of_backend(self, data_dir):
        golden = (data_dir / "golden_report.txt").read_bytes()
        for pure in ("0", "1"):
            env = dict(os.environ, GINIKIT_PURE=pure)
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

    def test_golden_plot_independent_of_backend(self, data_dir, tmp_path):
        golden = (data_dir / "golden_plot.svg").read_bytes()
        out_path = tmp_path / "plot.svg"
        env = dict(os.environ, GINIKIT_PURE="1")
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
