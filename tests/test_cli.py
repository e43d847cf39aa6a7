"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` so the exit-code contract is exercised
exactly as a shell user would see it: 0 success, 1 computational failure,
2 user error.
"""

import csv
import json
import math

import numpy as np
import pytest

from autohuber import noise, oracle
from autohuber.cli import build_parser, main, read_data_file, read_study_spec
from autohuber.solver import EstimatorConfig, fit


def _write_values(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{float(v)!r}\n")
    return str(path)


def _text_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        if not line.strip():
            continue
        key, value = line.split(None, 1)
        fields[key] = value.strip()
    return fields


class TestReadDataFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n1.5\n\n  # another\n-2.25\n 3e-1 \n")
        assert read_data_file(str(path)) == [1.5, -2.25, 0.3]

    def test_bad_line_is_named(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0\n2.0\noops\n4.0\n")
        with pytest.raises(Exception, match="line 3.*'oops'"):
            read_data_file(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0\ninf\n")
        with pytest.raises(Exception, match="line 2: non-finite"):
            read_data_file(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# nothing but comments\n\n")
        with pytest.raises(Exception, match="no data values"):
            read_data_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(Exception, match="cannot read"):
            read_data_file(str(tmp_path / "nope.txt"))


class TestEstimate:
    def test_json_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        values = list(rng.standard_t(df=3, size=400))
        # a single 1e250 outlier takes the kernels off their square-root
        # path; the payload must still list no numpy warning
        with_outlier = values[:-1] + [1e250]
        for name, data in (("d.txt", values), ("outlier.txt", with_outlier)):
            path = _write_values(tmp_path / name, data)
            code = main(["estimate", path, "--z", "2.0", "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            res = fit(data, EstimatorConfig(z_override=2.0))
            assert code == 0
            assert payload["mu_hat"] == res.mu_hat
            assert payload["tau_hat"] == res.tau_hat
            assert payload["iterations"] == res.iterations
            assert payload["grad_norm"] == res.grad_norm
            assert payload["converged"] is True
            assert payload["degenerate"] is False
            assert payload["n"] == 400
            assert payload["z"] == 2.0
            assert payload["warnings"] == []

    def test_text_output_fields(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        values = list(rng.normal(loc=3.0, size=300))
        path = _write_values(tmp_path / "d.txt", values)
        code = main(["estimate", path, "--z", "2.0"])
        fields = _text_fields(capsys.readouterr().out)
        assert code == 0
        assert fields["n"] == "300"
        assert fields["converged"] == "yes"
        assert fields["degenerate"] == "no"
        assert float(fields["mu_hat"]) == pytest.approx(3.0, abs=0.2)
        assert float(fields["tau_hat"]) > 0.0

    def test_degenerate_constant_file(self, tmp_path, capsys):
        path = _write_values(tmp_path / "d.txt", [7.5] * 12)
        code = main(["estimate", path, "--z", "2.0"])
        captured = capsys.readouterr()
        fields = _text_fields(captured.out)
        assert code == 0
        assert fields["mu_hat"] == "7.5"
        assert fields["degenerate"] == "yes"
        assert fields["iterations"] == "0"

    def test_collapse_warning_routed_to_stderr(self, tmp_path, capsys):
        # n=40 is below z^2 at the default z, so the fit warns
        rng = np.random.default_rng(3)
        path = _write_values(tmp_path / "d.txt", list(rng.normal(size=40)))
        code = main(["estimate", path])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err
        assert "collapses" in captured.err
        assert "warning" not in captured.out

    def test_collapse_warning_in_json_payload(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = _write_values(tmp_path / "d.txt", list(rng.normal(size=40)))
        code = main(["estimate", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["warnings"]) == 1
        assert "collapses" in payload["warnings"][0]

    def test_bad_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("1.0\n2.0\nnot-a-number\n")
        code = main(["estimate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "line 3" in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["estimate", str(tmp_path / "absent.txt")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_delta_exits_2(self, tmp_path, capsys):
        path = _write_values(tmp_path / "d.txt", [1.0, 2.0, 3.0])
        code = main(["estimate", path, "--delta", "1.5"])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_bad_z_exits_2(self, tmp_path, capsys):
        path = _write_values(tmp_path / "d.txt", [1.0, 2.0, 3.0])
        code = main(["estimate", path, "--z", "-1.0"])
        assert code == 2


class TestOracle:
    def test_values_match_library(self, capsys):
        code = main(
            ["oracle", "--noise", "student_t:df=3", "--sigma", "1.5",
             "--n", "2000", "--z", "2.0"]
        )
        fields = _text_fields(capsys.readouterr().out)
        model = noise.standardize("student_t", df=3)
        sol = oracle.tau_star(model, 1.5, 2000, 2.0)
        assert code == 0
        assert fields["noise"] == "student_t:df=3"
        assert float(fields["tau_star"]) == pytest.approx(sol.tau_star, rel=1e-11)
        assert float(fields["sigma_tau_star_sq"]) == pytest.approx(
            sol.sigma_tau_star_sq, rel=1e-11
        )
        assert float(fields["tau_sq_lower_bound"]) == pytest.approx(
            sol.lower_bound_sq, rel=1e-11
        )
        assert float(fields["tau_sq_upper_bound"]) == pytest.approx(
            sol.upper_bound_sq, rel=1e-11
        )
        assert float(fields["residual"]) <= 1e-10

    def test_two_point_closed_form(self, capsys):
        code = main(["oracle", "--noise", "two_point", "--n", "400", "--z", "2.0"])
        fields = _text_fields(capsys.readouterr().out)
        assert code == 0
        assert float(fields["tau_star"]) == pytest.approx(7.01792392958252, abs=1e-9)

    def test_default_z_from_delta(self, capsys):
        code = main(["oracle", "--noise", "gaussian", "--n", "2000"])
        fields = _text_fields(capsys.readouterr().out)
        assert code == 0
        assert float(fields["z"]) == pytest.approx(
            5.0 * math.sqrt(math.log(5.0 / 0.05)), rel=1e-11
        )

    def test_oracle_undefined_exits_2(self, capsys):
        code = main(["oracle", "--noise", "gaussian", "--n", "4", "--z", "2.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "oracle undefined" in captured.err

    def test_bad_law_exits_2(self, capsys):
        code = main(["oracle", "--noise", "cauchy", "--n", "2000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_bad_param_exits_2(self, capsys):
        code = main(["oracle", "--noise", "student_t:df=2", "--n", "2000"])
        assert code == 2
        assert "df > 2" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_and_replayable(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        argv = ["simulate", "--noise", "student_t:df=3", "--sigma", "2.0",
                "--mu", "1.0", "--n", "50", "--seed", "99"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        model = noise.standardize("student_t", df=3)
        expected = noise.sample(model, 2.0, 50, 1.0, 99)
        # repr round-trips floats exactly
        got = read_data_file(str(out1))
        assert got == list(expected)

    def test_seed_changes_sample(self, tmp_path):
        argv = ["simulate", "--noise", "gaussian", "--n", "20", "--out"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(argv[:-1] + ["--seed", "1", "--out", str(a)]) == 0
        assert main(argv[:-1] + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_pipeline_with_estimate(self, tmp_path, capsys):
        data = tmp_path / "sim.txt"
        assert main(
            ["simulate", "--noise", "gaussian", "--sigma", "0.5", "--mu", "-2.0",
             "--n", "4000", "--seed", "7", "--out", str(data)]
        ) == 0
        code = main(["estimate", str(data), "--z", "2.0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mu_hat"] == pytest.approx(-2.0, abs=0.05)

    def test_bad_law_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--noise", "weibull", "--n", "10", "--seed", "0",
             "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sigma_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--noise", "gaussian", "--sigma", "-1", "--n", "10",
             "--seed", "0", "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--noise", "gaussian", "--n", "10", "--seed", "0",
             "--out", str(tmp_path / "missing-dir" / "x.txt")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


def _write_spec(path, text):
    path.write_text(text)
    return str(path)


class TestStudySpecFile:
    def test_full_round_trip(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "study.cfg",
            "# demo study\n"
            "noise = student_t: df = 3\n"
            "sigma = 2.0\n"
            "mu = 1.5\n"
            "n_grid = 64, 128\n"
            "delta = 0.1\n"
            "replications = 5\n"
            "seed = 42\n"
            "estimators = penalized_ph, median_of_means\n"
            "z = 2.0\n"
            "study = deviation\n",
        )
        spec, kind = read_study_spec(spec_path)
        assert kind == "deviation"
        assert spec.noise == noise.standardize("student_t", df=3)
        assert spec.sigma == 2.0
        assert spec.mu_true == 1.5
        assert spec.n_grid == (64, 128)
        assert spec.delta == 0.1
        assert spec.replications == 5
        assert spec.base_seed == 42
        assert spec.estimators == ("penalized_ph", "median_of_means")
        assert spec.z_override == 2.0

    def test_defaults(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "study.cfg", "noise = gaussian\nn_grid = 128\n"
        )
        spec, kind = read_study_spec(spec_path)
        assert kind == "deviation"
        assert spec.sigma == 1.0
        assert spec.replications == 100
        assert spec.estimators == ("penalized_ph", "sample_mean")
        assert spec.z_override is None

    def test_unknown_key_rejected(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "study.cfg", "noise = gaussian\nn_grid = 128\nalpha = 3\n"
        )
        with pytest.raises(Exception, match="line 3: unknown key 'alpha'"):
            read_study_spec(spec_path)

    def test_duplicate_key_rejected(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "study.cfg", "noise = gaussian\nnoise = gaussian\nn_grid = 8\n"
        )
        with pytest.raises(Exception, match="line 2: duplicate key"):
            read_study_spec(spec_path)

    def test_missing_required_keys(self, tmp_path):
        spec_path = _write_spec(tmp_path / "study.cfg", "noise = gaussian\n")
        with pytest.raises(Exception, match="missing required key 'n_grid'"):
            read_study_spec(spec_path)
        spec_path = _write_spec(tmp_path / "s2.cfg", "n_grid = 128\n")
        with pytest.raises(Exception, match="missing required key 'noise'"):
            read_study_spec(spec_path)

    def test_bad_values_are_located(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "study.cfg", "noise = gaussian\nn_grid = 10, twenty\n"
        )
        with pytest.raises(Exception, match="line 2: bad value for n_grid"):
            read_study_spec(spec_path)
        spec_path = _write_spec(
            tmp_path / "s2.cfg",
            "noise = gaussian\nn_grid = 64\nreplications = 2.5\n",
        )
        with pytest.raises(Exception, match="line 3: bad value for replications"):
            read_study_spec(spec_path)
        spec_path = _write_spec(
            tmp_path / "s3.cfg", "noise = gaussian\nn_grid = 64\nstudy = weird\n"
        )
        with pytest.raises(Exception, match="bad value for study"):
            read_study_spec(spec_path)
        spec_path = _write_spec(
            tmp_path / "s4.cfg", "noise = gaussian\nn_grid = 64\nsigma equals 2\n"
        )
        with pytest.raises(Exception, match="expected key = value"):
            read_study_spec(spec_path)


class TestStudyCommand:
    def _run(self, tmp_path, spec_text, capsys=None):
        spec_path = _write_spec(tmp_path / "study.cfg", spec_text)
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        code = main(
            ["study", "--spec", spec_path, "--out-csv", str(out_csv),
             "--out-json", str(out_json)]
        )
        return code, out_csv, out_json

    def test_deviation_end_to_end(self, tmp_path):
        code, out_csv, out_json = self._run(
            tmp_path,
            "noise = gaussian\n"
            "n_grid = 48, 96\n"
            "replications = 4\n"
            "z = 2.0\n"
            "estimators = penalized_ph, sample_mean, median_of_means\n",
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 3
        assert rows[0][0] == "estimator"
        payload = json.loads(out_json.read_text())
        assert len(payload["rows"]) == 6
        ns = {row["n"] for row in payload["rows"]}
        assert ns == {48, 96}

    def test_both_merges_adaptivity_columns(self, tmp_path):
        code, out_csv, out_json = self._run(
            tmp_path,
            "noise = two_point\n"
            "n_grid = 400\n"
            "replications = 5\n"
            "z = 2.0\n"
            "study = both\n",
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        by_est = {row["estimator"]: row for row in payload["rows"]}
        assert by_est["penalized_ph"]["tau_star"] == pytest.approx(
            7.01792392958252, abs=1e-9
        )
        assert by_est["penalized_ph"]["coverage"] is not None
        assert by_est["sample_mean"]["tau_star"] is None
        with open(out_csv, newline="") as fh:
            rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
        assert rows["sample_mean"][7] == ""
        assert float(rows["penalized_ph"][7]) > 0.0

    def test_adaptivity_only(self, tmp_path):
        code, out_csv, out_json = self._run(
            tmp_path,
            "noise = gaussian\nn_grid = 256\nreplications = 4\nz = 2.0\n"
            "study = adaptivity\n",
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["estimator"] == "penalized_ph"
        assert payload["rows"][0]["tau_star"] is not None

    def test_adaptivity_below_z_squared_exits_2(self, tmp_path, capsys):
        code, _, _ = self._run(
            tmp_path,
            "noise = gaussian\nn_grid = 64\nreplications = 2\nstudy = adaptivity\n",
        )
        assert code == 2
        assert "n > z^2" in capsys.readouterr().err

    def test_both_requires_penalized(self, tmp_path, capsys):
        code, _, _ = self._run(
            tmp_path,
            "noise = gaussian\nn_grid = 256\nreplications = 2\nz = 2.0\n"
            "study = both\nestimators = sample_mean\n",
        )
        assert code == 2
        assert "penalized_ph" in capsys.readouterr().err

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        code, _, _ = self._run(
            tmp_path,
            "noise = gaussian\nn_grid = 64\nestimators = winsorized\n",
        )
        assert code == 2
        assert "unknown estimator" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["study", "--spec", str(tmp_path / "none.cfg"),
             "--out-csv", str(tmp_path / "o.csv"),
             "--out-json", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        spec_path = _write_spec(
            tmp_path / "study.cfg",
            "noise = gaussian\nn_grid = 32\nreplications = 2\nz = 2.0\n",
        )
        code = main(
            ["study", "--spec", spec_path,
             "--out-csv", str(tmp_path / "no-dir" / "o.csv"),
             "--out-json", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestArgparseContract:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_estimate_requires_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 2

    def test_oracle_requires_n(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--noise", "gaussian"])
        assert exc.value.code == 2

    def test_bad_format_choice_exits_2(self, tmp_path):
        path = _write_values(tmp_path / "d.txt", [1.0, 2.0])
        with pytest.raises(SystemExit) as exc:
            main(["estimate", path, "--format", "yaml"])
        assert exc.value.code == 2

    def test_parser_prog_name(self):
        assert build_parser().prog == "autohuber"
