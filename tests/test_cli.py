import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gqd.core
import gqd.measurement
from gqd import ashkin_teller, cli, correlations, states
from gqd.selftest import SuiteResult, run_selftest


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def split_summary(text):
    """CSV body and the trailing ``{"summary": ...}`` line of a CSV command on stdout."""
    body, _, line = text.rpartition("\n{")
    return body + "\n", json.loads("{" + line)["summary"]


class TestGhzSurface:
    def test_resolution_64(self, capsys):
        code, out, _ = run_cli(["ghz-surface", "--resolution", "64"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta2", "theta3", "gqd"]
        assert len(rows) == 4096
        values = np.array([float(r[2]) for r in rows])
        assert abs(values.min() - 1.0) <= 1e-12
        corner = rows[0]
        assert float(corner[0]) == 0.0 and float(corner[1]) == 0.0
        assert abs(float(corner[2]) - 1.0) <= 1e-12
        assert values.max() <= 3.0 + 1e-12

    def test_resolution_2(self, capsys):
        code, out, _ = run_cli(["ghz-surface", "--resolution", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert float(rows[0][0]) == 0.0

    def test_too_small_resolution(self, capsys):
        code, _, err = run_cli(["ghz-surface", "--resolution", "1"], capsys)
        assert code == 1
        assert "resolution" in err

    def test_over_budget_is_rejected_before_it_is_built(self, capsys, monkeypatch):
        def no_surface(resolution):
            raise AssertionError(f"ghz_surface({resolution}) was built")

        monkeypatch.setattr("gqd.states.ghz_surface", no_surface)
        code, out, err = run_cli(["ghz-surface", "--resolution", "1025"], capsys)
        assert code == 3
        assert out == ""
        assert err == "gqd: error: GHZ surfaces beyond 1024 points per axis are out of budget\n"
        # the limit itself is in budget: it reaches the build
        built = []
        monkeypatch.setattr("gqd.states.ghz_surface",
                            lambda r: built.append(r) or (np.zeros(1), np.zeros(1), np.zeros((1, 1))))
        assert run_cli(["ghz-surface", "--resolution", "1024"], capsys)[0] == 0
        assert built == [1024]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["ghz-surface", "--resolution", "4", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["command"] == "ghz-surface"
        assert len(payload["rows"]) == 16

    def test_deterministic_file_output(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        blobs = []
        for _ in range(2):
            assert cli.main(["ghz-surface", "--resolution", "8", "--out", str(out)]) == 0
            capsys.readouterr()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestWernerGhz:
    def test_analytic_grid(self, capsys):
        code, out, _ = run_cli(["werner-ghz", "--points", "101"], capsys)
        assert code == 0
        body, summary = split_summary(out)
        assert summary["monotone_analytic"] is True
        header, rows = parse_csv(body)
        assert header == ["mu", "gqd_analytic"]
        assert len(rows) == 101
        assert abs(float(rows[0][1])) <= 1e-12
        assert abs(float(rows[-1][1]) - 1.0) <= 1e-12
        values = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_numeric_mode_matches_analytic(self, capsys):
        code, out, _ = run_cli(
            ["werner-ghz", "--points", "5", "--mode", "both", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["monotone_analytic"] is True
        assert payload["meta"]["max_abs_difference"] <= 1e-3
        assert payload["meta"]["all_converged"] is True
        assert payload["meta"]["evaluations"] >= 5 * 6561
        for row in payload["rows"]:
            assert abs(row["gqd_analytic"] - row["gqd_numeric"]) <= 1e-3

    def test_numeric_summary_reports_convergence(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["werner-ghz", "--points", "2", "--mode", "both", "--out", str(tmp_path / "w.csv")],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["all_converged"] is True
        assert summary["evaluations"] >= 2 * 6561

    def test_numeric_csv_on_stdout_reports_convergence(self, capsys):
        code, out, _ = run_cli(["werner-ghz", "--points", "2", "--mode", "both"], capsys)
        assert code == 0
        body, summary = split_summary(out)
        assert summary["all_converged"] is True
        assert summary["evaluations"] >= 2 * 6561
        header, rows = parse_csv(body)
        assert header == ["mu", "gqd_analytic", "gqd_numeric", "abs_difference"]
        assert len(rows) == 2

    def test_over_budget_is_rejected_before_it_is_built(self, capsys, monkeypatch):
        class Reached(Exception):
            pass

        def no_grid(mu):
            raise Reached

        monkeypatch.setattr("gqd.states.werner_ghz_gqd_analytic", no_grid)
        code, out, err = run_cli(["werner-ghz", "--points", "1000001"], capsys)
        assert code == 3
        assert out == ""
        assert err == "gqd: error: Werner-GHZ grids beyond 1000000 points are out of budget\n"
        # the limit itself is in budget: it reaches the build
        with pytest.raises(Reached):
            cli.main(["werner-ghz", "--points", "1000000"])

    def test_numeric_mode_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["werner-ghz", "--points", "2", "--mode", "numeric"])
        assert exc.value.code == 1
        assert "invalid choice: 'numeric'" in capsys.readouterr().err


class TestAtScan:
    def test_small_scan_with_summary(self, capsys):
        code, out, _ = run_cli(
            [
                "at-scan", "--sites", "2", "--strategy", "fixed-z",
                "--delta-min", "0.9", "--delta-max", "1.1",
                "--grid-step", "0.1", "--fine-step", "0",
            ],
            capsys,
        )
        assert code == 0
        body, _, summary_line = out.rpartition("\n{")
        summary = json.loads("{" + summary_line)
        assert sorted(summary["summary"]) == [
            "extremum", "max_residual", "min_amplitude", "sector_dim", "window_crossings",
            "zero_crossings"]
        assert summary["summary"]["zero_crossings"] == []
        assert summary["summary"]["window_crossings"] == []
        assert summary["summary"]["extremum"] == []
        assert summary["summary"]["sector_dim"] == 3
        assert 0.0 <= summary["summary"]["max_residual"] <= 1e-8
        # a positive unit vector of 3 amplitudes has its smallest at most 3^-1/2
        assert 0.0 < summary["summary"]["min_amplitude"] <= 3**-0.5
        header, rows = parse_csv(body + "\n")
        assert header == ["delta", "gqd", "dgqd_ddelta"]
        assert len(rows) == 3
        assert float(rows[1][1]) > 0  # positive z-basis global discord
        assert rows[0][2] == "" and rows[-1][2] == ""  # derivative only interior

    def test_summary_marks_window_crossings_and_extrema(self, capsys):
        code, out, _ = run_cli(
            ["at-scan", "--sites", "2", "--grid-step", "0.1", "--fine-step", "0"], capsys
        )
        assert code == 0
        summary = json.loads("{" + out.rpartition("\n{")[2])["summary"]
        (crossing,) = summary["zero_crossings"]
        assert summary["window_crossings"] == [crossing]
        assert abs(crossing - 1.0) <= 0.01
        assert summary["extremum"] == ["max"]
        # digits past the ninth are below the rounding floor of the ground state
        assert all(c == round(c, 9) for c in summary["zero_crossings"])

    def test_extremum_follows_derivative_sign(self):
        # at-scan labels a root "max" where the derivative falls through it, else "min"
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert ashkin_teller._sign_changes(x, np.array([1.0, -1.0, -2.0, 1.0])) == [
            (0.5, True), (pytest.approx(8 / 3), False)]
        assert ashkin_teller._sign_changes(x, np.array([-1.0, 0.0, 1.0, 2.0])) == [(1.0, False)]

    def test_json_contains_meta_summary(self, tmp_path, capsys):
        out_file = tmp_path / "scan.json"
        code, out, _ = run_cli(
            [
                "at-scan", "--sites", "2", "--strategy", "fixed-x",
                "--delta-min", "0.9", "--delta-max", "1.1",
                "--grid-step", "0.05", "--fine-step", "0",
                "--format", "json", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        summary = payload["meta"]["summary"]
        assert json.loads(out)["summary"] == summary  # the stdout line repeats it
        assert summary["sector_dim"] == 3
        assert 0.0 <= summary["max_residual"] <= 1e-8
        assert 0.0 < summary["min_amplitude"] <= 3**-0.5
        assert payload["rows"][0]["dgqd_ddelta"] is None

    def test_empty_range_usage_error(self, capsys):
        for flags in (
            ["--delta-min", "1.5", "--delta-max", "0.5"],
            ["--grid-step", "0"],
            ["--grid-step", "-0.05"],
        ):
            code, _, err = run_cli(["at-scan", "--sites", "2", *flags], capsys)
            assert code == 1, flags
            assert "range" in err, flags

    def test_seven_sites_runs_without_flags(self, capsys):
        code, out, _ = run_cli(
            ["at-scan", "--sites", "7", "--delta-min", "1.0", "--delta-max", "1.0"], capsys
        )
        assert code == 0
        body, _, _ = out.rpartition("\n{")
        _, rows = parse_csv(body + "\n")
        assert len(rows) == 1 and float(rows[0][1]) > 0

    def test_coupling_outside_the_solved_domain(self, capsys):
        code, out, err = run_cli(["at-scan", "--sites", "3", "--delta-min", "-0.5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("gqd: error: ") and err.count("\n") == 1
        assert "delta=-0.5 is outside the solved domain delta >= 0" in err

    def test_unresolved_ground_state_names_its_delta(self, capsys):
        code, out, err = run_cli(
            ["at-scan", "--sites", "3", "--beta", "0.5", "--delta-min", "-1.5",
             "--delta-max", "0.5", "--grid-step", "0.5", "--fine-step", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "delta=-1.5" in err

    def test_failed_certificate_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(ashkin_teller, "_sector_lowest",
                            lambda h, start: np.full(h.shape[0], np.nan))
        code, out, err = run_cli(["at-scan", "--sites", "3", "--delta-min", "1",
                                  "--delta-max", "1", "--fine-step", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("gqd: error: sector ground state at delta=1.0 has a negative or NaN")
        assert err.count("\n") == 1

    def test_failed_certificate_inside_a_block_is_one_error_line(self, capsys, monkeypatch):
        # the default grid at M = 4 is one block of 57 points; point 30 (delta = 1.02) fails
        solve, calls = ashkin_teller._sector_lowest, []

        def faulty(h, start):
            calls.append(None)
            return np.full(h.shape[0], np.nan) if len(calls) == 31 else solve(h, start)

        monkeypatch.setattr(ashkin_teller, "_sector_lowest", faulty)
        code, out, err = run_cli(["at-scan", "--sites", "4"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("gqd: error: sector ground state at delta=1.02 has a negative or NaN")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("beta", ["1e150", "1e160"])
    def test_huge_beta_is_a_usage_error(self, beta, capsys):
        code, out, err = run_cli(["at-scan", "--sites", "10", "--beta", beta, "--delta-min", "1",
                                  "--delta-max", "1", "--fine-step", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"gqd: error: |beta| must be at most 1e100, got {float(beta)}\n"

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--delta-min", "nan", "start"), ("--delta-max", "inf", "stop"),
         ("--grid-step", "nan", "step"), ("--fine-step", "nan", "fine_step")],
    )
    def test_non_finite_grid_is_a_usage_error(self, flag, value, name, capsys):
        code, out, err = run_cli(["at-scan", "--sites", "2", f"{flag}={value}"], capsys)
        assert code == 1
        assert out == ""
        assert f"gqd: error: {name} must be finite, got {value}" in err

    @pytest.mark.parametrize(
        "flag, value, count",
        [("--grid-step", "1e-300", "1.6e+300"), ("--delta-max", "1e300", "2e+301"),
         ("--fine-step", "1e-9", "3e+08")],
    )
    def test_oversized_grid_is_a_usage_error(self, flag, value, count, capsys):
        code, out, err = run_cli(["at-scan", "--sites", "2", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert f"gqd: error: coupling grid of {count} points exceeds 100000 points" in err

    def test_zero_fine_step_scans_the_coarse_grid(self, capsys):
        code, out, _ = run_cli(
            ["at-scan", "--sites", "2", "--delta-min", "0.9", "--delta-max", "1.1",
             "--grid-step", "0.05", "--fine-step", "0"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(split_summary(out)[0])
        assert [float(r[0]) for r in rows] == [0.9, 0.95, 1.0, 1.05, 1.1]

    def test_over_sparse_budget(self, capsys):
        code, _, err = run_cli(["at-scan", "--sites", "11"], capsys)
        assert code == 3
        assert err == "gqd: error: chains beyond 10 sites are out of budget\n"

    def test_nine_sites_need_no_full_space_parts(self, sector_rows, capsys):
        code, out, _ = run_cli(
            ["at-scan", "--sites", "9", "--delta-min", "0.9", "--delta-max", "1.1",
             "--grid-step", "0.1", "--fine-step", "0"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(split_summary(out)[0])
        assert [float(r[0]) for r in rows] == [0.9, 1.0, 1.1]
        assert sector_rows == [1957] * 2  # A and B of the 9-site sector, built once

    def test_grid_that_rounds_to_nothing_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            ["at-scan", "--sites", "2", "--delta-min", "1e16", "--delta-max", "1e16",
             "--fine-step", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "gqd: error: empty coupling range\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sites", "1"],
            ["--sites", "2", "--delta-min", "inf", "--delta-max", "inf"],
            ["--sites", "2", "--beta", "nan"],
        ],
    )
    def test_bad_input_usage_error(self, flags, capsys):
        code, out, err = run_cli(["at-scan", *flags], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("gqd: error: ") and err.count("\n") == 1

    def test_missing_sites_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["at-scan"])
        assert exc.value.code == 1


class TestDiscordCommand:
    def test_bell(self, capsys):
        code, out, _ = run_cli(["discord", "bell"], capsys)
        assert code == 0
        body, summary = split_summary(out)
        assert summary["gqd_converged"] is True
        assert summary["gqd_evaluations"] > 6561
        _, rows = parse_csv(body)
        values = {r[0]: float(r[1]) for r in rows}
        assert abs(values["mutual_information"] - 2.0) <= 1e-9
        assert abs(values["discord_asymmetric"] - 1.0) <= 1e-8
        assert abs(values["discord_symmetric"] - 1.0) <= 1e-8
        assert abs(values["gqd_minimize"] - 1.0) <= 1e-6

    @pytest.mark.parametrize("argv", [["bell:3"], ["bell:anything", "--format", "json"]])
    def test_bell_takes_no_fields(self, argv, capsys):
        code, out, err = run_cli(["discord", *argv], capsys)
        assert code == 1
        assert out == ""
        assert err == f"gqd: error: bad state spec {argv[0]!r}: bell takes no fields\n"

    def test_two_qubit_minimization_runs_once(self, capsys, monkeypatch):
        # discord_symmetric and gqd_minimize are the same minimization: one run gives both rows
        calls = []
        minimize = correlations._minimize_over_angles

        def counted(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(correlations, "_minimize_over_angles", counted)
        code, out, _ = run_cli(["discord", "werner:0.3"], capsys)
        assert code == 0
        values = {r[0]: r[1] for r in parse_csv(split_summary(out)[0])[1]}
        assert values["discord_symmetric"] == values["gqd_minimize"]
        assert len(calls) == 2  # discord_asymmetric's, then the one two-qubit GQD minimization
        run_cli(["discord", "werner:0.3", "--strategy", "fixed-z"], capsys)
        assert len(calls) == 4  # at a fixed basis, the symmetric row still minimizes

    def test_json_meta_reports_convergence(self, capsys):
        code, out, _ = run_cli(["discord", "bell", "--format", "json"], capsys)
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["gqd_converged"] is True
        assert meta["gqd_evaluations"] > 6561
        code, out, _ = run_cli(
            ["discord", "werner-ghz:0", "--strategy", "fixed-z", "--format", "json"], capsys
        )
        assert json.loads(out)["meta"]["gqd_evaluations"] == 1

    def test_ghz3_json_rows_match_the_library(self, capsys):
        code, out, _ = run_cli(["discord", "ghz:3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["state"] == "ghz:3" and doc["meta"]["gqd_converged"] is True
        rows = {row["measure"]: row["value"] for row in doc["rows"]}
        rho = states.ghz(3)
        info = correlations.mutual_information(rho, [0, 1])
        asym = correlations.discord_asymmetric(rho)
        want = {"mutual_information": info, "classical_correlation": info - asym,
                "discord_asymmetric": asym,
                "gqd_minimize": correlations.gqd(rho, "minimize").value}
        assert list(rows) == list(want)
        for name, value in want.items():
            assert abs(rows[name] - value) <= 1e-12, name
        assert abs(rows["gqd_minimize"] - 1.0) <= 1e-9

    def test_reports_whether_the_asymmetric_discord_converged(self, capsys, monkeypatch):
        code, out, _ = run_cli(["discord", "werner:0.3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["asymmetric_converged"] is True
        # a budget below the 81-row grid stops its minimization; the fixed-basis GQD is exact
        monkeypatch.setattr(correlations, "_MAX_EVALUATIONS", 50)
        code, out, _ = run_cli(["discord", "werner-ghz:0.5", "--strategy", "fixed-z"], capsys)
        assert code == 0
        summary = split_summary(out)[1]
        assert summary["asymmetric_converged"] is False
        assert summary["gqd_converged"] is True

    def test_file_output_prints_summary(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        code, out, _ = run_cli(["discord", "bell", "--out", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["gqd_converged"] is True
        _, rows = parse_csv(path.read_text())
        assert [r[0] for r in rows][-1] == "gqd_minimize"

    def test_fully_mixed_werner_ghz(self, capsys):
        code, out, _ = run_cli(["discord", "werner-ghz:0", "--strategy", "fixed-z"], capsys)
        assert code == 0
        _, rows = parse_csv(split_summary(out)[0])
        for name, value in ((r[0], float(r[1])) for r in rows):
            assert abs(value) <= 1e-8, name

    def test_at_pair_same_site_vanishes(self, capsys):
        code, out, _ = run_cli(
            ["discord", "at-pair:3,0.8,same-site", "--strategy", "fixed-x"], capsys
        )
        assert code == 0
        _, rows = parse_csv(split_summary(out)[0])
        values = {r[0]: float(r[1]) for r in rows}
        assert abs(values["discord_asymmetric"]) <= 1e-8

    @pytest.mark.parametrize("sites", [3, 8])  # a dense sector solve and a Lanczos one
    @pytest.mark.parametrize("kind", ashkin_teller.PAIR_KINDS)
    def test_at_pair_matches_the_reference_reduction(self, sites, kind, capsys):
        spec = f"at-pair:{sites},0.8,{kind}"
        code, out, _ = run_cli(["discord", spec, "--format", "json"], capsys)
        assert code == 0
        values = {row["measure"]: row["value"] for row in json.loads(out)["rows"]}
        chain = ashkin_teller.ChainSpec(sites=sites, beta=1.0, delta=0.8)
        rho = gqd.core.reduced_from_vector(ashkin_teller._ground_vector(chain),
                                           (2,) * (2 * sites),
                                           ashkin_teller.pair_qubits(kind))
        expected = {
            "mutual_information": correlations.mutual_information(rho, cut=[0]),
            "discord_asymmetric": correlations.discord_asymmetric(rho),
            "discord_symmetric": correlations.symmetric_discord(rho),
            "gqd_minimize": correlations.gqd(rho, "minimize", seed=0).value,
        }
        for name, value in expected.items():
            assert abs(values[name] - value) <= 1e-12, name

    def test_at_pair_failed_certificate_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(ashkin_teller, "_sector_lowest",
                            lambda h, start: np.full(h.shape[0], np.nan))
        code, out, err = run_cli(["discord", "at-pair:3,0.8,same-site"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("gqd: error: bad state spec 'at-pair:3,0.8,same-site': sector "
                              "ground state at delta=0.8 has a negative or NaN amplitude")
        assert err.count("\n") == 1

    def test_at_pair_outside_the_solved_domain(self, capsys):
        code, out, err = run_cli(["discord", "at-pair:3,-0.5,same-site"], capsys)
        assert code == 1
        assert out == ""
        assert "delta=-0.5 is outside the solved domain delta >= 0" in err

    def test_at_pair_over_sparse_budget(self, capsys):
        code, out, err = run_cli(["discord", "at-pair:11,1.0,same-site"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("gqd: error: ") and err.count("\n") == 1

    def test_ghz_over_budget_is_rejected_before_it_is_built(self, capsys, monkeypatch):
        def no_state(n):
            raise AssertionError(f"ghz({n}) was built")

        monkeypatch.setattr("gqd.states.ghz", no_state)
        code, out, err = run_cli(["discord", "ghz:11"], capsys)
        assert code == 3
        assert out == ""
        assert err == "gqd: error: GHZ states beyond 10 qubits are out of budget\n"

    def test_unknown_state(self, capsys):
        code, _, err = run_cli(["discord", "cat-state"], capsys)
        assert code == 1
        assert "unknown state" in err

    def test_bad_parameter(self, capsys):
        code, _, _ = run_cli(["discord", "werner:2.0"], capsys)
        assert code == 1


def _negated_integrand(monkeypatch):
    class Negated(correlations._GqdContext):
        def values(self, unitaries):
            return super().values(unitaries) - 1.0

    monkeypatch.setattr(correlations, "_GqdContext", Negated)


def _negated_relative_entropy(monkeypatch):
    true = gqd.core.relative_entropy
    monkeypatch.setattr(gqd.core, "relative_entropy", lambda rho, sigma: -true(rho, sigma))


def _half_dephasing(monkeypatch):
    true = gqd.measurement.dephase_matrices
    monkeypatch.setattr(gqd.measurement, "dephase_matrices", lambda m, u: 0.5 * (true(m, u) + m))


def _swapped_kron(monkeypatch):
    true = gqd.core.kron
    monkeypatch.setattr(gqd.core, "kron", lambda *mats: true(*mats[::-1]))


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(["selftest", "--count", "20"], capsys)
        assert code == 0
        assert "selftest: PASS" in out

    def test_deterministic_report(self, capsys):
        _, first, _ = run_cli(["selftest", "--count", "15", "--seed", "3"], capsys)
        _, second, _ = run_cli(["selftest", "--count", "15", "--seed", "3"], capsys)
        assert first == second

    def test_corrupted_entropy_mutant_fails(self, capsys, monkeypatch):
        true_entropy = gqd.core.von_neumann_entropy

        def corrupted(rho):
            return true_entropy(rho) + 1e-3

        monkeypatch.setattr(gqd.core, "von_neumann_entropy", corrupted)
        code, out, _ = run_cli(["selftest", "--count", "10"], capsys)
        assert code == 4
        # the counts and the first failing case pin the draw order and the record order
        lines = out.splitlines()
        k = lines.index("  oracle-equality: 35/45 FAIL")
        assert lines[k + 1].startswith("    failing case: mutual-info state_seed=3050663042 ")

    @pytest.mark.parametrize("suite, patch, seed_field", [
        ("non-negativity", _negated_integrand, "state_seed="),
        ("relative-entropy-monotonicity", _negated_relative_entropy, "seeds=("),
        ("dephasing-idempotence", _half_dephasing, "state_seed="),
        ("oracle-equality", _swapped_kron, "mutual-info state_seed="),
    ])
    def test_each_suite_catches_a_patched_primitive(self, capsys, monkeypatch, suite, patch,
                                                    seed_field):
        patch(monkeypatch)
        code, out, _ = run_cli(["selftest", "--count", "10"], capsys)
        assert code == 4
        lines = out.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(f"  {suite}: "))
        assert lines[k].endswith(" FAIL")
        assert lines[k + 1].startswith(f"    failing case: {seed_field}")

    def test_validation_calls_hold_one_stack_at_most(self, monkeypatch):
        true = gqd.core.validate_densities
        largest = {}

        def recording(m):
            m = np.asarray(m)
            if m.ndim == 3:
                largest[m.shape[-1]] = max(largest.get(m.shape[-1], 0), len(m))
            return true(m)

        monkeypatch.setattr(gqd.core, "validate_densities", recording)
        assert run_selftest(seed=1, count=5000).ok
        assert 1 < largest[4] <= correlations._states_per_call(2)
        assert 1 < largest[8] <= correlations._states_per_call(3)

    def test_suite_result_keeps_five_failure_details_and_formats_no_passing_case(self):
        def never():
            raise AssertionError("a passing case formatted its detail")

        result = SuiteResult("suite")
        for k in range(8):
            result.record(True, never)
            result.record(False, lambda: f"case {k}")
        assert (result.passed, result.total, result.ok) == (8, 16, False)
        assert result.failures == [f"case {k}" for k in range(5)]

    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code, out, _ = run_cli(["selftest", "--count", "10", "--out", str(out_file)], capsys)
        assert code == 0
        assert out_file.read_text() == out


class TestIoAndUsage:
    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            ["ghz-surface", "--resolution", "4", "--out", "/no/such/dir/x.csv"], capsys
        )
        assert code == 2
        assert "I/O" in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fix-everything"])
        assert exc.value.code == 1

    def test_commands_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # the parser is built once a process: each command run through it in turn, a usage
        # error among them, reads exactly as in a process of its own
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage lines to
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        codes = []
        for argv in (["at-scan", "--sites", "3"], ["at-scan", "--sites", "2", "--seed", "1"],
                     ["selftest", "--count", "2"], ["discord", "bell"]):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse's usage errors
                codes.append(exc.code)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "gqd", *argv], env=env,
                                   capture_output=True, text=True)
            assert (codes[-1], captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert codes == [0, 1, 0, 0]
        assert cli.build_parser() is cli.build_parser()

    def test_package_runs_as_a_module(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-m", "gqd", "--help"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: gqd ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ghz-surface", "--grid-step", "0.1"],
            ["ghz-surface", "--multistarts", "8"],
            ["at-scan", "--sites", "2", "--multistarts", "8"],
            ["discord", "bell", "--grid-step", "0.1"],
            ["selftest", "--format", "json"],
            ["selftest", "--grid-step", "0.1"],
            ["selftest", "--multistarts", "8"],
            ["werner-ghz", "--multistarts", "8"],
            ["discord", "bell", "--multistarts", "8"],
            ["at-scan", "--sites", "2", "--anchor", "1"],
            ["at-scan", "--sites", "2", "--seed", "1"],
            ["ghz-surface", "--seed", "1"],
            ["werner-ghz", "--grid-step", "0.25"],
        ],
    )
    def test_flag_not_read_by_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["werner-ghz", "--mode", "both", "--seed", "-1"],
            ["discord", "ghz:3", "--seed", "-1"],
            ["selftest", "--seed", "-1"],
            ["discord", "werner:0.5", "--seed", "-1"],  # two qubits never draw the seed
        ],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "gqd: error: argument --seed: expected a nonnegative integer, got '-1'"
        ]

    @pytest.mark.parametrize(
        "argv", [["werner-ghz", "--points", "abc"], ["at-scan"], ["selftest", "--format", "json"]]
    )
    def test_parse_errors_are_one_error_line(self, argv, capsys):
        # errors argparse finds read like those found after parsing: no usage block
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("gqd: error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, line", [
        (["werner-ghz", "--seed", "abc"],
         "argument --seed: expected a nonnegative integer, got 'abc'"),
        (["werner-ghz", "--points", "1"], "need at least 2 grid points"),
        (["discord", "at-pair:4,1.0"],
         "bad state spec 'at-pair:4,1.0': at-pair takes sites,delta,kind"),
        (["selftest", "--count", "0"], "count must be positive"),
    ])
    def test_usage_errors_exit_1_with_one_error_line(self, argv, line, capsys):
        try:  # argparse's errors exit, those found after parsing return the code
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"gqd: error: {line}"]

    def test_library_selftest_determinism(self):
        a = run_selftest(seed=5, count=12).render()
        b = run_selftest(seed=5, count=12).render()
        assert a == b
