import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_tp_kraus, rng_from
from subkraus import casestudy, channels, cli, linalg, reduction, verify
from subkraus.casestudy import DampingRates, closed_form_b, composite_kraus, qubit_state
from subkraus.channels import (
    DensityMatrix,
    KrausMap,
    choi_matrix,
    completeness_defect,
    cp_verdict,
    dump_density_json,
    dump_map_json,
    load_map_json,
    maximally_mixed,
)
from subkraus.reduction import (
    Bipartition,
    NonPositiveBMatrixError,
    reduce_subsystem,
    reduce_subsystem_grid,
)


@pytest.fixture
def case_study_files(tmp_path):
    rates = DampingRates(0.3, 1.0)
    t = 0.11
    kmap = composite_kraus(t, rates)
    map_path = tmp_path / "map.json"
    rho_path = tmp_path / "rho.json"
    map_path.write_text(dump_map_json(kmap, label="two-qubit damping"))
    rho_path.write_text(dump_density_json(qubit_state(0.3)))
    return map_path, rho_path, rates, t


class TestReduce:
    def test_identity_map_reduces_to_identity(self, tmp_path, capsys):
        map_path = tmp_path / "ident.json"
        rho_path = tmp_path / "rho.json"
        out_path = tmp_path / "out.json"
        map_path.write_text(dump_map_json(KrausMap(4, (np.eye(4, dtype=complex),))))
        rho_path.write_text(dump_density_json(maximally_mixed(2)))
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--keep", "1", "--out", str(out_path),
        ])
        assert code == 0
        reduced = load_map_json(out_path.read_text())
        assert len(reduced.operators) == 1
        np.testing.assert_allclose(reduced.operators[0], np.eye(2), atol=1e-12)
        report = json.loads(capsys.readouterr().out)
        assert report["kept"] == 1
        assert report["truncated"] == 3

    def test_case_study_reduction_matches_closed_form(self, case_study_files, tmp_path, capsys):
        map_path, rho_path, rates, t = case_study_files
        out_path = tmp_path / "reduced.json"
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(out_path),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = sorted(closed_form_b(t, rates, 0.3), reverse=True)
        np.testing.assert_allclose(report["b_eigenvalues"], expected, atol=1e-10)
        reduced = load_map_json(out_path.read_text())
        assert completeness_defect(reduced) < 1e-8

    def test_broken_completeness_exits_3(self, tmp_path, capsys):
        map_path = tmp_path / "broken.json"
        out_path = tmp_path / "out.json"
        rho_path = tmp_path / "rho.json"
        broken = KrausMap(4, (0.7 * np.eye(4, dtype=complex),), trace_preserving=False)
        map_path.write_text(dump_map_json(broken))
        rho_path.write_text(dump_density_json(maximally_mixed(2)))
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(out_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"diagnostic: map file {map_path}: ")
        assert "completeness condition (defect 5.100e-01 > 1.0e-08)" in err
        assert not out_path.exists()

    def test_truncation_that_breaks_completeness_exits_3(self, tmp_path, capsys):
        rng = rng_from(5)  # b eigenvalues 0.905, 0.636, 0.314, 0.145
        map_path = tmp_path / "map.json"
        rho_path = tmp_path / "rho.json"
        out_path = tmp_path / "out.json"
        map_path.write_text(dump_map_json(random_tp_kraus(rng, 4, 3)))
        rho_path.write_text(dump_density_json(random_density(rng, 2)))
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--truncation", "0.5", "--out", str(out_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("diagnostic: reduced operators violate the completeness condition")
        assert "truncation 0.5 dropped b eigenvalue mass 4.588e-01 (2 of 4 operators)" in err
        assert not out_path.exists()

    def test_malformed_map_exits_2(self, tmp_path, capsys):
        map_path = tmp_path / "bad.json"
        map_path.write_text('{"dim":4,"kraus":[[[[1,0]]]]}')
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_density_json(maximally_mixed(2)))
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "kraus[0]" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_density_json(maximally_mixed(2)))
        code = cli.main([
            "reduce", "--map", str(tmp_path / "nope.json"), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2

    def test_split_of_another_dimension_exits_2_before_any_basis(
        self, case_study_files, tmp_path, monkeypatch, capsys
    ):
        map_path, _, _, _ = case_study_files
        rho_path = tmp_path / "rho1.json"
        rho_path.write_text(dump_density_json(maximally_mixed(1)))

        def no_basis(d):  # a 1000-dimensional basis would need 14.6 TiB
            raise AssertionError(f"built the basis of dimension {d}")

        monkeypatch.setattr(reduction, "build_hermitian_basis", no_basis)
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "1000", "--d2", "1",
            "--rho", str(rho_path), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "dimension mismatch: map is 4-dimensional, split gives 1000" in capsys.readouterr().err

    def test_truncation_above_1_exits_2(self, case_study_files, tmp_path, capsys):
        map_path, rho_path, _, _ = case_study_files
        reduce_args = ["reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
                       "--rho", str(rho_path), "--out", str(tmp_path / "out.json")]
        sweep_args = ["case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
                      "--t-max", "1.0", "--steps", "5", "--out", str(tmp_path / "x.csv")]
        for argv in (reduce_args, sweep_args):
            assert cli.main(argv + ["--truncation", "1.5"]) == 2
            assert capsys.readouterr().err == "error: truncation must lie in [0, 1], got 1.5\n"
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "x.csv").exists()

    def test_dimension_mismatch_exits_2(self, case_study_files, tmp_path):
        map_path, rho_path, _, _ = case_study_files
        code = cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "3",
            "--rho", str(rho_path), "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2


class TestCaseStudySweep:
    def run_sweep(self, tmp_path, name="sweep.csv", steps="11"):
        out = tmp_path / name
        code = cli.main([
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
            "--t-max", "1.0", "--steps", steps, "--out", str(out),
        ])
        return code, out

    def test_header_and_first_row(self, tmp_path):
        code, out = self.run_sweep(tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,b0,b1,b2,b3,trace_defect,choi_min_eig,offdiag_B_max"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(2.0, abs=1e-12)
        assert first[2:5] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert first[5] < 1e-12

    def test_rows_conserve_weight(self, tmp_path):
        code, out = self.run_sweep(tmp_path)
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            row = [float(x) for x in line.split(",")]
            assert sum(row[1:5]) == pytest.approx(2.0, abs=1e-10)
            assert row[6] >= -1e-10  # reduced map stays CP
            assert row[7] < 1e-12  # mixing matrix stays diagonal

    def test_grid_includes_both_endpoints(self, tmp_path):
        code, out = self.run_sweep(tmp_path, steps="5")
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert float(lines[1].split(",")[0]) == 0.0
        assert float(lines[-1].split(",")[0]) == 1.0

    def test_deterministic_bytes(self, tmp_path):
        _, out1 = self.run_sweep(tmp_path, "a.csv")
        _, out2 = self.run_sweep(tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_steps_exits_2(self, tmp_path):
        code, _ = self.run_sweep(tmp_path, steps="1")
        assert code == 2

    def test_chunk_size_does_not_change_bytes(self, tmp_path, monkeypatch):
        whole = [self.run_sweep(tmp_path, f"whole{steps}.csv", str(steps)) for steps in (22, 23)]
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 7)  # 22 and 23 points leave tails of 1 and 2
        for steps, (code, out) in zip((22, 23), whole):
            code7, out7 = self.run_sweep(tmp_path, f"chunked{steps}.csv", str(steps))
            assert code == code7 == 0
            assert out.read_bytes() == out7.read_bytes()

    def test_chunked_rows_equal_the_library_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 7)
        code, out = self.run_sweep(tmp_path, steps="23")
        assert code == 0
        ts = np.arange(23) / 22
        grid = reduce_subsystem_grid(
            casestudy.composite_kraus_grid(ts, DampingRates(0.3, 1.0)), Bipartition(2, 2),
            qubit_state(0.3),
        )
        table = casestudy.sweep_table(ts, grid)
        assert out.read_text().splitlines()[0] == casestudy.SWEEP_HEADER
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=",", skiprows=1), table)

    def test_negative_b_at_a_later_point_names_t(self, tmp_path, monkeypatch, capsys):
        # a traced factor that is not a state, built by bypassing validation
        bad = object.__new__(DensityMatrix)
        object.__setattr__(bad, "matrix", np.diag([-0.5, 1.5]).astype(complex))
        monkeypatch.setattr(casestudy, "qubit_state", lambda a: bad)
        ts = [0.4 * step / 10 for step in range(11)]
        first_bad = None
        for t in ts:
            try:
                reduce_subsystem(composite_kraus(t, DampingRates(1.0, 0.1)), Bipartition(2, 2), bad)
            except NonPositiveBMatrixError:
                first_bad = t
                break
        assert first_bad is not None and first_bad > 0.0
        out = tmp_path / "x.csv"
        assert cli.main([
            "case-study", "--gamma1", "1.0", "--gamma2", "0.1", "--a", "0.3",
            "--t-max", "0.4", "--steps", "11", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert f"at t={first_bad}: mixing matrix has negative eigenvalue" in err
        assert not out.exists()

    def test_broken_discriminant_at_a_later_point_names_t(self, tmp_path, monkeypatch, capsys):
        hypot = np.hypot

        def inflated_from_point_3(x, y):
            r = hypot(x, y)
            r[3:] *= 10.0  # pushes the smaller Gram eigenvalue far below zero
            return r

        monkeypatch.setattr(np, "hypot", inflated_from_point_3)
        out = tmp_path / "x.csv"
        assert cli.main([
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
            "--t-max", "0.5", "--steps", "6", "--out", str(out),
        ]) == 3
        assert "coherence sector lost positivity at t=0.3 " in capsys.readouterr().err
        assert not out.exists()

    def test_long_sweep_stays_valid(self, tmp_path):
        # past gamma t ~ 40 the coherence terms leave the normal float range;
        # every row must still pass the completeness and Choi trace gates
        out = tmp_path / "long.csv"
        assert cli.main([
            "case-study", "--gamma1", "0.7", "--gamma2", "0.4", "--a", "0.0",
            "--t-max", "50", "--steps", "1001", "--out", str(out),
        ]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.max(rows[:, 5]) < 1e-12
        assert np.min(rows[:, 6]) >= -1e-10

    def test_broken_composite_completeness_exits_3(self, tmp_path, monkeypatch, capsys):
        # past t = 0 the rounding-level defects exceed a zero tolerance
        monkeypatch.setattr(casestudy, "MODEL_TOL", 0.0)
        code, out = self.run_sweep(tmp_path, steps="5")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("diagnostic: composite operators violate the completeness condition at t=")
        assert not out.exists()

    def test_truncation_that_drops_an_operator_exits_0(self, tmp_path):
        # the dropped b eigenvalue (below 1e-9) shortens the Choi trace of the
        # reduced map, which still meets the completeness rule at 1e-8
        out = tmp_path / "x.csv"
        assert cli.main([
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
            "--t-max", "1e-4", "--steps", "101", "--truncation", "1e-9", "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 102

    def test_allocation_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(ts, rates):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(casestudy, "composite_kraus_grid", out_of_memory)
        code, out = self.run_sweep(tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 72.8 TiB\n"
        assert not out.exists()

    def test_bad_population_exits_2(self, tmp_path):
        code = cli.main([
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "1.5",
            "--t-max", "1.0", "--steps", "5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


def per_point_row(t, rates, a):
    """One CSV row computed point by point through the single-map API."""
    result = reduce_subsystem(composite_kraus(t, rates), Bipartition(2, 2), qubit_state(a))
    b = result.b.values
    diag = [float(b[i, i].real) for i in range(4)]
    verdict = cp_verdict(choi_matrix(result.subsystem_map))
    offdiag = float(np.abs(b - np.diag(np.diag(b))).max())
    return [t, *diag, abs(sum(diag) / 2.0 - 1.0), verdict.min_eigenvalue, offdiag]


@given(
    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
    st.floats(0.01, 2.0), st.integers(2, 40),
)
@settings(max_examples=25, deadline=None)
def test_sweep_rows_equal_the_per_point_pipeline(gamma1, gamma2, a, t_max, steps):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        assert cli.main([
            "case-study", "--gamma1", repr(gamma1), "--gamma2", repr(gamma2), "--a", repr(a),
            "--t-max", repr(t_max), "--steps", str(steps), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()[1:]
    assert len(lines) == steps
    rates = DampingRates(gamma1, gamma2)
    for step, line in enumerate(lines):
        row = [float(x) for x in line.split(",")]
        t = t_max * step / (steps - 1)
        assert row[0] == t
        np.testing.assert_allclose(row, per_point_row(t, rates, a), rtol=0, atol=1e-14)


class TestVerify:
    def test_structural_scope_passes(self, capsys):
        code = cli.main(["verify", "--scope", "structural"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_model_scope_passes(self, capsys):
        code = cli.main(["verify", "--scope", "model"])
        out = capsys.readouterr().out
        assert code == 0
        assert "composite completeness" in out

    def test_raising_check_fails_and_the_rest_run(self, monkeypatch, capsys):
        def check_raises():
            raise ValueError("synthetic failure")

        monkeypatch.setattr(verify, "_MODEL", (check_raises, *verify._MODEL[1:]))
        code = cli.main(["verify", "--scope", "model"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 10 and lines[-1] == "8/9 checks passed"
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert "[model     ] check_raises" in failed[0]
        assert "measured=nan bound=nan" in failed[0]
        assert "raised ValueError: synthetic failure" in failed[0]
        assert sum(line.startswith("PASS") for line in lines) == 8

    def test_nan_eigenvalues_fail_the_structural_scope(self, monkeypatch, capsys):
        solve = linalg.hermitian_eig

        def nan_eigenvalues(h, **kwargs):
            eig = solve(h, **kwargs)
            return linalg.EigenDecomposition(np.full_like(eig.eigenvalues, np.nan), eig.unitary)

        monkeypatch.setattr(linalg, "hermitian_eig", nan_eigenvalues)
        code = cli.main(["verify", "--scope", "structural"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[-1] == "7/9 checks passed"
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 2
        for line, name in zip(failed, ("eigensolver reconstruction/unitarity", "evolution unitarity")):
            assert name in line and "measured=nan" in line

    def test_nan_min_eigenvalue_fails_cp_on_grid(self, monkeypatch):
        verdict_of = channels.cp_verdict

        def nan_at_point_3(choi, tol=channels.CP_EIG_TOL):
            verdict = verdict_of(choi, tol)
            lo = verdict.min_eigenvalue.copy()
            lo[3] = np.nan
            return verdict._replace(min_eigenvalue=lo)

        monkeypatch.setattr(channels, "cp_verdict", nan_at_point_3)
        result = verify.check_reduced_cp_on_grid()
        assert result.passed is False
        assert np.isnan(result.measured)

    def test_transposed_traced_state_fails_the_oracle_check(self, monkeypatch):
        contract = reduction.b_matrix

        def transposed(coeffs, rho2, basis2, time_label=None):
            return contract(coeffs, DensityMatrix(rho2.matrix.T), basis2, time_label)

        monkeypatch.setattr(reduction, "b_matrix", transposed)
        result = verify.check_oracle_equivalence()
        assert result.passed is False
        assert result.measured > 1e-3

    def test_every_check_passes_with_a_bool(self):
        results = verify.run_checks("all")
        assert [type(r.passed) for r in results] == [bool] * 18
        assert all(r.passed for r in results)


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rejected_parse_leaves_the_parser_usable(self, tmp_path):
        argv = ["case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
                "--t-max", "1.0", "--out", str(tmp_path / "sweep.csv")]
        assert exit_code(argv + ["--steps", "x"]) == 2
        assert not (tmp_path / "sweep.csv").exists()
        assert exit_code(argv + ["--steps", "3"]) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4


class TestChoi:
    def test_identity_choi_dump(self, tmp_path, capsys):
        map_path = tmp_path / "ident.json"
        map_path.write_text(dump_map_json(KrausMap(2, (np.eye(2, dtype=complex),))))
        code = cli.main(["choi", "--map", str(map_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_cp"] is True
        assert doc["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)
        choi = np.array([[complex(re, im) for re, im in row] for row in doc["choi"]])
        assert choi[0, 3] == 1.0 and choi[3, 0] == 1.0

    def test_choi_to_file(self, tmp_path):
        map_path = tmp_path / "m.json"
        out_path = tmp_path / "choi.json"
        map_path.write_text(dump_map_json(random_tp_kraus(rng_from(3), 2, 2)))
        code = cli.main(["choi", "--map", str(map_path), "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["dim"] == 2


def exit_code(argv) -> int:
    """cli.main's return value, or the code of argparse's SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestNonFiniteAndBoolInput:
    @pytest.mark.parametrize("bad", ["NaN", "true"])
    def test_map_file_entry_rejected(self, bad, tmp_path, capsys):
        map_path = tmp_path / "bad.json"
        map_path.write_text(f'{{"dim":2,"kraus":[[[[1,0],[0,0]],[[0,0],[{bad},0]]]]}}')
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(dump_density_json(maximally_mixed(1)))
        out_path = tmp_path / "out.json"
        assert cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "1",
            "--rho", str(rho_path), "--out", str(out_path),
        ]) == 2
        assert "kraus[0][1][1]" in capsys.readouterr().err
        assert cli.main(["choi", "--map", str(map_path), "--out", str(out_path)]) == 2
        assert "kraus[0][1][1]" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("bad", ["NaN", "true"])
    def test_density_file_entry_rejected(self, bad, case_study_files, tmp_path, capsys):
        map_path, _, _, _ = case_study_files
        rho_path = tmp_path / "bad_rho.json"
        rho_path.write_text(f'{{"dim":2,"rho":[[[1,0],[0,0]],[[0,0],[{bad},0]]]}}')
        assert cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(tmp_path / "out.json"),
        ]) == 2
        assert "rho[1][1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--gamma1", "nan"), ("--gamma2", "-inf"), ("--a", "nan"),
                       ("--t-max", "inf"), ("--truncation", "nan")],
    )
    def test_case_study_flag_rejected(self, flag, value, tmp_path, capsys):
        args = {"--gamma1": "0.3", "--gamma2": "1.0", "--a": "0.3", "--t-max": "1.0"}
        args[flag] = value
        argv = ["case-study", "--steps", "5", "--out", str(tmp_path / "x.csv")]
        for name, text in args.items():
            argv += [name, text]
        assert exit_code(argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["-1", "-0.5"])
    def test_negative_choi_tol_rejected(self, value, tmp_path, capsys):
        map_path = tmp_path / "ident.json"
        map_path.write_text(dump_map_json(KrausMap(2, (np.eye(2, dtype=complex),))))
        out_path = tmp_path / "choi.json"
        assert exit_code(["choi", "--map", str(map_path), "--tol", value, "--out", str(out_path)]) == 2
        assert f"error: tol must be finite and nonnegative, got {float(value)}" in capsys.readouterr().err
        assert not out_path.exists()


class TestRoundTrips:
    def test_mapfile_roundtrip_through_cli_output(self, case_study_files, tmp_path):
        map_path, rho_path, _, _ = case_study_files
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert cli.main([
                "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
                "--rho", str(rho_path), "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # reserialize the written file: canonical form is stable byte for byte
        text = out1.read_text()
        again = dump_map_json(load_map_json(text), label="reduced keep=1")
        assert text == again

    def test_reduce_then_apply_matches_composite(self, case_study_files, tmp_path):
        from helpers import brute_force_reduced_choi
        from subkraus.channels import choi_of_any
        from subkraus.reduction import Bipartition

        map_path, rho_path, rates, t = case_study_files
        out = tmp_path / "r.json"
        assert cli.main([
            "reduce", "--map", str(map_path), "--d1", "2", "--d2", "2",
            "--rho", str(rho_path), "--out", str(out),
        ]) == 0
        reduced = load_map_json(out.read_text())
        brute = brute_force_reduced_choi(
            composite_kraus(t, rates), Bipartition(2, 2), qubit_state(0.3)
        )
        assert np.abs(choi_of_any(reduced) - brute).max() < 1e-10
