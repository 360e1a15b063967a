import contextlib
import csv
import importlib
import importlib.util
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import re
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbicc import (
    Metric,
    bootstrap_dbicc,
    build_grouped_sample,
    compute_distance_matrix,
    dbicc_point,
    gen_spd_population,
)
import dbicc._children
import dbicc.cli
import dbicc.simulation
from dbicc.cli import dumps_json, main


def write_hand_csv(path):
    path.write_text(
        "individual,replicate,f1\nA,1,0\nA,2,2\nB,1,0\nB,2,2\n", encoding="utf-8"
    )


def grouping(dm):
    """(individual, replicate) numbers of the matrix rows, in row order."""
    return [(g, j) for g, size in enumerate(dm.group_sizes) for j in range(size)]


@pytest.fixture
def no_pool(monkeypatch):
    """Make any set of Monte Carlo runs the simulations start fail the test."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a set of runs started")

    monkeypatch.setattr(dbicc.simulation, "run_in_children", no_pool)


FEW_REPLICATES = (
    "warning: n_boot={} is small; percentile intervals are unstable below a few "
    "hundred replicates\n"
)


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


class TestEstimate:
    def test_hand_dataset(self, tmp_path):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        doc = run_json(tmp_path, ["estimate", str(src), "--distance", "l2"])
        assert doc["rho_hat"] == -1.0
        assert doc["msd_within"] == 4.0
        assert doc["msd_between"] == 2.0
        assert doc["n_within_pairs"] == 2
        assert doc["n_between_pairs"] == 4
        assert doc["distance"] == "l2"
        assert doc["threshold"] is None

    @staticmethod
    def _count_reads(monkeypatch):
        # whole-file reads: the block read, and the csv path it falls back to
        calls = []
        for name in ("_bulk_table", "_read_csv_rows"):
            read = getattr(dbicc.cli, name)

            def counting(path, *args, read=read, name=name, **kwargs):
                calls.append((name, path))
                return read(path, *args, **kwargs)

            monkeypatch.setattr(dbicc.cli, name, counting)
        return calls

    def test_vector_csv_is_parsed_once(self, tmp_path, monkeypatch):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        calls = self._count_reads(monkeypatch)
        run_json(tmp_path, ["estimate", str(src)])
        assert calls == [("_bulk_table", str(src))]

    def test_matrix_csv_is_parsed_once(self, tmp_path, monkeypatch):
        # the matrix by the block read; only the groups file by the csv module
        src, groups = tmp_path / "dm.csv", tmp_path / "groups.csv"
        src.write_text("0,1,4,5\n1,0,3,4\n4,3,0,1\n5,4,1,0\n")
        groups.write_text("row,individual,replicate\n0,a,0\n1,a,1\n2,b,0\n3,b,1\n")
        calls = self._count_reads(monkeypatch)
        run_json(tmp_path, ["estimate", str(src), "--groups", str(groups)])
        assert calls == [("_bulk_table", str(src)), ("_read_csv_rows", str(groups))]

    def test_distance_matrix_path_equivalence(self, tmp_path, rng):
        rows = [(f"s{i}", j, rng.standard_normal(3)) for i in range(3) for j in range(2)]
        src = tmp_path / "vectors.csv"
        with src.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["individual", "replicate", "f1", "f2", "f3"])
            for ind, rep, vec in rows:
                writer.writerow([ind, rep, *(format(v, ".17g") for v in vec)])
        vec_out = (tmp_path / "vec.json")
        assert main(["estimate", str(src), "--distance", "l2", "--out", str(vec_out)]) == 0

        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        dist_csv = tmp_path / "distances.csv"
        np.savetxt(dist_csv, dm.values, delimiter=",", fmt="%.17g")
        groups_csv = tmp_path / "groups.csv"
        with groups_csv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "individual", "replicate"])
            for row, (gi, rj) in enumerate(grouping(dm)):
                writer.writerow([row, f"s{gi}", rj])
        dist_out = tmp_path / "dist.json"
        assert (
            main(
                [
                    "estimate", str(dist_csv), "--groups", str(groups_csv),
                    "--distance", "l2", "--out", str(dist_out),
                ]
            )
            == 0
        )
        # vector input takes the payload block sums, matrix input the
        # distance matrix: the same document up to rounding in the floats
        vec_doc = json.loads(vec_out.read_text())
        dist_doc = json.loads(dist_out.read_text())
        assert vec_doc.keys() == dist_doc.keys()
        for key, value in vec_doc.items():
            if isinstance(value, float):
                assert value == pytest.approx(dist_doc[key], rel=1e-12, abs=0.0)
            else:
                assert type(value) is type(dist_doc[key])
                assert value == dist_doc[key]

    def test_vector_cells_read_as_python_floats(self, tmp_path, rng):
        # a quoted label may hold a comma; cells are read as float() reads them
        cells = [repr(float(v)) for v in rng.standard_normal(6)]
        src = tmp_path / "v.csv"
        src.write_text(
            "individual,replicate,f1,f2\n"
            f'"s,1",1,{cells[0]},{cells[1]}\n'
            f'"s,1",2, 1_0 ,{cells[2]}\n'
            f"t,1,{cells[3]},\u0661\u0662\n"
            f"t,2,{cells[4]},{cells[5]}\n",
            encoding="utf-8",
        )
        sample = dbicc.cli._load_vector_csv(str(src))
        assert sample.labels == ("s,1", "t")
        want = [
            [float(cells[0]), float(cells[1])],
            [10.0, float(cells[2])],
            [float(cells[3]), 12.0],
            [float(cells[4]), float(cells[5])],
        ]
        assert np.array_equal(sample.values, want)

    def test_output_goes_to_stdout_without_out(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        out = tmp_path / "out.json"
        assert main(["estimate", str(src), "--out", str(out)]) == 0
        assert main(["estimate", str(src)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_format_override(self, tmp_path):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        doc = run_json(tmp_path, ["estimate", str(src), "--format", "vectors"])
        assert doc["rho_hat"] == -1.0

    def test_distance_input_with_shuffled_rows(self, tmp_path, rng):
        rows = [(f"s{i}", j, rng.standard_normal(3)) for i in range(3) for j in range(2)]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        perm = rng.permutation(6)
        shuffled = dm.values[np.ix_(perm, perm)]
        dist_csv = tmp_path / "shuffled.csv"
        np.savetxt(dist_csv, shuffled, delimiter=",", fmt="%.17g")
        groups_csv = tmp_path / "shuffled_groups.csv"
        with groups_csv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "individual", "replicate"])
            for row in range(6):
                gi, rj = grouping(dm)[perm[row]]
                writer.writerow([row, f"s{gi}", rj])
        doc = run_json(
            tmp_path,
            ["estimate", str(dist_csv), "--groups", str(groups_csv)],
            name="shuffled.json",
        )
        assert doc["rho_hat"] == dbicc_point(dm).rho_hat
        assert doc["distance"] == "precomputed"

    def test_timeseries_manifest_end_to_end(self, tmp_path, rng):
        sigmas = gen_spd_population(25, 5, rng)
        lines = ["individual,replicate,path"]
        for i, sigma in enumerate(sigmas):
            chol = np.linalg.cholesky(sigma)
            for j in range(2):
                series = rng.standard_normal((30, 5)) @ chol.T
                rel = f"scan_{i}_{j}.csv"
                np.savetxt(tmp_path / rel, series, delimiter=",", fmt="%.17g")
                lines.append(f"sub{i:02d},{j},{rel}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = run_json(tmp_path, ["estimate", str(manifest), "--distance", "corr"])
        assert doc["rho_hat"] <= 1.0
        assert np.isfinite(doc["rho_hat"])

    def test_threshold_flag_applied(self, tmp_path, rng):
        # matrices with all |off-diagonal| <= 0.4: threshold 0.5 zeroes all
        lines = ["individual,replicate,path"]
        for i in range(2):
            for j in range(2):
                series = rng.standard_normal((40, 4))
                rel = f"ts_{i}_{j}.csv"
                np.savetxt(tmp_path / rel, series, delimiter=",", fmt="%.17g")
                lines.append(f"p{i},{j},{rel}")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "thr.json"
        rc = main(
            [
                "estimate", str(manifest), "--distance", "l2",
                "--threshold", "0.99", "--out", str(out),
            ]
        )
        assert rc == 3  # all matrices identical after total shrinkage


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_number_has_location(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("individual,replicate,f1\nA,1,zero\nB,1,2\nB,2,3\n")
        rc = main(["estimate", str(src)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv:2:3" in err

    def test_first_bad_number_is_reported_before_a_later_bad_row(
        self, tmp_path, capsys
    ):
        src = tmp_path / "bad.csv"
        src.write_text("individual,replicate,f1\nA,1,0\nA,2,x\nB,1\nB,2,3\n")
        assert main(["estimate", str(src)]) == 2
        assert "bad.csv:3:3: expected a number, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0,1,2,9\n1,0,3,9\n2,3,0,9\n",
                                      "0,1,2\n1,0,3\n2,3,0\n9,9,9\n"])
    def test_non_square_distance_csv_is_parse_error(self, tmp_path, capsys, text):
        src = tmp_path / "d.csv"
        src.write_text(text)
        n = text.count("\n")
        groups = tmp_path / "g.csv"
        groups.write_text(
            "row,individual,replicate\n"
            + "".join(f"{k},{'AB'[k % 2]},{k // 2}\n" for k in range(n))
        )
        assert main(["estimate", str(src), "--groups", str(groups)]) == 2
        err = capsys.readouterr().err
        width = text.index("\n") // 2 + 1
        assert (
            f"d.csv:1: expected {n} fields for an {n}x{n} distance matrix, "
            f"got {width}" in err
        )
        assert "Traceback" not in err

    def test_single_individual_is_computation_error(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("individual,replicate,f1\nA,1,0\nA,2,2\n")
        rc = main(["estimate", str(src)])
        assert rc == 3
        assert "InsufficientGroupsError" in capsys.readouterr().err

    def test_metric_mismatch_is_computation_error(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        rc = main(["estimate", str(src), "--distance", "corr"])
        assert rc == 3
        assert "MetricMismatchError" in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        rc = main(["estimate", str(src), "--no-such-flag"])
        assert rc == 4
        assert "configuration error" in capsys.readouterr().err

    def test_distances_without_groups_is_config_error(self, tmp_path):
        src = tmp_path / "d.csv"
        np.savetxt(src, np.zeros((2, 2)), delimiter=",", fmt="%.17g")
        assert main(["estimate", str(src)]) == 4

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_ragged_distance_csv_is_parse_error_with_location(self, tmp_path, capsys):
        src = tmp_path / "rag.csv"
        src.write_text("0,1,2\n1,0\n2,1,0\n")
        groups = tmp_path / "g.csv"
        groups.write_text("row,individual,replicate\n0,A,0\n1,A,1\n2,B,0\n")
        rc = main(["estimate", str(src), "--groups", str(groups)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rag.csv:2: expected 3 fields, got 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["bootstrap", "HAND", "--boot", "200"],
            ["simulate", "--experiment", "point", "--runs", "2"],
            ["simulate", "--experiment", "coverage", "--runs", "2"],
            ["simulate", "--experiment", "sb", "--runs", "2"],
        ],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        argv = [str(src) if arg == "HAND" else arg for arg in command]
        assert main([*argv, "--seed", "-1"]) == 4
        err = capsys.readouterr().err
        assert "configuration error: argument --seed" in err

    @pytest.mark.parametrize("experiment", ["point", "coverage", "sb"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "flag",
        ["--runs", "--individuals", "--replicates", "--dim", "--threads", "--boot"],
    )
    def test_nonpositive_count_is_config_error(self, capsys, experiment, value, flag):
        argv = ["simulate", "--experiment", experiment, "--seed", "1", flag, value]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"configuration error: argument {flag}: expected a positive" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_boot_is_config_error(self, tmp_path, capsys, value):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        assert main(["bootstrap", str(src), "--seed", "1", "--boot", value]) == 4
        err = capsys.readouterr().err
        assert "configuration error: argument --boot: expected a positive" in err

    @pytest.mark.parametrize("command", ["estimate", "bootstrap", "sweep-threshold"])
    def test_threads_belongs_to_simulate_only(self, tmp_path, capsys, command):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        assert main([command, str(src), "--threads", "2"]) == 4
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["1.0", "2", "-0.5"])
    def test_sb_phi_outside_unit_interval_is_parameter_error(self, capsys, phi):
        argv = [
            "simulate", "--experiment", "sb", "--individuals", "4", "--dim", "3",
            "--m-grid", "10,20,40", "--runs", "1", "--seed", "1", "--phi", phi,
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "ParameterError: AR(1) coefficient must lie in [0, 1)" in err

    @pytest.mark.parametrize("grid", ["25,25,60,197", "5,5,5"])
    def test_sb_repeated_m_grid_fails_before_any_run(self, capsys, grid):
        argv = ["simulate", "--experiment", "sb", "--m-grid", grid, "--seed", "1"]
        assert main(argv) == 3
        listed = grid.replace(",", ", ")
        assert capsys.readouterr().err == (
            f"ParameterError: m_grid repeats a length: [{listed}]\n"
        )

    def test_unexpected_error_exits_3_without_traceback(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(dbicc.cli._COMMANDS, "estimate", broken)
        assert main(["estimate", "any.csv"]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distance", ["l2", "l1", "precomputed"])
    def test_overflowing_squares_are_non_finite_error(
        self, tmp_path, capsys, distance
    ):
        src = tmp_path / "big.csv"
        src.write_text(
            "individual,replicate,f1,f2\na,0,1e200,0\na,1,-1e200,0\nb,0,0,0\nb,1,1,1\n"
        )
        argv = ["estimate", str(src), "--distance", distance]
        if distance == "precomputed":
            np.savetxt(src, 1e200 * (1.0 - np.eye(4)), delimiter=",", fmt="%.17g")
            groups = tmp_path / "g.csv"
            groups.write_text("row,individual,replicate\n0,a,0\n1,a,1\n2,b,0\n3,b,1\n")
            argv = ["estimate", str(src), "--groups", str(groups)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteError: squared distances")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_infinite_l1_distances_are_non_finite_error(self, tmp_path, capsys, command):
        src = tmp_path / "huge.csv"
        src.write_text(
            "individual,replicate,f1,f2\n"
            "a,0,1e308,1e308\na,1,-1e308,-1e308\nb,0,0,0\nb,1,1,1\n"
        )
        assert main([command, str(src), "--distance", "l1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteError: ")
        assert "Traceback" not in err

    def test_non_utf8_byte_past_the_header_chunk_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "late.csv"
        rows = "".join(f"A,{j},{j}\nB,{j},{2 * j}\n" for j in range(2000))
        src.write_bytes(b"individual,replicate,f1\n" + rows.encode() + b"\xe9,1,1\n")
        assert main(["estimate", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {src}: not a UTF-8 CSV file")

    def test_non_utf8_csv_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes(b"individual,replicate,f1\nA,1,0\n\xe9,2,1\n")
        assert main(["estimate", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {src}: not a UTF-8 CSV file")

    def test_duplicate_vector_label_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        src.write_text("individual,replicate,f1\na,1,0\na,1,2\nb,1,0\nb,2,2\n")
        assert main(["estimate", str(src)]) == 2
        err = capsys.readouterr().err
        assert "dup.csv:3: duplicate individual 'a', replicate '1'" in err

    def test_duplicate_groups_label_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        np.savetxt(src, 1.0 - np.eye(4), delimiter=",", fmt="%.17g")
        groups = tmp_path / "g.csv"
        groups.write_text("row,individual,replicate\n0,a,1\n1,a,1\n2,b,1\n3,b,2\n")
        assert main(["estimate", str(src), "--groups", str(groups)]) == 2
        err = capsys.readouterr().err
        assert "g.csv:3: duplicate individual 'a', replicate '1'" in err

    def test_series_of_mixed_shapes_are_input_shape_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name, rows in (("s0", 20), ("s1", 20), ("s2", 25)):
            np.savetxt(tmp_path / f"{name}.csv", rng.standard_normal((rows, 3)),
                       delimiter=",")
        manifest = tmp_path / "m.csv"
        manifest.write_text("individual,replicate,path\na,0,s0.csv\na,1,s1.csv\nb,0,s2.csv\n")
        assert main(["estimate", str(manifest)]) == 3
        assert capsys.readouterr().err == (
            "InputShapeError: payloads have mixed shapes: individual 'b' has (25, 3), "
            "individual 'a' has (20, 3)\n"
        )

    def test_duplicate_manifest_label_is_parse_error(self, tmp_path, capsys):
        for name in ("s0", "s1", "s2"):
            np.savetxt(tmp_path / f"{name}.csv", np.eye(3), delimiter=",")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "individual,replicate,path\na,0,s0.csv\nb,0,s1.csv\nb,00,s2.csv\n"
        )
        assert main(["estimate", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "m.csv:4: duplicate individual 'b', replicate '00' (first on line 3)" in err

    @pytest.mark.parametrize("experiment", ["point", "coverage"])
    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--rho", "1.5", "ParameterError: population dbICC must lie in (0, 1), got 1.5"),
            ("--individuals", "1",
             "InsufficientGroupsError: need at least 2 individuals, got 1"),
            ("--replicates", "1",
             "InsufficientReplicatesError: at least one individual needs 2+ replicates; "
             "within-individual spread is undefined otherwise"),
        ],
    )
    def test_bad_population_fails_before_any_run(
        self, no_pool, capsys, experiment, flag, value, error
    ):
        boot = ["--boot", "50"] if experiment == "coverage" else []
        argv = ["simulate", "--experiment", experiment, *boot, "--threads", "2",
                "--seed", "1", flag, value]
        assert main(argv) == 3
        assert capsys.readouterr().err == error + "\n"

    @pytest.mark.parametrize(
        "argv, level",
        [
            (["bootstrap", "{v}", "--level", "1.5", "--boot", "50"], "1.5"),
            (["bootstrap", "{v}", "--level", "nan", "--boot", "50"], "nan"),
            (["bootstrap", "{missing}", "--level", "1.5"], "1.5"),
            (["simulate", "--experiment", "coverage", "--level", "1.5", "--boot", "50",
              "--threads", "2"], "1.5"),
        ],
    )
    def test_bad_level_fails_before_any_work(self, tmp_path, no_pool, capsys, argv, level):
        src = tmp_path / "v.csv"
        write_hand_csv(src)
        argv = [a.format(v=src, missing=tmp_path / "missing.csv") for a in argv]
        assert main(argv) == 3
        err = f"ParameterError: level must lie in (0, 1), got {level}\n"
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bootstrap", "{v}", "--boot", "1", "--seed", "1"],
            ["bootstrap", "{missing}", "--boot", "1"],
            ["simulate", "--experiment", "coverage", "--boot", "1", "--runs", "4",
             "--threads", "2", "--seed", "1"],
        ],
        ids=["bootstrap", "bootstrap unread input", "coverage"],
    )
    def test_one_replicate_fails_before_any_work(self, tmp_path, no_pool, capsys, argv):
        src = tmp_path / "v.csv"
        write_hand_csv(src)
        argv = [a.format(v=src, missing=tmp_path / "missing.csv") for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 3
        assert capsys.readouterr().err == (
            "InsufficientDataError: need at least 2 estimates for an interval, got 1\n"
        )
        assert not (tmp_path / "out.json").exists()


    LOOP = "Too many levels of symbolic links"

    @pytest.mark.parametrize(
        "argv, flag, path, error",
        [
            (["estimate", "{missing}"], "--out", "{d}/nodir/x.json",
             "'{d}/nodir' is not a directory"),
            (["bootstrap", "{missing}"], "--out", "{d}", "is a directory"),
            (["sweep-threshold", "{missing}"], "--out", "{d}/nodir/s.csv",
             "'{d}/nodir' is not a directory"),
            (["simulate", "--experiment", "point", "--runs", "2", "--seed", "1"], "--csv",
             "{d}/nodir/y.csv", "'{d}/nodir' is not a directory"),
            (["simulate", "--experiment", "coverage", "--boot", "50", "--runs", "2",
              "--threads", "2", "--seed", "1"], "--out", "{d}", "is a directory"),
            (["simulate", "--experiment", "point", "--runs", "3", "--seed", "1",
              "--out", "{d}/f"], "--csv", "{d}/./f", "same file as --out"),
            (["estimate", "{missing}"], "--out", "{d}/loop", LOOP),
            (["simulate", "--experiment", "sb", "--runs", "2", "--seed", "1"], "--out",
             "{d}/loop", LOOP),
            (["simulate", "--experiment", "point", "--runs", "2", "--seed", "1"], "--csv",
             "{d}/loop", LOOP),
        ],
        ids=["estimate", "bootstrap", "sweep-threshold", "simulate csv", "simulate out",
             "simulate out and csv one file", "estimate out in a symlink loop",
             "simulate out in a symlink loop", "simulate csv in a symlink loop"],
    )
    def test_output_path_fails_before_any_work(
        self, tmp_path, no_pool, capsys, argv, flag, path, error
    ):
        # a path whose lookup fails, so that writing it would fail after the work
        (tmp_path / "loop").symlink_to(tmp_path / "loop2")
        (tmp_path / "loop2").symlink_to(tmp_path / "loop")
        path = path.format(d=tmp_path)
        argv = [a.format(missing=tmp_path / "missing.csv", d=tmp_path) for a in argv]
        assert main([*argv, flag, path]) == 4
        assert capsys.readouterr().err == (
            f"configuration error: {flag} {path!r}: {error.format(d=tmp_path)}\n"
        )
        assert not Path(path).is_file()

    def test_out_and_csv_as_hard_links_of_one_file_fail_before_any_work(
        self, tmp_path, no_pool, capsys
    ):
        out, csv_path = tmp_path / "f", tmp_path / "g"
        out.write_text("kept\n")
        os.link(out, csv_path)
        argv = ["simulate", "--experiment", "point", "--individuals", "5", "--runs", "2",
                "--seed", "1", "--out", str(out), "--csv", str(csv_path)]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"configuration error: --csv {str(csv_path)!r}: same file as --out\n"
        )
        assert out.read_bytes() == csv_path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize(
        "argv, out, what",
        [
            (["estimate", "{d}/v.csv"], "{d}/v.csv", "the input"),
            (["bootstrap", "{d}/v.csv", "--boot", "100"], "{d}/./v.csv", "the input"),
            (["estimate", "{d}/v.csv"], "{d}/link.csv", "the input"),
            (["estimate", "{d}/dm.csv", "--groups", "{d}/groups.csv"], "{d}/groups.csv",
             "--groups"),
            (["sweep-threshold", "{d}/m.csv"], "{d}/m.csv", "the input"),
            (["estimate", "{d}/m.csv", "--distance", "corr"], "{d}/s11.csv",
             "the series listed at {d}/m.csv:5"),
            # neither file exists: refused before the read that would exit 2
            (["estimate", "{d}/missing.csv"], "{d}/./missing.csv", "the input"),
        ],
        ids=["input", "input by another path", "input by a hard link", "groups",
             "manifest", "listed series", "missing input"],
    )
    def test_out_naming_an_input_fails_before_any_series_is_read(
        self, tmp_path, monkeypatch, capsys, argv, out, what
    ):
        write_hand_csv(tmp_path / "v.csv")
        os.link(tmp_path / "v.csv", tmp_path / "link.csv")
        _matrix_input(tmp_path)
        _series_manifest(tmp_path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def no_read(*args):
            raise AssertionError("a series was read")

        monkeypatch.setattr(dbicc.cli, "run_in_children", no_read)
        out = out.format(d=tmp_path)
        assert main([*(a.format(d=tmp_path) for a in argv), "--out", out]) == 4
        assert capsys.readouterr().err == (
            f"configuration error: --out {out!r}: same file as {what.format(d=tmp_path)}\n"
        )
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before



# main() on argv in a fresh interpreter whose files may not grow past the
# byte limit: a write beyond it fails with EFBIG (CPython ignores SIGXFSZ)
_LIMITED_MAIN = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
from dbicc.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _limited_main(argv, limit):
    done = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, str(limit), *argv],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    return done.returncode, done.stderr


class TestOutputWrites:
    """An output is written beside its target and moved over it, so a failed
    write keeps what the target held and leaves no file behind."""

    def test_a_failed_write_keeps_the_existing_output(self, tmp_path, rng):
        _write_vectors(tmp_path / "v.csv", rng)
        out = tmp_path / "keep.json"
        out.write_text("previous\n")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code, err = _limited_main(["estimate", str(tmp_path / "v.csv"), "--out", str(out)], 0)
        assert (code, err) == (5, f"output error: cannot write {str(out)!r} (File too large)\n")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_simulate_writes_both_files_before_it_moves_either(self, tmp_path):
        argv = ["simulate", "--experiment", "point", "--runs", "3", "--seed", "1"]
        fresh_json, fresh_csv = tmp_path / "fresh.json", tmp_path / "fresh.csv"
        assert main([*argv, "--out", str(fresh_json), "--csv", str(fresh_csv)]) == 0
        csv_size = fresh_csv.stat().st_size
        assert fresh_json.stat().st_size > csv_size
        out, csv_path = tmp_path / "keep.json", tmp_path / "keep.csv"
        out.write_text("old json\n")
        csv_path.write_text("old csv\n")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        # the CSV fits the limit, the JSON does not
        code, err = _limited_main([*argv, "--out", str(out), "--csv", str(csv_path)], csv_size)
        assert (code, err) == (5, f"output error: cannot write {str(out)!r} (File too large)\n")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_dev_full_is_an_output_error(self, tmp_path, capsys):
        write_hand_csv(tmp_path / "v.csv")
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", "/dev/full"]) == 5
        assert capsys.readouterr().err == (
            "output error: cannot write '/dev/full' (No space left on device)\n"
        )

    def test_dev_null_is_written_in_place(self, tmp_path, capsys):
        write_hand_csv(tmp_path / "v.csv")
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""
        assert Path(os.devnull).is_char_device()
        assert [f.name for f in tmp_path.iterdir()] == ["v.csv"]

    def test_a_symlink_updates_the_file_it_names_with_its_mode(self, tmp_path):
        write_hand_csv(tmp_path / "v.csv")
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("previous\n")
        real.chmod(0o640)
        link.symlink_to(real)
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", str(link)]) == 0
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", str(tmp_path / "new.json")]) == 0
        assert link.is_symlink() and real.read_bytes() == (tmp_path / "new.json").read_bytes()
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o666 & ~umask
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "link.json", "new.json", "real.json", "v.csv"]

    def test_a_hard_link_to_the_output_keeps_the_old_bytes(self, tmp_path):
        write_hand_csv(tmp_path / "v.csv")
        out, other = tmp_path / "out.json", tmp_path / "other.json"
        out.write_text("previous\n")
        os.link(out, other)
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", str(out)]) == 0
        assert other.read_text() == "previous\n"
        assert out.read_text().startswith("{")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root opens a read-only file for writing")
    def test_a_read_only_output_is_refused_and_kept(self, tmp_path, capsys):
        write_hand_csv(tmp_path / "v.csv")
        out = tmp_path / "ro.json"
        out.write_text("previous\n")
        out.chmod(0o444)
        assert main(["estimate", str(tmp_path / "v.csv"), "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"output error: cannot write {str(out)!r} (Permission denied)\n"
        )
        assert out.read_text() == "previous\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ro.json", "v.csv"]


_GROUPS = "row,individual,replicate\n0,a,1\n1,a,2\n2,b,1\n3,b,2\n"


def _matrix_input(tmp_path, groups=_GROUPS):
    """A 4x4 distance matrix of two individuals and its ``--groups`` file."""
    src, groups_csv = tmp_path / "dm.csv", tmp_path / "groups.csv"
    src.write_text("0,1,2,3\n1,0,2,3\n2,2,0,1\n3,3,1,0\n")
    groups_csv.write_text(groups)
    return src, groups_csv


def _series_manifest(tmp_path, last=None):
    """A manifest of four 20x3 series; ``last`` replaces the last path."""
    rng = np.random.default_rng(1)
    lines = ["individual,replicate,path"]
    for i in range(2):
        for j in range(2):
            np.savetxt(tmp_path / f"s{i}{j}.csv", rng.standard_normal((20, 3)),
                       delimiter=",")
            lines.append(f"q{i},{j},s{i}{j}.csv")
    if last is not None:
        lines[-1] = f"q1,1,{last}"
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestInputChecks:
    """Input flags checked against the format, and each input file's own errors."""

    @pytest.mark.parametrize("data", ["vectors", "timeseries"])
    def test_groups_with_payload_input_is_config_error(self, tmp_path, capsys, data):
        if data == "vectors":
            src = tmp_path / "hand.csv"
            write_hand_csv(src)
        else:
            src = _series_manifest(tmp_path)
        # the groups file is never read
        argv = ["estimate", str(src), "--groups", str(tmp_path / "missing.csv")]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "configuration error: --groups applies only to a distance-matrix input\n"
        )

    @pytest.mark.parametrize(
        "groups, error",
        [
            ("row,ind,replicate\n0,a,1\n1,a,2\n2,b,1\n3,b,2\n",
             "groups.csv:1: expected header 'row,individual,replicate'"),
            ("row,individual,replicate\n0,a,1\nx,a,2\n2,b,1\n3,b,2\n",
             "groups.csv:3:1: row index must be an integer, got 'x'"),
            ("row,individual,replicate\n0,a,1\n1,a,2\n2,b,1\n4,b,2\n",
             "groups.csv: row indices must cover 0..3 exactly once for a 4x4 "
             "distance matrix"),
        ],
    )
    def test_malformed_groups_file_is_parse_error(self, tmp_path, capsys, groups, error):
        src, groups_csv = _matrix_input(tmp_path, groups)
        assert main(["estimate", str(src), "--groups", str(groups_csv)]) == 2
        assert capsys.readouterr().err == f"input error: {tmp_path / error}\n"

    def test_missing_series_is_parse_error(self, tmp_path, capsys):
        manifest = _series_manifest(tmp_path, last="nope.csv")
        assert main(["estimate", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'nope.csv'}: cannot read file "
            f"(No such file or directory) (listed at {manifest}:5)\n"
        )

    def test_input_in_a_symlink_loop_is_parse_error_with_out_given(self, tmp_path, capsys):
        loop, other = tmp_path / "loop.csv", tmp_path / "other.csv"
        loop.symlink_to(other)
        other.symlink_to(loop)
        assert main(["estimate", str(loop), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: {loop}: cannot read file (Too many levels of symbolic links)\n"
        )

    @pytest.mark.parametrize(
        "text, error",
        [("individual,replicate,f1\nA,1,0\n",
          ":1: expected header 'individual,replicate,path'"),
         ("individual,replicate,path\n", ": no data rows")],
        ids=["header", "no rows"],
    )
    def test_malformed_manifest_is_parse_error(self, tmp_path, capsys, text, error):
        manifest = tmp_path / "m.csv"
        manifest.write_text(text)
        assert main(["estimate", str(manifest), "--format", "timeseries"]) == 2
        assert capsys.readouterr().err == f"input error: {manifest}{error}\n"

    def test_series_with_bom_and_crlf_reads_as_plain(self, tmp_path):
        manifest = _series_manifest(tmp_path)
        argv = ["estimate", str(manifest), "--distance", "corr", "--out"]
        assert main([*argv, str(tmp_path / "plain.json")]) == 0
        series = tmp_path / "s11.csv"
        series.write_bytes(b"\xef\xbb\xbf" + series.read_bytes().replace(b"\n", b"\r\n"))
        assert main([*argv, str(tmp_path / "marked.json")]) == 0
        plain = (tmp_path / "plain.json").read_bytes()
        assert (tmp_path / "marked.json").read_bytes() == plain

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"", ": file is empty"),
            # "#" starts no comment: it is a cell that is not a number
            (b"# no rows\n\n", ":1:1: expected a number, got '# no rows'"),
            (b"\n\n", ": no data rows"),
            (b"1,2,3\n4,\xe9,6\n", ": not a UTF-8 CSV file ('utf-8' codec can't decode "
             "byte 0xe9 in position 8: invalid continuation byte)"),
            # the offset in the file, not in the read that met the byte
            (b"1,2,3\n" * 2000 + b"4,\xe9,6\n", ": not a UTF-8 CSV file ('utf-8' codec "
             "can't decode byte 0xe9 in position 12002: invalid continuation byte)"),
        ],
        ids=["empty", "comments only", "blank lines only", "not UTF-8",
             "not UTF-8 after the first read"],
    )
    def test_series_without_rows_or_not_utf8_is_parse_error(
        self, tmp_path, capsys, content, error
    ):
        # one located line, and no warning from the parser before it
        (tmp_path / "bad.csv").write_bytes(content)
        manifest = _series_manifest(tmp_path, last="bad.csv")
        assert main(["estimate", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'bad.csv'}{error} (listed at {manifest}:5)\n"
        )

    @pytest.mark.parametrize("command", ["estimate", "sweep-threshold"])
    def test_constant_series_column_names_the_individual(
        self, tmp_path, capsys, command
    ):
        series = np.random.default_rng(2).standard_normal((20, 3))
        series[:, 2] = 1.0
        np.savetxt(tmp_path / "dead.csv", series, delimiter=",")
        manifest = _series_manifest(tmp_path, last="dead.csv")
        assert main([command, str(manifest)]) == 3
        assert capsys.readouterr().err == (
            "DegenerateInputError: series of individual 'q1': column 2 is constant; "
            "correlation undefined\n"
        )

    def test_constant_channel_with_a_nonzero_std_is_caught(self, tmp_path, capsys):
        # 197 samples of 0.1 have a mean other than 0.1, so a std above 0
        rng = np.random.default_rng(4)
        lines = ["individual,replicate,path"]
        for i in range(3):
            for j in range(2):
                series = rng.standard_normal((197, 4))
                if (i, j) == (1, 0):
                    series[:, 2] = 0.1
                np.savetxt(tmp_path / f"s{i}{j}.csv", series, delimiter=",")
                lines.append(f"q{i},{j},s{i}{j}.csv")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n")
        assert np.loadtxt(tmp_path / "s10.csv", delimiter=",")[:, 2].std() > 0.0
        assert main(["estimate", str(manifest), "--distance", "corr"]) == 3
        assert capsys.readouterr().err == (
            "DegenerateInputError: series of individual 'q1': column 2 is constant; "
            "correlation undefined\n"
        )

    @pytest.mark.parametrize("command", ["estimate", "bootstrap", "sweep-threshold"])
    @pytest.mark.parametrize("level, shown", [("2", "2.0"), ("-0.5", "-0.5"), ("nan", "nan")])
    def test_threshold_outside_unit_interval_fails_before_the_input_is_read(
        self, tmp_path, capsys, command, level, shown
    ):
        argv = [command, str(tmp_path / "missing.csv"), f"--threshold={level}"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"ParameterError: soft-threshold level must lie in [0, 1], got {shown}\n"
        )

    def test_non_numeric_series_is_parse_error(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("1,2,3\n4,x,6\n")
        manifest = _series_manifest(tmp_path, last="bad.csv")
        assert main(["estimate", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'bad.csv'}:2:2: expected a number, got 'x' "
            f"(listed at {manifest}:5)\n"
        )

    @pytest.mark.parametrize(
        "text, error",
        [
            ("# a,b,c\n1,2,3\n\n4,5,x # end\n7,8\n", "1:1: expected a number, got '# a'"),
            ("1,2,3 # a,b\n\n4,5\n", "1:3: expected a number, got '3 # a'"),
            ("1,2,3\n\n4,5,6 # end\n", "3:3: expected a number, got '6 # end'"),
            ("1,2,3\n\n4,5\n", "3: expected 3 fields, got 2"),
        ],
    )
    def test_series_error_lines_count_as_the_csv_reader_reads_them(
        self, tmp_path, capsys, text, error
    ):
        # a blank line is skipped, and still counted; "#" is a cell's text
        (tmp_path / "bad.csv").write_text(text)
        manifest = _series_manifest(tmp_path, last="bad.csv")
        assert main(["estimate", str(manifest)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'bad.csv'}:{error} (listed at {manifest}:5)\n"
        )

    @pytest.mark.parametrize(
        "grid, error",
        [
            ("0:0.2", "--threshold-grid expects 'start:stop:step', got '0:0.2'"),
            ("a:b:c", "--threshold-grid values must be numbers, got 'a:b:c'"),
            ("0:0.5:0", "--threshold-grid needs step > 0 and stop >= start"),
            ("1:0:0.1", "--threshold-grid needs step > 0 and stop >= start"),
        ],
    )
    def test_malformed_grid_fails_before_the_input_is_read(
        self, tmp_path, capsys, grid, error
    ):
        argv = ["sweep-threshold", str(tmp_path / "missing.csv"), f"--threshold-grid={grid}"]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"configuration error: {error}\n"

    def test_grid_of_too_many_levels_fails_before_any_level(self, tmp_path, capsys):
        # 10**12 + 1 levels would exhaust memory before the input is read
        argv = ["sweep-threshold", str(tmp_path / "missing.csv"), "--threshold-grid=0:1:1e-12"]
        started = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == (
            "configuration error: --threshold-grid has 1000000000001 levels, more than 100000\n"
        )

    @pytest.mark.parametrize("grid, code", [("0:0.9:0.1", 2), ("0:1:0.1", 4)])
    def test_grid_level_cap_is_inclusive(self, monkeypatch, tmp_path, grid, code):
        # 10 levels are read on to the missing input; 11 are refused
        monkeypatch.setattr(dbicc.cli, "_MAX_GRID_LEVELS", 10)
        argv = ["sweep-threshold", str(tmp_path / "missing.csv"), f"--threshold-grid={grid}"]
        assert main(argv) == code

    @pytest.mark.parametrize(
        "text, fmt, error",
        [("\n\n\n", [], "no data rows"), ("", ["--format", "distances"], "file is empty")],
    )
    def test_distance_csv_without_rows_is_parse_error(
        self, tmp_path, capsys, text, fmt, error
    ):
        src, groups_csv = _matrix_input(tmp_path)
        src.write_text(text)
        assert main(["estimate", str(src), *fmt, "--groups", str(groups_csv)]) == 2
        assert capsys.readouterr().err == f"input error: {src}: {error}\n"

    @pytest.mark.parametrize("data", ["vectors", "distances"])
    def test_csv_error_names_its_line(self, tmp_path, capsys, data):
        limit = csv.field_size_limit()
        if data == "vectors":
            src = tmp_path / "long.csv"
            write_hand_csv(src)
            argv = ["estimate", str(src)]
        else:
            src, groups_csv = _matrix_input(tmp_path)
            argv = ["estimate", str(src), "--groups", str(groups_csv)]
        lines = src.read_text().splitlines()
        lines[1] = lines[1] + "1" * limit  # its last cell now exceeds the limit
        src.write_text("\n".join(lines) + "\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"input error: {src}:2: field larger than field limit ({limit})\n"
        )


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel series read needs the fork start method",
)


_choose_series_workers = dbicc._children.fork_workers


def _reads_on(monkeypatch, cpus):
    """Read every manifest's series as ``cpus`` usable CPUs would from now on.

    One CPU gives the serial read, two give two forked readers.  Returns
    the worker counts that the reads chose, one per manifest.
    """
    chosen = []

    def spy(paths):
        chosen.append(_choose_series_workers(paths))
        return chosen[-1]

    monkeypatch.setattr(dbicc._children, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(dbicc.cli, "fork_workers", spy)
    return chosen


def _listed_series(tmp_path, entries):
    """A manifest of ``(individual, replicate, series or text)`` lines.

    A series array is saved as its own CSV; text is written as the file.
    """
    rng = np.random.default_rng(3)
    lines = ["individual,replicate,path"]
    for k, (ind, rep, content) in enumerate(entries):
        name = f"series{k}.csv"
        if content is None:
            np.savetxt(tmp_path / name, rng.standard_normal((30, 6)), delimiter=",")
        else:
            (tmp_path / name).write_text(content)
        lines.append(f"{ind},{rep},{name}")
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestParallelSeriesRead:
    """Series parsed in forked processes give what the serial read gives."""

    def test_parse_failure_survives_pickling(self):
        exc = dbicc.cli._ParseFailure("a.csv", "m", line=3, column=4)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is dbicc.cli._ParseFailure
        assert str(back) == "a.csv:3:4: m"
        exc.args = (f"{exc} (listed at m.csv:2)",)
        assert str(pickle.loads(pickle.dumps(exc))) == "a.csv:3:4: m (listed at m.csv:2)"

    def test_workers_need_two_cpus_two_files_and_no_other_thread(
        self, tmp_path, monkeypatch
    ):
        _listed_series(tmp_path, [("a", 0, None), ("a", 1, None), ("b", 0, None)])
        paths = [tmp_path / f"series{k}.csv" for k in range(3)]
        monkeypatch.setattr(dbicc._children, "usable_cpus", lambda: 4)
        expected = 3 if "fork" in multiprocessing.get_all_start_methods() else 1
        assert dbicc._children.fork_workers(paths) == expected
        assert dbicc._children.fork_workers(paths[:1]) == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:  # a fork would copy this thread only
            assert dbicc._children.fork_workers(paths) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.setattr(dbicc._children, "usable_cpus", lambda: 1)
        assert dbicc._children.fork_workers(paths) == 1
        monkeypatch.undo()  # the CPUs this process may run on
        if not dbicc._children.can_fork():
            return
        cpus = dbicc._children.usable_cpus()
        if cpus < 2:
            pytest.skip(f"{cpus} usable CPU: a forked read needs 2")
        assert dbicc._children.fork_workers(paths[:2]) == 2
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})  # as under taskset -c
        try:
            assert dbicc._children.fork_workers(paths[:2]) == 1
        finally:
            os.sched_setaffinity(0, mask)

    def test_no_affinity_call_means_one_cpu(self, monkeypatch):
        # and no fork: macOS, say, spawns simulate's workers
        monkeypatch.delattr(dbicc._children.os, "sched_getaffinity", raising=False)
        assert not dbicc._children.can_fork()
        assert dbicc._children.fork_workers(["a.csv", "b.csv"]) == 1

    @needs_fork
    @pytest.mark.parametrize(
        "entries, error",
        [
            # a bad series on line 3, a duplicate label on line 5
            ([("a", 0, None), ("a", 1, "1,2\n3,x\n"), ("b", 0, None), ("b", 0, None)],
             "{d}/series1.csv:2:2: expected a number, got 'x' (listed at {m}:3)"),
            # a duplicate label on line 4, a bad series on line 5
            ([("a", 0, None), ("b", 0, None), ("a", 0, None), ("b", 1, "1,2\n3,x\n")],
             "{m}:4: duplicate individual 'a', replicate '0' (first on line 2)"),
            # two bad series, read by different processes
            ([("a", 0, None), ("a", 1, "1,2\n3\n"), ("b", 0, ""), ("b", 1, None)],
             "{d}/series1.csv:2: expected 2 fields, got 1 (listed at {m}:3)"),
            ([("a", 0, None), ("a", 1, None), ("b", 0, "1,2\n3\n"), ("b", 1, "")],
             "{d}/series2.csv:2: expected 2 fields, got 1 (listed at {m}:4)"),
        ],
        ids=["bad series first", "duplicate first", "two bad series", "two bad, later"],
    )
    def test_first_fault_in_line_order_wins(
        self, tmp_path, monkeypatch, capsys, entries, error
    ):
        manifest = _listed_series(tmp_path, entries)
        argv = ["estimate", str(manifest)]
        chosen = _reads_on(monkeypatch, 1)
        serial = main(argv), capsys.readouterr()
        assert chosen == [1]
        chosen = _reads_on(monkeypatch, 2)
        forked = main(argv), capsys.readouterr()
        assert chosen == [2]
        assert forked == serial
        assert forked[0] == 2
        assert forked[1].err == f"input error: {error.format(d=tmp_path, m=manifest)}\n"
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_estimate_to_stdout_is_identical_and_printed_once(
        self, tmp_path, monkeypatch, capfd
    ):
        manifest = _listed_series(tmp_path, [(i, j, None) for i in "abc" for j in (0, 1)])
        outputs = []
        for cpus in (1, 2):
            chosen = _reads_on(monkeypatch, cpus)
            print("before the command", end="")  # a pending line the forks must not repeat
            assert main(["estimate", str(manifest), "--distance", "corr"]) == 0
            outputs.append(capfd.readouterr())
            assert chosen == [cpus]
        assert outputs[1] == outputs[0]
        assert outputs[0].err == ""
        assert outputs[0].out.startswith("before the command{\n")
        assert outputs[0].out.count('"rho_hat"') == 1

    @needs_fork
    @pytest.mark.parametrize(
        "argv",
        [
            ["bootstrap", "--distance", "corr", "--boot", "200", "--seed", "5"],
            ["sweep-threshold", "--distance", "l2"],
        ],
        ids=["bootstrap", "sweep-threshold"],
    )
    def test_outputs_are_byte_identical(self, tmp_path, monkeypatch, argv):
        manifest = _listed_series(tmp_path, [(i, j, None) for i in "abc" for j in (0, 1)])
        command = [argv[0], str(manifest), *argv[1:], "--out"]
        chosen = _reads_on(monkeypatch, 1)
        assert main([*command, str(tmp_path / "serial.out")]) == 0
        assert chosen == [1]
        chosen = _reads_on(monkeypatch, 2)
        assert main([*command, str(tmp_path / "forked.out")]) == 0
        assert chosen == [2]
        serial = (tmp_path / "serial.out").read_bytes()
        assert (tmp_path / "forked.out").read_bytes() == serial
        assert multiprocessing.active_children() == []

    @needs_fork
    @pytest.mark.parametrize("interrupt", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_no_child_outlives_an_exception_in_the_reader(
        self, tmp_path, monkeypatch, capsys, interrupt
    ):
        manifest = _listed_series(tmp_path, [(i, j, None) for i in "abc" for j in (0, 1)])
        chosen = _reads_on(monkeypatch, 2)
        received = []

        def fail_second(conn, buf, offset=0):
            received.append(len(buf))
            if len(received) == 2:
                raise interrupt
            return receive(conn, buf, offset)

        def slow_after_the_first(path):
            if path.name not in ("series0.csv", "series1.csv"):
                time.sleep(60)
            return read(path)

        read = dbicc.cli._read_table
        monkeypatch.setattr(dbicc.cli, "_read_table", _in_children_only(slow_after_the_first))
        receive = multiprocessing.connection.Connection.recv_bytes_into
        monkeypatch.setattr(multiprocessing.connection.Connection, "recv_bytes_into",
                            fail_second)
        start = time.monotonic()
        if isinstance(interrupt, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(["estimate", str(manifest)])
        else:
            assert main(["estimate", str(manifest)]) == 3
            assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
        assert time.monotonic() - start < 30  # the readers were ended, not awaited
        assert chosen == [2]
        assert len(received) == 2
        assert multiprocessing.active_children() == []

    @needs_fork
    @pytest.mark.parametrize("closes_first", [False, True],
                             ids=["exits", "closes its pipe, then exits"])
    def test_a_reader_that_dies_is_an_internal_error(
        self, tmp_path, monkeypatch, capsys, closes_first
    ):
        # the second reader, whose pipe was opened last, dies on its first series
        manifest = _listed_series(tmp_path, [(i, j, None) for i in "abc" for j in (0, 1)])
        chosen = _reads_on(monkeypatch, 2)
        read = dbicc.cli._read_table

        def dies_on_series1(path):
            if path.name != "series1.csv":
                return read(path)
            if closes_first:  # the end of file reaches this process before the exit
                os.closerange(3, 65536)
                time.sleep(0.2)
            os._exit(3)

        def waited(signum, frame):  # ends a wait for an end of file that never comes
            raise TimeoutError("no end of file")

        monkeypatch.setattr(dbicc.cli, "_read_table", _in_children_only(dies_on_series1))
        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(30)
        try:
            assert main(["estimate", str(manifest)]) == 3
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: worker process ended (exit code 3)\n"
        )
        assert chosen == [2]
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_reader_ignores_ctrl_c(self, tmp_path, monkeypatch, capfd):
        # Ctrl-C signals every process in the foreground group, the readers too
        manifest = _listed_series(tmp_path, [(i, j, None) for i in "abc" for j in (0, 1)])
        argv = ["estimate", str(manifest)]
        _reads_on(monkeypatch, 1)
        assert main(argv) == 0
        serial = capfd.readouterr()
        read = dbicc.cli._read_table

        def interrupted(path):  # runs in a reader only
            os.kill(os.getpid(), signal.SIGINT)
            return read(path)

        monkeypatch.setattr(dbicc.cli, "_read_table", interrupted)
        chosen = _reads_on(monkeypatch, 2)
        assert main(argv) == 0
        assert chosen == [2]
        assert capfd.readouterr() == serial
        assert serial.err == ""
        assert multiprocessing.active_children() == []

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="counts the process's threads in /proc/self/stat")
    def test_the_fork_sees_one_os_thread_with_numpys_blas_pool_running(self, tmp_path):
        # Python 3.12+ warns when it forks a process with other OS threads.
        # OpenBLAS's own fork handler stops its pool first, so none is left.
        # Each forked command is then run serially in the same process, on
        # the same BLAS pool: a series correlation's bits depend on the BLAS
        # thread count, so only reads at one count can be compared.
        rng = np.random.default_rng(1)
        entries = []
        for ind in "abc":  # each with its own 2 factors, so |r| > 0.9 occurs
            loadings = rng.standard_normal((2, 8))
            entries += [(ind, scan, "\n".join(
                ",".join(repr(float(v)) for v in row)
                for row in rng.standard_normal((40, 2)) @ loadings
                + 0.3 * rng.standard_normal((40, 8))
            )) for scan in (0, 1)]
        manifest = _listed_series(tmp_path, entries)
        script = """
import json, os, sys
import numpy as np
import dbicc._children, dbicc.cli

def os_threads():
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[17])

a = np.ones((300, 300))
a @ a  # the BLAS pool, if any, has run
at_fork = []
os.register_at_fork(after_in_parent=lambda: at_fork.append(os_threads()))
manifest, out = sys.argv[1], sys.argv[2]
dbicc._children.usable_cpus = lambda: 2
code = dbicc.cli.main(["estimate", manifest])
print(at_fork)

def run(name, cpus, argv):
    # the command's stderr, its forked children's included, goes to name.err
    dbicc._children.usable_cpus = lambda: cpus
    at_fork.clear()
    sys.stderr.flush()
    saved = os.dup(2)
    with open(os.path.join(out, name + ".err"), "wb") as err:
        os.dup2(err.fileno(), 2)
    try:
        status = dbicc.cli.main([*argv, "--out", os.path.join(out, name)])
        sys.stderr.flush()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
    return name, status, list(at_fork)

boot = ["bootstrap", manifest, "--distance", "corr", "--seed", "1"]
sweep = ["sweep-threshold", manifest]
sim = ["simulate", "--experiment", "coverage", "--individuals", "6", "--boot", "20",
       "--runs", "6", "--seed", "1", "--threads"]
print(json.dumps([run("boot_forked", 2, boot), run("boot_serial", 1, boot),
                  run("sweep_forked", 2, sweep), run("sweep_serial", 1, sweep),
                  run("sim_forked", 2, [*sim, "2"]), run("sim_serial", 1, [*sim, "1"])]))
sys.exit(code)
"""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(dbicc.cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, str(manifest), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.stderr == ""
        assert done.returncode == 0
        estimate, runs = done.stdout.rsplit("\n", 2)[:2]
        assert estimate.endswith("}\n[1, 1]")
        for name, status, at_fork in json.loads(runs):
            assert status == 0, name
            if name.endswith("_forked"):
                assert len(at_fork) >= 2, name
                assert set(at_fork) == {1}, name  # one OS thread at each fork
            else:
                assert at_fork == [], name
        for name in ("boot", "sweep", "sim"):
            forked, serial = tmp_path / f"{name}_forked", tmp_path / f"{name}_serial"
            assert forked.read_bytes() == serial.read_bytes(), name
            err = Path(f"{serial}.err").read_text()
            assert Path(f"{forked}.err").read_text() == err, name
            assert err == (FEW_REPLICATES.format(20) if name == "sim" else ""), name


def _in_children_only(action):
    """A stand-in that runs ``action(task)`` in a child; in this process it fails."""
    parent = os.getpid()

    def stand_in(task):
        if os.getpid() == parent:
            raise AssertionError("ran in the parent process")
        return action(task)

    return stand_in


_POINT_RUNS = ["simulate", "--experiment", "point", "--individuals", "5", "--runs", "4",
               "--seed", "1"]


class TestSimulateWorkers:
    """``simulate --threads`` runs in the children of the series read's generator."""

    @needs_fork
    def test_no_more_children_than_runs(self, tmp_path):
        script = """
import os, sys
import dbicc.cli
forks = []
os.register_at_fork(before=lambda: forks.append(os.getpid()))
argv = ["simulate", "--experiment", "point", "--runs", "2", "--seed", "1", "--out"]
code = dbicc.cli.main([*argv, sys.argv[1], "--threads", "8"])
print(code, len(forks))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(dbicc.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        out = tmp_path / "forked.json"
        done = subprocess.run([sys.executable, "-c", script, str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.stdout, done.stderr) == ("0 2\n", "")
        serial = tmp_path / "serial.json"
        argv = ["simulate", "--experiment", "point", "--runs", "2", "--seed", "1"]
        assert main([*argv, "--out", str(serial), "--threads", "1"]) == 0
        assert out.read_bytes() == serial.read_bytes()

    @needs_fork
    def test_a_worker_ignores_ctrl_c(self, tmp_path, monkeypatch, capfd):
        assert main([*_POINT_RUNS, "--threads", "1"]) == 0
        serial = capfd.readouterr()
        signalled = tmp_path / "signalled"
        run = dbicc.simulation._point_worker

        def interrupted(task):
            with signalled.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            os.kill(os.getpid(), signal.SIGINT)
            return run(task)

        monkeypatch.setattr(dbicc.simulation, "_point_worker",
                            _in_children_only(interrupted))
        assert main([*_POINT_RUNS, "--threads", "2"]) == 0
        assert capfd.readouterr() == serial
        assert serial.err == ""
        assert len(set(signalled.read_text().split())) == 2
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_worker_that_dies_is_an_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dbicc.simulation, "_point_worker",
                            _in_children_only(lambda task: os._exit(3)))
        assert main([*_POINT_RUNS, "--threads", "2"]) == 3
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: worker process ended (exit code 3)\n"
        )
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_no_child_outlives_an_interrupt_in_the_parent(self, monkeypatch):
        received = []

        def interrupt_second(conn):
            received.append(conn)
            if len(received) == 2:
                raise KeyboardInterrupt
            return receive(conn)

        def slow_after_the_first(task):
            if task[2] >= 2:  # each child's second run
                time.sleep(60)
            return run(task)

        run = dbicc.simulation._point_worker
        monkeypatch.setattr(dbicc.simulation, "_point_worker",
                            _in_children_only(slow_after_the_first))
        receive = multiprocessing.connection.Connection.recv
        monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                            interrupt_second)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main([*_POINT_RUNS, "--threads", "2"])
        assert time.monotonic() - start < 30  # the running runs were ended, not awaited
        assert len(received) == 2
        assert multiprocessing.active_children() == []


class TestBootstrapCommand:
    def test_byte_identical_reruns(self, tmp_path, rng):
        src = tmp_path / "data.csv"
        with src.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["individual", "replicate", "f1", "f2"])
            for i in range(6):
                for j in range(3):
                    writer.writerow(
                        [f"s{i}", j, *(format(v, ".17g") for v in rng.standard_normal(2))]
                    )
        args = ["bootstrap", str(src), "--boot", "300", "--seed", "42", "--corrected"]
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["B"] == 300
        assert doc["seed"] == 42
        assert doc["corrected"] is True
        assert doc["ci_low"] <= doc["ci_high"]

    def test_l1_replicates_match_the_matrix_path(self, tmp_path, rng):
        rows = [(f"s{i}", j, rng.standard_normal(3)) for i in range(8) for j in range(3)]
        src = tmp_path / "vectors.csv"
        with src.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["individual", "replicate", "f1", "f2", "f3"])
            for ind, rep, vec in rows:
                writer.writerow([ind, rep, *(format(v, ".17g") for v in vec)])
        doc = run_json(tmp_path, ["bootstrap", str(src), "--distance", "l1",
                                  "--boot", "300", "--seed", "4", "--emit-replicates"])
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L1_VEC)
        result = bootstrap_dbicc(dm, 300, seed=4)
        assert doc["replicate_estimates"] == result.replicate_estimates.tolist()
        assert (doc["ci_low"], doc["ci_high"]) == (result.ci_low, result.ci_high)
        assert doc["rho_hat"] == pytest.approx(dbicc_point(dm).rho_hat, rel=0, abs=1e-12)

    def test_small_boot_warns_in_one_line(self, tmp_path, capsys, rng):
        src = tmp_path / "data.csv"
        rows = [f"s{i},{j},{rng.standard_normal()!r}" for i in range(4) for j in range(2)]
        src.write_text("individual,replicate,f1\n" + "\n".join(rows) + "\n")
        argv = ["bootstrap", str(src), "--boot", "50", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().err == FEW_REPLICATES.format(50)

    def test_naive_and_corrected_agree_on_duplicate_free_replicates(self, tmp_path, rng):
        src = tmp_path / "data.csv"
        with src.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["individual", "replicate", "f1"])
            for i in range(4):
                for j in range(2):
                    writer.writerow([f"s{i}", j, format(rng.standard_normal(), ".17g")])
        docs = {}
        for mode in ("--corrected", "--naive"):
            out = tmp_path / f"{mode.strip('-')}.json"
            rc = main(
                [
                    "bootstrap", str(src), "--boot", "200", "--seed", "9",
                    mode, "--emit-replicates", "--out", str(out),
                ]
            )
            assert rc == 0
            docs[mode] = json.loads(out.read_text())
        # same seed, same resample rows: find duplicate-free rows and compare
        picks = np.random.default_rng(9).integers(0, 4, size=(200, 4))
        naive_vals = docs["--naive"]["replicate_estimates"]
        corr_vals = docs["--corrected"]["replicate_estimates"]
        # naive keeps every replicate here; map corrected back via kept order
        assert docs["--naive"]["n_degenerate"] == 0
        kept = [r for r in range(200) if len(set(picks[r])) > 0]
        corr_kept = [
            r
            for r in range(200)
            if not (len(set(picks[r])) == 1)
        ]
        assert len(corr_vals) == len(corr_kept)
        corr_by_row = dict(zip(corr_kept, corr_vals))
        checked = 0
        for r in kept:
            if len(set(picks[r])) == 4:  # all distinct: correction is a no-op
                assert naive_vals[r] == corr_by_row[r]
                checked += 1
        assert checked > 0


class TestSweepCommand:
    def _manifest(self, tmp_path, rng):
        lines = ["individual,replicate,path"]
        for i in range(4):
            base = rng.standard_normal((60, 4))
            for j in range(2):
                series = base + 0.8 * rng.standard_normal((60, 4))
                rel = f"sw_{i}_{j}.csv"
                np.savetxt(tmp_path / rel, series, delimiter=",", fmt="%.17g")
                lines.append(f"q{i},{j},{rel}")
        manifest = tmp_path / "sweep_manifest.csv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_sweep_rows(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng)
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep-threshold", str(manifest), "--distance", "l2",
                "--threshold-grid", "0:0.4:0.1", "--out", str(out),
            ]
        )
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        fractions = [float(r["avg_fraction_zeroed"]) for r in rows]
        assert fractions == sorted(fractions)
        rhos = [float(r["rho_hat"]) for r in rows if r["rho_hat"]]
        assert all(v <= 1.0 for v in rhos)
        assert len(set(rhos)) > 1  # shrinkage level moves the estimate

        est_out = tmp_path / "est.json"
        assert (
            main(["estimate", str(manifest), "--distance", "l2", "--out", str(est_out)])
            == 0
        )
        est = json.loads(est_out.read_text())
        assert float(rows[0]["rho_hat"]) == est["rho_hat"]
        assert float(rows[0]["threshold"]) == 0.0

    @pytest.mark.parametrize("distance", ["l2", "l1", "corr"])
    def test_every_level_matches_estimate(self, tmp_path, rng, distance):
        manifest = self._manifest(tmp_path, rng)
        out = tmp_path / "sweep.csv"
        argv = ["sweep-threshold", str(manifest), "--distance", distance,
                "--threshold-grid", "0:0.3:0.05", "--out", str(out)]
        assert main(argv) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        for row in rows:
            est_out = tmp_path / "est.json"
            rc = main(["estimate", str(manifest), "--distance", distance,
                       "--threshold", row["threshold"], "--out", str(est_out)])
            if row["rho_hat"] == "":
                assert rc == 3
                continue
            assert rc == 0
            assert float(row["rho_hat"]) == json.loads(est_out.read_text())["rho_hat"]

    def test_default_grid_levels_are_decimals_that_estimate_reproduces(
        self, tmp_path, rng
    ):
        # in floats, 3 * 0.1 is 0.30000000000000004; the grid is in decimals
        manifest = self._manifest(tmp_path, rng)
        out = tmp_path / "sweep.csv"
        assert main(["sweep-threshold", str(manifest), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["threshold"] for row in rows] == [f"0.{k}" for k in range(10)]
        for row in rows:
            est_out = tmp_path / "est.json"
            rc = main(["estimate", str(manifest), "--threshold", row["threshold"],
                       "--out", str(est_out)])
            if row["rho_hat"] == "":
                assert rc == 3
                continue
            assert rc == 0
            assert float(row["rho_hat"]) == json.loads(est_out.read_text())["rho_hat"]

    def test_a_level_that_rounds_past_stop_is_stop(self, tmp_path, rng):
        # in floats 0.09 + 13 * 0.07 is 1.0000000000000002; in decimals, stop
        out = tmp_path / "sweep.csv"
        argv = ["sweep-threshold", str(self._manifest(tmp_path, rng)),
                "--threshold-grid", "0.09:1:0.07", "--out", str(out)]
        assert main(argv) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14
        assert rows[-1]["threshold"] == "1.0"
        assert rows[-2]["threshold"] == repr(0.09 + 12 * 0.07)

    @pytest.mark.parametrize(
        "grid, level",
        [("0.5:1.3:0.4", "1.3"), ("-0.1:0.2:0.1", "-0.1"), ("0:inf:0.1", "1.1"),
         ("-inf:0.5:0.1", "-inf")],
        ids=["0.5:1.3:0.4", "-0.1:0.2:0.1", "0:inf:0.1", "-inf:0.5:0.1"],
    )
    def test_grid_outside_unit_interval_fails_before_any_level(
        self, tmp_path, capsys, grid, level
    ):
        # each level is checked as --threshold is, before the input is read
        argv = ["sweep-threshold", str(tmp_path / "missing.csv"), f"--threshold-grid={grid}"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"ParameterError: soft-threshold level must lie in [0, 1], got {level}\n"
        )

    def test_single_channel_series_fail_once(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        lines = ["individual,replicate,path"]
        for i in range(2):
            for j in range(2):
                np.savetxt(tmp_path / f"c{i}{j}.csv", rng.standard_normal((20, 1)))
                lines.append(f"q{i},{j},c{i}{j}.csv")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["sweep-threshold", str(manifest)]) == 3
        assert capsys.readouterr().err == (
            "DegenerateInputError: a 1x1 matrix has no off-diagonal entries\n"
        )

    def test_two_channel_series_refuse_corr_once(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        lines = ["individual,replicate,path"]
        for i in range(4):
            for j in range(2):
                np.savetxt(tmp_path / f"c{i}{j}.csv", rng.standard_normal((20, 2)),
                           delimiter=",")
                lines.append(f"q{i},{j},c{i}{j}.csv")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n")
        message = (
            "DegenerateInputError: correlation-of-correlations needs matrices "
            "of size 3x3 or larger\n"
        )
        assert main(["estimate", str(manifest), "--distance", "corr"]) == 3
        assert capsys.readouterr().err == message
        # refused before any level, as estimate refuses it, and nothing written
        out = tmp_path / "sweep.csv"
        argv = ["sweep-threshold", str(manifest), "--distance", "corr", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_sweep_rejects_vector_input(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        rc = main(["sweep-threshold", str(src)])
        assert rc == 3
        assert "MetricMismatchError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--threshold", "0.2"],
            ["bootstrap", "--threshold", "0.2", "--seed", "1"],
            ["sweep-threshold"],
        ],
    )
    @pytest.mark.parametrize(
        "data, code, error",
        [
            ("vectors", 3,
             "MetricMismatchError: soft-thresholding applies to matrix payloads, "
             "not vector payloads"),
            ("matrix", 4,
             "configuration error: soft-thresholding needs payload input; a "
             "precomputed distance matrix cannot be re-thresholded"),
        ],
    )
    def test_thresholding_precondition_has_one_error(
        self, tmp_path, capsys, command, data, code, error
    ):
        if data == "vectors":
            src = tmp_path / "hand.csv"
            write_hand_csv(src)
            inputs = [str(src)]
        else:  # refused before it is parsed: a bad number, a short row, no groups file
            src = tmp_path / "dm.csv"
            src.write_text("0,1,x\n1,0\n")
            inputs = [str(src), "--format", "distances",
                      "--groups", str(tmp_path / "missing.csv")]
        assert main([command[0], *inputs, *command[1:]]) == code
        assert capsys.readouterr().err == error + "\n"


class TestSimulateCommand:
    def test_point_reproducible_across_threads(self, tmp_path):
        base = [
            "simulate", "--experiment", "point", "--individuals", "10",
            "--replicates", "4", "--rho", "0.5", "--runs", "6", "--seed", "5",
        ]
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert main([*base, "--threads", "1", "--out", str(out1)]) == 0
        assert main([*base, "--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sb_reproducible_across_threads(self, tmp_path):
        base = [
            "simulate", "--experiment", "sb", "--phi", "0.6", "--individuals", "6",
            "--replicates", "2", "--dim", "4", "--m-grid", "10,20,40", "--runs", "3",
            "--seed", "5",
        ]
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert main([*base, "--threads", "1", "--out", str(out1)]) == 0
        assert main([*base, "--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coverage_report_and_csv(self, tmp_path):
        out = tmp_path / "cov.json"
        csv_out = tmp_path / "cov.csv"
        rc = main(
            [
                "simulate", "--experiment", "coverage", "--individuals", "10",
                "--replicates", "4", "--rho", "0.5", "--boot", "150",
                "--runs", "5", "--seed", "11", "--out", str(out),
                "--csv", str(csv_out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 11
        assert 0.0 <= doc["coverage_corrected"] <= 100.0
        with csv_out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "point", "--individuals", "6", "--runs", "3"],
            ["--experiment", "sb", "--individuals", "6", "--replicates", "2",
             "--dim", "4", "--m-grid", "10,20,40", "--runs", "2"],
        ],
    )
    def test_csv_rows_are_the_report_values(self, tmp_path, argv):
        out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
        cmd = ["simulate", *argv, "--seed", "3", "--out", str(out), "--csv", str(csv_out)]
        assert main(cmd) == 0
        report = json.loads(out.read_text())
        if argv[1] == "point":
            header = ["run", "rho_hat"]
            rows = list(enumerate(report["estimates"]))
        else:
            header = ["matrix", "run", "m", "rho_hat", "x", "y"]
            rows = [
                (kind, p["run"], p["m"], p["rho_hat"], p["x"], p["y"])
                for kind in ("covariance", "correlation")
                for p in report[kind]["points"]
            ]
        with csv_out.open(newline="") as fh:
            written = list(csv.reader(fh))
        assert written[0] == header
        assert len(written) == len(rows) + 1 > 2
        # csv and JSON both write a float as its shortest repr
        assert written[1:] == [["" if v is None else str(v) for v in row] for row in rows]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_small_boot_warns_once_in_one_line(self, tmp_path, capsys, threads):
        argv = [
            "simulate", "--experiment", "coverage", "--individuals", "6",
            "--boot", "20", "--runs", "4", "--seed", "1", "--threads", threads,
        ]
        assert main([*argv, "--out", str(tmp_path / "cov.json")]) == 0
        assert capsys.readouterr().err == FEW_REPLICATES.format(20)

    def test_small_boot_warns_once_with_spawned_workers(
        self, tmp_path, capfd, monkeypatch
    ):
        # spawned workers inherit no warning filters from the command
        methods = []

        def spawned(fn, items, workers):
            methods.append("fork" if dbicc._children.can_fork() else "spawn")
            return run_in_children(fn, items, workers)

        run_in_children = dbicc.simulation.run_in_children
        monkeypatch.setattr(dbicc._children, "can_fork", lambda: False)
        monkeypatch.setattr(dbicc.simulation, "run_in_children", spawned)
        argv = [
            "simulate", "--experiment", "coverage", "--individuals", "6",
            "--boot", "20", "--runs", "4", "--seed", "1", "--threads", "2",
        ]
        assert main([*argv, "--out", str(tmp_path / "cov.json")]) == 0
        assert capfd.readouterr().err == FEW_REPLICATES.format(20)
        assert methods == ["spawn"]

    def test_sb_report(self, tmp_path):
        out = tmp_path / "sb.json"
        rc = main(
            [
                "simulate", "--experiment", "sb", "--individuals", "6",
                "--replicates", "2", "--dim", "4", "--m-grid", "10,20,40",
                "--runs", "2", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["m_grid"] == [10, 20, 40]
        assert len(doc["covariance"]["slopes"]) == 2

    def test_bad_m_grid_is_config_error(self, tmp_path):
        rc = main(
            ["simulate", "--experiment", "sb", "--m-grid", "10,twenty,40", "--seed", "1"]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [
            ("point", "--boot", "50"),
            ("point", "--level", "0.9"),
            ("point", "--phi", "0.5"),
            ("point", "--m-grid", "10,20,40"),
            ("point", "--sb-offset", "1"),
            ("point", "--wishart-df", "50"),
            ("coverage", "--phi", "0.5"),
            ("coverage", "--m-grid", "10,20,40"),
            ("coverage", "--sb-offset", "1"),
            ("coverage", "--wishart-df", "50"),
            ("sb", "--rho", "0.5"),
            ("sb", "--boot", "50"),
            ("sb", "--level", "0.9"),
        ],
    )
    def test_flag_of_another_experiment_is_config_error(
        self, no_pool, capsys, experiment, flag, value
    ):
        argv = ["simulate", "--experiment", experiment, flag, value, "--runs", "2",
                "--seed", "1", "--threads", "2"]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"configuration error: {flag} does not apply to --experiment {experiment}\n"
        )

    @pytest.mark.parametrize(
        "experiment, runner",
        [
            ("point", dbicc.cli.run_point_experiment),
            ("coverage", dbicc.cli.run_coverage_experiment),
            ("sb", dbicc.cli.run_sb_experiment),
        ],
    )
    def test_defaults_are_the_runners(self, tmp_path, experiment, runner):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--experiment", experiment, "--seed", "1", "--runs", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == dumps_json(runner(n_runs=2, seed=1))

    @pytest.mark.parametrize(
        "experiment, flags, kwargs",
        [
            ("point", ["--rho", "0.3"], {"icc": 0.3}),
            ("coverage", ["--boot", "50", "--level", "0.9"], {"n_boot": 50, "level": 0.9}),
            ("sb", ["--phi", "0.5", "--m-grid", "10,20,40", "--sb-offset", "0",
                    "--wishart-df", "9"],
             {"ar_coeff": 0.5, "m_grid": [10, 20, 40], "offset": 0, "wishart_df": 9}),
        ],
    )
    def test_command_calls_the_module_runner(
        self, tmp_path, monkeypatch, experiment, flags, kwargs
    ):
        calls = []

        def runner(**given):
            calls.append(given)
            return {"experiment": experiment}

        monkeypatch.setattr(dbicc.cli, f"run_{experiment}_experiment", runner)
        argv = ["simulate", "--experiment", experiment, *flags, "--individuals", "5",
                "--replicates", "3", "--dim", "2", "--runs", "2", "--seed", "1",
                "--threads", "2"]
        assert run_json(tmp_path, argv) == {"experiment": experiment}
        shared = {"n_individuals": 5, "n_replicates": 3, "dim": 2, "n_runs": 2,
                  "seed": 1, "workers": 2}
        assert calls == [{**shared, **kwargs}]

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--phi", "1"],
             "ParameterError: AR(1) coefficient must lie in [0, 1) for stationarity, "
             "got 1.0"),
            (["--individuals", "1"],
             "InsufficientGroupsError: need at least 2 individuals, got 1"),
            (["--replicates", "1"],
             "InsufficientReplicatesError: at least one individual needs 2+ replicates; "
             "within-individual spread is undefined otherwise"),
            (["--dim", "5", "--wishart-df", "3"],
             "ParameterError: wishart_df must be >= dim (5), got 3"),
            (["--m-grid", "10,20"],
             "ParameterError: m_grid needs at least 3 lengths to fit a curve"),
            (["--sb-offset", "2"], "ParameterError: offset must be 0 or 1, got 2"),
        ],
    )
    def test_bad_sb_arguments_fail_before_any_run(self, no_pool, capsys, flags, error):
        argv = ["simulate", "--experiment", "sb", *flags, "--runs", "2", "--seed", "1",
                "--threads", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == error + "\n"

    @pytest.mark.filterwarnings("error")
    def test_warning_is_one_line_when_warnings_are_errors(self, tmp_path, capsys):
        src = tmp_path / "hand.csv"
        write_hand_csv(src)
        argv = ["bootstrap", str(src), "--boot", "50", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().err == FEW_REPLICATES.format(50)


class TestDumpsJson:
    def test_shortest_repr(self):
        assert dumps_json({"level": 0.1, "n": 3, "x": None}) == (
            '{\n  "level": 0.1,\n  "n": 3,\n  "x": null\n}\n'
        )

    def test_floats_round_trip_exactly(self, rng):
        scales = 10.0 ** rng.integers(-300, 300, 200)
        values = [float(v) for v in rng.standard_normal(200) * scales]
        assert json.loads(dumps_json(values)) == values

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_rejected(self, value):
        with pytest.raises(ValueError):
            dumps_json({"rho_hat": value})


# Malformed input bytes and out-of-range flags for the fuzz test below.
_CELLS = st.sampled_from(
    ["0", "1", "-2.5", "7", "1e308", "1e-320", "nan", "inf", "-inf", "", " ", "x",
     '"', "\x00", "é", "individual", "replicate", "path", ".", "a.csv"]
)
_HEADERS = st.sampled_from(
    [b"", b"individual,replicate,f1,f2\n", b"individual,replicate,path\n",
     b"row,individual,replicate\n"]
)
_BODIES = st.one_of(
    st.binary(max_size=120),
    st.lists(st.lists(_CELLS, max_size=5), max_size=8).map(
        lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8")
    ),
)
_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "1e308", "1e-320", "nan", "inf", "", "x"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# vector CSV rows, so that parsing succeeds often enough to reach the estimator
_VECTOR_ROWS = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from(["0", "1", "2", "01"]),
              _NUMBERS, _NUMBERS),
    max_size=8,
).map(lambda rows: "".join(f"{i},{r},{x},{y}\n" for i, r, x, y in rows).encode())
_INPUTS = st.one_of(
    st.tuples(_HEADERS, _BODIES).map(lambda parts: parts[0] + parts[1]),
    _VECTOR_ROWS.map(lambda body: b"individual,replicate,f1,f2\n" + body),
)
_INPUT_FLAGS = {
    "--distance": ["l1", "l2", "corr", "cosine"],
    "--threshold": ["-0.5", "0.3", "2", "nan", "x"],
    "--format": ["vectors", "distances", "timeseries"],
}
_COMMAND_FLAGS = {
    "estimate": {},
    "bootstrap": {
        "--boot": ["-1", "0", "1", "5", "150", "x"],
        "--level": ["0", "0.95", "1.5", "nan"],
        "--seed": ["-1", "3", "x"],
    },
    "sweep-threshold": {
        "--threshold-grid": ["0:1:0.5", "1:0:0.1", "0:0.5:0", "a:b:c", "0:0.2"],
    },
}
# simulate always gets small counts, so that a valid draw runs quickly
_SIMULATE_FLAGS = {
    "--experiment": ["point", "coverage", "sb", "other"],
    "--runs": ["-1", "0", "1", "2"],
    "--individuals": ["0", "1", "3"],
    "--replicates": ["0", "1", "2"],
    "--dim": ["0", "1", "3"],
}
_SIMULATE_OPTIONAL = {
    "--rho": ["0", "0.5", "1", "nan", "-1"],
    "--phi": ["0", "0.5", "1", "nan"],
    "--boot": ["-1", "0", "1", "20", "150"],
    "--level": ["0", "0.9", "1.5"],
    "--m-grid": ["5,5,5", "10,20,40", "1,2,3", "1,2", "x"],
    "--sb-offset": ["0", "1", "2"],
    "--wishart-df": ["-1", "0", "3", "50"],
    "--seed": ["-1", "2"],
}


def _flags(draw, choices, always=False):
    argv = []
    for flag, values in choices.items():
        if always or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@st.composite
def _fuzz_argv(draw, path):
    command = draw(
        st.sampled_from(["estimate", "bootstrap", "sweep-threshold", "simulate"])
    )
    if command == "simulate":
        return [command, *_flags(draw, _SIMULATE_FLAGS, always=True),
                *_flags(draw, _SIMULATE_OPTIONAL)]
    argv = [command, path, *_flags(draw, _INPUT_FLAGS),
            *_flags(draw, _COMMAND_FLAGS[command])]
    if draw(st.booleans()):
        argv += ["--groups", path]
    return argv


class TestFuzzMain:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), content=_INPUTS)
    def test_exit_code_and_no_traceback(self, data, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(content)
            argv = data.draw(_fuzz_argv(str(path)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
                io.StringIO()
            ):
                code = main([*argv, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# 3-6 individuals, each of 2-3 replicates, 2-4 features; rows shuffled.
# Values lie near unit scale, where an absolute tolerance would show, and
# far from the subnormal range, so that scaling by 2**k and squaring round
# exactly as the unscaled values do.
_VALUES = st.floats(-8, 8, allow_subnormal=False).filter(
    lambda v: v == 0 or abs(v) > 1e-30
)


@st.composite
def _vector_rows(draw):
    """Rows ``(individual, replicate, values)`` of a small vector sample."""
    dim = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(2, 3), min_size=3, max_size=6))
    rows = [(f"s{i}", j, draw(st.lists(_VALUES, min_size=dim, max_size=dim)))
            for i, size in enumerate(sizes) for j in range(size)]
    return draw(st.permutations(rows))


def _write_rows(path, rows):
    dim = len(rows[0][2])
    lines = ["individual,replicate," + ",".join(f"f{k}" for k in range(dim))]
    lines += [f"{who},{rep}," + ",".join(map(repr, values)) for who, rep, values in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bootstrap_outputs(rows_list, distance, seed):
    """``(exit code, stderr, output bytes)`` of ``bootstrap`` on each row set."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, rows in enumerate(rows_list):
            src, out = Path(tmp) / f"v{n}.csv", Path(tmp) / f"out{n}.json"
            _write_rows(src, rows)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["bootstrap", str(src), "--distance", distance, "--boot", "200",
                             "--seed", str(seed), "--out", str(out)])
            outcomes.append((code, err.getvalue(), out.read_bytes() if code == 0 else b""))
    return outcomes


def _keep_first_appearance(rows, rnd):
    """``rows`` in a random order in which the individuals first appear as before."""
    queues = {}
    for row in rows:
        queues.setdefault(row[0], []).append(row)
    for queue in queues.values():
        rnd.shuffle(queue)
    unopened, opened, order = list(queues), [], []
    while unopened or opened:
        pick = rnd.randrange(len(opened) + bool(unopened))
        if pick == len(opened):
            opened.append(unopened.pop(0))
        who = opened[pick]
        order.append(queues[who].pop())
        if not queues[who]:
            opened.remove(who)
    return order


# Unit roundoff of a float64.
_U = np.finfo(float).eps / 2


def _rounding_bound(n_rows, scale, report):
    """How far summing in another order may move a report's rho_hat.

    ``scale`` bounds every payload row's squared norm, so each squared
    distance is at most ``4 * scale``.  Each MSD averages at most
    ``n_rows**2`` of them, and a sum of N terms taken in another order
    moves by at most about ``N * u`` times the sum of their magnitudes:
    each MSD moves by at most ``dM = 4 * n_rows**2 * u * scale``.  Then
    ``rho_hat = 1 - W / B`` moves by at most ``dM / B * (1 + W / B)``.
    """
    within, between = report["msd_within"], report["msd_between"]
    return 4 * n_rows**2 * _U * scale / between * (1.0 + within / between)


def _assert_rho_hats_close(outcomes, n_rows, scale):
    """Both runs' rho_hat within rounding of each other, or both failing alike.

    A run may fail where the other does not only if the other's between
    MSD is within rounding of 0.
    """
    (code, err, out), (other_code, other_err, other_out) = outcomes
    reports = [json.loads(o) for c, o in ((code, out), (other_code, other_out)) if c == 0]
    if code != other_code:
        (report,) = reports
        assert report["msd_between"] <= 4 * n_rows**2 * _U * scale
    elif code != 0:
        assert err == other_err
    else:
        first, second = reports
        bound = max(_rounding_bound(n_rows, scale, r) for r in reports)
        assert abs(first["rho_hat"] - second["rho_hat"]) <= bound


def _random_manifest(folder, series, channels):
    """A manifest of ``series`` (individual, replicate, array), each array's
    columns taken in the order ``channels``."""
    lines = ["individual,replicate,path"]
    for n, (who, rep, values) in enumerate(series):
        np.savetxt(folder / f"s{n}.csv", values[:, channels], delimiter=",", fmt="%.17g")
        lines.append(f"{who},{rep},s{n}.csv")
    (folder / "m.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return folder / "m.csv"


class TestMetamorphicMain:
    """Relations between whole ``bootstrap`` runs on transformed inputs."""

    @settings(max_examples=40, deadline=None)
    @given(rows=_vector_rows(), k=st.integers(-4, 4), distance=st.sampled_from(["l2", "l1"]),
           seed=st.integers(0, 2**32))
    def test_scaling_by_a_power_of_two(self, rows, k, distance, seed):
        scaled = [(who, rep, [v * 2.0**k for v in values]) for who, rep, values in rows]
        (code, err, out), (scaled_code, scaled_err, scaled_out) = _bootstrap_outputs(
            [rows, scaled], distance, seed)
        assert (code, err) == (scaled_code, scaled_err)
        if code == 0:
            # rho_hat, the interval and n_degenerate bit for bit; the MSDs by 4**k
            report = json.loads(out)
            for field in ("msd_within", "msd_between"):
                report[field] *= 4.0**k
            assert json.loads(scaled_out) == report

    @settings(max_examples=40, deadline=None)
    @given(rows=_vector_rows(), distance=st.sampled_from(["l2", "l1"]),
           seed=st.integers(0, 2**32), data=st.data())
    def test_renaming_the_individuals(self, rows, distance, seed, data):
        # new names, unordered, assigned in order of first appearance
        order = list(dict.fromkeys(who for who, _, _ in rows))
        names = data.draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3),
                                   min_size=len(order), max_size=len(order), unique=True))
        rename = dict(zip(order, names))
        renamed = [(rename[who], rep, values) for who, rep, values in rows]
        assert len(set(_bootstrap_outputs([rows, renamed], distance, seed))) == 1

    @settings(max_examples=30, deadline=None)
    @given(rows=_vector_rows(), distance=st.sampled_from(["l2", "l1"]),
           seed=st.integers(0, 2**32), rnd=st.randoms(use_true_random=False))
    def test_reordering_rows_that_keeps_first_appearance(self, rows, distance, seed, rnd):
        reordered = _keep_first_appearance(rows, rnd)
        assert len(set(_bootstrap_outputs([rows, reordered], distance, seed))) == 1

    @settings(max_examples=30, deadline=None)
    @given(rows=_vector_rows(), distance=st.sampled_from(["l2", "l1"]),
           seed=st.integers(0, 2**32), data=st.data())
    def test_any_row_shuffle_moves_rho_hat_by_rounding_only(self, rows, distance, seed, data):
        # the individuals now come in another order, so the sums over them
        # round differently, and the same seed resamples other individuals
        shuffled = data.draw(st.permutations(rows))
        scale = max(sum(map(abs, values)) for _, _, values in rows) ** 2
        _assert_rho_hats_close(_bootstrap_outputs([rows, shuffled], distance, seed),
                               len(rows), scale)

    @settings(max_examples=8, deadline=None)
    @given(individuals=st.integers(2, 4), m=st.integers(6, 20), p=st.integers(3, 5),
           seed=st.integers(0, 2**32), data=st.data())
    @pytest.mark.parametrize("distance", ["corr", "l2"])
    def test_permuting_every_series_channels_alike(
        self, distance, individuals, m, p, seed, data
    ):
        rng = np.random.default_rng(seed)
        series = [(f"q{i}", j, rng.standard_normal((m, p)) + rng.standard_normal(p))
                  for i in range(individuals) for j in range(2)]
        channels = data.draw(st.permutations(range(p)))
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            for order in (list(range(p)), channels):
                folder = Path(tmp) / f"{len(outcomes)}"
                folder.mkdir()
                manifest = _random_manifest(folder, series, order)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["estimate", str(manifest), "--distance", distance,
                                 "--out", str(folder / "out.json")])
                out = (folder / "out.json").read_bytes() if code == 0 else b""
                outcomes.append((code, err.getvalue(), out))
        # payload rows: standardized triangles of norm 1 under corr, and
        # correlation matrices of at most p**2 squared norm under l2
        scale = 1.0 if distance == "corr" else float(p * p)
        _assert_rho_hats_close(outcomes, len(series), scale)

    @pytest.mark.parametrize("distance", ["corr", "l2"])
    def test_scaled_series_give_the_same_bytes(self, tmp_path, distance):
        golden = Path(__file__).parent / "golden" / "inputs"
        shutil.copy(golden / "manifest.csv", tmp_path)
        for n in range(4):
            series = np.loadtxt(golden / f"series{n}.csv", delimiter=",")
            np.savetxt(tmp_path / f"series{n}.csv", series * 2.0**-3, delimiter=",",
                       fmt="%.17g")
        outputs = []
        for folder in (golden, tmp_path):
            out = tmp_path / f"{folder.name}.json"
            assert main(["bootstrap", str(folder / "manifest.csv"), "--distance", distance,
                         "--boot", "200", "--seed", "5", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


_LOADS = """
import json, sys
import dbicc, dbicc.cli
watched = json.loads(sys.argv[2])
def loaded():
    return sorted(m for m in sys.modules if m in watched or m.split(".")[0] in watched)
report = [loaded()]
for argv in json.loads(sys.argv[1]):
    report.append([dbicc.cli.main(argv), loaded()])
print(json.dumps(report))
"""


def _package_env():
    """This process's environment, with the package first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dbicc.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))


def _fresh_main(argv_list, watched=("scipy",)):
    """Import the package, then run ``main`` on each argv, in a fresh interpreter.

    Returns the ``watched`` modules and packages (with their submodules)
    loaded after the import, then each call's exit code and the watched
    modules loaded after it.
    """
    done = subprocess.run(
        [sys.executable, "-c", _LOADS, json.dumps(argv_list), json.dumps(watched)],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _write_vectors(path, rng, individuals=30, replicates=3, dim=4):
    lines = ["individual,replicate," + ",".join(f"f{k}" for k in range(dim))]
    for i in range(individuals):
        center = rng.standard_normal(dim)
        for j in range(replicates):
            row = center + rng.standard_normal(dim)
            lines.append(f"s{i},{j}," + ",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(tmp_path, rng):
    """A series manifest of 4 individuals x 2 scans of 40 x 10 series.

    Their correlations' 45 lower-triangle entries outnumber the
    individuals, so ``l2`` and ``corr`` block sums take the I-by-I table.
    """
    lines = ["individual,replicate,path"]
    for i in range(4):
        mix = rng.standard_normal((10, 10))
        for j in range(2):
            series = rng.standard_normal((40, 10)) @ mix
            np.savetxt(tmp_path / f"s{i}_{j}.csv", series, delimiter=",", fmt="%.17g")
            lines.append(f"sub{i},{j},s{i}_{j}.csv")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class TestScipyLoadsOnlyForItsKernels:
    """scipy's distance kernels load on their first use, not with the package."""

    def test_import_and_the_kernel_free_commands_load_no_scipy(self, tmp_path, rng):
        vectors = tmp_path / "vectors.csv"
        _write_vectors(vectors, rng)  # p = 4 <= I = 30: l2 keeps the means
        manifest = _write_manifest(tmp_path, rng)  # p = 45 > I = 4: the I-by-I table
        runs = [
            ["estimate", str(vectors), "--out", str(tmp_path / "e.json")],
            ["bootstrap", str(vectors), "--boot", "200", "--seed", "1",
             "--out", str(tmp_path / "b.json")],
            ["bootstrap", str(manifest), "--distance", "l2", "--boot", "200",
             "--seed", "3", "--out", str(tmp_path / "l2.json")],
            ["bootstrap", str(manifest), "--distance", "corr", "--boot", "200",
             "--seed", "3", "--out", str(tmp_path / "corr.json")],
            ["sweep-threshold", str(manifest), "--out", str(tmp_path / "sweep.csv")],
            ["simulate", "--experiment", "point", "--runs", "3", "--seed", "1",
             "--out", str(tmp_path / "p.json")],
            ["simulate", "--experiment", "coverage", "--runs", "2", "--boot", "200",
             "--individuals", "8", "--seed", "1", "--out", str(tmp_path / "c.json")],
            ["simulate", "--experiment", "sb", "--individuals", "5", "--dim", "4",
             "--m-grid", "20,40,80", "--runs", "2", "--seed", "1",
             "--out", str(tmp_path / "sb.json")],
        ]
        assert _fresh_main(runs) == [[], *[[0, []] for _ in runs]]

    def test_kernel_commands_load_scipy_and_write_the_same_bytes(self, tmp_path, rng):
        vectors = tmp_path / "vectors.csv"
        _write_vectors(vectors, rng)
        argv = ["bootstrap", str(vectors), "--distance", "l1", "--boot", "200",
                "--seed", "3"]
        fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
        [imported, (code, loaded)] = _fresh_main([[*argv, "--out", str(fresh)]])
        assert imported == [] and code == 0
        assert "scipy.spatial.distance" in loaded
        assert main([*argv, "--out", str(here)]) == 0  # scipy is loaded here
        assert fresh.read_bytes() == here.read_bytes()

    @needs_fork
    def test_the_forked_sb_runner_imports_no_scipy(self):
        script = """
import sys
import dbicc.simulation
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = []
run_in_children = dbicc.simulation.run_in_children
def spy(fn, items, workers):
    seen.append((workers, "fork" if dbicc._children.can_fork() else "spawn"))
    def run(item):  # in the child: the run, then the scipy modules it has
        return fn(item), scipy_modules()
    for result, loaded in run_in_children(run, items, workers):
        seen.append(loaded)
        yield result
dbicc.simulation.run_in_children = spy
dbicc.simulation.run_sb_experiment(
    n_individuals=5, dim=4, m_grid=[20, 40, 80], n_runs=2, seed=1, workers=2)
print(seen, scipy_modules())
"""
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=_package_env(), timeout=120)
        assert (done.stdout, done.stderr) == ("[(2, 'fork'), [], []] []\n", "")


# The names the package exports, by the module that defines each
_EXPORTS = {
    "bootstrap": "BootstrapResult bootstrap_dbicc bootstrap_dbicc_pair percentile_ci",
    "core": "BlockStats DistanceMatrix GroupedSample PayloadKind block_stats "
            "build_grouped_sample compute_distance_matrix",
    "distances": "DistanceSpec Metric corr_of_corr_distance correlation_from_timeseries "
                 "l1_distance l2_distance soft_threshold",
    "errors": "DbiccError DegenerateDistancesError DegenerateInputError FactorizationError "
              "InputShapeError InsufficientDataError InsufficientGroupsError "
              "InsufficientReplicatesError MetricMismatchError NonFiniteError ParameterError",
    "estimator": "DbiccEstimate dbicc_point msd_between msd_within",
    "simulation": "TrueScorePopulation cov_error_spread gen_gaussian_sample "
                  "gen_mvn_timeseries gen_spd_population run_coverage_experiment "
                  "run_point_experiment run_sb_experiment",
    "spearman_brown": "LineFit SbCurve SbPoint build_sb_curve classical_sb fit_loglog snr",
}


class TestLeanImport:
    """A command loads the simulation modules, ``multiprocessing`` and
    ``secrets`` only where it runs them."""

    WATCHED = ("dbicc.simulation", "dbicc.spearman_brown", "multiprocessing", "secrets")

    def test_estimate_loads_none_and_simulate_in_process_no_multiprocessing(
        self, tmp_path, rng
    ):
        vectors = tmp_path / "vectors.csv"
        _write_vectors(vectors, rng)
        runs = [
            ["estimate", str(vectors), "--out", str(tmp_path / "e.json")],
            ["simulate", "--experiment", "point", "--runs", "3", "--seed", "1",
             "--threads", "1", "--out", str(tmp_path / "p.json")],
        ]
        imported, (code, estimated), (sim_code, simulated) = _fresh_main(runs, self.WATCHED)
        assert imported == estimated == [] and code == sim_code == 0
        assert "dbicc.simulation" in simulated
        assert not [m for m in simulated if m.split(".")[0] == "multiprocessing"]

    def test_the_cli_runners_are_the_simulation_objects(self):
        for name in ("run_point_experiment", "run_coverage_experiment", "run_sb_experiment"):
            assert getattr(dbicc.cli, name) is getattr(dbicc.simulation, name)
        with pytest.raises(AttributeError, match="has no attribute 'run_nothing'"):
            dbicc.cli.run_nothing

    def test_all_lists_the_exported_names_each_its_modules_object(self):
        exported = {name: module for module, names in _EXPORTS.items() for name in names.split()}
        assert sorted(dbicc.__all__) == sorted(exported)
        assert set(dbicc.__all__) <= set(dir(dbicc))
        for name, module in exported.items():
            assert getattr(dbicc, name) is getattr(importlib.import_module(f"dbicc.{module}"), name)

    def test_readme_lists_the_public_names_and_lazy_ones_are_their_modules_all(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
        assert sorted(re.findall(r"^- `(\w+)`:", section, flags=re.M)) == sorted(dbicc.__all__)
        for module, names in dbicc._LAZY.items():
            declared = importlib.import_module(f"dbicc.{module}").__all__
            assert sorted(declared) == sorted(names)

    def test_errors_all_lists_every_error_class_it_defines(self):
        # the package exports dbicc.errors.__all__, so a class left out of it
        # would drop out of the package's names
        errors = importlib.import_module("dbicc.errors")
        defined = [name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.DbiccError)
                   and obj.__module__ == errors.__name__]
        assert sorted(errors.__all__) == sorted(defined)


def test_benchmark_trace_names_resolve_but_four_stale_ones():
    """The trace wraps each name in ``bench/spans.WRAPS`` and reports a missing
    one only, so a refactor could unhook a traced layer unnoticed.  Four stay
    missing until the benchmark drops them: ``dbicc.cli``'s ``soft_threshold``
    (``core._MatrixColumns`` thresholds, in ``cli.main``'s self time) and
    ``correlation_from_timeseries`` (sweep-threshold calls ``core``'s, wrapped
    too), and ``compute_distance_matrix`` of ``cli`` and ``simulation``: block
    sums come straight from the payloads, in the caller's self time."""
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = {f"{module}.{name}" for module, name, *_ in spans.WRAPS
                  if not hasattr(importlib.import_module(module), name)}
    assert unresolved == {
        "dbicc.cli.correlation_from_timeseries",
        "dbicc.cli.soft_threshold",
        "dbicc.cli.compute_distance_matrix",
        "dbicc.simulation.compute_distance_matrix",
    }


def _library_example(readme):
    """The python block under ``## Library example``, as the README shows it."""
    found = inside = False
    block = []
    for line in readme.splitlines():
        if inside:
            if line.startswith("```"):
                break
            block.append(line)
        elif found and line.startswith("```python"):
            inside = True
        elif line.startswith("## Library example"):
            found = True
    return "".join(f"{line}\n" for line in block)


def test_readme_library_example_runs(tmp_path):
    """The README's library example runs as written, in a fresh interpreter."""
    readme = Path(__file__).parents[1] / "README.md"
    example = _library_example(readme.read_text(encoding="utf-8"))
    assert example.strip()
    script = tmp_path / "readme_example.py"
    script.write_text(example, encoding="utf-8")
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=_package_env(), timeout=120)
    assert done.returncode == 0, done.stderr


def test_warnings_and_errors_print_one_line_under_w_error(tmp_path):
    """Under ``-W error`` a small ``--boot`` still exits 0 with one warning line.

    pytest installs its own warning capture, so no in-process test sees the
    interpreter's ``-W`` filters: each command runs in a fresh one.  The
    coverage experiment runs in worker processes.  ``--boot 1`` can give no
    interval: both commands exit 3 with the one error line, raised before
    the warning and before any work.
    """
    hand = tmp_path / "hand.csv"
    write_hand_csv(hand)
    boot = ["bootstrap", str(hand), "--seed", "1"]
    coverage = ["simulate", "--experiment", "coverage", "--individuals", "6",
                "--runs", "4", "--seed", "1", "--threads", "2"]
    no_interval = "InsufficientDataError: need at least 2 estimates for an interval, got 1\n"
    runs = [
        ([*boot, "--boot", "50"], 0, FEW_REPLICATES.format(50)),
        ([*coverage, "--boot", "20"], 0, FEW_REPLICATES.format(20)),
        ([*boot, "--boot", "1"], 3, no_interval),
        ([*coverage, "--boot", "1"], 3, no_interval),
    ]
    env = dict(_package_env(), OPENBLAS_NUM_THREADS="1")
    for k, (argv, code, stderr) in enumerate(runs):
        out = tmp_path / f"out_{k}.json"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dbicc.cli", *argv, "--out", str(out)],
            capture_output=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (code, stderr.encode()), argv
