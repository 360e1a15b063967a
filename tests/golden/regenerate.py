"""Regenerate the golden files that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py

Writes the small inputs under ``inputs/`` (from ``random.Random``, whose
``random()`` stream Python keeps from version to version), runs each of
``COMMANDS`` in this process with ``inputs/`` as the working directory,
writes its output under ``expected/`` and its exit code and stderr to
``commands.json``, and prints every field that moved against the files it
replaces: path, old value, new value and relative change, with ``*`` where
the move lies beyond the test's bound.  It also runs the acceptance
experiments of ``tests/test_acceptance.py`` and writes the summary of their
results to ``expected/acceptance.json`` the same way.

The tests and this script share ``fields`` and ``moved``.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from dbicc.cli import main as run

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# A float field matches when |new - old| <= RTOL * |old| + ATOL.  Every last-
# digit move of an output so far stayed within 2.0e-14 relative (or 2.2e-16
# absolute on a dbICC near zero), and one across OpenBLAS kernels within
# 1.0e-15; a changed statistic moves fields by far more.
RTOL = 1e-12
ATOL = 1e-15

# (name, argv, simulated): run in inputs/, the output written to
# expected/<name>.json (.csv for sweep-threshold); a simulated output is
# drawn from numpy's Generator streams, which NEP 19 lets numpy change.
COMMANDS = [
    ("estimate_l2", ["estimate", "vectors.csv"], False),
    # the defaults: corrected, --boot 1200, --level 0.95
    ("bootstrap_l2", ["bootstrap", "vectors.csv", "--seed", "1"], False),
    ("estimate_l1", ["estimate", "vectors.csv", "--distance", "l1"], False),
    ("bootstrap_l1_naive", ["bootstrap", "vectors.csv", "--distance", "l1", "--naive",
                            "--level", "0.9", "--seed", "2"], False),
    ("estimate_corr", ["estimate", "manifest.csv", "--distance", "corr"], False),
    # naive: the one draw of both individuals is the corrected variant's only
    # non-degenerate replicate
    ("bootstrap_corr_naive", ["bootstrap", "manifest.csv", "--distance", "corr", "--naive",
                              "--boot", "300", "--seed", "3"], False),
    ("bootstrap_matrix", ["bootstrap", "matrix.csv", "--groups", "groups.csv", "--boot",
                          "200", "--seed", "4", "--emit-replicates"], False),
    ("sweep_threshold", ["sweep-threshold", "manifest.csv"], False),
    # level 1 leaves no column: every distance is zero
    ("sweep_threshold_quarters", ["sweep-threshold", "manifest.csv",
                                  "--threshold-grid", "0:1:0.25"], False),
    # unequal groups, one of more than 64 replicates
    ("estimate_tall", ["estimate", "tall.csv"], False),
    ("bootstrap_tall", ["bootstrap", "tall.csv", "--boot", "200", "--seed", "5"], False),
    ("corr_of_vectors", ["estimate", "vectors.csv", "--distance", "corr"], False),
    # a series with a malformed cell: exit 2, located in the series and the manifest
    ("bad_series", ["estimate", "manifest_bad.csv", "--distance", "corr"], False),
    ("simulate_point", ["simulate", "--experiment", "point", "--individuals", "5",
                        "--runs", "4", "--seed", "1"], True),
    ("simulate_coverage", ["simulate", "--experiment", "coverage", "--individuals", "6",
                           "--boot", "50", "--runs", "4", "--seed", "1"], True),
    ("simulate_sb", ["simulate", "--experiment", "sb", "--individuals", "4", "--dim", "4",
                     "--m-grid", "20,40,80", "--runs", "2", "--seed", "1"], True),
]


def write_inputs():
    """The two vector CSVs, the 12 x 12 matrix with its groups, and the two manifests."""
    rng = random.Random(20261020)

    def noise(scale):
        return scale * (rng.random() - 0.5)

    # 6 individuals x 3 replicates of 3 features: a centre plus noise
    lines = ["individual,replicate,f1,f2,f3"]
    for ind in range(6):
        centre = [noise(4.0) for _ in range(3)]
        for rep in range(3):
            lines.append(f"s{ind},{rep}," + ",".join(f"{c + noise(1.5):.4f}" for c in centre))
    (INPUTS / "vectors.csv").write_text("\n".join(lines) + "\n")

    # 4 individuals x 3 replicates of 2-d points, their rows interleaved;
    # sqrt is correctly rounded, so the distances do not depend on the platform
    points = []
    for ind in range(4):
        cx, cy = noise(6.0), noise(6.0)
        points += [(ind, rep, round(cx + noise(2.0), 3), round(cy + noise(2.0), 3))
                   for rep in range(3)]
    points = points[0::2] + points[1::2]
    matrix = [",".join(repr(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2))
                       for _, _, bx, by in points) for _, _, ax, ay in points]
    (INPUTS / "matrix.csv").write_text("\n".join(matrix) + "\n")
    groups = ["row,individual,replicate"]
    groups += [f"{row},p{ind},{rep}" for row, (ind, rep, _, _) in enumerate(points)]
    (INPUTS / "groups.csv").write_text("\n".join(groups) + "\n")

    # 2 individuals x 2 scans of 24 x 5 series, each individual with its own
    # two factors, so that |r| crosses every level of the default grid
    manifest = ["individual,replicate,path"]
    for ind in range(2):
        loadings = [[noise(4.0) for _ in range(5)] for _ in range(2)]
        for scan in range(2):
            rows = []
            for _ in range(24):
                f = [noise(3.0), noise(3.0)]
                rows.append(",".join(
                    f"{f[0] * loadings[0][r] + f[1] * loadings[1][r] + noise(1.0):.4f}"
                    for r in range(5)
                ))
            name = f"series{2 * ind + scan}.csv"
            (INPUTS / name).write_text("\n".join(rows) + "\n")
            manifest.append(f"v{ind},{scan},{name}")
    (INPUTS / "manifest.csv").write_text("\n".join(manifest) + "\n")

    # the same manifest, whose last series has a comment after a number on
    # line 7: "#" starts no comment, so the cell is not a number
    rows = (INPUTS / "series3.csv").read_text().splitlines()
    rows[6] += " # checked"
    (INPUTS / "series_bad.csv").write_text("\n".join(rows) + "\n")
    manifest[-1] = "v1,1,series_bad.csv"
    (INPUTS / "manifest_bad.csv").write_text("\n".join(manifest) + "\n")

    # 4 individuals of 2, 5, 70 and 3 replicates of 2 features
    lines = ["individual,replicate,f1,f2"]
    for ind, size in enumerate([2, 5, 70, 3]):
        centre = [noise(4.0) for _ in range(2)]
        for rep in range(size):
            lines.append(f"t{ind},{rep}," + ",".join(f"{c + noise(1.5):.4f}" for c in centre))
    (INPUTS / "tall.csv").write_text("\n".join(lines) + "\n")


def output_name(name, argv):
    return f"{name}.csv" if argv[0] == "sweep-threshold" else f"{name}.json"


def fields(text, name):
    """``{path: value}`` of an output: JSON leaves, or CSV cells by row and column.

    A CSV cell is an int or float where it parses as one, else its text.
    """
    if name.endswith(".json"):
        flat = {}

        def walk(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{path}.{key}" if path else key)
            elif isinstance(value, list):
                for k, item in enumerate(value):
                    walk(item, f"{path}[{k}]")
            else:
                flat[path] = value

        walk(json.loads(text), "")
        return flat
    header, *rows = [line.split(",") for line in text.splitlines()]
    flat = {}
    for k, row in enumerate(rows, start=1):
        for column, cell in zip(header, row):
            for kind in (int, float):
                try:
                    cell = kind(cell)
                    break
                except ValueError:
                    pass
            flat[f"row {k}.{column}"] = cell
    return flat


def moved(old, new):
    """``(path, old, new, relative change, beyond the bound)`` of each moved field.

    A float may move within the bound; any other value, its type included,
    must stay as it is.  A missing field reads as None.
    """
    rows = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        if type(a) is type(b) and a == b:
            continue
        if type(a) is float and type(b) is float:
            rel = abs(b - a) / abs(a) if a else math.inf
            rows.append((path, a, b, rel, abs(b - a) > RTOL * abs(a) + ATOL))
        else:
            rows.append((path, a, b, None, True))
    return rows


def print_moved(name, before, after):
    """Print each field of output ``name`` that moved from ``before`` to ``after``."""
    for path, a, b, rel, beyond in moved(fields(before, name), fields(after, name)):
        change = "" if rel is None else f" ({rel:.3g})"
        print(f"{name}: {path} {a!r} -> {b!r}{change}{' *' if beyond else ''}")


def write_acceptance():
    """Run the acceptance experiments and write the summary of their results."""
    sys.path.insert(0, str(HERE.parent))  # for the conftest it imports
    spec = importlib.util.spec_from_file_location("acceptance", HERE.parent / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    with tempfile.TemporaryDirectory() as folder:
        summary = acceptance.summary(
            acceptance.point_experiments(), acceptance.coverage_experiments(),
            acceptance.median_comparison(), acceptance.sb_experiments(),
            acceptance.spread_experiments(), acceptance.scan_pipeline(Path(folder)),
        )
    out = EXPECTED / "acceptance.json"
    text = json.dumps({"numpy": np.__version__, "summary": summary}, indent=2) + "\n"
    if out.exists():
        before = json.dumps(json.loads(out.read_text())["summary"])
        print_moved("acceptance.json", before, json.dumps(summary))
    out.write_text(text)


def main():
    INPUTS.mkdir(exist_ok=True)
    EXPECTED.mkdir(exist_ok=True)
    write_inputs()
    old_record = HERE / "commands.json"
    old = json.loads(old_record.read_text()) if old_record.exists() else {"commands": []}
    old = {case["name"]: case for case in old["commands"]}
    cases = []
    home = os.getcwd()
    os.chdir(INPUTS)
    try:
        for name, argv, simulated in COMMANDS:
            out = EXPECTED / output_name(name, argv)
            before = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run([*argv, "--out", str(out)])
            case = {"name": name, "argv": argv, "simulated": simulated, "exit": code,
                    "stderr": err.getvalue(), "output": out.name if out.exists() else None}
            cases.append(case)
            was = old.get(name, {})
            for key in ("exit", "stderr", "output"):
                if key in was and was[key] != case[key]:
                    print(f"{name}: {key} {was[key]!r} -> {case[key]!r} *")
            if before is not None and out.exists():
                print_moved(out.name, before, out.read_text())
    finally:
        os.chdir(home)
    record = {"numpy": np.__version__, "commands": cases}
    old_record.write_text(json.dumps(record, indent=2) + "\n")
    write_acceptance()


if __name__ == "__main__":
    main()
