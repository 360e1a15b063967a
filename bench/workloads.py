"""Seeded inputs and CLI argv for the benchmark workloads.

Inputs are generated here with plain numpy, never with ``dbicc``'s own
simulators, so that a change to the program cannot change the data it
is measured on.  Every generator draws from ``default_rng([seed, tag])``
with a fixed per-workload tag: the same seed gives byte-identical files.

A workload op is a list of CLI calls (``dbicc.cli.main(argv)``); every op
of a run repeats the same calls, so outputs are comparable byte for byte.
The ``expect`` dict holds what the oracle needs: sizes, the seed, and the
data itself for the O(n*p) sums-of-squares check.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes of the committed workloads.  ``TINY`` shrinks every one for the
# self-tests; nothing else varies between the two.
SIZES = {
    "scan_cli": {"individuals": 25, "scans": 2, "timepoints": 197, "channels": 333,
                 "boot": 1200},
    "vectors_cli": {"individuals": 3000, "replicates": 3, "features": 20, "rho": 0.5,
                    "boot": 200},
    "coverage_sim": {"individuals": 40, "replicates": 4, "rho": 0.5, "boot": 1200,
                     "runs": 100},
    "sb_sim": {"phi": 0.6, "runs": 4, "individuals": 25, "replicates": 2, "dim": 40,
               "m_grid": None},
}

TINY = {
    "scan_cli": {"individuals": 4, "scans": 2, "timepoints": 30, "channels": 8,
                 "boot": 200},
    "vectors_cli": {"individuals": 20, "replicates": 3, "features": 4, "rho": 0.5,
                    "boot": 200},
    "coverage_sim": {"individuals": 6, "replicates": 3, "rho": 0.5, "boot": 200,
                     "runs": 3},
    "sb_sim": {"phi": 0.6, "runs": 2, "individuals": 8, "replicates": 2, "dim": 6,
               "m_grid": [30, 60, 120, 240]},
}

WORKLOADS = tuple(SIZES)

_TAGS = {"scan_cli": 1, "vectors_cli": 2, "coverage_sim": 3, "sb_sim": 4}


@dataclass
class Prepared:
    """Generated inputs of one run: the op's CLI calls and the oracle's data."""

    name: str
    calls: list  # [(label, argv, output file name)]
    inputs: list = field(default_factory=list)  # generated file names
    input_bytes_per_op: int = 0  # bytes the CLI reads per op
    expect: dict = field(default_factory=dict)


def _corr_scaled_wishart(rng, n, dim, df):
    """Random unit-diagonal SPD matrices: correlation-scaled Wishart draws."""
    roots = rng.standard_normal((n, dim, df))
    w = np.einsum("nik,njk->nij", roots, roots)
    d = np.sqrt(np.diagonal(w, axis1=1, axis2=2))
    return w / (d[:, :, None] * d[:, None, :])


def _write_csv(path, header, rows_text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in rows_text)


def _prepare_scan(workdir: Path, seed: int, size: dict) -> Prepared:
    # 25 subjects x 2 scans of 197x333 series, the geometry of the paper's
    # scan data; each subject's series share one population covariance.
    rng = np.random.default_rng([seed, _TAGS["scan_cli"]])
    n_ind, n_scan = size["individuals"], size["scans"]
    t, p = size["timepoints"], size["channels"]
    chols = np.linalg.cholesky(_corr_scaled_wishart(rng, n_ind, p, 2 * p))
    series = np.empty((n_ind, n_scan, t, p))
    lines, inputs = [], ["manifest.csv"]
    for i in range(n_ind):
        for j in range(n_scan):
            series[i, j] = rng.standard_normal((t, p)) @ chols[i].T
            rel = f"scan_{i:02d}_{j}.csv"
            np.savetxt(workdir / rel, series[i, j], delimiter=",", fmt="%.17g")
            inputs.append(rel)
            lines.append(f"sub{i:02d},{j},{rel}")
    _write_csv(workdir / "manifest.csv", "individual,replicate,path", lines)
    calls = [
        ("bootstrap", ["bootstrap", "manifest.csv", "--distance", "corr", "--boot",
                       str(size["boot"]), "--corrected", "--seed", str(seed),
                       "--out", "bootstrap.json"], "bootstrap.json"),
        ("sweep", ["sweep-threshold", "manifest.csv", "--distance", "l2",
                   "--out", "sweep.csv"], "sweep.csv"),
    ]
    read = sum((workdir / f).stat().st_size for f in inputs)
    return Prepared("scan_cli", calls, inputs, 2 * read,
                    {"series": series, "boot": size["boot"], "seed": seed})


def _prepare_vectors(workdir: Path, seed: int, size: dict) -> Prepared:
    # score + noise vectors with population dbICC rho (identity covariances)
    rng = np.random.default_rng([seed, _TAGS["vectors_cli"]])
    n_ind, n_rep, p = size["individuals"], size["replicates"], size["features"]
    noise_sd = np.sqrt((1.0 - size["rho"]) / size["rho"])
    scores = rng.standard_normal((n_ind, p))
    obs = scores[:, None, :] + noise_sd * rng.standard_normal((n_ind, n_rep, p))
    header = "individual,replicate," + ",".join(f"f{k + 1}" for k in range(p))
    rows = (
        f"s{i:05d},{j}," + ",".join(format(v, ".17g") for v in obs[i, j])
        for i in range(n_ind)
        for j in range(n_rep)
    )
    _write_csv(workdir / "vectors.csv", header, rows)
    calls = [
        ("bootstrap", ["bootstrap", "vectors.csv", "--distance", "l2", "--boot",
                       str(size["boot"]), "--corrected", "--seed", str(seed),
                       "--out", "bootstrap.json"], "bootstrap.json"),
    ]
    read = (workdir / "vectors.csv").stat().st_size
    return Prepared("vectors_cli", calls, ["vectors.csv"], read,
                    {"vectors": obs, "boot": size["boot"], "seed": seed})


def _prepare_coverage(workdir: Path, seed: int, size: dict) -> Prepared:
    argv = ["simulate", "--experiment", "coverage", "--individuals",
            str(size["individuals"]), "--replicates", str(size["replicates"]),
            "--rho", str(size["rho"]), "--boot", str(size["boot"]), "--runs",
            str(size["runs"]), "--seed", str(seed), "--threads", "1",
            "--out", "coverage.json"]
    return Prepared("coverage_sim", [("coverage", argv, "coverage.json")],
                    expect=dict(size, seed=seed))


def _prepare_sb(workdir: Path, seed: int, size: dict) -> Prepared:
    argv = ["simulate", "--experiment", "sb", "--phi", str(size["phi"]), "--runs",
            str(size["runs"]), "--seed", str(seed), "--threads", "1"]
    if size["m_grid"] is not None:
        argv += ["--individuals", str(size["individuals"]), "--dim", str(size["dim"]),
                 "--m-grid", ",".join(str(m) for m in size["m_grid"])]
    argv += ["--out", "sb.json"]
    return Prepared("sb_sim", [("sb", argv, "sb.json")], expect=dict(size, seed=seed))


_PREPARE = {
    "scan_cli": _prepare_scan,
    "vectors_cli": _prepare_vectors,
    "coverage_sim": _prepare_coverage,
    "sb_sim": _prepare_sb,
}


def prepare(name: str, workdir: Path, seed: int, size=None) -> Prepared:
    """Generate the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    return _PREPARE[name](Path(workdir), int(seed), size or SIZES[name])
