"""Peak RSS of whole commands on large inputs, each in a fresh interpreter.

Block sums from l2 payloads keep the I-by-p means, so a bootstrap of
30,000 individuals (J = 3, p = 20) builds no I-by-I array, which alone
would take 7 GB; l1 block sums read the distance matrix in
cdist row chunks, so one of 3,000 individuals builds no n-by-n matrix,
which alone would take 648 MB.  The bootstrap draws, counts and reduces
its replicates in blocks of about 1 MiB of indices, where the whole
(B, I) draw and its counts would take about 2.9 GiB at --boot 2000.  The
sb experiment's generator holds 512 KiB of series at a time, and its
block sums load no scipy.  sweep-threshold keeps only the correlations'
lower triangles and one buffer of the live columns (206 MiB with the
whole 333 x 333 stack and its thresholded copy).  A coverage experiment
computes every replicate block of its runs in one reused workspace.
Vector and distance-matrix CSVs are read in blocks of lines, one float
array each, so the 42 MB text of the 1500 x 1500 matrix is never held
whole, nor split into cells by the csv module (336 MiB).

Peaks measured on Linux with Python 3.11 and numpy 2.4, bound in
brackets: l2, 30,000 individuals, 82 MiB at --boot 200 and at 2000 (1024
and 200); l1, 3,000 individuals, 147 MiB (400); sb, 400 individuals of
800 time points in 40 dimensions, 92 MiB (200); the sweep of 25 subjects
x 2 scans of 197 x 333 series, 131 MiB (180); coverage, 3 runs of
--boot 20000 at 40 individuals, 42 MiB (100); the matrix, 90 MiB (120).

The inputs are written by a process of their own, and each command runs
in a fresh interpreter started by a small launcher process: a child's
``ru_maxrss`` starts from its parent's RSS at the fork (at the exec, for
a vfork), so a child of the generator, or of this test process, would
report that process's peak wherever its own is lower.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dbicc

# Writes the inputs into the directory argv[1].
_WRITE_INPUTS = r"""
import sys
from pathlib import Path
import numpy as np
tmp = Path(sys.argv[1])
for distance, n_ind in (('l2', 30000), ('l1', 3000)):
    n_rep, p = 3, 20
    rng = np.random.default_rng(1)
    rows = np.column_stack([
        np.repeat(np.arange(n_ind), n_rep), np.tile(np.arange(n_rep), n_ind),
        np.repeat(rng.standard_normal((n_ind, p)), n_rep, axis=0)
        + rng.standard_normal((n_ind * n_rep, p)),
    ])
    header = 'individual,replicate,' + ','.join(f'f{k}' for k in range(p))
    np.savetxt(tmp / f'{distance}_cohort.csv', rows, delimiter=',', header=header,
               comments='', fmt=['%d', '%d'] + ['%.17g'] * p)
# 25 subjects x 2 scans of 197 x 333 series, each subject with its own factors
rng = np.random.default_rng(1)
lines = ['individual,replicate,path']
for i in range(25):
    loadings = rng.standard_normal((10, 333))
    for j in range(2):
        series = rng.standard_normal((197, 10)) @ loadings + rng.standard_normal((197, 333))
        np.savetxt(tmp / f'scan_{i}_{j}.csv', series, delimiter=',')
        lines.append(f'sub{i},{j},scan_{i}_{j}.csv')
(tmp / 'scan.csv').write_text('\n'.join(lines) + '\n')
# the Euclidean distances of 500 individuals x 3 replicates in 20 dimensions
n_ind, n_rep, p = 500, 3, 20
rng = np.random.default_rng(1)
x = (np.repeat(rng.standard_normal((n_ind, p)), n_rep, axis=0)
     + rng.standard_normal((n_ind * n_rep, p)))
sq = (x * x).sum(axis=1)
d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * x @ x.T, 0))
d = (d + d.T) / 2
np.fill_diagonal(d, 0)
np.savetxt(tmp / 'dm.csv', d, delimiter=',', fmt='%.17g')
(tmp / 'groups.csv').write_text('row,individual,replicate\n' + ''.join(
    f'{k},s{k // n_rep},{k % n_rep}\n' for k in range(n_ind * n_rep)))
"""

# Runs dbicc.cli.main(argv[1:]); prints its exit code and the peak RSS in MiB.
_RUN = """
import resource, sys
from dbicc.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

# Runs the script argv[1] with the arguments after it, from a small process.
_LAUNCH = """
import subprocess, sys
sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)
"""


def _env():
    """This environment with one BLAS thread and the package first on PYTHONPATH."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(Path(dbicc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("large_inputs")
    subprocess.run([sys.executable, "-c", _WRITE_INPUTS, str(tmp)], check=True,
                   env=_env(), timeout=600)
    return tmp


_BOOT = ["--boot", "200", "--seed", "1"]

# (argv with {tmp} for the input directory, bound in MiB)
_BOUNDED = {
    "l2, 30000 individuals": (
        ["bootstrap", "{tmp}/l2_cohort.csv", "--distance", "l2", *_BOOT], 1024),
    "l1, 3000 individuals": (
        ["bootstrap", "{tmp}/l1_cohort.csv", "--distance", "l1", *_BOOT], 400),
    "l2, 30000 individuals, 2000 replicates": (
        ["bootstrap", "{tmp}/l2_cohort.csv", "--distance", "l2", "--boot", "2000",
         "--seed", "1"], 200),
    "sb, 400 individuals": (
        ["simulate", "--experiment", "sb", "--phi", "0.6", "--individuals", "400",
         "--dim", "40", "--m-grid", "200,400,800", "--runs", "1", "--threads", "1"], 200),
    "sweep, 25 x 2 series of 197 x 333": (
        ["sweep-threshold", "{tmp}/scan.csv", "--distance", "l2"], 180),
    "coverage, 40 individuals, 20000 replicates": (
        ["simulate", "--experiment", "coverage", "--individuals", "40",
         "--boot", "20000", "--runs", "3", "--threads", "1"], 100),
    "matrix, 1500 x 1500 with groups": (
        ["bootstrap", "{tmp}/dm.csv", "--groups", "{tmp}/groups.csv", *_BOOT], 120),
}


@pytest.mark.parametrize("case", list(_BOUNDED))
def test_peak_rss_stays_under_its_bound(inputs, case):
    argv, bound_mib = _BOUNDED[case]
    argv = [arg.format(tmp=inputs) for arg in argv]
    out = inputs / "out"
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, _RUN, *argv, "--out", str(out)],
        capture_output=True, text=True, env=_env(), timeout=600,
    )
    assert done.returncode == 0, done.stderr
    code, peak_mib = done.stdout.split()
    assert int(code) == 0, done.stderr
    print(f"{case}: peak RSS {float(peak_mib):.0f} MiB (bound {bound_mib})")
    assert float(peak_mib) < bound_mib
