"""Independent checks of the program's outputs.

Nothing here imports ``dbicc``.  The exact dbICC of Euclidean data comes
from the sums-of-squares identity behind PERMANOVA (Anderson 2001,
Austral Ecology 26:32-46): within a group of J rows,
sum_{a<b} |x_a - x_b|^2 = J * sum_a |x_a - mean|^2, and the same over all
n rows gives the total, so the dbICC costs O(n*p) with no n-by-n matrix.
The correlation-of-correlations distance reduces to the same case: with
z the strict lower triangle standardized to mean 0 and norm 1,
1 - r = |z_a - z_b|^2 / 2.

Every check returns a list of problems; an empty list means the output
passed.  A check never raises on a malformed output: it reports it.
"""

import csv
import io
import json
import math

import numpy as np

RTOL = 1e-9


def dbicc_sums_of_squares(x):
    """Exact dbICC components of grouped Euclidean data.

    ``x`` has shape (individuals, replicates, features).  Returns
    (rho_hat, msd_within, msd_between, n_within_pairs, n_between_pairs).
    Both sums are taken about group and global means (two-pass), which
    stays accurate on offset data.
    """
    x = np.asarray(x, dtype=float)
    n_ind, n_rep = x.shape[:2]
    n = n_ind * n_rep
    flat = x.reshape(n, -1)
    total = n * float(np.sum((flat - flat.mean(axis=0)) ** 2))
    within = n_rep * float(np.sum((x - x.mean(axis=1, keepdims=True)) ** 2))
    n_within = n_ind * n_rep * (n_rep - 1) // 2
    n_between = n * (n - 1) // 2 - n_within
    msd_w = within / n_within
    msd_b = (total - within) / n_between
    return 1.0 - msd_w / msd_b, msd_w, msd_b, n_within, n_between


def correlation_matrices(series):
    """Pearson correlation matrix of every (individual, scan) series."""
    n_ind, n_scan, _, p = series.shape
    out = np.empty((n_ind, n_scan, p, p))
    for i in range(n_ind):
        for j in range(n_scan):
            r = np.clip(np.corrcoef(series[i, j], rowvar=False), -1.0, 1.0)
            np.fill_diagonal(r, 1.0)
            out[i, j] = r
    return out


def standardized_lower_triangles(corr):
    """Strict lower triangles, centered and scaled to unit norm."""
    p = corr.shape[-1]
    rows, cols = np.tril_indices(p, k=-1)
    v = corr[..., rows, cols]
    v = v - v.mean(axis=-1, keepdims=True)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _close(got, want, rtol=RTOL):
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(
        got - want
    ) <= rtol * max(abs(want), 1e-300)


def _load_json(data: bytes, problems):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        problems.append(f"output is not JSON ({exc})")
        return None


def _check_estimate(doc, want, label, scale, problems):
    """Compare rho_hat, both MSDs (times ``scale``) and the pair counts."""
    rho, msd_w, msd_b, n_w, n_b = want
    if not _close(doc.get("rho_hat"), rho):
        problems.append(f"{label}: rho_hat {doc.get('rho_hat')!r} != {rho!r}")
    if not _close(doc.get("msd_within"), scale * msd_w):
        problems.append(f"{label}: msd_within {doc.get('msd_within')!r} != "
                        f"{scale * msd_w!r}")
    if not _close(doc.get("msd_between"), scale * msd_b):
        problems.append(f"{label}: msd_between {doc.get('msd_between')!r} != "
                        f"{scale * msd_b!r}")
    if doc.get("n_within_pairs") != n_w or doc.get("n_between_pairs") != n_b:
        problems.append(f"{label}: pair counts {doc.get('n_within_pairs')!r}/"
                        f"{doc.get('n_between_pairs')!r} != {n_w}/{n_b}")


def _check_interval(doc, boot, seed, label, problems):
    lo, hi, rho = doc.get("ci_low"), doc.get("ci_high"), doc.get("rho_hat")
    numbers = all(isinstance(v, (int, float)) for v in (lo, hi, rho))
    if not numbers or not (lo <= hi <= 1.0 and rho <= 1.0):
        problems.append(f"{label}: need ci_low <= ci_high <= 1 and rho_hat <= 1, "
                        f"got {lo!r}, {hi!r}, {rho!r}")
    if doc.get("B") != boot or doc.get("seed") != seed or doc.get("corrected") is not True:
        problems.append(f"{label}: B/seed/corrected {doc.get('B')!r}/"
                        f"{doc.get('seed')!r}/{doc.get('corrected')!r} != {boot}/{seed}/True")


class Oracle:
    """Expected values of one run, computed once, checked against every op."""

    def __init__(self, name: str, expect: dict):
        self.name = name
        self.expect = {k: v for k, v in expect.items() if k not in ("series", "vectors")}
        if name == "scan_cli":
            corr = correlation_matrices(expect["series"])
            n_ind, n_scan, p, _ = corr.shape
            self.want_corr = dbicc_sums_of_squares(standardized_lower_triangles(corr))
            self.want_l2 = dbicc_sums_of_squares(corr.reshape(n_ind, n_scan, p * p))
        elif name == "vectors_cli":
            self.want_l2 = dbicc_sums_of_squares(expect["vectors"])

    def check(self, label: str, data: bytes) -> list:
        """Problems found in the output ``data`` of the CLI call ``label``."""
        problems = []
        try:
            getattr(self, f"_check_{label}")(data, problems)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            problems.append(f"{label}: malformed output ({type(exc).__name__}: {exc})")
        return problems

    def _check_bootstrap(self, data, problems):
        doc = _load_json(data, problems)
        if doc is None:
            return
        if self.name == "scan_cli":
            # corr-of-corr: d^2 = 1 - r = |z_a - z_b|^2 / 2
            _check_estimate(doc, self.want_corr, "bootstrap", 0.5, problems)
        else:
            _check_estimate(doc, self.want_l2, "bootstrap", 1.0, problems)
        _check_interval(doc, self.expect["boot"], self.expect["seed"], "bootstrap",
                        problems)

    def _check_sweep(self, data, problems):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or rows[0] != ["distance", "threshold", "avg_fraction_zeroed",
                                   "rho_hat"]:
            problems.append("sweep: unexpected header")
            return
        body = rows[1:]
        if len(body) != 10:
            problems.append(f"sweep: expected 10 grid rows, got {len(body)}")
            return
        for k, (dist, thr, frac, rho) in enumerate(body):
            if dist != "l2" or abs(float(thr) - 0.1 * k) > 1e-12:
                problems.append(f"sweep row {k}: distance/threshold {dist},{thr}")
            if not 0.0 <= float(frac) <= 1.0:
                problems.append(f"sweep row {k}: fraction zeroed {frac} outside [0, 1]")
            if rho == "":
                continue
            value = float(rho)
            if not (math.isfinite(value) and value <= 1.0):
                problems.append(f"sweep row {k}: rho_hat {rho} not finite and <= 1")
        # threshold 0 leaves every correlation matrix unchanged
        if body[0][3] == "" or not _close(float(body[0][3]), self.want_l2[0]):
            problems.append(f"sweep row 0: rho_hat {body[0][3]!r} != {self.want_l2[0]!r}")

    def _check_coverage(self, data, problems):
        doc = _load_json(data, problems)
        if doc is None:
            return
        e = self.expect
        runs = doc["runs"]
        if (doc["experiment"], doc["n_runs"], len(runs), doc["seed"], doc["n_boot"]) != (
            "coverage", e["runs"], e["runs"], e["seed"], e["boot"]
        ):
            problems.append("coverage: experiment/n_runs/seed/n_boot mismatch")
            return
        icc = doc["icc_true"]
        covered = {"naive": 0, "corrected": 0}
        for k, run in enumerate(runs):
            if not (math.isfinite(run["point"]) and run["point"] <= 1.0):
                problems.append(f"coverage run {k}: point {run['point']!r}")
            for kind in covered:
                lo, hi = run[kind]
                if not lo <= hi <= 1.0:
                    problems.append(f"coverage run {k}: {kind} interval {lo!r}, {hi!r}")
                covered[kind] += lo <= icc <= hi
        for kind, count in covered.items():
            if not _close(doc[f"coverage_{kind}"], 100.0 * count / e["runs"], 1e-12):
                problems.append(f"coverage: coverage_{kind} {doc[f'coverage_{kind}']!r} "
                                f"!= {100.0 * count / e['runs']!r}")
        mean_point = float(np.mean([r["point"] for r in runs]))
        if not _close(doc["mean_point"], mean_point, 1e-12):
            problems.append(f"coverage: mean_point {doc['mean_point']!r} != {mean_point!r}")

    def _check_sb(self, data, problems):
        doc = _load_json(data, problems)
        if doc is None:
            return
        e = self.expect
        if (doc["experiment"], doc["n_runs"], doc["seed"]) != ("sb", e["runs"], e["seed"]):
            problems.append("sb: experiment/n_runs/seed mismatch")
            return
        offset = doc["offset"]
        grid = set(doc["m_grid"])
        for kind in ("covariance", "correlation"):
            rep = doc[kind]
            by_run = {}
            for pt in rep["points"]:
                rho = pt["rho_hat"]
                if not (pt["m"] in grid and 0.0 < rho < 1.0):
                    problems.append(f"sb {kind}: point {pt!r} off grid or outside (0, 1)")
                    continue
                if not (_close(pt["x"], math.log(pt["m"] - offset))
                        and _close(pt["y"], math.log(rho / (1.0 - rho)))):
                    problems.append(f"sb {kind}: point {pt!r} has wrong log-SNR coordinates")
                by_run.setdefault(pt["run"], []).append((pt["x"], pt["y"]))
            slopes = rep["slopes"]
            if len(slopes) != e["runs"] or sorted(by_run) != list(range(e["runs"])):
                problems.append(f"sb {kind}: expected {e['runs']} fitted runs")
                continue
            for run, pts in by_run.items():
                x, y = np.array(pts).T
                slope = float(np.sum((x - x.mean()) * (y - y.mean()))
                              / np.sum((x - x.mean()) ** 2))
                if not _close(slopes[run], slope):
                    problems.append(f"sb {kind} run {run}: slope {slopes[run]!r} != "
                                    f"least-squares {slope!r}")
            if not _close(rep["mean_slope"], float(np.mean(slopes)), 1e-12):
                problems.append(f"sb {kind}: mean_slope is not the mean of the slopes")


def sweep_degenerate_levels(data: bytes) -> int:
    """Grid levels of a sweep output whose dbICC is undefined (empty cell)."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    return sum(1 for row in rows if row and row[-1] == "")
