"""dbicc benchmark: one seeded workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload scan_cli --seed 1 --seconds 15 --trace 0

The run generates the workload's inputs from the seed (untimed), times
several fresh ``import dbicc, dbicc.cli`` processes for ``setup_s``, then
starts one fresh worker process that runs the workload's op in a closed
loop for ``--seconds`` (see ``worker.py``).  Every op's output is checked
by ``oracle.py``.  With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics from spans around the
calls into each module (see ``spans.py``).  The package is imported from
``src/`` of the checkout this file sits in; without it the run exits 1
and prints no result.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from oracle import Oracle, sweep_degenerate_levels
from spans import run_metrics
from workloads import SIZES, WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 6  # fresh import processes besides the worker's own import

# op_p50_s and first_op_s are printed but not gated: between runs on a
# shared 2-CPU machine the median op snapped between the machine's fast and
# slow phases (IQR/median up to 0.26), and the single cold op spread up to
# 0.35.  The mean-based ops_per_s spread at most 0.19 (see README.md).
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.ingest_s": "s",
    "cli.input_mb": "MiB",
    "cli.ingest_mb_per_s": "MiB/s",
    "cli.serialize_s": "s",
    "cli.sweep_degenerate_levels": "count",
    "distances.corr_s": "s",
    "distances.corr_calls": "count",
    "distances.threshold_s": "s",
    "distances.threshold_calls": "count",
    "core.build_sample_s": "s",
    "core.samples_built": "count",
    "core.distance_matrix_s": "s",
    "core.kernel_s": "s",
    "core.kernel_pairs": "count",
    "core.kernel_bytes_computed": "B",
    "core.validate_s": "s",
    "core.validate_peak_alloc_mb": "MiB",
    "core.matrix_mb_computed": "MiB",
    "estimator.point_s": "s",
    "estimator.point_calls": "count",
    "estimator.point_peak_alloc_mb": "MiB",
    "bootstrap.self_s": "s",
    "bootstrap.quantile_s": "s",
    "bootstrap.replicates": "count",
    "bootstrap.kept_frac": "ratio",
    "bootstrap.peak_alloc_mb": "MiB",
    "simulation.self_s": "s",
    "simulation.generate_s": "s",
    "simulation.mc_runs": "count",
    "spearman_brown.fit_s": "s",
    "spearman_brown.fits": "count",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}

_PROBE = "import dbicc, dbicc.cli\nimport time\nprint(repr(time.perf_counter()))"


class BenchError(Exception):
    """The run could not produce a result."""


# One BLAS thread: with the library default of one thread per CPU, the tiny
# matrix products of coverage_sim ran 2.5x slower and bimodally on a
# 2-CPU machine whose other CPU was busy (see README.md).
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _child_env(src: Path):
    env = dict(os.environ, **BLAS_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _read_cache_sizes():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path, blas_threads) -> dict:
    """Versions, CPU, cache and BLAS settings of the machine running the run."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "thread_env": BLAS_THREAD_ENV,
        "caches": _read_cache_sizes(),
        "git_sha": _git_sha(root),
    }


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _setup_sample(env, root: Path, timeout: float) -> float:
    t0 = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=root,
                             capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run did not finish within {BUDGET_S:.0f} s")
    if out.returncode != 0:
        raise BenchError(f"`import dbicc, dbicc.cli` failed:\n{out.stderr[-2000:]}")
    return float(out.stdout.split()[-1]) - t0


def _check_ops(report, prepared, oracle, workdir: Path):
    """Per op: failure messages; an op fails on an exception, a non-zero exit,
    an output that differs from op 0's, or an oracle mismatch."""
    first = {}
    verdicts = []
    for op in report["ops"]:
        problems = []
        for (label, _argv, _out), code, rel in zip(prepared.calls, op["codes"],
                                                   op["outputs"]):
            if code != 0:
                problems.append(f"{label}: exit {code!r}: {op['stderr'][-300:]!r}")
                continue
            if rel is None:
                problems.append(f"{label}: no output written")
                continue
            data = (workdir / rel).read_bytes()
            first.setdefault(label, data)
            if data != first[label]:
                problems.append(f"{label}: output differs from op 0's")
            problems += oracle.check(label, data)
        if len(op["codes"]) != len(prepared.calls):
            problems.append("op did not run every call")
        verdicts.append(problems)
    return verdicts, first


def run(workload, seed, seconds, trace, root=ROOT, size=None):
    """One benchmark run; returns (result dict, report lines)."""
    t_start = time.perf_counter()
    src = root / "src"
    if not (src / "dbicc" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'dbicc'}")
    env = _child_env(src)
    workdir = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    remaining = lambda: max(BUDGET_S - (time.perf_counter() - t_start), 1.0)  # noqa: E731
    lines = []
    try:
        workdir.mkdir(parents=True)
        prepared = prepare(workload, workdir, seed, size)
        inputs = {f: sha256_of(workdir / f) for f in prepared.inputs}
        oracle = Oracle(workload, prepared.expect)
        lines.append("inputs " + json.dumps({"workload": workload, "seed": seed,
                                             "size": size or SIZES[workload],
                                             "sha256": inputs}))

        setup = [_setup_sample(env, root, remaining()) for _ in range(SETUP_PROBES)]
        config = {"workdir": str(workdir), "calls": prepared.calls, "seconds": seconds,
                  "trace": bool(trace), "report": str(workdir / "report.json")}
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("worker.py")),
                 str(workdir / "config.json")],
                env=env, cwd=root, capture_output=True, text=True, timeout=remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"the run did not finish within {BUDGET_S:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        if not Path(report["dbicc_file"]).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"worker imported dbicc from {report['dbicc_file']}")
        setup.append(report["ready"] - t_spawn)
        lines.insert(0, "env " + json.dumps(environment(root, report["blas_threads"])))

        verdicts, outputs = _check_ops(report, prepared, oracle, workdir)
        failed = sum(1 for v in verdicts if v)
        lines.append(f"dbicc {report['dbicc_version']} from {report['dbicc_file']}")
        lines.append(f"ops attempted={len(verdicts)} failed={failed} "
                     f"failed_frac={failed / len(verdicts):.6g}")
        lines += [f"  op {k} failed: {'; '.join(v)[:500]}"
                  for k, v in enumerate(verdicts) if v][:5]

        ops = report["ops"]
        untraced = [o["wall"] for o in ops[1:] if o["mode"] == "untraced"]
        lines.append(f"op_p50_s {statistics.median(untraced):.6g} (not gated)")
        lines.append(f"first_op_s {ops[0]['wall']:.6g} (cold, not gated)")
        lines.append("op wall_s " + " ".join(f"{o['wall']:.4f}" for o in ops))
        lines.append("op cpu_s  " + " ".join(f"{o['cpu']:.4f}" for o in ops))
        problems = []
        if not trace:
            metrics = {
                "ops_per_s": len(untraced) / sum(untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": report["rss_kb"] / 1024.0,
            }
            units = END_TO_END
        else:
            metrics, problems = run_metrics(
                report["spans"], prepared.input_bytes_per_op,
                {o["op"] for o in ops if o["mode"] == "memory"})
            if not metrics:
                raise BenchError("; ".join(problems))
            traced = [o["wall"] for o in ops if o["mode"] == "spans"]
            metrics["trace.overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(untraced) - 1.0)
            metrics["cli.sweep_degenerate_levels"] = (
                sweep_degenerate_levels(outputs["sweep"]) if "sweep" in outputs else 0)
            units = PER_LAYER
            if report["unwrapped"]:
                lines.append("not found, so not traced: " + ", ".join(report["unwrapped"]))
            lines += [f"  trace problem: {p}" for p in problems[:5]]
        lines.append(f"{'metric':<32} {'value':>16}  unit")
        lines += [f"{k:<32} {metrics[k]:>16.6g}  {u}" for k, u in units.items()]
        lines.append(f"run took {time.perf_counter() - t_start:.1f} s")
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(verdicts),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
