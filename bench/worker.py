"""The closed loop of one benchmark run, in a fresh process.

Usage: ``PYTHONPATH=src python3 bench/worker.py CONFIG.json``; ``run.py``
writes the config and reads the report this writes back.

One caller runs op after op in process: a warm-up op, then timed ops
until the configured seconds have passed.  An op is the workload's list
of ``dbicc.cli.main(argv)`` calls, each with the same argv every time.
Each output file is moved aside after its op, outside the timed region,
for the oracle.  With tracing on, timed ops cycle through three modes,
so all of them see the same machine state: untraced; spans; spans plus
``tracemalloc`` peaks, whose cost is kept out of the span timings.
"""

import time

import dbicc
import dbicc.cli

READY = time.perf_counter()  # first line after the package import

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


def _blas_threads():
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _run_calls(calls, codes):
    for _label, argv, _out in calls:
        try:
            codes.append(dbicc.cli.main(list(argv)))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            codes.append(f"{type(exc).__name__}: {exc}")


MODES = ("untraced", "spans", "memory")


def _run_op(k, calls, tracer, mode, ops):
    codes = []
    err = io.StringIO()
    if mode != "untraced":
        tracer.install(memory=mode == "memory")
        tracer.op = k
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stderr(err):
        if mode == "untraced":
            _run_calls(calls, codes)
        else:
            tracer.span("bench.op", "bench.op", _run_calls, calls, codes)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if mode != "untraced":
        tracer.uninstall()
    outputs = []
    for _label, _argv, out in calls:
        dest = Path("ops") / f"op{k:04d}_{out}"
        try:
            os.replace(out, dest)
            outputs.append(str(dest))
        except FileNotFoundError:
            outputs.append(None)
    ops.append({"op": k, "mode": mode, "wall": wall, "cpu": cpu, "codes": codes,
                "stderr": err.getvalue()[-4000:], "outputs": outputs})


def main(config_path):
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    os.chdir(cfg["workdir"])
    Path("ops").mkdir()
    calls, trace = cfg["calls"], cfg["trace"]
    tracer = Tracer()
    modes = MODES if trace else MODES[:1]
    ops = []
    _run_op(0, calls, tracer, "untraced", ops)  # warm-up: the cold first op
    deadline = time.perf_counter() + cfg["seconds"]
    k = 1
    while True:
        _run_op(k, calls, tracer, modes[(k - 1) % len(modes)], ops)
        k += 1
        if time.perf_counter() >= deadline and k > len(modes):
            break
    report = {
        "ready": READY,
        "dbicc_file": dbicc.__file__,
        "dbicc_version": getattr(dbicc, "__version__", None),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": _blas_threads(),
        "ops": ops,
        "spans": tracer.spans,
        "unwrapped": tracer.missing,
    }
    Path(cfg["report"]).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
