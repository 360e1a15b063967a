"""Spans around calls into ``dbicc``'s layers, and the metrics derived from them.

The traced run replaces module attributes (for example
``dbicc.core.pdist``) with wrappers that record a span per call: name,
role, parent span, op id, start, end, and, in ops traced for memory,
a ``tracemalloc`` peak for the roles that allocate O(n^2) memory.  The package itself is not edited.
A wrapper sits where the caller looks the name up, so ``dbicc.cli.
compute_distance_matrix`` and ``dbicc.simulation.compute_distance_matrix``
are two wrappers of the same role.  Spans stay in memory until the run
ends.

A role is ``<layer>.<part>``; a layer's self time is the sum over its
spans of duration minus the duration of their child spans.  Every op
runs under a root span of role ``bench.op``, so the self times of all
spans of an op add up to the op's wall time; ``trace.attributed_frac``
is the share of it that falls in the program's layers.
"""

import importlib
import statistics
import time
import tracemalloc

# (module, attribute, role, track tracemalloc peak)
WRAPS = [
    ("dbicc.cli", "main", "cli.main", False),
    ("dbicc.cli", "dumps_json", "cli.serialize", False),
    ("dbicc.cli", "correlation_from_timeseries", "distances.corr", False),
    ("dbicc.core", "correlation_from_timeseries", "distances.corr", False),
    ("dbicc.cli", "soft_threshold", "distances.threshold", False),
    ("dbicc.core", "soft_threshold", "distances.threshold", False),
    ("dbicc.cli", "build_grouped_sample", "core.build_sample", False),
    ("dbicc.core", "GroupedSample", "core.sample", False),
    ("dbicc.simulation", "GroupedSample", "core.sample", False),
    ("dbicc.cli", "compute_distance_matrix", "core.distance_matrix", False),
    ("dbicc.simulation", "compute_distance_matrix", "core.distance_matrix", False),
    ("dbicc.core", "pdist", "core.kernel", False),
    ("dbicc.core", "squareform", "core.kernel", False),
    ("dbicc.core", "DistanceMatrix", "core.validate", True),
    ("dbicc.cli", "dbicc_point", "estimator.point", True),
    ("dbicc.bootstrap", "dbicc_point", "estimator.point", True),
    ("dbicc.simulation", "dbicc_point", "estimator.point", True),
    ("dbicc.cli", "bootstrap_dbicc", "bootstrap.run", True),
    ("dbicc.simulation", "bootstrap_dbicc_pair", "bootstrap.run", True),
    ("dbicc.bootstrap", "percentile_ci", "bootstrap.quantile", False),
    ("dbicc.cli", "run_point_experiment", "simulation.runner", False),
    ("dbicc.cli", "run_coverage_experiment", "simulation.runner", False),
    ("dbicc.cli", "run_sb_experiment", "simulation.runner", False),
    ("dbicc.simulation", "_point_worker", "simulation.run", False),
    ("dbicc.simulation", "_coverage_worker", "simulation.run", False),
    ("dbicc.simulation", "_sb_worker", "simulation.run", False),
    ("dbicc.simulation", "gen_gaussian_sample", "simulation.generate", False),
    ("dbicc.simulation", "gen_spd_population", "simulation.generate", False),
    ("dbicc.simulation", "build_sb_curve", "spearman_brown.curve", False),
    ("dbicc.simulation", "fit_loglog", "spearman_brown.fit", False),
    ("dbicc.spearman_brown", "fit_loglog", "spearman_brown.fit", False),
]

# span record fields
NAME, ROLE, PARENT, OP, START, END, PEAK, ERROR, EXTRA = range(9)


def _shape(obj):
    return getattr(obj, "shape", ())


def _elements(shape):
    return shape[0] * (shape[1] if len(shape) > 1 else 1) if shape else 0


def _extra(role, name, args, kwargs, result):
    """Work counts computed from argument and result shapes, never measured."""
    if role == "core.kernel":
        shape_in = _shape(args[0]) if args else ()
        extra = {"bytes": 8 * (_elements(shape_in) + _elements(_shape(result)))}
        if name.endswith("pdist") and shape_in:
            extra["pairs"] = shape_in[0] * (shape_in[0] - 1) // 2
        return extra
    if role == "core.validate":
        n = _shape(getattr(result, "values", None))
        return {"matrix_bytes": 8 * n[0] * n[0]} if n else {}
    if role == "bootstrap.run":
        results = result if isinstance(result, tuple) else (result,)
        n_boot = kwargs.get("n_boot", args[1] if len(args) > 1 else 0)
        return {
            "drawn": n_boot,
            "offered": n_boot * len(results),
            "kept": sum(r.replicate_estimates.size for r in results),
        }
    if role == "core.sample":
        return {"samples": 1}
    return None


class Tracer:
    """Installs the wrappers and records spans while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []  # open span indices
        self._mem = []  # [traced memory at entry, running peak] per open span
        self._originals = []
        self.op = None
        self.memory = False

    def install(self, memory=False):
        """Wrap every name in ``WRAPS``; ``memory`` turns on tracemalloc peaks."""
        self.memory = memory
        self.missing = []
        for module_name, attr, role, tracks_memory in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", role, tracks_memory,
                                             original))

    def uninstall(self):
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._originals = []

    def span(self, name, role, call, *args, **kwargs):
        """Run ``call`` under a new span; returns its result."""
        return self._wrap(name, role, False, call)(*args, **kwargs)

    def _wrap(self, name, role, memory, original):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, role, self._stack[-1] if self._stack else None, self.op,
                   0.0, 0.0, None, None, None]
            self.spans.append(rec)
            self._stack.append(idx)
            result = None
            rec[START] = time.perf_counter()
            memory_span = memory and self.memory
            if memory_span:
                self._mem_enter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                if memory_span:
                    rec[PEAK] = self._mem_exit()
                rec[END] = time.perf_counter()
                self._stack.pop()
                if rec[ERROR] is None:
                    rec[EXTRA] = _extra(role, name, args, kwargs, result)

        wrapper.__wrapped__ = original
        return wrapper

    # tracemalloc peaks of nested spans: before a child resets the peak,
    # the parent's running peak keeps what was reached so far.
    def _mem_enter(self):
        if not self._mem:
            tracemalloc.start()
        else:
            self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._mem.append([current, current])

    def _mem_exit(self):
        base, running = self._mem.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return peak - base


# ---------------------------------------------------------------------------
# derivation (parent process; needs no dbicc)
# ---------------------------------------------------------------------------

MIB = 1024.0 * 1024.0


def self_times(spans):
    """Self time of every span, and a list of nesting violations."""
    own = [s[END] - s[START] for s in spans]
    problems = []
    for idx, s in enumerate(spans):
        p = s[PARENT]
        if p is None:
            continue
        parent = spans[p]
        if not (parent[START] <= s[START] <= s[END] <= parent[END] and parent[OP] == s[OP]):
            problems.append(f"span {idx} {s[NAME]} is not inside its parent {parent[NAME]}")
        own[p] -= s[END] - s[START]
    for idx, t in enumerate(own):
        if t < -1e-9:
            problems.append(f"span {idx} {spans[idx][NAME]} has negative self time {t}")
    return own, problems


def op_metrics(spans, own, input_bytes):
    """Per-layer metrics of one op from its spans (all of one op id)."""
    by_role = {}
    count = {}
    extra = {}
    peaks = {}
    for s, t in zip(spans, own):
        role = s[ROLE]
        by_role[role] = by_role.get(role, 0.0) + t
        count[role] = count.get(role, 0) + 1
        for k, v in (s[EXTRA] or {}).items():
            extra[k] = extra.get(k, 0) + v
        if s[PEAK] is not None:
            peaks[role] = max(peaks.get(role, 0), s[PEAK])
    t = lambda *roles: sum(by_role.get(r, 0.0) for r in roles)  # noqa: E731
    n = lambda *roles: sum(count.get(r, 0) for r in roles)  # noqa: E731
    wall = t(*by_role)
    ingest = t("cli.main")
    input_mb = input_bytes / MIB
    offered = extra.get("offered", 0)
    return {
        "cli.ingest_s": ingest,
        "cli.input_mb": input_mb,
        "cli.ingest_mb_per_s": input_mb / ingest if input_mb and ingest else 0.0,
        "cli.serialize_s": t("cli.serialize"),
        "distances.corr_s": t("distances.corr"),
        "distances.corr_calls": n("distances.corr"),
        "distances.threshold_s": t("distances.threshold"),
        "distances.threshold_calls": n("distances.threshold"),
        "core.build_sample_s": t("core.build_sample", "core.sample"),
        "core.samples_built": extra.get("samples", 0),
        "core.distance_matrix_s": t("core.distance_matrix"),
        "core.kernel_s": t("core.kernel"),
        "core.kernel_pairs": extra.get("pairs", 0),
        "core.kernel_bytes_computed": extra.get("bytes", 0),
        "core.validate_s": t("core.validate"),
        "core.validate_peak_alloc_mb": peaks.get("core.validate", 0) / MIB,
        "core.matrix_mb_computed": extra.get("matrix_bytes", 0) / MIB,
        "estimator.point_s": t("estimator.point"),
        "estimator.point_calls": n("estimator.point"),
        "estimator.point_peak_alloc_mb": peaks.get("estimator.point", 0) / MIB,
        "bootstrap.self_s": t("bootstrap.run"),
        "bootstrap.quantile_s": t("bootstrap.quantile"),
        "bootstrap.replicates": extra.get("drawn", 0),
        "bootstrap.kept_frac": extra.get("kept", 0) / offered if offered else 0.0,
        "bootstrap.peak_alloc_mb": peaks.get("bootstrap.run", 0) / MIB,
        "simulation.self_s": t("simulation.runner", "simulation.run"),
        "simulation.generate_s": t("simulation.generate"),
        "simulation.mc_runs": n("simulation.run"),
        "spearman_brown.fit_s": t("spearman_brown.curve", "spearman_brown.fit"),
        "spearman_brown.fits": n("spearman_brown.fit"),
        "trace.attributed_frac": (wall - t("bench.op")) / wall if wall else 0.0,
    }


PEAK_METRICS = ("core.validate_peak_alloc_mb", "estimator.point_peak_alloc_mb",
                "bootstrap.peak_alloc_mb")


def run_metrics(spans, input_bytes, memory_ops):
    """Per-layer metrics of a traced run.

    Times and counts are medians over the ops traced without tracemalloc;
    peaks are maxima over the ops in ``memory_ops``.  Returns (metrics,
    problems); ``problems`` lists nesting violations and ops whose span
    self times do not add up to the op's wall time.
    """
    own, problems = self_times(spans)
    ops = {}
    for idx, s in enumerate(spans):
        ops.setdefault(s[OP], []).append(idx)
    timed, peaked = [], []
    for op, idxs in sorted(ops.items()):
        roots = [i for i in idxs if spans[i][PARENT] is None]
        if len(roots) != 1 or spans[roots[0]][ROLE] != "bench.op":
            problems.append(f"op {op}: expected one root span, got {len(roots)}")
            continue
        wall = spans[roots[0]][END] - spans[roots[0]][START]
        total = sum(own[i] for i in idxs)
        if abs(total - wall) > 1e-9 * max(wall, 1.0):
            problems.append(f"op {op}: self times sum to {total}, wall is {wall}")
        m = op_metrics([spans[i] for i in idxs], [own[i] for i in idxs], input_bytes)
        (peaked if op in memory_ops else timed).append(m)
    if not (timed and peaked):
        return {}, problems + ["need ops traced with and without tracemalloc"]
    metrics = {k: statistics.median(m[k] for m in timed) for k in timed[0]}
    for k in PEAK_METRICS:
        metrics[k] = max(m[k] for m in peaked)
    return metrics, problems
