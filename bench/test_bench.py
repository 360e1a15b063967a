"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
from workloads import TINY, WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(autouse=True)
def _one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = run.run(workload, 3, 0.3, trace, size=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= (4 if trace else 2)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.attributed_frac"]["value"] > 0.99
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _program_outputs(workload, workdir, seed=4):
    """Run the op of a tiny workload in process; return (oracle, {label: bytes})."""
    import dbicc.cli

    prepared = prepare(workload, workdir, seed, TINY[workload])
    cwd = Path.cwd()
    try:
        os.chdir(workdir)
        for _label, argv, _out in prepared.calls:
            assert dbicc.cli.main(list(argv)) == 0
    finally:
        os.chdir(cwd)
    outputs = {label: (workdir / out).read_bytes() for label, _argv, out in prepared.calls}
    return oracle.Oracle(workload, prepared.expect), outputs


def _perturb_json(data, edit):
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


PERTURBATIONS = {
    "bootstrap": [
        lambda d: d.update(rho_hat=d["rho_hat"] * (1 + 1e-6)),
        lambda d: d.update(msd_between=d["msd_between"] * (1 - 1e-6)),
        lambda d: d.update(ci_low=d["ci_high"] + 1e-3),
        lambda d: d.update(n_within_pairs=d["n_within_pairs"] + 1),
    ],
    "coverage": [
        lambda d: d.update(coverage_naive=d["coverage_naive"] + 1.0),
        lambda d: d["runs"][0].update(corrected=d["runs"][0]["corrected"][::-1]),
    ],
    "sb": [
        lambda d: d["correlation"]["slopes"].__setitem__(0, d["correlation"]["slopes"][0] + 1e-6),
        lambda d: d["covariance"]["points"][0].update(y=d["covariance"]["points"][0]["y"] + 1e-6),
    ],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_accepts_the_program_and_rejects_perturbed_results(workload, tmp_path):
    check, outputs = _program_outputs(workload, tmp_path)
    for label, data in outputs.items():
        assert check.check(label, data) == [], label
        if label == "sweep":
            rows = data.decode().splitlines()
            cells = rows[1].split(",")
            cells[3] = repr(float(cells[3]) * (1 + 1e-6))
            bad = "\n".join([rows[0], ",".join(cells)] + rows[2:]).encode()
            assert check.check(label, bad)
            assert check.check(label, data.replace(b"l2", b"l1"))
            continue
        for edit in PERTURBATIONS[label]:
            assert check.check(label, _perturb_json(data, edit)), (label, edit)
        assert check.check(label, b"{not json")


def test_sums_of_squares_identity_matches_brute_force():
    x = 1e4 + np.random.default_rng(0).standard_normal((5, 3, 4))
    flat = x.reshape(15, 4)
    d2 = ((flat[:, None, :] - flat[None, :, :]) ** 2).sum(-1)
    ind = np.repeat(np.arange(5), 3)
    upper = np.triu_indices(15, 1)
    same = ind[upper[0]] == ind[upper[1]]
    want = 1 - d2[upper][same].mean() / d2[upper][~same].mean()
    assert abs(oracle.dbicc_sums_of_squares(x)[0] - want) < 1e-9


def test_spans_nest_and_self_times_add_up(tmp_path):
    import dbicc.cli

    prepared = prepare("sb_sim", tmp_path, 5, TINY["sb_sim"])
    tracer = spans.Tracer()
    for op, memory in ((1, False), (2, True)):
        tracer.install(memory=memory)
        tracer.op = op
        (_label, argv, _out), = prepared.calls
        argv = [a if a != "sb.json" else str(tmp_path / "sb.json") for a in argv]
        assert tracer.span("bench.op", "bench.op", dbicc.cli.main, argv) == 0
        tracer.uninstall()
    recs = tracer.spans
    own, problems = spans.self_times(recs)
    assert problems == []
    assert {r[spans.ROLE] for r in recs} >= {"cli.main", "simulation.run",
                                             "core.kernel", "spearman_brown.fit"}
    for r, t in zip(recs, own):
        assert t >= 0.0
        if r[spans.PARENT] is not None:
            parent = recs[r[spans.PARENT]]
            assert parent[spans.START] <= r[spans.START] <= r[spans.END] <= parent[spans.END]
    metrics, problems = spans.run_metrics(recs, 0, {2})
    assert problems == []
    assert metrics["simulation.mc_runs"] == TINY["sb_sim"]["runs"]
    assert metrics["estimator.point_peak_alloc_mb"] > 0
    # a child that escapes its parent is reported
    recs[1][spans.END] = recs[recs[1][spans.PARENT]][spans.END] + 1.0
    assert spans.self_times(recs)[1]


def test_same_seed_gives_same_input_hashes(tmp_path):
    def hashes(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        p = prepare("scan_cli", d, seed, TINY["scan_cli"])
        return {f: run.sha256_of(d / f) for f in p.inputs}

    first = hashes(7, "a")
    assert first == hashes(7, "b")
    assert first != hashes(8, "c")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "sb_sim",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
