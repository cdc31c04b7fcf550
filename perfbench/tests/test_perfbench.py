"""Tests of the benchmark itself, on the reduced geometry of each workload.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.runner import run_workload  # noqa: E402
from repro.simulation.engine import Environment, Timeout  # noqa: E402
from repro.storage.block_store import BlockStore  # noqa: E402

from perfbench import layers, session  # noqa: E402
from perfbench.cells import WORKLOADS, roundtrip, run_cell  # noqa: E402
from perfbench.measure import E2E_UNITS, LAYER_UNITS, share_err  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNARMED = [w for w, cells in WORKLOADS.items() if all(c.faults == "none" for c in cells)]
SEED = 11


@pytest.fixture(scope="module")
def traced():
    return {w: session.traced_run(w, SEED, "reduced", 0.0) for w in WORKLOADS}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_spec():
    spec = _spec()
    for group, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == units
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert unit
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_run_reports_every_e2e_metric_with_its_unit():
    result, _ = session.untraced_run("dtype_write", SEED, "reduced", 0.0, launches=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(traced):
    for workload, (result, prov) in traced.items():
        assert result["correct"], (workload, prov["problems"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS


def test_traced_run_scales_an_untraced_and_a_traced_pass(traced):
    for workload, (_, prov) in traced.items():
        assert [p["traced"] for p in prov["passes"]] == [False, True], workload
        for p in prov["passes"]:
            assert p["speed"] > 0 and 0 < p["scaled_s"], workload


@pytest.mark.parametrize("workload", UNARMED)
def test_no_timers_or_faults_on_unarmed_workloads(traced, workload):
    metrics = traced[workload][0]["metrics"]
    assert metrics["engine.timers_cancelled"]["value"] == 0
    for name, m in metrics.items():
        if name.startswith("faults."):
            assert m["value"] == 0, name


def test_armed_workload_cancels_rpc_guard_timers(traced):
    metrics = traced["faulted_write"][0]["metrics"]
    assert metrics["engine.timers_cancelled"]["value"] > 0


def test_layer_self_times_fit_in_the_traced_wall(traced):
    for workload, (result, prov) in traced.items():
        metrics = result["metrics"]
        total = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
        assert total <= prov["traced_wall_s"], workload
        assert metrics["engine.self_s"]["value"] >= 0


def test_every_entry_point_is_exercised_by_some_workload():
    names = {w for _, _, _, where in layers.ENTRY_POINTS for w in where}
    assert names <= set(WORKLOADS)
    assert all(where for _, _, _, where in layers.ENTRY_POINTS)


def test_uninstall_restores_the_originals():
    before = (Environment.run, Timeout.cancel)
    layers.install()
    try:
        assert Environment.run is not before[0]
    finally:
        layers.uninstall()
    assert (Environment.run, Timeout.cancel) == before


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_simulated_metrics_replay_exactly(workload):
    sim = ("sim_mibps", "sim_share_skew", "completed_frac")
    runs = [
        session.untraced_run(workload, SEED, "reduced", 0.0, launches=1)[0][
            "metrics"
        ]
        for _ in range(2)
    ]
    assert [runs[0][k] for k in sim] == [runs[1][k] for k in sim]


@pytest.mark.parametrize(
    "cell", [c for cells in WORKLOADS.values() for c in cells], ids=lambda c: c.label
)
def test_cell_driver_matches_the_repository_runner(cell):
    res = run_cell(cell, "reduced", SEED)
    wl = cell.workload("reduced")
    ref = run_workload(
        wl,
        cell.method,
        config=cell.config("reduced", SEED),
        tenant_of=wl.tenant_of if cell.weights else None,
    )
    assert res.completed
    assert res.elapsed == ref.elapsed
    assert res.server == ref.server_stats


@pytest.mark.parametrize("workload", ["indep_read", "dtype_write"])
def test_roundtrip_catches_corrupted_bytes(monkeypatch, workload):
    cell = WORKLOADS[workload][-1]
    assert roundtrip(cell, SEED) > 0
    real = BlockStore.read_regions
    monkeypatch.setattr(
        BlockStore, "read_regions", lambda self, h, r: real(self, h, r) ^ 1
    )
    with pytest.raises(AssertionError):
        roundtrip(cell, SEED)


def test_tenant_share_error_is_measured_and_zero_for_one_tenant():
    tenants = run_cell(WORKLOADS["tenant_read"][0], "reduced", SEED)
    single = run_cell(WORKLOADS["indep_read"][0], "reduced", SEED)
    assert share_err([tenants]) > 0
    assert share_err([single]) == 0


def test_cli_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "indep_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
