"""Metrics of the benchmark, computed from cell results and spans.

End-to-end metrics come from untraced passes; per-layer metrics from
one traced pass plus the simulated summaries every cell carries
(``StageTimes``, ``NetworkSummary``, admission reports, fault summary).
"""

from __future__ import annotations

import os
import pathlib
import platform
import statistics
import subprocess
from typing import Optional, Sequence

import numpy as np

from repro.metrics import jain_index

from .cells import MIB, CellResult
from .layers import LAYERS

__all__ = [
    "E2E_UNITS",
    "LAYER_UNITS",
    "check_pass",
    "e2e_metrics",
    "git_describe",
    "layer_metrics",
    "provenance",
    "share_err",
]

#: end-to-end metric -> unit
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_mibps": "MiB/s",
    "sim_share_skew": "ratio",
    "completed_frac": "ratio",
}

#: per-layer metric -> unit (the order is the report order)
LAYER_UNITS = {
    "engine.events": "count",
    "engine.events_per_request": "ratio",
    "engine.events_per_s": "1/s",
    "engine.self_s": "s",
    "engine.timers_cancelled": "count",
    "network.messages": "count",
    "network.bytes": "B",
    "network.self_s": "s",
    "network.sim_tx_util_max": "ratio",
    "client.calls": "count",
    "client.self_s": "s",
    "pipeline.requests": "count",
    "pipeline.rejected": "count",
    "pipeline.self_s": "s",
    "pipeline.sim_decode_s": "s",
    "pipeline.sim_plan_s": "s",
    "pipeline.sim_cache_s": "s",
    "pipeline.sim_storage_s": "s",
    "pipeline.sim_respond_s": "s",
    "pipeline.sim_peak_queue": "count",
    "admission.self_s": "s",
    "admission.sim_max_wait_s": "s",
    "admission.jain_weighted": "ratio",
    "expand_cache.hit_rate": "ratio",
    "expand_cache.self_s": "s",
    "expand_cache.regions_held": "count",
    "distribution.split_calls": "count",
    "distribution.self_s": "s",
    "mpiio.self_s": "s",
    "mpiio.io_ops": "count",
    "mpiio.io_ops_paper_ratio": "ratio",
    "mpiio.request_desc_bytes": "B",
    "mpiio.resent_bytes": "B",
    "mpiio.accessed_over_desired": "ratio",
    "dataloops.build_calls": "count",
    "dataloops.self_s": "s",
    "datatypes.flatten_calls": "count",
    "datatypes.self_s": "s",
    "regions.calls": "count",
    "regions.self_s": "s",
    "storage.self_s": "s",
    "storage.sim_seeks": "count",
    "storage.sim_bytes": "B",
    "faults.injected": "count",
    "faults.timeouts": "count",
    "faults.coll_resends": "count",
    "faults.coll_reelections": "count",
    "faults.exhausted": "count",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# simulated aggregates
# ----------------------------------------------------------------------
def sim_mibps(cells: Sequence[CellResult]) -> float:
    """Desired bytes over simulated I/O-phase seconds, summed over cells;
    a failed cell adds nothing.  (Per-cell rates are summed rather than
    pooling seconds: a failed cell's time-to-error is set by the fault
    schedule and would otherwise swing the figure with the seed.)"""
    return sum(
        c.desired_total / MIB / c.elapsed for c in cells if c.completed and c.elapsed > 0
    )


def share_err(cells: Sequence[CellResult]) -> float:
    """Worst relative deviation of a tenant's throughput share from its
    weight share, over every multi-tenant cell (0: exact shares)."""
    worst = 0.0
    for c in cells:
        if len(c.tenants) < 2:
            continue
        rates = {t: b / m for t, (_, b, m) in c.tenants.items()}
        wsum = sum(w for w, _, _ in c.tenants.values())
        rsum = sum(rates.values())
        for t, (w, _, _) in c.tenants.items():
            worst = max(worst, abs((rates[t] / rsum) / (w / wsum) - 1.0))
    return worst


def _weighted_jain(cells: Sequence[CellResult]) -> float:
    values = [
        b / m / w
        for c in cells
        for (w, b, m) in c.tenants.values()
    ]
    return jain_index(values) if values else 1.0


def check_pass(cells: Sequence[CellResult]) -> list[str]:
    """Correctness of one paper-scale pass (empty list: correct).

    Every completed cell's servers must move the workload's desired
    bytes.  Fault-free cells must move exactly that many; with a fault
    injector armed, an independent request that timed out is resent
    and, being idempotent, may execute twice, so the servers must move
    at least the desired bytes (the excess is reported, not hidden).
    """
    problems = []
    for c in cells:
        if not c.completed:
            continue
        key = "written" if c.is_write else "read"
        armed = bool(c.faults)
        if c.moved_bytes < c.desired_total or (
            not armed and c.moved_bytes != c.desired_total
        ):
            problems.append(
                f"{c.label}: servers {key} {c.moved_bytes} bytes, "
                f"workload asks for {c.desired_total}"
            )
    return problems


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def e2e_metrics(
    passes: Sequence[Sequence[CellResult]],
    scaled_walls: Sequence[float],
    setup_s: float,
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of a run of untraced passes; host times
    are at the reference speed (:mod:`perfbench.calibrate`)."""
    cells = passes[0]
    return {
        "wall_s": statistics.median(scaled_walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_mibps": sim_mibps(cells),
        "sim_share_skew": 1.0 + share_err(cells),
        "completed_frac": sum(c.completed for c in cells) / len(cells),
    }


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def layer_metrics(
    cells: Sequence[CellResult],
    table: dict[str, dict],
    traced_s: float,
    untraced_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``table`` is :meth:`SpanRecorder.table` restricted to the pass's
    cells; ``traced_s``/``untraced_s`` are the median walls of the
    run's traced and untraced passes at the reference speed.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for row in table.values():
        self_s[row["layer"]] += row["self_s"]
        layer_calls[row["layer"]] += row["calls"]

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    def stage(key: str):
        return sum(c.stages.get(key, 0) for c in cells)

    def fault(key: str) -> int:
        return sum(c.faults.get(key, 0) for c in cells)

    events = sum(c.events for c in cells)
    requests = sum(c.server.get("requests", 0) for c in cells)
    hits = sum(c.cache_hits for c in cells)
    lookups = hits + sum(c.cache_misses for c in cells)
    paper = [c.io_ops / c.paper_ops for c in cells if c.paper_ops]
    done = [c for c in cells if c.completed]
    desired = sum(c.desired_total for c in done)
    accessed = sum(c.accessed_bytes * c.n_clients for c in done)
    waits = [row["max_wait_s"] for c in cells for row in c.admission]
    out = {
        "engine.events": events,
        "engine.events_per_request": events / requests if requests else 0.0,
        "engine.events_per_s": events / untraced_s,
        "engine.self_s": self_s["engine"],
        "engine.timers_cancelled": calls("Timeout.cancel"),
        "network.messages": sum(c.net_messages for c in cells),
        "network.bytes": sum(c.net_bytes for c in cells),
        "network.self_s": self_s["network"],
        "network.sim_tx_util_max": max(c.net_tx_util_max for c in cells),
        "client.calls": layer_calls["client"],
        "client.self_s": self_s["client"],
        "pipeline.requests": stage("requests"),
        "pipeline.rejected": stage("rejected"),
        "pipeline.self_s": self_s["pipeline"],
        "pipeline.sim_decode_s": stage("decode_s"),
        "pipeline.sim_plan_s": stage("plan_s"),
        "pipeline.sim_cache_s": stage("cache_s"),
        "pipeline.sim_storage_s": stage("storage_s"),
        "pipeline.sim_respond_s": stage("respond_s"),
        "pipeline.sim_peak_queue": max(c.stages.get("peak_queue", 0) for c in cells),
        "admission.self_s": self_s["admission"],
        "admission.sim_max_wait_s": max(waits, default=0.0),
        "admission.jain_weighted": _weighted_jain(cells),
        "expand_cache.hit_rate": hits / lookups if lookups else 0.0,
        "expand_cache.self_s": self_s["expand_cache"],
        "expand_cache.regions_held": sum(c.cache_regions_held for c in cells),
        "distribution.split_calls": calls("Distribution.split"),
        "distribution.self_s": self_s["distribution"],
        "mpiio.self_s": self_s["mpiio"],
        "mpiio.io_ops": sum(c.io_ops for c in cells),
        "mpiio.io_ops_paper_ratio": statistics.fmean(paper) if paper else 0.0,
        "mpiio.request_desc_bytes": sum(c.request_desc_bytes for c in cells),
        "mpiio.resent_bytes": sum(c.resent_bytes for c in cells),
        "mpiio.accessed_over_desired": accessed / desired if desired else 0.0,
        "dataloops.build_calls": calls("build_dataloop"),
        "dataloops.self_s": self_s["dataloops"],
        "datatypes.flatten_calls": calls("Datatype.flatten"),
        "datatypes.self_s": self_s["datatypes"],
        "regions.calls": layer_calls["regions"],
        "regions.self_s": self_s["regions"],
        "storage.self_s": self_s["storage"],
        "storage.sim_seeks": sum(c.server.get("disk_seeks", 0) for c in cells),
        "storage.sim_bytes": sum(
            c.server.get("bytes_read", 0) + c.server.get("bytes_written", 0)
            for c in cells
        ),
        "faults.injected": sum(
            fault(k)
            for k in ("drops", "dups", "disk_slowdowns", "disk_stalls", "crash_drops")
        ),
        "faults.timeouts": fault("timeouts"),
        "faults.coll_resends": fault("coll_resends"),
        "faults.coll_reelections": fault("coll_reelections"),
        "faults.exhausted": fault("exhausted"),
        "trace.overhead_s": traced_s - untraced_s,
    }
    assert list(out) == list(LAYER_UNITS)
    return out


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_describe(root) -> Optional[str]:
    """``git describe`` of the checkout at ``root``; ``None`` outside git."""
    # the ceiling keeps git from describing an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(pathlib.Path(root).parent)}
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, cells, faults) -> dict:
    """How the run was produced: inputs, versions and per-cell events."""
    return {
        "workload": workload,
        "seed": seed,
        "fault_presets": sorted(set(faults)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": {
            c.label: {
                "completed": c.completed,
                "error": c.error,
                "events": c.events,
                "server_requests": c.server.get("requests", 0),
                "sim_elapsed_s": c.elapsed,
                "desired_bytes": c.desired_total,
                "server_moved_bytes": c.moved_bytes,
            }
            for c in cells
        },
    }
