"""Golden identity of the server pipeline and the client RPC paths.

Every simulated observable of a small traced + metered run — elapsed
time, event count, counters, StageTimes, network totals, per-name span
counts and seconds, every metric instrument, per-client counters and
the fault summary — is checked for exact float equality against a JSON
capture.  The matrix is the shared ``method_scheduler`` fixture (six
methods × serial/threaded schedulers) × a fault-free, a ``light`` and a
``heavy`` fault schedule × a read and a write workload, plus a few
cells that reach the paths the matrix misses: admission-control
rejections (a shallow server queue) and collective aggregator
re-election.

It is the only exact check across commits for the threaded scheduler
and for the armed retry ladders, so it stays in the fast lane.  The
golden was captured from the implementation at commit 3bcf659 and is
never re-captured: a diff here means a refactor moved the simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.bench.runner import run_workload
from repro.bench.tracecmd import TRACE_WORKLOADS
from repro.bench.workloads import Block3DWorkload
from repro.faults import FaultConfig, severity_config
from repro.mpiio import Hints
from repro.pvfs import PVFSConfig

GOLDEN = Path(__file__).with_name("golden_identity.json")

#: Commit the golden was captured at (see module docstring).
GOLDEN_COMMIT = "3bcf659"

FAULTS = {
    "none": lambda: None,
    "light3": lambda: severity_config("light", seed=3),
    "heavy3": lambda: severity_config("heavy", seed=3),
}

#: Schedules only the extra cells use: a crash window over an
#: aggregator's server (collective re-election), a server that never
#: comes back (a spent ladder), and frequent drops.
SPECIAL_FAULTS = {
    "reelect": lambda: FaultConfig(
        seed=7,
        server_crashes=((0, 0.0, 0.03),),
        rpc_timeout=2e-3,
        retry_backoff=1e-4,
        coll_reelect_after=2,
    ),
    "dead": lambda: FaultConfig(
        seed=1,
        server_crashes=((0, 0.0, 100.0),),
        rpc_timeout=1e-3,
        max_retries=2,
    ),
    "drops": lambda: FaultConfig(seed=1, net_drop_prob=0.1, rpc_timeout=5e-3),
}

WORKLOADS = {
    "write": lambda: Block3DWorkload.reduced(2, is_write=True),
    "read": lambda: Block3DWorkload.reduced(2, is_write=False),
}

#: Many small collective rounds: an aggregator posts more composite
#: requests per server than a shallow admission queue holds.
SMALL_ROUNDS = Hints(coll_round_bytes=1024, coll_drain_bytes=1024)

#: Cells outside the method × scheduler matrix:
#: ``id -> (workload factory, method, fault schedule, snapshot kwargs)``.
EXTRA = {
    # a shallow admission queue: reject → backoff → resend, both with
    # and without an armed fault injector
    "reject-list_io-none": (
        WORKLOADS["read"], "list_io", "none",
        dict(server_threads=2, server_queue_depth=2),
    ),
    "reject-datatype_io-heavy3": (
        WORKLOADS["write"], "datatype_io", "heavy3",
        dict(server_threads=2, server_queue_depth=2),
    ),
    "reject-collective_dtype-none": (
        WORKLOADS["write"], "collective_dtype", "none",
        dict(server_threads=2, server_queue_depth=2, hints=SMALL_ROUNDS),
    ),
    "reject-collective_dtype-heavy3": (
        WORKLOADS["write"], "collective_dtype", "heavy3",
        dict(server_threads=2, server_queue_depth=2, hints=SMALL_ROUNDS),
    ),
    "reject-collective_dtype-read-heavy3": (
        WORKLOADS["read"], "collective_dtype", "heavy3",
        dict(server_threads=2, server_queue_depth=2, hints=SMALL_ROUNDS),
    ),
    # rejections and timeouts of the same composite requests
    "reject-collective_dtype-drops-read": (
        WORKLOADS["read"], "collective_dtype", "drops",
        dict(server_threads=2, server_queue_depth=2, hints=SMALL_ROUNDS),
    ),
    "reelect-serial": (
        TRACE_WORKLOADS["flash"], "collective_dtype", "reelect", {},
    ),
    "reelect-threaded": (
        TRACE_WORKLOADS["flash"], "collective_dtype", "reelect",
        dict(server_threads=4),
    ),
    "exhaust-list_io": (WORKLOADS["write"], "list_io", "dead", {}),
    "exhaust-collective_dtype": (
        WORKLOADS["write"], "collective_dtype", "dead", {},
    ),
    "exhaust-collective_dtype-read": (
        WORKLOADS["read"], "collective_dtype", "dead", {},
    ),
}


def _metrics(hub) -> dict:
    out = {}
    for name, fam in sorted(hub.registry.families.items()):
        for labels, inst in fam.children.items():
            key = name + "".join(f"|{k}={v}" for k, v in labels)
            if fam.kind in ("counter", "gauge"):
                out[key] = inst.value
            elif fam.kind == "histogram":
                out[key] = [inst.sum, inst.count, list(inst.counts)]
            else:
                out[key] = [len(inst), inst.integral()]
    return out


def _spans(tracer) -> dict:
    """``name -> [count, still-open count, summed closed seconds]``."""
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        d = by_name.setdefault(s.name, [0, []])
        if s.end is None:
            d[0] += 1
        else:
            d[1].append(s.end - s.start)
    return {
        name: [n_open + len(d), n_open, math.fsum(d)]
        for name, (n_open, d) in sorted(by_name.items())
    }


def snapshot(workload, method: str, hints=None, **cfg) -> dict:
    """Every simulated observable of one traced + metered run."""
    try:
        r = run_workload(
            workload(),
            method,
            phantom=True,
            config=PVFSConfig(n_servers=4, trace=True, metrics=True, **cfg),
            hints=hints,
        )
    except Exception as exc:  # noqa: BLE001 - a typed failure is an outcome
        return {"raised": f"{type(exc).__name__}: {exc}"}
    if not r.supported:
        return {"supported": False}
    system = r.servers[0].system
    metrics = _metrics(r.metrics)
    clients = {
        c.name: dataclasses.asdict(c.counters) for c in system.clients
    }
    totals: dict[str, int] = {}
    for counters in clients.values():
        for field, value in counters.items():
            totals[field] = totals.get(field, 0) + value
    return {
        "supported": True,
        "elapsed": r.elapsed,
        "events": system.env.scheduled_events,
        "io_ops": r.io_ops,
        "server_stats": r.server_stats,
        "pipeline": r.pipeline.total.as_dict(),
        "network": dataclasses.asdict(r.network),
        "spans": _spans(r.tracer),
        "stage_histograms": {
            key.split("=", 1)[1]: value[:2]
            for key, value in metrics.items()
            if key.startswith("repro_stage_seconds|")
        },
        "client_totals": totals,
        "faults": r.faults.summary() if r.faults is not None else None,
        # every metric instrument and every client's counters, exact
        # but kept short: a digest of their canonical JSON
        "digest": _digest({"metrics": metrics, "clients": clients}),
    }


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(doc):
    """JSON round trip: tuples become lists, keys become strings."""
    return json.loads(json.dumps(doc))


def matrix_key(method, sched, faults, workload) -> str:
    name = "threaded" if sched else "serial"
    return f"{method}-{name}-{faults}-{workload}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_matrix_matches_golden(golden, method_scheduler, faults, workload):
    method, sched = method_scheduler
    key = matrix_key(method, sched, faults, workload)
    got = snapshot(
        WORKLOADS[workload], method, faults=FAULTS[faults](), **sched
    )
    assert _canonical(got) == golden[key], key


@pytest.mark.parametrize("key", sorted(EXTRA))
def test_extra_cell_matches_golden(golden, key):
    workload, method, faults, cfg = EXTRA[key]
    got = snapshot(
        workload, method, faults={**FAULTS, **SPECIAL_FAULTS}[faults](), **cfg
    )
    assert _canonical(got) == golden[key], key


def test_extra_cells_reach_their_paths(golden):
    """The extra cells really exercise rejection and re-election."""
    for key, doc in golden.items():
        if key.startswith("reject-"):
            assert doc["pipeline"]["rejected"] > 0, key
        if key.startswith("reelect-"):
            assert doc["faults"]["coll_reelections"] >= 1, key
        if key.startswith("exhaust-"):
            assert doc["raised"].startswith("RetriesExhausted"), key
