"""Critical-path attribution: conservation, taxonomy, reconciliation."""

import pytest

from repro.bench.runner import run_workload
from repro.bench.tracecmd import TRACE_WORKLOADS
from repro.bench.workloads import Block3DWorkload
from repro.faults import FaultConfig, severity_config
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.errors import RetriesExhausted
from repro.simulation import Environment
from repro.simulation.costs import CostModel
from repro.trace import TraceRecorder
from repro.trace.critical import (
    RESOURCE_ORDER,
    classify_span,
    critical_path,
    reconcile_blame,
)

TOL = 1e-9


class _Env:
    now = 0.0


def _recorder() -> TraceRecorder:
    return TraceRecorder(_Env())


def _traced(workload="tile", method="datatype_io", **cfg_kw):
    cfg = PVFSConfig(trace=True, **cfg_kw)
    result = run_workload(
        TRACE_WORKLOADS[workload](), method, phantom=True, config=cfg
    )
    assert result.supported
    return result, cfg


# ----------------------------------------------------------------------
# hand-built span trees: the walk's mechanics
# ----------------------------------------------------------------------
class TestWalk:
    def test_single_root_is_all_self_time(self):
        rec = _recorder()
        rec.add("pvfs.read", "client", "c0", 0.0, 2.0, trace_id=1)
        report = critical_path(rec)
        assert report.total == 2.0
        assert report.seconds["client_cpu"] == 2.0
        assert sum(report.shares().values()) == pytest.approx(1.0, abs=TOL)

    def test_child_carves_parent_self_time(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "rpc", "client", "c0", 2.0, 7.0, trace_id=1, parent=root
        )
        report = critical_path(rec)
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.total == 10.0

    def test_backward_walk_picks_latest_determining_child(self):
        # the later-ending child owns the path back to its start; the
        # earlier child overlaps the already-attributed chain (its end
        # is after the cursor) so it is skipped, not double-counted
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add("rpc", "client", "c0", 0.0, 6.0, trace_id=1, parent=root)
        rec.add("rpc", "client", "c0", 4.0, 9.0, trace_id=1, parent=root)
        report = critical_path(rec)
        # [9,10] root self, [4,9] child2, [0,4] root self again
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.total == 10.0

    def test_segments_partition_the_root_interval(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 8.0, trace_id=1)
        mid = rec.add(
            "rpc", "client", "c0", 1.0, 7.0, trace_id=1, parent=root
        )
        rec.add(
            "server.request", "server", "iod0", 2.0, 6.0,
            trace_id=1, parent=mid,
        )
        report = critical_path(rec)
        segs = report.trace_segments(1)
        assert segs[0].start == 0.0
        assert segs[-1].end == 8.0
        for a, b in zip(segs[:-1], segs[1:]):
            assert a.end == pytest.approx(b.start, abs=TOL)

    def test_queue_wait_synthesized_from_attrs(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "server.request", "server", "iod0", 4.0, 9.0,
            trace_id=1, parent=root, queue_wait=3.0,
        )
        report = critical_path(rec)
        assert report.seconds["queue_wait"] == pytest.approx(3.0, abs=TOL)
        assert report.seconds["server_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["client_cpu"] == pytest.approx(2.0, abs=TOL)

    def test_net_xfer_splits_queue_from_wire(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "net.xfer", "net", "net", 0.0, 10.0,
            trace_id=1, parent=root, nbytes=50, src="cn0", dst="ios1",
        )
        report = critical_path(rec, nic_bandwidth=10.0)
        # wire time = 50/10 = 5 s, the tail of the span
        assert report.seconds["net_wire"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["net_queue"] == pytest.approx(5.0, abs=TOL)

    def test_fault_stall_carved_out_of_storage(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        req = rec.add(
            "server.request", "server", "iod0", 0.0, 10.0,
            trace_id=1, parent=root,
        )
        rec.add(
            "server.storage", "server", "iod0", 2.0, 9.0,
            trace_id=1, parent=req,
        )
        # recorded as a sibling of storage (both parent = request), but
        # contained in the storage interval → re-parented underneath
        rec.add(
            "fault.disk.stall", "fault", "iod0", 6.0, 9.0,
            trace_id=1, parent=req,
        )
        report = critical_path(rec)
        assert report.seconds["fault_stall"] == pytest.approx(3.0, abs=TOL)
        assert report.seconds["disk"] == pytest.approx(4.0, abs=TOL)

    def test_out_of_range_child_is_ignored(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 5.0, trace_id=1)
        # ends before the root starts: off the critical path entirely
        rec.add(
            "rpc", "client", "c0", -2.0, -1.0, trace_id=1, parent=root
        )
        report = critical_path(rec)
        assert report.total == 5.0
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == 0.0

    def test_conservation_violation_raises(self):
        rec = _recorder()
        # a negative-duration root cannot be partitioned: the walk
        # emits nothing but the trace total is negative
        rec.add("pvfs.read", "client", "c0", 5.0, 0.0, trace_id=1)
        with pytest.raises(ValueError, match="residual"):
            critical_path(rec)

    def test_open_spans_are_skipped(self):
        rec = _recorder()
        rec.begin("pvfs.read", "client", "c0", trace_id=1)
        rec.add("pvfs.write", "client", "c0", 0.0, 1.0, trace_id=2)
        report = critical_path(rec)
        assert report.traces == 1
        assert report.total == 1.0

    def test_backoff_carved_from_the_recorded_sleep(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "rpc", "client", "c0", 1.0, 9.0, trace_id=1, parent=root,
            timeouts=5, retries=3, backoff_s=2.5,
        )
        report = critical_path(rec)
        # only the seconds the ladder recorded, whatever the counters say
        assert report.seconds["retry_backoff"] == pytest.approx(2.5, abs=TOL)
        assert report.seconds["rpc_wait"] == pytest.approx(5.5, abs=TOL)

    def test_backoff_carve_capped_by_rpc_self_time(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "rpc", "client", "c0", 1.0, 3.0, trace_id=1, parent=root,
            backoff_s=7.0,
        )
        report = critical_path(rec)
        assert report.seconds["retry_backoff"] == pytest.approx(2.0, abs=TOL)
        assert report.seconds["rpc_wait"] == 0.0
        assert report.total == 10.0

    def test_classify_covers_taxonomy(self):
        assert classify_span("mpiio.read") == "client_cpu"
        assert classify_span("pvfs.write") == "client_cpu"
        assert classify_span("rpc") == "rpc_wait"
        assert classify_span("server.storage") == "disk"
        assert classify_span("server.scatter") == "respond"
        assert classify_span("fault.disk.slow") == "fault_stall"
        assert classify_span("mystery") == "other"
        for r in ("client_cpu", "disk", "fault_stall", "other"):
            assert r in RESOURCE_ORDER


# ----------------------------------------------------------------------
# real traced runs: conservation + reconciliation per cell
# ----------------------------------------------------------------------
MATRIX = [
    ("tile", "list_io", 1),
    ("tile", "datatype_io", 4),
    ("block3d-read", "datatype_io", 1),
    ("block3d-read", "two_phase", 4),
    ("block3d-read", "collective_dtype", 1),
    ("flash", "collective_dtype", 4),
]


class TestRealRuns:
    @pytest.mark.parametrize("workload,method,threads", MATRIX)
    def test_blame_reconciles(self, workload, method, threads):
        result, cfg = _traced(workload, method, server_threads=threads)
        costs = CostModel()
        problems = reconcile_blame(
            result.tracer,
            result.pipeline.total,
            result.network,
            nic_bandwidth=costs.nic_bandwidth,
            loose_nodes=(f"ios{cfg.metadata_server}",),
        )
        assert problems == []
        report = critical_path(
            result.tracer, nic_bandwidth=costs.nic_bandwidth
        )
        assert sum(report.shares().values()) == pytest.approx(1.0, abs=TOL)
        assert max(report.residuals.values()) <= TOL

    def test_faulted_run_reconciles_and_attributes_stalls(self):
        result, cfg = _traced(
            "block3d-read", "datatype_io", faults=severity_config("heavy")
        )
        costs = CostModel()
        problems = reconcile_blame(
            result.tracer,
            result.pipeline.total,
            result.network,
            nic_bandwidth=costs.nic_bandwidth,
            loose_nodes=(f"ios{cfg.metadata_server}",),
        )
        assert problems == []
        report = critical_path(
            result.tracer, nic_bandwidth=costs.nic_bandwidth
        )
        assert result.faults is not None and result.faults.armed
        assert report.seconds["fault_stall"] > 0

    def test_attribution_does_not_mutate_the_recorder(self):
        result, cfg = _traced("tile", "datatype_io")
        rec = result.tracer
        before = [
            (s.name, s.start, s.end, s.parent_id, dict(s.attrs))
            for s in rec.spans
        ]
        costs = CostModel()
        first = critical_path(rec, nic_bandwidth=costs.nic_bandwidth)
        second = critical_path(rec, nic_bandwidth=costs.nic_bandwidth)
        after = [
            (s.name, s.start, s.end, s.parent_id, dict(s.attrs))
            for s in rec.spans
        ]
        assert before == after
        assert first.seconds == second.seconds
        assert first.total == second.total

    def test_reconcile_catches_a_cooked_stage(self):
        result, _cfg = _traced("tile", "datatype_io")

        class Cooked:
            decode = result.pipeline.total.decode + 1.0
            plan = result.pipeline.total.plan
            cache = result.pipeline.total.cache
            storage = result.pipeline.total.storage
            respond = result.pipeline.total.respond

        problems = reconcile_blame(result.tracer, Cooked())
        assert any("decode" in p for p in problems)


# ----------------------------------------------------------------------
# backoff blame: the seconds the client's retry ladder really slept
# ----------------------------------------------------------------------
def _ladder_sleep(retry_backoff, rungs):
    """Timeout backoff slept over ``rungs`` resends: 1, 2, 4, … units."""
    return sum(retry_backoff * 2 ** (a - 1) for a in range(1, rungs + 1))


class TestBackoffBlame:
    def test_reelected_run_blames_the_slept_backoff(self):
        # the re-election config of the collective chaos suite: one
        # span is re-elected after 2 timeouts (it slept one backoff,
        # 0.1 ms), another is answered after 3 (0.1 + 0.2 + 0.4 ms)
        faults = FaultConfig(
            seed=7,
            server_crashes=((0, 0.0, 0.03),),
            rpc_timeout=2e-3,
            retry_backoff=1e-4,
            coll_reelect_after=2,
        )
        result, _cfg = _traced(
            "flash", "collective_dtype", metrics=True, faults=faults
        )
        slept = 0.0
        for span in result.tracer.spans:
            if span.name != "rpc" or not span.attrs.get("timeouts"):
                continue
            rungs = span.attrs["timeouts"]
            if span.attrs.get("reelected"):
                rungs -= 1  # handed off at the timeout, no backoff after
            want = _ladder_sleep(faults.retry_backoff, rungs)
            assert span.attrs["backoff_s"] == pytest.approx(want, abs=TOL)
            slept += span.attrs["backoff_s"]
        assert slept == pytest.approx(0.8e-3, abs=TOL)
        report = critical_path(
            result.tracer, nic_bandwidth=CostModel().nic_bandwidth
        )
        assert report.seconds["retry_backoff"] == pytest.approx(
            0.8e-3, abs=TOL
        )

    def test_exhausted_rpc_carries_its_backoff(self):
        faults = FaultConfig(
            seed=1,
            server_crashes=((0, 0.0, 100.0),),
            rpc_timeout=1e-3,
            retry_backoff=1e-4,
            max_retries=3,
        )
        env = Environment()
        fs = PVFS(env, config=PVFSConfig(trace=True, faults=faults))
        raised = []

        def job(c):
            fh = yield from c.open("/dead")
            try:
                yield from c.write(fh, 0, nbytes=100)
            except RetriesExhausted as exc:
                raised.append(exc)

        env.process(job(fs.client("cl0")))
        env.run()
        assert raised
        (rpc,) = [s for s in fs.tracer.spans if s.name == "rpc"]
        assert rpc.attrs["error"].startswith("server iod0 unresponsive")
        # every timeout but the last one backed off before its resend
        want = _ladder_sleep(faults.retry_backoff, faults.max_retries)
        assert rpc.attrs["backoff_s"] == pytest.approx(want, abs=TOL)
        report = critical_path([rpc])
        assert report.seconds["retry_backoff"] == pytest.approx(want, abs=TOL)

    def test_rejections_record_their_backoff(self):
        cfg = PVFSConfig(
            trace=True, n_servers=4, server_threads=2, server_queue_depth=2
        )
        result = run_workload(
            Block3DWorkload.reduced(2), "list_io", phantom=True, config=cfg
        )
        rejected = [
            s for s in result.tracer.spans
            if s.name == "rpc" and s.attrs.get("retries")
        ]
        assert rejected
        for span in rejected:
            want = span.attrs["retries"] * cfg.server_retry_backoff
            assert span.attrs["backoff_s"] == pytest.approx(want, abs=TOL)
