"""The list/contig access planner against a per-operation reference.

``PVFSClient._simple_ops`` stripes a whole ``read_list``/``write_list``
call with one ``Distribution.split`` and cuts each (group, server)
request out of that server's share.  The reference below plans per
operation instead: ``build_jobs`` for every operation, consecutive
operations grouped while their server sets are equal (only with
``sim_batching``), and each group's jobs merged per server in
operation order.  Both must ship exactly the same requests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pvfs import PVFS, build_jobs
from repro.pvfs.client import PVFSClient
from repro.pvfs.distribution import Distribution
from repro.pvfs.protocol import OP_LIST
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import list_io_ops


def reference_requests(ops, dist, batching):
    """Per-op ``build_jobs`` plus consecutive-signature grouping:
    ``(server, regions, stream_pos, op_count, listio_pairs)`` in
    shipping order."""
    groups = []  # [signature, [(op, jobs), ...]]
    for op in ops:
        jobs = build_jobs("ref", 0, False, op, dist)
        sig = tuple(sorted(jobs))
        if batching and groups and groups[-1][0] == sig:
            groups[-1][1].append((op, jobs))
        else:
            groups.append([sig, [(op, jobs)]])
    out = []
    cursor = 0
    for sig, members in groups:
        for server in sig:
            regs, spos, base = [], [], cursor
            for op, jobs in members:
                regs.append(jobs[server].accesses)
                spos.append(jobs[server].stream_pos + base)
                base += op.total_bytes
            merged = Regions.concat(regs)
            out.append(
                (server, merged, np.concatenate(spos), len(members),
                 merged.count)
            )
        cursor += sum(op.total_bytes for op, _ in members)
    return out


def shipped_requests(ops, n_servers, strip, batching, write):
    """Run one list I/O call; return the list requests the client
    shipped, in the reference's tuple form, and the file's striping."""
    sent, spos_of = [], {}
    send_io, io_round = PVFSClient._send_io, PVFSClient._io_round

    def spy_send(self, req):
        sent.append(req)
        return (yield from send_io(self, req))

    def spy_round(self, requests, span=None):
        for req, spos, _ in requests:
            spos_of[req.req_id] = spos
        return (yield from io_round(self, requests, span))

    fs = PVFS(
        Environment(), n_servers=n_servers, strip_size=strip,
        sim_batching=batching,
    )
    total = sum(op.total_bytes for op in ops)
    data = np.arange(total, dtype=np.int64).astype(np.uint8)

    def main(c):
        fh = yield from c.open("/f")
        if write:
            yield from c.write_list(fh, ops, data)
        else:
            yield from c.read_list(fh, ops, phantom=True)
        return fh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PVFSClient, "_send_io", spy_send)
        mp.setattr(PVFSClient, "_io_round", spy_round)
        fh = fs.env.run(fs.env.process(main(fs.client("cl0"))))
    got = [
        (r.server, r.regions, spos_of[r.req_id], r.op_count, r.listio_pairs)
        for r in sent
        if r.op_kind == OP_LIST
    ]
    for r in sent:
        assert r.is_write == write
        if write:
            sp = spos_of[r.req_id]
            expect = Regions(sp, r.regions.lengths, _trusted=True).gather(data)
            assert np.array_equal(r.payload, expect)
    return got, fh.dist


@st.composite
def planner_cases(draw):
    n_servers = draw(st.integers(1, 8))
    strip = draw(st.sampled_from([8, 16, 32]))
    pairs = draw(list_io_ops(strip_size=strip, n_servers=n_servers))
    return n_servers, strip, pairs


class TestPlannerOracle:
    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize("batching", [False, True], ids=["off", "on"])
    @given(case=planner_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_op_reference(self, batching, write, case):
        n_servers, strip, pairs = case
        ops = [Regions.from_pairs(p) for p in pairs]
        got, dist = shipped_requests(ops, n_servers, strip, batching, write)
        want = reference_requests(ops, dist, batching)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0]
            assert g[1] == w[1]
            assert np.array_equal(g[2], w[2])
            assert g[3:] == w[3:]

    def test_equal_server_sets_collapse(self):
        """Three ops on servers {0, 1}, an empty op, then one on {2}:
        batching ships the first three as one request per server."""
        ops = [
            Regions.from_pairs([(0, 20)]),
            Regions.from_pairs([(64, 4), (80, 8)]),
            Regions.from_pairs([(130, 10), (150, 2)]),
            Regions.empty(),
            Regions.from_pairs([(32, 16)]),
        ]
        got, _ = shipped_requests(ops, 4, 16, True, True)
        assert [(g[0], g[3], g[4]) for g in got] == [
            (0, 3, 3), (1, 3, 3), (2, 1, 1),
        ]
        got, _ = shipped_requests(ops, 4, 16, False, True)
        assert [g[0] for g in got] == [0, 1, 0, 1, 0, 1, 2]


class TestOneSplitPerCall:
    """A list I/O call stripes its whole access once, whatever the
    number of operations it carries."""

    @pytest.mark.parametrize("n_ops", [1, 7, 40])
    @pytest.mark.parametrize("batching", [False, True], ids=["off", "on"])
    def test_split_called_once(self, monkeypatch, n_ops, batching):
        calls = []
        split = Distribution.split

        def counting_split(self, regions):
            calls.append(regions.count)
            return split(self, regions)

        monkeypatch.setattr(Distribution, "split", counting_split)
        fs = PVFS(Environment(), n_servers=4, strip_size=16,
                  sim_batching=batching)
        ops = [
            Regions.from_pairs([(100 * i + 3 * j, 2) for j in range(5)])
            for i in range(n_ops)
        ]
        data = np.ones(sum(op.total_bytes for op in ops), np.uint8)
        seen = []

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_list(fh, ops, data)
            seen.append(len(calls))
            out = yield from c.read_list(fh, ops)
            seen.append(len(calls))
            return out

        out = fs.env.run(fs.env.process(main(fs.client("cl0"))))
        assert np.array_equal(out, data)
        assert seen == [1, 2]
        assert calls == [5 * n_ops, 5 * n_ops]
