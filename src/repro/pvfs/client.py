"""PVFS client library.

Exposes the three file-system access interfaces the paper compares:

* :meth:`PVFSClient.read` / :meth:`~PVFSClient.write` — contiguous
  (POSIX-style) access;
* :meth:`PVFSClient.read_list` / :meth:`~PVFSClient.write_list` —
  **list I/O** (§2.4): each operation carries at most
  ``list_io_max_regions`` offset–length pairs, so the number of
  file-system operations stays linear in the region count;
* :meth:`PVFSClient.read_dtype` / :meth:`~PVFSClient.write_dtype` —
  **datatype I/O** (§3): one operation ships a dataloop plus a stream
  window; servers expand it themselves.

All I/O methods are generators to be driven inside a simulation process
(``yield from client.read(...)``).  Data is real unless ``phantom`` is
requested (paper-scale timing runs account sizes without moving bytes).

Simulation batching (``PVFSConfig.sim_batching``): runs of consecutive
synchronous list/contig operations that touch an identical server set
are collapsed into one exchange whose *accounted* cost (per-op client
and server fixed costs, round-trip latencies, wire bytes) equals the
sum of the individual operations — see DESIGN.md §5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..dataloops import Dataloop, DataloopStream
from ..regions import Regions
from .collective import CollHandoff, CollRecovery, _CollWake
from .distribution import Distribution
from .errors import PVFSError, RetriesExhausted
from .jobs import Job, build_jobs
from .protocol import (
    OP_COLL,
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    CollAck,
    CollFetch,
    CollSegment,
    DataloopWindow,
    IORequest,
    IOResponse,
    MetaRequest,
    MetaResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .system import PVFS

__all__ = ["PVFSClient", "FileHandle", "ClientCounters"]

#: In-flight collective data segments per (rank, server) socket.  1 is
#: a blocking socket (NICs idle at every handoff, and one slow server
#: stalls the rank's sequential send loop); large values degenerate to
#: an unpaced blast whose wire order no longer tracks the round order
#: (an early-starting rank would park entire later rounds ahead of a
#: late rank's round 0, stalling the round pipeline).  Two keeps every
#: server's pipe full while bounding the order skew to one round.
COLL_SEND_WINDOW = 2


@dataclass
class ClientCounters:
    """Per-client accounting used by the characteristics tables."""

    io_ops: int = 0  #: file-system level operations issued
    requests_sent: int = 0  #: messages to I/O servers (incl. resends)
    request_desc_bytes: int = 0  #: request description bytes on the wire
    bytes_read: int = 0  #: file data received
    bytes_written: int = 0  #: file data sent
    regions_shipped: int = 0  #: offset-length pairs sent in list requests
    retries: int = 0  #: resends after server admission-control rejection
    timeouts: int = 0  #: RPC response timeouts (fault injection only)
    failovers: int = 0  #: requests that succeeded after >=1 timeout

    def reset(self) -> None:
        self.io_ops = 0
        self.requests_sent = 0
        self.request_desc_bytes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.regions_shipped = 0
        self.retries = 0
        self.timeouts = 0
        self.failovers = 0


@dataclass
class FileHandle:
    """Client-side file state cached at open (PVFS does the same)."""

    handle: int
    path: str
    dist: Distribution
    size: int = 0


class _TimeoutMarker:
    """Sentinel an armed RPC timer drops straight into the client
    mailbox.  Using the mailbox itself (rather than an ``AnyOf`` wait)
    keeps the timed receive path's event-hop structure identical to the
    untimed one, so arming an inert fault config cannot perturb
    timings."""

    __slots__ = ("owner", "live")

    def __init__(self, owner: int):
        self.owner = owner  #: req_id the timer belongs to
        self.live = True  #: cleared once the owning wait has resolved


class _Pending:
    """Retry-ladder state of one outstanding item: a request awaiting
    its response or, in a fault-tolerant collective, a written segment
    awaiting its ack or a read segment awaiting delivery."""

    __slots__ = (
        "item", "rpc", "t_sent", "attempts", "deadline", "backoff", "counter",
    )

    def __init__(self, item=None, rpc=None, deadline=0.0):
        self.item = item  #: what a resend ships (None: a read fetch)
        self.rpc = rpc  #: the request's rpc span, when traced
        self.t_sent = 0.0  #: first send (RPC latency metric)
        self.attempts = 0  #: consecutive timeouts so far
        self.deadline = deadline  #: absolute (collective completion)
        self.backoff = 0.0  #: seconds slept backing off (``backoff_s``)
        #: shared countdown of the re-election handoff that built it
        self.counter = None


class _OpGroup:
    """Consecutive list/contig ops collapsed into one exchange."""

    __slots__ = ("ops", "signature", "stream_base", "nbytes")

    def __init__(self, signature):
        self.signature = signature
        self.ops: list[tuple[Regions, dict[int, Job]]] = []
        self.stream_base: list[int] = []
        self.nbytes = 0

    def add(self, regions: Regions, jobs: dict[int, Job]) -> None:
        self.stream_base.append(self.nbytes)
        self.ops.append((regions, jobs))
        self.nbytes += regions.total_bytes


class PVFSClient:
    """A file-system client living on one cluster node."""

    def __init__(self, system: "PVFS", node, name: str, tenant: int = 0):
        self.system = system
        self.node = node
        self.name = name
        #: Tenant index (``PVFSConfig.tenants``); stamped on every
        #: outgoing :class:`IORequest` so server-side admission can
        #: queue it fairly.  0 — the only valid value when no tenants
        #: are configured — is the default tenant.
        self.tenant = tenant
        self.mailbox = system.net.mailbox(node, f"pvfs:{name}")
        self.counters = ClientCounters()
        self._next_req = 0
        # datatype cache (PVFSConfig.datatype_cache): converted loops,
        # expansion results, and per-server registration state
        self._converted_loops: set[int] = set()
        self._expansion_cache: dict[tuple, "Regions"] = {}
        self._server_knows_loop: set[tuple[int, int]] = set()
        # responses that arrived while another operation was waiting
        # (concurrent nonblocking operations share this mailbox)
        self._resp_stash: dict[int, object] = {}
        # collective data segments that surfaced while some other wait
        # held the mailbox, keyed (coll_id, server, round)
        self._coll_stash: dict[tuple, CollSegment] = {}
        # per-server completion times of in-flight collective segments
        # (the sliding send windows of coll_send_segment)
        self._coll_inflight: dict[int, deque[float]] = {}
        # request ids already answered — late or duplicated responses
        # (fault injection) are discarded instead of stashed
        self._done_reqs: set[int] = set()
        # collective fault tolerance (armed configs): write-round acks
        # that surfaced while another wait held the mailbox, keyed
        # (coll_id, server, round), and re-election handoffs awaiting
        # service by this rank
        self._coll_acks: set[tuple] = set()
        self._coll_handoffs: list[CollHandoff] = []

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------
    def open(self, path: str, create: bool = True):
        """Open (optionally creating) a file; returns a FileHandle."""
        resp = yield from self._meta_rpc(
            MetaRequest("open", path=path, create=create)
        )
        return FileHandle(
            handle=resp.handle,
            path=path,
            dist=Distribution(resp.n_servers, resp.strip_size),
            size=resp.size,
        )

    def stat(self, fh: FileHandle):
        """Query the current logical file size."""
        resp = yield from self._meta_rpc(
            MetaRequest("stat", handle=fh.handle)
        )
        fh.size = resp.size
        return resp.size

    def unlink(self, path: str):
        yield from self._meta_rpc(MetaRequest("unlink", path=path))

    def _meta_rpc(self, req: MetaRequest):
        env = self.system.env
        costs = self.system.costs
        req.req_id = self._req_id()
        req.reply_to = self.mailbox
        yield from self.system.net.send(
            self.mailbox,
            self.system.metadata.mailbox,
            req.wire_bytes(costs.header_bytes),
            payload=req,
        )
        resp: MetaResponse = yield from self._await_response(req.req_id)
        if resp.error:
            raise PVFSError(resp.error)
        return resp

    def _await_response(self, req_id: int, timeout: Optional[float] = None):
        """Receive the response for ``req_id``, filing other traffic.

        Multiple operations may be outstanding concurrently (nonblocking
        MPI-IO); responses are matched by request id and everything else
        goes to :meth:`_file_stray`.  With a ``timeout`` (armed fault
        injection) an RPC timer bounds the wait: it drops a
        :class:`_TimeoutMarker` into the mailbox (see that class for
        why) and the wait returns ``None`` when it surfaces; the marker
        is killed on exit so a late firing after the response arrived
        injects nothing.  Another wait's live marker surfacing here is
        held and re-queued on exit (re-queueing immediately would bounce
        it straight back to this waiter); dead ones are dropped.
        """
        env = self.system.env
        costs = self.system.costs
        marker = timer = None
        if timeout is not None:
            marker, timer = self._arm_timer(req_id, timeout)
        held: list[_TimeoutMarker] = []
        try:
            while True:
                if req_id in self._resp_stash:
                    return self._resp_stash.pop(req_id)
                msg = yield self.mailbox.get()
                if isinstance(msg, _TimeoutMarker):
                    if msg is marker:
                        return None
                    if msg.live:
                        held.append(msg)
                    continue
                if not isinstance(msg, (CollHandoff, _CollWake)):
                    yield env.timeout(costs.per_message_cpu)
                    msg = msg.payload
                    if getattr(msg, "req_id", None) == req_id:
                        return msg
                self._file_stray(msg)
        finally:
            if marker is not None:
                marker.live = False
                timer.cancel()  # the guard is moot; leave no dead entry
            self._requeue(held)

    def _arm_timer(self, owner: int, delay: float):
        """Arm a timer that drops a :class:`_TimeoutMarker` for
        ``owner`` into the mailbox after ``delay`` unless the marker
        was killed first; returns ``(marker, timer)``."""
        marker = _TimeoutMarker(owner)

        def _fire(_ev, m=marker):
            if m.live:
                self.mailbox._store.put(m)

        return marker, self.system.env.call_later(delay, _fire)

    def _requeue(self, held: list) -> None:
        """Put back the live foreign timeout markers a wait held (not
        at once: that would bounce them straight back to it)."""
        for m in held:
            if m.live:
                self.mailbox._store.put(m)

    def _file_stray(self, item, done_coll: Optional[tuple] = None) -> None:
        """File mailbox traffic that belongs to some other wait.

        Re-election handoffs queue for service and wake markers are
        dropped.  Collective segments and acks are kept for their own
        collective, except those of ``done_coll`` (a completed one).
        Responses are stashed for their waiter unless their request was
        already answered (a late or duplicated delivery).
        """
        if isinstance(item, CollHandoff):
            self._coll_handoffs.append(item)
        elif isinstance(item, (CollSegment, CollAck)):
            if item.coll_id != done_coll:
                key = (item.coll_id, item.server, item.round_no)
                if isinstance(item, CollSegment):
                    self._coll_stash[key] = item
                else:
                    self._coll_acks.add(key)
        elif not isinstance(item, _CollWake):
            rid = getattr(item, "req_id", None)
            if rid not in self._done_reqs:
                self._resp_stash[rid] = item

    # ------------------------------------------------------------------
    # contiguous (POSIX-style) access
    # ------------------------------------------------------------------
    def read(
        self, fh: FileHandle, offset: int, nbytes: int, phantom=False,
        trace=None,
    ):
        """Read one contiguous logical range; returns the byte stream."""
        stream = yield from self._simple_ops(
            fh,
            [Regions.single(offset, nbytes)],
            OP_CONTIG,
            is_write=False,
            data=None,
            phantom=phantom,
            trace=trace,
        )
        return stream

    def write(
        self, fh, offset: int, data=None, nbytes: Optional[int] = None,
        trace=None,
    ):
        """Write one contiguous range (``data=None`` for phantom writes)."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
            nbytes = data.size
        elif nbytes is None:
            raise ValueError("phantom write needs nbytes")
        yield from self._simple_ops(
            fh,
            [Regions.single(offset, nbytes)],
            OP_CONTIG,
            is_write=True,
            data=data,
            phantom=data is None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # one-operation-per-region sequences (POSIX I/O; also the list I/O
    # degenerate case of single-region operations)
    # ------------------------------------------------------------------
    def read_posix(self, fh, regions: Regions, phantom=False, trace=None):
        """Issue one synchronous contiguous read per region, in order."""
        stream = yield from self._sequence(
            fh, regions, OP_CONTIG, is_write=False, data=None,
            phantom=phantom, trace=trace,
        )
        return stream

    def write_posix(self, fh, regions: Regions, data=None, trace=None):
        """Issue one synchronous contiguous write per region, in order."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._sequence(
            fh, regions, OP_CONTIG, is_write=True, data=data,
            phantom=data is None, trace=trace,
        )

    def read_sequence(self, fh, regions, op_kind, phantom=False, trace=None):
        """One operation per region with explicit kind (list I/O fast path)."""
        stream = yield from self._sequence(
            fh, regions, op_kind, is_write=False, data=None,
            phantom=phantom, trace=trace,
        )
        return stream

    def write_sequence(self, fh, regions, op_kind, data=None, trace=None):
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._sequence(
            fh, regions, op_kind, is_write=True, data=data,
            phantom=data is None, trace=trace,
        )

    def _sequence(
        self, fh, regions: Regions, op_kind, *, is_write, data, phantom,
        trace=None,
    ):
        """Vectorized synchronous one-op-per-region sequence.

        Runs of consecutive operations whose region lies within a single
        strip of the same server collapse into one exchange (when
        ``sim_batching``); regions crossing strip boundaries fall back
        to the generic per-operation path, preserving order.
        """
        env = self.system.env
        costs = self.system.costs
        cfg = self.system.config
        n = regions.count
        if n == 0:
            return None if (is_write or phantom) else np.zeros(0, np.uint8)
        if data is not None and data.size != regions.total_bytes:
            raise ValueError("data stream does not match regions")
        op_span = None
        if self.system.tracer.enabled:
            op_span = self._open_op(
                f"pvfs.{op_kind}", trace,
                is_write=is_write, ops=n, nbytes=regions.total_bytes,
            )

        S = fh.dist.strip_size
        nserv = fh.dist.n_servers
        offs = regions.offsets
        lens = regions.lengths
        ends = np.cumsum(lens)
        starts = ends - lens
        k0 = offs // S
        k1 = (offs + lens - 1) // S
        srv = np.where(k0 == k1, k0 % nserv, -1).astype(np.int64)

        if cfg.sim_batching:
            change = np.flatnonzero(np.diff(srv) != 0) + 1
            bounds = np.concatenate(([0], change, [n]))
        else:
            bounds = np.arange(n + 1)

        out = (
            None
            if (is_write or phantom)
            else np.zeros(regions.total_bytes, dtype=np.uint8)
        )
        self.counters.io_ops += n
        handled_generic = 0  # bytes counted by _simple_ops fallbacks

        for a, b in zip(bounds[:-1], bounds[1:]):
            a, b = int(a), int(b)
            if srv[a] == -1:
                # strip-crossing pieces: generic path, one op at a time
                for i in range(a, b):
                    piece = regions[i : i + 1]
                    sl = slice(int(starts[i]), int(ends[i]))
                    pdata = None if data is None else data[sl]
                    self.counters.io_ops -= 1  # _simple_ops recounts
                    st = yield from self._simple_ops(
                        fh,
                        [piece],
                        op_kind,
                        is_write=is_write,
                        data=pdata,
                        phantom=phantom,
                        trace=op_span,
                    )
                    if out is not None and st is not None:
                        out[sl] = st
                    handled_generic += int(lens[i])
                continue
            g = b - a
            extra = (g - 1) * (2 * costs.latency + 2 * costs.per_message_cpu)
            yield env.timeout(g * costs.fs_op_client_cost + extra)
            phys = (k0[a:b] // nserv) * S + offs[a:b] % S
            merged = Regions(phys, lens[a:b].copy(), _trusted=True)
            sl = slice(int(starts[a]), int(ends[b - 1]))
            payload = None
            if is_write and data is not None:
                payload = data[sl]
            req = IORequest(
                handle=fh.handle,
                is_write=is_write,
                op_kind=op_kind,
                regions=merged,
                payload=payload,
                payload_nbytes=merged.total_bytes if is_write else 0,
                op_count=g,
                phantom=phantom,
                listio_pairs=g if op_kind == OP_LIST else 0,
                req_id=self._req_id(),
                reply_to=self.mailbox,
                client=self.name,
                tenant=self.tenant,
                server=int(srv[a]),
            )
            responses = yield from self._io_round(
                [(req, None, merged)], op_span
            )
            resp = responses[req.req_id]
            if out is not None and resp.payload is not None:
                out[sl] = resp.payload

        if is_write:
            self.counters.bytes_written += regions.total_bytes - handled_generic
        else:
            self.counters.bytes_read += regions.total_bytes - handled_generic
        if op_span is not None:
            self.system.tracer.end(op_span)
        return out

    # ------------------------------------------------------------------
    # list I/O
    # ------------------------------------------------------------------
    def read_list(self, fh, ops: Sequence[Regions], phantom=False, trace=None):
        """List I/O read: each element is one operation's file regions.

        Returns the packed stream of all operations, concatenated in
        order (or ``None`` when phantom).
        """
        self._check_listio(ops)
        stream = yield from self._simple_ops(
            fh, ops, OP_LIST, is_write=False, data=None, phantom=phantom,
            trace=trace,
        )
        return stream

    def write_list(self, fh, ops: Sequence[Regions], data=None, trace=None):
        """List I/O write of the packed stream ``data`` (None = phantom)."""
        self._check_listio(ops)
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._simple_ops(
            fh, ops, OP_LIST, is_write=True, data=data, phantom=data is None,
            trace=trace,
        )

    def _check_listio(self, ops: Sequence[Regions]) -> None:
        limit = self.system.config.list_io_max_regions
        for op in ops:
            if op.count > limit:
                raise PVFSError(
                    f"list I/O operation with {op.count} regions exceeds "
                    f"the {limit}-region request bound"
                )

    # ------------------------------------------------------------------
    # datatype I/O
    # ------------------------------------------------------------------
    def read_dtype(
        self,
        fh,
        loop: Dataloop,
        displacement: int = 0,
        first: int = 0,
        last: Optional[int] = None,
        phantom: bool = False,
        trace=None,
    ):
        """Datatype I/O read of stream bytes [first, last) of the tiled loop."""
        stream = yield from self._dtype_op(
            fh, loop, displacement, first, last, False, None, phantom,
            trace=trace,
        )
        return stream

    def write_dtype(
        self,
        fh,
        loop: Dataloop,
        displacement: int = 0,
        first: int = 0,
        last: Optional[int] = None,
        data=None,
        trace=None,
    ):
        """Datatype I/O write; ``data`` is the packed stream (None=phantom)."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._dtype_op(
            fh, loop, displacement, first, last, True, data, data is None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _req_id(self) -> int:
        self._next_req += 1
        return self._next_req

    def _open_op(self, name: str, trace, **attrs):
        """Begin a client operation span under ``trace`` (the caller's
        span, or ``None`` for a new trace)."""
        return self.system.tracer.begin(
            name,
            "client",
            self.name,
            trace_id=trace.trace_id if trace is not None else -1,
            parent=trace,
            **attrs,
        )

    def _simple_ops(
        self, fh, ops, op_kind, *, is_write, data, phantom, trace=None
    ):
        """Run a sequence of synchronous contig/list operations."""
        env = self.system.env
        costs = self.system.costs
        cfg = self.system.config

        total_bytes = sum(op.total_bytes for op in ops)
        if data is not None and data.size != total_bytes:
            raise ValueError(
                f"data stream of {data.size} bytes vs operations totalling "
                f"{total_bytes} bytes"
            )
        op_span = None
        if self.system.tracer.enabled:
            op_span = self._open_op(
                f"pvfs.{op_kind}", trace,
                is_write=is_write, ops=len(ops), nbytes=total_bytes,
            )
        out = (
            None
            if (is_write or phantom)
            else np.zeros(total_bytes, dtype=np.uint8)
        )
        self.counters.io_ops += len(ops)

        # group consecutive ops by server signature
        groups: list[_OpGroup] = []
        stream_cursor = 0
        for op in ops:
            jobs = build_jobs(self.name, fh.handle, is_write, op, fh.dist)
            sig = tuple(sorted(jobs))
            if (
                cfg.sim_batching
                and groups
                and groups[-1].signature == sig
            ):
                groups[-1].add(op, jobs)
            else:
                g = _OpGroup(sig)
                g.add(op, jobs)
                groups.append(g)

        for group in groups:
            gsize = len(group.ops)
            # per-op client fixed cost, plus the round-trip latencies
            # and message CPU the collapsed ops would have paid
            extra = (gsize - 1) * (
                2 * costs.latency + 2 * costs.per_message_cpu
            )
            yield env.timeout(gsize * costs.fs_op_client_cost + extra)

            # merge the group's jobs per server
            requests = []
            for server in group.signature:
                regs = []
                spos = []
                pairs = 0
                for (op_regions, jobs), base in zip(
                    group.ops, group.stream_base
                ):
                    job = jobs.get(server)
                    if job is None or not job.access_count:
                        continue
                    regs.append(job.accesses)
                    spos.append(job.stream_pos + (stream_cursor + base))
                    pairs += job.access_count
                if not regs:
                    continue
                merged = Regions.concat(regs)
                sposa = np.concatenate(spos)
                payload = None
                if is_write and data is not None:
                    payload = Regions(
                        sposa, merged.lengths, _trusted=True
                    ).gather(data)
                req = IORequest(
                    handle=fh.handle,
                    is_write=is_write,
                    op_kind=op_kind,
                    regions=merged,
                    payload=payload,
                    payload_nbytes=merged.total_bytes if is_write else 0,
                    op_count=gsize,
                    phantom=phantom,
                    listio_pairs=pairs if op_kind == OP_LIST else 0,
                    req_id=self._req_id(),
                    reply_to=self.mailbox,
                    client=self.name,
                    tenant=self.tenant,
                    server=server,
                )
                requests.append((req, sposa, merged))

            responses = yield from self._io_round(requests, op_span)
            if out is not None:
                for req, sposa, merged in requests:
                    resp = responses[req.req_id]
                    if resp.payload is not None:
                        Regions(
                            sposa, merged.lengths, _trusted=True
                        ).scatter(out, resp.payload)
            stream_cursor += group.nbytes

        if is_write:
            self.counters.bytes_written += total_bytes
        else:
            self.counters.bytes_read += total_bytes
        if op_span is not None:
            self.system.tracer.end(op_span)
        return out

    def _dtype_op(
        self, fh, loop, displacement, first, last, is_write, data, phantom,
        trace=None,
    ):
        env = self.system.env
        costs = self.system.costs
        cfg = self.system.config

        if last is None:
            last = loop.data_size
        window = DataloopWindow(loop, displacement, first, last)
        nbytes = window.stream_bytes
        if data is not None and data.size != nbytes:
            raise ValueError(
                f"data stream of {data.size} bytes vs window of {nbytes}"
            )
        op_span = None
        if self.system.tracer.enabled:
            op_span = self._open_op(
                "pvfs.dtype", trace, is_write=is_write, nbytes=nbytes,
                dataloop=loop.fingerprint().hex(),
            )
        self.counters.io_ops += 1

        # dataloop (re)conversion at every operation, as in the
        # prototype — unless datatype caching (§5) remembers this loop
        yield from self.charge_convert(loop)

        # client-side expansion into job/access structures (cached per
        # (loop, window) when datatype caching is on; the tile reader's
        # per-frame operations differ only by displacement)
        regions = yield from self.expand_view(loop, displacement, first, last)
        yield env.timeout(costs.fs_op_client_cost)

        cache_on = cfg.datatype_cache
        jobs = build_jobs(self.name, fh.handle, is_write, regions, fh.dist)
        out = (
            None
            if (is_write or phantom)
            else np.zeros(nbytes, dtype=np.uint8)
        )
        requests = []
        for server in sorted(jobs):
            job = jobs[server]
            if not job.access_count:
                continue
            cached = False
            if cache_on:
                key = (server, id(loop))
                cached = key in self._server_knows_loop
                self._server_knows_loop.add(key)
            payload = None
            if is_write and data is not None:
                payload = Regions(
                    job.stream_pos, job.accesses.lengths, _trusted=True
                ).gather(data)
            req = IORequest(
                handle=fh.handle,
                is_write=is_write,
                op_kind=OP_DTYPE,
                window=window,
                payload=payload,
                payload_nbytes=job.nbytes if is_write else 0,
                phantom=phantom,
                cached_dtype=cached,
                req_id=self._req_id(),
                reply_to=self.mailbox,
                client=self.name,
                tenant=self.tenant,
                server=server,
            )
            requests.append((req, job))

        responses = yield from self._io_round(
            [(req, job.stream_pos, job.accesses) for req, job in requests],
            op_span,
        )
        if out is not None:
            for req, job in requests:
                resp = responses[req.req_id]
                if resp.payload is not None:
                    Regions(
                        job.stream_pos, job.accesses.lengths, _trusted=True
                    ).scatter(out, resp.payload)

        if is_write:
            self.counters.bytes_written += nbytes
        else:
            self.counters.bytes_read += nbytes
        if op_span is not None:
            self.system.tracer.end(op_span)
        return out

    # ------------------------------------------------------------------
    # datatype-side primitives (shared by the independent datatype path
    # and the collective datatype driver)
    # ------------------------------------------------------------------
    def charge_convert(self, loop: Dataloop):
        """Charge one dataloop conversion (datatype-cache aware)."""
        env = self.system.env
        costs = self.system.costs
        cache_on = self.system.config.datatype_cache
        if cache_on and id(loop) in self._converted_loops:
            yield env.timeout(2e-6)  # cache lookup
        else:
            yield env.timeout(
                costs.dataloop_convert_base
                + loop.node_count() * costs.dataloop_node_cost
            )
            if cache_on:
                self._converted_loops.add(id(loop))

    def expand_view(self, loop: Dataloop, displacement, first, last):
        """Expand a file view window into logical file regions, charging
        the per-region client construction cost (cached per
        (loop, window) when datatype caching is on)."""
        env = self.system.env
        costs = self.system.costs
        cfg = self.system.config
        cache_on = cfg.datatype_cache
        exp_key = (id(loop), first, last)
        cached_regions = (
            self._expansion_cache.get(exp_key) if cache_on else None
        )
        if cached_regions is not None:
            regions = cached_regions.shift(displacement)
            yield env.timeout(2e-6)
            return regions
        window = DataloopWindow(loop, displacement, first, last)
        regions = DataloopStream(
            loop,
            count=window.tile_count(),
            base_offset=0,
            first=first,
            last=last,
            max_regions=cfg.dataloop_batch_regions,
        ).regions()
        factor = (
            costs.direct_region_factor if cfg.direct_dataloop else 1.0
        )
        if regions.count:
            yield env.timeout(
                regions.count * costs.client_region_cost * factor
            )
        if cache_on:
            self._expansion_cache[exp_key] = regions
        return regions.shift(displacement)

    # ------------------------------------------------------------------
    # collective datatype I/O primitives
    # ------------------------------------------------------------------
    def coll_send_segment(self, server: int, seg: CollSegment):
        """Ship one collective data segment straight to a server.

        Segments are data-path messages: a fixed header plus the round
        slice of this rank's packed stream.  They sit inside the fault
        injector's drop set (a no-op unless a non-inert config is
        armed); recovery is the per-(round, server) ack ladder of
        :meth:`coll_complete`, which resends idempotently — the server
        dedups replayed rounds by (coll id, round).  Flow control is a
        sliding window of :data:`COLL_SEND_WINDOW` in-flight segments
        *per server socket*: an unpaced blast would order the whole
        run's bytes by send-initiation time (letting an early-starting
        rank park entire later rounds ahead of a late rank's round 0,
        stalling the round pipeline), while fully paced sends leave
        NICs idle at every segment handoff.  Per-server windows keep
        the wire order at each server tracking the round order without
        coupling independent sockets — one momentarily-backlogged
        server never starves the rest of the stripe.
        """
        costs = self.system.costs
        env = self.system.env
        window = self._coll_inflight.setdefault(server, deque())
        while len(window) >= COLL_SEND_WINDOW:
            t = window.popleft()
            if t > env.now:
                yield env.timeout(t - env.now)
        self.counters.request_desc_bytes += costs.header_bytes
        end = yield from self.system.net.send(
            self.mailbox,
            self.system.servers[server].mailbox,
            seg.wire_bytes(costs),
            payload=seg,
            pace=False,
            faultable=True,
        )
        window.append(end)

    def coll_collect(self, coll_id: tuple, expected):
        """Receive this rank's data segments of a collective read.

        ``expected`` is an iterable of ``(server, round)`` pairs; the
        matching segments are returned as a dict keyed by those pairs.
        Unrelated traffic surfacing on the mailbox (responses for the
        aggregator role, other collectives' segments) goes to
        :meth:`_file_stray`, as in :meth:`_await_response`.
        """
        env = self.system.env
        costs = self.system.costs
        want = {(coll_id, s, r) for (s, r) in expected}
        got: dict[tuple, CollSegment] = {}
        for key in list(want):
            seg = self._coll_stash.pop(key, None)
            if seg is not None:
                got[key[1:]] = seg
                want.discard(key)
        held: list[_TimeoutMarker] = []
        try:
            while want:
                msg = yield self.mailbox.get()
                if isinstance(msg, _TimeoutMarker):
                    if msg.live:
                        held.append(msg)
                    continue
                if not isinstance(msg, (CollHandoff, _CollWake)):
                    yield env.timeout(costs.per_message_cpu)
                    msg = msg.payload
                    if isinstance(msg, CollSegment):
                        key = (msg.coll_id, msg.server, msg.round_no)
                        if key in want:
                            got[key[1:]] = msg
                            want.discard(key)
                            continue
                self._file_stray(msg)
        finally:
            self._requeue(held)
        return got

    def coll_post(self, requests: Sequence[IORequest], span=None):
        """Send aggregated collective requests without awaiting replies.

        The aggregator role posts its control requests *before*
        streaming its own data segments — awaiting inline (as
        :meth:`_io_round` does) would deadlock: every round needs this
        rank's segments to complete.  Returns the posted requests'
        ladder state keyed by request id, which :meth:`coll_finish` or
        :meth:`coll_complete` needs to collect the responses later.
        """
        posted = yield from self._post(requests, span)
        return posted

    def coll_finish(self, requests: Sequence[IORequest], posted):
        """Collect one response per request posted by :meth:`coll_post`.

        The response half of :meth:`_io_round`, including the
        reject/backoff/resend loop of the bounded-admission server
        (segments already ingested survive a rejection, and the server's
        done-ring deduplicates a resend of an already-applied round).
        """
        responses: dict[int, IOResponse] = {}
        for req in requests:
            resp = yield from self._collect(posted[req.req_id])
            responses[resp.req_id] = resp
        return responses

    # ------------------------------------------------------------------
    # collective fault tolerance (armed fault configs only)
    # ------------------------------------------------------------------
    def _coll_recv(self, abs_deadline: float):
        """Receive one mailbox item before an absolute deadline.

        Returns the unwrapped payload for wire traffic (charging the
        per-message CPU), the raw marker for zero-cost shared-state
        signals (:class:`CollHandoff`, ``_CollWake``), or ``None`` once
        the deadline passes.  Live foreign timeout markers are held and
        re-queued on exit, exactly as in :meth:`_await_response`.
        """
        env = self.system.env
        costs = self.system.costs
        if abs_deadline <= env.now:
            return None
        marker, timer = self._arm_timer(-1, abs_deadline - env.now)
        held: list[_TimeoutMarker] = []
        try:
            while True:
                msg = yield self.mailbox.get()
                if isinstance(msg, _TimeoutMarker):
                    if msg is marker:
                        return None
                    if msg.live:
                        held.append(msg)
                    continue
                if isinstance(msg, (CollHandoff, _CollWake)):
                    return msg
                yield env.timeout(costs.per_message_cpu)
                return msg.payload
        finally:
            marker.live = False
            timer.cancel()
            self._requeue(held)

    def coll_complete(
        self,
        rec: CollRecovery,
        *,
        sent_segs=None,
        expect=None,
        requests: Sequence[IORequest] = (),
        posted=None,
        my_agg: Optional[int] = None,
        span=None,
        handoff: Optional[CollHandoff] = None,
    ):
        """Fault-tolerant completion engine for one rank's collective.

        One unified RTO loop drives every outstanding obligation of
        this rank — the client's retry ladder (:meth:`_escalate`,
        :meth:`_rejected`, :meth:`_answered`), but over *all* items at
        once rather than request-by-request, because the collective's
        recovery paths are interdependent: a composite request
        completes only when every rank's segment is in, and a rank's
        segment ack arrives only after some aggregator re-delivers the
        round's request.  Sequential per-item waits would deadlock on
        exactly the fault patterns this exists for.

        * ``sent_segs`` — ``{(server, round): CollSegment}`` this rank
          streamed for a write; each entry waits for its
          :class:`CollAck` and is resent (idempotently — the server
          dedups by (coll id, round), and a replay of a completed round
          is re-acknowledged from the done-ring) on an RTO ladder.
        * ``expect`` — ``(server, round)`` read segments owed to this
          rank; an overdue entry sends a :class:`CollFetch`, served
          from the server's retained scatter buffer.
        * ``requests``/``posted`` — the aggregator role's composite
          requests (from :meth:`coll_post`): the RPC ladder plus
          **aggregator re-election** — at ``coll_reelect_after``
          consecutive timeouts the rounds are handed to the next
          surviving aggregator slot (deterministic ring scan), and
          :class:`RetriesExhausted` surfaces only once every candidate
          slot is dead and the ladder is spent.

        Returns ``(responses, segments)``.  Every deadline doubles per
        consecutive timeout and every resend backs off exponentially,
        so a crash window either ends inside the ladder or the run
        fails typed — never a hang.
        """
        env = self.system.env
        costs = self.system.costs
        net = self.system.net
        metrics = self.system.metrics
        faults = self.system.faults
        fcfg = faults.config
        eps = 1e-12

        responses: dict[int, IOResponse] = {}
        got: dict[tuple, CollSegment] = {}

        # pending items (deadlines are absolute simulated instants):
        # written segments awaiting acks and read segments awaiting
        # delivery keyed (server, round), requests keyed by req_id
        acks: dict[tuple, _Pending] = {}
        fetches: dict[tuple, _Pending] = {}
        reqs: dict[int, _Pending] = {}

        first = env.now + self._rto(0)
        if sent_segs:
            for (server, rno), seg in sent_segs.items():
                if (rec.coll_id, server, rno) in self._coll_acks:
                    self._coll_acks.discard((rec.coll_id, server, rno))
                    continue
                acks[(server, rno)] = _Pending(seg, deadline=first)
        if expect:
            for server, rno in expect:
                seg = self._coll_stash.pop((rec.coll_id, server, rno), None)
                if seg is not None:
                    got[(server, rno)] = seg
                    continue
                fetches[(server, rno)] = _Pending(deadline=first)
        for req in requests:
            reqs[req.req_id] = p = posted[req.req_id]
            p.deadline = first

        tid = span.trace_id if span is not None else -1
        pid = span.span_id if span is not None else -1

        def _integrate(h: CollHandoff):
            """Adopt a re-election handoff: rebuild and post its rounds
            (views on the wire — this rank never shipped them)."""
            built = []
            for rno in h.rounds:
                req = rec.build_request(h.server, rno)
                req.req_id = self._req_id()
                req.reply_to = self.mailbox
                req.client = self.name
                req.tenant = self.tenant
                built.append(req)
            if not built:
                rec.pending_handoffs -= 1
                rec.maybe_release()
                return
            yield env.timeout(costs.fs_op_client_cost)
            adopted = yield from self.coll_post(built, span)
            counter = [len(built)]
            t = env.now + self._rto(0)
            for rid, p in adopted.items():
                p.deadline = t
                p.counter = counter
                reqs[rid] = p

        def _resolve_handoff(p: _Pending):
            counter = p.counter
            if counter is not None:
                counter[0] -= 1
                if counter[0] == 0:
                    rec.pending_handoffs -= 1
                    rec.maybe_release()

        def _exhaust(kind, key, p: _Pending):
            if kind == "request":
                self._give_up(p)  # raises
            what = "write ack" if kind == "segment" else "read segment"
            server, rno = key
            faults.coll_exhausted(
                self.name, server, rno, p.attempts, trace_id=tid, span=span
            )
            raise RetriesExhausted(
                f"collective {what} for round {rno} on iod{server} from "
                f"{self.name} gave up after {p.attempts} timeouts",
                job_id=-1,
                server=server,
                client=self.name,
                attempts=p.attempts,
            )

        def _resend(kind, key, p: _Pending):
            if kind == "request":
                yield from self._send_io(p.item)
                return
            server, rno = key
            faults.coll_resend(
                self.name, server, rno, p.attempts,
                kind=kind, trace_id=tid, span=span,
            )
            if metrics.enabled:
                metrics.coll_resend()
            if kind == "segment":
                yield from self.coll_send_segment(server, p.item)
                return
            fetch = CollFetch(
                rec.coll_id, rno, server, self.name,
                reply_to=self.mailbox,
                trace_id=tid, trace_parent=pid,
            )
            self.counters.requests_sent += 1
            self.counters.request_desc_bytes += costs.header_bytes
            yield from net.send(
                self.mailbox,
                self.system.servers[server].mailbox,
                fetch.wire_bytes(costs),
                payload=fetch,
                pace=False,
                faultable=True,
            )

        if handoff is not None:
            yield from _integrate(handoff)

        while acks or fetches or reqs or self._coll_handoffs:
            while self._coll_handoffs:
                yield from _integrate(self._coll_handoffs.pop(0))
            if not (acks or fetches or reqs):
                break
            deadline = min(
                p.deadline
                for items in (acks, fetches, reqs)
                for p in items.values()
            )
            msg = yield from self._coll_recv(deadline)
            if msg is None:
                # ---- deadline: escalate every overdue item
                now = env.now + eps
                for kind, items in (
                    ("segment", acks), ("fetch", fetches), ("request", reqs)
                ):
                    for key in [k for k, p in items.items() if p.deadline <= now]:
                        p = items.get(key)
                        if p is None:
                            continue  # moved by a re-election this same pass
                        if kind != "request":
                            p.attempts += 1
                        else:
                            self._timed_out(p)
                            if (
                                my_agg is not None
                                and p.attempts >= fcfg.coll_reelect_after
                            ):
                                cand = rec.elect(my_agg)
                                if cand is not None:
                                    self._coll_reelect(
                                        rec, my_agg, cand, p.item.server,
                                        reqs, span,
                                    )
                                    continue
                        yield from self._escalate(
                            p,
                            lambda: _exhaust(kind, key, p),
                            lambda: _resend(kind, key, p),
                        )
                continue
            # ---- arrivals
            if isinstance(msg, CollHandoff):
                yield from _integrate(msg)
                continue
            if isinstance(msg, (CollAck, CollSegment)) and (
                msg.coll_id == rec.coll_id
            ):
                key = (msg.server, msg.round_no)
                if isinstance(msg, CollAck):
                    acks.pop(key, None)
                elif fetches.pop(key, None) is not None:
                    got[key] = msg
                # else: duplicate of an already-received round
                continue
            rid = getattr(msg, "req_id", None)
            p = reqs.get(rid)
            if p is None:
                self._file_stray(msg)
                continue
            if msg.rejected:
                yield from self._rejected(p)
                p.deadline = env.now + self._rto(p.attempts)
                continue
            self._answered(p, msg, armed=True)
            del reqs[rid]
            responses[rid] = msg
            _resolve_handoff(p)
        return responses, got

    def _coll_reelect(
        self, rec: CollRecovery, from_agg: int, to_agg: int, server: int,
        reqs: dict, span,
    ) -> None:
        """Hand every pending composite request for ``server`` to the
        elected surviving aggregator slot.

        Pure shared-state bookkeeping (the handoff marker models a
        local failure-detector signal, like the client's own timeout
        markers — no wire traffic, no simulated time): the moved
        request ids are marked done so late responses are discarded,
        their rpc spans closed, and ``pending_handoffs`` incremented
        *before* the marker lands so the completion gate can never
        release between the two.
        """
        metrics = self.system.metrics
        faults = self.system.faults
        rec.dead.add(from_agg)
        moved = [(rid, p) for rid, p in reqs.items() if p.item.server == server]
        rounds = sorted(p.item.coll.round_no for _, p in moved)
        rec.pending_handoffs += 1
        for rid, p in moved:
            del reqs[rid]
            self._done_reqs.add(rid)
            self._end_rpc(p, reelected=True, timeouts=p.attempts)
            counter = p.counter
            if counter is not None:
                # a handed-off handoff releases its old counter (the
                # fresh pending_handoffs above keeps the gate closed)
                counter[0] -= 1
                if counter[0] == 0:
                    rec.pending_handoffs -= 1
        faults.coll_reelection(
            self.name, server, from_agg, to_agg, len(rounds),
            trace_id=span.trace_id if span is not None else -1, span=span,
        )
        if metrics.enabled:
            metrics.coll_reelect()
        rec.mailboxes[to_agg]._store.put(
            CollHandoff(rec, server, rounds, from_agg)
        )

    def coll_gate(self, rec: CollRecovery, my_agg=None, span=None):
        """Completion gate for aggregator ranks (armed faults only).

        Collective semantics require that no aggregator leaves while
        re-elected work is outstanding anywhere: a rank already at the
        closing barrier stops servicing its mailbox, and a handoff
        parked there would strand the surviving aggregators' rounds.
        Each aggregator therefore *arrives* here and keeps serving
        stray traffic (late duplicates, re-election handoffs) until
        every aggregator has arrived and no handoff is pending; the
        releasing rank drops a zero-cost wake marker into every
        waiter's mailbox.  Non-aggregator ranks never take handoffs
        and go straight to the barrier.
        """
        env = self.system.env
        costs = self.system.costs
        while self._coll_handoffs:
            yield from self.coll_complete(
                rec, my_agg=my_agg, span=span,
                handoff=self._coll_handoffs.pop(0),
            )
        rec.arrive(self.name, self.mailbox)
        while not rec.done:
            msg = yield self.mailbox.get()
            if isinstance(msg, _TimeoutMarker):
                continue  # a finished wait's dead marker
            if isinstance(msg, CollHandoff):
                yield from self.coll_complete(
                    rec, my_agg=my_agg, span=span, handoff=msg,
                )
                continue
            if not isinstance(msg, _CollWake):
                yield env.timeout(costs.per_message_cpu)
                msg = msg.payload
            # a wake needs nothing: the loop condition re-checks
            # rec.done; this collective's own late traffic is dropped
            self._file_stray(msg, done_coll=rec.coll_id)

    # ------------------------------------------------------------------
    # the RPC path: post, then collect on one retry ladder
    # ------------------------------------------------------------------
    def _io_round(self, requests, span=None):
        """Send all requests, then collect every response.

        ``requests`` holds ``(request, stream positions, regions)``
        triples; the response dict is keyed by request id.  Each
        response is collected on the retry ladder of :meth:`_collect`.

        When tracing, each request gets its own ``rpc`` round-trip span
        under ``span`` (the operation span); the request carries the
        trace id and the rpc span id so server-side and network spans
        join the same trace.
        """
        posted = yield from self._post([r[0] for r in requests], span)
        responses: dict[int, IOResponse] = {}
        for p in posted.values():
            resp = yield from self._collect(p)
            responses[resp.req_id] = resp
        return responses

    def _post(self, requests: Sequence[IORequest], span=None):
        """Open each request's rpc span (when traced), then send them
        all; returns their ladder state keyed by request id."""
        env = self.system.env
        traced = self.system.tracer.enabled and span is not None
        posted: dict[int, _Pending] = {}
        for req in requests:
            posted[req.req_id] = _Pending(
                req, self._open_rpc(req, span) if traced else None
            )
        for p in posted.values():
            p.t_sent = env.now
            yield from self._send_io(p.item)
        return posted

    def _open_rpc(self, req: IORequest, span):
        """Begin ``req``'s ``rpc`` round-trip span under ``span`` and
        stamp the request with the trace and rpc span ids."""
        rpc = self.system.tracer.begin(
            "rpc",
            "client",
            self.name,
            trace_id=span.trace_id,
            parent=span,
            server=req.server,
            op_kind=req.op_kind,
            desc_bytes=req.descriptor_bytes(self.system.costs),
        )
        req.trace_id = span.trace_id
        req.trace_parent = rpc.span_id
        return rpc

    def _collect(self, p: _Pending):
        """Await one posted request's final response.

        Under an armed fault injector this is the one recovery path for
        dropped messages and crashed servers: a per-RPC timeout with
        exponential backoff and bounded resends (:meth:`_escalate`).
        Because striped transfers fan one operation out over many
        requests, resending just the timed-out request *is* job-level
        resume — the already-answered stripes are never re-shipped.
        Every attempt reuses the request id, so writes are idempotent
        and duplicated responses deduplicate naturally.  A server with
        a bounded admission queue may reject the request outright
        (:meth:`_rejected`).
        """
        faults = self.system.faults
        armed = faults.enabled and faults.armed
        req = p.item
        while True:
            resp = yield from self._await_response(
                req.req_id, self._rto(p.attempts) if armed else None
            )
            if resp is None:
                self._timed_out(p)
                yield from self._escalate(
                    p, lambda: self._give_up(p), lambda: self._send_io(req)
                )
                continue
            if resp.rejected:
                yield from self._rejected(p)
                continue
            self._answered(p, resp, armed)
            return resp

    def _rto(self, attempts: int) -> float:
        """RPC deadline after ``attempts`` consecutive timeouts.

        It doubles per consecutive timeout (TCP RTO style): a base
        deadline shorter than a large transfer's legitimate wire time
        would otherwise time out forever, while crashed-server recovery
        stays one base deadline away.
        """
        return self.system.faults.config.rpc_timeout * (2 ** min(attempts, 20))

    def _timed_out(self, p: _Pending) -> None:
        """Count one timeout of a request (counters, metric, event)."""
        p.attempts += 1
        self.counters.timeouts += 1
        if self.system.metrics.enabled:
            self.system.metrics.timeout()
        self.system.faults.rpc_timeout(self.name, p.item, p.attempts, p.rpc)

    def _escalate(self, p: _Pending, give_up, resend):
        """Climb one rung of the timeout ladder.

        ``p.attempts`` already counts the timeout.  Past ``max_retries``
        timeouts ``give_up()`` raises; otherwise sleep the exponential
        backoff ``retry_backoff·2^(attempts-1)``, run ``resend()`` and
        re-arm the item's absolute deadline.
        """
        env = self.system.env
        fcfg = self.system.faults.config
        if p.attempts > fcfg.max_retries:
            give_up()
        backoff = fcfg.retry_backoff * (2 ** (p.attempts - 1))
        if backoff > 0:
            yield env.timeout(backoff)
            p.backoff += backoff
        yield from resend()
        p.deadline = env.now + self._rto(p.attempts)

    def _rejected(self, p: _Pending):
        """Admission-control rejection: back off ``server_retry_backoff``
        seconds and resend until admitted — the backpressure loop of
        the multi-threaded server model.  Not a timeout: the attempt
        count stays."""
        metrics = self.system.metrics
        self.counters.retries += 1
        if metrics.enabled:
            metrics.retry()
        if p.rpc is not None:
            p.rpc.attrs["retries"] = p.rpc.attrs.get("retries", 0) + 1
        backoff = self.system.config.server_retry_backoff
        if backoff > 0:
            yield self.system.env.timeout(backoff)
            p.backoff += backoff
        yield from self._send_io(p.item)

    def _give_up(self, p: _Pending):
        """A request's ladder is spent: raise :class:`RetriesExhausted`."""
        req = p.item
        self.system.faults.rpc_exhausted(self.name, req, p.attempts, p.rpc)
        what = "collective request" if req.op_kind == OP_COLL else "request"
        err = (
            f"server iod{req.server} unresponsive: {what} {req.req_id} "
            f"from {self.name} gave up after {p.attempts} timeouts"
        )
        self._end_rpc(p, error=err)
        raise RetriesExhausted(
            err,
            job_id=req.req_id,
            server=req.server,
            client=self.name,
            attempts=p.attempts,
        )

    def _answered(self, p: _Pending, resp: IOResponse, armed: bool) -> None:
        """Book a request's final response.

        A server error raises :class:`PVFSError`.  Otherwise: under an
        armed injector the request id is marked answered (late and
        duplicated responses are then discarded) and a request that
        timed out first counts as a failover; the RPC latency metric
        (which includes every backoff and resend) and the rpc span end
        follow.
        """
        metrics = self.system.metrics
        req = p.item
        if resp.error:
            self._end_rpc(p, error=resp.error)
            raise PVFSError(resp.error)
        if armed:
            self._done_reqs.add(req.req_id)
            if p.attempts:
                self.counters.failovers += 1
                if metrics.enabled:
                    metrics.failover()
                self.system.faults.rpc_failover(
                    self.name, req, p.attempts, p.rpc
                )
        if metrics.enabled:
            metrics.observe_rpc(self.system.env.now - p.t_sent, req.op_kind)
        if armed:
            self._end_rpc(p, nbytes=resp.nbytes, timeouts=p.attempts)
        else:
            self._end_rpc(p, nbytes=resp.nbytes)

    def _end_rpc(self, p: _Pending, **attrs) -> None:
        """Close the request's rpc span, recording any backoff it slept
        as ``backoff_s`` (critical-path blame reads it)."""
        if p.rpc is not None:
            if p.backoff:
                attrs["backoff_s"] = p.backoff
            self.system.tracer.end(p.rpc, **attrs)

    def _send_io(self, req: IORequest):
        """Ship one I/O request (counted; used for sends and resends)."""
        net = self.system.net
        costs = self.system.costs
        dst = self.system.servers[req.server].mailbox
        self.counters.requests_sent += 1
        self.counters.request_desc_bytes += req.descriptor_bytes(costs)
        self.counters.regions_shipped += req.listio_pairs
        # non-blocking sockets: requests to distinct servers are in
        # flight concurrently; the NIC reservations still serialize
        # the actual bytes
        yield from net.send(
            self.mailbox,
            dst,
            req.wire_bytes(costs),
            payload=req,
            pace=False,
            faultable=True,
        )
