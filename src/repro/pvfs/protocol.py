"""Request/response message types and wire-size accounting.

Wire sizes matter: the network model charges for them, and the
difference between a list I/O request (12 bytes per offset–length pair,
§4.2's ~9 KB for 768 pairs) and a datatype I/O request (a serialized
dataloop of constant size for regular patterns) is one of the paper's
central effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..dataloops import Dataloop, wire_size
from ..regions import Regions
from .errors import ProtocolError

__all__ = [
    "MetaRequest",
    "MetaResponse",
    "IORequest",
    "IOResponse",
    "DataloopWindow",
    "CollOp",
    "CollPart",
    "CollSegment",
    "CollAck",
    "CollFetch",
    "OP_CONTIG",
    "OP_LIST",
    "OP_DTYPE",
    "OP_COLL",
    "OP_KINDS",
]

OP_CONTIG = "contig"
OP_LIST = "list"
OP_DTYPE = "dtype"
OP_COLL = "coll"
OP_KINDS = (OP_CONTIG, OP_LIST, OP_DTYPE, OP_COLL)


@dataclass
class MetaRequest:
    """Namespace operation sent to the metadata server."""

    op: str  # 'open' | 'stat' | 'unlink' | 'localsize'
    path: str = ""
    create: bool = True
    handle: int = -1
    req_id: int = -1
    reply_to: Any = None

    def wire_bytes(self, header: int) -> int:
        return header + len(self.path)


@dataclass
class MetaResponse:
    req_id: int
    handle: int = -1
    size: int = 0
    n_servers: int = 0
    strip_size: int = 0
    error: Optional[str] = None


@dataclass
class DataloopWindow:
    """The file side of a datatype I/O request (paper Fig. 6).

    ``loop`` describes the file type; the access covers packed-stream
    bytes ``[first, last)`` of the type tiled from byte ``displacement``
    — exactly the (displacement, datatype, offset-into-datatype) triple
    of the datatype I/O interface.
    """

    loop: Dataloop
    displacement: int
    first: int
    last: int

    @property
    def stream_bytes(self) -> int:
        return self.last - self.first

    def tile_count(self) -> int:
        size = self.loop.data_size
        if size <= 0 or self.last <= 0:
            return 0
        return -(-self.last // size)

    def wire_bytes(self) -> int:
        # serialized dataloop + displacement/first/last
        return wire_size(self.loop) + 24


@dataclass
class CollPart:
    """One participating rank's slice of a collective round.

    The server re-expands the rank's dataloop over the round's stream
    window ``[first, last)`` itself — region lists never cross the wire
    (the same invariant datatype I/O relies on).  ``view`` indexes into
    the owning :class:`CollOp`'s deduplicated view table, so FLASH-style
    identical views are shipped once per request, not once per rank.
    """

    client: str  # PVFS client name (payload/scatter identity)
    reply_to: Any  # the rank's PVFS client mailbox (read scatter)
    view: int  # index into CollOp.views
    displacement: int
    first: int  # round window in the rank's packed stream
    last: int
    nbytes: int  # this rank's bytes on this server this round

    #: Wire bytes per participant entry: client id + view index +
    #: displacement + window + length.
    WIRE = 40


@dataclass
class CollOp:
    """Aggregated descriptor for one (server, round) collective request.

    ``views`` holds the *deduplicated* dataloops referenced by
    ``parts``; it is shipped only in round 0 (``views_on_wire``) — later
    rounds reference the same loops by 8-byte handles, mirroring the
    datatype-cache trick one level up.
    """

    coll_id: tuple  # (file handle, collective epoch, is_write)
    round_no: int
    rounds: int  # total rounds of this collective on this server
    views: tuple  # deduplicated Dataloop table for parts[.].view
    parts: tuple  # CollPart per participating rank, rank order
    views_on_wire: bool = True  # False: ship 8-byte view handles

    def descriptor_bytes(self) -> int:
        size = len(self.parts) * CollPart.WIRE + 24
        if self.views_on_wire:
            size += sum(wire_size(v) + 8 for v in self.views)
        else:
            size += 8 * len(self.views)
        return size


@dataclass
class CollSegment:
    """One rank's data for one (server, round) of a collective.

    Writes: rank → server, carrying the round slice of the rank's
    packed stream (the server splits it against its own expansion).
    Reads: server → rank, carrying the slice the rank scatters into its
    memory type.  Segments are data-path only — the matching
    :class:`CollOp` request is the control path.
    """

    coll_id: tuple
    round_no: int
    server: int
    client: str
    nbytes: int
    payload: Optional[np.ndarray] = None  # None = phantom
    trace_id: int = -1  # trace correlation (ints survive the wire)
    trace_parent: int = -1
    #: Write-side only, armed fault configs: the sending rank's mailbox,
    #: so the server can ack the segment (and re-ack a replay of an
    #: already-retired round straight from its receive loop).
    reply_to: Any = None

    def wire_bytes(self, costs) -> int:
        return costs.header_bytes + self.nbytes


@dataclass
class CollAck:
    """Per-(round, server) write acknowledgement (fault tolerance).

    Sent server → rank after a collective write round's data has been
    applied, confirming receipt of that rank's :class:`CollSegment`.
    Only emitted when fault injection is armed — the fault-free path
    relies on the composite request's :class:`IOResponse` alone, and
    acks there would perturb the bit-identical baseline.
    """

    coll_id: tuple
    round_no: int
    server: int
    client: str
    trace_id: int = -1
    trace_parent: int = -1

    def wire_bytes(self, costs) -> int:
        return costs.header_bytes


@dataclass
class CollFetch:
    """Read-side retransmit request (fault tolerance).

    A rank whose expected read :class:`CollSegment` timed out asks the
    server to resend it from its retained scatter buffer.  Header-only
    control traffic; armed fault configs only.
    """

    coll_id: tuple
    round_no: int
    server: int
    client: str
    reply_to: Any = None
    trace_id: int = -1
    trace_parent: int = -1

    def wire_bytes(self, costs) -> int:
        return costs.header_bytes


@dataclass
class IORequest:
    """An I/O request to one server.

    Exactly one of ``regions`` (contig / list I/O: the physical regions
    for *this* server, already in stream order), ``window`` (datatype
    I/O: the dataloop plus stream window; the server computes its own
    regions) or ``coll`` (collective datatype I/O: the aggregated
    per-round descriptor) is set.
    """

    handle: int
    is_write: bool
    op_kind: str  # OP_CONTIG | OP_LIST | OP_DTYPE | OP_COLL
    regions: Optional[Regions] = None
    window: Optional[DataloopWindow] = None
    coll: Optional[CollOp] = None
    payload: Optional[np.ndarray] = None  # write data (None = phantom)
    payload_nbytes: int = 0
    op_count: int = 1  # collapsed synchronous ops (sim batching)
    phantom: bool = False  # reads: account sizes, skip real bytes
    cached_dtype: bool = False  # datatype cache hit: ship a handle
    listio_pairs: int = 0  # offset-length pairs carried on the wire
    req_id: int = -1
    reply_to: Any = None
    client: str = ""
    #: Tenant index (``PVFSConfig.tenants``); crosses the wire so the
    #: server's weighted-fair admission can classify the request.  0 is
    #: the default tenant (the only one when tenancy is off).
    tenant: int = 0
    server: int = -1  # destination I/O server index
    #: Tracing (``PVFSConfig.trace``): the I/O job's trace id and the
    #: client-side RPC span id this request belongs to.  Plain ints so
    #: the linkage survives the trip across the simulated wire; ``-1``
    #: (the default) means the request is untraced.
    trace_id: int = -1
    trace_parent: int = -1
    #: Server-side only, never set by clients: the plan computed
    #: eagerly while a collective write round's data segments were
    #: still in flight (``repro.pvfs.pipeline.preplan_collective``).
    #: Consumed (and cleared) by ``CollectiveHandler.plan``.
    preplanned: Any = None

    def validate(self) -> None:
        """Check structural well-formedness (the server's decode stage).

        A malformed request must produce an error response, not kill the
        daemon, so this raises :class:`~repro.pvfs.errors.ProtocolError`
        with a message the server can ship back.
        """
        if self.op_kind not in OP_KINDS:
            raise ProtocolError(f"unknown op kind {self.op_kind!r}")
        if self.op_kind == OP_DTYPE:
            if self.window is None:
                raise ProtocolError(
                    "datatype request without a dataloop window"
                )
        elif self.op_kind == OP_COLL:
            if self.coll is None or not self.coll.parts:
                raise ProtocolError(
                    "collective request without an aggregated descriptor"
                )
        elif self.regions is None:
            raise ProtocolError(
                f"{self.op_kind} request without an access region list"
            )

    def descriptor_bytes(self, costs) -> int:
        """Wire bytes of the request *description* (excl. payload)."""
        size = costs.header_bytes * self.op_count
        if self.op_kind == OP_LIST:
            size += self.listio_pairs * costs.listio_pair_bytes
        elif self.op_kind == OP_CONTIG:
            size += 16 * self.op_count
        elif self.op_kind == OP_DTYPE:
            if self.cached_dtype:
                # registered dataloop: 8-byte handle + window triple
                size += 32
            else:
                size += self.window.wire_bytes()
        elif self.op_kind == OP_COLL:
            size += self.coll.descriptor_bytes()
        return size

    def wire_bytes(self, costs) -> int:
        # Collective write data travels as CollSegments on the data
        # path; the request itself is control-only either direction.
        if self.op_kind == OP_COLL:
            return self.descriptor_bytes(costs)
        return self.descriptor_bytes(costs) + (
            self.payload_nbytes if self.is_write else 0
        )


@dataclass
class IOResponse:
    req_id: int
    payload: Optional[np.ndarray] = None  # read data stream (None = phantom)
    nbytes: int = 0  # data bytes represented (even when phantom)
    accesses_built: int = 0  # server-side access-list length
    error: Optional[str] = None
    #: Admission control: the server's bounded request queue was full
    #: and the request was not processed — the client should back off
    #: and resend (only possible with ``server_threads > 1``).
    rejected: bool = False
    #: Tracing: copied from the request so the response's network
    #: transfer span joins the same trace, parented under the client's
    #: RPC span (which provably covers the transfer interval).
    trace_id: int = -1
    trace_parent: int = -1

    def wire_bytes(self, costs, is_write: bool) -> int:
        return costs.header_bytes + (0 if is_write else self.nbytes)
