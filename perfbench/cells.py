"""The benchmark's workloads and the driver that simulates one cell.

A *workload* is a list of *cells*; a cell is one (geometry, access
method, cluster configuration) simulated on a fresh cluster.  Every
cell has a paper-scale form (measured) and a reduced form (moved with
real bytes by :func:`roundtrip`, the correctness check).

:func:`run_cell` drives the public API the way
``repro.bench.runner.run_workload`` does, with two differences that a
benchmark needs: everything built before the first simulated event is
timed separately (set-up), and the cluster object is kept when the
simulation raises a typed fault (``RetriesExhausted`` /
``ServerTimeout``), so the fault counters of a failed cell stay
reportable and the failure is recorded instead of raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.bench.report import PAPER_TABLE2, PAPER_TABLE3
from repro.bench.workloads import Block3DWorkload, FlashWorkload, ScaleWorkload
from repro.faults import severity_config
from repro.mpiio import File, Hints, SimMPI
from repro.mpiio.adio import get_method
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.pvfs.errors import ServerTimeout
from repro.simulation import Environment, summarize_network

__all__ = [
    "Cell",
    "CellResult",
    "WORKLOADS",
    "build_cell",
    "roundtrip",
    "run_cell",
]

MIB = 1024 * 1024

#: the tenant workload's admission weights (1:2:4:8)
TENANT_WEIGHTS = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class Cell:
    """One simulated (geometry, method, configuration) combination."""

    label: str
    method: str
    #: scale ("paper" | "reduced") -> workload
    workload: Callable[[str], object]
    #: (scale, seed) -> PVFSConfig
    config: Callable[[str, int], PVFSConfig] = lambda scale, seed: PVFSConfig()
    #: paper's per-client I/O operation count for this cell, if any
    paper_ops: Optional[int] = None
    #: per-tenant admission weights (multi-tenant cells only)
    weights: Optional[tuple[float, ...]] = None
    #: fault preset name, for provenance
    faults: str = "none"


def _block3d(is_write: bool):
    def make(scale: str):
        if scale == "paper":
            return Block3DWorkload.paper(3, is_write=is_write)
        return Block3DWorkload.reduced(2, is_write=is_write)

    return make


def _flash(scale: str):
    if scale == "paper":
        return FlashWorkload.paper(128)
    return FlashWorkload.reduced(4)


def _light_faults(scale: str, seed: int) -> PVFSConfig:
    return PVFSConfig(faults=severity_config("light", seed=seed))


def _scale_strip(scale: str) -> int:
    # the paper's 64 KiB strip; the reduced form keeps the shape with
    # strips small enough to move real bytes
    return 65536 if scale == "paper" else 1024


def _tenants(scale: str):
    # offered demand scales with weight (4 repetitions per unit weight),
    # as in ``repro-bench scale``
    return ScaleWorkload(
        n_clients=1024 if scale == "paper" else 16,
        block_bytes=_scale_strip(scale),
        blocks=2,
        n_tenants=len(TENANT_WEIGHTS),
        tenant_reps=tuple(int(4 * w) for w in TENANT_WEIGHTS),
        is_write=False,
    )


def _tenant_config(scale: str, seed: int) -> PVFSConfig:
    return PVFSConfig(
        n_servers=16 if scale == "paper" else 4,
        strip_size=_scale_strip(scale),
        tenants=tuple(
            TenantConfig(name=f"t{i}", weight=w)
            for i, w in enumerate(TENANT_WEIGHTS)
        ),
    )


def _table2_ops(method: str) -> int:
    return PAPER_TABLE2[27][method][2]


WORKLOADS: dict[str, list[Cell]] = {
    "indep_read": [
        Cell(
            "block3d27.read.list_io",
            "list_io",
            _block3d(False),
            paper_ops=_table2_ops("list_io"),
        ),
    ],
    "dtype_write": [
        Cell("flash128.write.collective_dtype", "collective_dtype", _flash),
        Cell(
            "flash128.write.datatype_io",
            "datatype_io",
            _flash,
            paper_ops=PAPER_TABLE3["datatype_io"][2],
        ),
    ],
    "faulted_write": [
        Cell(
            "block3d27.write.list_io.light",
            "list_io",
            _block3d(True),
            _light_faults,
            paper_ops=_table2_ops("list_io"),
            faults="light",
        ),
        Cell(
            "block3d27.write.collective_dtype.light",
            "collective_dtype",
            _block3d(True),
            _light_faults,
            faults="light",
        ),
    ],
    "tenant_read": [
        Cell(
            "scale1024x4x16.read.datatype_io.w1248",
            "datatype_io",
            _tenants,
            _tenant_config,
            weights=TENANT_WEIGHTS,
        ),
    ],
}


@dataclass
class CellResult:
    """What one simulated cell produced (simulated numbers are exact)."""

    label: str
    method: str
    is_write: bool
    n_clients: int = 0
    completed: bool = True
    error: str = ""
    setup_s: float = 0.0  #: host seconds before the first simulated event
    wall_s: float = 0.0  #: host seconds simulating and collecting
    elapsed: float = 0.0  #: simulated seconds of the I/O phase
    desired_total: int = 0  #: bytes the workload asks for, all ranks
    events: int = 0
    server: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    net_messages: int = 0
    net_bytes: int = 0
    net_tx_util_max: float = 0.0
    faults: dict = field(default_factory=dict)
    admission: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_regions_held: int = 0
    io_ops: float = 0.0  #: per client (mean)
    request_desc_bytes: float = 0.0  #: per client (mean)
    resent_bytes: float = 0.0  #: per client (mean)
    accessed_bytes: float = 0.0  #: per client (mean)
    paper_ops: Optional[int] = None
    #: tenant -> (weight, bytes, makespan simulated seconds)
    tenants: dict = field(default_factory=dict)

    @property
    def moved_bytes(self) -> int:
        """Bytes the servers moved for the cell's direction."""
        key = "bytes_written" if self.is_write else "bytes_read"
        return self.server.get(key, 0)

    def sim_outputs(self) -> tuple:
        """The simulated outputs two runs of the same seed must share."""
        return (
            self.completed,
            self.elapsed,
            self.events,
            self.server.get("requests", 0),
            self.server.get("bytes_read", 0),
            self.server.get("bytes_written", 0),
            self.net_messages,
            self.net_bytes,
        )


def _rank_types(workload, n_clients: int) -> dict:
    """Build each rank's etype, filetype, memtype, count and views."""
    etype = workload.etype()
    return {
        rank: (
            etype,
            workload.filetype(rank),
            workload.memtype(rank),
            workload.mem_count(rank),
            [
                workload.displacement(rank, rep)
                for rep in range(workload.repetitions_for(rank))
            ],
        )
        for rank in range(n_clients)
    }


def build_cell(cell: Cell, scale: str, seed: int):
    """Set-up of a cell: workload, environment, cluster, ranks and each
    rank's datatypes -- everything before the first simulated event."""
    workload = cell.workload(scale)
    env = Environment()
    fs = PVFS(env, config=cell.config(scale, seed))
    tenant_of = workload.tenant_of if cell.weights else None
    mpi = SimMPI(
        fs,
        workload.n_clients,
        procs_per_node=workload.procs_per_node,
        tenant_of=tenant_of,
    )
    return workload, env, fs, mpi, _rank_types(workload, workload.n_clients)


def run_cell(
    cell: Cell,
    scale: str,
    seed: int,
    on_run: Optional[Callable[[], None]] = None,
) -> CellResult:
    """Simulate one cell with phantom data (sizes only, no bytes).

    ``on_run`` is called once set-up is done, just before the first
    simulated event.
    """
    t0 = perf_counter()
    workload, env, fs, mpi, types = build_cell(cell, scale, seed)
    collective = get_method(cell.method).collective
    method = cell.method
    hints = Hints()
    starts: list[float] = []
    rank_times: dict[int, tuple[float, float]] = {}
    files: dict[int, File] = {}

    def rank_main(ctx):
        f = yield from File.open(ctx, workload.path, hints)
        files[ctx.rank] = f
        etype, ftype, mtype, mcount, disps = types[ctx.rank]
        if workload.is_write:
            io = f.write_at_all if collective else f.write_at
        else:
            io = f.read_at_all if collective else f.read_at
        yield from ctx.comm.barrier()
        t_io = env.now
        starts.append(t_io)
        for disp in disps:
            f.set_view(disp, etype, ftype)
            yield from io(0, mtype, mcount, None, method=method)
        rank_times[ctx.rank] = (t_io, env.now)
        yield from ctx.comm.barrier()

    done = env.all_of(mpi.spawn(rank_main))
    if on_run is not None:
        on_run()
    t1 = perf_counter()
    res = CellResult(cell.label, cell.method, workload.is_write)
    try:
        env.run(done)
    except ServerTimeout as exc:  # RetriesExhausted is a ServerTimeout
        res.completed = False
        res.error = f"{type(exc).__name__}: {exc}"
    _collect(res, cell, workload, env, fs, starts, rank_times, files)
    t2 = perf_counter()
    res.setup_s = t1 - t0
    res.wall_s = t2 - t1
    return res


def _collect(res, cell, workload, env, fs, starts, rank_times, files):
    n = res.n_clients = workload.n_clients
    t0 = min(starts) if starts else 0.0
    res.elapsed = env.now - t0
    res.desired_total = workload.total_bytes()
    res.events = env.scheduled_events
    res.server = fs.total_server_stats()
    res.stages = fs.pipeline_summary().total.as_dict()
    net = summarize_network(fs.net, res.elapsed)
    res.net_messages = net.total_messages
    res.net_bytes = net.total_bytes
    res.net_tx_util_max = max(
        net.peak_utilization("ios", "tx"), net.peak_utilization("cn", "tx")
    )
    if fs.faults.enabled:
        res.faults = fs.faults.summary()
    for server in fs.servers:
        cache = server.expand_cache
        if cache is not None:
            res.cache_hits += cache.hits
            res.cache_misses += cache.misses
            res.cache_regions_held += cache.regions_held
        if server.admission is not None:
            res.admission.extend(server.admission.report())
    counters = [f.counters for f in files.values()]
    res.io_ops = sum(c.io_ops for c in counters) / n
    res.request_desc_bytes = sum(c.request_desc_bytes for c in counters) / n
    res.resent_bytes = sum(c.resent_bytes for c in counters) / n
    res.accessed_bytes = sum(c.accessed_bytes for c in counters) / n
    res.paper_ops = cell.paper_ops
    if cell.weights and res.completed:
        per_rep = workload.bytes_per_client_per_rep()
        for i, w in enumerate(cell.weights):
            ranks = workload.tenant_ranks(i)
            nbytes = sum(per_rep * workload.repetitions_for(r) for r in ranks)
            makespan = max(rank_times[r][1] for r in ranks) - t0
            res.tenants[f"t{i}"] = (w, nbytes, makespan)


# ----------------------------------------------------------------------
# correctness: write -> read-back with real bytes at reduced geometry
# ----------------------------------------------------------------------
def _seeded(seed: int, rank: int, rep: int, nbytes: int) -> np.ndarray:
    rng = np.random.default_rng([seed, rank, rep])
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


def roundtrip(cell: Cell, seed: int) -> int:
    """Move seeded random bytes through the cell's method and back.

    A write cell writes with its method and reads back with
    ``datatype_io``; a read cell is written with ``datatype_io`` and read
    back with its method.  Runs the reduced geometry under the cell's
    configuration (faults and tenants included).  Returns the number of
    (rank, repetition) buffers compared; raises ``AssertionError`` on
    the first mismatch.
    """
    workload, env, fs, mpi, types = build_cell(cell, "reduced", seed)
    if workload.is_write:
        write_m, read_m = cell.method, "datatype_io"
    else:
        write_m, read_m = "datatype_io", cell.method
    checked: list[int] = []

    def entry(f, method, is_write):
        if get_method(method).collective:
            return f.write_at_all if is_write else f.read_at_all
        return f.write_at if is_write else f.read_at

    def rank_main(ctx):
        f = yield from File.open(ctx, workload.path, Hints())
        etype, ftype, mtype, mcount, disps = types[ctx.rank]
        need = mtype.extent * (mcount - 1) + mtype.true_ub
        mem = mtype.flatten(mcount)
        bufs = [_seeded(seed, ctx.rank, rep, need) for rep in range(len(disps))]
        write = entry(f, write_m, True)
        for disp, buf in zip(disps, bufs):
            f.set_view(disp, etype, ftype)
            yield from write(0, mtype, mcount, buf, method=write_m)
        yield from ctx.comm.barrier()
        read = entry(f, read_m, False)
        for rep, (disp, buf) in enumerate(zip(disps, bufs)):
            back = np.zeros(need, dtype=np.uint8)
            f.set_view(disp, etype, ftype)
            yield from read(0, mtype, mcount, back, method=read_m)
            if not np.array_equal(mem.gather(back), mem.gather(buf)):
                raise AssertionError(
                    f"{cell.label}: rank {ctx.rank} rep {rep}: bytes read "
                    f"back with {read_m} differ from those written with "
                    f"{write_m}"
                )
            checked.append(1)
        yield from ctx.comm.barrier()

    mpi.run(rank_main)
    expected = sum(len(t[4]) for t in types.values())
    if len(checked) != expected:
        raise AssertionError(
            f"{cell.label}: compared {len(checked)} of {expected} buffers"
        )
    return len(checked)
