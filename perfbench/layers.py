"""Layer wrappers for the traced run: one in-memory span per wrapped call.

:func:`install` patches each layer's public entry points (the table in
:data:`ENTRY_POINTS`) with a thin timing wrapper and returns a
:class:`SpanRecorder`; :func:`uninstall` restores the originals.  Every
wrapped call appends one span -- name, host start, host end, parent
span (from a call stack) and cell id -- to flat arrays, and nothing
else happens on the hot path.  Self times, call counts and layer
shares are derived afterwards from the span arrays alone.

Generators (the simulator's processes and ``yield from`` sub-steps) are
timed per resumption: calling a generator function records one short
``call`` span for creating the generator, and each ``send``/``throw``
into it records a ``resume`` span.  Simulated waits therefore never
count as host time, and nesting through ``yield from`` still gives the
right parent, because the delegating generator's resumption is on the
stack while the delegate runs.

Functions imported with ``from x import f`` are bound in the importing
module, so a module-level function is patched in every loaded
``repro`` module that holds a reference to it.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

from repro.dataloops import builder as _builder
from repro.datatypes.base import Datatype
from repro.mpiio.file import File
from repro.pvfs import pipeline as _pipeline
from repro.pvfs.client import PVFSClient
from repro.pvfs.distribution import Distribution
from repro.pvfs.expand_cache import ExpansionCache
from repro.regions.core import Regions
from repro.simulation.engine import Environment, Timeout
from repro.simulation.network import Network
from repro.storage.block_store import BlockStore
from repro.storage.disk_model import DiskModel

__all__ = [
    "ENTRY_POINTS",
    "LAYERS",
    "NO_CELL",
    "SpanRecorder",
    "entry_name",
    "install",
    "uninstall",
]

_GEN = types.GeneratorType

_ALL = ("indep_read", "dtype_write", "faulted_write", "tenant_read")
_COLL = ("dtype_write", "faulted_write")
_SHIPPED = ("indep_read", "faulted_write")  # list I/O ships regions
_TENANT = ("tenant_read",)

#: (layer, owner, attribute, workloads whose traced run must call it).
#: An owner is a class or the module that defines a function.  Entry
#: points no workload reaches (``Network.request_response``,
#: ``File.read_at_all``, most of ``Regions``) are left unwrapped, so
#: every wrapper is proven live.  The real-byte storage calls
#: (``BlockStore.*_regions``) come from the read-back check.
ENTRY_POINTS: tuple[tuple[str, object, str, tuple[str, ...]], ...] = (
    ("engine", Environment, "run", _ALL),
    ("engine", Environment, "call_later", _ALL),
    ("engine", Timeout, "cancel", ("faulted_write",)),
    ("network", Network, "send", _ALL),
    ("client", PVFSClient, "read_list", ("indep_read",)),
    ("client", PVFSClient, "write_list", ("faulted_write",)),
    ("client", PVFSClient, "read_dtype", _COLL + _TENANT),
    ("client", PVFSClient, "write_dtype", ("indep_read", "dtype_write") + _TENANT),
    ("client", PVFSClient, "coll_send_segment", _COLL),
    ("client", PVFSClient, "coll_post", _COLL),
    ("client", PVFSClient, "coll_finish", ("dtype_write",)),
    ("client", PVFSClient, "coll_complete", ("faulted_write",)),
    ("client", PVFSClient, "coll_gate", ("faulted_write",)),
    ("pipeline", _pipeline.RequestHandler, "decode", _ALL),
    ("pipeline", _pipeline._ShippedRegionsHandler, "plan", _SHIPPED),
    ("pipeline", _pipeline.DatatypeHandler, "plan", _ALL),
    ("pipeline", _pipeline.CollectiveHandler, "decode", _COLL),
    ("pipeline", _pipeline.CollectiveHandler, "plan", _COLL),
    ("pipeline", _pipeline, "preplan_collective", _COLL),
    ("pipeline", _pipeline, "move_data", _ALL),
    ("admission", _pipeline.TenantAdmission, "enqueue", _TENANT),
    ("admission", _pipeline.TenantAdmission, "next", _TENANT),
    ("expand_cache", ExpansionCache, "expand", _ALL),
    ("distribution", Distribution, "split", _ALL),
    ("mpiio", File, "read_at", _ALL),
    ("mpiio", File, "write_at", _ALL),
    ("mpiio", File, "write_at_all", _COLL),
    ("dataloops", _builder, "build_dataloop", _ALL),
    ("datatypes", Datatype, "flatten", _ALL),
    *(
        ("regions", Regions, name, _ALL)
        for name in (
            "coalesce",
            "concat",
            "empty",
            "extent",
            "gather",
            "scatter",
            "shift",
            "tile",
        )
    ),
    ("regions", Regions, "normalized", _COLL),
    ("regions", Regions, "slice_stream", _COLL),
    ("regions", Regions, "split_at_stream", _SHIPPED),
    ("storage", DiskModel, "access_time", _ALL),
    ("storage", BlockStore, "note_read", ("indep_read", "tenant_read")),
    ("storage", BlockStore, "note_write", _COLL),
    ("storage", BlockStore, "read_regions", _ALL),
    ("storage", BlockStore, "write_regions", _ALL),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


def entry_name(owner, attr: str) -> str:
    """Span name of an entry point: ``Class.method`` or ``function``."""
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


#: cell id given to spans recorded outside any cell
NO_CELL = 0xFFFF


class SpanRecorder:
    """Flat span arrays plus the call stack that assigns parents."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("H")
        self.cell_id = NO_CELL
        self._stack = [-1]

    # -- naming -------------------------------------------------------
    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    # -- hot path -----------------------------------------------------
    def wrap(self, fn, name: str, layer: str):
        call_id = self.register(name, layer)
        resume_id = self.register(name + "#resume", layer)
        name_id, start, end = self.name_id, self.start, self.end
        parent, cell, stack = self.parent, self.cell, self._stack
        rec = self

        def timed_gen(gen):
            value = None
            exc = None
            while True:
                sid = len(start)
                name_id.append(resume_id)
                parent.append(stack[-1])
                cell.append(rec.cell_id)
                end.append(0.0)
                stack.append(sid)
                start.append(perf_counter())
                try:
                    if exc is None:
                        out = gen.send(value)
                    else:
                        out, exc = gen.throw(exc), None
                except StopIteration as stop:
                    end[sid] = perf_counter()
                    stack.pop()
                    return stop.value
                except BaseException:
                    end[sid] = perf_counter()
                    stack.pop()
                    raise
                end[sid] = perf_counter()
                stack.pop()
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as e:
                    exc = e

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(call_id)
            parent.append(stack[-1])
            cell.append(rec.cell_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if type(out) is _GEN:
                inner = out
                out = timed_gen(inner)
                out.__name__ = inner.__name__
                out.__qualname__ = inner.__qualname__
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- read side ----------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The span record as numpy arrays (``dur`` and ``self`` derived)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint32),
            "start": start,
            "end": end,
            "parent": parent,
            "cell": np.frombuffer(self.cell, dtype=np.uint16),
            "dur": dur,
            "self": dur - child[: dur.size],
        }

    def table(self, cells=None) -> dict[str, dict]:
        """Per entry point: ``calls`` (call spans), ``spans`` (calls plus
        resumptions) and ``self_s``; restricted to ``cells`` if given."""
        a = self.arrays()
        keep = (
            np.isin(a["cell"], np.asarray(list(cells), dtype=np.uint16))
            if cells is not None
            else np.ones(a["cell"].size, dtype=bool)
        )
        ids = a["name_id"][keep]
        n = len(self.names)
        spans = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=a["self"][keep], minlength=n)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            base = name.split("#", 1)[0]
            row = out.setdefault(
                base,
                {"layer": self.layer_of[i], "calls": 0, "spans": 0, "self_s": 0.0},
            )
            if base == name:
                row["calls"] += int(spans[i])
            row["spans"] += int(spans[i])
            row["self_s"] += float(self_s[i])
        return out

    def save(self, path) -> None:
        """Write the span record (``np.savez``) for offline analysis."""
        a = self.arrays()
        np.savez(
            path,
            names=np.asarray(self.names),
            layers=np.asarray(self.layer_of),
            **{k: a[k] for k in ("name_id", "start", "end", "parent", "cell")},
        )


_installed: list[tuple[object, str, object]] = []


def _call_sites(fn):
    """Every loaded ``repro`` module that binds ``fn`` at module level."""
    for modname, mod in list(sys.modules.items()):
        if modname.split(".", 1)[0] != "repro" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def install() -> SpanRecorder:
    """Wrap every entry point of :data:`ENTRY_POINTS`; returns the recorder."""
    if _installed:
        raise RuntimeError("layer wrappers are already installed")
    rec = SpanRecorder()
    for layer, owner, attr, _ in ENTRY_POINTS:
        name = entry_name(owner, attr)
        if isinstance(owner, type):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(rec.wrap(raw.__func__, name, layer))
            else:
                new = rec.wrap(raw, name, layer)
            _installed.append((owner, attr, raw))
            setattr(owner, attr, new)
        else:
            fn = getattr(owner, attr)
            new = rec.wrap(fn, name, layer)
            for mod, bound in _call_sites(fn):
                _installed.append((mod, bound, fn))
                setattr(mod, bound, new)
    return rec


def uninstall() -> None:
    """Restore every original entry point."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
