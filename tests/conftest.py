"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.bench.characteristics import METHOD_ORDER
from repro.regions import Regions

# ----------------------------------------------------------------------
# the method × scheduler matrix
# ----------------------------------------------------------------------
#: Every access method, in the canonical bench order — the five
#: independent paths plus collective datatype I/O.
ALL_METHODS = tuple(METHOD_ORDER)

#: Methods reachable through ``read_at``/``write_at`` (independent
#: calls).  Two-phase and collective datatype I/O are collective-only.
INDEPENDENT_READ_METHODS = ("posix", "data_sieving", "list_io", "datatype_io")
INDEPENDENT_WRITE_METHODS = ("posix", "list_io", "datatype_io")

#: Methods reachable through ``read_at_all``/``write_at_all``.
COLLECTIVE_METHODS = ("two_phase", "collective_dtype")

#: Server scheduler configurations every cross-cutting matrix covers:
#: the serial daemon loop and the threaded stage pipeline.
SCHEDULERS = {"serial": {}, "threaded": {"server_threads": 4}}


@pytest.fixture(
    params=[
        pytest.param((m, cfg), id=f"{m}-{name}")
        for m in ALL_METHODS
        for name, cfg in SCHEDULERS.items()
    ]
)
def method_scheduler(request):
    """``(method, config_kwargs)`` across all six methods × both
    schedulers — the shared matrix for cross-cutting identity tests.

    The config kwargs splat into ``PVFSConfig`` (empty for the serial
    scheduler, ``server_threads=4`` for the threaded one).
    """
    return request.param


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def region_lists(draw, max_regions=20, max_offset=10_000, max_len=500):
    """Arbitrary (possibly overlapping, unordered) region pair lists."""
    n = draw(st.integers(0, max_regions))
    pairs = []
    for _ in range(n):
        off = draw(st.integers(0, max_offset))
        ln = draw(st.integers(1, max_len))
        pairs.append((off, ln))
    return pairs


@st.composite
def sorted_region_lists(draw, max_regions=20):
    """Disjoint ascending regions (a valid file access)."""
    n = draw(st.integers(0, max_regions))
    pairs = []
    cursor = 0
    for _ in range(n):
        gap = draw(st.integers(0, 50))
        ln = draw(st.integers(1, 100))
        pairs.append((cursor + gap, ln))
        cursor += gap + ln
    return pairs


@st.composite
def list_io_ops(draw, strip_size, n_servers, max_ops=8):
    """List I/O operations over disjoint file regions (pair lists).

    Each operation is fresh (1–5 regions in any order, some crossing
    strips or spanning several servers), empty, or a repeat of the
    previous one a whole number of stripe rows further on, so it
    touches the same server set.
    """
    period = strip_size * n_servers
    ops = []
    prev = None  # (base, relative pairs) of the last non-empty op
    cursor = 0
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "empty"]))
        if kind == "empty":
            ops.append([])
            continue
        if kind == "repeat" and prev is not None:
            base = -(-cursor // period) * period + prev[0] % period
            rel = prev[1]
        else:
            rel, r = [], 0
            for _ in range(draw(st.integers(1, 5))):
                r += draw(st.integers(0, 2 * strip_size))
                ln = draw(st.integers(1, 3 * strip_size))
                rel.append((r, ln))
                r += ln
            rel = draw(st.permutations(rel))
            base = cursor + draw(st.integers(0, period))
        ops.append([(base + o, ln) for o, ln in rel])
        cursor = base + max(o + ln for o, ln in rel)
        prev = (base, rel)
    return ops


@st.composite
def small_datatypes(draw, depth=0):
    """Recursively built derived datatypes with small footprints."""
    from repro.datatypes import (
        BYTE,
        DOUBLE,
        INT,
        SHORT,
        contiguous,
        hvector,
        indexed,
        resized,
        struct,
        vector,
    )

    if depth >= 2:
        return draw(st.sampled_from([BYTE, SHORT, INT, DOUBLE]))
    base = st.deferred(lambda: small_datatypes(depth + 1))
    choice = draw(st.integers(0, 6))
    old = draw(base)
    if choice == 0:
        return draw(st.sampled_from([BYTE, SHORT, INT, DOUBLE]))
    if choice == 1:
        return contiguous(draw(st.integers(0, 4)), old)
    if choice == 2:
        return vector(
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
            draw(st.integers(-4, 6)),
            old,
        )
    if choice == 3:
        return hvector(
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
            draw(st.integers(-40, 60)),
            old,
        )
    if choice == 4:
        n = draw(st.integers(0, 3))
        bls = [draw(st.integers(0, 3)) for _ in range(n)]
        disps = [draw(st.integers(0, 10)) for _ in range(n)]
        return indexed(bls, disps, old)
    if choice == 5:
        n = draw(st.integers(1, 3))
        bls = [draw(st.integers(0, 2)) for _ in range(n)]
        disps = sorted(draw(st.integers(0, 100)) for _ in range(n))
        types = [draw(base) for _ in range(n)]
        return struct(bls, disps, types)
    # resized
    lb = draw(st.integers(-8, 8))
    extent = draw(st.integers(0, 64))
    return resized(old, lb, extent)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_regions(pairs) -> Regions:
    return Regions.from_pairs(pairs)


# ----------------------------------------------------------------------
# shared assertions
# ----------------------------------------------------------------------
def assert_bit_identical(on, off):
    """Two bench RunResults must agree on every simulated quantity.

    Exact float equality, not approx — the shared acceptance bar of the
    observability/fault subsystems: enabling a purely-observing feature
    (tracing, metrics, an inert fault config) may not move the
    simulation by a single ULP.
    """
    import dataclasses

    assert on.elapsed == off.elapsed
    assert on.io_ops == off.io_ops
    assert on.accessed_bytes == off.accessed_bytes
    assert on.resent_bytes == off.resent_bytes
    assert on.request_desc_bytes == off.request_desc_bytes
    assert on.server_stats == off.server_stats
    assert on.pipeline.total.as_dict() == off.pipeline.total.as_dict()
    assert dataclasses.asdict(on.network) == dataclasses.asdict(off.network)
