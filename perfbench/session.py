"""One benchmark run: untraced passes or an untraced + traced pair.

Both entry points return ``(result, provenance)``: ``result`` is the
object the CLI prints last (``correct``, ``attempted``, ``failed``,
``metrics``); ``provenance`` says how the numbers were produced.

``attempted`` counts simulated cells (paper-scale passes plus reduced
read-back checks); ``failed`` counts those whose outputs were wrong or
that raised something other than the typed simulated faults.  A cell
that ends in ``RetriesExhausted``/``ServerTimeout`` is a measured
outcome of the modelled cluster, reported by ``completed_frac``.
"""

from __future__ import annotations

import gc
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Optional

from repro.pvfs.errors import ServerTimeout

from . import layers
from .calibrate import SpeedProbe
from .cells import WORKLOADS, roundtrip, run_cell
from .measure import (
    E2E_UNITS,
    LAYER_UNITS,
    check_pass,
    e2e_metrics,
    git_describe,
    layer_metrics,
    provenance,
)

__all__ = [
    "WORKLOADS",
    "git_describe",
    "render",
    "traced_run",
    "untraced_run",
]


#: a fresh interpreter: imports, then builds every cell of a workload;
#: prints its set-up seconds from its first line, at the reference
#: speed (the probe's own construction and run time left out)
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
root, workload, seed, scale = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path[:0] = [root + "/src", root]
from perfbench.calibrate import SpeedProbe
t1 = time.perf_counter()
probe = SpeedProbe()
t2 = time.perf_counter()


def build():
    from perfbench.cells import WORKLOADS, build_cell

    for cell in WORKLOADS[workload]:
        build_cell(cell, scale, seed)


with probe:
    _, _, speed = probe.measure(build)
print((time.perf_counter() - t0 - (t2 - t1) - probe.overhead_s) * speed)
"""


def _setup_s(workload: str, seed: int, scale: str, launches: int) -> list[float]:
    """Scaled set-up seconds of ``launches`` fresh interpreters, in turn."""
    root = str(pathlib.Path(__file__).resolve().parent.parent)
    times = []
    for _ in range(launches):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, root, workload, str(seed), scale],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _scaled_wall(results, overhead_s: float, speed: float) -> float:
    """Wall of a measured pass at the reference speed: the cells' raw
    walls less their part of the probes' time (the probes fire evenly
    over the cells' set-up and simulation), times the speed factor."""
    wall = sum(c.wall_s for c in results)
    span = wall + sum(c.setup_s for c in results)
    return wall * (1.0 - overhead_s / span) * speed


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _check_roundtrips(cells, seed: int, problems: list[str]) -> int:
    """Reduced real-byte write -> read-back of every cell; returns the
    number of cells whose check failed."""
    failed = 0
    for cell in cells:
        try:
            roundtrip(cell, seed)
        except (AssertionError, ServerTimeout) as exc:
            problems.append(f"read-back {cell.label}: {exc}")
            failed += 1
    return failed


def _report(problems: list[str]) -> None:
    for p in problems:
        print(f"perfbench: problem: {p}", file=sys.stderr)


def untraced_run(
    workload: str, seed: int, scale: str, seconds: float, launches: int = 5
) -> tuple[dict, dict]:
    """Time ``launches`` fresh set-ups, then repeat untraced passes for
    ``seconds`` (at least one pass)."""
    cells = WORKLOADS[workload]
    passes = []
    scaled = []
    speeds = []
    setups = _setup_s(workload, seed, scale, launches)
    with SpeedProbe() as probe:
        t0 = perf_counter()
        while not passes or perf_counter() - t0 < seconds:
            gc.collect()
            p, overhead, speed = probe.measure(
                lambda: [run_cell(c, scale, seed) for c in cells]
            )
            passes.append(p)
            scaled.append(_scaled_wall(p, overhead, speed))
            speeds.append(speed)
    rss = _peak_rss_mb()
    problems = check_pass(passes[0])
    failed = len(problems)
    first = [c.sim_outputs() for c in passes[0]]
    for i, p in enumerate(passes[1:], 1):
        if [c.sim_outputs() for c in p] != first:
            problems.append(f"pass {i} did not replay pass 0 exactly")
            failed += len(cells)
    failed += _check_roundtrips(cells, seed, problems)
    _report(problems)
    result = {
        "correct": not problems,
        "attempted": len(cells) * (len(passes) + 1),
        "failed": failed,
        "metrics": _metrics(
            e2e_metrics(passes, scaled, statistics.median(setups), rss), E2E_UNITS
        ),
    }
    prov = provenance(workload, seed, passes[0], [c.faults for c in cells])
    prov.update(
        passes=len(passes),
        pass_wall_s=[sum(c.wall_s for c in p) for p in passes],
        pass_scaled_s=scaled,
        pass_speed=speeds,
        speed_factor=probe.speed,
        probes=len(probe.samples),
        setup_launch_s=setups,
        pass_setup_s=[sum(c.setup_s for c in p) for p in passes],
        problems=problems,
    )
    return result, prov


def _traced_cells(rec, cells, scale: str, seed: int):
    results = []
    for i, cell in enumerate(cells):
        rec.cell_id = layers.NO_CELL

        def start(i=i):
            rec.cell_id = i

        results.append(run_cell(cell, scale, seed, on_run=start))
    rec.cell_id = layers.NO_CELL
    return results


def traced_run(
    workload: str, seed: int, scale: str, seconds: float
) -> tuple[dict, dict]:
    """Untraced and traced passes in pairs, under one speed probe, for
    ``seconds`` (at least one pair); per-layer metrics.

    The layer split comes from the first traced pass, whose wrappers
    also see the read-back checks (they drive the real-byte storage
    path).  Tracing overhead and events per second compare the medians
    of the scaled pass walls; the pairs alternate their order, so that
    drift and first-pass warm-up fall on both sides alike.
    """
    cells = WORKLOADS[workload]
    passes: list[dict] = []
    problems: list[str] = []
    failed = 0
    first = None  # (results, recorder, probe seconds) of the first traced pass
    sim = None  # simulated outputs of the first pass
    with SpeedProbe() as probe:
        t0 = perf_counter()
        while first is None or perf_counter() - t0 < seconds:
            order = (False, True) if len(passes) % 4 == 0 else (True, False)
            for traced in order:
                gc.collect()
                if not traced:
                    results, overhead, speed = probe.measure(
                        lambda: [run_cell(c, scale, seed) for c in cells]
                    )
                else:
                    rec = layers.install()
                    try:
                        results, overhead, speed = probe.measure(
                            lambda: _traced_cells(rec, cells, scale, seed)
                        )
                        if first is None:
                            first = (results, rec, overhead)
                            rec.cell_id = len(cells)
                            failed += _check_roundtrips(cells, seed, problems)
                    finally:
                        rec.cell_id = layers.NO_CELL
                        layers.uninstall()
                outputs = [c.sim_outputs() for c in results]
                if sim is None:
                    sim = outputs
                elif outputs != sim:
                    kind = "traced" if traced else "untraced"
                    problems.append(
                        f"{kind} pass {len(passes)} simulated something else "
                        f"than pass 0: {outputs} != {sim}"
                    )
                    failed += len(cells)
                passes.append(
                    {
                        "traced": traced,
                        "wall_s": sum(c.wall_s for c in results),
                        "scaled_s": _scaled_wall(results, overhead, speed),
                        "speed": speed,
                    }
                )
    traced, rec, overhead = first
    traced_wall = sum(c.wall_s for c in traced)

    def median_scaled(kind: bool) -> float:
        return statistics.median(p["scaled_s"] for p in passes if p["traced"] == kind)

    table = rec.table(cells=range(len(cells)))
    # the probes fire inside spans, in proportion to the spans' time;
    # take their part out of every self time
    keep = 1.0 - overhead / (traced_wall + sum(c.setup_s for c in traced))
    for row in table.values():
        row["self_s"] *= keep
    everything = rec.table()
    for _, owner, attr, where in layers.ENTRY_POINTS:
        name = layers.entry_name(owner, attr)
        if workload in where and everything[name]["calls"] == 0:
            problems.append(f"wrapper {name} was never called")
    values = layer_metrics(traced, table, median_scaled(True), median_scaled(False))
    problems.extend(layer_problems(values, traced_wall, cells))
    _report(problems)
    result = {
        "correct": not problems,
        "attempted": len(cells) * (len(passes) + 1),
        "failed": failed,
        "metrics": _metrics(values, LAYER_UNITS),
    }
    prov = provenance(workload, seed, traced, [c.faults for c in cells])
    prov.update(
        passes=passes,
        speed_factor=probe.speed,
        probes=len(probe.samples),
        traced_wall_s=traced_wall,
        layer_share={
            layer: values[f"{layer}.self_s"] / traced_wall for layer in layers.LAYERS
        },
        entry_points={
            k: {"calls": v["calls"], "spans": v["spans"], "self_s": v["self_s"]}
            for k, v in sorted(table.items())
        },
        problems=problems,
        spans=rec,
    )
    return result, prov


def layer_problems(values: dict, traced_wall_s: float, cells) -> list[str]:
    """Invariants of the per-layer split."""
    problems = []
    total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if total > traced_wall_s:
        problems.append(
            f"layer self times sum to {total:.3f} s, more than the traced "
            f"wall {traced_wall_s:.3f} s"
        )
    if values["engine.self_s"] < 0:
        problems.append(f"engine.self_s is negative: {values['engine.self_s']}")
    if all(c.faults == "none" for c in cells):
        for k, v in values.items():
            if (k.startswith("faults.") or k == "engine.timers_cancelled") and v:
                problems.append(f"{k} = {v} on a workload without faults")
    return problems


def render(prov: dict) -> list[str]:
    """Human-readable provenance lines printed before the result."""
    lines = [
        f"perfbench {prov['workload']} seed={prov['seed']} "
        f"faults={','.join(prov['fault_presets'])} python={prov['python']} "
        f"numpy={prov['numpy']} git={prov.get('git_describe')}"
    ]
    for label, c in prov["cells"].items():
        status = "ok" if c["completed"] else c["error"].split(":")[0]
        lines.append(
            f"  {label}: {status}, {c['events']} events, "
            f"{c['server_requests']} server requests, "
            f"{c['sim_elapsed_s']:.6f} simulated s"
        )
    share: Optional[dict] = prov.get("layer_share")
    if share:
        lines.append(
            "  layer share of traced wall: "
            + ", ".join(f"{k} {v:.1%}" for k, v in share.items())
        )
    return lines
