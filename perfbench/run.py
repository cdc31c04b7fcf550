"""The repository benchmark: simulator host cost and simulated bandwidth.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload indep_read --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats untraced passes over the workload's paper-scale
cells until ``--seconds`` have gone by (at least one pass), checks the
outputs, and reports the end-to-end metrics.  ``--trace 1`` runs
untraced and traced passes in pairs for ``--seconds`` (at least one
pair), checks that all of them simulate exactly the same thing, and
reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Provenance (seed, fault presets, versions, ``git describe``, events per
cell, per-layer wall shares) and, with ``--trace 1``, the span record
are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy  # noqa: F401
        import repro

        if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"repro found outside this checkout: {repro.__file__}")
        from perfbench import session
    except ImportError as exc:
        print(
            f"perfbench: cannot import the simulator ({exc}); run this "
            "from the root of a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload not in session.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(session.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    if args.trace:
        result, prov = session.traced_run(
            args.workload, args.seed, "paper", args.seconds
        )
    else:
        result, prov = session.untraced_run(
            args.workload, args.seed, "paper", args.seconds
        )
    prov["git_describe"] = session.git_describe(ROOT)
    spans = prov.pop("spans", None)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        # one span file per workload (the latest traced run): tens of MB
        spans.save(OUT_DIR / f"{args.workload}-spans.npz")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=2) + "\n"
    )
    for line in session.render(prov):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
