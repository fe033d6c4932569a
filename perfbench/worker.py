"""One repeat of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload scan --seed 1 --trace 0

Prints one JSON line: set-up and timed-phase seconds, peak RSS, one row per
checked output, and with ``--trace 1`` the per-layer metrics.  Started by
``run.py``; a repeat never shares a process, so no gpaley cache is warm.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

# each repeat runs under this address-space cap, so a dense intermediate
# that would not fit fails as MemoryError instead of exhausting the machine
ADDRESS_SPACE_CAP = 3 << 30


def tally(rows: list[dict]) -> dict:
    """attempted, failed (raised or wrong), wrong and units of a run's rows.

    A row is {"op", "status": "ok" | "wrong" | "error", "units", "error"};
    only ok rows count their units."""
    return {
        "attempted": len(rows),
        "failed": sum(row["status"] != "ok" for row in rows),
        "wrong": sum(row["status"] == "wrong" for row in rows),
        "units": sum(row["units"] for row in rows if row["status"] == "ok"),
    }


def run_op(op) -> list[dict]:
    """Run one operation; a raise charges every row the op would report."""
    try:
        outcomes = op.run()
    except Exception as exc:   # each op fails alone; its row keeps the type
        traceback.print_exc(file=sys.stderr)
        return [{"op": op.label, "status": "error", "units": 0,
                 "error": f"{type(exc).__name__}: {str(exc)[:200]}"}] * op.rows
    return [{"op": label, "status": "ok" if correct else "wrong",
             "units": units, "error": None}
            for label, correct, units in outcomes]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the spans here (traced runs)")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy
    import gpaley  # noqa: F401
    import gpaley.cli  # noqa: F401  (binds names the tracer must patch)
    import gpaley.verify  # noqa: F401
    import workloads
    ops = workloads.make_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    rows = []
    t0 = time.perf_counter()
    for op in ops:
        rows.extend(run_op(op))
    wall_s = time.perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rows": rows,
        **tally(rows),
        "env": {"seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
