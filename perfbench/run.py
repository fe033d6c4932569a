"""The gpaley benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, every metric

Runs one workload (scan, large-q or paper; see workloads.py) for about
``--seconds`` seconds.  Each repeat is a fresh interpreter (worker.py), so
gpaley's in-process caches start cold in every repeat, as they do for a CLI
user.  A repeat starts only when it is expected to end within ``--seconds``,
so a run measures as many whole repeats as fit, and at least one.

End-to-end metrics (``--trace 0``), medians over the repeats:

  wall_s        seconds of the timed phase, first call to last checked result
  counts_per_s  checked work units per second (scan: admissible q scanned,
                large-q: clique counts, paper: acceptance checks passed)
  peak_rss_mb   ru_maxrss of the repeat's process
  ops_ok_frac   share of attempted ops that returned a correct output; an op
                that raised (MemoryError, GPaleyError, ...) or returned a wrong
                value is failed
  setup_s       importing gpaley and generating the inputs

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of tracing.py: calls and self time per gpaley function,
the peak traced allocation of the K4 subgraph count, the share of zeros a
second route counted, and trace.overhead_s, the traced minus the untraced
wall_s.  The spans of the last traced repeat go to out/spans-<workload>.jsonl
and every run's figures, seed and versions to out/result-<workload>.json.

The last line of output is one JSON object with correct, attempted, failed
and metrics.  A wrong output prints correct: false and exits 1; a repeat
that crashes or overruns exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# a run must end within 180 s; no repeat may start or run past this
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "counts_per_s": "1/s", "peak_rss_mb": "MiB",
                    "ops_ok_frac": "ratio", "setup_s": "s"}


class RepeatFailed(Exception):
    """A repeat crashed, overran or printed no result."""


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), (".peak_mb", "MiB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def run_repeat(workload: str, seed: int, trace: int, timeout: float,
               spans: str | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepeatFailed(f"{workload} repeat overran {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(f"{workload} repeat exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RepeatFailed(f"{workload} repeat printed no result") from exc


def measure(workload: str, seed: int, seconds: float, trace: int):
    """Untraced repeats (with trace, each followed by a traced one) for as
    long as the next is expected to end within ``seconds``; at least one."""
    t0 = time.perf_counter()
    plain, traced = [], []
    spans = os.path.join(OUT, f"spans-{workload}.jsonl")
    while True:
        plain.append(run_repeat(workload, seed, 0, RUN_LIMIT_S - (time.perf_counter() - t0)))
        if trace:
            traced.append(run_repeat(workload, seed, 1,
                                     RUN_LIMIT_S - (time.perf_counter() - t0), spans))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


def end_to_end(plain: list[dict]) -> dict[str, float]:
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "counts_per_s": statistics.median(r["units"] / r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ops_ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    plain, traced = measure(workload, seed, seconds, trace)
    repeats = plain + traced
    metrics = {name: (value, END_TO_END_UNITS[name])
               for name, value in end_to_end(plain).items()}
    if trace:
        metrics.update((name, (value, layer_unit(name)))
                       for name, value in per_layer(plain, traced).items())
    env = plain[0]["env"]
    print(f"# {workload}: seed={seed} repeats={len(plain)}+{len(traced)} traced "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    print(f"{workload} ops_failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops; the result line carries ops_ok_frac)")
    seen = set()
    for row in (row for r in repeats for row in r["rows"]):
        if row["status"] != "ok" and (row["op"], row["status"]) not in seen:
            seen.add((row["op"], row["status"]))
            print(f"{workload} failed op [{row['status']}] {row['op']}: "
                  f"{row['error'] or 'wrong output'}")
    result = {
        "workload": workload, "seed": seed, "env": env, "metrics": metrics,
        "correct": not any(r["wrong"] for r in repeats),
        "attempted": attempted,
        "failed": failed,
        "repeats": [{key: r[key] for key in ("setup_s", "wall_s", "peak_rss_mb",
                                              "attempted", "failed", "units")}
                    | {"traced": "layers" in r} for r in repeats],
        "rows": plain[-1]["rows"],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 1 and both for --workload all, else 0)")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "gpaley")):
        print(f"no gpaley sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    single = args.workload != "all"
    trace = args.trace if args.trace is not None else int(not single)
    try:
        results = [run_workload(w, args.seed, args.seconds, trace)
                   for w in ([args.workload] if single else WORKLOADS)]
    except RepeatFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        for name, (value, unit) in res["metrics"].items():
            if single and trace and name in END_TO_END_UNITS:
                continue            # a traced run reports the per-layer set
            key = name if single else f"{res['workload']}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    correct = all(res["correct"] for res in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": sum(res["failed"] for res in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
