"""lambda-holo benchmark: end-to-end time, accuracy and memory, and a traced per-layer split.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fig1-scan --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced and traced

Workloads (bench/workloads.py):
  fig1-scan      sweeps.duration_average_sweep, one log-uniform tau in 1-100 ns per call
  point-stream   cli.run on independent random single points, output captured in memory

An untraced run is SEGMENTS fresh single-threaded processes in turn
(bench/child.py), each importing lambda_holo from this checkout's `src` and
measuring for seconds / SEGMENTS; a traced run is one such process. Each
process's set-up is timed from its start to its first timed call. Reported
times are medians scaled to a fixed machine speed by a speed probe timed
before every pass (see PROBE_REF_S); the summary prints the measured medians
beside them.

The last line of output is one JSON object: correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones from a traced run. Exits 1 without a result if the package is missing,
a child fails, or the run would exceed its time limit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("fig1-scan", "point-stream")
# Reported times are at the machine speed where the speed probe takes this long;
# "scale" in the summary converts them back to measured times.
PROBE_REF_S = 0.020
SEGMENTS = 8  # fresh processes per untraced run, each timed from start to its first timed call
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run child.py; returns (seconds from spawn to its `ready` line, rest of stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next process")
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{' '.join(args)}: exited with {code} before a result")
    return setup, rest


def run_segments(name, seed, seconds, trace, tiny, deadline):
    """The run's fresh processes in turn. Returns [(set-up s, child result)]."""
    k = 1 if trace else SEGMENTS
    base = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    base += ["--seconds", repr(seconds / k), "--segments", str(k)] + (["--tiny"] if tiny else [])
    out = []
    for i in range(k):
        setup, stdout = _spawn(base + ["--segment", str(i)], deadline)
        out.append((setup, json.loads(stdout.strip().splitlines()[-1])))
    return out


def summarize(name, seed, seconds, trace, segments, loadavg):
    """(result dict, summary lines) from the segments of one run."""
    setups = [setup for setup, _ in segments]
    parts = [part for _, part in segments]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    errs = [p["err_max"] for p in parts if p["err_max"] is not None]
    first = parts[0]
    notes = {}
    if trace:
        metrics = first["metrics"]
        notes.update({m: "computed" for m in first["computed"]})
        notes["trace.passes"] = "per-layer values are per traced pass"
    else:
        walls = [w for p in parts for w in p["walls"]]
        p50s = [x for p in parts for x in p["p50s"]]
        p95s = [x for p in parts for x in p["p95s"]]
        probe = statistics.median(p for part in parts for p in part["probes"])
        # Timings are medians scaled to a fixed machine speed: on a shared host the
        # speed drifts by up to 2x over minutes. child.py times a fixed kernel before
        # every pass; over 30 s windows the median pass time drifted by 28% (max/min)
        # while its ratio to the kernel's median drifted by 10%.
        scale = PROBE_REF_S / probe
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "wall_s": (statistics.median(walls) * scale, "s"),
            "point_ms.p50": (statistics.median(p50s) * scale * 1e3, "ms"),
            "point_ms.p95": (statistics.median(p95s) * scale * 1e3, "ms"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
            # 1.0, the largest error a fidelity can have, when no row could be checked
            "fidelity_err_max": (max(errs, default=1.0), "abs"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        per_pass = f"{first['points_per_pass']} points per pass"
        raw = "measured"
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes; {raw} "
            f"{statistics.median(setups):.6g} s",
            "wall_s": f"median of {len(walls)} passes; {raw} {statistics.median(walls):.6g} s",
            "point_ms.p50": f"median over passes, {per_pass}; {raw} "
            f"{statistics.median(p50s) * 1e3:.6g} ms",
            "point_ms.p95": f"median over passes, {per_pass}; {raw} "
            f"{statistics.median(p95s) * 1e3:.6g} ms",
            "peak_rss_mb": f"largest ru_maxrss of {len(parts)} processes",
            "fidelity_err_max": f"{sum(p['checked_rows'] for p in parts)} rows of "
            f"{sum(p['checked_passes'] for p in parts)} passes checked, tolerance "
            f"{first['tolerance']:g}",
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}"
        + (f"  set-up {setups[0]:.3f} s" if trace else f"  speed probe {probe * 1e3:.4g} ms, times scaled x {scale:.4g}"),
        f"machine  nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {first['numpy']}  loadavg at start {' '.join(f'{x:.2f}' for x in loadavg)}",
    ]
    for key, m in metrics.items():
        lines.append(f"  {key:<28} {m['value']:<14.6g} {m['unit']:<6} {notes.get(key, '')}")
    lines.append(
        f"  {'failed_frac':<28} {failed / attempted:<14.6g} {'1':<6} "
        f"{failed} of {attempted} rows"
    )
    lines.append(f"  correct {str(result['correct']).lower()}")
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few points per pass, for the smoke test")
    args = p.parse_args(argv)

    if not (SRC / "lambda_holo" / "__init__.py").is_file():
        print(f"no lambda_holo package under {SRC}", file=sys.stderr)
        return 1
    compileall.compile_dir(str(SRC), quiet=1)  # set-up then times a warm import

    loadavg = os.getloadavg()
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    try:
        for name, trace in runs:
            deadline = time.monotonic() + TIME_LIMIT_S
            segments = run_segments(name, args.seed, args.seconds, trace, args.tiny, deadline)
            result, lines = summarize(name, args.seed, args.seconds, trace, segments, loadavg)
            print("\n".join(lines), flush=True)
            results[(name, trace)] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        final = results[(args.workload, args.trace)]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                name: {k: v for t in (0, 1) for k, v in results[(name, t)]["metrics"].items()}
                for name in WORKLOADS
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
