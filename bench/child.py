"""One segment of a workload run in one fresh process: set up, time passes, then check them.

Segment k of K runs passes k, k + K, k + 2K, ... so the segments of a run
together cover passes 0, 1, 2, ... Prints `ready` once set-up is done
(run.py times process start to that line as set-up), then a JSON result as
the last line. Run it through run.py, which passes the checkout's `src` as
--src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

WARM_UP_PASS = 10**6  # an input stream no run reaches


def _import_package(src: Path) -> None:
    sys.path.insert(0, str(src))
    import lambda_holo

    where = Path(lambda_holo.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"lambda_holo imported from {where}, not from {src}")


def _speed_probe():
    """A fixed kernel of numpy and interpreter work that runs no lambda_holo code.

    It is timed before every pass. On a shared host the machine's speed drifts
    by up to 2x over minutes; run.py divides the pass times by this kernel's
    median time, which drifts with them. A change to the program cannot move
    the kernel, which is benchmark code.
    """
    import numpy as np

    import reference

    rng = np.random.default_rng(0)
    w0, w1 = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000) for _ in range(2))

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(5):
            reference.ordered_product(reference.step_exponentials(w0, w1, 1e-3))
        {str(i): f"{i * 0.5:.6g}" for i in range(10000)}
        return time.perf_counter() - t0

    return probe


def _timed_pass(workload, specs):
    """Call every point once. Returns (pass wall s, per-point s, outputs or exceptions)."""
    clock = time.perf_counter
    lat, outs = [], []
    t0 = clock()
    for spec in specs:
        t = clock()
        try:
            out = workload.call(spec)
        except Exception as exc:  # a point that raises is a failed row, not a crash
            out = exc
        lat.append(clock() - t)
        outs.append(out)
    return clock() - t0, lat, outs


def _rows(workload, spec, out):
    """The point's fidelities, or None if it raised or its output is malformed."""
    if isinstance(out, Exception):
        return None
    try:
        rows = workload.rows(spec, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"row check failed for {spec!r}: {exc}", file=sys.stderr)
        return None
    if len(rows) != workload.rows_per_point or not all(0.0 <= f <= 1.0 + 1e-9 for f in rows):
        return None
    return rows


def _reference_path(seed: int) -> Path:
    return Path(__file__).resolve().parent / f"reference_seed{seed}.json"


def _digest(specs) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def _stored_reference(name: str, seed: int, tiny: bool) -> list:
    """Per pass: {"inputs": digest of the pass inputs, "reference": [rows per point]}."""
    path = _reference_path(seed)
    if tiny or not path.exists():
        return []
    return json.loads(path.read_text())["workloads"].get(name, [])


def _write_reference(workload, seed: int) -> None:
    path = _reference_path(seed)
    data = json.loads(path.read_text()) if path.exists() else {"seed": seed, "workloads": {}}
    stored = []
    for i in range(workload.checked_passes):
        specs = workload.inputs(seed, i)
        stored.append(
            {"inputs": _digest(specs), "reference": [workload.reference(s) for s in specs]}
        )
    data["workloads"][workload.name] = stored
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0, help="measured time of this segment")
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument(
        "--write-reference", action="store_true", help="store the checked passes' reference"
    )
    args = p.parse_args(argv)

    _import_package(args.src)
    import numpy as np
    from lambda_holo import cli

    import workloads
    import tracing

    cli.build_parser()  # a real process pays this once
    workload = workloads.make(args.workload, tiny=args.tiny)
    if args.write_reference:
        _write_reference(workload, args.seed)
        return 0
    pass_ids = range(args.segment, 10**6, args.segments)
    specs = workload.inputs(args.seed, pass_ids[0])
    # warm numpy and the package on a point from a stream no pass uses
    warm = workload.inputs(args.seed, WARM_UP_PASS)[0]
    workload.rows(warm, workload.call(warm))
    print("ready", flush=True)
    probe = _speed_probe()
    probe()  # the first call pays for numpy's lazy set-up

    # -- measured region: only _timed_pass is timed ------------------------
    walls, p50s, p95s, probes, traced_walls = [], [], [], [], []
    checked = []  # (pass id, specs, rows) of the passes checked against the reference
    tracer = tracing.Tracer()
    n_pass = attempted = failed = 0
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    while n_pass == 0 or time.perf_counter() - start < budget:
        pass_id = pass_ids[n_pass]
        if n_pass:
            specs = workload.inputs(args.seed, pass_id)
        probes.append(probe())
        wall, point_lat, outs = _timed_pass(workload, specs)
        walls.append(wall)
        pct = statistics.quantiles(point_lat, n=100, method="inclusive")
        p50s.append(pct[49])
        p95s.append(pct[94])
        # keep fidelities only, so the outputs neither add to peak RSS nor slow the GC
        rows = [_rows(workload, spec, out) for spec, out in zip(specs, outs)]
        del outs
        if args.trace:
            with tracer.installed():
                twall, _, touts = _timed_pass(workload, specs)
            traced_walls.append(twall)
            # tracing must not change a result
            trows = [_rows(workload, spec, out) for spec, out in zip(specs, touts)]
            failed += sum(a != b for a, b in zip(rows, trows)) * workload.rows_per_point
            del touts
        attempted += len(rows) * workload.rows_per_point
        failed += sum(r is None for r in rows) * workload.rows_per_point
        if pass_id < workload.checked_passes:
            checked.append((pass_id, specs, rows))
        n_pass += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # -- end of measured region --------------------------------------------

    stored = _stored_reference(workload.name, args.seed, args.tiny)
    errs = []  # |fidelity - reference| of every checked row
    for pass_id, specs, rows in checked:
        have = stored[pass_id] if pass_id < len(stored) else None
        if have is not None and have["inputs"] != _digest(specs):
            raise SystemExit(f"stored reference for seed {args.seed} does not match pass {pass_id}")
        for j, (spec, got) in enumerate(zip(specs, rows)):
            if got is not None:
                ref = have["reference"][j] if have is not None else workload.reference(spec)
                bad, e = workloads.check(got, ref)
                failed += bad
                errs.extend(e)

    result = {
        "attempted": attempted,
        "failed": failed,
        "points_per_pass": len(specs),
        "checked_passes": len(checked),
        "checked_rows": len(errs),
        "err_max": max(errs, default=None),
        "tolerance": workloads.TOL,
        "numpy": np.__version__,
    }
    if args.trace:
        metrics = tracer.metrics(len(traced_walls))
        metrics["trace.passes"] = (len(traced_walls), "count")
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls),
            "s",
        )
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["computed"] = [m for m in tracing.COMPUTED if m in metrics]
    else:
        result.update(walls=walls, p50s=p50s, p95s=p95s, probes=probes, peak_rss_mb=peak_rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main())
