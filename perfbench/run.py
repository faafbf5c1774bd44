"""Closed-loop benchmark of contactres: one client, one thread, whole passes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-suite --seed 0 --seconds 20 --trace 0

A run builds the workload's op list from the seed, makes one untimed
warm-up pass (its outputs are the reference for the determinism check),
then a fixed number of timed passes. The number of passes follows from
``--seconds`` and each workload's nominal pass time, never from a clock
read during the run, so every run of a workload times the same ops.

Machine-speed calibration: on a shared host the same pass can take twice
as long a minute later. After every op the run times a fixed pure-Python
reference slice (Fraction arithmetic and dict stores, the same kind of
work contactres does). Every time reported is the wall time measured,
multiplied by ``REF_SLICE_NOMINAL_S`` over the mean time of the slices
measured next to it, so it reads as seconds on a machine where one slice takes
``REF_SLICE_NOMINAL_S``. Raw wall times and the scale factors are printed
before the result line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times the same
passes once untraced and once with the layer trace installed, and prints
the per-layer metrics, per pass. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds per pass, measured on a 2-core x86-64 sandbox with CPython 3.11.
# They fix how many passes a run makes; they are never compared with a clock.
NOMINAL_PASS_S = {"oracle-suite": 4.0, "request-mix": 3.0, "cone-suite": 4.5}

REF_SLICE_NOMINAL_S = 1e-3
CALIBRATION_WINDOW = 3
SETUP_STARTS_PER_PASS = 2
SETUP_PROBE_SLICES = 20
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import contactres.cli, contactres.orbits; "
              "contactres.orbits.table_version()")
SETUP_ARGV = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]


def reference_slice() -> Fraction:
    """Fixed work whose time stands for the machine's current speed."""
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1)
        seen[(i, i % 7)] = i * i
    return total


def probe(slices: int = 1) -> float:
    """Wall seconds taken by ``slices`` reference slices."""
    start = perf_counter()
    for _ in range(slices):
        reference_slice()
    return perf_counter() - start


def time_setup(starts: int) -> list[float]:
    """Calibrated seconds from launching a fresh interpreter to
    contactres.cli imported and the exceptional table loaded, per start."""
    times = []
    for _ in range(starts):
        ref = probe(SETUP_PROBE_SLICES)
        start = perf_counter()
        subprocess.run(SETUP_ARGV, check=True, cwd=ROOT)
        elapsed = perf_counter() - start
        ref += probe(SETUP_PROBE_SLICES)
        times.append(elapsed * 2 * SETUP_PROBE_SLICES * REF_SLICE_NOMINAL_S
                     / ref)
    return times


class Raised:
    """An op that raised instead of returning: always a failed op."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def run_pass(ops):
    """Run every op once, each followed by one reference slice.

    Each op's latency is calibrated by the slices of the ops within
    ``CALIBRATION_WINDOW`` places of it, so the scale follows changes of
    machine speed inside the pass. Returns (results, calibrated latencies
    in s, raw op seconds, mean scale).
    """
    results, raw, ref = [], [], []
    for op in ops:
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an unexpected exception is a failed op
            result = Raised(exc)
        raw.append(perf_counter() - start)
        results.append(result)
        ref.append(probe())
    prefix = [0.0]
    for t in ref:
        prefix.append(prefix[-1] + t)
    n = len(ops)
    latencies = []
    for i, t in enumerate(raw):
        lo = max(0, i - CALIBRATION_WINDOW)
        hi = min(n, i + CALIBRATION_WINDOW + 1)
        latencies.append(t * (hi - lo) * REF_SLICE_NOMINAL_S
                         / (prefix[hi] - prefix[lo]))
    return results, latencies, sum(raw), n * REF_SLICE_NOMINAL_S / prefix[n]


def count_failures(ops, results, reference) -> int:
    """Ops whose result is wrong, or differs from the warm-up pass."""
    failed = 0
    for op, result, ref in zip(ops, results, reference):
        try:
            ok = not isinstance(result, Raised) and op.check(result) \
                and result == ref
        except Exception:  # a malformed result fails its check
            ok = False
        if not ok:
            failed += 1
            why = result.exc if isinstance(result, Raised) else "wrong result"
            print(f"FAILED: {op.name}: {why!r}", file=sys.stderr)
    return failed


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, passes, tally):
    """Timed passes, with fresh-interpreter start-ups between them.

    The start-ups are spread over the run, so their median reflects the
    same stretch of machine time as the passes. One untimed start-up comes
    first, so the bytecode cache is always written before the timed ones.
    """
    subprocess.run(SETUP_ARGV, check=True, cwd=ROOT)
    setup = time_setup(SETUP_STARTS_PER_PASS)
    latencies, raw_walls, scales = [], [], []
    for _ in range(passes):
        results, lat, raw_s, scale = run_pass(ops)
        tally(results)
        latencies += lat
        raw_walls.append(raw_s)
        scales.append(scale)
        setup += time_setup(SETUP_STARTS_PER_PASS)
    print("raw pass seconds: " + " ".join(f"{w:.3f}" for w in raw_walls))
    print("speed scale per pass: " + " ".join(f"{s:.3f}" for s in scales))
    wall = sum(latencies)
    latencies.sort()
    p50 = statistics.median(latencies)
    p90, beyond = nearest_rank(latencies, 0.9)
    print(f"latency_p50_ms and latency_p90_ms over {len(latencies)} timed ops "
          f"in {passes} passes; {beyond} samples beyond p90; setup_s over "
          f"{len(setup)} start-ups")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_ops_s": metric(len(latencies) / wall, "1/s"),
        "latency_p50_ms": metric(p50 * 1e3, "ms"),
        "latency_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(ops, passes, tally):
    untraced = 0.0
    for _ in range(passes):
        results, lat, _, _ = run_pass(ops)
        tally(results)
        untraced += sum(lat)
    trace = layertrace.LayerTrace()
    trace.install()
    traced, traced_raw, json_bytes = 0.0, 0.0, 0
    try:
        for _ in range(passes):
            results, lat, raw_s, _ = run_pass(ops)
            tally(results)
            traced += sum(lat)
            traced_raw += raw_s
            json_bytes += sum(len(r[1]) for r in results
                              if isinstance(r, tuple) and len(r) == 2
                              and isinstance(r[1], str))
    finally:
        trace.uninstall()
    scale = traced / traced_raw

    out = {}
    for layer in layertrace.LAYERS:
        self_s = trace.self_s[layer]
        out[f"{layer}.calls"] = metric(trace.calls[layer] / passes, "count")
        out[f"{layer}.self_ms"] = metric(self_s * scale * 1e3 / passes, "ms")
        out[f"{layer}.share"] = metric(self_s / traced_raw, "ratio")
    c = trace.counters
    candidates = c["cones.dd_candidates"]
    perms = c["resolutions.permutations"]
    out.update({
        "ratlinalg.rank_cells": metric(c["ratlinalg.rank_cells"] / passes,
                                       "count"),
        "ratlinalg.rref_cells": metric(c["ratlinalg.rref_cells"] / passes,
                                       "count"),
        "ratlinalg.max_dim": metric(trace.max_dim, "count"),
        "oracle_lab.models": metric(c["oracle_lab.models"] / passes, "count"),
        "cones.dd_candidates": metric(candidates / passes, "count"),
        "cones.dd_useful_ratio": metric(
            c["cones.dd_rays_returned"] / candidates if candidates else 0.0,
            "ratio"),
        "resolutions.permutations": metric(perms / passes, "count"),
        "resolutions.perm_useful_ratio": metric(
            c["resolutions.distinct_permutations"] / perms if perms else 0.0,
            "ratio"),
        "lie_core.poincare_calls": metric(
            c["lie_core.poincare_calls"] / passes, "count"),
        "lie_core.root_system_hit_ratio": metric(
            trace.root_system_hit_ratio(), "ratio"),
        "report.json_bytes": metric(json_bytes / passes, "bytes"),
        "trace.overhead_ratio": metric(traced / untraced, "ratio"),
        "trace.layer_coverage": metric(
            sum(trace.self_s.values()) / traced_raw, "ratio"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contactres" / "__init__.py").is_file():
        print(f"contactres sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))

    reference = run_pass(ops)[0]
    totals = {"attempted": len(ops),
              "failed": count_failures(ops, reference, reference)}

    def tally(results):
        totals["attempted"] += len(results)
        totals["failed"] += count_failures(ops, results, reference)

    if args.trace:
        metrics = per_layer(ops, passes, tally)
    else:
        metrics = end_to_end(ops, passes, tally)
        metrics["ok_rate"] = metric(
            1 - totals["failed"] / totals["attempted"], "ratio")
    print(json.dumps({"correct": totals["failed"] == 0,
                      "attempted": totals["attempted"],
                      "failed": totals["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
