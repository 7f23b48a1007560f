"""finspace benchmark: one closed-loop caller, one workload, one seed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload homology-exact --seed 1 --seconds 30 --trace 0

The program is the checkout's own ``src/finspace``; nothing is installed.
With ``--trace 0`` the run repeats whole rounds of the workload for at least
``--seconds`` seconds (and at least MIN_OPS ops) and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload's fixed traced rounds twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  Every op's output is checked after its timer stops; an op that
raises or fails its check counts as failed.  A detailed report goes to
stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import CHECKS, OPS, SUMMARIES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
TAIL = 90  # percentile of op_tail_ms; fixed, so a faster program is measured at the same rank

# Shared hosts change speed by 10-30% from one minute to the next, for every
# process alike.  End-to-end times are therefore scaled to a reference speed:
# a fixed interpreter loop runs after every op, and each op's time is
# multiplied by CAL_REF_S / (median loop time in the op's round).  The loop
# allocates no garbage-collected objects, so only the host's speed moves it.
CAL_REF_S = 0.0016  # the loop's typical median on a 2-vCPU x86-64 VM with Python 3.11
CAL_ITERS = 10_000
_CAL_KEYS = tuple(f"k{i}" for i in range(251))
_CAL_TABLE = {k: i for i, k in enumerate(_CAL_KEYS)}

# mechanism-split probe: layers a workload must not reach, as counts that must be zero
PROBES = {
    "homology-exact": ("collapse.calls", "covers.calls"),
    "collapse-certify": ("homology.snf_calls",),
    "cover-nerve": (),
}


def calibration() -> float:
    """Wall time of one run of the fixed reference loop."""
    began = perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc = (acc + _CAL_TABLE[_CAL_KEYS[i % 251]] * (i & 7)) % 1_000_003
    return perf_counter() - began


def import_finspace():
    """(Re-)import the checkout's finspace, so that set-up time includes it."""
    for name in [n for n in sys.modules if n == "finspace" or n.startswith("finspace.")]:
        del sys.modules[name]
    fs = importlib.import_module("finspace")
    if not Path(fs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported finspace from {fs.__file__}, not from {SRC}")
    return fs


def setup(workload, seed):
    """Import, seeded input generation and warm-up, timed as one set-up."""
    began = perf_counter()
    fs = import_finspace()
    pool = workload.make_pool(seed)
    for kind, make in workload.warmup:
        OPS[kind](fs, make())
    return perf_counter() - began, fs, pool


def run_rounds(fs, pool, *, seconds=None, rounds=None, tracer=None):
    """Closed loop over whole rounds.

    Returns the op latencies, (instance, summary, error) per op, the number of
    rounds, and per op the speed scale of its round (see CAL_REF_S).
    """
    latencies, outcomes, scales = [], [], []
    began = perf_counter()
    done = 0
    while True:
        loop_times = []
        for inst in pool[done % len(pool)]:
            op = OPS[inst.kind]
            if tracer:
                tracer.op = len(latencies)
                tracer.active = True
            t0 = perf_counter()
            try:
                result, error = op(fs, inst.data), None
            except Exception:
                result, error = None, traceback.format_exc()
            latencies.append(perf_counter() - t0)
            if tracer:
                tracer.active = False
            summary = None
            if error is None:
                try:
                    summary = SUMMARIES[inst.kind](result)
                except Exception:
                    error = traceback.format_exc()
            outcomes.append((inst, summary, error))
            del result
            loop_times.append(calibration())
        scales += [CAL_REF_S / statistics.median(loop_times)] * len(loop_times)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - began >= seconds and len(latencies) >= MIN_OPS:
            break
    return latencies, outcomes, done, scales


def check(outcomes):
    """Check every op's output; returns failure records and per-class input sizes."""
    failures = []
    sizes: dict[str, dict[int, dict]] = {}
    for i, (inst, summary, error) in enumerate(outcomes):
        if error is None:
            errors, size = CHECKS[inst.kind](inst, summary)
            sizes.setdefault(inst.cls, {})[id(inst.data)] = size
        else:
            errors = [error]
        if errors:
            failures.append({"op": i, "class": inst.cls, "errors": errors})
    return failures, {cls: _size_summary(list(by_id.values())) for cls, by_id in sizes.items()}


def _size_summary(rows):
    out = {"instances": len(rows)}
    for key, value in rows[0].items():
        values = [r[key] for r in rows]
        if isinstance(value, int):
            out[key] = {"min": min(values), "median": statistics.median(values), "max": max(values)}
        elif all(v == value for v in values):
            out[key] = value
    return out


def latency_stats(latencies):
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL - 1]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        f"p{TAIL}_ms": tail * 1e3,
        f"samples_beyond_p{TAIL}": sum(1 for x in latencies if x > tail),
        "max_ms": max(latencies) * 1e3,
    }


def end_to_end(fs, workload, pool, seconds, setups):
    gc.collect()
    latencies, outcomes, rounds, scales = run_rounds(fs, pool, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, sizes = check(outcomes)
    n = len(latencies)
    scaled = latency_stats([x * s for x, s in zip(latencies, scales)])
    per_class = {}
    for (inst, _, _), x, s in zip(outcomes, latencies, scales):
        per_class.setdefault(inst.cls, []).append(x * s * 1e3)
    report = {
        "rounds": rounds,
        "round_size": workload.round_size(),
        "samples": n,
        "latency_scaled": scaled,
        "latency_wall": latency_stats(latencies),
        "speed_scale": {"median": statistics.median(scales), "range": [min(scales), max(scales)]},
        "failed_ratio": {"failed": len(failures), "attempted": n, "value": len(failures) / n},
        "setup_s": {"scaled": [s for s, _ in setups], "wall": [w for _, w in setups]},
        "class_p50_ms_scaled": {c: statistics.median(xs) for c, xs in per_class.items()},
        "instance_sizes": sizes,
        "failures": failures[:5],
    }
    metrics = {
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_ms": scaled["p50_ms"],
        "op_tail_ms": scaled[f"p{TAIL}_ms"],
        "ok_ratio": (n - len(failures)) / n,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": rss_mb,
    }
    return report, metrics, n, len(failures)


def traced(fs, workload, pool):
    """Per-layer metrics.  Span times are wall times; the overhead compares
    the scaled totals of an untraced and a traced pass over the same ops."""
    gc.collect()
    untraced_lat, outcomes, _, untraced_scales = run_rounds(fs, pool, rounds=workload.trace_rounds)
    tracer = Tracer()
    tracer.install(fs)
    gc.collect()
    traced_lat, traced_outcomes, _, traced_scales = run_rounds(
        fs, pool, rounds=workload.trace_rounds, tracer=tracer
    )
    failures, sizes = check(outcomes + traced_outcomes)
    values = tracer.layer_metrics()
    untraced_total = sum(x * s for x, s in zip(untraced_lat, untraced_scales))
    traced_total = sum(x * s for x, s in zip(traced_lat, traced_scales))
    values["trace.overhead_s"] = traced_total - untraced_total
    values["trace.overhead_ratio"] = (traced_total - untraced_total) / untraced_total
    probe = {name: values[name] for name in PROBES[workload.name]}
    class_layers: dict[str, Counter] = {}
    for op, layers in tracer.self_by_op().items():
        class_layers.setdefault(traced_outcomes[op][0].cls, Counter()).update(layers)
    report = {
        "rounds": workload.trace_rounds,
        "ops_per_pass": len(traced_lat),
        "untraced_total_s": {"scaled": untraced_total, "wall": sum(untraced_lat)},
        "traced_total_s": {"scaled": traced_total, "wall": sum(traced_lat)},
        "wrapped_functions": tracer.wrapped,
        "missing_functions": tracer.missing,
        "hook_errors": tracer.hook_errors,
        "probe": {"must_be_zero": probe, "passed": not any(probe.values())},
        "functions": tracer.functions(),
        "class_layer_self_s": class_layers,
        "instance_sizes": sizes,
        "failures": failures[:5],
    }
    if any(probe.values()):
        failures.append({"probe": probe})
    return report, values, len(outcomes) + len(traced_outcomes), len(failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finspace" / "__init__.py").is_file():
        print(f"no finspace sources under {SRC}; run from a finspace checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    setups = []  # (scaled, wall) seconds
    for _ in range(SETUP_REPEATS):
        wall, fs, pool = setup(workload, args.seed)
        loop = statistics.median(calibration() for _ in range(5))
        setups.append((wall * CAL_REF_S / loop, wall))
    if args.trace:
        report, values, attempted, failed = traced(fs, workload, pool)
    else:
        report, values, attempted, failed = end_to_end(fs, workload, pool, args.seconds, setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace, **report}
    print(json.dumps(report, indent=1, default=str))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
