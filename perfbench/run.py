"""The repository's benchmark: two workloads, six end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``rss_mb``,
``f1``, ``lat_p50_ms``, ``lat_p95_ms``, ``throughput_per_s``);
``--trace 1`` runs the separate traced run and prints the per-layer
metrics instead.  Inputs come from ``--seed`` only; every operation is
checked against reference answers computed untimed from the same seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the kernel backend and compile time of every timed process,
the host-speed probe and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("serve-paper", "replay-paper")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def in_process_untraced(module, state, seconds: float) -> dict:
    """Cold starts, then the measured window inside this process."""
    setup = common.cold_starts(module, state)
    log = module.measure(state, seconds)
    return {
        "log": log,
        "setup": setup,
        "rss_mb": setup["rss_mb"],
        "natives": setup["natives"] + [common.backend_record()],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {common.SRC}", file=sys.stderr)
        return 2
    common.use_source_tree()
    warm = common.warm_native_cache()

    import workloads

    module = workloads.by_name(args.workload)
    probes = common.probe_series()
    state = module.prepare(args.seed)
    started = time.perf_counter()
    if args.trace:
        outcome = module.traced(state, args.seconds)
        metrics = outcome["metrics"]
        log = outcome["log"]
        setup_ok = True
    else:
        runner = getattr(module, "untraced", None)
        outcome = (
            runner(state, args.seconds)
            if runner is not None
            else in_process_untraced(module, state, args.seconds)
        )
        log = outcome["log"]
        setup_ok = outcome["setup"]["ok"]
        metrics = common.end_to_end(
            log, outcome["setup"]["times"], outcome["rss_mb"], module.f1(state)
        )
    probes += common.probe_series()
    probe_ms = common.median(probes)
    if args.trace:
        metrics["host.probe_ms"] = common.metric(probe_ms, "ms")
    natives = outcome["natives"]
    compiled = [n for n in natives if n["compile_seconds"] > 0.0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "native_warmup": warm,
        "timed_processes": natives,
        "host_probe_ms": probe_ms,
        "latency_samples": len(log.latencies_ms),
        "measured_s": round(time.perf_counter() - started, 3),
        "workload_shape": module.describe(),
    }
    print(json.dumps(detail))
    correct = log.failed == 0 and setup_ok and not compiled
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
