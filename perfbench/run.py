"""End-to-end serving benchmark for the RCKT serving stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload advisor_pages --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` boots the stock entry points (``python -m repro.serve``,
``python -m repro.cluster``, ``RCKT.predict_dataset`` in a sweep
process), sets each up several times (``setup_s`` is the median), drives
the workload for ``--seconds``, checks every reply against an in-process
reference and prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each — untraced, then through the
tracing launcher — and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402
import fixture  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

#: Boots per untraced run; ``setup_s`` is their median.
SETUPS = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def end_to_end(phase):
    stats = loadgen.latency_stats(phase.samples)
    log(f"  latency over {stats['samples']} operations "
        f"({stats['beyond_p99']} beyond p99); generator lag p99 "
        f"{phase.lag_p99_ms:.2f} ms; host steal {phase.steal_pct:.1f}%; "
        f"set-ups {', '.join(f'{s:.3f}' for s in phase.setup_s)} s")
    values = {
        "setup_s": (statistics.median(phase.setup_s), "s"),
        "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
        "latency_p99_ms": (stats["latency_p99_ms"], "ms"),
        "throughput_ops_s": (phase.throughput, "ops/s"),
        "server_rss_mb": (phase.rss_mb, "MB"),
        "auc": (phase.auc, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still unwinds through the workloads' finally
    # blocks, which stop every process it started.  The servers are
    # stopped with SIGINT, so it must not be inherited as ignored (as it
    # is under a shell's background job): a handled signal resets to the
    # default in a child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    root = Path.cwd()
    if not (root / "src" / "repro" / "serve").is_dir():
        log("perfbench: run from the root of a repository checkout "
            "(no src/repro here)")
        return 2
    sys.path.insert(0, str(root / "src"))
    run_dir = (fixture.BUILD_DIR / f"run-{args.workload}-{args.seed}"
               f"-{args.trace}").resolve()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = workloads.WORKLOADS[args.workload]

    def phase(name, seconds, setups, traced=False):
        directory = run_dir / name
        directory.mkdir()
        trace_dir = None
        if traced:
            trace_dir = directory / "spans"
            trace_dir.mkdir()
        ctx = workloads.Context(args.seed, directory, log)
        return run(ctx, seconds, setups, trace_dir)

    try:
        if args.trace:
            plain = phase("plain", args.seconds / 2.0, 1)
            traced = phase("traced", args.seconds / 2.0, 1, traced=True)
            phases = [plain, traced]
            metrics = analysis.per_layer(traced, plain, log)
        else:
            phases = [phase("plain", args.seconds, SETUPS)]
            metrics = end_to_end(phases[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lagging = [p.lag_p99_ms for p in phases
               if p.lag_p99_ms > loadgen.MAX_GENERATOR_LAG_MS]
    if lagging:
        log(f"perfbench: run invalid — generator lag p99 "
            f"{max(lagging):.1f} ms exceeds "
            f"{loadgen.MAX_GENERATOR_LAG_MS} ms")
        return 3
    for measured in phases:
        for check, passed in measured.checks.items():
            if not passed:
                log(f"perfbench: check failed: {check}")
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g}s, "
          f"trace {args.trace}):")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": all(p.correct for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
