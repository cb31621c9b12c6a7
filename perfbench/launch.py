"""Launcher for the benchmark's server and sweep processes.

Usage::

    python perfbench/launch.py serve   <python -m repro.serve arguments>
    python perfbench/launch.py cluster <python -m repro.cluster arguments>
    python perfbench/launch.py worker  <python -m repro.cluster.worker ...>
    python perfbench/launch.py sweep   --checkpoint CK --seconds S \\
        --seed N --out FILE

``serve``, ``cluster`` and ``worker`` run the stock CLI ``main``
unchanged.  With ``PERFBENCH_TRACE_DIR`` set they first install the span
wrappers of :mod:`tracing` and write ``spans-<pid>.json`` into that
directory at exit; a traced cluster also starts its shard workers
through this launcher, so they are traced too.  Untraced runs start
``python -m repro.serve`` / ``python -m repro.cluster`` directly.

``sweep`` is the offline workload's process: it loads the checkpoint and
the corpus, prints ``READY``, then times ``RCKT.predict_dataset`` over the
whole corpus at stride 1 until ``--seconds`` have passed and writes the
sweep times, the AUC and its own correctness checks to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

TRACE_ENV = "PERFBENCH_TRACE_DIR"
HERE = Path(__file__).resolve().parent
#: Sequences of the cohort re-scored by the legacy per-prefix path.
LEGACY_SAMPLE = 12


def vm_hwm_mb(pid="self"):
    """Peak resident set (VmHWM) of a process in MB, or 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _start_tracing(role):
    trace_dir = os.environ.get(TRACE_ENV)
    if not trace_dir:
        return None
    import tracing
    recorder = tracing.Recorder()
    tracing.install(recorder)

    def terminate(signum, frame):
        # The supervisor stops workers with SIGTERM; unwind through the
        # CLI's finally blocks so the spans below still get written.
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, terminate)
    return lambda: recorder.dump(
        Path(trace_dir) / f"spans-{os.getpid()}.json", role)


def _traced_worker_argv(spec_argv):
    def argv(self):
        stock = spec_argv(self)
        # [python, -m, repro.cluster.worker, *args] -> the launcher
        return [stock[0], str(HERE / "launch.py"), "worker"] + stock[3:]
    return argv


def _sweep(argv):
    parser = argparse.ArgumentParser(prog="launch.py sweep")
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    from repro.core import RCKT, RCKTConfig
    from repro.data import KTDataset
    from repro.utils.checkpoint import load_checkpoint

    import fixture

    state, meta = load_checkpoint(args.checkpoint)
    model = RCKT(int(meta["num_questions"]), int(meta["num_concepts"]),
                 RCKTConfig(**meta["config"]))
    model.load_state_dict(state)
    corpus = fixture.load_corpus()
    rng = np.random.default_rng(args.seed)
    # The seed orders the cohort (sequences of equal length then share
    # padded batches differently) and picks the legacy sample.
    order = rng.permutation(len(corpus.sequences))
    cohort = KTDataset(corpus.name, [corpus.sequences[i] for i in order],
                       corpus.num_questions, corpus.num_concepts)
    print("READY", flush=True)
    if args.seconds <= 0:
        return 0

    times, first_scores, labels = [], None, None
    identical = True
    window_start = time.perf_counter()
    deadline = window_start + args.seconds
    while True:
        started = time.perf_counter()
        sweep_labels, scores = model.predict_dataset(cohort, stride=1)
        times.append(time.perf_counter() - started)
        if first_scores is None:
            first_scores, labels = scores, sweep_labels
        elif not np.array_equal(scores, first_scores):
            identical = False
        if time.perf_counter() >= deadline and len(times) >= 2:
            break
    window = [window_start, time.perf_counter()]

    # Correctness (untimed): a fixed sample of the cohort re-scored by
    # the legacy per-prefix reference path must match the fast path, and
    # every sample score must appear in the timed sweep's output.
    picks = rng.choice(len(corpus.sequences), LEGACY_SAMPLE, replace=False)
    sample = KTDataset(corpus.name,
                       [corpus.sequences[i] for i in sorted(picks)],
                       corpus.num_questions, corpus.num_concepts)
    fast_labels, fast = model.predict_dataset(sample, stride=1)
    legacy_labels, legacy = model.predict_dataset(sample, stride=1,
                                                  legacy=True)
    legacy_diff = float(np.max(np.abs(np.sort(fast) - np.sort(legacy))))
    labels_match = bool(np.array_equal(np.sort(fast_labels),
                                       np.sort(legacy_labels)))
    swept = np.sort(first_scores)
    nearest = np.clip(np.searchsorted(swept, fast), 1, len(swept) - 1)
    sweep_diff = float(np.max(np.minimum(
        np.abs(swept[nearest] - fast), np.abs(swept[nearest - 1] - fast))))
    result = {
        "sweep_s": times, "targets": int(len(first_scores)),
        "auc": fixture.auc(labels, first_scores),
        "identical_sweeps": identical, "legacy_max_diff": legacy_diff,
        "legacy_labels_match": labels_match,
        "sample_in_sweep_max_diff": sweep_diff,
        "sample_targets": int(len(fast)), "rss_mb": vm_hwm_mb(),
        "window": window,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    return 0


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    role, rest = argv[0], argv[1:]
    dump = _start_tracing(role)
    try:
        if role == "serve":
            from repro.serve.__main__ import main as serve_main
            return serve_main(rest)
        if role == "cluster":
            from repro.cluster import supervisor
            from repro.cluster.__main__ import main as cluster_main
            if dump is not None:
                supervisor.WorkerSpec.argv = _traced_worker_argv(
                    supervisor.WorkerSpec.argv)
            return cluster_main(rest)
        if role == "worker":
            from repro.cluster.worker import main as worker_main
            return worker_main(rest)
        if role == "sweep":
            return _sweep(rest)
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    finally:
        if dump is not None:
            dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
