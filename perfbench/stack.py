"""Start, probe and stop the serving processes under test."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from launch import HERE, TRACE_ENV, vm_hwm_mb

READY_URL = re.compile(r"on (http://[0-9.]+:\d+)")
BOOT_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0


class Process:
    """A child process whose stdout is scanned for a ready line."""

    def __init__(self, argv, log_path, ready, trace_dir=None):
        env = dict(os.environ)
        src = str(Path("src").resolve())
        env["PYTHONPATH"] = src if not env.get("PYTHONPATH") \
            else os.pathsep.join([src, env["PYTHONPATH"]])
        env["PYTHONUNBUFFERED"] = "1"
        env.pop(TRACE_ENV, None)
        if trace_dir is not None:
            env[TRACE_ENV] = str(trace_dir)
        self.log_path = Path(log_path)
        self._ready_pattern = ready
        self._ready = threading.Event()
        self.ready_match = None
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        with open(self.log_path, "ab") as log:
            for raw in self.popen.stdout:
                log.write(raw)
                if not self._ready.is_set():
                    match = self._ready_pattern.search(
                        raw.decode("utf-8", "replace"))
                    if match:
                        self.ready_match = match
                        self._ready.set()
        self._ready.set()     # EOF: wake the waiter, which sees the exit

    def wait_ready(self, timeout=BOOT_TIMEOUT_S):
        if not self._ready.wait(timeout) or self.ready_match is None:
            self.stop()
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{self.popen.args[:4]} did not become "
                               f"ready; log tail:\n{tail}")
        return self.ready_match

    def descendants(self):
        """Pids of this process and every live process below it."""
        children = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
        found, frontier = [], [self.popen.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(children.get(pid, []))
        return found

    def rss_mb(self):
        """Peak resident memory (VmHWM) summed over the process tree."""
        return sum(vm_hwm_mb(pid) for pid in self.descendants())

    def stop(self):
        """SIGINT (the CLIs shut down cleanly on it), then wait; kill the
        whole tree if it does not exit in time."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
            try:
                self.popen.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in self.descendants():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.popen.wait()
        self._reader.join(timeout=10)
        if self.popen.stdout is not None:
            self.popen.stdout.close()


def gateway(checkpoint, log_path, trace_dir=None, extra=()):
    """``python -m repro.serve`` on an ephemeral port (traced: through
    the launcher)."""
    head = [sys.executable, str(HERE / "launch.py"), "serve"] \
        if trace_dir is not None else [sys.executable, "-m", "repro.serve"]
    argv = head + ["--checkpoint", str(checkpoint), "--port", "0",
                   *extra]
    return Process(argv, log_path, READY_URL, trace_dir)


def cluster(checkpoint, log_path, journal_dir, log_dir, trace_dir=None,
            extra=()):
    """``python -m repro.cluster`` with a durable journal."""
    head = [sys.executable, str(HERE / "launch.py"), "cluster"] \
        if trace_dir is not None \
        else [sys.executable, "-m", "repro.cluster"]
    argv = head + ["--checkpoint", str(checkpoint), "--port", "0",
                   "--journal-dir", str(journal_dir),
                   "--log-dir", str(log_dir), *extra]
    return Process(argv, log_path, re.compile(
        r"cluster of \d+ shards serving .* on (http://[0-9.]+:\d+)"),
        trace_dir)


def sweeper(checkpoint, seconds, seed, out, log_path, trace_dir=None):
    argv = [sys.executable, str(HERE / "launch.py"), "sweep",
            "--checkpoint", str(checkpoint), "--seconds", str(seconds),
            "--seed", str(seed), "--out", str(out)]
    return Process(argv, log_path, re.compile(r"^READY"), trace_dir)
