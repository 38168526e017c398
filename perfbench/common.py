"""Shared plumbing of the benchmark: paths, child processes, statistics.

Everything the workloads have in common lives here: where the
source tree and the benchmark-owned scratch directories are, how a
child interpreter is started against the source tree, the native-kernel
cache warm-up, the host-speed probe, peak-RSS readers and the latency
summary.  Nothing in this module imports ``repro``: ``run.py`` imports
it before it has checked that the source tree exists.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Benchmark-owned scratch space inside the checkout (git-ignored).
WORK = ROOT / ".bench_build" / "perfbench"
#: Benchmark-owned native kernel cache: warmed once, then only read.
NATIVE_CACHE = ROOT / ".bench_build" / "rapminer-native"

#: Fresh processes whose cold start makes up one ``setup_s`` median.
SETUP_REPEATS = 7
#: Of those, the first ones finish a whole pass for the ``rss_mb`` median.
RSS_REPEATS = 3
#: Latency percentiles need this many samples to leave >= 10 beyond p95.
MIN_LATENCY_SAMPLES = 200
#: Ceiling on how far a run may stretch its window to reach that count.
MAX_WINDOW_FACTOR = 3.0


def child_env() -> Dict[str, str]:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RAPMINER_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("RAPMINER_BACKEND", None)
    return env


def use_source_tree() -> None:
    """Point this interpreter at the checkout's ``src`` and native cache."""
    os.environ["RAPMINER_NATIVE_CACHE"] = str(NATIVE_CACHE)
    os.environ.pop("RAPMINER_BACKEND", None)
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


_WARM_SCRIPT = """
import json
from repro.native import resolve_backend
from repro.native.build import NativeBuildError
try:
    info = resolve_backend("native", strict=True).info()
except NativeBuildError:
    info = {"backend": "numpy", "compile_seconds": 0.0}
print(json.dumps({"backend": info.get("backend"),
                  "compile_seconds": float(info.get("compile_seconds", 0.0))}))
"""


def warm_native_cache() -> Dict[str, object]:
    """Build (or find) the native library in the benchmark-owned cache.

    Runs untimed, in its own interpreter, before any timed process, so a
    change to ``kernels.c`` pays its compile here and never inside
    ``setup_s``.  Returns the backend name and the compile time paid.
    """
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    out = subprocess.run(
        [sys.executable, "-c", _WARM_SCRIPT],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def backend_record() -> Dict[str, object]:
    """Backend name and compile time of this (timed) process."""
    from repro.native import backend_info

    info = backend_info()
    return {
        "backend": info.get("backend"),
        "compile_seconds": float(info.get("compile_seconds", 0.0)),
    }


def host_probe_ms() -> float:
    """One fixed pure-Python + numpy loop, in ms (host speed diagnostic).

    Never used to rescale a metric: it only tells a slow host phase
    apart from a program change when two runs disagree.
    """
    import numpy as np

    data = np.random.default_rng(0).random(20_000)
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for __ in range(10):
        np.sort(data)
    return (time.perf_counter() - started) * 1e3


def probe_series(n: int = 9) -> List[float]:
    return [host_probe_ms() for __ in range(n)]


def pid_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB.

    Unlike ``ru_maxrss``, which a child inherits from the process that
    forked it, ``VmHWM`` covers only the program the process runs.
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


class OpLog:
    """Outcome of a measured window: per-operation latencies and tallies.

    A failed or mismatched operation counts against ``attempted`` and is
    left out of the latency samples.
    """

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        #: Operations that completed (verified or not) inside the window.
        self.completed = 0

    def ok(self, latency_s: float) -> None:
        self.attempted += 1
        self.completed += 1
        self.latencies_ms.append(latency_s * 1e3)

    def fail(self, completed: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        if completed:
            self.completed += 1

    def check(self, ok: bool) -> None:
        """A verified operation that is not part of the latency sample."""
        if ok:
            self.attempted += 1
            self.completed += 1
        else:
            self.fail()

    def merge(self, other: "OpLog") -> None:
        self.latencies_ms.extend(other.latencies_ms)
        self.attempted += other.attempted
        self.failed += other.failed
        self.completed += other.completed


class Window:
    """The measured window: open for *seconds*, stretched (at most to
    ``MAX_WINDOW_FACTOR`` times) until ``MIN_LATENCY_SAMPLES`` operations
    succeeded."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self._ok = 0

    def count(self, n: int = 1) -> None:
        self._ok += n

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def open(self) -> bool:
        elapsed = self.elapsed()
        if elapsed < self.seconds:
            return True
        return self._ok < MIN_LATENCY_SAMPLES and elapsed < self.seconds * MAX_WINDOW_FACTOR


def end_to_end(
    log: OpLog, setup_times: Sequence[float], rss_mb: float, f1: float
) -> Dict[str, Dict[str, float]]:
    """The six end-to-end metrics of one run."""
    if not log.latencies_ms:
        raise RuntimeError("no successful operation in the measured window")
    return {
        "setup_s": metric(median(setup_times), "s"),
        "rss_mb": metric(rss_mb, "MB"),
        "f1": metric(f1, "ratio"),
        "lat_p50_ms": metric(percentile(log.latencies_ms, 50), "ms"),
        "lat_p95_ms": metric(percentile(log.latencies_ms, 95), "ms"),
        "throughput_per_s": metric(log.completed / log.wall_s, "1/s"),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def spawn_python(args: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start ``python <args>`` from the checkout root against ``src``."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        **kwargs,
    )


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Interrupt, then terminate, then kill *proc*; always reaps it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def fresh_case(case):
    """The case with a new dataset object over the same arrays.

    The aggregation engine caches itself on the dataset object, so a
    replayed case must be a new object or it would run warm where a
    real request runs cold.
    """
    from repro.data.dataset import FineGrainedDataset
    from repro.data.injection import LocalizationCase

    d = case.dataset
    return LocalizationCase(
        case_id=case.case_id,
        dataset=FineGrainedDataset(d.schema, d.codes, d.v, d.f, d.labels),
        true_raps=case.true_raps,
        metadata=dict(case.metadata),
    )


def paper_cases(seed: int, n_cases: int):
    """Paper-shape RAPMD cases (33x4x4x20 CDN cube) for *seed*."""
    from repro.data.rapmd import RAPMDConfig, generate_rapmd
    from repro.data.schema import cdn_schema

    return generate_rapmd(cdn_schema(), RAPMDConfig(n_cases=n_cases, n_days=35, seed=seed))


def serial_reference(cases) -> List[List[str]]:
    """Candidate strings of serial ``RAPMiner.run`` (k = true RAP count)."""
    from repro.core.miner import RAPMiner

    miner = RAPMiner()
    return [
        [str(p) for p in miner.run(fresh_case(c).dataset, len(c.true_raps)).patterns]
        for c in cases
    ]


def f1_of(predicted: Sequence[Sequence[str]], cases) -> float:
    """Mean Eq. 6 F1 of candidate strings against the cases' injected RAPs."""
    from repro.metrics.localization import mean_f1

    return mean_f1(zip(predicted, ([str(r) for r in c.true_raps] for c in cases)))


def cold_starts(module, state) -> Dict[str, object]:
    """Time ``SETUP_REPEATS`` fresh interpreters to their first answer.

    Each child imports ``repro``, looks up the native library in the
    warmed cache, builds the workload's engine and answers its first
    operation (``module.cold_start``).  The clock runs from spawn to the
    child's answer line; the answer is checked after the clock stops.
    The first ``RSS_REPEATS`` children then finish one whole pass of the
    workload and report its answers and their own peak RSS: the memory
    of a process that holds one pass's inputs and the program, not the
    benchmark's.
    """
    inputs = module.setup_inputs(state)
    probe = str(Path(__file__).with_name("setup_probe.py"))
    times: List[float] = []
    rss: List[float] = []
    natives: List[Dict[str, object]] = []
    ok = True
    for i in range(SETUP_REPEATS):
        whole_pass = i < RSS_REPEATS
        started = time.perf_counter()
        proc = spawn_python(
            [probe, module.NAME, "pass" if whole_pass else "first", *inputs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            rest, err = proc.communicate(timeout=120)
        finally:
            stop_process(proc)
        if proc.returncode != 0 or not line.strip() or (whole_pass and not rest.strip()):
            raise RuntimeError(f"cold-start probe failed: {err.strip()[-2000:]}")
        first = json.loads(line)
        times.append(elapsed)
        natives.append(first["native"])
        ok = ok and module.setup_answer_ok(state, first["answer"])
        if whole_pass:
            whole = json.loads(rest.strip().splitlines()[-1])
            rss.append(whole["peak_rss_mb"])
            ok = ok and module.pass_answers_ok(state, whole["answers"])
    return {"times": times, "rss_mb": median(rss), "natives": natives, "ok": ok}
