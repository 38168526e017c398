"""Cold start and one pass of an in-process workload, in a fresh interpreter.

``python perfbench/setup_probe.py <workload> pass|first <input>...``
imports ``repro``, builds the workload's engine, answers its first
operation and prints one JSON line: the answer plus the kernel backend
this process resolved and the compile time it paid.  The parent times
the process from spawn to that line and checks the answer.  With
``pass``, the child then finishes one whole pass on its inputs and
prints a second line: the pass's answers and this process's peak RSS.
"""

import json
import os
import sys

import common

common.use_source_tree()

import workloads  # noqa: E402  (needs the source tree on sys.path)


def main() -> None:
    module = workloads.by_name(sys.argv[1])
    answer, finish_pass = module.cold_start(sys.argv[3:])
    print(json.dumps({"answer": answer, "native": common.backend_record()}), flush=True)
    if sys.argv[2] != "pass":
        return
    answers = finish_pass()
    rss_mb = common.pid_peak_rss_mb(os.getpid())
    print(json.dumps({"answers": answers, "peak_rss_mb": rss_mb}), flush=True)


if __name__ == "__main__":
    main()
