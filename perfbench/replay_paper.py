"""replay-paper: the paper's 105-case RAPMD evaluation through the fleet.

One pass submits all 105 paper-shape cases of one RAPMD evaluation set
to a thread-mode :class:`~repro.fleet.FleetSupervisor` (what
``fleet_localize`` wraps), tenants assigned round-robin, and drains it.
One operation is one case, from ``submit`` to its result landing on the
supervisor's ``on_result`` hook.  Each seed makes ``N_SETS`` evaluation
sets; passes cycle through them on fresh dataset objects until the
window closes, so every pass pays the engine builds a real replay pays
and one run's figures do not hang on a single set's hardest cases.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import common

NAME = "replay-paper"
N_CASES = 105
#: RAPMD evaluation sets per seed (f1 averages over all of them).
N_SETS = 4
#: Shards per layout.  One shard thread beside the submitting thread
#: keeps the load within the host's two CPUs.
SHARDS = 1
TENANTS = 4


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.sets = [common.paper_cases(seed * N_SETS + i, N_CASES) for i in range(N_SETS)]
        self.references = [common.serial_reference(cases) for cases in self.sets]
        # The layer groups and the cold start use the first set.
        self.cases, self.reference = self.sets[0], self.references[0]


def prepare(seed: int) -> State:
    return State(seed)


def make_supervisor():
    from repro.core.miner import RAPMiner
    from repro.fleet import FleetConfig, FleetSupervisor

    return FleetSupervisor(
        RAPMiner(), config=FleetConfig(shards_per_layout=SHARDS, k_from_truth=True)
    )


def run_pass(cases) -> tuple:
    """Submit every case, drain, return ``(submit_times, outcomes, wall_s)``.

    ``outcomes`` maps seq to ``(landed_at, outcome)``.
    """
    supervisor = make_supervisor()
    landed: Dict[int, tuple] = {}

    def on_result(outcome) -> None:
        landed[outcome.seq] = (time.perf_counter(), outcome)

    supervisor.on_result = on_result
    submitted: List[float] = []
    started = time.perf_counter()
    for i, case in enumerate(cases):
        submitted.append(time.perf_counter())
        supervisor.submit(case, tenant=f"tenant-{i % TENANTS}")
    supervisor.drain()
    return submitted, landed, time.perf_counter() - started


def measure(state: State, seconds: float) -> common.OpLog:
    log = common.OpLog()
    window = common.Window(seconds)
    index = 0
    # Close at the end of a cycle through the sets, so each run weighs
    # them alike.
    while window.open() or index % N_SETS:
        cases = [common.fresh_case(c) for c in state.sets[index % N_SETS]]
        reference = state.references[index % N_SETS]
        index += 1
        gc.collect()
        submitted, landed, wall = run_pass(cases)
        log.wall_s += wall
        for seq, expected in enumerate(reference):
            entry = landed.get(seq)
            if entry is None:
                log.fail(completed=False)
                continue
            at, outcome = entry
            if outcome.error is None and [str(p) for p in outcome.predicted] == expected:
                log.ok(at - submitted[seq])
                window.count()
            else:
                log.fail()
    return log


def f1(state: State) -> float:
    return common.f1_of(
        [p for ref in state.references for p in ref], [c for s in state.sets for c in s]
    )


# -- cold start ---------------------------------------------------------------


def setup_inputs(state: State) -> List[str]:
    """The first case (cold start) and the first set (the pass after it)."""
    from repro.data.io import save_cases_npz

    common.WORK.mkdir(parents=True, exist_ok=True)
    first = common.WORK / "replay-first-case.npz"
    whole = common.WORK / "replay-first-set.npz"
    save_cases_npz(state.cases[:1], first)
    save_cases_npz(state.cases, whole)
    return [str(first), str(whole)]


def setup_answer_ok(state: State, answer) -> bool:
    return answer == state.reference[0]


def pass_answers_ok(state: State, answers) -> bool:
    return answers == state.reference


def cold_start(inputs: List[str]):
    """Runs in a fresh interpreter: build the fleet, answer the first case.

    Returns the answer and a callable that replays the whole first set
    through a new fleet and returns its answers in submission order.
    """
    from repro.data.io import load_cases_npz

    case = load_cases_npz(inputs[0])[0]
    supervisor = make_supervisor()
    supervisor.submit(case, tenant="tenant-0")
    evaluation = supervisor.drain()

    def finish_pass() -> List[List[str]]:
        __, landed, __ = run_pass(load_cases_npz(inputs[1]))
        return [[str(p) for p in landed[seq][1].predicted] for seq in sorted(landed)]

    return [str(p) for p in evaluation.results[0].predicted], finish_pass


def traced(state: State, seconds: float) -> Dict[str, object]:
    import layers

    def unit() -> None:
        run_pass([common.fresh_case(c) for c in state.cases])

    return layers.traced_run(state.cases, state.reference, state.seed, seconds, unit)


def describe() -> Dict[str, object]:
    return {
        "shards": SHARDS,
        "tenants": TENANTS,
        "cases": N_CASES,
        "sets": N_SETS,
        "rss_process": "cold-start child after one pass over the first set",
    }
