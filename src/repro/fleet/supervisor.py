"""Fleet supervisor: long-lived warm-engine shards serving tenant streams.

:class:`FleetSupervisor` turns the repo's one-batch-at-a-time execution
layer into a continuously-serving fleet.  It owns a group of **shards**
per schema layout — each a long-lived worker holding the warm
:class:`~repro.core.engine.AggregationEngine` of the last case it ran
per layout, so consecutive cases of one tenant reuse code-derived caches
through :meth:`~repro.core.engine.AggregationEngine.warm_clone` instead
of re-aggregating from cold — and drives them through the
work-stealing :class:`~repro.fleet.scheduler.WorkStealingScheduler`.

Determinism contract: each case's localization touches only that case's
dataset and engine, warm clones are bitwise-equal to cold builds (the
engine layer's invariant), and results are reassembled by submission
sequence id — so fleet output is **bit-identical to a serial run** of
the same cases, whatever the steal interleaving, shard count, quota
pressure, or crash pattern.  The property suite drives randomized steal
schedules through the ``inline`` mode to check exactly this.

Admission control: each tenant may hold at most
:attr:`FleetConfig.tenant_quota` cases in the shard queues; excess
submissions wait in a per-tenant overflow deque and are admitted (in
submission order) as that tenant's earlier cases complete.  This bounds
any single tenant's queue footprint — the skewed tenant of a Zipf mix
cannot monopolize shard memory — without changing output order.

Crash handling composes with the resilience layer's contract: an
exception escaping a shard's localizer (e.g. the chaos harness's
:class:`~repro.resilience.chaos.WorkerCrash`) kills the shard; its
in-flight and queued items requeue **once** onto surviving same-layout
shards, and an item whose second attempt also dies — or whose layout has
no survivors — degrades to a :class:`~repro.experiments.runner.CaseResult`
with the failure on ``error``, never a raised batch.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.engine import AggregationEngine, engine_for
from ..data.injection import LocalizationCase
from ..experiments.runner import CaseResult, MethodEvaluation
from ..metrics.timing import time_localization
from ..obs import trace as _trace
from ..resilience.budget import Budget
from ..resilience.degrade import DegradationPolicy
from .scheduler import (
    FleetItem,
    LayoutKey,
    NoCompatibleShard,
    WorkStealingScheduler,
    layout_key,
)
from .store import FleetStore

__all__ = [
    "CaseOutcome",
    "FleetConfig",
    "FleetSupervisor",
    "fleet_localize",
    "replay_store",
    "tenant_of",
]

#: Metadata key carrying a case's tenant; absent means ``"default"``.
TENANT_KEY = "tenant"


def tenant_of(case: LocalizationCase) -> str:
    """The tenant a case belongs to (``metadata["tenant"]`` or default)."""
    return str(case.metadata.get(TENANT_KEY, "default"))


@dataclass
class FleetConfig:
    """Tuning knobs of one fleet run (see ``docs/operational.md``)."""

    #: Shards per schema layout (queue count = layouts x this).
    shards_per_layout: int = 2
    #: Work stealing on/off (off = the static-shard benchmark baseline).
    steal: bool = True
    #: Cases a shard acquires per trip to the scheduler.  ``1`` runs the
    #: per-case path with warm engine reuse; larger values opt into the
    #: method's case-stacked ``run_batch`` kernel when it has one.
    microbatch: int = 1
    #: Max queued (admitted, not yet completed) cases per tenant; excess
    #: waits in the supervisor's overflow deque.
    tenant_quota: int = 8
    #: ``"thread"`` runs one worker thread per shard; ``"inline"``
    #: single-steps shards deterministically in the calling thread
    #: (property tests and the virtual-clock benchmark use it).
    mode: str = "thread"
    #: Ranked patterns to keep per case (``None`` = all; overridden per
    #: case by ``k_from_truth``).
    k: Optional[int] = None
    #: Use ``len(case.true_raps)`` as each case's ``k`` (oracle cardinality).
    k_from_truth: bool = False
    #: Metadata key copied onto ``CaseResult.group``.
    group_key: str = "group"
    #: Kernel backend name for cold engine builds (``None`` = default).
    backend: Optional[str] = None
    #: Inline-mode shard interleaving: a ``random.Random``-like object
    #: with ``choice`` picks which ready shard steps next; ``None`` is
    #: round-robin.  Ignored in thread mode.
    schedule: Optional[object] = None

    def __post_init__(self) -> None:
        if self.mode not in ("thread", "inline"):
            raise ValueError(f"mode must be 'thread' or 'inline', got {self.mode!r}")
        if self.microbatch < 1:
            raise ValueError(f"microbatch must be >= 1, got {self.microbatch}")
        if self.tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {self.tenant_quota}")


@dataclass(frozen=True)
class CaseOutcome:
    """One finished case, as delivered to :attr:`FleetSupervisor.on_result`.

    The serving front door (:mod:`repro.serving`) keys per-request
    response futures on ``seq``; everything else is what the network
    response needs that a :class:`~repro.experiments.runner.CaseResult`
    row does not carry (tenant, shard, stop reason, degradation tier).
    """

    seq: int
    case_id: str
    tenant: str
    predicted: Tuple
    seconds: float
    shard: Optional[int] = None
    error: Optional[str] = None
    #: Search stop reason when the item ran the budget-aware path
    #: (``"deadline"`` marks a partial result), else ``None``.
    stop_reason: Optional[str] = None
    #: Degradation-ladder rung that served the item (``None`` = full).
    tier: Optional[str] = None


@dataclass
class _ShardState:
    """Supervisor-side state of one shard worker."""

    shard_id: int
    #: Warm engine per layout: the engine of the last case this shard ran.
    engines: Dict[LayoutKey, AggregationEngine] = field(default_factory=dict)
    thread: Optional[threading.Thread] = None


class FleetSupervisor:
    """Owns the shards, the scheduler, and the result reassembly.

    One supervisor serves one *drain*: submit cases (all up front or
    incrementally), call :meth:`drain`, collect the
    :class:`~repro.experiments.runner.MethodEvaluation`.  Engines stay
    warm across drains on the same supervisor — that is what
    :meth:`warm_start` exploits after a restart.
    """

    def __init__(
        self,
        method,
        config: Optional[FleetConfig] = None,
        store: Optional[FleetStore] = None,
    ):
        self.method = method
        self.config = config if config is not None else FleetConfig()
        self.store = store
        self.scheduler = WorkStealingScheduler(
            shards_per_layout=self.config.shards_per_layout,
            steal=self.config.steal,
        )
        #: Per-finish hook: called with a :class:`CaseOutcome` (off the
        #: supervisor lock, from whichever thread finished the case) as
        #: each result lands.  The serving layer resolves its response
        #: futures here; ``None`` costs nothing.
        self.on_result: Optional[Callable[[CaseOutcome], None]] = None
        runner = getattr(method, "run", None)
        if callable(runner):
            try:
                self._runner_params = frozenset(inspect.signature(runner).parameters)
            except (TypeError, ValueError):  # pragma: no cover - exotic callables
                self._runner_params = frozenset()
        else:
            self._runner_params = frozenset()
        #: Serving mode: workers persist across idle periods instead of
        #: exiting when the queues drain (see :meth:`start_serving`).
        self._serving = False
        self._lock = threading.Lock()
        self._states: Dict[int, _ShardState] = {}
        #: Finished rows by seq, for :meth:`drain`; not kept from
        #: :meth:`start_serving` until :meth:`stop_serving` has retired
        #: the workers, since serving delivers every row to ``on_result``.
        self._rows: Dict[int, Tuple] = {}
        self._keep_rows = True
        self._overflow: Dict[str, deque] = {}
        self._inflight: Dict[str, int] = {}
        self._outstanding = 0
        self._next_seq = 0
        #: Thread-mode drain bookkeeping: shards with a worker this drain,
        #: the worker threads to join, and whether a drain is in flight.
        self._worker_shards: set = set()
        self._worker_threads: List[threading.Thread] = []
        self._thread_drain_active = False
        #: Cases whose second attempt is pending, keyed by seq (crash path).
        self._requeues = 0
        self._crashes = 0

    # -- submission --------------------------------------------------------

    def submit(
        self,
        case: LocalizationCase,
        tenant: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        degrade: bool = False,
        k: Optional[int] = None,
    ) -> int:
        """Enqueue one case; returns its sequence id (= output position).

        ``deadline_ms`` attaches a per-case wall-clock budget, honoured
        by methods with a budget-aware ``run`` (an expired budget yields
        a partial result with ``stop_reason="deadline"``, never an
        error); ``degrade`` additionally applies the default degradation
        ladder while that budget drains.  ``k`` overrides the fleet
        config's top-k policy for this case only (serving requests carry
        their own ``k``).
        """
        tenant = tenant_of(case) if tenant is None else str(tenant)
        item = FleetItem(
            seq=self._take_seq(),
            tenant=tenant,
            case=case,
            layout=layout_key(case.dataset),
            deadline_ms=deadline_ms,
            degrade=degrade,
            k=k,
        )
        if self.store is not None:
            self.store.append_case(item.seq, tenant, case)
        if _trace.ACTIVE:
            obs.inc("fleet_cases_total")
        with self._lock:
            self._outstanding += 1
            if self._inflight.get(tenant, 0) >= self.config.tenant_quota:
                self._overflow.setdefault(tenant, deque()).append(item)
                if _trace.ACTIVE:
                    obs.inc("fleet_quota_deferrals_total")
                return item.seq
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._dispatch(item)
        return item.seq

    def _take_seq(self) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def _dispatch(self, item: FleetItem) -> None:
        """Hand an admitted item to the scheduler (or degrade it)."""
        try:
            self.scheduler.submit(item)
        except NoCompatibleShard as exc:
            self._record_error(item, exc)
            return
        # The submit may have created a first-seen layout's shard group
        # (overflow admission mid-drain); a thread-mode drain must grow a
        # worker for it or its queue is never serviced and drain() hangs.
        self._ensure_workers()

    # -- execution ---------------------------------------------------------

    def _state_for(self, shard_id: int) -> _ShardState:
        with self._lock:
            state = self._states.get(shard_id)
            if state is None:
                state = _ShardState(shard_id=shard_id)
                self._states[shard_id] = state
            return state

    def _engine_ready(self, state: _ShardState, case: LocalizationCase) -> None:
        """Install a warm or cold engine for the case's dataset.

        A warm clone is only legal over an identical leaf population
        (same schema *and* codes); otherwise the build falls back cold.
        Either way the shard remembers the dataset's engine as the
        layout's new warm source.
        """
        layout = layout_key(case.dataset)
        cached = state.engines.get(layout)
        if cached is not None and cached.compatible_with(case.dataset):
            engine = cached.warm_clone(case.dataset)
            outcome = "warm"
        else:
            engine = engine_for(case.dataset, backend=self.config.backend)
            outcome = "cold"
        state.engines[layout] = engine
        if _trace.ACTIVE:
            obs.inc("fleet_engine_builds_total", outcome=outcome)

    def _case_k(self, case: LocalizationCase) -> Optional[int]:
        return len(case.true_raps) if self.config.k_from_truth else self.config.k

    def _item_k(self, item: FleetItem) -> Optional[int]:
        return item.k if item.k is not None else self._case_k(item.case)

    def _execute(self, shard_id: int, batch: List[FleetItem]) -> None:
        """Run one acquired micro-batch; a raise here kills the shard."""
        state = self._state_for(shard_id)
        supports_batch = len(batch) > 1 and hasattr(self.method, "run_batch")
        with obs.span("fleet.shard_batch", shard=shard_id, cases=len(batch)):
            if supports_batch:
                start = time.perf_counter()
                results = self.method.run_batch(
                    [item.case.dataset for item in batch], k=None
                )
                per_case = (time.perf_counter() - start) / len(batch)
                for item, result in zip(batch, results):
                    case_k = self._item_k(item)
                    predicted = (
                        result.patterns if case_k is None else result.top(case_k)
                    )
                    self._record(item, shard_id, list(predicted), per_case)
            else:
                for item in batch:
                    self._engine_ready(state, item.case)
                    if item.deadline_ms is not None and "budget" in self._runner_params:
                        self._execute_budgeted(item, shard_id)
                    else:
                        predicted, seconds = time_localization(
                            self.method.localize,
                            item.case.dataset,
                            self._item_k(item),
                        )
                        self._record(item, shard_id, list(predicted), seconds)

    def _execute_budgeted(self, item: FleetItem, shard_id: int) -> None:
        """Run one deadline-carrying item through the method's ``run``.

        The per-item :class:`~repro.resilience.budget.Budget` starts
        counting here — execution time, not queue time, is what the
        budget bounds (admission already shed anything that queued past
        its welcome).  Expiry ends the search at a layer boundary with
        the candidates found so far; the stop reason and ladder rung ride
        back on the result row for the serving response.
        """
        kwargs = {"budget": Budget.from_ms(item.deadline_ms)}
        if item.degrade and "degradation" in self._runner_params:
            kwargs["degradation"] = DegradationPolicy()
        start = time.perf_counter()
        result = self.method.run(
            item.case.dataset, k=self._item_k(item), **kwargs
        )
        seconds = time.perf_counter() - start
        stats = getattr(result, "stats", None)
        self._record(
            item,
            shard_id,
            list(result.patterns),
            seconds,
            stop_reason=getattr(stats, "stop_reason", None),
            tier=getattr(stats, "degradation_tier", None),
        )

    def _run_guarded(self, shard_id: int, batch: List[FleetItem]) -> None:
        """:meth:`_execute` with the crash-requeue-once protocol."""
        try:
            self._execute(shard_id, batch)
        except BaseException as exc:
            # Rows recorded before the raise stand; only the unfinished
            # part of the micro-batch goes through the crash protocol.
            unfinished = [i for i in batch if not i.finished]
            # The per-case loop runs in order, so the first unfinished
            # item is the one that was executing when the shard died —
            # the only one charged a retry attempt.  The tail never
            # started and keeps its budget: a case must not degrade to
            # an error row because it was queued behind a poison pill.
            # A fused run_batch crash cannot be attributed to one case,
            # so there every batch member is charged.
            if not (len(batch) > 1 and hasattr(self.method, "run_batch")):
                for innocent in unfinished[1:]:
                    innocent.attempts -= 1
            self._crash(shard_id, unfinished, exc)

    def _crash(
        self, shard_id: int, inflight: List[FleetItem], exc: BaseException
    ) -> None:
        """Kill a shard; requeue its work once, then degrade to errors."""
        with self._lock:
            self._crashes += 1
        if _trace.ACTIVE:
            obs.inc("fleet_crashes_total")
        drained = self.scheduler.kill(shard_id)
        for item in inflight + drained:
            if item.attempts >= 2:
                self._record_error(item, exc)
                continue
            with self._lock:
                self._requeues += 1
            if _trace.ACTIVE:
                obs.inc("fleet_requeues_total")
            self._dispatch(item)

    # -- results -----------------------------------------------------------

    def _result_row(
        self,
        item: FleetItem,
        shard_id: Optional[int],
        predicted: List,
        seconds: float,
        error: Optional[str],
        stop_reason: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> Tuple:
        case = item.case
        return (
            item.seq,
            case.case_id,
            predicted,
            tuple(case.true_raps),
            seconds,
            case.metadata.get(self.config.group_key),
            item.tenant,
            shard_id,
            error,
            stop_reason,
            tier,
        )

    def _record(
        self,
        item: FleetItem,
        shard_id: int,
        predicted: List,
        seconds: float,
        stop_reason: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> None:
        self._finish(
            item,
            self._result_row(
                item, shard_id, predicted, seconds, None, stop_reason, tier
            ),
        )

    def _record_error(self, item: FleetItem, exc: BaseException) -> None:
        if _trace.ACTIVE:
            obs.inc("fleet_errors_total")
        self._finish(
            item, self._result_row(item, None, [], 0.0, f"{type(exc).__name__}: {exc}")
        )

    def _finish(self, item: FleetItem, row: Tuple) -> None:
        """Record a finished row, admit overflow, close when drained.

        In serving mode the row goes only to :attr:`on_result`, so a
        long-lived server holds no per-request state once it answered.
        """
        item.finished = True
        seq, tenant = row[0], row[6]
        if self.store is not None:
            self.store.append_result(
                seq,
                tenant,
                {
                    "case_id": row[1],
                    "predicted": [str(p) for p in row[2]],
                    "true_raps": [str(r) for r in row[3]],
                    "seconds": row[4],
                    "group": row[5],
                    "shard": row[7],
                    "error": row[8],
                },
            )
        admit = None
        with self._lock:
            if self._keep_rows:
                self._rows[seq] = row
            self._outstanding -= 1
            waiting = self._overflow.get(tenant)
            if waiting:
                admit = waiting.popleft()
            else:
                self._inflight[tenant] = max(0, self._inflight.get(tenant, 1) - 1)
            # Serving-mode workers must survive idle periods: closing on
            # a momentarily empty fleet would retire them between requests.
            drained = self._outstanding == 0 and not self._serving
        if admit is not None:
            self._dispatch(admit)
        elif drained:
            self.scheduler.close()
        callback = self.on_result
        if callback is not None:
            callback(
                CaseOutcome(
                    seq=row[0],
                    case_id=row[1],
                    tenant=row[6],
                    predicted=tuple(row[2]),
                    seconds=row[4],
                    shard=row[7],
                    error=row[8],
                    stop_reason=row[9],
                    tier=row[10],
                )
            )

    # -- drive loops -------------------------------------------------------

    def _worker(self, shard_id: int) -> None:
        while True:
            batch = self.scheduler.acquire(
                shard_id, limit=self.config.microbatch, block=True
            )
            if not batch:
                return
            self._run_guarded(shard_id, batch)

    def _ensure_workers(self) -> None:
        """Spawn a worker for every alive shard not yet serviced this drain.

        Called at thread-drain start and again from :meth:`_dispatch`,
        because dispatch can create shard groups mid-drain: a quota
        overflow item whose layout no admitted case shared only reaches
        ``scheduler.submit`` (and hence ``_ensure_layout``) when an
        earlier case completes.  Outside a thread drain this is a no-op.
        """
        with self._lock:
            if not self._thread_drain_active:
                return
            for shard in self.scheduler.shards:
                if not shard.alive or shard.shard_id in self._worker_shards:
                    continue
                self._worker_shards.add(shard.shard_id)
                state = self._states.get(shard.shard_id)
                if state is None:
                    state = _ShardState(shard_id=shard.shard_id)
                    self._states[shard.shard_id] = state
                thread = threading.Thread(
                    target=self._worker,
                    args=(shard.shard_id,),
                    name=f"fleet-shard-{shard.shard_id}",
                    daemon=True,
                )
                state.thread = thread
                # Started before it is visible to the join loop — a fresh
                # worker never needs this lock until it holds a batch, so
                # starting under the lock cannot deadlock.
                thread.start()
                self._worker_threads.append(thread)

    def _drain_threads(self) -> None:
        with self._lock:
            self._thread_drain_active = True
            self._worker_shards = set()
            self._worker_threads = []
        try:
            self._ensure_workers()
            # Workers spawned mid-drain (first-seen layouts) append to the
            # thread list while we join it; loop until no new ones appear.
            joined = 0
            while True:
                with self._lock:
                    threads = list(self._worker_threads)
                if joined == len(threads):
                    return
                for thread in threads[joined:]:
                    thread.join()
                joined = len(threads)
        finally:
            with self._lock:
                self._thread_drain_active = False

    def _drain_inline(self) -> None:
        """Single-step shards in the calling thread, deterministically.

        Each step, the ready shards (those :meth:`WorkStealingScheduler.acquire`
        would serve) are enumerated in id order; ``config.schedule`` (a
        seeded RNG) or round-robin picks one, which acquires and runs one
        micro-batch.  The property suite sweeps seeds here to prove output
        is interleaving-independent.
        """
        rng = self.config.schedule
        cursor = 0
        while True:
            with self._lock:
                if self._outstanding == 0:
                    self.scheduler.close()
                    return
            ready = [
                sid
                for sid in self.scheduler.alive_shards()
                if self.scheduler.has_work(sid)
            ]
            if not ready:
                # outstanding > 0 but nothing queued: every remaining item
                # is un-runnable (dead layout) and was already degraded.
                self.scheduler.close()
                return
            if rng is not None:
                shard_id = rng.choice(ready)
            else:
                shard_id = ready[cursor % len(ready)]
                cursor += 1
            batch = self.scheduler.acquire(shard_id, limit=self.config.microbatch)
            if batch:
                self._run_guarded(shard_id, batch)

    def drain(self) -> MethodEvaluation:
        """Run every submitted case to completion and return the results.

        Output rows are ordered by submission sequence id — the serial
        order — regardless of which shard ran what.
        """
        with obs.span(
            "fleet.drain",
            cases=self._next_seq,
            mode=self.config.mode,
            steal=self.config.steal,
        ):
            self.scheduler.reopen()
            with self._lock:
                pending = self._outstanding > 0
            if pending:
                if self.config.mode == "thread":
                    self._drain_threads()
                else:
                    self._drain_inline()
        evaluation = MethodEvaluation(
            method_name=getattr(self.method, "name", type(self.method).__name__)
        )
        with self._lock:
            rows = [self._rows[seq] for seq in sorted(self._rows)]
        for row in rows:
            evaluation.results.append(
                CaseResult(
                    case_id=row[1],
                    predicted=row[2],
                    true_raps=row[3],
                    seconds=row[4],
                    group=row[5],
                    error=row[8],
                )
            )
        return evaluation

    # -- continuous serving ------------------------------------------------

    @property
    def serving(self) -> bool:
        with self._lock:
            return self._serving

    def start_serving(self) -> None:
        """Switch to continuous mode: workers persist across idle periods.

        In serving mode :meth:`submit` dispatches immediately onto
        long-lived shard workers (spawned lazily as layouts appear) and
        each result is delivered through :attr:`on_result` — there is no
        drain barrier and the scheduler never closes on an empty fleet.
        :meth:`drain` must not be used while serving; the two drive modes
        are exclusive.  Thread mode only.
        """
        if self.config.mode != "thread":
            raise ValueError("start_serving requires FleetConfig(mode='thread')")
        with self._lock:
            if self._serving:
                return
            if self._thread_drain_active:
                raise RuntimeError("cannot start serving during an active drain")
            self._serving = True
            self._keep_rows = False
            self._thread_drain_active = True
            self._worker_shards = set()
            self._worker_threads = []
        self.scheduler.reopen()
        self._ensure_workers()

    def stop_serving(self, timeout: Optional[float] = None) -> None:
        """Finish queued work, retire the workers, and leave serving mode.

        Closing the scheduler lets every worker run its queue dry (queued
        items are still served after close; only an *empty* blocked wait
        returns) and exit.  Idempotent; safe to call with requests still
        in flight — their results are delivered before the workers stop.
        """
        with self._lock:
            if not self._serving:
                return
            self._serving = False
        self.scheduler.close()
        while True:
            with self._lock:
                threads = list(self._worker_threads)
                remaining = [t for t in threads if t.is_alive()]
            if not remaining:
                break
            for thread in remaining:
                thread.join(timeout=timeout)
                if timeout is not None and thread.is_alive():
                    break
            if timeout is not None:
                break
        with self._lock:
            self._thread_drain_active = False
            self._keep_rows = True
            self._worker_shards = set()
            self._worker_threads = []

    # -- warm start --------------------------------------------------------

    def warm_start(self, store: FleetStore) -> int:
        """Prime shard engines from a store's last case per tenant.

        Replays each tenant's newest persisted case on its home shard —
        building the engine and running one localization to populate the
        code-derived caches — so the next drain's compatible cases take
        the ``warm`` build path instead of cold aggregation.  Returns the
        number of tenants primed.  Build counters attribute these runs to
        ``outcome="warmstart"``, keeping the serving-path ``cold`` count
        honest.
        """
        primed = 0
        for tenant, (__, case) in sorted(store.last_cases().items()):
            layout = layout_key(case.dataset)
            # Resolve the tenant's home shard without touching the queues:
            # warm_start may run after real cases were submitted, and a
            # queued priming item acquired back would pop a pending case.
            shard_id = self.scheduler.home_shard(layout, tenant)
            if shard_id is None:
                continue
            state = self._state_for(shard_id)
            engine = engine_for(case.dataset, backend=self.config.backend)
            self.method.localize(case.dataset, self._case_k(case))
            state.engines[layout] = engine
            primed += 1
            if _trace.ACTIVE:
                obs.inc("fleet_engine_builds_total", outcome="warmstart")
        if _trace.ACTIVE and primed:
            obs.inc("fleet_warm_starts_total", primed)
        return primed

    # -- accounting --------------------------------------------------------

    @property
    def requeues(self) -> int:
        with self._lock:
            return self._requeues

    @property
    def crashes(self) -> int:
        with self._lock:
            return self._crashes


def fleet_localize(
    method,
    cases: Sequence[LocalizationCase],
    tenants: Optional[Sequence[str]] = None,
    config: Optional[FleetConfig] = None,
    store: Optional[Union[FleetStore, str]] = None,
) -> MethodEvaluation:
    """One-shot fleet run over *cases* (the CLI and test entry point).

    ``tenants`` parallels ``cases``; omitted, each case's
    ``metadata["tenant"]`` (default ``"default"``) is used.  ``store``
    may be a :class:`FleetStore` or a path; a path-opened store is
    closed (index flushed) before returning.
    """
    if tenants is not None and len(tenants) != len(cases):
        raise ValueError(
            f"tenants ({len(tenants)}) must parallel cases ({len(cases)})"
        )
    owned = isinstance(store, (str,)) or hasattr(store, "__fspath__")
    opened = FleetStore(store) if owned else store
    supervisor = FleetSupervisor(method, config=config, store=opened)
    try:
        for i, case in enumerate(cases):
            supervisor.submit(case, tenant=None if tenants is None else tenants[i])
        return supervisor.drain()
    finally:
        if owned and opened is not None:
            opened.close()


def replay_store(
    method,
    store: Union[FleetStore, str],
    config: Optional[FleetConfig] = None,
) -> MethodEvaluation:
    """Re-run every case persisted in *store*, in original seq order.

    The audit contract: with the same method and configuration, the
    returned evaluation's predictions match the persisted result rows
    string-for-string (and a serial rerun bit-exactly).
    """
    owned = not isinstance(store, FleetStore)
    opened = store if isinstance(store, FleetStore) else FleetStore(store, mode="r")
    try:
        entries = opened.cases()
    finally:
        if owned:
            opened.close()
    return fleet_localize(
        method,
        [case for __, __, case in entries],
        tenants=[tenant for __, tenant, __ in entries],
        config=config,
    )
