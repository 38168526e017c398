"""Work-stealing scheduler over layout-keyed shard queues.

The fleet's unit of placement is the **shard**: a long-lived worker that
owns warm per-schema engine state (see :mod:`repro.fleet.supervisor`).
Shards are grouped by *layout* — the ``(attribute names, sizes)`` pair
that decides whether two cases can share an engine's code-derived caches
— because stealing across layouts would trade queue balance for cold
engine rebuilds, which is exactly the head-of-line cost the fleet
exists to remove.

Placement and stealing rules, all deterministic:

* **Routing** — each ``(layout, tenant)`` pair gets a *home shard*,
  assigned round-robin over the layout's shards in tenant first-seen
  order.  Consecutive cases of one tenant therefore land on one queue,
  maximizing warm-engine reuse, and the assignment is a pure function of
  the submission order.
* **Stealing** — a shard whose queue is empty steals from the
  most-loaded *alive, same-layout* shard (ties broken by lowest shard
  id): half of the victim's queue, taken from the **tail**, order
  preserved.  Taking the tail leaves the victim the oldest work — the
  cases its warm engines were built for — while the thief inherits the
  backlog the victim would have reached last.  ``max(1, n // 2)`` items
  move per steal, so a steal always makes progress and never empties a
  queue the victim is actively draining.
* **Crash drain** — :meth:`WorkStealingScheduler.kill` marks a shard
  dead and hands back its queued items so the supervisor can requeue
  them onto survivors (or degrade them to error records when the layout
  has no survivors).

Results never depend on the steal interleaving: every item carries a
monotonically increasing sequence id assigned at submission, and the
supervisor reassembles output by sequence id, so the fleet's answer is
bit-identical to a serial run no matter which shard executed what.

:func:`simulated_makespan` runs the same scheduler under a virtual
clock — per-item costs instead of wall time — which gives a
host-independent measure of how much balance stealing buys on a given
tenant mix (the fleet benchmark gates on it where wall-clock speedup
cannot be measured honestly, i.e. single-CPU machines).
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..data.dataset import FineGrainedDataset
from ..data.injection import LocalizationCase
from ..obs import trace as _trace

__all__ = [
    "FleetItem",
    "NoCompatibleShard",
    "ShardQueue",
    "WorkStealingScheduler",
    "layout_key",
    "simulated_makespan",
]

#: A shard layout key: the schema identity that decides engine-cache
#: compatibility (mirrors the batch layer's per-worker engine key).
LayoutKey = Tuple[Tuple[str, ...], Tuple[int, ...]]


def layout_key(dataset: FineGrainedDataset) -> LayoutKey:
    """The shard-grouping key of *dataset* (schema names and sizes)."""
    return (tuple(dataset.schema.names), tuple(dataset.schema.sizes))


class NoCompatibleShard(RuntimeError):
    """No alive shard exists for the item's layout."""


@dataclass
class FleetItem:
    """One queued localization case, tagged for routing and sequencing.

    ``seq`` is the global submission order — the only ordering the
    fleet's output respects.  ``attempts`` counts executions started; a
    crashed item requeues once (``attempts == 1``) before degrading to
    an error record.

    ``deadline_ms`` / ``degrade`` are the per-request resilience
    contract of the serving front door (:mod:`repro.serving`): a
    deadline-carrying item runs through the method's budget-aware
    ``run`` path (when it has one) so one slow request degrades itself
    instead of stalling its shard; items without a deadline take the
    plain ``localize`` path, bit-identical to a serial run.
    """

    seq: int
    tenant: str
    case: LocalizationCase
    layout: LayoutKey
    attempts: int = 0
    #: Per-item wall-clock budget in milliseconds (``None`` = unlimited).
    deadline_ms: Optional[float] = None
    #: Apply the default degradation ladder while the budget drains.
    degrade: bool = False
    #: Per-item top-k override (``None`` = the fleet config's policy).
    k: Optional[int] = None
    #: Set once the item's result is recorded; a crashed micro-batch
    #: requeues only its unfinished members.
    finished: bool = False


@dataclass
class ShardQueue:
    """One shard's run queue plus its liveness and steal accounting."""

    shard_id: int
    layout: LayoutKey
    items: deque = field(default_factory=deque)
    alive: bool = True
    #: Items this shard executed (batches started, in items).
    executed: int = 0
    #: Steal operations this shard performed as the thief.
    steals: int = 0
    #: Items this shard gained by stealing.
    stolen_in: int = 0
    #: Items other shards took from this queue.
    stolen_out: int = 0

    def depth(self) -> int:
        return len(self.items)


class WorkStealingScheduler:
    """Routes :class:`FleetItem` submissions and feeds shard workers.

    Thread-safe: every mutation happens under one lock, and
    :meth:`acquire` can block on the paired condition until work arrives
    or :meth:`close` declares the fleet drained.  The supervisor owns
    the completion accounting; the scheduler only knows queues.

    ``steal=False`` turns the same structure into a static sharder (the
    benchmark's baseline): shards then only ever run their own queue.
    """

    def __init__(self, shards_per_layout: int = 2, steal: bool = True):
        if shards_per_layout < 1:
            raise ValueError(
                f"shards_per_layout must be >= 1, got {shards_per_layout}"
            )
        self.shards_per_layout = shards_per_layout
        self.steal = steal
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._shards: List[ShardQueue] = []
        self._layout_shards: Dict[LayoutKey, List[int]] = {}
        self._homes: Dict[Tuple[LayoutKey, str], int] = {}
        self._next_home: Dict[LayoutKey, int] = {}
        self._closed = False

    # -- shard management --------------------------------------------------

    @property
    def shards(self) -> List[ShardQueue]:
        """All shard queues, in creation order (stable shard ids)."""
        return list(self._shards)

    def _ensure_layout(self, layout: LayoutKey) -> List[int]:
        """The shard ids of *layout*, creating its group on first use."""
        ids = self._layout_shards.get(layout)
        if ids is None:
            ids = []
            for __ in range(self.shards_per_layout):
                shard = ShardQueue(shard_id=len(self._shards), layout=layout)
                self._shards.append(shard)
                ids.append(shard.shard_id)
            self._layout_shards[layout] = ids
            self._next_home[layout] = 0
        return ids

    def _home_for(self, layout: LayoutKey, tenant: str) -> Optional[int]:
        """The (alive) home shard id of ``(layout, tenant)``, or ``None``.

        First-seen tenants are assigned round-robin; a dead home falls
        forward to the next alive shard of the layout without disturbing
        other tenants' assignments.
        """
        ids = self._ensure_layout(layout)
        key = (layout, tenant)
        home = self._homes.get(key)
        if home is None:
            cursor = self._next_home[layout]
            home = ids[cursor % len(ids)]
            self._next_home[layout] = cursor + 1
            self._homes[key] = home
        if self._shards[home].alive:
            return home
        for shard_id in ids:
            if self._shards[shard_id].alive:
                return shard_id
        return None

    def home_shard(self, layout: LayoutKey, tenant: str) -> Optional[int]:
        """Assign and return ``(layout, tenant)``'s home shard, queueing nothing.

        Creates the layout's shard group and registers the tenant's home
        exactly as a submission would, so future cases of the tenant
        route to the returned shard.  :meth:`FleetSupervisor.warm_start`
        primes engines through this instead of a queued item — a priming
        item popped back via :meth:`acquire` could take a real pending
        case's place at the queue head.  ``None`` when every shard of
        the layout is dead.
        """
        with self._ready:
            return self._home_for(layout, tenant)

    # -- submission --------------------------------------------------------

    def submit(self, item: FleetItem) -> int:
        """Queue *item* on its home shard and return the shard id.

        Raises :class:`NoCompatibleShard` when every shard of the item's
        layout is dead — the caller degrades the item to an error record
        instead of letting it wait forever.
        """
        with self._ready:
            home = self._home_for(item.layout, item.tenant)
            if home is None:
                raise NoCompatibleShard(
                    f"no alive shard for layout {item.layout!r}"
                )
            shard = self._shards[home]
            shard.items.append(item)
            if _trace.ACTIVE:
                obs.set_gauge(
                    "fleet_queue_depth", shard.depth(), shard=str(home)
                )
            self._ready.notify_all()
            return home

    # -- acquisition -------------------------------------------------------

    def _steal_into(self, thief: ShardQueue) -> bool:
        """Move half the tail of the most-loaded same-layout queue to *thief*."""
        victim: Optional[ShardQueue] = None
        for shard_id in self._layout_shards.get(thief.layout, ()):
            candidate = self._shards[shard_id]
            if (
                candidate.shard_id != thief.shard_id
                and candidate.alive
                and candidate.items
                and (victim is None or len(candidate.items) > len(victim.items))
            ):
                victim = candidate
        if victim is None:
            return False
        count = max(1, len(victim.items) // 2)
        tail = [victim.items.pop() for __ in range(count)]
        tail.reverse()  # preserve the victim's submission order
        thief.items.extend(tail)
        thief.steals += 1
        thief.stolen_in += count
        victim.stolen_out += count
        if _trace.ACTIVE:
            obs.inc("fleet_steals_total")
            obs.inc("fleet_stolen_cases_total", count)
            obs.set_gauge(
                "fleet_queue_depth", victim.depth(), shard=str(victim.shard_id)
            )
        return True

    def acquire(
        self, shard_id: int, limit: int = 1, block: bool = False
    ) -> List[FleetItem]:
        """Up to *limit* items for shard *shard_id* to run next.

        Pops from the shard's own queue head; when the queue is empty
        and stealing is on, first steals half the tail of the most
        loaded same-layout queue.  With ``block=True`` the call waits
        until items arrive or :meth:`close` is called; an empty return
        then means the fleet is drained (or this shard is dead) and the
        worker should exit.

        Only same-layout items are ever returned, so every acquired
        micro-batch can share one stacked engine pass.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._ready:
            while True:
                shard = self._shards[shard_id]
                if not shard.alive:
                    return []
                if not shard.items and self.steal:
                    self._steal_into(shard)
                if shard.items:
                    count = min(limit, len(shard.items))
                    batch = [shard.items.popleft() for __ in range(count)]
                    shard.executed += count
                    for item in batch:
                        item.attempts += 1
                    if _trace.ACTIVE:
                        obs.set_gauge(
                            "fleet_queue_depth", shard.depth(), shard=str(shard_id)
                        )
                    return batch
                if self._closed or not block:
                    return []
                self._ready.wait()

    def has_work(self, shard_id: int) -> bool:
        """True when :meth:`acquire` would return items right now."""
        with self._lock:
            shard = self._shards[shard_id]
            if not shard.alive:
                return False
            if shard.items:
                return True
            if not self.steal:
                return False
            return any(
                self._shards[other].alive and self._shards[other].items
                for other in self._layout_shards.get(shard.layout, ())
                if other != shard_id
            )

    # -- liveness ----------------------------------------------------------

    def kill(self, shard_id: int) -> List[FleetItem]:
        """Mark a shard dead and drain its queue for requeueing."""
        with self._ready:
            shard = self._shards[shard_id]
            shard.alive = False
            drained = list(shard.items)
            shard.items.clear()
            if _trace.ACTIVE:
                obs.set_gauge("fleet_queue_depth", 0, shard=str(shard_id))
            self._ready.notify_all()
            return drained

    def alive_shards(self, layout: Optional[LayoutKey] = None) -> List[int]:
        with self._lock:
            return [
                s.shard_id
                for s in self._shards
                if s.alive and (layout is None or s.layout == layout)
            ]

    def close(self) -> None:
        """Declare the fleet drained: blocked acquirers return empty."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def reopen(self) -> None:
        """Allow blocking acquires again (a new drain round is starting)."""
        with self._ready:
            self._closed = False

    # -- accounting --------------------------------------------------------

    @property
    def total_steals(self) -> int:
        with self._lock:
            return sum(s.steals for s in self._shards)

    @property
    def total_stolen(self) -> int:
        with self._lock:
            return sum(s.stolen_in for s in self._shards)

    def queue_depths(self) -> Dict[int, int]:
        with self._lock:
            return {s.shard_id: s.depth() for s in self._shards}


def simulated_makespan(
    jobs: Sequence[Tuple[str, LayoutKey, float]],
    shards_per_layout: int,
    steal: bool,
    cost_fn: Optional[Callable[[int], float]] = None,
) -> Tuple[float, int]:
    """Virtual-clock makespan of *jobs* under the fleet's placement rules.

    ``jobs`` is the submission order as ``(tenant, layout, cost)``
    triples.  Every shard owns a virtual clock; the simulation always
    advances the laggard shard (min clock, ties to lowest id), which
    acquires one item under exactly the scheduler's routing/steal rules
    and pays the item's cost.  Returns ``(makespan, steals)`` where the
    makespan is the slowest shard's finish time.

    This is a *mechanism* measurement, independent of host CPU count and
    the GIL: it answers "how well does stealing balance this tenant
    mix", which is the property the benchmark gate checks on machines
    where a wall-clock comparison would only time contention.
    """
    scheduler = WorkStealingScheduler(
        shards_per_layout=shards_per_layout, steal=steal
    )
    items: List[FleetItem] = []
    costs: Dict[int, float] = {}
    for seq, (tenant, layout, cost) in enumerate(jobs):
        item = FleetItem(seq=seq, tenant=tenant, case=None, layout=layout)
        items.append(item)
        costs[seq] = float(cost) if cost_fn is None else float(cost_fn(seq))
        scheduler.submit(item)
    clocks = [(0.0, shard.shard_id) for shard in scheduler.shards]
    heapq.heapify(clocks)
    makespan = 0.0
    while clocks:
        now, shard_id = heapq.heappop(clocks)
        batch = scheduler.acquire(shard_id, limit=1)
        if not batch:
            makespan = max(makespan, now)
            continue  # this shard is done; its clock stops here
        now += costs[batch[0].seq]
        makespan = max(makespan, now)
        heapq.heappush(clocks, (now, shard_id))
    return makespan, scheduler.total_steals
