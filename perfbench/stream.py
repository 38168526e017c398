"""The monitored CDN stream the traced run's service layers observe.

``LocalizationService.observe`` runs over half-hourly snapshots of the
33x4x4x20 CDN cube (``CDNSimulator``, default 5% lognormal noise) with
the seasonal-naive forecaster and the deviation detector; each day is
observed by a fresh service warmed with the day before (one season).
Incidents follow the RAPMD rules: 1-3 mixed-cuboid RAPs, a per-leaf
``Dev ~ U[0.1, 0.9]`` applied to the observed value, held for 3-5 ticks,
and drawn until the RAPs carry enough traffic for the total-KPI alarm to
fire.

This stream is not an end-to-end workload (``perfbench/README.md`` says
why); the traced run times the forecast, detect, quiet-tick and delta
layers on it.

Traffic cadence.  No source gives an incident rate for this stream (the
paper's RAPMD fixes the shape of one incident, not how often they come),
so the cadence is set from measured constraints: quiet intervals stay
the majority, as in a monitored service, and alarmed intervals are
common enough that a few days give every service layer thousands of
samples.  Gaps of 5-11 quiet ticks between incidents of 3-5 ticks give,
over 96 days for each of seeds 1-10: 31% of intervals inside incidents,
31% alarmed, 99.97% of incident intervals alarmed and no alarm on a quiet
interval.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Days the traced run observes, each on its own simulated CDN.
N_DAYS = 8
SAMPLE_EVERY = 30
PERIOD = 1440 // SAMPLE_EVERY
DETECT_THRESHOLD = 0.2
ALARM_THRESHOLD = 0.02
#: Smallest share of expected traffic an incident's RAPs must carry.
MIN_RAP_SHARE = 0.05
#: Quiet ticks before each incident and ticks each incident lasts.
GAP_TICKS = (5, 11)
INCIDENT_TICKS = (3, 5)


class Day:
    """One monitored day of one CDN: its leaves, warm-up season and ticks."""

    def __init__(self, codes, warmup, ticks, truth):
        self.codes = codes
        self.warmup = warmup
        self.ticks = ticks
        #: Per tick: the injected RAP strings, empty on a quiet tick.
        self.truth: List[Tuple[str, ...]] = truth


def _incident_raps(background, expected, rng):
    from repro.data.injection import sample_raps

    total = float(expected.sum())
    for __ in range(1000):
        n_raps = int(rng.integers(1, 4))
        raps = sample_raps(background, n_raps, rng, dimensions=(1, 2, 3), min_support=4)
        mask = background.mask_of(raps[0])
        for rap in raps[1:]:
            mask = mask | background.mask_of(rap)
        if expected[mask].sum() >= MIN_RAP_SHARE * total:
            return raps, mask
    raise RuntimeError("no incident heavy enough for the total-KPI alarm")


def make_day(schema, seed: int, d: int) -> Day:
    """Day *d* of *seed*, the same on every call.

    It watches its own simulated CDN, ``seed * 1000 + d``: the CDN's
    first simulated day is the warm-up season, its second the monitored
    day.  Days are rebuilt on demand rather than kept in memory.
    """
    import numpy as np
    from repro.data import CDNSimulator, CDNSimulatorConfig
    from repro.data.dataset import FineGrainedDataset

    simulator = CDNSimulator(schema, CDNSimulatorConfig(seed=seed * 1000 + d))
    rng = np.random.default_rng((seed, d))
    codes = simulator.snapshot(0).codes
    warmup = np.stack([simulator.snapshot(j * SAMPLE_EVERY).v for j in range(PERIOD)])
    ticks = np.stack([simulator.snapshot(1440 + j * SAMPLE_EVERY).v for j in range(PERIOD)])
    truth: List[Tuple[str, ...]] = [()] * PERIOD
    t = 0
    while True:
        t += int(rng.integers(GAP_TICKS[0], GAP_TICKS[1] + 1))
        if t >= PERIOD:
            break
        length = int(rng.integers(INCIDENT_TICKS[0], INCIDENT_TICKS[1] + 1))
        snap = simulator.expected_values(1440 + t * SAMPLE_EVERY)
        background = FineGrainedDataset(schema, codes, snap, snap)
        raps, mask = _incident_raps(background, snap, rng)
        scale = 1.0 - rng.uniform(0.1, 0.9, size=int(mask.sum()))
        names = tuple(str(r) for r in raps)
        for j in range(t, min(t + length, PERIOD)):
            ticks[j, mask] *= scale
            truth[j] = names
        t += length
    return Day(codes, warmup, ticks, truth)


def make_service(schema, codes, delta: bool = True):
    from repro.detection import DeviationThresholdDetector, SeasonalNaiveForecaster
    from repro.service import DeviationAlarm, LocalizationService

    return LocalizationService(
        schema=schema,
        codes=codes,
        forecaster=SeasonalNaiveForecaster(period=PERIOD),
        detector=DeviationThresholdDetector(threshold=DETECT_THRESHOLD),
        alarm=DeviationAlarm(threshold=ALARM_THRESHOLD),
        history_capacity=PERIOD,
        min_history=PERIOD,
        delta=delta,
    )


def report_key(report) -> Optional[List[str]]:
    return None if report is None else [str(p) for p in report.patterns]


class State:
    """A seed's days and the reference report of every interval."""

    def __init__(self, seed: int, n_days: int = N_DAYS):
        from repro.data.schema import cdn_schema

        self.seed = seed
        self.n_days = n_days
        self.schema = cdn_schema()
        # Reference answers: a cold-aggregation (delta=False) service
        # over the same ticks.
        self.reference: List[List[Optional[List[str]]]] = []
        for d in range(n_days):
            day = self.day(d)
            service = make_service(self.schema, day.codes, delta=False)
            service.warm_up(day.warmup)
            self.reference.append([report_key(service.observe(row)) for row in day.ticks])

    def day(self, d: int) -> Day:
        return make_day(self.schema, self.seed, d)
