"""The traced run: per-layer splits, timed from outside each layer.

Every group times calls into one layer's public functions on the traced
workload's own cases; every answer it gets back is checked against the
serial reference, and a mismatch counts as a failed operation.  The
service layers need a tick stream, so they always run on the monitored
CDN stream of the same seed (``stream.py``).  Where the program opens a span
(``service.forecast``, ``service.detect``, ``service.interval``), the
duration is read through ``repro.obs`` instead of being re-timed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

import common

#: Cases each in-process layer group times (a prefix of the workload's).
LAYER_CASES = 24
#: Cases the wire group cycles through when the workload has no wire.
WIRE_CASES = 16
#: Shortest wire window of a traced run.
WIRE_SECONDS = 4.0
#: Interleaved untraced/traced repetitions behind ``trace.overhead_frac``.
OVERHEAD_REPEATS = 3


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3


def request_path(frame: bytes, miner) -> tuple:
    """The server's request path in process: decode, localize, encode.

    Returns the localization result and the seconds spent in each stage.
    """
    from repro.serving import KIND_RESPONSE, encode_frame
    from repro.serving.protocol import decode_frame, ok_body, parse_request

    started = time.perf_counter()
    request = parse_request(decode_frame(frame)[1])
    decoded = time.perf_counter()
    result = miner.run(request.case.dataset, request.k)
    localized = time.perf_counter()
    body = ok_body(
        case_id=request.case.case_id,
        tenant=request.tenant,
        root_causes=result.patterns,
        seconds=localized - decoded,
        tier=None,
        stop_reason=result.stats.stop_reason,
        shard=0,
        request_id=None,
    )
    encode_frame(KIND_RESPONSE, body)
    encoded = time.perf_counter()
    return result, (decoded - started, localized - decoded, encoded - localized)


def codec(cases, reference, log: common.OpLog) -> Dict[str, Dict[str, object]]:
    """Request decode, cold localize of the decoded case, response encode."""
    from repro.core.miner import RAPMiner
    from repro.serving import KIND_REQUEST, encode_frame, localize_payload

    miner = RAPMiner()
    sizes, stages = [], []
    for case, expected in zip(cases, reference):
        frame = encode_frame(KIND_REQUEST, localize_payload(case, k=len(case.true_raps)))
        sizes.append(len(frame))
        result, seconds = request_path(frame, miner)
        stages.append(seconds)
        log.check([str(p) for p in result.patterns] == expected)
    decode, localize, encode = zip(*stages)
    return {
        "serving.request_kb": common.metric(statistics.mean(sizes) / 1024.0, "KB"),
        "serving.decode_ms": common.metric(_median_ms(decode), "ms"),
        "serving.encode_ms": common.metric(_median_ms(encode), "ms"),
        "core.localize_ms": common.metric(_median_ms(localize), "ms"),
    }


def core(cases, reference, log: common.OpLog) -> Dict[str, Dict[str, object]]:
    """Serial ``run`` vs stacked ``run_batch``; Algorithm 1 vs Algorithm 2."""
    from repro.core import delete_redundant_attributes, layerwise_topdown_search
    from repro.core.miner import RAPMiner

    miner = RAPMiner()
    cfg = miner.config
    ks = [len(c.true_raps) for c in cases]

    fresh = [common.fresh_case(c).dataset for c in cases]
    started = time.perf_counter()
    serial = [miner.run(d, k) for d, k in zip(fresh, ks)]
    serial_s = time.perf_counter() - started

    fresh = [common.fresh_case(c).dataset for c in cases]
    started = time.perf_counter()
    batch = miner.run_batch(fresh)
    batch_s = time.perf_counter() - started
    for result, batch_result, k, expected in zip(serial, batch, ks, reference):
        log.check([str(p) for p in result.patterns] == expected)
        log.check([str(p) for p in batch_result.top(k)] == expected)

    cp, search = [], []
    for case in cases:
        dataset = common.fresh_case(case).dataset
        started = time.perf_counter()
        deletion = delete_redundant_attributes(dataset, cfg.t_cp)
        cp.append(time.perf_counter() - started)
        if dataset.n_anomalous == 0:
            continue
        started = time.perf_counter()
        layerwise_topdown_search(
            dataset,
            deletion.kept_indices,
            t_conf=cfg.t_conf,
            early_stop=cfg.early_stop,
            max_layer=cfg.max_layer,
        )
        search.append(time.perf_counter() - started)

    stats = [r.stats for r in serial]
    n = len(cases)
    return {
        "core.run_ms_per_case": common.metric(serial_s / n * 1e3, "ms"),
        "core.run_batch_ms_per_case": common.metric(batch_s / n * 1e3, "ms"),
        "core.cp_ms": common.metric(_median_ms(cp), "ms"),
        "core.search_ms": common.metric(_median_ms(search), "ms"),
        "search.cuboids_visited": common.metric(
            statistics.mean(s.n_cuboids_visited for s in stats), "count"
        ),
        "search.combinations_evaluated": common.metric(
            statistics.mean(s.n_combinations_evaluated for s in stats), "count"
        ),
        "search.criteria3_pruned": common.metric(
            statistics.mean(s.n_criteria3_pruned for s in stats), "count"
        ),
    }


def fleet(cases, reference, log: common.OpLog) -> Dict[str, Dict[str, object]]:
    """Fleet bookkeeping against the bare stacked kernel on the same pass."""
    from repro.core.miner import RAPMiner
    from repro.fleet import FleetConfig, FleetSupervisor

    import replay_paper

    fresh = [common.fresh_case(c).dataset for c in cases]
    started = time.perf_counter()
    RAPMiner().run_batch(fresh)
    bare_s = time.perf_counter() - started

    supervisor = FleetSupervisor(
        RAPMiner(),
        config=FleetConfig(shards_per_layout=replay_paper.SHARDS, k_from_truth=True),
    )
    landed: Dict[int, tuple] = {}
    supervisor.on_result = lambda o: landed.__setitem__(o.seq, (time.perf_counter(), o))
    submitted: List[float] = []
    started = time.perf_counter()
    for i, case in enumerate(cases):
        submitted.append(time.perf_counter())
        supervisor.submit(common.fresh_case(case), tenant=f"tenant-{i % replay_paper.TENANTS}")
    supervisor.drain()
    fleet_s = time.perf_counter() - started

    waits = []
    for seq, expected in enumerate(reference):
        at, outcome = landed[seq]
        log.check(outcome.error is None and [str(p) for p in outcome.predicted] == expected)
        waits.append(at - submitted[seq] - outcome.seconds)
    n = len(cases)
    return {
        "fleet.overhead_ms_per_case": common.metric((fleet_s - bare_s) / n * 1e3, "ms"),
        "fleet.queue_wait_ms": common.metric(_median_ms(waits), "ms"),
        "fleet.steals": common.metric(
            sum(s.steals for s in supervisor.scheduler.shards), "count"
        ),
        "fleet.requeues": common.metric(supervisor.requeues, "count"),
    }


def parallel(cases, reference, log: common.OpLog) -> Dict[str, Dict[str, object]]:
    """``batch_localize(mode="auto")`` throughput on the same pass."""
    from repro.core.miner import RAPMiner
    from repro.parallel import BatchConfig, batch_localize

    fresh = [common.fresh_case(c) for c in cases]
    started = time.perf_counter()
    evaluation = batch_localize(
        RAPMiner(), fresh, k_from_truth=True, config=BatchConfig(mode="auto")
    )
    elapsed = time.perf_counter() - started
    for result, expected in zip(evaluation.results, reference):
        log.check(result.error is None and [str(p) for p in result.predicted] == expected)
    return {
        "parallel.batch_localize_cases_per_s": common.metric(len(cases) / elapsed, "1/s")
    }


def wire(serve_state, seconds: float, split: Dict, log: common.OpLog, natives: List):
    """Per-plane wire latency, in-fleet time, and the unexplained residual."""
    import serve_paper

    server = serve_paper.Server()
    try:
        window = serve_paper.wire_window(server, serve_state, seconds)
        natives.append(server.native())
    finally:
        server.stop()
    log.merge(serve_paper.oplog(window))
    planes = {
        plane: [r for r in window["records"][plane] if r[2]]
        for plane in ("rpsv", "http")
    }
    all_ok = planes["rpsv"] + planes["http"]
    wire_p50 = _median_ms([r[0] for r in all_ok])
    in_fleet = _median_ms([r[1] for r in all_ok])
    residual = (
        wire_p50
        - split["serving.decode_ms"]["value"]
        - in_fleet
        - split["serving.encode_ms"]["value"]
    )
    rpsv_p50 = _median_ms([r[0] for r in planes["rpsv"]])
    http_p50 = _median_ms([r[0] for r in planes["http"]])
    return {
        "serving.rpsv_lat_p50_ms": common.metric(rpsv_p50, "ms"),
        "serving.http_lat_p50_ms": common.metric(http_p50, "ms"),
        "fleet.in_fleet_ms": common.metric(in_fleet, "ms"),
        "serving.residual_ms": common.metric(residual, "ms"),
    }


def service(stream_state, log: common.OpLog) -> Dict[str, Dict[str, object]]:
    """Forecast, detect, quiet ticks and delta-session traffic, from spans."""
    from repro import obs

    import stream

    quiet, forecast, detect = [], [], []
    ticks = alarmed = patched = 0
    fractions: List[float] = []
    for index in range(stream_state.n_days):
        day = stream_state.day(index)
        svc = stream.make_service(stream_state.schema, day.codes)
        svc.warm_up(day.warmup)
        with obs.capture() as collector:
            for row, want in zip(day.ticks, stream_state.reference[index]):
                report = svc.observe(row)
                log.check(stream.report_key(report) == want)
                if report is not None:
                    fractions.append(svc.delta_session.stats.last_changed_fraction)
        for span in collector.find_spans("service.interval"):
            ticks += 1
            if span.attributes.get("alarmed"):
                alarmed += 1
            else:
                quiet.append(span.duration_s)
        forecast += [s.duration_s for s in collector.find_spans("service.forecast")]
        detect += [s.duration_s for s in collector.find_spans("service.detect")]
        patched += svc.delta_session.stats.patched_ticks
    return {
        "service.quiet_tick_ms": common.metric(_median_ms(quiet), "ms"),
        "detection.forecast_ms": common.metric(_median_ms(forecast), "ms"),
        "detection.detect_ms": common.metric(_median_ms(detect), "ms"),
        "delta.patched_share": common.metric(patched / max(alarmed, 1), "ratio"),
        "delta.changed_fraction": common.metric(statistics.mean(fractions), "ratio"),
        "service.alarmed_share": common.metric(alarmed / ticks, "ratio"),
    }


def overhead(unit: Callable[[], None]) -> Dict[str, Dict[str, object]]:
    """Traced vs untraced wall time of the same unit of work."""
    from repro import obs

    plain, traced = [], []
    for __ in range(OVERHEAD_REPEATS):
        started = time.perf_counter()
        unit()
        plain.append(time.perf_counter() - started)
        with obs.capture():
            started = time.perf_counter()
            unit()
            traced.append(time.perf_counter() - started)
    return {
        "trace.overhead_frac": common.metric(
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"
        )
    }


def traced_run(
    cases,
    reference,
    seed: int,
    seconds: float,
    unit: Callable[[], None],
    serve_state=None,
) -> Dict[str, object]:
    """Every layer group on the workload's cases; returns metrics + checks.

    The wire group runs last and takes what is left of *seconds* (at
    least ``WIRE_SECONDS``), so a traced run lasts as long as an
    untraced one.
    """
    import serve_paper
    import stream

    started = time.perf_counter()
    log = common.OpLog()
    cases, reference = cases[:LAYER_CASES], reference[:LAYER_CASES]
    metrics: Dict[str, Dict[str, object]] = {}
    metrics.update(codec(cases, reference, log))
    metrics.update(core(cases, reference, log))
    metrics.update(fleet(cases, reference, log))
    metrics.update(parallel(cases, reference, log))
    metrics.update(service(stream.State(seed), log))
    metrics.update(overhead(unit))
    if serve_state is None:
        serve_state = serve_paper.State(
            seed, cases=cases[:WIRE_CASES], reference=reference[:WIRE_CASES]
        )
    natives = [common.backend_record()]
    wire_seconds = max(WIRE_SECONDS, seconds - (time.perf_counter() - started))
    metrics.update(wire(serve_state, wire_seconds, metrics, log, natives))
    return {"metrics": metrics, "log": log, "natives": natives}
