"""serve-paper: paper-shape requests to a ``repro serve`` child process.

One closed-loop client sends its next request only after the previous
answer arrived, alternating two connections: a persistent RPSV frame
connection and an HTTP JSON client (the server closes every HTTP
exchange, so that client reconnects per request).  With one request in
flight, the server's event loop and its single shard never compete with
the client for the host's two CPUs.  Request bodies are encoded before
the window opens.  One operation is one request, from send to a
verified response.
"""

from __future__ import annotations

import json
import re
import subprocess
import time
from typing import Dict, List, Optional

import common

NAME = "serve-paper"
#: Distinct paper-shape cases the client cycles through (enough that
#: ``f1`` varies little between seeds).
N_CASES = 96
#: Fleet shards of the server: one in-flight request needs one.
SHARDS = 1
#: The planes, in the order the client alternates them.
PLANES = ("rpsv", "http")
#: Untimed requests per plane before the window opens.
WARMUP_REQUESTS = 2

_BANNER = re.compile(r"http://([\d.]+):(\d+)/localize.*binary frames on port (\d+)")


class State:
    def __init__(self, seed: int, cases=None, reference=None):
        from repro.serving import KIND_REQUEST, encode_frame, localize_payload
        from repro.serving.protocol import FRAME_HEADER

        self.seed = seed
        self.cases = cases if cases is not None else common.paper_cases(seed, N_CASES)
        self.reference = (
            reference if reference is not None else common.serial_reference(self.cases)
        )
        self.frames: List[bytes] = []
        self.bodies: List[memoryview] = []
        for case in self.cases:
            payload = localize_payload(case, k=len(case.true_raps))
            frame = encode_frame(KIND_REQUEST, payload)
            self.frames.append(frame)
            # The HTTP body is the frame's JSON payload, byte for byte.
            self.bodies.append(memoryview(frame)[FRAME_HEADER.size :])


def prepare(seed: int) -> State:
    return State(seed)


class Server:
    """One ``repro serve`` child on ephemeral ports."""

    def __init__(self) -> None:
        from repro.serving import ServingClient

        common.WORK.mkdir(parents=True, exist_ok=True)
        self._stderr = open(common.WORK / "serve-stderr.log", "ab")
        self.proc = common.spawn_python(
            [
                "-u",
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--binary-port",
                "0",
                "--shards",
                str(SHARDS),
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = _BANNER.search(line)
            if match is None:
                raise RuntimeError(f"unexpected serve banner: {line!r}")
            self.host = match.group(1)
            self.http_port = int(match.group(2))
            self.binary_port = int(match.group(3))
        except BaseException:
            self.stop()
            raise
        self.http = ServingClient(self.host, self.http_port)

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.proc.pid)

    def native(self) -> Dict[str, object]:
        """Backend and compile time the server reports on ``/metrics``."""
        record: Dict[str, object] = {"backend": "numpy", "compile_seconds": 0.0}
        for line in self.http.metrics().splitlines():
            if line.startswith("engine_backend_compile_seconds"):
                record["compile_seconds"] = float(line.split()[-1])
            elif line.startswith("engine_backend_info{"):
                found = re.search(r'backend="(\w+)"', line)
                if found:
                    record["backend"] = found.group(1)
        return record

    def stop(self) -> None:
        common.stop_process(self.proc)
        self._stderr.close()


def _plane_call(server: Server, rpsv, plane: str, payload) -> Dict:
    """One request on *plane* with a pre-encoded *payload*; the decoded body."""
    if plane == "rpsv":
        rpsv.send_raw(payload)
        return rpsv.read_response()
    __, __, data = server.http.request("POST", "/localize", payload)
    return json.loads(data)


def wire_window(server: Server, state: State, seconds: float) -> Dict[str, object]:
    """One closed-loop client alternating the planes for *seconds*.

    Request ``i`` goes over RPSV when ``i`` is even and over HTTP when
    it is odd, so each plane sees every case; only one request is ever
    in flight.  The window closes at the end of a cycle through every
    case on both planes, so each run weighs the cases alike.  Returns
    per-plane records ``(seconds, in_fleet_s, ok)``.
    """
    from repro.serving import BinaryServingClient
    from repro.serving.protocol import ProtocolError

    rpsv = BinaryServingClient(server.host, server.binary_port)
    payloads = {"rpsv": state.frames, "http": state.bodies}
    records: Dict[str, list] = {"rpsv": [], "http": []}
    try:
        for i in range(WARMUP_REQUESTS):
            for plane in PLANES:
                _plane_call(server, rpsv, plane, payloads[plane][i % len(state.cases)])
        window = common.Window(seconds)
        cycle = len(PLANES) * len(state.cases)
        i = 0
        while window.open() or i % cycle:
            plane = PLANES[i % 2]
            index = (i // 2) % len(state.cases)
            i += 1
            sent = time.perf_counter()
            try:
                body = _plane_call(server, rpsv, plane, payloads[plane][index])
            except (OSError, ValueError, ProtocolError):
                records[plane].append((None, None, False))
                break
            elapsed = time.perf_counter() - sent
            ok = body.get("status") == "ok" and body.get("root_causes") == state.reference[index]
            records[plane].append((elapsed, body.get("seconds"), ok))
            if ok:
                window.count()
        wall = window.elapsed()
    finally:
        rpsv.close()
    return {"records": records, "wall_s": wall}


def oplog(window: Dict[str, object]) -> common.OpLog:
    log = common.OpLog()
    for plane in PLANES:
        for elapsed, __, ok in window["records"][plane]:
            if ok:
                log.ok(elapsed)
            else:
                log.fail(completed=elapsed is not None)
    log.wall_s = window["wall_s"]
    return log


def cold_start_server(state: State) -> tuple:
    """Spawn a server and time it to its first verified RPSV answer."""
    from repro.serving import BinaryServingClient

    started = time.perf_counter()
    server = Server()
    try:
        with BinaryServingClient(server.host, server.binary_port) as client:
            client.send_raw(state.frames[0])
            body = client.read_response()
        elapsed = time.perf_counter() - started
    except BaseException:
        server.stop()
        raise
    ok = body.get("status") == "ok" and body.get("root_causes") == state.reference[0]
    return server, elapsed, ok


def untraced(state: State, seconds: float) -> Dict[str, object]:
    times: List[float] = []
    natives: List[Dict[str, object]] = []
    setup_ok = True
    server: Optional[Server] = None
    try:
        for __ in range(common.SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed, ok = cold_start_server(state)
            times.append(elapsed)
            natives.append(server.native())
            setup_ok = setup_ok and ok
        window = wire_window(server, state, seconds)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return {
        "log": oplog(window),
        "setup": {"times": times, "ok": setup_ok},
        "rss_mb": rss,
        "natives": natives,
    }


def traced(state: State, seconds: float) -> Dict[str, object]:
    import layers
    from repro.core.miner import RAPMiner

    miner = RAPMiner()

    def unit() -> None:
        for frame in state.frames[: layers.LAYER_CASES]:
            layers.request_path(frame, miner)

    return layers.traced_run(
        state.cases, state.reference, state.seed, seconds, unit, serve_state=state
    )


def f1(state: State) -> float:
    return common.f1_of(state.reference, state.cases)


def describe() -> Dict[str, object]:
    return {"cases": N_CASES, "shards": SHARDS, "clients": 1, "planes": list(PLANES)}
