"""controller_churn: a closed-loop client against ``repro serve``.

One client sends API operations over one keep-alive loopback HTTP
connection to a ``repro serve --topology abilene`` process and sends
the next only when the previous reply is in: the controller's callers
(tenants, edges waiting for a re-encode) each wait for their answer.
The client draws its own arrive/depart/reroute/flap mix from
``--seed``: the shares and QoS palette of ``repro.service.loadgen``,
exact in every round, in a seeded order.

A *round* starts a fresh server (its start-up is the set-up time), runs
``ROUND_OPS`` timed operations, then, untimed, surveys every live flow,
drains them, audits the ledger and reads ``/stats``.  Before any round
the same operations run in process through
:func:`repro.service.server.dispatch` with no socket; the digest of
that operation log is what every HTTP round must reproduce.  Every
served flow is re-derived with the reference :func:`repro.rns.crt.crt`.

In a traced run the first round is untraced and the following rounds
run a server with the layer wrappers installed
(``perfbench/serve_traced.py``), which writes its spans when it exits.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import Calibrated, Result, digest, median, percentile
from layers import SERVICE_LAYERS
from spans import load, missing_layers

from repro.controller.routing import hops_for_path
from repro.rns.crt import crt
from repro.service.server import dispatch
from repro.service.state import ControllerState
from repro.service.topology import edge_names, service_topology
from repro.topology.graph import NodeKind

TOPOLOGY = "abilene"
ROUND_OPS = 1500
PAUSE_EVERY = 100
USERS = 400
QOS_FRACTION = 0.3
OP_WEIGHTS = (("arrive", 0.50), ("depart", 0.25), ("reroute", 0.15),
              ("flap", 0.10))
QOS_BANDWIDTHS = (1.0, 2.0, 5.0, 10.0)
QOS_LATENCIES = (None, 0.002, 0.003, 0.005, 0.010)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (method, path, body) -> (status, payload)
Send = Callable[[str, str, Optional[Dict[str, Any]]], Tuple[int, Dict[str, Any]]]


@dataclass
class RoundLog:
    """What one pass over the operation sequence saw."""

    digest: str = ""
    op_latency_s: List[float] = field(default_factory=list)
    loop_s: float = 0.0
    statuses: Dict[int, int] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)
    accepted: int = 0
    bodies: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def run_ops(seed: int, send: Send,
            pause: Optional[Callable[[], None]] = None) -> RoundLog:
    """Issue ``ROUND_OPS`` operations; returns the log and latencies.

    The next operation depends on earlier replies (which flow to
    release or detour), so generation and sending interleave; both are
    deterministic, so equal replies mean an equal operation sequence.
    Every ``PAUSE_EVERY`` operations *pause* runs (a calibration
    sample); its time is not part of the round's.
    """
    timer = time.perf_counter
    paused = 0.0
    rng = random.Random(f"perfbench-churn:{TOPOLOGY}:{seed}")
    graph = service_topology(TOPOLOGY)
    edges = edge_names(graph)
    core_links = sorted(
        link.key for link in graph.links()
        if graph.node(link.key[0]).kind == NodeKind.CORE
        and graph.node(link.key[1]).kind == NodeKind.CORE
    )
    log = RoundLog()
    hasher: List[Any] = []
    flows: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []

    # Exact shares in a seeded order, not independent draws: a flap
    # costs ten times a provision, and drawing the kinds independently
    # moved a round's cost by 15 % from one seed to the next.
    kinds = [name for name, weight in OP_WEIGHTS
             for _ in range(round(weight * ROUND_OPS))]
    rng.shuffle(kinds)

    def pick(choice: str) -> str:
        if choice == "arrive" and len(order) >= USERS:
            return "depart"
        if choice in ("depart", "reroute") and not order:
            return "arrive"
        return choice

    def forget(fid: str) -> None:
        if flows.pop(fid, None) is not None:
            order.remove(fid)

    loop_start = timer()
    for i in range(ROUND_OPS):
        if pause is not None and i and i % PAUSE_EVERY == 0:
            start = timer()
            pause()
            paused += timer() - start
        op = pick(kinds[i])
        if op == "arrive":
            src, dst = rng.sample(edges, 2)
            body: Dict[str, Any] = {
                "tenant": f"u{rng.randrange(USERS):05d}", "src": src,
                "dst": dst,
            }
            if rng.random() < QOS_FRACTION:
                body["bandwidth_mbps"] = rng.choice(QOS_BANDWIDTHS)
                latency = rng.choice(QOS_LATENCIES)
                if latency is not None:
                    body["max_latency_s"] = latency
            request = ("POST", "/flows", body)
        elif op == "depart":
            fid = order[rng.randrange(len(order))]
            request = ("DELETE", f"/flows/{fid}", None)
        elif op == "reroute":
            fid = order[rng.randrange(len(order))]
            cores = [n for n in flows[fid]["node_path"][1:-1]
                     if graph.node(n).kind == NodeKind.CORE]
            switch = rng.choice(cores)
            nxt = rng.choice(sorted(
                nb for nb in graph.neighbors(switch)
                if graph.node(nb).kind == NodeKind.CORE
            ))
            request = ("POST", f"/flows/{fid}/reroute",
                       {"switch": switch, "next": nxt})
        else:
            a, b = core_links[rng.randrange(len(core_links))]
            request = ("POST", "/topology/events",
                       {"kind": "port_flap", "a": a, "b": b})
        sent = timer()
        try:
            status, reply = send(*request)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            log.errors.append(f"op {i} {op}: {type(exc).__name__}: {exc}")
            break
        log.op_latency_s.append(timer() - sent)
        log.statuses[status] = log.statuses.get(status, 0) + 1
        log.ops[op] = log.ops.get(op, 0) + 1
        if status >= 500:
            log.errors.append(f"op {i} {op}: status {status}")
        if op == "arrive" and status == 201:
            flow = reply["flow"]
            flows[flow["flow_id"]] = flow
            order.append(flow["flow_id"])
            log.bodies.append(flow)
            log.accepted += 1
            extra: Any = flow["route_id"]
        elif op == "depart":
            forget(fid)
            extra = fid
        elif op == "reroute" and status == 200:
            flows[fid] = reply["flow"]
            log.bodies.append(reply["flow"])
            extra = reply["flow"]["route_id"]
        elif op == "flap":
            evicted = sorted((reply.get("evicted") or {}).items())
            for fid, _ in evicted:
                forget(fid)
            extra = [evicted, reply.get("repaired") or []]
        else:
            extra = reply.get("error", "?")
        hasher.append([i, op, status, extra])
    log.loop_s = timer() - loop_start - paused
    log.digest = digest(hasher)
    return log


def check_flow(graph, body: Dict[str, Any]) -> bool:
    """Re-derive one served flow with the reference CRT solver."""
    route_id, modulus = body["route_id"], body["modulus"]
    residues = {int(s): p for s, p in body["residues"].items()}
    if any(route_id % s != p for s, p in residues.items()):
        return False
    if crt(list(residues.values()), list(residues)) != (route_id, modulus):
        return False
    if body["detoured"]:
        return True
    hops = hops_for_path(graph, body["node_path"])
    return crt([h.port for h in hops], [h.switch_id for h in hops]) == (
        route_id, modulus
    )


def direct_send(state: ControllerState) -> Send:
    """The API through ``dispatch`` in process, with JSON round trips."""

    def send(method, path, body):
        status, payload = dispatch(state, method, path, {}, body)
        return status, json.loads(json.dumps(payload, sort_keys=True))

    return send


class Server:
    """One ``repro serve`` process and a keep-alive connection to it."""

    def __init__(self, spans_path: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        serve = ["serve", "--topology", TOPOLOGY, "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro"] + serve
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "serve_traced.py"),
                   spans_path] + serve
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.conn: Optional[http.client.HTTPConnection] = None
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving "):
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            status, _ = self.send("GET", "/healthz", None)
            if status != 200:
                raise RuntimeError(f"healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def send(self, method: str, path: str,
             body: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
        data = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the server, as Ctrl-C would, and wait for it."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    log: RoundLog
    setup_s: float
    stats: Dict[str, Any]
    peak_rss_mb: float
    spans_path: Optional[str] = None
    #: Calibration scales (see harness.Calibrated) of set-up and loop.
    setup_scale: float = 1.0
    loop_scale: float = 1.0

    @property
    def loop_calibrated_s(self) -> float:
        return self.log.loop_s * self.loop_scale


def http_round(seed: int, want: str, result: Result, graph,
               calibrated: Calibrated,
               spans_path: Optional[str] = None) -> Round:
    """One server, one timed pass of operations, then the checks."""
    server = Server(spans_path)
    try:
        setup_scale = calibrated.scale()
        log = run_ops(seed, server.send, pause=calibrated.sample)
        loop_scale = calibrated.scale()
        result.attempted += len(log.op_latency_s)
        for error in log.errors:
            result.fail(error)
        if log.digest != want:
            result.fail(f"op-log digest {log.digest} != in-process {want}")
        stats: Dict[str, Any] = {}
        if not log.errors:
            status, body = server.send("GET", "/flows", None)
            live = body.get("flows", [])
            for flow in log.bodies + live:
                if not check_flow(graph, flow):
                    result.fail(f"flow {flow['flow_id']}: route ID is not "
                                "the reference CRT solution")
            for flow in live:
                status, _ = server.send("DELETE", f"/flows/{flow['flow_id']}",
                                        None)
                if status != 200:
                    result.fail(f"drain of {flow['flow_id']}: {status}")
            status, audit = server.send("GET", "/audit", None)
            if status != 200 or not audit.get("ok"):
                result.fail(f"audit: {audit.get('violations')}")
            status, stats = server.send("GET", "/stats", None)
            if stats.get("service", {}).get("flows_live") != 0:
                result.fail("flows still live after the drain")
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return Round(log, server.setup_s, stats, peak_rss_mb, spans_path,
                 setup_scale, loop_scale)


def run_controller_churn(seed: int, seconds: float, trace: bool,
                         out_dir: str) -> Result:
    result = Result()
    graph = service_topology(TOPOLOGY)
    reference = run_ops(seed, direct_send(ControllerState(
        service_topology(TOPOLOGY), validated_pool=True)))
    if reference.errors:
        for error in reference.errors:
            result.fail("in-process: " + error)
        return result
    result.digests = [reference.digest]

    untraced: List[Round] = []
    traced: List[Round] = []
    calibrated = Calibrated()
    if not trace:
        while sum(r.log.loop_s for r in untraced) < seconds:
            untraced.append(http_round(seed, reference.digest, result, graph,
                                       calibrated))
    else:
        untraced.append(http_round(seed, reference.digest, result, graph,
                                   calibrated))
        while sum(r.log.loop_s for r in traced) < seconds:
            path = os.path.join(
                out_dir, f"controller_churn.{len(traced)}.spans.npz"
            )
            traced.append(http_round(seed, reference.digest, result, graph,
                                     calibrated, spans_path=path))
    rounds = traced if trace else untraced
    latencies = [x for r in rounds for x in r.log.op_latency_s]
    # The median round: a round is 1-2 s, and an occasional one runs
    # while the host is busy with something else.
    ops_per_s = median([len(r.log.op_latency_s) / r.loop_calibrated_s
                        for r in rounds])
    host_ops_per_s = len(latencies) / sum(r.log.loop_s for r in rounds)
    acceptance = reference.accepted / reference.ops.get("arrive", 1)
    result.report += [
        f"ops_per_s = {ops_per_s:.6g} ops/s (calibrated; "
        f"{host_ops_per_s:.6g} as measured here; {len(rounds)} rounds of "
        f"{ROUND_OPS} ops, one client, closed loop)",
        f"op_latency_p50_ms = {1e3 * median(latencies):.4f} ms "
        f"(n={len(latencies)})",
        f"op_latency_p99_ms = {1e3 * percentile(latencies, 99):.4f} ms "
        f"(n={len(latencies)}, {len(latencies) // 100} samples above)",
        "per round: " + ", ".join(
            f"{op} {n}" for op, n in sorted(reference.ops.items())
        ) + "; statuses " + ", ".join(
            f"{s}: {c}" for s, c in sorted(reference.statuses.items())
        ) + " (400/409 are deterministic answers, not failures)",
        f"admission acceptance = {acceptance:.4f} (simulated)",
    ]
    if not trace:
        result.metrics.update({
            "setup_s": median([r.setup_s * r.setup_scale for r in untraced]),
            "peak_rss_mb": median([r.peak_rss_mb for r in untraced]),
            "work_per_s": ops_per_s,
        })
        return result
    result.metrics.update(service_layer_metrics(traced, untraced))
    result.unmeasured.extend(missing_layers(SERVICE_LAYERS))
    return result


def service_layer_metrics(traced: List[Round],
                          untraced: List[Round]) -> Dict[str, float]:
    """Per-layer metrics from the traced servers' span files."""
    dispatch_s: List[float] = []
    http_s: List[float] = []
    self_s: Dict[str, float] = {}
    for r in traced:
        spans = load(r.spans_path)
        # Request 0 is the health check; the next ROUND_OPS are the
        # timed operations, in the order the client sent them.
        ops = spans.durations("service.dispatch")[1:1 + ROUND_OPS]
        dispatch_s.extend(ops.tolist())
        http_s.extend(
            (np.array(r.log.op_latency_s[:len(ops)]) - ops).tolist()
        )
        for name, row in spans.summary().items():
            self_s[name] = self_s.get(name, 0.0) + row["self_s"]
    last = traced[-1].stats
    delta = last.get("engine", {}).get("delta", {})
    admission = last.get("admission", {})
    traced_loop = sum(r.loop_calibrated_s for r in traced) / len(traced)
    untraced_loop = sum(r.loop_calibrated_s for r in untraced) / len(untraced)
    return {
        "service.dispatch_us_p50": 1e6 * median(dispatch_s),
        "service.dispatch_us_p99": 1e6 * percentile(dispatch_s, 99),
        "service.http_us_p50": 1e6 * median(http_s),
        "service.self_s": self_s.get("service.dispatch", 0.0)
        + self_s.get("service", 0.0),
        "admission.accepted": admission.get("accepted", 0),
        "admission.rejected": sum(admission.get("rejected", {}).values()),
        "admission.self_s": self_s.get("admission", 0.0),
        "rns.deltas": delta.get("applied", 0),
        "rns.full_solves": delta.get("full_solves", 0),
        "rns.self_s": self_s.get("rns", 0.0),
        "trace.overhead": traced_loop / untraced_loop,
    }
