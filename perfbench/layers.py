"""Which program calls the traced run wraps, grouped by layer.

Layer names are the program's module names.  Each entry is
``(module, attribute path, span name)``; spans of one layer share a
name, so a call that re-enters its own layer (a fallback that calls the
reference ``select_port``) nests under itself and its self time is not
counted twice.  Private methods appear only where a layer has no public
entry the event engine calls; when one of them is gone the layer is
reported as unmeasured.
"""

from __future__ import annotations

from typing import Dict, List

from spans import EntryPoint

_DEFLECTION_CLASSES = (
    "DeflectionStrategy", "NoDeflection", "HotPotato", "AnyValidPort",
    "NotInputPort",
)


def _deflection() -> List[EntryPoint]:
    entries: List[EntryPoint] = []
    for cls in _DEFLECTION_CLASSES:
        # Only methods a class defines itself are wrapped; the base
        # class's fast_fallback covers strategies that inherit it.
        entries.append(("repro.switches.deflection", f"{cls}.select_port",
                        "deflection"))
    for cls in ("DeflectionStrategy", "HotPotato", "AnyValidPort",
                "NotInputPort"):
        entries.append(("repro.switches.deflection", f"{cls}.fast_fallback",
                        "deflection"))
    return entries


#: Layers of the event-driven simulator (paper_tcp, udp_deflect).
DES_LAYERS: Dict[str, List[EntryPoint]] = {
    "sim.engine": [
        ("repro.sim.engine", "Simulator.run_until", "engine"),
    ],
    "sim.link": [
        ("repro.sim.link", "Channel.send", "link"),
        ("repro.sim.link", "Channel._tx_done", "link"),
        ("repro.sim.link", "Channel._arrive", "link"),
    ],
    "switches.core": [
        ("repro.switches.core", "KarSwitch.receive", "switch"),
    ],
    "switches.deflection": _deflection(),
    "switches.edge": [
        ("repro.switches.edge", "EdgeNode.receive", "edge"),
        ("repro.switches.edge", "EdgeNode._reinject", "edge"),
    ],
    "controller": [
        ("repro.controller.controller", "KarController.reencode",
         "controller.reencode"),
        ("repro.controller.controller", "KarController.install_flow",
         "controller.install"),
    ],
    "transport": [
        ("repro.transport.tcp", "TcpSender.on_packet", "transport"),
        ("repro.transport.tcp", "TcpSender._try_send", "transport"),
        ("repro.transport.tcp", "TcpSender._on_rto", "transport"),
        ("repro.transport.tcp", "TcpReceiver.on_packet", "transport"),
    ],
}

#: Layers of the epoch datapath (epoch_forward).
VECTOR_LAYERS: Dict[str, List[EntryPoint]] = {
    "sim.vector": [
        ("repro.sim.vector", "process_epoch_batch", "vector"),
    ],
    "switches.deflection": _deflection(),
}

#: Layers of the controller service, wrapped inside the server process
#: (controller_churn).
SERVICE_LAYERS: Dict[str, List[EntryPoint]] = {
    "service.server": [
        ("repro.service.server", "dispatch", "service.dispatch"),
    ],
    "service.state": [
        ("repro.service.state", f"ControllerState.{name}", "service")
        for name in ("provision", "release", "reroute", "topology_event")
    ],
    "service.admission": [
        ("repro.service.admission", "ReservationLedger.reserve", "admission"),
        ("repro.service.admission", "ReservationLedger.release", "admission"),
        ("repro.service.state", "cspf_path", "admission"),
    ],
    "rns.pool": [
        ("repro.rns.pool", f"{cls}.{name}", "rns")
        for cls, name in (
            ("PoolContext", "encode"), ("PoolContext", "reencode"),
            ("PoolContext", "reencode_id"), ("ReencodeDelta", "apply"),
            ("ReencodeDelta", "apply_id"),
        )
    ],
}
