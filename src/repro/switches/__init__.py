"""KAR dataplane: core switches, edge nodes, deflection techniques."""

from repro.switches.core import KarSwitch
from repro.switches.deflection import (
    STRATEGY_NAMES,
    AnyValidPort,
    DeflectionStrategy,
    HotPotato,
    NoDeflection,
    NotInputPort,
    strategy_by_name,
)
from repro.switches.edge import EdgeNode, IngressEntry, ReencodeService

__all__ = [
    "KarSwitch",
    "EdgeNode",
    "IngressEntry",
    "ReencodeService",
    "DeflectionStrategy",
    "NoDeflection",
    "HotPotato",
    "AnyValidPort",
    "NotInputPort",
    "strategy_by_name",
    "STRATEGY_NAMES",
]
