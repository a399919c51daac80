"""Executable transcriptions of the paper's deflection pseudocode.

These functions are the *specification side* of the strategy oracle:
each is written naively, straight from the paper's prose and Algorithm
1, against a bare description of the switch state — no ``PortView``
protocol, no cached port tuples, no residue hints.  Two oracles check
the real :mod:`repro.switches.deflection` implementations against them
decision by decision, including RNG stream positions:
:func:`repro.verify.oracles.check_strategy` on fuzzed switch states,
and :class:`repro.verify.oracles.DecisionAudit` on every decision of a
full event-driven run — so a refactor of the implementation cannot
silently drift from the paper.

Shared conventions (mirroring the dataplane):

* ``up`` is the set of healthy port numbers, ``num_ports`` the port
  count; the computed port may be ``>= num_ports`` (``R mod s`` ranges
  over the switch ID, which exceeds the degree).
* randomness is ``rng.choice`` over the **ascending** candidate list —
  the same single uniform draw the implementation makes, so comparing
  ``rng.getstate()`` afterwards is meaningful.
* return value is ``(port, deflected)`` with ``port=None`` for a drop.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, Optional, Protocol, Tuple

__all__ = ["PSEUDOCODE", "none_decision", "hp_decision", "avp_decision",
           "nip_decision"]

DecisionPair = Tuple[Optional[int], bool]


class PseudocodeFn(Protocol):
    def __call__(
        self,
        num_ports: int,
        up: AbstractSet[int],
        in_port: int,
        computed: int,
        already_deflected: bool,
        rng: random.Random,
    ) -> DecisionPair: ...


def _usable(num_ports: int, up: AbstractSet[int], port: int) -> bool:
    """"valid, healthy output port": exists on this switch and is up."""
    return port < num_ports and port in up


def none_decision(num_ports, up, in_port, computed, already_deflected, rng):
    """No deflection: the plain KeyFlow switch.

    Forward on ``R mod s`` when that port is usable; otherwise drop.
    """
    if _usable(num_ports, up, computed):
        return computed, False
    return None, False


def hp_decision(num_ports, up, in_port, computed, already_deflected, rng):
    """Hot Potato.

    Once a packet has been deflected anywhere, "it follows a complete
    random path in network": every subsequent switch sends it out a
    uniformly random healthy port.  An undeflected packet uses the
    computed port when usable, else takes its first random deflection.
    """
    if already_deflected:
        candidates = sorted(up)
        if not candidates:
            return None, False
        return rng.choice(candidates), True
    if _usable(num_ports, up, computed):
        return computed, False
    candidates = sorted(up)
    if not candidates:
        return None, False
    return rng.choice(candidates), True


def avp_decision(num_ports, up, in_port, computed, already_deflected, rng):
    """Any Valid Port.

    Always trust the modulo result when it is a usable port — the input
    port included.  Otherwise deflect to a uniformly random healthy
    port (again the input port included).
    """
    if _usable(num_ports, up, computed):
        return computed, False
    candidates = sorted(up)
    if not candidates:
        return None, False
    return rng.choice(candidates), True


def nip_decision(num_ports, up, in_port, computed, already_deflected, rng):
    """Not Input Port — the paper's Algorithm 1.

    1.  p <- R mod s
    2.  if p is a valid, healthy port and p != input port:
    3.      forward on p
    4.  else:
    5.      C <- healthy ports \\ {input port}
    6.      if C is empty: drop
    7.      else: forward on a uniformly random member of C (deflected)
    """
    if _usable(num_ports, up, computed) and computed != in_port:
        return computed, False
    candidates = [p for p in sorted(up) if p != in_port]
    if not candidates:
        return None, False
    return rng.choice(candidates), True


#: strategy short name -> its specification transcription.
PSEUDOCODE: Dict[str, PseudocodeFn] = {
    "none": none_decision,
    "hp": hp_decision,
    "avp": avp_decision,
    "nip": nip_decision,
}
