"""Event order of the paper's TCP runs, pinned.

Two iperf-under-failure cells on the fifteen-node topology — one
Fig. 4 cell and one Fig. 5 cell — run at fixed seeds and are digested:
the number of events processed, each switch's ``[forwarded,
deflections, drops]``, the drop reasons, each switch's final
deflection-RNG state and the iperf goodput intervals.  A change that
makes the simulator faster without changing what it simulates keeps
every digest; a change that reorders, adds or removes a single event
(or a single RNG draw) moves at least one of them.
"""

import hashlib
import json

import pytest

from repro.experiments import common
from repro.experiments.common import run_failure_experiment, scenario_factory
from repro.switches.core import KarSwitch

#: (technique, protection, failure link, seed) ->
#: (events processed, sha256 of the full record).
PINNED = {
    ("hp", "partial", ("SW7", "SW13"), 4): (
        362128,
        "a03bd30971165e491b5403423adbc1bc9f2c6b46684697f14ee4232d008bb10a",
    ),
    ("nip", "unprotected", ("SW10", "SW7"), 5): (
        605371,
        "8b9501dd2cf71c2391d27eac71dd78a683726b1b055ce15e47e8d37422e56623",
    ),
}


def _record(ks, outcome):
    switches = {}
    rng = hashlib.sha256()
    for name in sorted(ks.network.nodes):
        node = ks.network.nodes[name]
        if isinstance(node, KarSwitch):
            switches[name] = [node.forwarded, node.deflections, node.drops]
            rng.update(repr(node._rng.getstate()).encode("utf-8"))
    return {
        "events": ks.sim.events_processed,
        "switches": switches,
        "drop_reasons": dict(sorted(ks.tracer.drop_reasons.items())),
        "rng_fingerprint": rng.hexdigest(),
        "intervals": outcome.iperf.intervals,
    }


@pytest.mark.parametrize("cell", sorted(PINNED), ids=lambda c: c[0])
def test_tcp_cell_event_order_is_pinned(cell, monkeypatch):
    technique, protection, failure, seed = cell
    built = []

    class Capturing(common.KarSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(common, "KarSimulation", Capturing)
    outcome = run_failure_experiment(
        scenario_factory("fifteen_node")(), technique, protection, failure,
        seed=seed, backend=None,
    )
    (ks,) = built
    record = _record(ks, outcome)
    digest = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert (record["events"], digest) == PINNED[cell], record
