"""Differential verification: cross-oracle fuzzing of the KAR stack.

Chiesa et al. and Dai & Foerster both show that failover-routing
correctness fails on *adversarial combinations* of topology and
failures, not on the examples papers print.  This package searches for
such combinations mechanically: seeded random scenarios are replayed
through independent oracle pairs (every switch decision of a full run
vs paper pseudocode, strategy implementations vs paper pseudocode,
wire codec vs in-memory headers,
event simulator vs pure-graph walk model), divergences are shrunk to
minimal cases, and every repro is a replayable JSON artifact.

Entry points: ``repro verify --trials N --seed S [--shrink]`` on the
command line, :func:`~repro.verify.harness.run_verify` in code.
"""

from repro.verify.artifact import (
    artifact_record,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from repro.verify.cases import FuzzCase, build_scenario, generate_case
from repro.verify.harness import (
    VerifyOutcome,
    render_verify,
    run_trial_record,
    run_verify,
)
from repro.verify.oracles import (
    ORACLE_NAMES,
    Divergence,
    OracleResult,
    check_datapaths,
    check_strategy,
    check_walk,
    check_wire,
    run_case,
    run_oracle,
)
from repro.verify.pseudocode import PSEUDOCODE
from repro.verify.shrink import shrink_case

__all__ = [
    "FuzzCase",
    "generate_case",
    "build_scenario",
    "PSEUDOCODE",
    "Divergence",
    "OracleResult",
    "ORACLE_NAMES",
    "check_datapaths",
    "check_strategy",
    "check_wire",
    "check_walk",
    "run_oracle",
    "run_case",
    "shrink_case",
    "artifact_record",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
    "run_trial_record",
    "run_verify",
    "render_verify",
    "VerifyOutcome",
]
