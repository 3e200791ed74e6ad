"""Trust management for energy-constrained mote societies.

Three pluggable trust engines (ordinal assessments, behavior-count
reputation, Bayesian evidence), a rolling-workload protocol that elects
the best-provisioned mote to host trust aggregation each interval, and a
deterministic simulator with a scenario-file CLI around them.
"""

from .beliefs import (
    EvidenceCounts,
    bayes_posterior2,
)
from .qad import (
    Assessment,
    AssessmentMatrix,
    OperatorChoice,
    apply_operator,
    quantize_observation,
    rate_of_change,
    step_society,
)
from .rwp import (
    AddressedMatrix,
    QueryResult,
    RwpPhase,
    RwpState,
    aggregate_major,
    compute_pcp,
    failover,
    handle_query,
    next_interval,
    trust_relation_count,
)
from .scenario import (
    Engine,
    EnergyCosts,
    LinkTruth,
    SafetyWeights,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from .simnet import (
    MoteState,
    SafetyObservation,
    SimulationTrace,
    analyze,
    charge_energy,
    observe_link,
    run,
    safety_score,
    select_peer,
)
from .trustworthiness import (
    BehaviorCounts,
    Outcome,
    TrustRecord,
    TrustworthinessParams,
    confidence,
    trust_stddev,
    trust_value,
    trustworthiness,
    update_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
