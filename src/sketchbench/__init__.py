"""Distributed graph-sketching simulator and verification toolkit.

Simulates one-shot sketching protocols for k-edge connectivity, builds the
hard graph family whose connectivity hinges on a single node, extracts
indistinguishable neighborhood pairs from any deterministic protocol, solves
and attacks the unique-overlap three-party problem, and replays sketching
protocols through an exact three-party simulation - all checkable against
brute-force oracles at desk scale.
"""

from .model import (
    Advice,
    Bits,
    Decision,
    EMPTY_RANDOMNESS,
    EncodingOverflow,
    MultiGraph,
    NodeView,
    SharedRandomness,
    SketchProtocol,
    Transcript,
    UnknownNode,
    execute,
    load_graph,
    load_transcript,
    node_view,
    save_graph,
    save_transcript,
)
from .mincut import CutResult, TooSmall, crossing_value, global_min_cut, is_k_edge_connected
from .lbgraph import (
    Condition,
    LBGraphSpec,
    SpecError,
    build_lb_graph,
    condition_of,
    hub_of,
    layout,
    random_spec,
    role_view,
    sigma_neighborhood_sweep,
    verify_dichotomy,
)
from .setfam import (
    BrokenPairRecord,
    DeterminismRequired,
    FamilyTooSparse,
    NoGoodPartition,
    PartitionContext,
    SeparatedPairRecord,
    SetFamily,
    choose_partition,
    common_block,
    complete_family,
    find_separated_pair,
    message_partitions,
    neighborhood_family,
    sample_family,
    split_projections,
    verify_record,
)
from .overlap import (
    BlockPropertyViolated,
    Counterexample,
    HypothesisViolated,
    InvalidInstance,
    OneWayProtocol,
    OverlapInstance,
    TernaryVector,
    answer,
    appb_encode,
    appb_protocol,
    attack,
    build_blocks,
    cycle_successors,
    enumerate_valid_instances,
    full_support_protocol,
    truncated_protocol,
    validate_instance,
)
from .reduction import (
    NotEnoughGoodNodes,
    ReductionContext,
    alice_bob_bits,
    alice_messages,
    bob_messages,
    build_compatible_graph,
    build_context,
    charlie_decide,
    charlie_messages,
    fidelity_mismatches,
    reduction_size,
    simulate,
    verify_fidelity,
)
from .agm import (
    DecodeError,
    agm_decide_kconn,
    agm_encode,
    budget_bits,
    make_agm_protocol,
)
from . import protocols

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
