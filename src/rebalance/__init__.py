"""Deterministic simulator and analysis toolkit for rebalancing cyclic replicated storage.

The package simulates two cluster-membership changes over a shared broadcast
bus, bit for bit: removing a node (two coded XOR schedules plus an uncoded
baseline) and adding a node. It verifies the result is a balanced cyclic
layout with every original atom preserved, and cross-checks measured traffic
against closed-form loads in exact rational arithmetic.
"""

from .addition import (
    AdditionPlan,
    addition_expected_layout,
    rebalance_add,
)
from .analytics import (
    Claim1Report,
    LoadReport,
    addition_load,
    choose_scheme,
    full_removal_load,
    load_scheme1,
    load_scheme2,
    threshold,
    uncoded_removal_load,
    verify_claim1,
)
from .bus import Broadcast, TransmissionLog, broadcast_class, broadcast_uncoded, broadcast_xor, decode_at_node
from .errors import (
    DecodeFailureError,
    MergeFailureError,
    ParameterError,
    ProtocolViolationError,
    RebalanceError,
    UnsupportedConfigError,
)
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    build_cyclic_database,
    cyclic_range,
    default_params,
    relabel_for_removed_node,
    segment_content,
    slice_atoms,
    storage_set,
)
from .removal_merge import ChangeRun, MergeRecipe, apply_merge, build_merge_recipes
from .removal_schemes import (
    SCHEME_CHOICES,
    deliver,
    rebalance_remove,
    run_scheme1,
    run_scheme2,
    run_uncoded_removal,
)
from .removal_split import SplitPlan, make_split_plan
from .verify import (
    VerificationReport,
    drop_broadcast,
    flip_stored_bit,
    removal_expected_layout,
    reorder_replica_parts,
    verify_change,
    verify_cyclic_balanced,
    verify_preservation,
)

__all__ = [
    "AdditionPlan",
    "Broadcast",
    "ChangeRun",
    "Claim1Report",
    "Database",
    "DecodeFailureError",
    "LoadReport",
    "MergeFailureError",
    "MergeRecipe",
    "ParameterError",
    "ProtocolViolationError",
    "RebalanceError",
    "SCHEME_CHOICES",
    "SplitPlan",
    "StoredPiece",
    "SubsegmentLabel",
    "SystemParams",
    "TransmissionLog",
    "UnsupportedConfigError",
    "VerificationReport",
    "addition_expected_layout",
    "addition_load",
    "apply_merge",
    "broadcast_class",
    "broadcast_uncoded",
    "broadcast_xor",
    "build_cyclic_database",
    "build_merge_recipes",
    "choose_scheme",
    "cyclic_range",
    "decode_at_node",
    "default_params",
    "deliver",
    "drop_broadcast",
    "flip_stored_bit",
    "full_removal_load",
    "load_scheme1",
    "load_scheme2",
    "make_split_plan",
    "rebalance_add",
    "rebalance_remove",
    "relabel_for_removed_node",
    "removal_expected_layout",
    "reorder_replica_parts",
    "run_scheme1",
    "run_scheme2",
    "run_uncoded_removal",
    "segment_content",
    "slice_atoms",
    "storage_set",
    "threshold",
    "uncoded_removal_load",
    "verify_change",
    "verify_claim1",
    "verify_cyclic_balanced",
    "verify_preservation",
]
