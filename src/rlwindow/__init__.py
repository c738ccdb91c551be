"""Incremental materialization and repair over sliding windows of
timestamped description-logic assertions."""

from .errors import (BudgetExceeded, CapExceeded, EngineError, OutOfOrder,
                     ParseError, RLViolation, StaleTimestamp,
                     UnexpectedInconsistency)
from .interpretation import (Inconsistent, Interpretation, canonical_model,
                             direct_sum, eval_concept, eval_role, satisfies,
                             standard_interpretation)
from .ontology import (ConceptInclusion, ConceptName, Conj, Exists,
                       NegativeInclusion, NormalizedTBox, RoleInclusion,
                       RoleInverse, RoleName, TBox, format_axiom, format_concept,
                       format_tbox, parse_tbox, unfold_negative_inclusions)
from .oracle import (OracleVerdict, cross_check, definitional_window_repair,
                     maximal_consistent_subsets, naive_window_materialization,
                     preferred_repairs)
from .repair import (ConflictSet, RepairReport, add_abox_with_repair,
                     apply_repair, find_conflicts, resolve_conflicts)
from .stream import (ConceptAtom, MomentaryABox, Occurrence, RoleAtom,
                     Timestamp, WindowExtent, WindowSpec, parse_atom,
                     parse_stream, window_abox, window_extents)
from .window import AttributedAtom, SlideReport, WindowModel

__all__ = [
    "BudgetExceeded", "CapExceeded", "EngineError", "OutOfOrder",
    "ParseError", "RLViolation", "StaleTimestamp", "UnexpectedInconsistency",
    "Inconsistent", "Interpretation", "canonical_model", "direct_sum",
    "eval_concept", "eval_role", "satisfies", "standard_interpretation",
    "ConceptInclusion", "ConceptName", "Conj", "Exists", "NegativeInclusion",
    "NormalizedTBox", "RoleInclusion", "RoleInverse", "RoleName", "TBox",
    "format_axiom", "format_concept", "format_tbox", "parse_tbox",
    "unfold_negative_inclusions", "OracleVerdict", "cross_check",
    "definitional_window_repair", "maximal_consistent_subsets",
    "naive_window_materialization", "preferred_repairs", "ConflictSet",
    "RepairReport", "add_abox_with_repair", "apply_repair", "find_conflicts",
    "resolve_conflicts", "ConceptAtom", "MomentaryABox", "Occurrence",
    "RoleAtom", "Timestamp", "WindowExtent", "WindowSpec", "parse_atom",
    "parse_stream", "window_abox", "window_extents", "AttributedAtom",
    "SlideReport", "WindowModel",
]
