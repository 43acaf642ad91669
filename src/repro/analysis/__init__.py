"""Static analysis of Datalog programs (diagnostics, dependency
structure, fragment classification, dead-rule pruning).

Validates and explains a program *before* a 2ExpTime-grade construction
runs on it: arity/schema consistency, rule safety, goal reachability,
duplicate and subsumed rules, cartesian-product bodies, and fragment
membership (MDL / frontier-guarded / linear / connected) with per-rule
witnesses.  The dependency analysis also feeds the SCC-stratified
fixpoint engine (:func:`repro.core.evaluation.stratified_fixpoint`) and
the ``python -m repro lint`` CLI.
"""

from repro.analysis.analyzer import (
    AnalysisContext,
    AnalysisReport,
    ProgramAnalysisError,
    ProgramAnalyzer,
    analyze_query,
)
from repro.analysis.dependency import (
    SCC,
    DependencyGraph,
    FragmentReport,
    FragmentViolation,
    evaluation_strata,
    fragment_report,
    prune_unreachable,
)
from repro.analysis.cost import (
    AtomCost,
    CostGuard,
    CostParameters,
    CostReport,
    PredicateBound,
    RuleCost,
    atom_match_bound,
    cost_report,
)
from repro.analysis.diagnostics import CODES, Diagnostic, Severity, make
from repro.analysis.maintain import (
    DeltaBound,
    MaintainReport,
    MaintenanceGuard,
    maintain_report,
)
from repro.analysis.fixer import (
    FIXABLE_CODES,
    AppliedFix,
    FixResult,
    fix_source,
)
from repro.analysis.optimize import (
    DEFAULT_PIPELINE,
    PASSES,
    OptimizationResult,
    OptimizationStage,
    RuleProvenance,
    TransformRecord,
    dead_body_atoms,
    inline_candidates,
    magic_opportunities,
    optimize_program,
    optimized_query_program,
    syntactic_fixpoint_program,
)
from repro.analysis.plan import StratumPlan, program_plan
from repro.analysis.sarif import sarif_report
from repro.analysis.shard import (
    ShardGuard,
    ShardReport,
    shard_of,
    shard_report,
)
from repro.analysis.semantics import (
    BoundednessReport,
    Capability,
    RuleWitness,
    SemanticReport,
    SortReport,
    binding_patterns,
    boundedness_report,
    capability_facts,
    nonrecursive_to_ucq,
    semantic_report,
    sort_report,
)

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "ProgramAnalysisError",
    "ProgramAnalyzer",
    "analyze_query",
    "SCC",
    "DependencyGraph",
    "FragmentReport",
    "FragmentViolation",
    "evaluation_strata",
    "fragment_report",
    "prune_unreachable",
    "AtomCost",
    "CostGuard",
    "CostParameters",
    "CostReport",
    "PredicateBound",
    "RuleCost",
    "atom_match_bound",
    "cost_report",
    "CODES",
    "Diagnostic",
    "Severity",
    "make",
    "DeltaBound",
    "MaintainReport",
    "MaintenanceGuard",
    "maintain_report",
    "FIXABLE_CODES",
    "AppliedFix",
    "FixResult",
    "fix_source",
    "DEFAULT_PIPELINE",
    "PASSES",
    "OptimizationResult",
    "OptimizationStage",
    "RuleProvenance",
    "TransformRecord",
    "dead_body_atoms",
    "inline_candidates",
    "magic_opportunities",
    "optimize_program",
    "optimized_query_program",
    "StratumPlan",
    "program_plan",
    "sarif_report",
    "ShardGuard",
    "ShardReport",
    "shard_of",
    "shard_report",
    "syntactic_fixpoint_program",
    "BoundednessReport",
    "Capability",
    "RuleWitness",
    "SemanticReport",
    "SortReport",
    "binding_patterns",
    "boundedness_report",
    "capability_facts",
    "nonrecursive_to_ucq",
    "semantic_report",
    "sort_report",
]
