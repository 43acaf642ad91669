"""Relational and Datalog substrate (§2 of the paper)."""

from repro.core.terms import Variable, variables, Term
from repro.core.atoms import Atom, Fact, make_fact
from repro.core.instance import ANY, Instance
from repro.core.schema import Schema
from repro.core.stats import EngineStats, collecting
from repro.core.cq import ConjunctiveQuery, CanonConst, cq_from_instance
from repro.core.ucq import UCQ, as_ucq
from repro.core.datalog import Rule, DatalogProgram, DatalogQuery
from repro.core.evaluation import fixpoint
from repro.core.backend import Backend, backend_names, get_backend
from repro.core.context import RunConfig, running
from repro.core.columnar import columnar_fixpoint
from repro.core.approximation import (
    ExpansionNode,
    approximations,
    approximation_trees,
    expansion_trees,
    tree_to_cq,
)
from repro.core.normalization import is_normalized, normalize
from repro.core.containment import (
    ContainmentResult,
    Verdict,
    cq_contained,
    cq_contained_in_datalog,
    datalog_contained_bounded,
    datalog_contained_in_ucq,
    ucq_contained,
)
from repro.core.homomorphism import (
    find_homomorphism,
    has_homomorphism,
    homomorphisms,
    instance_homomorphism,
    instance_maps_into,
    is_partial_homomorphism,
)
from repro.core.gaifman import gaifman_graph, radius, is_connected
from repro.core.optimize import (
    drop_subsumed_rules,
    minimize_rule_bodies,
    optimize_query,
    reachable_rules,
    rule_subsumes,
)
from repro.core.prooftree import ProofNode, prove, verify_proof
from repro.core.serialize import (
    cq_to_text,
    instance_to_text,
    program_to_text,
    query_to_text,
    ucq_to_text,
)
from repro.core.parser import (
    parse_atom,
    parse_cq,
    parse_instance,
    parse_program,
    parse_query,
    parse_rule,
    parse_ucq,
)

__all__ = [
    "ANY", "EngineStats", "collecting",
    "Variable", "variables", "Term", "Atom", "Fact", "make_fact",
    "Instance", "Schema", "ConjunctiveQuery", "CanonConst",
    "cq_from_instance", "UCQ", "as_ucq", "Rule", "DatalogProgram",
    "DatalogQuery", "fixpoint",
    "Backend", "backend_names", "columnar_fixpoint", "get_backend",
    "RunConfig", "running",
    "ExpansionNode", "approximations", "approximation_trees",
    "expansion_trees", "tree_to_cq", "is_normalized", "normalize",
    "ContainmentResult", "Verdict", "cq_contained",
    "cq_contained_in_datalog", "datalog_contained_bounded",
    "datalog_contained_in_ucq", "ucq_contained", "find_homomorphism",
    "has_homomorphism", "homomorphisms", "instance_homomorphism",
    "instance_maps_into", "is_partial_homomorphism", "gaifman_graph",
    "radius", "is_connected", "parse_atom", "parse_cq", "parse_instance",
    "parse_program", "parse_query", "parse_rule", "parse_ucq",
    "drop_subsumed_rules", "minimize_rule_bodies", "optimize_query",
    "reachable_rules", "rule_subsumes", "ProofNode", "prove",
    "verify_proof", "cq_to_text", "instance_to_text", "program_to_text",
    "query_to_text", "ucq_to_text",
]
