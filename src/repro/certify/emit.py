"""Certificate builders.

Emitters sit on the *trusted* side of the boundary: they are free to use
the engine's fast evaluation to construct claims, because everything
they emit is later re-derived by :mod:`repro.certify.checker` with the
naive :mod:`repro.certify.replay` primitives.  Each ``claim_*`` builder
produces one claim payload whose keys match the corresponding checker
exactly; :func:`certificate` wraps a claim list into the versioned
envelope.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.certify.serialize import (
    Relations,
    encode_atom,
    encode_instance,
    encode_mapping,
    encode_program,
    encode_query,
    encode_relations,
    encode_term,
    encode_tuple,
    encode_views,
)
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram
from repro.core.instance import Instance
from repro.core.schema import Schema
from repro.core.ucq import UCQ
from repro.views.view import ViewSet

#: bump together with :data:`repro.certify.checker.CERT_SCHEMA`
#: (history: 1 = initial 12-claim vocabulary; 2 = adds
#: ``program_equivalence`` for the certified optimizer; 3 = adds
#: ``ivm_state`` for incrementally maintained materializations)
CERT_SCHEMA = 3

InstanceLike = Union[Instance, Relations]


def _instance_payload(data: InstanceLike) -> list[Any]:
    if isinstance(data, Instance):
        return encode_instance(data)
    return encode_relations(data)


def certificate(
    claims: Sequence[dict[str, Any]], meta: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Wrap claims in the versioned certificate envelope."""
    payload: dict[str, Any] = {
        "schema": CERT_SCHEMA,
        "claims": list(claims),
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


# ---------------------------------------------------------------------------
# primitive claims
# ---------------------------------------------------------------------------
def claim_membership(
    query: Any,
    instance: InstanceLike,
    answer: tuple[Any, ...],
    member: bool = True,
    witness: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """``answer ∈ Q(instance)`` (or ``∉`` with ``member=False``)."""
    payload = {
        "type": "membership",
        "query": encode_query(query),
        "instance": _instance_payload(instance),
        "answer": encode_tuple(answer),
        "member": bool(member),
    }
    if witness is not None:
        payload["witness"] = encode_mapping(witness)
    return payload


def claim_query_output(
    query: Any,
    instance: Instance,
    output: Optional[set[tuple[Any, ...]]] = None,
) -> dict[str, Any]:
    """``Q(instance)`` equals ``output`` (engine-computed when omitted)."""
    if output is None:
        output = query.evaluate(instance)
    return {
        "type": "query_output",
        "query": encode_query(query),
        "instance": _instance_payload(instance),
        "output": [encode_tuple(row) for row in sorted(output, key=repr)],
    }


def claim_hom_witness(
    atoms: Sequence[Atom], target: InstanceLike, mapping: dict[str, Any]
) -> dict[str, Any]:
    """The shipped ``mapping`` is a homomorphism of ``atoms`` into
    ``target``."""
    return {
        "type": "hom_witness",
        "atoms": [encode_atom(atom) for atom in atoms],
        "target": _instance_payload(target),
        "mapping": encode_mapping(mapping),
    }


def claim_no_hom(
    atoms: Sequence[Atom],
    target: InstanceLike,
    fixed: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """No homomorphism of ``atoms`` into ``target`` extends ``fixed``."""
    payload = {
        "type": "no_hom",
        "atoms": [encode_atom(atom) for atom in atoms],
        "target": _instance_payload(target),
    }
    if fixed is not None:
        payload["fixed"] = encode_mapping(fixed)
    return payload


def claim_instance_subset(
    left: InstanceLike, right: InstanceLike
) -> dict[str, Any]:
    """Every fact of ``left`` is a fact of ``right``."""
    return {
        "type": "instance_subset",
        "left": _instance_payload(left),
        "right": _instance_payload(right),
    }


def claim_view_image(
    views: ViewSet,
    base: Instance,
    image: Optional[Instance] = None,
) -> dict[str, Any]:
    """``V(base)`` equals ``image`` (engine-computed when omitted)."""
    if image is None:
        image = views.image(base)
    return {
        "type": "view_image",
        "views": encode_views(views),
        "base": _instance_payload(base),
        "image": _instance_payload(image),
    }


def claim_ucq_containment(
    left: Any,
    right: Any,
    witnesses: Optional[
        Sequence[Optional[tuple[int, dict[str, Any]]]]
    ] = None,
) -> dict[str, Any]:
    """``left ⊑ right``; optional per-disjunct ``(index, hom)`` witnesses
    are replayed by the checker instead of searched."""
    payload = {
        "type": "ucq_containment",
        "left": encode_query(left),
        "right": encode_query(right),
    }
    if witnesses is not None:
        payload["witnesses"] = [
            None
            if entry is None
            else [entry[0], encode_mapping(entry[1])]
            for entry in witnesses
        ]
    return payload


def claim_tree_decomposition(
    facts: InstanceLike,
    bags: Sequence[Sequence[object]],
    edges: Sequence[tuple[int, int]],
    width: int,
) -> dict[str, Any]:
    """``bags``/``edges`` are a tree decomposition of ``facts`` within
    ``width``."""
    return {
        "type": "tree_decomposition",
        "facts": _instance_payload(facts),
        "bags": [
            [encode_term(element) for element in sorted(bag, key=repr)]
            for bag in bags
        ],
        "edges": [[int(a), int(b)] for a, b in edges],
        "width": int(width),
    }


# ---------------------------------------------------------------------------
# composite claims
# ---------------------------------------------------------------------------
def claim_not_determined(
    query: Any,
    views: ViewSet,
    instance1: InstanceLike,
    instance2: InstanceLike,
    answer: tuple[Any, ...],
) -> dict[str, Any]:
    """The counterexample pair refuting monotonic determinacy:
    ``answer ∈ Q(I₁)``, ``answer ∉ Q(I₂)``, ``V(I₁) ⊆ V(I₂)``."""
    return {
        "type": "not_monotonically_determined",
        "query": encode_query(query),
        "views": encode_views(views),
        "instance1": _instance_payload(instance1),
        "instance2": _instance_payload(instance2),
        "answer": encode_tuple(answer),
    }


def claim_monotone_rewriting(
    query: Any, views: ViewSet, rewriting: Any
) -> dict[str, Any]:
    """``rewriting ∘ V ≡ Q`` with exact canonical-database checks
    (requires CQ/UCQ query and views; the checker re-unfolds itself)."""
    return {
        "type": "monotone_rewriting",
        "query": encode_query(query),
        "views": encode_views(views),
        "rewriting": encode_query(rewriting),
    }


def claim_rewriting_sample(
    query: Any,
    views: ViewSet,
    rewriting: Any,
    schema: Optional[Schema] = None,
    trials: int = 25,
    seed: int = 0,
) -> dict[str, Any]:
    """``R(V(I)) = Q(I)`` on a seeded random instance stream — sampled
    evidence for shapes where exact equivalence is out of reach."""
    if schema is None:
        from repro.rewriting.verification import _base_schema

        schema = _base_schema(query, views)
    return {
        "type": "rewriting_sample",
        "query": encode_query(query),
        "views": encode_views(views),
        "rewriting": encode_query(rewriting),
        "schema": {
            pred: schema.arity(pred) for pred in sorted(schema.names())
        },
        "trials": int(trials),
        "seed": int(seed),
    }


def claim_bounded_unfolding(
    program: DatalogProgram,
    goal: str,
    pairs: Sequence[tuple[int, int]],
    ucq: UCQ,
    schema: Optional[Schema] = None,
    trials: int = 20,
    seed: int = 0,
) -> dict[str, Any]:
    """The boundedness story: each ``(dropped, subsuming)`` pair replays
    as a rule subsumption, the remainder is nonrecursive, and ``ucq`` is
    its unfolding (soundness exact, converse sampled)."""
    if schema is None:
        schema = Schema({
            atom.pred: atom.arity
            for rule in program.rules
            for atom in rule.body
            if atom.pred not in program.idb_predicates()
        })
    return {
        "type": "bounded_unfolding",
        "program": encode_program(program),
        "goal": goal,
        "pairs": [[int(a), int(b)] for a, b in pairs],
        "ucq": encode_query(ucq),
        "schema": {
            pred: schema.arity(pred) for pred in sorted(schema.names())
        },
        "trials": int(trials),
        "seed": int(seed),
    }


def claim_program_equivalence(
    original: DatalogProgram,
    optimized: DatalogProgram,
    goal: str,
    schema: Optional[Schema] = None,
    witnesses: Sequence[Relations] = (),
    trials: int = 12,
    seed: int = 0,
    pass_name: Optional[str] = None,
) -> dict[str, Any]:
    """``optimized`` and ``original`` agree on the goal relation, over
    instances of the extensional ``schema`` (schema-2 claim).

    The contract is deliberately scoped to extensional instances: the
    optimizer's renaming passes (magic sets, inlining, specialization)
    are not answer-preserving on instances that supply facts for
    intensional predicates, and no decision procedure evaluates on such
    instances.  The checker replays both programs with naive fixpoint
    evaluation on the shipped ``witnesses`` (targeted, canonical-db
    style) and on a seeded random-instance stream over ``schema``.
    """
    if schema is None:
        idb = original.idb_predicates() | optimized.idb_predicates()
        relations: dict[str, int] = {}
        for program in (original, optimized):
            for rule in program.rules:
                for atom in rule.body:
                    if atom.pred not in idb:
                        relations[atom.pred] = atom.arity
        schema = Schema(relations)
    payload = {
        "type": "program_equivalence",
        "original": encode_program(original),
        "optimized": encode_program(optimized),
        "goal": goal,
        "schema": {
            pred: schema.arity(pred) for pred in sorted(schema.names())
        },
        "witnesses": [encode_relations(witness) for witness in witnesses],
        "trials": int(trials),
        "seed": int(seed),
    }
    if pass_name is not None:
        payload["pass"] = pass_name
    return payload


def claim_ivm_state(
    program: DatalogProgram,
    base: InstanceLike,
    state: InstanceLike,
    maintain: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The maintained materialization equals ``FPEval(program, base)``
    (schema-3 claim).

    Emitted by :meth:`repro.ivm.MaterializedView.certificate` after a
    maintenance round: whatever sequence of maintenance rounds
    produced ``state``, the checker re-derives the fixpoint of ``base``
    with the naive replay evaluator (which shares no code with the
    incremental engine) and demands exact equality.

    ``maintain`` optionally folds in the maintainability
    classification (:meth:`repro.analysis.maintain.MaintainReport.
    classification`): per-predicate strategy, insert-monotone and
    counting-safe claims, all instance-independent, which the checker
    re-derives from the decoded program and compares exactly.
    """
    payload: dict[str, Any] = {
        "type": "ivm_state",
        "program": encode_program(program),
        "base": _instance_payload(base),
        "state": _instance_payload(state),
    }
    if maintain is not None:
        payload["maintain"] = dict(maintain)
    return payload
