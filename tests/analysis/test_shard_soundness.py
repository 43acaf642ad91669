"""The sharded parallel fixpoint against the replayer.

``--shards N`` is only worth trusting if the partitioned executor is
*equivalent*: no program × instance × backend combination — optimizer
on or off — may produce a different fixpoint than the single-process
replayer, and a stratum the analysis proves communication-free must
never place a fact on a shard it does not hash to.  Cells of the
differential fuzzer (:mod:`tests.differential`), whose runs lower
``repro.core.shard.SHARD_MIN_FACTS`` so the generator's tiny instances
take the partitioned path.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.rpq import rpq_query
from repro.rpq.query import edge_predicate

from tests.differential import check_fixpoint
from tests.generators import instances, programs


@given(program=programs(), base=instances())
@example(  # a shrunk failure: a zero-width row of a sharded relation
    program=rpq_query("b").to_datalog().program,
    base=Instance.from_tuples({edge_predicate("b"): [()]}),
)
@example(  # one name at two arities: the E/1 rows feed the R stratum
    program=parse_program("Q(x,y) <- E(x,y). R(x) <- E(x)."),
    base=Instance.from_tuples({"E": [(1, 2), (3,), (4,)]}),
)
@settings(max_examples=20, deadline=None)
def test_sharded_fixpoint_equals_single_process(program, base):
    check_fixpoint(program, base, shards=(2, 3))


@given(program=programs(), base=instances())
@settings(max_examples=10, deadline=None)
def test_communication_free_strata_never_cross_shards(program, base):
    """The deployed form of the conformance property: the shard audit
    checks every communication-free stratum of the sharded run, and the
    audited run fails if it flags one."""
    check_fixpoint(program, base, [("interpreted", False)], (2,))
