"""The evidence-job registry.

:func:`default_registry` declares every Table 1 cell, Table 2 cell and
Figure 1–5 construction as a :class:`~repro.harness.job.Job` with its
paper claim, expected verdict and dependencies.  Dependencies encode
*meaningfulness*, not data flow: e.g. the Figure 4 row-embedding claim
is only evidence if the Figure 3 unravelled counterexample it reasons
about is itself sound, so a broken ``fig3-unravelled-counterexample``
poisons ``fig4-long-row`` instead of letting it "pass" vacuously.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.harness.job import Job

_T1 = "repro.harness.evidence_table1"
_T2 = "repro.harness.evidence_table2"
_FIG = "repro.harness.evidence_figures"
_IVM = "repro.harness.evidence_ivm"
_SHARD = "repro.harness.evidence_shard"


class JobRegistry:
    """An ordered, name-unique collection of jobs."""

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: dict[str, Job] = {}
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> Job:
        if job.name in self._jobs:
            raise ValueError(f"duplicate job name {job.name!r}")
        for dep in job.deps:
            if dep not in self._jobs:
                raise ValueError(
                    f"job {job.name!r} depends on {dep!r}, which is not "
                    f"registered (register dependencies first)"
                )
        self._jobs[job.name] = job
        return job

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._jobs

    def get(self, name: str) -> Job:
        return self._jobs[name]

    def select(self, pattern: Optional[str] = None) -> list[Job]:
        """Jobs matching ``pattern`` plus their transitive dependencies.

        Dependencies are pulled in so a filtered run still executes a
        well-formed DAG; declaration order is preserved.
        """
        if not pattern:
            return list(self._jobs.values())
        wanted: set[str] = set()

        def pull(name: str) -> None:
            if name in wanted:
                return
            wanted.add(name)
            for dep in self._jobs[name].deps:
                pull(dep)

        for job in self._jobs.values():
            if job.matches(pattern):
                pull(job.name)
        return [job for job in self._jobs.values() if job.name in wanted]


def default_registry() -> JobRegistry:
    """Every paper claim as a job.  Names are stable CLI identifiers.

    ``heavy`` marks the jobs whose median duration at ``--jobs 2`` is
    above 0.4 s (measured on a 2-CPU host), so the runner starts them
    before the short ones instead of leaving one for last.
    """
    registry = JobRegistry()

    # ------------------------------------------------------- Table 1
    registry.add(Job(
        name="t1-cq-rewriting",
        fn=f"{_T1}:t1_cq_rewriting",
        claim="CQ query mon. determined over Datalog views → CQ "
              "rewriting of polynomial size (Prop. 8a)",
        expected="cq-rewriting",
        tags=("table1", "rewriting"),
    ))
    registry.add(Job(
        name="t1-ucq-rewriting",
        fn=f"{_T1}:t1_ucq_rewriting",
        claim="UCQ query mon. determined → UCQ rewriting (Prop. 8b)",
        expected="ucq-rewriting",
        tags=("table1", "rewriting"),
    ))
    registry.add(Job(
        name="t1-mdl-cq-fgdl-rewriting",
        fn=f"{_T1}:t1_mdl_cq_fgdl_rewriting",
        claim="MDL query mon. determined over CQ views → FGDL "
              "rewriting ([14]/Thm 2)",
        expected="fgdl-rewriting",
        tags=("table1", "rewriting"),
    ))
    registry.add(Job(
        name="fig3-unravelled-counterexample",
        fn=f"{_FIG}:fig3_unravelled_counterexample",
        claim="the inverse chase of the (1,k)-unravelling fails Q "
              "while its view image covers the unravelling (Fig. 3)",
        expected="counterexample",
        tags=("figures", "fig3"),
    ))
    registry.add(Job(
        name="t1-mdl-cq-not-mdl",
        fn=f"{_T1}:t1_mdl_cq_not_mdl",
        claim="the diamond Q separates: Q(I_k)=True, Q(I'_k)=False, "
              "and the Figure-4 row cannot embed into the "
              "(1,k)-unravelling (Thm 7)",
        expected="mdl-separation",
        deps=("fig3-unravelled-counterexample",),
        tags=("table1", "separation"),
    ))
    registry.add(Job(
        name="t1-datalog-fgdl",
        fn=f"{_T1}:t1_datalog_fgdl",
        claim="Datalog query mon. determined over FGDL views → "
              "Datalog rewriting (Thm 1)",
        expected="datalog-rewriting",
        tags=("table1", "rewriting"),
    ))
    registry.add(Job(
        name="t1-thm8-no-datalog-rewriting",
        fn=f"{_T1}:t1_thm8_no_datalog_rewriting",
        claim="Q_TP* mon. determined over V_TP* but with no Datalog "
              "rewriting (Thm 8)",
        expected="no-datalog-rewriting",
        tags=("table1", "separation"),
        heavy=True,
    ))
    registry.add(Job(
        name="t1-mdl-rewriting-via-automata",
        fn=f"{_T1}:t1_mdl_rewriting_via_automata",
        claim="for MDL queries the Thm 1 rewriting can be taken in MDL "
              "(frontier-one codes + unary backward predicates)",
        expected="mdl-rewriting",
        tags=("table1", "rewriting"),
    ))

    # ------------------------------------------------------- Table 2
    registry.add(Job(
        name="t2-cq-cq",
        fn=f"{_T2}:t2_cq_cq",
        claim="monotonic determinacy for CQ/CQ is decidable "
              "(NP-complete, [21])",
        expected="decided-exactly",
        inputs={"cases": 12, "seed": 7},
        tags=("table2", "decision"),
    ))
    registry.add(Job(
        name="t2-cq-datalog",
        fn=f"{_T2}:t2_cq_datalog",
        claim="CQ query / recursive Datalog views: decidable in "
              "2ExpTime (Thm 5)",
        expected="decided-exactly",
        tags=("table2", "decision"),
    ))
    registry.add(Job(
        name="t2-fgdl",
        fn=f"{_T2}:t2_fgdl",
        claim="FGDL/FGDL decidable in 2ExpTime; view-image treewidth "
              "stays bounded (Thm 3, Lemmas 2-3)",
        expected="determined-and-refuted",
        tags=("table2", "decision"),
    ))
    registry.add(Job(
        name="t2-undecidable-reduction",
        fn=f"{_T2}:t2_undecidable_reduction",
        claim="tiling solvable ⟺ Q_TP NOT mon. determined over V_TP "
              "(undecidability, Thm 6)",
        expected="reduction-faithful",
        inputs={"approx_depth": 4, "view_depth": 1, "max_tests": 400},
        tags=("table2", "reduction"),
        heavy=True,
    ))
    registry.add(Job(
        name="t2-lower-bounds",
        fn=f"{_T2}:t2_lower_bounds",
        claim="equivalence/containment reduce to monotonic determinacy "
              "(Prop. 9 lower bounds)",
        expected="reductions-faithful",
        tags=("table2", "reduction"),
    ))
    registry.add(Job(
        name="t2-mdl-cq-thm4",
        fn=f"{_T2}:t2_mdl_cq_thm4",
        claim="MDL query over CQ views: decidable in 3ExpTime via "
              "normalization + treewidth bound (Thm 4)",
        expected="determined-and-refuted",
        tags=("table2", "decision"),
    ))
    registry.add(Job(
        name="t2-cross-validation",
        fn=f"{_T2}:t2_cross_validation",
        claim="(methodology) the Thm 5 automata path and the Lemma 5 "
              "finite-test path must agree",
        expected="procedures-agree",
        inputs={"cases": 8, "seed": 13},
        deps=("t2-cq-cq",),
        tags=("table2", "methodology"),
    ))

    # ------------------------------------------------------- Figures
    registry.add(Job(
        name="fig1-adjacency-gadgets",
        fn=f"{_FIG}:fig1_adjacency_gadgets",
        claim="HA/VA detect exactly horizontal/vertical grid adjacency "
              "(Fig. 1)",
        expected="exact-adjacency",
        inputs={"sizes": [[2, 2], [3, 3], [4, 3]]},
        tags=("figures", "fig1"),
    ))
    registry.add(Job(
        name="fig1-verify-rules",
        fn=f"{_FIG}:fig1_verify_rules",
        claim="Q_TP is False exactly on grid tests carrying a valid "
              "tiling (Fig. 1, Qverify)",
        expected="detects-violations",
        deps=("fig1-adjacency-gadgets",),
        tags=("figures", "fig1"),
    ))
    registry.add(Job(
        name="fig2-view-image",
        fn=f"{_FIG}:fig2_view_image_is_product",
        claim="V(I_ℓ): S = C × D (ℓ² facts), axes exposed atomically, "
              "special views empty (Fig. 2)",
        expected="product-image",
        inputs={"ells": [2, 3, 4]},
        tags=("figures", "fig2"),
    ))
    registry.add(Job(
        name="fig2-tests-recover-grids",
        fn=f"{_FIG}:fig2_tests_recover_grids",
        claim="grid-like tests arise from the view image by replacing "
              "each S-atom with a tile disjunct (Fig. 2)",
        expected="grids-recovered",
        deps=("fig2-view-image",),
        tags=("figures", "fig2"),
    ))
    registry.add(Job(
        name="fig3-chain-and-image",
        fn=f"{_FIG}:fig3_chain_and_image",
        claim="I_k: chain of k+1 diamonds satisfies Q; its image is "
              "S · R^k · T (Fig. 3)",
        expected="image-matches",
        inputs={"ks": [1, 2, 3, 4]},
        tags=("figures", "fig3"),
    ))
    registry.add(Job(
        name="fig4-long-row",
        fn=f"{_FIG}:fig4_long_row",
        claim="a row of ≥2 R-rectangles needs two shared elements "
              "between bags — impossible in a (1,k)-unravelling (Fig. 4)",
        expected="no-embedding",
        inputs={"lengths": [1, 2, 3]},
        deps=("fig3-unravelled-counterexample",),
        tags=("figures", "fig4"),
    ))
    registry.add(Job(
        name="fig5-lemma3-treewidth",
        fn=f"{_FIG}:fig5_lemma3_treewidth",
        claim="image treewidth ≤ k(k^(r+1)-1)/(k-1) across instance "
              "families and view radii (Fig. 5 / Lemma 3)",
        expected="within-bound",
        inputs={"radii": [1, 2], "families": ["chain", "cycle", "tree"]},
        tags=("figures", "fig5"),
    ))

    # ------------------------------------------- incremental maintenance
    registry.add(Job(
        name="ivm-chain-maintenance",
        fn=f"{_IVM}:ivm_chain_maintenance",
        claim="counting plus semi-naive insertion and stratum "
              "recompute on retraction keeps chain transitive closure "
              "equal to the from-scratch fixpoint after every round",
        expected="maintenance-equivalent",
        inputs={"nodes": 48, "rounds": 12},
        tags=("ivm", "maintenance"),
    ))
    registry.add(Job(
        name="ivm-grid-maintenance",
        fn=f"{_IVM}:ivm_grid_maintenance",
        claim="recomputing the reachability stratum on every "
              "retracting round keeps grid reachability equal to the "
              "from-scratch fixpoint after every round",
        expected="maintenance-equivalent",
        inputs={"side": 5, "rounds": 10},
        tags=("ivm", "maintenance"),
    ))
    registry.add(Job(
        name="ivm-insert-monotone-chain",
        fn=f"{_IVM}:ivm_insert_monotone_chain",
        claim="insert-only rounds into recursive strata propagate "
              "semi-naively without recomputing the stratum, and a "
              "recursive-but-counting-safe stratum is maintained by "
              "counting",
        expected="maintenance-equivalent",
        inputs={"nodes": 40, "rounds": 10},
        tags=("ivm", "maintenance", "analysis"),
    ))
    registry.add(Job(
        name="ivm-retraction-grid-bounds",
        fn=f"{_IVM}:ivm_retraction_grid_bounds",
        claim="the measured maintenance delta of every retraction round "
              "stays within the statically predicted delta bound",
        expected="maintenance-equivalent",
        inputs={"side": 4, "rounds": 8},
        tags=("ivm", "maintenance", "analysis"),
    ))

    # ------------------------------------------------ sharded evaluation
    registry.add(Job(
        name="shard-tenant-reachability",
        fn=f"{_SHARD}:shard_tenant_reachability",
        claim="a communication-free stratum reaches the identical "
              "fixpoint hash-partitioned across workers with zero "
              "exchanged tuples, every fact on its owning shard",
        expected="shard-equivalent",
        inputs={"tenants": 12, "nodes": 24, "shards": 2},
        tags=("shard", "analysis"),
        heavy=True,
    ))
    registry.add(Job(
        name="shard-grid-exchange",
        fn=f"{_SHARD}:shard_grid_exchange",
        claim="an exchange-required stratum reaches the identical "
              "fixpoint with measured delta traffic within the "
              "certified exchange bound",
        expected="shard-equivalent",
        inputs={"side": 12, "shards": 2},
        tags=("shard", "analysis"),
        heavy=True,
    ))
    return registry
