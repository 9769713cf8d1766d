"""The benchmark's two workloads: which engine calls make one pass.

A workload is the list of :class:`Call` s that make one timed pass, the
calls of one cold pass, and how many cold passes follow each set-up.
Every workload runs the same phases (see ``run.py``); they differ in
which layers their calls stress. See ``perfbench/README.md`` for why
each was chosen.

* ``warm_ablation``  — cold pass: F-q1..F-q9 once each under
  Bernstein+RT with ActivePeek, mostly Spark-side prep. Timed pass: the
  Table 5 grid (9 queries x Exact / H / H+RT / B / B+RT) plus Table 6's
  Scan and ActiveSync under Bernstein+RT for F-q3/5/6/7/8, 55 engine
  calls with prep warm.
* ``count_sum_scan`` — ``run_count_sum`` for COUNT and SUM at
  ``rel_eps`` 0.05 and 0.01 on two single-view predicates, for both the
  cold and the timed pass.

Every call returns ``(decision, ledger row)``. The decision is checked
against DuckDB after the timed passes; the ledger row is the call's
deterministic work (blocks, rounds, rows, index probes).
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

import duckdb

from repro.experiments import ground_truth
from repro.experiments.table5 import BOUNDER_CONFIGS
from repro.experiments.table6 import TABLE6_QUERIES
from repro.fastframe import count_sum_query, engine
from repro.fastframe.engine import EngineConfig
from repro.fastframe.queries import ALL_QUERIES, Eq, QuerySpec
from repro.core.stopping import RelWidth

#: Rank-60 (least frequent) airport of FLIGHTS-lite's Zipf airport table:
#: about 0.3 % of rows, so a COUNT/SUM on it scans far for few matches.
SPARSE_AIRPORT = "CHA"

BOUNDERS = [("Exact", "exact", False)] + BOUNDER_CONFIGS


@dataclass
class Call:
    """One engine call of a pass, plus how to check its decision."""

    key: str  # "<query>|<config>", unique within a workload
    spec: QuerySpec
    run: Callable[[Any, Any], Tuple[Any, Dict[str, int]]]
    kind: str  # "engine" | "count_sum"
    agg: str = ""
    rel_eps: float = 0.0


@dataclass
class Workload:
    calls: List[Call]  # one timed pass
    cold_calls: List[Call]  # one cold pass, on an empty prep cache
    cold_repeats: int  # cold passes after each set-up


def _engine_call(spec: QuerySpec, label: str, cfg: EngineConfig) -> Call:
    def run(scramble, tracer):
        with tracer.span("engine.run_query"):
            res = engine.run_query(scramble, spec, cfg)
        return res.decision, {
            "blocks": res.blocks_fetched,
            "rounds": res.rounds,
            "rows": res.rows_scanned,
            "index_probes": res.index_probes,
        }

    return Call(f"{spec.name}|{label}|{cfg.strategy}", spec, run, "engine")


def _count_sum_call(spec: QuerySpec, agg: str, rel_eps: float) -> Call:
    def run(scramble, tracer):
        with tracer.span("count_sum_query.run_count_sum"):
            res = count_sum_query.run_count_sum(scramble, spec, agg, rel_eps=rel_eps)
        decision = {
            "estimate": res.estimate,
            "lo": res.lo,
            "hi": res.hi,
            "exhausted": res.exhausted,
        }
        return decision, {
            "blocks": res.blocks_fetched,
            "rounds": res.rounds,
            "rows": res.rows_scanned,
            "index_probes": 0,
        }

    return Call(f"{spec.name}|{agg}|rel_eps={rel_eps}", spec, run, "count_sum", agg, rel_eps)


def _bernstein_rt(strategy: str) -> EngineConfig:
    return EngineConfig(bounder="bernstein", range_trim=True, strategy=strategy)


def warm_ablation() -> Workload:
    cold = [
        _engine_call(q(), "Bernstein+RT", _bernstein_rt("active_peek"))
        for q in ALL_QUERIES.values()
    ]
    calls = []
    for q in ALL_QUERIES.values():
        for label, bounder, rt in BOUNDERS:
            if bounder == "exact":
                cfg = EngineConfig(bounder="exact", strategy="scan")
            else:
                cfg = EngineConfig(bounder=bounder, range_trim=rt, strategy="active_peek")
            calls.append(_engine_call(q(), label, cfg))
    for name in TABLE6_QUERIES:
        for strategy in ("scan", "active_sync"):
            calls.append(
                _engine_call(ALL_QUERIES[name](), "Bernstein+RT", _bernstein_rt(strategy))
            )
    return Workload(calls, cold, cold_repeats=1)


def _single_view(airport: str) -> QuerySpec:
    return QuerySpec(
        name=f"Origin={airport}",
        stopping=RelWidth(eps=0.05),  # unused by run_count_sum
        predicate=(Eq("Origin", airport),),
        result_kind="avg_ci",
    )


def count_sum_scan() -> Workload:
    calls = [
        _count_sum_call(_single_view(airport), agg, rel_eps)
        for airport in ("ORD", SPARSE_AIRPORT)
        for agg in ("COUNT", "SUM")
        for rel_eps in (0.05, 0.01)
    ]
    # Its cold pass is about 1 s, so it is repeated to steady the median.
    return Workload(calls, calls, cold_repeats=3)


WORKLOADS = {
    "warm_ablation": warm_ablation,
    "count_sum_scan": count_sum_scan,
}


def _exact_count_sum(spec: QuerySpec, flights) -> Dict[str, float]:
    """Exact COUNT and SUM of the measure over the view, in DuckDB."""
    con = duckdb.connect()
    try:
        con.register("flights", flights)
        n, s = con.execute(
            f"SELECT COUNT({spec.agg_col}), SUM({spec.agg_col}) "
            f"FROM flights{spec.predicate_sql()}"
        ).fetchone()
    finally:
        con.close()
    return {"COUNT": float(n), "SUM": float(s or 0.0)}


def exact_answers(calls: List[Call], scramble, tracer) -> Dict[str, Any]:
    """Ground truth per query name, computed once per distinct view."""
    flights = ground_truth.flights_pandas(scramble)
    truth: Dict[str, Any] = {}
    for call in calls:
        if call.spec.name in truth:
            continue
        if call.kind == "engine":
            truth[call.spec.name] = ground_truth.exact_decision(call.spec, flights)
        else:
            with tracer.span("ground_truth.exact"):
                truth[call.spec.name] = _exact_count_sum(call.spec, flights)
    return truth


def decision_ok(call: Call, decision: Any, truth: Dict[str, Any]) -> bool:
    """Engine calls: the repo's own check. COUNT/SUM: the interval holds
    the exact value and met its width target (or read the whole view)."""
    exact = truth[call.spec.name]
    if call.kind == "engine":
        return ground_truth.decision_correct(
            call.spec, SimpleNamespace(decision=decision), exact
        )
    value = exact[call.agg]
    tol = 1e-9 * max(1.0, abs(value))
    encloses = decision["lo"] - tol <= value <= decision["hi"] + tol
    width = decision["hi"] - decision["lo"]
    tight = decision["exhausted"] or width <= call.rel_eps * abs(decision["estimate"])
    return encloses and tight
