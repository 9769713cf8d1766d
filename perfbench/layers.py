"""Per-layer metrics from the traced run's spans and work ledger.

Times are seconds. A set-up layer reports the median over the run's
set-ups (``spark.launch_s`` is the first session start, which launches
the JVM), a prep layer the median over its cold passes, and a loop layer
the median per timed pass (traced passes only). A layer the workload
does not use reports 0. See ``perfbench/README.md`` for which
end-to-end metric each layer should move, and on which workload.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple


class _Phases:
    """Span totals grouped by run id, then by span name."""

    def __init__(self, tracer):
        spans = tracer.spans
        self.dur = defaultdict(lambda: defaultdict(float))
        self.self_t = defaultdict(lambda: defaultdict(float))
        self.calls = defaultdict(lambda: defaultdict(int))
        self.counts = defaultdict(lambda: defaultdict(float))
        self.under = defaultdict(lambda: defaultdict(float))  # child time by parent name
        self.prep_calls = self.prep_hits = 0
        for s, own in zip(spans, tracer.self_times()):
            self.dur[s.run_id][s.name] += s.duration
            self.self_t[s.run_id][s.name] += own
            self.calls[s.run_id][s.name] += 1
            if s.parent >= 0:
                key = (spans[s.parent].name, s.name)
                self.under[s.run_id][key] += s.duration
            if s.counts.get("new"):
                for k, v in s.counts.items():
                    if k != "new":
                        self.counts[s.run_id][(s.name, k)] += v
            if s.name == "engine.prepare":
                self.prep_calls += 1
                self.prep_hits += not s.counts.get("new")

    def median(self, prefix: str, table, key) -> float:
        vals = [table[r][key] for r in table if r.startswith(prefix + "-")]
        return statistics.median(vals) if vals else 0.0


def per_layer(tracer, ledger, workload, partitions, overhead) -> Dict[str, Tuple[float, str]]:
    p = _Phases(tracer)
    engine_rows = [r for r, c in zip(ledger, workload.calls) if c.kind == "engine"]
    cs_rows = [r for r, c in zip(ledger, workload.calls) if c.kind == "count_sum"]
    blocks = sum(r.get("blocks", 0) for r in engine_rows)
    probes = sum(r.get("index_probes", 0) for r in engine_rows)
    loop = p.median("pass", _loop_table(p, "engine.run_query"), "loop")
    return {
        "spark.launch_s": (p.dur["setup-0"]["spark.session"], "s"),
        "spark.session_s": (p.median("setup", p.dur, "spark.session"), "s"),
        "synth_data.flights_s": (p.median("setup", p.dur, "synth_data.flights"), "s"),
        "catalog.build_s": (p.median("setup", p.dur, "catalog.build"), "s"),
        "scramble.build_s": (p.median("setup", p.self_t, "scramble.build"), "s"),
        "scramble.partitions": (float(partitions), "count"),
        "bitmap.build_s": (p.median("cold", p.dur, "bitmap.build"), "s"),
        "bitmap.bytes": (p.median("cold", p.counts, ("bitmap.build", "bytes")), "bytes"),
        "engine.prepare_s": (p.median("cold", p.self_t, "engine.prepare"), "s"),
        "engine.stat_rows": (p.median("cold", p.counts, ("engine.prepare", "stat_rows")), "rows"),
        "engine.prep_cache_hit_ratio": (
            p.prep_hits / p.prep_calls if p.prep_calls else 0.0, "ratio"),
        "engine.loop_s": (loop, "s"),
        "engine.pick_s": (p.median("pass", p.dur, "engine.pick"), "s"),
        "engine.gather_s": (p.median("pass", p.self_t, "engine.run_query"), "s"),
        "engine.rounds": (float(sum(r.get("rounds", 0) for r in engine_rows)), "count"),
        "engine.rows_scanned": (float(sum(r.get("rows", 0) for r in engine_rows)), "rows"),
        "engine.index_probes": (float(probes), "count"),
        "engine.probes_per_block": (probes / blocks if blocks else 0.0, "ratio"),
        "vectorized.ci_s": (p.median("pass", p.dur, "vectorized.ci"), "s"),
        "vectorized.ci_calls": (float(p.median("pass", p.calls, "vectorized.ci")), "count"),
        "count_sum.n_plus_s": (p.median("pass", p.dur, "count_sum.n_plus"), "s"),
        "count_sum.count_ci_s": (p.median("pass", p.dur, "count_sum.count_ci"), "s"),
        "count_sum.sum_ci_s": (p.median("pass", p.dur, "count_sum.sum_ci"), "s"),
        "optstop.intersect_s": (p.median("pass", p.dur, "optstop.intersect"), "s"),
        "stopping.evaluate_s": (p.median("pass", p.dur, "stopping.evaluate"), "s"),
        "count_sum_query.loop_s": (
            p.median("pass", _loop_table(p, "count_sum_query.run_count_sum"), "loop"), "s"),
        "count_sum_query.blocks_fetched": (float(sum(r.get("blocks", 0) for r in cs_rows)), "blocks"),
        "ground_truth.pull_s": (p.dur["truth"]["ground_truth.pull"], "s"),
        "ground_truth.exact_s": (p.dur["truth"]["ground_truth.exact"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _loop_table(p: _Phases, caller: str):
    """Per run id: the caller's total time minus the prep it called."""
    return {
        r: {"loop": p.dur[r][caller] - p.under[r][(caller, "engine.prepare")]}
        for r in p.dur
    }


def shares(tracer, setup_times, cold_times, pass_times) -> List[str]:
    """How much of the end-to-end time the traced layers account for.

    Spark side: session, data, scramble (with catalog) and prep (with
    bitmaps) over the set-ups and cold passes. Loops: engine and
    COUNT/SUM calls minus their prep, over the traced timed passes."""
    p = _Phases(tracer)
    spark_side = sum(
        p.dur[r][name]
        for r in p.dur if r.startswith(("setup-", "cold-"))
        for name in ("spark.session", "synth_data.flights", "scramble.build", "engine.prepare")
    )
    cold_total = sum(setup_times) + sum(cold_times)
    loops = sum(
        _loop_table(p, caller)[r]["loop"]
        for caller in ("engine.run_query", "count_sum_query.run_count_sum")
        for r in p.dur if r.startswith("pass-")
    )
    return [
        f"share: Spark-side layers {spark_side:.2f} s of set-up + cold passes "
        f"{cold_total:.2f} s = {spark_side / cold_total:.1%}",
        f"share: engine loops {loops:.2f} s of traced timed passes "
        f"{sum(pass_times):.2f} s = {loops / sum(pass_times):.1%}",
    ]
