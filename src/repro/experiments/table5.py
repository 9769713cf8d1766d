"""Paper Table 5: bounder ablation over F-q1..F-q9.

Runs every query with the Exact baseline and with Hoeffding,
Hoeffding+RT, Bernstein, Bernstein+RT, reporting wall time of the scan
loop, blocks fetched, and speedups over Exact both ways. Every
approximate decision is verified against DuckDB ground truth
(the paper's correctness metric).

The paper's wall-clock numbers come from a native single-node engine
over 606 M rows; our simulator reports the same cost structure at
~1.2 M rows, so the comparison in EXPERIMENTS.md is about *shape*
(which bounder wins, where Hoeffding degenerates to a full scan,
how much RangeTrim buys on sparse-group queries), with the
blocks-fetched ratio as the scale-insensitive speedup measure.
"""
from __future__ import annotations

from typing import Dict, List, Optional

import pandas as pd

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import ALL_QUERIES, QuerySpec
from repro.fastframe.scramble import Scramble

#: Paper Table 5, transcribed: per query, Exact seconds and speedup over
#: Exact per bounder (the paper's testbed numbers, for EXPERIMENTS.md).
PAPER_TABLE5 = {
    "F-q1": {"exact_s": 21.40, "Hoeffding": 61.58, "Hoeffding+RT": 60.17, "Bernstein": 1721.06, "Bernstein+RT": 3093.02},
    "F-q2": {"exact_s": 46.10, "Hoeffding": 267.75, "Hoeffding+RT": 374.92, "Bernstein": 2440.25, "Bernstein+RT": 5135.43},
    "F-q3": {"exact_s": 28.14, "Hoeffding": 1.19, "Hoeffding+RT": 1.74, "Bernstein": 9.57, "Bernstein+RT": 18.58},
    "F-q4": {"exact_s": 21.03, "Hoeffding": 13.38, "Hoeffding+RT": 13.64, "Bernstein": 991.50, "Bernstein+RT": 956.72},
    "F-q5": {"exact_s": 49.15, "Hoeffding": 0.48, "Hoeffding+RT": 0.90, "Bernstein": 1.86, "Bernstein+RT": 3.77},
    "F-q6": {"exact_s": 65.74, "Hoeffding": 1.19, "Hoeffding+RT": 1.26, "Bernstein": 12.48, "Bernstein+RT": 21.63},
    "F-q7": {"exact_s": 29.62, "Hoeffding": 0.99, "Hoeffding+RT": 1.00, "Bernstein": 2.21, "Bernstein+RT": 2.51},
    "F-q8": {"exact_s": 49.31, "Hoeffding": 1.08, "Hoeffding+RT": 1.08, "Bernstein": 5.60, "Bernstein+RT": 5.83},
    "F-q9": {"exact_s": 46.69, "Hoeffding": 1.16, "Hoeffding+RT": 1.34, "Bernstein": 143.84, "Bernstein+RT": 157.94},
}

BOUNDER_CONFIGS = [
    ("Hoeffding", "hoeffding", False),
    ("Hoeffding+RT", "hoeffding", True),
    ("Bernstein", "bernstein", False),
    ("Bernstein+RT", "bernstein", True),
]


def run_table5(
    scramble: Scramble,
    *,
    queries: Optional[List[str]] = None,
    round_rows: int = 40_000,
) -> pd.DataFrame:
    """One tidy row per (query, approach); Exact included as an approach."""
    names = queries or list(ALL_QUERIES)
    flights = flights_pandas(scramble)
    rows: List[Dict] = []
    for name in names:
        spec: QuerySpec = ALL_QUERIES[name]()
        truth = exact_decision(spec, flights)
        exact_res = run_query(
            scramble,
            spec,
            EngineConfig(bounder="exact", strategy="scan", round_rows=round_rows),
        )
        base = {
            "query": name,
            "exact_wall_s": exact_res.wall_seconds,
            "exact_blocks": exact_res.blocks_fetched,
        }
        rows.append(
            {
                **base,
                "approach": "Exact",
                "wall_s": exact_res.wall_seconds,
                "blocks": exact_res.blocks_fetched,
                "rows_scanned": exact_res.rows_scanned,
                "speedup_wall": 1.0,
                "speedup_blocks": 1.0,
                "correct": decision_correct(spec, exact_res, truth),
            }
        )
        for label, bounder, rt in BOUNDER_CONFIGS:
            res = run_query(
                scramble,
                spec,
                EngineConfig(bounder=bounder, range_trim=rt, round_rows=round_rows),
            )
            rows.append(
                {
                    **base,
                    "approach": label,
                    "wall_s": res.wall_seconds,
                    "blocks": res.blocks_fetched,
                    "rows_scanned": res.rows_scanned,
                    "speedup_wall": exact_res.wall_seconds / max(res.wall_seconds, 1e-9),
                    "speedup_blocks": exact_res.blocks_fetched / max(res.blocks_fetched, 1),
                    "correct": decision_correct(spec, res, truth),
                }
            )
    return pd.DataFrame(rows)


def format_table5(df: pd.DataFrame) -> str:
    """Paper-style rows: speedup over Exact (raw time) per bounder."""
    out = [
        "Table 5 — speedup over Exact per error bounder "
        "(wall x | blocks x, raw seconds in parens)"
    ]
    labels = [lbl for lbl, _, _ in BOUNDER_CONFIGS]
    header = f"{'Query':<7} {'Exact (s)':>10} " + "".join(
        f"{lbl:>26}" for lbl in labels
    )
    out.append(header)
    for q, sub in df.groupby("query", sort=False):
        exact_s = sub["exact_wall_s"].iloc[0]
        cells = []
        for lbl in labels:
            r = sub[sub["approach"] == lbl].iloc[0]
            flag = "" if r["correct"] else " WRONG"
            cells.append(
                f"{r['speedup_wall']:>8.2f}x|{r['speedup_blocks']:>7.2f}x"
                f" ({r['wall_s']:.3f}){flag}"
            )
        out.append(f"{q:<7} {exact_s:>10.3f} " + " ".join(f"{c:>26}" for c in cells))
    n_wrong = int((~df["correct"]).sum())
    out.append(f"correctness: {len(df) - n_wrong}/{len(df)} runs matched ground truth")
    return "\n".join(out)
