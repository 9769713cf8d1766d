"""Per-query prep (``engine.prepare``) against an independent Spark oracle.

Prep runs in NumPy over the scramble's one Arrow pull. The oracle below
computes the same artifacts the relational way, with Spark: per-block
group statistics via ``groupBy("block_id", *group_cols).agg(...)``,
bitmaps and group domains via ``distinct``. Both sum each (block, group)
cell in the scramble's row order, so the statistics must agree exactly.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.fastframe import queries as Q
from repro.fastframe.engine import EngineConfig, prepare, run_query
from repro.fastframe.scramble import build_scramble

STAT_FIELDS = ("blk", "gid", "cnt", "tot", "sq", "mn", "mx")


# --- the Spark oracle -------------------------------------------------------

def spark_predicate(spec):
    """The query's conjunctive predicate as a Spark Column, or None."""
    cond = None
    for p in spec.predicate:
        c = F.col(p.col)
        term = c == F.lit(p.value) if isinstance(p, Q.Eq) else c > F.lit(p.value)
        cond = term if cond is None else cond & term
    return cond


def spark_bitmap(scramble, column):
    """Sorted distinct values and their [n_values, n_blocks] presence."""
    pdf = (
        scramble.df.select(F.col(column).alias("v"), "block_id")
        .distinct()
        .toPandas()
    )
    values = sorted(pdf["v"].unique().tolist())
    index = {v: i for i, v in enumerate(values)}
    matrix = np.zeros((len(values), scramble.n_blocks), dtype=bool)
    matrix[pdf["v"].map(index).to_numpy(), pdf["block_id"].to_numpy()] = True
    return values, matrix


def spark_prep(scramble, spec):
    """groups, gmatrix, static_mask and the stat rows, sorted by (block, gid)."""
    B = scramble.n_blocks
    if spec.group_cols:
        pdf = scramble.df.select(*spec.group_cols).distinct().toPandas()
        groups = sorted(tuple(r) for r in pdf.itertuples(index=False, name=None))
        gmatrix = np.ones((len(groups), B), dtype=bool)
        for j, c in enumerate(spec.group_cols):
            values, matrix = spark_bitmap(scramble, c)
            gmatrix &= matrix[[values.index(g[j]) for g in groups]]
    else:
        groups, gmatrix = [()], np.ones((1, B), dtype=bool)
    static = np.ones(B, dtype=bool)
    for p in spec.predicate:
        if isinstance(p, Q.Eq):
            values, matrix = spark_bitmap(scramble, p.col)
            static &= matrix[values.index(p.value)]

    df = scramble.df
    pred = spark_predicate(spec)
    if pred is not None:
        df = df.filter(pred)
    v = F.col(spec.agg_col)
    pdf = df.groupBy("block_id", *spec.group_cols).agg(
        F.count(v).alias("cnt"),
        F.sum(v).alias("tot"),
        F.sum(v * v).alias("sq"),
        F.min(v).alias("mn"),
        F.max(v).alias("mx"),
    ).toPandas()
    gindex = {g: i for i, g in enumerate(groups)}
    keys = zip(*(pdf[c].tolist() for c in spec.group_cols))
    pdf["gid"] = [gindex[k] for k in keys] if spec.group_cols else 0
    pdf = pdf.sort_values(["block_id", "gid"]).rename(columns={"block_id": "blk"})
    stats = {f: pdf[f].to_numpy(dtype=np.float64) for f in STAT_FIELDS[2:]}
    stats.update(blk=pdf["blk"].to_numpy(np.int64), gid=pdf["gid"].to_numpy(np.int64))
    return groups, gmatrix, static, stats


# --- NumPy prep == Spark oracle ---------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "F-q1",  # Eq on Origin, no grouping
        "F-q3",  # Gt on DepTime, grouped by Airline
        "F-q6",  # Gt, composite key (DayOfWeek, Origin)
        "F-q7",  # Eq on Airline, grouped by DayOfWeek
    ],
)
def test_prep_matches_spark_groupby(scramble, name):
    spec = Q.ALL_QUERIES[name]()
    prep = prepare(dataclasses.replace(scramble, prep_cache={}), spec)
    groups, gmatrix, static, stats = spark_prep(scramble, spec)
    assert prep.groups == groups
    assert np.array_equal(prep.gmatrix, gmatrix)
    assert np.array_equal(prep.static_mask, static)
    for f in STAT_FIELDS:
        got = getattr(prep, f)
        assert got.shape == stats[f].shape, f
        assert np.array_equal(got, stats[f]), f


def _spark_job_ids(sc, fn):
    """Ids of the Spark jobs ``fn()`` launches, read from the status tracker.

    The tracker is fed asynchronously, in event order, so a marker job
    run after ``fn`` in its own group is waited for: once the tracker
    shows the marker, it shows every job ``fn`` started.
    """
    group, marker = f"prep-{time.monotonic_ns()}", f"marker-{time.monotonic_ns()}"
    tracker = sc.statusTracker()
    try:
        sc.setJobGroup(group, "jobs under test")
        fn()
        sc.setJobGroup(marker, "status-tracker marker")
        sc.parallelize([0], 1).count()
    finally:
        for prop in ("spark.jobGroup.id", "spark.job.description"):
            sc.setLocalProperty(prop, None)
    deadline = time.monotonic() + 30
    while not tracker.getJobIdsForGroup(marker):
        assert time.monotonic() < deadline, "status tracker never saw the marker job"
        time.sleep(0.05)
    return tracker.getJobIdsForGroup(group)


def test_prep_of_all_queries_runs_one_spark_job(scramble):
    """Per-query prep reads only the scramble's one Arrow pull."""
    fresh = dataclasses.replace(scramble, prep_cache={})

    def prepare_all():
        for make in Q.ALL_QUERIES.values():
            prepare(fresh, make())

    assert len(_spark_job_ids(fresh.df.sparkSession.sparkContext, prepare_all)) == 1


# --- degenerate input: nulls ------------------------------------------------

_SCHEMA = "Origin string, Airline string, DepDelay double, DepTime long, DayOfWeek long"


def _tiny_scramble(spark, rows):
    return build_scramble(spark.createDataFrame(rows, _SCHEMA), block_size=2, seed=1)


def test_null_measure_is_skipped(spark):
    rows = [
        ("ORD", "HP", 10.0, 900, 1),
        ("ORD", "HP", None, 1000, 1),
        ("AAA", "HP", 4.0, 1100, 2),
        ("AAA", "WN", None, 1200, 2),
        ("ORD", "WN", -2.0, 1300, 3),
        ("AAA", "WN", 6.0, 1400, 3),
        ("ORD", "WN", None, 1500, 4),
    ]
    scr = _tiny_scramble(spark, rows)
    spec = Q.QuerySpec(name="nulls", stopping=Q.Ordered(), group_cols=("Airline",))
    prep = prepare(scr, spec)
    assert prep.groups == [("HP",), ("WN",)]
    _, _, _, stats = spark_prep(scr, spec)
    live = stats["cnt"] > 0  # Spark keeps an all-null cell with COUNT(v) = 0
    for f in STAT_FIELDS:
        assert np.array_equal(getattr(prep, f), stats[f][live]), f
    assert np.bincount(prep.gid, weights=prep.cnt).tolist() == [2.0, 2.0]
    assert np.bincount(prep.gid, weights=prep.tot).tolist() == [14.0, 4.0]
    res = run_query(scr, spec, EngineConfig(bounder="exact", strategy="scan"))
    assert res.est.tolist() == [7.0, 2.0]


@pytest.mark.parametrize(
    "spec,column",
    [
        (Q.QuerySpec(name="g", stopping=Q.Ordered(), group_cols=("Airline",)), "Airline"),
        (Q.QuerySpec(name="eq", stopping=Q.RelWidth(0.5),
                     predicate=(Q.Eq("Origin", "ORD"),)), "Origin"),
        (Q.QuerySpec(name="gt", stopping=Q.RelWidth(0.5),
                     predicate=(Q.Gt("DepTime", 1000),)), "DepTime"),
    ],
    ids=["group", "eq", "gt"],
)
def test_null_group_or_predicate_value_raises(spark, spec, column):
    rows = [
        ("ORD", "HP", 10.0, 900, 1),
        (None, "HP", 3.0, 1000, 1),
        ("AAA", None, 4.0, 1100, 2),
        ("ORD", "WN", 5.0, None, 2),
        ("AAA", "WN", 6.0, 1400, 3),
    ]
    scr = _tiny_scramble(spark, rows)
    with pytest.raises(ValueError, match=column):
        prepare(scr, spec)
    # Nulls in columns the query does not touch are harmless.
    by_day = Q.QuerySpec(name="d", stopping=Q.Ordered(), group_cols=("DayOfWeek",))
    assert prepare(scr, by_day).cnt.sum() == len(rows)
