"""Tests for query specs (Figure 5 / Table 4) and their SQL renderings."""
from __future__ import annotations

import duckdb
import pytest

from repro.core.stopping import Ordered, RelWidth, Threshold, TopK
from repro.fastframe import queries as Q
from repro.fastframe.engine import prepare


def test_all_nine_queries_defined():
    assert set(Q.ALL_QUERIES) == {f"F-q{i}" for i in range(1, 10)}


#: paper Table 4: query -> stopping condition number
TABLE4 = {
    "F-q1": 3,
    "F-q2": 4,
    "F-q3": 5,
    "F-q4": 4,
    "F-q5": 4,
    "F-q6": 5,
    "F-q7": 6,
    "F-q8": 5,
    "F-q9": 5,
}


@pytest.mark.parametrize("name,number", sorted(TABLE4.items()))
def test_stopping_condition_numbers_match_table4(name, number):
    assert Q.ALL_QUERIES[name]().stopping.number == number


def test_fq1_defaults():
    spec = Q.fq1()
    assert isinstance(spec.stopping, RelWidth)
    assert spec.predicate == (Q.Eq("Origin", "ORD"),)
    assert spec.params["eps"] == 0.5


def test_fq2_threshold_param():
    spec = Q.fq2(thresh=5.0)
    assert isinstance(spec.stopping, Threshold) and spec.stopping.v == 5.0
    assert spec.result_kind == "having_above"


def test_fq3_bottom_2():
    spec = Q.fq3()
    assert isinstance(spec.stopping, TopK)
    assert spec.stopping.k == 2 and not spec.stopping.largest
    assert spec.predicate == (Q.Gt("DepTime", 1370),)


def test_fq5_having_below_zero():
    spec = Q.fq5()
    assert spec.stopping.v == 0.0 and spec.result_kind == "having_below"


def test_fq6_pair_grouping_and_afternoon_filter():
    spec = Q.fq6()
    assert spec.group_cols == ("DayOfWeek", "Origin")
    assert spec.predicate == (Q.Gt("DepTime", 830),)  # 1:50pm
    assert spec.stopping.k == 5 and spec.stopping.largest


def test_fq7_ordered_hp():
    spec = Q.fq7()
    assert isinstance(spec.stopping, Ordered)
    assert spec.predicate == (Q.Eq("Airline", "HP"),)


@pytest.mark.parametrize("factory", [Q.fq8, Q.fq9])
def test_top1_queries(factory):
    spec = factory()
    assert spec.stopping.k == 1 and spec.stopping.largest


def test_predicate_sql_rendering():
    assert Q.Eq("Origin", "ORD").to_sql() == "Origin = 'ORD'"
    assert Q.Eq("DayOfWeek", 3).to_sql() == "DayOfWeek = 3"
    assert Q.Gt("DepTime", 830).to_sql() == "DepTime > 830"


def test_predicate_mask_matches_spark_filter(scramble):
    """The NumPy predicate mask keeps exactly the rows Spark's filter of
    the SQL rendering does (Eq on Origin, Gt on DepTime, Eq on Airline)."""
    for spec in (Q.fq1(airport="ORD"), Q.fq3(), Q.fq7()):
        n = scramble.df.filter(spec.predicate_sql().removeprefix(" WHERE ")).count()
        assert prepare(scramble, spec).cnt.sum() == n, spec.name


@pytest.mark.parametrize("name", sorted(Q.ALL_QUERIES))
def test_exact_sql_runs_on_duckdb(name, flights_pdf):
    spec = Q.ALL_QUERIES[name]()
    con = duckdb.connect()
    try:
        con.register("flights", flights_pdf)
        out = con.execute(spec.exact_sql()).fetchdf()
    finally:
        con.close()
    assert out is not None


def test_signature_excludes_stopping():
    """Prep cache keys must be shared across bounders and thresholds."""
    assert Q.fq2(thresh=0.0).signature() == Q.fq2(thresh=9.0).signature()
    assert Q.fq1("ORD", 0.5).signature() == Q.fq1("ORD", 0.1).signature()
    assert Q.fq1("ORD").signature() != Q.fq1("AAD").signature()
