"""Scramble construction (paper Definition 4).

A scramble is a randomly permuted copy of a relation, laid out in
fixed-size blocks (the paper uses 25 rows/block), so that a sequential
scan — or any adaptively chosen subset of blocks — yields a uniform
without-replacement sample of every aggregate view. The one-time
shuffle cost is paid offline and amortized over all subsequent queries.

Built entirely with the DataFrame API: ``rand(seed)`` ordering, a
window ``row_number`` for positions, and integer division for block
ids. The resulting DataFrame is cached. FastFrame itself is a
single-node in-memory column store (paper §4): :meth:`Scramble.table`
pulls the scramble to the driver once, as one Arrow table, and every
per-query artifact (bitmaps, block statistics, the ground-truth frame)
is built from that copy in NumPy and cached on the Scramble keyed by
query signature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.fastframe.catalog import Catalog, build_catalog

DEFAULT_BLOCK_SIZE = 25  # paper §4.3: "we set the block size to 25 rows"


@dataclass
class Scramble:
    """A shuffled, block-addressed copy of a relation plus its catalog."""

    df: DataFrame
    n_rows: int
    block_size: int
    n_blocks: int
    catalog: Catalog
    seed: int
    #: per-query-prep cache: signature -> prepared artifacts (engine-owned)
    prep_cache: Dict[Any, Any] = field(default_factory=dict)

    def rows_in_block(self, block_id: int) -> int:
        if block_id < self.n_blocks - 1:
            return self.block_size
        return self.n_rows - self.block_size * (self.n_blocks - 1)

    @property
    def rows_per_block(self) -> np.ndarray:
        out = np.full(self.n_blocks, self.block_size, dtype=np.int64)
        out[-1] = self.rows_in_block(self.n_blocks - 1)
        return out

    def table(self) -> pa.Table:
        """The scramble's rows on the driver as one Arrow table.

        One Spark job (``toArrow``) per scramble, cached in
        ``prep_cache``: the only Spark work per-query prep does."""
        key = ("arrow",)
        if key not in self.prep_cache:
            self.prep_cache[key] = self.df.toArrow().combine_chunks()
        return self.prep_cache[key]

    def column(self, name: str) -> pa.Array:
        """A column of :meth:`table` that may hold no nulls: block ids,
        group columns and predicate columns."""
        col = self.table().column(name).combine_chunks()
        if col.null_count:
            raise ValueError(
                f"column {name!r} has {col.null_count} null value(s); "
                "group and predicate columns must have none"
            )
        return col


def build_scramble(
    df: DataFrame,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> Scramble:
    """Shuffle ``df`` into a block-addressed scramble (Definition 4)."""
    catalog = build_catalog(df)
    n_rows = catalog.n_rows
    if n_rows == 0:
        raise ValueError("cannot scramble an empty relation")
    # rand(seed) is deterministic per row ordering of the source plan; the
    # row_number window fixes a total order. Ties in rand() are broken
    # arbitrarily but deterministically for a cached source.
    w = Window.orderBy(F.col("_shuffle_key"))
    scrambled = (
        df.withColumn("_shuffle_key", F.rand(seed))
        .withColumn("row_id", F.row_number().over(w) - F.lit(1))
        .drop("_shuffle_key")
        .withColumn(
            "block_id", (F.col("row_id") / F.lit(block_size)).cast("long")
        )
        .persist()
    )
    scrambled.count()  # materialize so later scans reuse the cache
    return Scramble(
        df=scrambled,
        n_rows=n_rows,
        block_size=block_size,
        n_blocks=math.ceil(n_rows / block_size),
        catalog=catalog,
        seed=seed,
    )
