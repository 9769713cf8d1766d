"""Block-based bitmap indexes over categorical attributes (paper §4).

For a categorical column, the index records for every (value, block)
pair whether the block contains at least one row with that value —
exactly the information FastFrame's active scanning needs to decide
whether a block can contribute tuples to an active group. Built in
NumPy from the scramble's driver-side Arrow copy
(:meth:`~repro.fastframe.scramble.Scramble.table`): the column is
dictionary-encoded once, with the dictionary sorted so that a value's
code is its rank, and the dense boolean matrix ``[n_values, n_blocks]``
is set at ``(code, block_id)`` of every row (tens of MB at benchmark
scale). The per-row codes are kept with the bitmap; the engine's
predicate masks and group ids are read off them.

Composite GROUP BY keys (e.g. F-q6's ``DayOfWeek, Origin``) use the
conjunction of the per-column bitmaps — a superset of the blocks that
contain the exact pair, which is what a real per-column bitmap index
gives you (occasional false-positive block fetches, never false
negatives).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import pyarrow.compute as pc

from repro.fastframe.scramble import Scramble


@dataclass
class ColumnBitmap:
    """Presence bitmap of each distinct value of one column, per block."""

    column: str
    values: List  # sorted distinct values
    matrix: np.ndarray  # bool [n_values, n_blocks]
    codes: np.ndarray  # int [n_rows]: each row's index into ``values``

    def code(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise KeyError(
                f"value {value!r} not present in column {self.column!r}"
            ) from None

    def row(self, value) -> np.ndarray:
        return self.matrix[self.code(value)]


def build_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """Rank-code the column once, then ``matrix[codes, block_id] = True``."""
    enc = scramble.column(column).dictionary_encode()
    order = pc.array_sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size)
    codes = rank[enc.indices.to_numpy()]
    matrix = np.zeros((order.size, scramble.n_blocks), dtype=bool)
    matrix[codes, scramble.column("block_id").to_numpy()] = True
    values = enc.dictionary.take(order).to_pylist()
    return ColumnBitmap(column=column, values=values, matrix=matrix, codes=codes)


def get_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """Cached accessor — the index is built once per scramble."""
    key = ("bitmap", column)
    if key not in scramble.prep_cache:
        scramble.prep_cache[key] = build_column_bitmap(scramble, column)
    return scramble.prep_cache[key]


def group_index(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray]:
    """Sorted distinct group keys and each row's index into them (cached).

    The per-column codes are ranks, so ordering the keys' flat
    (row-major) codes orders the key tuples lexicographically.
    """
    key = ("group_index", tuple(group_cols))
    if key not in scramble.prep_cache:
        bms = [get_column_bitmap(scramble, c) for c in group_cols]
        dims = [len(bm.values) for bm in bms]
        flat = np.ravel_multi_index([bm.codes for bm in bms], dims)
        keys, gid = np.unique(flat, return_inverse=True)
        cols = [
            [bm.values[i] for i in idx]
            for bm, idx in zip(bms, np.unravel_index(keys, dims))
        ]
        scramble.prep_cache[key] = (list(zip(*cols)), gid)
    return scramble.prep_cache[key]


def group_domain(scramble: Scramble, group_cols: Sequence[str]) -> List[Tuple]:
    """Distinct group keys present in the (unfiltered) relation.

    This is the "number of aggregate views (or an upper bound)" that the
    per-query confidence budget is divided by, and the row universe of
    the per-group bitmap matrix.
    """
    return group_index(scramble, group_cols)[0]


def group_bitmap_matrix(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray]:
    """Per-group presence matrix [n_groups, n_blocks].

    Single columns use the column bitmap directly; composite keys AND
    the per-column bitmaps (conservative superset, see module doc).
    """
    key = ("group_matrix", tuple(group_cols))
    if key in scramble.prep_cache:
        return scramble.prep_cache[key]
    domain = group_domain(scramble, group_cols)
    matrix = np.ones((len(domain), scramble.n_blocks), dtype=bool)
    for j, c in enumerate(group_cols):
        bm = get_column_bitmap(scramble, c)
        matrix &= bm.matrix[[bm.code(g[j]) for g in domain]]
    scramble.prep_cache[key] = (domain, matrix)
    return domain, matrix
