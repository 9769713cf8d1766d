"""The FastFrame scan engine (paper Sections 4.2-4.3).

Query execution is a sequence of *rounds*. Each round picks the next
batch of blocks according to the sampling strategy, folds their
per-group statistics into the running state, recomputes per-group
confidence intervals with the OptStop-decayed budget, and evaluates the
query's stopping condition over the running intersection of intervals.

Strategies (paper §5.2):

* ``scan``        — sequential scan of the scramble (predicate-driven
                    block skipping allowed, no group-driven skipping);
* ``active_sync`` — active scanning with per-block synchronous bitmap
                    probes (one index gather per block — the cache-miss
                    analog);
* ``active_peek`` — active scanning with 1024-block lookahead batches:
                    one vectorized probe per batch (the paper's async
                    lookahead, which amortizes probe cost).

Per-query prep (:func:`prepare`: per-(block, group) statistics, bitmap
matrices, group domains) reads only the scramble's driver-side Arrow
copy, pulled from Spark once per scramble, and runs in NumPy: predicate
masks through the bitmap's value codes, then one ``np.unique`` over the
(block, group) cells and ``bincount`` / ``minimum.at`` / ``maximum.at``
for the statistics. It is prepared once per query signature, cached on
the Scramble, and timed separately (``prep_seconds``) since it is
bounder/strategy-independent. The round loop itself is pure NumPy whose
work is proportional to blocks fetched — the same cost structure as the
paper's in-memory engine, and the loop wall-clock is what the
experiment harnesses report. Its fetch step (:class:`_Fetch`) is shared
with :func:`repro.fastframe.count_sum_query.run_count_sum`, which drives
it under Scan with every block eligible.

Confidence budget chain (all documented in DESIGN.md): per-query
``delta`` is divided by the group-domain size ``G`` (number of
aggregate views), decayed per round by ``(6/pi^2)/k^2`` (OptStop), and
split ``(1-alpha)`` for the Theorem-3 ``N+`` event with the remaining
``alpha`` fed to the bounder (``/2`` per side inside the CI).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core import vectorized
from repro.core.count_sum import ALPHA, n_plus
from repro.core.optstop import RunningIntersection, round_delta
from repro.core.stopping import Threshold, TopK
from repro.fastframe.bitmap import (
    get_column_bitmap,
    group_bitmap_matrix,
    group_index,
)
from repro.fastframe.queries import Eq, QuerySpec
from repro.fastframe.scramble import Scramble

LOOKAHEAD_BLOCKS = 1024  # paper §4.3: lookahead batch of 1024 blocks


@dataclass
class EngineConfig:
    """Knobs of one engine run (paper defaults)."""

    bounder: str = "bernstein"  # hoeffding | bernstein | exact
    range_trim: bool = True
    strategy: str = "active_peek"  # scan | active_sync | active_peek
    delta: float = 1e-15
    round_rows: int = 40_000  # paper §4.2: bounds recomputed every 40000 rows
    start_block: int = 0

    def label(self) -> str:
        if self.bounder == "exact":
            return "Exact"
        base = {"hoeffding": "Hoeffding", "bernstein": "Bernstein"}[self.bounder]
        return base + ("+RT" if self.range_trim else "")


@dataclass
class Prep:
    """Bounder/strategy-independent per-query artifacts."""

    groups: List[Tuple]
    gmatrix: np.ndarray  # bool [G, B] — group presence per block
    static_mask: np.ndarray  # bool [B] — predicate-eligible blocks
    blk: np.ndarray  # per stat-row block id (sorted)
    offsets: np.ndarray  # CSR [B+1]: block i's stat rows are offsets[i]:offsets[i+1]
    gid: np.ndarray  # per stat-row group index
    cnt: np.ndarray
    tot: np.ndarray
    sq: np.ndarray
    mn: np.ndarray
    mx: np.ndarray
    a: float
    b: float
    prep_seconds: float


@dataclass
class QueryResult:
    """Outcome + cost accounting of one engine run."""

    query: str
    label: str
    strategy: str
    groups: List[Tuple]
    est: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    decision: object
    blocks_fetched: int
    rows_scanned: int
    rounds: int
    wall_seconds: float
    prep_seconds: float
    index_probes: int
    exhausted_all: bool

    def per_group(self) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "group": [g if len(g) != 1 else g[0] for g in self.groups],
                "m": self.m,
                "est": self.est,
                "lo": self.lo,
                "hi": self.hi,
            }
        )


def prepare(scramble: Scramble, spec: QuerySpec) -> Prep:
    """Block stats + bitmaps in NumPy, cached per query signature.

    Reads the scramble's driver-side Arrow copy only. Stat rows are one
    per (block, group) holding a row that passes the predicate and has a
    non-null measure, in (block, group) order; a null measure is skipped
    (SQL ``COUNT(v)`` / ``SUM(v)``), a null group or predicate value
    raises ``ValueError``.
    """
    key = ("prep", spec.signature())
    if key in scramble.prep_cache:
        return scramble.prep_cache[key]
    t0 = time.perf_counter()

    a, b = scramble.catalog.bounds(spec.agg_col)
    B = scramble.n_blocks

    if spec.group_cols:
        groups, gmatrix = group_bitmap_matrix(scramble, spec.group_cols)
        row_gid = group_index(scramble, spec.group_cols)[1]
    else:
        groups = [()]
        gmatrix = np.ones((1, B), dtype=bool)
        row_gid = np.zeros(scramble.n_rows, dtype=np.int64)

    measure = scramble.table().column(spec.agg_col).combine_chunks()
    keep = measure.is_valid().to_numpy(zero_copy_only=False)
    static = np.ones(B, dtype=bool)
    for p in spec.predicate:
        if isinstance(p, Eq):
            bm = get_column_bitmap(scramble, p.col)
            static &= bm.row(p.value)
            keep &= bm.codes == bm.code(p.value)
        else:  # Gt: not indexable, a row filter only
            keep &= scramble.column(p.col).to_numpy() > p.value

    G = len(groups)
    v = measure.to_numpy(zero_copy_only=False)[keep].astype(np.float64, copy=False)
    cell = scramble.column("block_id").to_numpy()[keep] * G + row_gid[keep]
    cells, inv = np.unique(cell, return_inverse=True)
    n = cells.size
    mn = np.full(n, np.inf)
    mx = np.full(n, -np.inf)
    np.minimum.at(mn, inv, v)
    np.maximum.at(mx, inv, v)
    blk = cells // G
    prep = Prep(
        groups=groups,
        gmatrix=gmatrix,
        static_mask=static,
        blk=blk,
        offsets=np.searchsorted(blk, np.arange(B + 1)),
        gid=cells % G,
        cnt=np.bincount(inv, minlength=n).astype(np.float64),
        tot=np.bincount(inv, weights=v, minlength=n),
        sq=np.bincount(inv, weights=v * v, minlength=n),
        mn=mn,
        mx=mx,
        a=float(a),
        b=float(b),
        prep_seconds=time.perf_counter() - t0,
    )
    scramble.prep_cache[key] = prep
    return prep


class _BlockPicker:
    """Chooses the next blocks to fetch, per sampling strategy.

    Visit order starts at ``start_block`` and wraps (the paper starts
    each approximate query at a random scramble position). The walk
    resumes from a persistent frontier; cycling naturally revisits
    blocks skipped earlier if their groups become active again, which
    guarantees every eligible block is eventually fetched (termination
    with exact results in the worst case).
    """

    def __init__(self, n_blocks: int, start_block: int):
        self.n = n_blocks
        self.order = (np.arange(n_blocks, dtype=np.int64) + start_block) % n_blocks
        self.frontier = 0
        self.probes = 0

    def _walk(self, fetched, eligible, k_blocks, gmatrix=None, active_idx=None):
        """Take up to ``k_blocks`` unread eligible blocks in visit order,
        ``LOOKAHEAD_BLOCKS`` at a time. With ``active_idx`` set, a block
        is taken only if one of those groups is present in it: one
        vectorized probe per batch, the async-lookahead analog."""
        picked: list = []
        n_picked = 0
        i = 0
        while i < self.n:
            size = min(LOOKAHEAD_BLOCKS, self.n - i)
            blocks = self.order[(self.frontier + i + np.arange(size)) % self.n]
            cand = np.flatnonzero(~fetched[blocks] & eligible[blocks])
            if active_idx is not None and cand.size:
                hit_mask = gmatrix[np.ix_(active_idx, blocks[cand])].any(axis=0)
                self.probes += int(active_idx.size * cand.size)
                cand = cand[hit_mask]
            take = cand[: k_blocks - n_picked]
            picked.append(blocks[take])
            n_picked += take.size
            if take.size and take.size < cand.size:
                # The quota filled mid-batch: stop just past the last block
                # taken so no eligible block is silently skipped.
                i += int(take[-1]) + 1
                break
            i += size
            if n_picked >= k_blocks:
                break
        self.frontier = (self.frontier + i) % self.n
        return np.concatenate(picked)

    def pick_scan(self, fetched, static, k_blocks) -> np.ndarray:
        return self._walk(fetched, static, k_blocks)

    def pick_active_peek(self, fetched, static, gmatrix, active_idx, k_blocks):
        return self._walk(fetched, static, k_blocks, gmatrix, active_idx)

    def pick_active_sync(self, fetched, static, gmatrix, active_idx, k_blocks):
        picked: list = []
        i = 0
        while len(picked) < k_blocks and i < self.n:
            b = int(self.order[(self.frontier + i) % self.n])
            i += 1
            if fetched[b] or not static[b]:
                continue
            # One gather per block: each probe is its own (cache-missing)
            # index query, the behavior ActivePeek amortizes away.
            col = gmatrix[active_idx, b]
            self.probes += int(active_idx.size)
            if col.any():
                picked.append(b)
        self.frontier = (self.frontier + i) % self.n
        return np.array(picked, dtype=np.int64)


def _gather(offsets: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Stat-row indices of the ``picked`` blocks, in picked-block order:
    ``concatenate([arange(offsets[b], offsets[b+1]) for b in picked])``
    without a per-block loop."""
    starts = offsets[picked]
    lens = offsets[picked + 1] - starts
    ends = np.cumsum(lens)
    # Row j of block k sits at starts[k] + (j - ends[k] + lens[k]).
    return np.arange(lens.sum()) - np.repeat(ends - lens - starts, lens)


class _Fetch:
    """One query's scan state and its fetch step, shared by AVG and COUNT/SUM.

    Owns the block picker, the read and eligible block masks, the
    per-group running statistics (m, Σv, Σv², min, max), the cost
    counters and the per-group count of eligible blocks still unread.
    """

    def __init__(self, scramble: Scramble, prep: Prep, eligible: np.ndarray,
                 start_block: int, round_rows: int, delta: float):
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        G = len(prep.groups)
        B = scramble.n_blocks
        self.prep = prep
        self.eligible = eligible
        self.rows_per_block = scramble.rows_per_block
        self.round_blocks = max(1, math.ceil(round_rows / scramble.block_size))
        self.picker = _BlockPicker(B, start_block % B)
        self.fetched = np.zeros(B, dtype=bool)
        self.m = np.zeros(G, dtype=np.float64)
        self.tot = np.zeros(G, dtype=np.float64)
        self.sq = np.zeros(G, dtype=np.float64)
        self.mn = np.full(G, np.inf)
        self.mx = np.full(G, -np.inf)
        self.blocks_fetched = 0
        self.rows_scanned = 0
        self.remaining = (prep.gmatrix & eligible).sum(axis=1).astype(np.int64)

    def step(self, strategy: str, active_idx: Optional[np.ndarray] = None) -> bool:
        """Pick one round of blocks and fold in their statistics.

        Returns False, having read nothing, once no eligible block is
        left to pick."""
        p, picker = self.prep, self.picker
        if strategy == "scan":
            picked = picker.pick_scan(self.fetched, self.eligible, self.round_blocks)
        elif strategy in ("active_peek", "active_sync"):
            pick = (picker.pick_active_peek if strategy == "active_peek"
                    else picker.pick_active_sync)
            picked = pick(
                self.fetched, self.eligible, p.gmatrix, active_idx, self.round_blocks
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        if picked.size == 0:
            return False
        self.fetched[picked] = True
        self.blocks_fetched += int(picked.size)
        self.rows_scanned += int(self.rows_per_block[picked].sum())
        self.remaining -= p.gmatrix[:, picked].sum(axis=1)
        sel = _gather(p.offsets, picked)
        g, G = p.gid[sel], self.m.size
        self.m += np.bincount(g, weights=p.cnt[sel], minlength=G)
        self.tot += np.bincount(g, weights=p.tot[sel], minlength=G)
        self.sq += np.bincount(g, weights=p.sq[sel], minlength=G)
        np.minimum.at(self.mn, g, p.mn[sel])
        np.maximum.at(self.mx, g, p.mx[sel])
        return True


def run_query(
    scramble: Scramble, spec: QuerySpec, config: Optional[EngineConfig] = None
) -> QueryResult:
    """Execute one approximate (or exact) query through the scan engine."""
    config = config or EngineConfig()
    prep = prepare(scramble, spec)
    G = len(prep.groups)
    R = scramble.n_rows
    exact_mode = config.bounder == "exact"
    delta_group = config.delta / max(1, G)
    fetch = _Fetch(scramble, prep, prep.static_mask, config.start_block,
                   config.round_rows, config.delta)
    m, tot = fetch.m, fetch.tot

    inter = RunningIntersection(G, prep.a, prep.b)
    active = np.ones(G, dtype=bool)
    k_round = 0
    exhausted_all = False
    est = np.full(G, 0.5 * (prep.a + prep.b))
    lo = np.full(G, prep.a)
    hi = np.full(G, prep.b)
    exhausted = np.zeros(G, dtype=bool)

    t0 = time.perf_counter()
    while True:
        k_round += 1
        if exact_mode or config.strategy == "scan":
            exhausted_all = not fetch.step("scan")
        else:
            active_idx = np.flatnonzero(active)
            if active_idx.size == 0:
                exhausted_all = True
                break
            exhausted_all = not fetch.step(config.strategy, active_idx)

        if exact_mode:
            if exhausted_all:
                break
            continue

        # Per-group view-size upper bound N+ (Theorem 3) and CIs with the
        # OptStop round budget (Algorithm 5 / Theorem 4).
        delta_k = round_delta(delta_group, k_round)
        r_eff = max(1, fetch.rows_scanned)
        Nplus = n_plus(m, r_eff, R, delta_k)
        Nplus = np.maximum(Nplus, m)  # guard: a legal size is >= the sample
        lo_k, hi_k = vectorized.ci(
            config.bounder,
            m,
            tot,
            fetch.sq,
            fetch.mn,
            fetch.mx,
            prep.a,
            prep.b,
            Nplus,
            ALPHA * delta_k,
            config.range_trim,
        )
        inter.update(lo_k, hi_k)

        exhausted = fetch.remaining <= 0

        est = np.where(m > 0, tot / np.maximum(m, 1.0), 0.5 * (prep.a + prep.b))
        lo, hi = inter.lo.copy(), inter.hi.copy()
        # A fully-read view is known exactly — collapse its interval.
        done_exact = exhausted & (m > 0)
        lo[done_exact] = est[done_exact]
        hi[done_exact] = est[done_exact]

        # Views that turn out to be empty once their blocks are all read
        # contribute no output row; they are dropped from the stopping
        # evaluation entirely (their wide [a, b] intervals would
        # otherwise block separation-style conditions forever).
        dead = exhausted & (m == 0)
        live = np.flatnonzero(~dead)
        verdict = spec.stopping.evaluate(
            est[live], lo[live], hi[live], m[live], exhausted[live]
        )
        active = np.zeros(G, dtype=bool)
        active[live] = verdict.active
        if verdict.done or exhausted_all:
            exhausted_all = exhausted_all or bool(exhausted.all())
            break

    if exact_mode:
        est = np.where(m > 0, tot / np.maximum(m, 1.0), np.nan)
        lo = est.copy()
        hi = est.copy()
        exhausted = np.ones(G, dtype=bool)

    wall = time.perf_counter() - t0

    alive = m > 0
    decision = _decide(spec, prep.groups, est, lo, hi, alive)
    return QueryResult(
        query=spec.name,
        label=config.label(),
        strategy="scan" if exact_mode else config.strategy,
        groups=[g for g, al in zip(prep.groups, alive) if al],
        est=est[alive],
        lo=lo[alive],
        hi=hi[alive],
        m=m[alive],
        decision=decision,
        blocks_fetched=fetch.blocks_fetched,
        rows_scanned=fetch.rows_scanned,
        rounds=k_round,
        wall_seconds=wall,
        prep_seconds=prep.prep_seconds,
        index_probes=fetch.picker.probes,
        exhausted_all=exhausted_all,
    )


def _decide(spec: QuerySpec, groups, est, lo, hi, alive):
    """Read the query's decision off the per-group intervals."""
    est_a, lo_a, hi_a = est[alive], lo[alive], hi[alive]
    groups_a = [g for g, al in zip(groups, alive) if al]
    names = [g if len(g) != 1 else g[0] for g in groups_a]

    kind = spec.result_kind
    if kind == "avg_ci":
        if not names:
            return None
        return {"avg": float(est_a[0]), "lo": float(lo_a[0]), "hi": float(hi_a[0])}
    if kind in ("having_above", "having_below"):
        cond: Threshold = spec.stopping
        above = cond.decide_above(est_a, lo_a, hi_a)
        keep = above if kind == "having_above" else ~above
        return sorted(n for n, k in zip(names, keep) if k)
    if kind == "case_gt":
        cond = spec.stopping
        if not names:
            return 0
        above = cond.decide_above(est_a, lo_a, hi_a)
        return int(bool(above[0]))
    if kind == "topk":
        cond: TopK = spec.stopping
        sel = cond.select(est_a)
        return [names[i] for i in sel]
    if kind == "ordered":
        order = np.argsort(est_a, kind="stable")
        return [
            (names[i], float(est_a[i]), float(lo_a[i]), float(hi_a[i]))
            for i in order
        ]
    raise ValueError(f"unknown result kind {kind!r}")
