"""Engine-level COUNT and SUM queries (paper §4.1).

A single-view scan that drives the engine's shared fetch step
(:class:`repro.fastframe.engine._Fetch`) under the plain ``Scan``
strategy with every block eligible — no predicate- or group-driven
skipping, so the Lemma-5 selectivity estimate stays unbiased (see
:mod:`repro.core.count_sum`) — computing per round:

* a COUNT CI from the selectivity CI times the scramble size, and
* for SUM, the product-combination of a ``(1-delta/2)`` COUNT CI and a
  ``(1-delta/2)`` AVG CI (union bound, paper §4.1).

Rounds follow the OptStop schedule so the scan may terminate as soon as
the requested absolute/relative width is reached.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import vectorized
from repro.core.count_sum import ALPHA, count_ci, n_plus, sum_ci
from repro.core.optstop import round_delta
from repro.fastframe.engine import _Fetch, prepare
from repro.fastframe.queries import QuerySpec
from repro.fastframe.scramble import Scramble


@dataclass
class ScalarResult:
    """Outcome of a COUNT or SUM query over one aggregate view."""

    agg: str
    estimate: float
    lo: float
    hi: float
    m: int
    rows_scanned: int
    blocks_fetched: int
    rounds: int
    wall_seconds: float
    exhausted: bool


def run_count_sum(
    scramble: Scramble,
    spec: QuerySpec,
    agg: str,
    *,
    bounder: str = "bernstein",
    range_trim: bool = True,
    delta: float = 1e-15,
    round_rows: int = 40_000,
    rel_eps: Optional[float] = None,
    abs_eps: Optional[float] = None,
) -> ScalarResult:
    """Scan until the COUNT/SUM CI is tight enough (or data exhausted).

    ``spec`` supplies the predicate and measure column; its group columns
    must be empty (one aggregate view). Stop when the interval's relative
    (``rel_eps``) or absolute (``abs_eps``) width target is met; with
    neither set, scans to exhaustion and returns the exact value.
    """
    if agg not in ("COUNT", "SUM"):
        raise ValueError(f"agg must be COUNT or SUM, got {agg!r}")
    if spec.group_cols:
        raise ValueError("COUNT/SUM path supports single-view queries only")

    prep = prepare(scramble, spec)
    R = scramble.n_rows
    # Plain Scan over ALL blocks: no predicate-bitmap skipping either,
    # otherwise the scanned rows are biased toward matching blocks and
    # the selectivity CI (hence the COUNT lower bound) would break.
    all_blocks = np.ones(scramble.n_blocks, dtype=bool)
    fetch = _Fetch(scramble, prep, all_blocks, 0, round_rows, delta)

    k = 0
    t0 = time.perf_counter()
    while True:
        k += 1
        exhausted = not fetch.step("scan")
        m, tot, sq = float(fetch.m[0]), float(fetch.tot[0]), float(fetch.sq[0])
        vmin, vmax = float(fetch.mn[0]), float(fetch.mx[0])
        r = fetch.rows_scanned

        delta_k = round_delta(delta, k)
        if exhausted:
            est = m if agg == "COUNT" else tot
            lo = hi = est
        elif agg == "COUNT":
            c_lo, c_hi = count_ci(m, max(r, 1), R, delta_k)
            lo, hi = float(c_lo), float(c_hi)
            est = m / max(r, 1) * R
        else:  # SUM
            c_lo, c_hi = count_ci(m, max(r, 1), R, delta_k / 2.0)
            Nplus = max(float(n_plus(m, max(r, 1), R, delta_k / 2.0)), m, 1.0)
            a_lo, a_hi = vectorized.ci(
                bounder,
                m,
                tot,
                sq,
                vmin,
                vmax,
                prep.a,
                prep.b,
                Nplus,
                ALPHA * delta_k / 2.0,
                range_trim,
            )
            s_lo, s_hi = sum_ci(a_lo, a_hi, c_lo, c_hi)
            lo, hi = float(s_lo), float(s_hi)
            est = (tot / m * (m / max(r, 1) * R)) if m else 0.0

        width = hi - lo
        done = exhausted
        if abs_eps is not None and width < abs_eps:
            done = True
        if rel_eps is not None and width < rel_eps * max(abs(est), 1e-12):
            done = True
        if done:
            break

    return ScalarResult(
        agg=agg,
        estimate=float(est),
        lo=float(lo),
        hi=float(hi),
        m=int(m),
        rows_scanned=r,
        blocks_fetched=fetch.blocks_fetched,
        rounds=k,
        wall_seconds=time.perf_counter() - t0,
        exhausted=exhausted,
    )
