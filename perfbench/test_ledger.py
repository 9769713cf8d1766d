"""The work ledger is deterministic: two runs give identical ledgers.

Runs the benchmark twice per workload at a tiny scale factor and
compares the per-call ledgers (blocks, rounds, rows, index probes) and
``blocks_fetched``. Each run starts its own Spark JVM, so the module
takes a few minutes::

    python3 -m pytest perfbench/test_ledger.py -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
TINY_SF = "0.002"  # 12 000 rows, 480 blocks


def _run(workload: str, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--sf", TINY_SF, "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    report = json.loads((out / f"{workload}-seed3-trace0.json").read_text())
    return {"result": result, "report": report}


@pytest.mark.parametrize("workload", ["warm_ablation", "count_sum_scan"])
def test_two_runs_same_ledger(workload, tmp_path):
    first = _run(workload, tmp_path / "a")
    second = _run(workload, tmp_path / "b")
    assert first["report"]["ledger"] == second["report"]["ledger"]
    assert all("blocks" in row for row in first["report"]["ledger"])
    blocks = [r["result"]["metrics"]["blocks_fetched"]["value"] for r in (first, second)]
    assert blocks[0] == blocks[1] > 0
