"""Layered end-to-end benchmark of the FastFrame reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload warm_ablation --seed 7 --seconds 15 --trace 0

One run, in one driver process with one local Spark master:

1. three times: set up (start a SparkSession, generate FLIGHTS-lite with
   persist + count, build the catalog and the scramble), then run one
   cold pass of the workload's cold calls on that scramble, whose prep
   cache starts empty. ``setup_s`` and ``cold_pass_s`` are the medians; the
   first set-up also launches the JVM;
2. after each cold pass, a slice of timed passes over that scramble,
   prep warm, in a closed loop with one client; the slices add up to
   ``--seconds`` and only whole passes count;
3. after timing, every decision of every pass is checked against DuckDB
   ground truth, and every call must repeat the work (blocks, rounds,
   rows, index probes) of its first run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run that wraps each layer's functions (see ``tracing.py``) and prints
the per-layer metrics; its timed passes alternate traced and untraced,
which gives ``trace.overhead_ratio``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Details,
provenance, the work ledger and the spans go to ``.bench_out/``.

``--seed n`` generates the data with seed n and shuffles the scramble
with seed n + 1 (seed 7 gives the data and scramble behind ``results/``).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

DEFAULT_SF = 0.02  # 120 000 rows, 4 800 blocks
SETUP_REPS = 3
DRIVER_MEMORY = "2g"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["warm_ablation", "count_sum_scan"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sf", type=float, default=DEFAULT_SF)
    p.add_argument("--out", default=str(REPO / ".bench_out"))
    return p.parse_args(argv)


def configure_spark_env(out: Path, cores: int) -> dict:
    """Spark and temp files stay inside ``out``; returns the settings."""
    for sub in ("spark-local", "tmp", "warehouse"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(out / "tmp")
    tempfile.tempdir = str(out / "tmp")
    # SPARK_LOCAL_DIRS overrides spark.local.dir, so set the variable.
    os.environ["SPARK_LOCAL_DIRS"] = str(out / "spark-local")
    settings = {
        "master": f"local[{cores}]",
        "driver_memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(cores),
    }
    # No JVM temp or perf-data files in /tmp, for the launcher or the driver.
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={out / 'tmp'}"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {settings['master']} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    return settings


def start_session(settings: dict, out: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", settings["spark.sql.shuffle.partitions"])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(out / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the Spark session, then the gateway JVM, and wait for it."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    session = SparkSession.getActiveSession()
    if session is not None:
        session.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


class Bench:
    """One benchmark run: state shared by the set-up, passes and checks."""

    def __init__(self, args, workload, tracer, settings, out):
        self.args = args
        self.workload = workload
        self.tracer = tracer
        self.settings = settings
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # per pass: (run_id, calls, [(decision, ledger row) or None per call])
        self.passes = []
        self.setup_times, self.cold_times = [], []
        self.lat = {"pass": [], "plain": []}  # per timed pass: per-call latency
        self.pass_times = {"pass": [], "plain": []}
        self.partitions = 0

    # -- set-up ------------------------------------------------------------
    def setup_once(self, rep: int):
        from repro import synth_data
        from repro.fastframe import scramble as scramble_mod

        tr = self.tracer
        tr.run_id = f"setup-{rep}"
        t0 = time.perf_counter()
        with tr.span("spark.session"):
            spark = start_session(self.settings, self.out)
        with tr.span("synth_data.flights"):
            df = synth_data.flights(spark, sf=self.args.sf, seed=self.args.seed).persist()
            df.count()
        with tr.span("scramble.build"):
            scr = scramble_mod.build_scramble(df, seed=self.args.seed + 1)
        return scr, time.perf_counter() - t0

    def cold_passes(self, scramble, rep: int):
        """The cold calls, ``cold_repeats`` times, each on a copy of the
        scramble with an empty prep cache. Returns the last copy, whose
        cache is now warm."""
        for i in range(self.workload.cold_repeats):
            scramble = dataclasses.replace(scramble, prep_cache={})
            self.tracer.forget()
            t0 = time.perf_counter()
            self.run_pass(scramble, f"cold-{rep}.{i}", self.workload.cold_calls)
            self.cold_times.append(time.perf_counter() - t0)
        return scramble

    def run_reps(self):
        """``SETUP_REPS`` times: set up, cold passes, one timed slice.

        Spreading the timed passes over the whole run, rather than timing
        one window at its end, keeps a burst of load from other processes
        from landing on all of them. Returns the last scramble."""
        from pyspark.sql import SparkSession

        for rep in range(SETUP_REPS):
            if rep:
                SparkSession.getActiveSession().stop()
            scr, dt = self.setup_once(rep)
            self.setup_times.append(dt)
            scr = self.cold_passes(scr, rep)
            if self.args.trace and rep == 0:
                self.partitions = scr.df.rdd.getNumPartitions()
            self.timed_slice(scr, self.args.seconds / SETUP_REPS)
        return scr

    # -- passes ------------------------------------------------------------
    def run_pass(self, scramble, run_id: str, calls):
        self.tracer.run_id = run_id
        lat, results = [], []
        for call in calls:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                results.append(call.run(scramble, self.tracer))
            except Exception:  # a raising call counts as a wrong decision
                results.append(None)
                self.failed += 1
                self.errors.append(f"{run_id} {call.key}: {traceback.format_exc()}")
            lat.append(time.perf_counter() - t0)
        self.passes.append((run_id, calls, results))
        return lat

    def timed_slice(self, scramble, seconds: float):
        """Closed loop, one client: whole passes until ``seconds`` pass.

        A traced run alternates traced passes ("pass") with passes that
        run with every wrapper removed ("plain"), for the overhead ratio."""
        t_end = time.perf_counter() + seconds
        while True:
            self.timed_pass(scramble, "pass")
            if self.args.trace:
                with self.tracer.paused():
                    self.timed_pass(scramble, "plain")
            if time.perf_counter() >= t_end:
                return

    def timed_pass(self, scramble, tag: str):
        t0 = time.perf_counter()
        run_id = f"{tag}-{len(self.pass_times[tag])}"
        self.lat[tag].append(self.run_pass(scramble, run_id, self.workload.calls))
        self.pass_times[tag].append(time.perf_counter() - t0)

    # -- checks ------------------------------------------------------------
    def check(self, scramble):
        """Check every decision against DuckDB, and that every call repeats
        the work (ledger row) of its first run. Returns the timed pass's
        ledger and whether all ledgers agreed."""
        from workloads import decision_ok, exact_answers

        self.tracer.run_id = "truth"
        truth = exact_answers(self.workload.calls, scramble, self.tracer)
        first = {}
        ledgers_agree = True
        for run_id, calls, results in self.passes:
            for call, out in zip(calls, results):
                if out is None:
                    ledgers_agree = False
                    continue
                if not decision_ok(call, out[0], truth):
                    self.failed += 1
                    self.errors.append(f"{run_id} {call.key}: wrong decision {out[0]!r}")
                if first.setdefault(call.key, out[1]) != out[1]:
                    ledgers_agree = False
                    self.errors.append(f"{run_id} {call.key}: work differs, {out[1]}")
        ledger = [{"key": c.key, **first.get(c.key, {})} for c in self.workload.calls]
        return ledger, ledgers_agree


def fastest_tenth(pass_lat):
    """Per call, the fastest tenth (at least two) of its timed runs, pooled.

    A shared host can switch, for seconds to minutes at a time, between a
    fast mode and one up to about 1.7x slower (measured on a 4-vCPU
    shared VM, with the same NumPy kernel pinned to each vCPU in turn).
    A median over all runs then flips with the share of the run spent
    slow. Each call's fastest runs come from the fast mode unless nearly
    all of the run was slow, and every call keeps the same weight.
    """
    keep = max(2, len(pass_lat) // 10)
    return [x for runs in zip(*pass_lat) for x in sorted(runs)[:keep]]


def end_to_end(setup_times, cold_times, lat, ledger, bench, rss_mb):
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "cold_pass_s": (min(cold_times), "s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "query_p90_s": (percentile(lat, 90), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "blocks_fetched": (float(sum(r.get("blocks", 0) for r in ledger)), "blocks"),
        "correct_decision_share": (
            (bench.attempted - bench.failed) / bench.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = Path(args.out).resolve()
    cores = max(1, min(4, os.cpu_count() or 1))
    settings = configure_spark_env(out, cores)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from tracing import Tracer
    from workloads import WORKLOADS
    import layers

    workload = WORKLOADS[args.workload]()
    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.install()
    bench = Bench(args, workload, tracer, settings, out)
    t_start = time.perf_counter()
    try:
        scramble = bench.run_reps()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ledger, ledgers_agree = bench.check(scramble)
    finally:
        tracer.uninstall()
        stop_jvm()
    wall = time.perf_counter() - t_start

    lat = fastest_tenth(bench.lat["pass"])
    setup_times, cold_times = bench.setup_times, bench.cold_times
    e2e = end_to_end(setup_times, cold_times, lat, ledger, bench, rss_mb)
    if args.trace:
        plain = fastest_tenth(bench.lat["plain"])
        overhead = statistics.median(lat) / statistics.median(plain)
        metrics = layers.per_layer(tracer, ledger, workload, bench.partitions, overhead)
    else:
        metrics = e2e
    tail = sum(1 for x in lat if x > e2e["query_p90_s"][0])
    provenance = {
        "workload": args.workload,
        "sf": args.sf,
        "data_seed": args.seed,
        "scramble_seed": args.seed + 1,
        "seconds": args.seconds,
        "trace": args.trace,
        "spark_master": settings["master"],
        "spark.sql.shuffle.partitions": settings["spark.sql.shuffle.partitions"],
        "driver_memory": settings["driver_memory"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    correct = bench.failed == 0 and ledgers_agree
    report = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "samples": {"query_latency": len(lat), "above_p90": tail,
                    "timed_passes": len(bench.pass_times["pass"]),
                    "setup_s": setup_times, "cold_pass_s": cold_times,
                    "pass_s": bench.pass_times["pass"],
                    "pass_call_s": bench.lat["pass"]},
        "wall_s": wall,
        "ledger": ledger,
        "errors": bench.errors,
    }
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.to_json()))

    print("provenance " + json.dumps(provenance))
    for err in bench.errors:
        print("ERROR " + err.splitlines()[0])
    print(f"samples: {len(lat)} engine calls, the fastest tenth of each call's runs "
          f"over {len(bench.pass_times['pass'])} timed passes, "
          f"{tail} above p90; wall {wall:.1f} s; report {stem.with_suffix('.json')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    if args.trace:
        for line in layers.shares(tracer, setup_times, cold_times, bench.pass_times["pass"]):
            print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
