"""The repository benchmark: closed-loop SQL workloads over EVENTS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc_oltp --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the database several times (reporting the median
set-up time), then runs two client sessions in a closed loop for
``--seconds`` and reports the end-to-end metrics. Their times are in
reference time: wall time scaled by the host's speed, which a fixed probe
measures beside the program (see ``pace.py``). ``--trace 1`` runs the
same window with every layer's public functions wrapped in spans and
reports per-layer calls, self time and share of wall time, then repeats
the same statements untraced to measure the tracing overhead.

Every run checks every statement's rows against a brute-force oracle,
reconciles the program's own counters with what the client counted, and
prints a digest of rows, I/O and optimizer decisions over the first
statements of the window. Human-readable lines come first; the last line
is one JSON object. Any oracle mismatch exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

from pace import REFERENCE_PROBE_S, PaceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
#: tail percentiles tried from the highest down
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        sys.exit(2)


# -- set-up -------------------------------------------------------------------


def set_up(workload, seed, pace):
    """Build, load, index, analyze and warm one database; returns
    ``(connection, timed stream, oracle copy, reference seconds taken)``."""
    import repro
    from loop import run_closed_loop
    from oracle import EventsCopy
    from workloads import StatementStream, setup_sql

    copy = EventsCopy()
    statements = setup_sql()
    gc.collect()
    started = time.perf_counter()
    conn = repro.connect(buffer_capacity=workload.pool_pages)
    for sql in statements:
        conn.execute(sql)
        pace.tick()
    # a restart after the load: every workload starts from an empty pool
    conn.db.cold_cache()
    warm = StatementStream(workload, "warmup")
    run_closed_loop(conn, warm, copy, seconds=0, prefix=0, pace=pace, limit=workload.warmup)
    elapsed = pace.reference(started, time.perf_counter())
    return conn, StatementStream(workload, seed, next_id=warm.next_id), copy, elapsed


def counters(conn) -> dict[str, int]:
    """The program's own counters, read through public surfaces."""
    totals = conn.metrics.totals()
    db = conn.db
    return {
        "done": totals.queries_completed,
        "failed": totals.queries_failed + totals.queries_cancelled,
        "session_pool_accesses": totals.cache_hits + totals.cache_misses,
        "quanta": totals.quanta,
        "plan_hits": db.plan_cache.hits,
        "plan_misses": db.plan_cache.misses,
        "pool_hits": db.buffer_pool.hits,
        "pool_misses": db.buffer_pool.misses,
        "disk_reads": db.pager.stats.reads,
        "server_quanta": conn.server.total_steps,
        "estimator_trusted": db.estimator.trusted,
        "estimator_competed": db.estimator.competed,
        "estimate_evictions": db.estimator.evictions + db.feedback.evictions,
    }


def measure(conn, stream, copy, seconds, prefix, pace, limit=None):
    """One timed window plus the counter deltas it caused."""
    from loop import run_closed_loop

    gc.collect()
    before = counters(conn)
    run = run_closed_loop(conn, stream, copy, seconds, prefix, pace, limit=limit)
    after = counters(conn)
    return run, {key: after[key] - before[key] for key in before}


# -- checks ---------------------------------------------------------------------


def reconcile(run, delta) -> list[str]:
    """Identities between the program's counters and the client's view.
    Each failing one is a finding; none is dropped."""
    records = run.records
    ok = [r for r in records if r.error is None]
    selects = sum(r.statement.is_select for r in records)
    identities = [
        ("statements retired done == statements completed", delta["done"], len(ok)),
        ("statements retired failed == statements failed",
         delta["failed"], len(records) - len(ok)),
        ("plan-cache hits + misses == SELECTs issued",
         delta["plan_hits"] + delta["plan_misses"], selects),
        ("pool hits + misses == accesses attributed to statements",
         delta["pool_hits"] + delta["pool_misses"],
         sum(r.pool_accesses for r in records)),
        ("session pool accesses == accesses attributed to statements",
         delta["session_pool_accesses"], sum(r.pool_accesses for r in records)),
        ("pool misses == disk reads", delta["pool_misses"], delta["disk_reads"]),
        ("session quanta == quanta seen per statement",
         delta["quanta"], sum(r.quanta for r in records)),
    ]
    return [
        f"{'ok     ' if program == client else 'FINDING'} {name}: "
        f"program {program}, client {client}"
        for name, program, client in identities
    ]


def oracle_errors(run, copy) -> int:
    """Check every statement; marks and counts the wrong ones."""
    from oracle import check

    wrong = 0
    for record in run.records:
        if record.error is None and record.statement.is_select:
            mismatch = check(copy, record.statement, record.values, record.width,
                             record.seen_at_submit, record.seen_at_done)
            if mismatch is not None:
                record.error = f"wrong rows: {mismatch}"
                wrong += 1
                print(f"MISMATCH seq {record.statement.seq} "
                      f"{record.statement.sql[:80]!r}: {mismatch}")
    return wrong


def decision_log(run, prefix, path) -> str:
    """Write the per-statement log of the prefix; return its digest."""
    from oracle import digest, statement_line

    lines = [statement_line(r) for r in sorted(run.records, key=lambda r: r.statement.seq)
             if r.statement.seq < prefix]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as out:
        for line in lines:
            out.write(json.dumps(line, sort_keys=True) + "\n")
    return digest(lines)


# -- metrics --------------------------------------------------------------------


def tail_percentile(prefix: int) -> float:
    """The highest ladder percentile with at least ten of ``prefix``
    samples beyond it (every run has at least ``prefix`` samples)."""
    for p in TAIL_LADDER:
        if prefix * (1 - p / 100) >= 10:
            return p
    raise ValueError("a prefix of at least 20 statements is needed")


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(workload, run, setup_times, prefix, pace):
    records = run.records
    latencies = [pace.reference(r.submitted, r.done) * 1e3 for r in records]
    tail = tail_percentile(prefix)
    metrics = {
        "throughput_qps": (len(records) / pace.reference(run.start, run.end), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (percentile(latencies, tail), "ms"),
    }
    labels = {}
    for slot, cls in enumerate(workload.class_names, 1):
        values = [ms for ms, r in zip(latencies, records) if r.statement.cls == cls]
        metrics[f"p50_ms.class{slot}"] = (statistics.median(values), "ms")
        labels[f"class{slot}"] = cls
    in_prefix = [r for r in records if r.statement.seq < prefix]
    metrics["io_per_stmt"] = (sum(r.total_io for r in in_prefix) / len(in_prefix), "count")
    # read at a fixed amount of work: the results the benchmark keeps for
    # the oracle grow with every statement the window runs
    metrics["peak_rss_mb"] = (run.prefix_peak_rss_kb / 1024, "MB")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    wall_ms = [(r.done - r.submitted) * 1e3 for r in records]
    probes = statistics.quantiles(pace.probe_ms(run.start, run.end), n=4)
    notes = {
        "latency_tail": f"p{tail:g} over n={len(latencies)}",
        "wall time": f"latency p50 {statistics.median(wall_ms):.4f} ms, throughput "
                     f"{len(records) / (run.end - run.start):.2f}/s",
        "probe ms": f"quartiles {probes[0]:.4f} {probes[1]:.4f} {probes[2]:.4f} "
                    f"(reference {REFERENCE_PROBE_S * 1e3:g})",
        "classes": " ".join(f"{slot}={cls}" for slot, cls in labels.items()),
        "setup_s samples": " ".join(f"{t:.3f}" for t in setup_times),
    }
    return metrics, notes


def per_layer(run, delta, rec, pace, reference):
    """Per-layer metrics of the traced ``run``; ``reference`` is the same
    statements run untraced."""
    from layers import LAYER_NAMES

    traced_wall = pace.busy(run.start, run.end)
    metrics = {}
    statements = len(run.records)
    for i, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.calls"] = (rec.calls[i], "count")
        metrics[f"{layer}.self_s"] = (rec.self_s[i], "s")
        metrics[f"{layer}.share"] = (rec.self_s[i] / traced_wall, "ratio")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    tally = run.tally
    jscan_entries = tally["jscan", "index_entries_scanned"]
    examined = tally["scans", "records_fetched"] + tally["scans", "index_entries_scanned"]
    calls = rec.fn_calls
    lookups = calls["repro.btree.tree.BTree.insert"] + calls["repro.btree.tree.BTree.first_leaf_for"]
    extra = {
        "cache.plan_hit_ratio": ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "engine.initial.estimates_per_stmt": ratio(
            calls["repro.btree.estimate.estimate_range"], statements),
        "engine.retrieval.switches_per_stmt": ratio(tally["all", "strategy_switches"], statements),
        "engine.retrieval.competition_skip_ratio": ratio(
            delta["estimator_trusted"],
            delta["estimator_trusted"] + delta["estimator_competed"]),
        "engine.jscan.entries_per_row": ratio(
            jscan_entries, tally["jscan", "records_delivered"]),
        "storage.rid.yao_calls_per_entry": ratio(
            calls["repro.storage.rid.yao_pages_touched"], jscan_entries),
        "engine.final_stage.reject_ratio": ratio(
            tally["final-stage", "fetches_rejected"], tally["final-stage", "records_fetched"]),
        "engine.scans.rows_examined_per_row": ratio(
            examined, tally["scans", "records_delivered"]),
        "storage.buffer_pool.hit_ratio": ratio(
            delta["pool_hits"], delta["pool_hits"] + delta["pool_misses"]),
        "storage.buffer_pool.misses": delta["pool_misses"],
        "storage.buffer_pool.evictions": rec.evictions,
        "btree.pages_per_lookup": ratio(rec.descent_pages, lookups),
        "estimate.evictions": delta["estimate_evictions"],
        "server.scheduler.quanta_per_stmt": ratio(delta["server_quanta"], statements),
        "trace.overhead_ratio": (pace.reference(run.start, run.end)
                                 / pace.reference(reference.start, reference.end)),
        "trace.unattributed_share": 1 - sum(rec.self_s) / traced_wall,
    }
    units = {"storage.buffer_pool.misses": "count", "storage.buffer_pool.evictions": "count",
             "estimate.evictions": "count"}
    for name, value in extra.items():
        metrics[name] = (value, units.get(name, "ratio"))
    return metrics


# -- runs ---------------------------------------------------------------------------


def run_untraced(workload, seed, seconds, pace):
    setup_times = []
    conn = None
    for _ in range(SETUP_REPEATS):
        if conn is not None:
            conn.close()
        conn = stream = copy = None
        gc.collect()
        conn, stream, copy, elapsed = set_up(workload, seed, pace)
        setup_times.append(elapsed)
    run, delta = measure(conn, stream, copy, seconds, workload.prefix, pace)
    metrics, notes = end_to_end(workload, run, setup_times, workload.prefix, pace)
    conn.close()
    return run, delta, copy, metrics, notes


def run_traced(workload, seed, seconds, pace):
    """The traced window, then the same statements untraced on a fresh
    database for the overhead ratio; returns both runs."""
    from layers import Instrumentation, SpanRecorder

    conn, stream, copy, _ = set_up(workload, seed, pace)
    rec = SpanRecorder()
    instrumentation = Instrumentation(rec).install()
    try:
        run, delta = measure(conn, stream, copy, seconds, workload.prefix, pace)
    finally:
        instrumentation.uninstall()
    conn.close()
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"{workload.name}-seed{seed}-spans.bin")
    conn, stream, reference_copy, _ = set_up(workload, seed, pace)
    reference, _ = measure(conn, stream, reference_copy, 0, workload.prefix, pace,
                           limit=run.submitted)
    conn.close()
    metrics = per_layer(run, delta, rec, pace, reference)
    return (run, delta, copy, metrics), (reference, reference_copy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import TOTAL_PAGES, SESSIONS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    log = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-decisions.jsonl"
    notes: dict[str, str] = {}
    wrong = 0
    pace = PaceClock()
    if args.trace:
        (run, delta, copy, metrics), (reference, reference_copy) = run_traced(
            workload, args.seed, args.seconds, pace)
        wrong += oracle_errors(reference, reference_copy)
        reference_digest = decision_log(
            reference, workload.prefix, log.with_name(log.stem + "-untraced.jsonl"))
    else:
        run, delta, copy, metrics, notes = run_untraced(workload, args.seed, args.seconds, pace)
    wrong += oracle_errors(run, copy)
    run_digest = decision_log(run, workload.prefix, log)

    attempted = len(run.records)
    failed = sum(r.error is not None for r in run.records)
    print(f"workload {workload.name}: seed {args.seed}, pool {workload.pool_pages} "
          f"of {TOTAL_PAGES} pages, {SESSIONS} sessions in a closed loop, "
          f"{attempted} statements in {run.end - run.start:.2f} s")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  error_rate: {failed / attempted:.6f} ({failed} of {attempted})")
    print(f"  digest of the first {workload.prefix} statements: {run_digest}")
    if args.trace:
        same = reference_digest == run_digest
        print(f"  untraced digest: {reference_digest} "
              f"({'identical' if same else 'DIFFERENT: tracing changed a decision'})")
        wrong += not same
        for layer in workload.stress_layers:
            calls = metrics[f"{layer}.calls"][0]
            print(f"  stress layer {layer}: {calls} calls, "
                  f"share {metrics[f'{layer}.share'][0]:.4f}")
            if calls == 0:
                print(f"  FINDING stress layer {layer} recorded no calls")
                wrong += 1
    for line in reconcile(run, delta):
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6f} {unit}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
