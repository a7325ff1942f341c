"""The closed-loop client: two sessions on one Connection, one thread.

Each session submits its next statement only after the previous one has
returned. The loop drives ``QueryServer.step()`` itself, one scheduling
quantum at a time, and notes a statement's completion right after the
quantum that finished it; latency runs from submission to that point and
is reported in reference time (see ``pace``).
"""

from __future__ import annotations

import resource
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro import QueryState, Result
from repro.engine.metrics import EventKind

from oracle import EventsCopy
from pace import PaceClock
from workloads import SESSIONS, Statement, StatementStream

#: trace events that record a choice the optimizer made; the index order,
#: each scan's abandonment and every strategy switch decide what a
#: statement costs even where the final plan description is the same
DECISION_EVENTS = frozenset({
    EventKind.INDEXES_ORDERED,
    EventKind.TACTIC_SELECTED,
    EventKind.COMPETITION_SKIPPED,
    EventKind.SCAN_ABANDONED,
    EventKind.TSCAN_RECOMMENDED,
    EventKind.STRATEGY_SWITCH,
})


#: retrieval counters the traced run's ratios need, summed over the window
TALLIED = ("index_entries_scanned", "records_delivered", "records_fetched",
           "fetches_rejected", "strategy_switches")


def retrieval_groups(description: str) -> tuple[str, ...]:
    """The tally groups a retrieval's counters are added to."""
    groups = ["all"]
    if "jscan" in description:
        groups.append("jscan")
    if "final-stage" in description:
        groups.append("final-stage")
    if description.startswith(("tscan", "sscan", "fscan")):
        groups.append("scans")
    return tuple(groups)


@dataclass(slots=True)
class Record:
    """What the client saw of one statement (kept small: every record
    lives until the oracle has run after the window)."""

    statement: Statement
    session: int
    submitted: float
    seen_at_submit: int
    #: wall clock when the quantum that finished the statement returned
    done: float = 0.0
    seen_at_done: int = 0
    #: the returned rows, flattened into one integer array (kept compact
    #: so that holding every result until the oracle runs does not grow
    #: the process much); ``rows`` rebuilds the tuples
    values: array | None = None
    width: int = 0
    rowcount: int = 0
    total_io: int = 0
    #: plan descriptions and the optimizer's decision events, for
    #: statements in the prefix
    descriptions: list[str] | tuple = ()
    decisions: list[str] | tuple = ()
    error: str | None = None
    quanta: int = 0
    pool_accesses: int = 0

    @property
    def rows(self) -> list[tuple] | None:
        if self.values is None:
            return None
        return list(zip(*[iter(self.values)] * self.width))


@dataclass
class LoopRun:
    records: list[Record]
    #: wall clock at the window's first submission and after its last statement
    start: float
    end: float
    submitted: int
    #: (group, counter) -> sum over the window's retrievals; see TALLIED
    tally: Counter
    #: the process's peak resident set (KiB) when the last of the first
    #: ``prefix`` statements finished
    prefix_peak_rss_kb: int


def _finish(record: Record, handle, copy: EventsCopy, in_prefix: bool,
            tally: Counter) -> None:
    record.quanta = handle.steps
    record.pool_accesses = handle.cache_hits + handle.cache_misses
    if handle.state is not QueryState.DONE:
        record.error = f"{handle.state.value}: {handle.error!r}"
        return
    result = Result.wrap(handle.result)
    record.total_io = result.metrics.total_io
    statement = record.statement
    if not statement.is_select:
        record.rowcount = result.rowcount
        copy.append(statement.inserted)
        return
    record.width = len(result.columns)
    record.values = array("q", chain.from_iterable(result.rows))
    retrievals = [info.result for info in result.retrievals]
    for retrieval in retrievals:
        counters = retrieval.trace.counters
        for group in retrieval_groups(retrieval.description):
            for name in TALLIED:
                tally[group, name] += getattr(counters, name)
    if in_prefix:
        record.descriptions = [retrieval.description for retrieval in retrievals]
        record.decisions = [
            str(event) for retrieval in retrievals for event in retrieval.trace.events
            if event.kind in DECISION_EVENTS
        ]


def run_closed_loop(
    conn,
    stream: StatementStream,
    copy: EventsCopy,
    seconds: float,
    prefix: int,
    pace: PaceClock,
    limit: int | None = None,
) -> LoopRun:
    """Run the closed loop until the clock and the prefix both allow it.

    Sessions keep submitting while fewer than ``prefix`` statements were
    submitted, while any of the first ``prefix`` is still running, or
    while ``seconds`` have not passed; with ``limit`` they submit exactly
    ``limit`` statements instead. Keeping the first ``prefix`` statements
    independent of the clock makes their rows, I/O and decisions repeat
    exactly for a seed. ``pace`` probes the host's speed between quanta.
    """
    server = conn.server
    sessions = [conn.session(f"client{i}") for i in range(SESSIONS)]
    inflight: list[tuple | None] = [None] * SESSIONS
    records: list[Record] = []
    tally: Counter = Counter()
    prefix_left = prefix
    prefix_peak_rss_kb = 0
    clock = time.perf_counter
    start = clock()
    submitted = 0

    def may_submit() -> bool:
        if limit is not None:
            return submitted < limit
        if submitted < prefix or clock() - start < seconds:
            return True
        return any(slot is not None and slot[1].statement.seq < prefix for slot in inflight)

    def submit(i: int) -> None:
        nonlocal submitted
        statement = next(stream)
        record = Record(statement, i, clock(), copy.count)
        inflight[i] = (sessions[i].submit(statement.sql), record)
        submitted += 1

    for i in range(SESSIONS):
        submit(i)
    while any(slot is not None for slot in inflight):
        server.step()
        for i, slot in enumerate(inflight):
            if slot is None or not slot[0].done:
                continue
            handle, record = slot
            record.done = clock()
            _finish(record, handle, copy, record.statement.seq < prefix, tally)
            record.seen_at_done = copy.count
            records.append(record)
            if record.statement.seq < prefix:
                prefix_left -= 1
                if prefix_left == 0:
                    prefix_peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            inflight[i] = None
            if may_submit():
                submit(i)
        pace.tick()
    return LoopRun(records, start, clock(), submitted, tally, prefix_peak_rss_kb)
