"""The EVENTS data set and the three seeded statement streams.

Every workload runs on the same table::

    EVENTS(ID, V = ID % 97, W = ID * 7919 % 1000, P = ID * 31 % 1000)

with 20,000 rows, 32 rows per page and B-tree order 32 (625 heap pages,
4,201 pages with the indexes on ID, V and W; P is deliberately
unindexed). The program only ever sees SQL text: the loader, the
warm-up and the timed window are all generated here from the seed.

Literals are drawn by stratified sampling. Each class cycles through a
shuffled list of equal-width strata of its literal range and draws
uniformly inside the stratum, and the class mix is exact within every
block of statements. The draws follow the same uniform distribution as
plain sampling, but a run of a few dozen statements covers the range
evenly, so two seeds give comparable totals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

ROWS = 20_000
#: heap and index pages of EVENTS at the engine's default 32 rows per page
#: and B-tree order 32
TOTAL_PAGES = 4_201
LOAD_CHUNK = 500
INSERT_ROWS = 4
SESSIONS = 2


def event_row(i: int) -> tuple[int, int, int, int]:
    """The EVENTS row with ID ``i`` (inserted rows follow the same rule)."""
    return (i, i % 97, i * 7919 % 1000, i * 31 % 1000)


def setup_sql() -> list[str]:
    """DDL, bulk load and ``analyze`` for the EVENTS table, as SQL text."""
    statements = ["create table EVENTS (ID int, V int, W int, P int)"]
    for start in range(0, ROWS, LOAD_CHUNK):
        values = ", ".join(
            "(%d, %d, %d, %d)" % event_row(i)
            for i in range(start, min(ROWS, start + LOAD_CHUNK))
        )
        statements.append(f"insert into EVENTS values {values}")
    for column in ("ID", "V", "W"):
        statements.append(f"create index EVENTS_{column} on EVENTS ({column})")
    statements.append("analyze EVENTS")
    return statements


@dataclass(frozen=True, slots=True)
class Statement:
    """One generated statement plus what the oracle needs to check it.

    ``pred`` is a tuple naming the predicate and its literals, e.g.
    ``("v_between_w_lt", 12, 12, 340)``; ``columns`` is ``"*"`` or ``"ID"``;
    ``limit`` is the ``limit to N rows`` count; ``inserted`` holds the
    rows an INSERT adds.
    """

    seq: int
    cls: str
    sql: str
    pred: tuple = ()
    columns: str = "*"
    limit: int | None = None
    inserted: tuple = ()

    @property
    def is_select(self) -> bool:
        return not self.inserted


class _Strata:
    """Stratified uniform integers in ``[low, high)``."""

    def __init__(self, rng: random.Random, low: int, high: int, count: int = 16):
        self.rng = rng
        self.low = low
        self.width = (high - low) / count
        self.count = count
        self._order: list[int] = []

    def draw(self) -> int:
        if not self._order:
            self._order = list(range(self.count))
            self.rng.shuffle(self._order)
        stratum = self._order.pop()
        start = self.low + stratum * self.width
        return int(start + self.rng.random() * self.width)


@dataclass(frozen=True)
class StatementClass:
    """A statement shape, its share of each block, and its literal maker."""

    name: str
    per_block: int
    make: Callable[["StatementStream"], Statement]


@dataclass(frozen=True)
class Workload:
    name: str
    pool_pages: int
    classes: tuple[StatementClass, ...]
    #: statements run once before timing (part of set-up)
    warmup: int
    #: statements every timed run completes whatever the clock says; the
    #: decision digest and ``io_per_stmt`` cover exactly these, and the
    #: tail percentile is fixed from this count
    prefix: int
    #: layers the traced run requires to record calls
    stress_layers: tuple[str, ...]

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)


@dataclass
class StatementStream:
    """The seeded, endless statement sequence of one workload.

    Both client sessions pull from one stream in completion order, which
    the deterministic scheduler fixes, so a seed fixes every statement
    and every interleaving. ``next_id`` is shared with the INSERT class
    so appended IDs never collide.
    """

    workload: Workload
    #: the run's seed, or ``"warmup"`` for the warm-up every seed shares
    seed: int | str
    next_id: int = ROWS
    seq: int = 0
    rng: random.Random = field(init=False)
    _block: list[StatementClass] = field(init=False, default_factory=list)
    _strata: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.rng = random.Random(f"{self.workload.name}:{self.seed}")

    def strata(self, key: str, low: int, high: int) -> int:
        """Draw from the stratified sampler named ``key``."""
        sampler = self._strata.get(key)
        if sampler is None:
            sampler = self._strata[key] = _Strata(self.rng, low, high)
        return sampler.draw()

    def __next__(self) -> Statement:
        if not self._block:
            self._block = [c for c in self.workload.classes for _ in range(c.per_block)]
            self.rng.shuffle(self._block)
        statement = self._block.pop().make(self)
        self.seq += 1
        return statement


# -- statement makers ---------------------------------------------------------


def _point(s: StatementStream) -> Statement:
    c = s.strata("point.id", 0, ROWS)
    return Statement(s.seq, "point", f"select * from EVENTS where ID = {c}",
                     ("id_between", c, c))


def _id_range(width: int, cls: str) -> Callable[[StatementStream], Statement]:
    def make(s: StatementStream) -> Statement:
        a = s.strata(f"{cls}.id", 0, ROWS - width)
        b = a + width - 1
        return Statement(
            s.seq, cls, f"select ID from EVENTS where ID between {a} and {b}",
            ("id_between", a, b), columns="ID",
        )

    return make


def _fastfirst(s: StatementStream) -> Statement:
    a = s.strata("fastfirst.w", 0, 990)
    b = a + 9
    return Statement(
        s.seq, "fastfirst",
        f"select * from EVENTS where W between {a} and {b} limit to 5 rows",
        ("w_between", a, b), limit=5,
    )


def _v_eq(cls: str, x_low: int, x_high: int) -> Callable[[StatementStream], Statement]:
    def make(s: StatementStream) -> Statement:
        c = s.strata(f"{cls}.v", 0, 97)
        x = s.strata(f"{cls}.w", x_low, x_high)
        return Statement(
            s.seq, cls, f"select * from EVENTS where V = {c} and W < {x}",
            ("v_between_w_lt", c, c, x),
        )

    return make


def _v_band(s: StatementStream) -> Statement:
    a = s.strata("band.v", 0, 93)
    x = s.strata("band.w", 100, 200)
    return Statement(
        s.seq, "band",
        f"select * from EVENTS where V between {a} and {a + 4} and W < {x}",
        ("v_between_w_lt", a, a + 4, x),
    )


def _tscan(s: StatementStream) -> Statement:
    c = s.strata("tscan.p", 1, 250)
    return Statement(s.seq, "tscan", f"select * from EVENTS where P < {c}",
                     ("p_lt", c))


def _insert(s: StatementStream) -> Statement:
    rows = tuple(event_row(i) for i in range(s.next_id, s.next_id + INSERT_ROWS))
    s.next_id += INSERT_ROWS
    values = ", ".join("(%d, %d, %d, %d)" % row for row in rows)
    return Statement(s.seq, "insert", f"insert into EVENTS values {values}",
                     inserted=rows)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The whole database fits in the pool, so fixed per-statement
        # costs dominate: tokenize/parse/bind on every plan-cache miss
        # (each fresh literal misses), descent estimation, the scheduler
        # and the observability hooks. Jscan and Yao are a few percent.
        Workload(
            name="adhoc_oltp",
            pool_pages=8192,
            classes=(
                StatementClass("point", 6, _point),
                StatementClass("range", 3, _id_range(100, "range")),
                StatementClass("fastfirst", 1, _fastfirst),
            ),
            warmup=200,
            prefix=4000,
            stress_layers=("sql", "cache"),
        ),
        # Jscan's two-stage competition and the final-stage RID fetch
        # dominate, and Yao's formula is most of their time. With
        # ``W < x`` the W scan runs to completion below x = 65 and is
        # abandoned on its projected cost from x = 100 up; between the two
        # the outcome depends on learned estimates, so no class draws there.
        Workload(
            name="jscan_and",
            pool_pages=256,
            classes=(
                StatementClass("eq", 4, _v_eq("eq", 20, 65)),
                StatementClass("eq_wide", 4, _v_eq("eq_wide", 100, 200)),
                StatementClass("band", 2, _v_band),
            ),
            warmup=12,
            prefix=100,
            stress_layers=("storage.rid", "engine.jscan"),
        ),
        # The pool holds about a tenth of the heap: heap page runs, pool
        # misses, evictions and read-ahead, the Tscan/Sscan batch paths,
        # B-tree inserts and the uncached DML parse path. P is unindexed,
        # so its Tscans never enter Jscan and Yao is absent. The writes run
        # beside the reads, so a read-path change that slows them shows.
        Workload(
            name="scan_insert",
            pool_pages=64,
            classes=(
                StatementClass("tscan", 3, _tscan),
                StatementClass("sscan", 3, _id_range(5000, "sscan")),
                StatementClass("insert", 2, _insert),
            ),
            warmup=16,
            prefix=500,
            stress_layers=("engine.scans", "storage.buffer_pool", "btree"),
        ),
    )
}
