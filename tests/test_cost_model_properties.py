"""Property tests for the cost model the two-stage competition runs on.

Yao's formula prices a sorted RID fetch; Jscan, the OR union scan and the
Bayesian switch rule all compare that price against a guaranteed bound.
The invariants below are the ones a switch rule relies on: a longer RID
list never looks cheaper, a fetch never costs more than the pages or
records it reads, and the guaranteed best never exceeds a Tscan.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.competition.probabilistic import BayesianSwitchCriterion, ScanEvidence
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import JscanProcess
from repro.engine.metrics import RetrievalTrace
from repro.engine.union_scan import UnionScanProcess
from repro.expr.ast import col
from repro.expr.disjunction import cover_disjuncts
from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import yao_pages_touched


def reference_yao(total_pages: int, records_per_page: int, k: int) -> float:
    """Yao's formula as the k-factor product ``C(n - d, k) / C(n, k)``."""
    if total_pages <= 0 or k <= 0:
        return 0.0
    m = total_pages
    n = m * records_per_page
    if k > n - records_per_page:
        return float(m)
    missed = 1.0
    for i in range(k):
        missed *= (n - records_per_page - i) / (n - i)
    return m * (1.0 - missed)


geometries = st.tuples(st.integers(1, 60), st.integers(1, 40))

# -- Yao's formula ------------------------------------------------------------


def test_yao_monotone_for_every_k_on_the_benchmark_table():
    # 625 pages x 32 rows, including k = 1000 -> 1001, where the product
    # form used to hand over to an approximation (504.09 -> 499.18 pages)
    assert yao_pages_touched(625, 32, 1000) == pytest.approx(504.0884, abs=1e-4)
    n = 625 * 32
    previous = 0.0
    for k in range(n + 2):
        value = yao_pages_touched(625, 32, k)
        assert value >= previous, k
        previous = value
    assert previous == 625.0


@settings(max_examples=60, deadline=None)
@given(geometries)
def test_yao_monotone_in_k(geometry):
    pages, per_page = geometry
    previous = 0.0
    for k in range(pages * per_page + 2):
        value = yao_pages_touched(pages, per_page, k)
        assert value >= previous, k
        previous = value


@settings(max_examples=200, deadline=None)
@given(geometries, st.integers(0, 2500))
def test_yao_bounded_by_records_and_pages(geometry, k):
    pages, per_page = geometry
    assert yao_pages_touched(pages, per_page, k) <= min(k, pages) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(geometries, st.integers(0, 50))
def test_yao_touches_every_page_once_no_page_can_be_missed(geometry, extra):
    pages, per_page = geometry
    n = pages * per_page
    k = n - per_page + 1 + extra
    assert yao_pages_touched(pages, per_page, k) == pages


@settings(max_examples=200, deadline=None)
@given(geometries, st.integers(0, 2500))
def test_yao_matches_the_k_factor_product(geometry, k):
    pages, per_page = geometry
    expected = reference_yao(pages, per_page, k)
    assert yao_pages_touched(pages, per_page, k) == pytest.approx(expected, rel=1e-9)


# -- the guaranteed best and the projected union cost --------------------------


@lru_cache(maxsize=None)
def parts_table():
    db = Database(buffer_capacity=64)
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(600):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    table.create_index("IX_SIZE", ["SIZE"])
    table.analyze()
    return table


# tiny RID buffers make lists spill to temp pages, which the fetch cost
# prices separately
SPILLING = DEFAULT_CONFIG.with_(
    static_rid_buffer_size=2, allocated_rid_buffer_size=8, temp_rids_per_page=4
)


def conjunction(color, weight, size):
    return (col("COLOR") <= color) & (col("WEIGHT") < weight) & (col("SIZE") < size)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 9), st.integers(1, 100), st.integers(1, 50),
    st.booleans(), st.booleans(),
)
def test_guaranteed_best_never_exceeds_tscan(color, weight, size, spill, pair):
    table = parts_table()
    config = SPILLING if spill else table.config
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), conjunction(color, weight, size), {},
        frozenset(table.schema.names), (), CostMeter(), trace, config,
    )
    if not arrangement.jscan_candidates:
        return
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config,
        simultaneous=pair,
    )
    while True:
        guaranteed = jscan.guaranteed_best_cost()
        assert guaranteed <= jscan.tscan_cost()
        if jscan._filter is not None:
            # the kept value is the one a fresh computation would give
            fresh = jscan.rid_fetch_cost(len(jscan._filter), jscan._filter)
            assert guaranteed == min(jscan.tscan_cost(), fresh)
        if not jscan.active or jscan.step():
            break


def test_guaranteed_best_follows_heap_growth(db):
    table = db.create_table("G", [("A", "int"), ("B", "int")], rows_per_page=8)
    for i in range(400):
        table.insert((i % 40, i))
    table.create_index("IX_A", ["A"])
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), col("A") < 30, {},
        frozenset(table.schema.names), (), CostMeter(), trace, table.config,
    )
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, table.config
    )
    jscan.step()
    assert jscan.guaranteed_best_cost() == 50.0
    for i in range(80):  # a mid-flight insert grows the heap by ten pages
        table.insert((99, i))
    assert jscan.guaranteed_best_cost() == 60.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 99), st.integers(0, 49))
def test_projected_union_cost_bounded_by_pages(color, weight, size):
    table = parts_table()
    expr = col("COLOR").eq(color) | (col("WEIGHT") <= weight) | col("SIZE").eq(size)
    covered = cover_disjuncts(expr, list(table.indexes.values()))
    assert covered is not None
    union = UnionScanProcess(
        covered, table.heap, table.buffer_pool, RetrievalTrace(), table.config
    )
    while True:
        projected = union.projected_final_cost()
        if projected is not None:
            assert 0.0 <= projected <= table.heap.page_count
        if not union.active or union.step():
            break


# -- the Bayesian switch rule -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    geometries,
    st.integers(1, 400).flatmap(
        lambda scanned: st.tuples(st.just(scanned), st.integers(0, scanned))
    ),
    st.floats(0.0, 5000.0),
    st.floats(0.0, 2000.0),
)
def test_expected_savings_within_zero_and_guaranteed(geometry, observed, total, guaranteed):
    pages, per_page = geometry
    scanned, kept = observed
    criterion = BayesianSwitchCriterion(heap_pages=pages, rows_per_page=per_page)
    evidence = ScanEvidence(
        scanned=scanned, kept=kept, estimated_total=total, scan_cost=0.0
    )
    savings = criterion.expected_savings(evidence, guaranteed)
    assert 0.0 <= savings <= guaranteed * (1 + 1e-12)
