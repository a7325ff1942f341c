"""Jscan — the joint scan of fetch-needed indexes (Section 6, Figure 6).

Jscan scans the preselected indexes in ascending-selectivity order. Each
index scan builds a RID list (hybrid storage: static buffer, allocated
buffer, temp table + bitmap) filtered against the previously completed
list, so each completed list is the running intersection. Unproductive
scans are eliminated by a *two-stage competition*: during a scan, the cost
of retrieving by the projected final RID list is continuously compared
against the *guaranteed best* retrieval (Tscan, or retrieval by the last
complete list); the scan is terminated "a bit before the costs are
equalized". A direct criterion additionally bounds the scan's own cost by a
proportion of the guaranteed best.

Rdb/VMS also "can partially change the order of index scans by limited
simultaneous scanning of two adjacent indexes" — implemented here as pair
mode: the next index scans alongside the current one (within main memory
only); whichever completes first delivers the next filter, and the other's
partial list is refiltered in memory.

The result is either a complete RID list (possibly empty — an immediate
end-of-data), or the recommendation that Tscan is the best retrieval.

Setting ``dynamic_guaranteed_best=False``, ``projection_enabled=False`` and
a ``static_rid_threshold`` turns this class into the statically-controlled
Jscan of [MoHa90] used as a baseline (see
:mod:`repro.engine.mohan_jscan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.competition.process import Process
from repro.competition.two_stage import SwitchCriterion, SwitchDecision
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.initial import JscanCandidate
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.obs.audit import DecisionKind
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.rid import RID, yao_pages_touched


@dataclass
class _IndexScan:
    """Live state of one index scan inside Jscan."""

    candidate: JscanCandidate
    cursor: object  # RangeCursor
    rid_list: HybridRidList
    position: int = 0
    scanned: int = 0
    kept: int = 0
    scan_cost: float = 0.0

    @property
    def name(self) -> str:
        return self.candidate.index.name


class JscanProcess(Process):
    """The joint-scan background process. One step == one index entry."""

    def __init__(
        self,
        candidates: list[JscanCandidate],
        heap: HeapFile,
        buffer_pool: BufferPool,
        trace: RetrievalTrace,
        config: EngineConfig = DEFAULT_CONFIG,
        dynamic_guaranteed_best: bool = True,
        projection_enabled: bool = True,
        static_rid_threshold: float | None = None,
        simultaneous: bool | None = None,
        on_keep: Callable[[RID, int], None] | None = None,
        name: str = "jscan",
    ) -> None:
        super().__init__(name)
        if not candidates:
            raise ValueError("Jscan needs at least one candidate index")
        self.heap = heap
        self.buffer_pool = buffer_pool
        self.trace = trace
        self.config = config
        self.criterion = SwitchCriterion(
            threshold=config.switch_threshold,
            scan_cost_limit_fraction=config.scan_cost_limit_fraction,
        )
        self._prob_criterion = None
        if config.probabilistic_switch:
            from repro.competition.probabilistic import BayesianSwitchCriterion

            self._prob_criterion = BayesianSwitchCriterion(
                heap_pages=heap.page_count,
                rows_per_page=heap.rows_per_page,
                scan_cost_limit_fraction=config.scan_cost_limit_fraction,
            )
        self.dynamic_guaranteed_best = dynamic_guaranteed_best
        self.projection_enabled = projection_enabled
        self.static_rid_threshold = static_rid_threshold
        self.simultaneous = (
            config.simultaneous_adjacent_scans if simultaneous is None else simultaneous
        )
        #: tap: called with (rid, scan_position) for every kept RID —
        #: the fast-first tactic "borrows" RIDs through this hook
        self.on_keep = on_keep

        self._queue: list[JscanCandidate] = list(candidates)
        self._started = 0  # scan position counter (0 == first index)
        self._active: _IndexScan | None = None
        self._partner: _IndexScan | None = None
        self._filter: HybridRidList | None = None
        #: guaranteed best cost and the heap size it was computed for; it
        #: is recomputed only when a filter is installed or the heap grows
        self._guaranteed = 0.0
        self._guaranteed_pages: int | None = None
        self._turn = 0
        self.completed_scans = 0
        self.abandoned_scans = 0
        self.reorders = 0

        # results
        self.result_list: HybridRidList | None = None
        self.tscan_recommended = False
        self.empty = False
        self.span = trace.tracer.open(
            "scan",
            strategy="jscan",
            indexes=[candidate.index.name for candidate in candidates],
        )

    # -- cost model -----------------------------------------------------------

    def tscan_cost(self) -> float:
        """Cost of the fallback sequential scan."""
        return float(self.heap.page_count)

    def rid_fetch_cost(self, rid_count: float, rid_list: HybridRidList | None = None) -> float:
        """Estimated cost of the final stage for a RID list of given size.

        Yao's expected distinct pages for the sorted fetch, plus reading the
        spill pages back when the list lives in a temp table.
        """
        cost = yao_pages_touched(self.heap.page_count, self.heap.rows_per_page, int(rid_count))
        if rid_list is not None and rid_list.region is RidListRegion.SPILLED:
            cost += rid_count / 512.0  # temp-table page reads
        return cost

    def guaranteed_best_cost(self) -> float:
        """The cost of the best retrieval guaranteed available right now.

        Its inputs are the heap size and the installed filter, which change
        far less often than the switch rule runs (after every entry), so
        the value is kept until one of them changes.
        """
        pages = self.heap.page_count
        if pages != self._guaranteed_pages:
            best = self.tscan_cost()
            if self.dynamic_guaranteed_best and self._filter is not None:
                best = min(best, self.rid_fetch_cost(len(self._filter), self._filter))
            self._guaranteed = best
            self._guaranteed_pages = pages
        return self._guaranteed

    def _projection(self, scan: _IndexScan) -> float | None:
        """Projected final-retrieval cost from the list being built."""
        if not self.projection_enabled or scan.scanned == 0:
            return None
        estimate = scan.candidate.estimated_rids
        if estimate is None:
            return None
        fraction = scan.scanned / max(estimate, float(scan.scanned))
        if fraction < self.config.min_projection_fraction:
            return None
        projected_size = scan.kept / fraction
        return self.rid_fetch_cost(projected_size, scan.rid_list)

    # -- scan lifecycle ----------------------------------------------------------

    def _start_scan(self, candidate: JscanCandidate) -> _IndexScan:
        position = self._started
        self._started += 1
        scan = _IndexScan(
            candidate=candidate,
            cursor=candidate.index.btree.range_cursor(candidate.key_range, self.meter),
            rid_list=HybridRidList(
                self.buffer_pool, f"{self.name}:{candidate.index.name}", self.config
            ),
            position=position,
        )
        self.trace.emit(
            EventKind.SCAN_START,
            strategy="jscan-index",
            index=candidate.index.name,
            position=position,
        )
        self.trace.counters.scans_started += 1
        return scan

    def _maybe_start_partner(self) -> None:
        if (
            self.simultaneous
            and self._partner is None
            and self._active is not None
            and self._queue
        ):
            self._partner = self._start_scan(self._queue.pop(0))
            self.trace.emit(
                EventKind.SIMULTANEOUS_PAIR,
                active=self._active.name,
                partner=self._partner.name,
            )

    def _abandon_scan(self, scan: _IndexScan, reason: str) -> None:
        scan.rid_list.discard()
        self.abandoned_scans += 1
        self.trace.counters.scans_abandoned += 1
        self.trace.emit(
            EventKind.SCAN_ABANDONED,
            index=scan.name,
            reason=reason,
            scanned=scan.scanned,
            kept=scan.kept,
            scan_cost=round(scan.scan_cost, 2),
        )
        if scan is self._active:
            self._active = self._partner
            self._partner = None
        elif scan is self._partner:
            self._partner = None

    def _complete_scan(self, scan: _IndexScan) -> None:
        """A cursor exhausted: its list is the new running intersection."""
        if (
            scan is self._partner
            and scan.kept > 0
            and self._active.rid_list.region is RidListRegion.SPILLED
        ):
            # defensive: accepting a partner win would require refiltering
            # the active's list out of memory, which the paper rules out
            # (the _choose_scan freeze makes this unreachable in practice,
            # but installing the filter without the refilter would corrupt
            # results). Drop the partner's work; the previous filter stands.
            scan.rid_list.discard()
            self.abandoned_scans += 1
            self.trace.counters.scans_abandoned += 1
            self.trace.emit(
                EventKind.SCAN_ABANDONED, index=scan.name,
                reason="active-spilled-no-refilter", scanned=scan.scanned,
                kept=scan.kept, scan_cost=round(scan.scan_cost, 2),
            )
            self._partner = None
            return
        self.completed_scans += 1
        # the exhausted cursor walked its whole range: record the true
        # cardinality so selectivity feedback can sharpen later estimates
        scan.candidate.observed = scan.scanned
        self.trace.emit(
            EventKind.SCAN_COMPLETE,
            index=scan.name,
            scanned=scan.scanned,
            kept=scan.kept,
        )
        old_filter = self._filter
        self._filter = scan.rid_list
        self._guaranteed_pages = None  # new filter: recompute the bound
        self.trace.emit(
            EventKind.FILTER_BUILT,
            index=scan.name,
            rids=scan.kept,
            region=scan.rid_list.region.value,
        )
        if old_filter is not None:
            old_filter.discard()
        if scan.kept == 0:
            # empty intersection: no record can satisfy the conjunction
            self.empty = True
            self.result_list = scan.rid_list
            self.finished = True
            self.trace.emit(EventKind.RID_LIST_COMPLETE, rids=0, empty=True)
            return
        if scan is self._partner:
            # the partner finished first: dynamic reorder. The active scan's
            # partial list is refiltered in memory against the new filter.
            self.reorders += 1
            self.trace.emit(
                EventKind.REORDERED, winner=scan.name, continuing=self._active.name
            )
            new_filter = self._filter
            dropped = self._active.rid_list.refilter(new_filter.may_contain)
            self._active.kept -= dropped
            self.meter.charge_cpu(self.config.cpu_cost_per_entry * (self._active.kept + dropped))
            self._partner = None
        else:
            # active finished; partner (if any) is promoted and refiltered
            if self._partner is not None:
                new_filter = self._filter
                dropped = self._partner.rid_list.refilter(new_filter.may_contain)
                self._partner.kept -= dropped
                self.meter.charge_cpu(
                    self.config.cpu_cost_per_entry * (self._partner.kept + dropped)
                )
            self._active = self._partner
            self._partner = None

    # -- the step ------------------------------------------------------------------

    def _choose_scan(self) -> _IndexScan | None:
        """Alternate between active and partner; the pair pauses at the
        memory-buffer boundary ("the simultaneous scan ... does not
        continue beyond the memory buffer"): the partner stops advancing
        when its own list would spill, and also once the *active* list has
        spilled — a partner win would then require refiltering the active
        list out of memory, which is exactly what the paper rules out."""
        if self._partner is not None:
            partner_frozen = (
                len(self._partner.rid_list) >= self.config.allocated_rid_buffer_size
                or self._active.rid_list.region is RidListRegion.SPILLED
            )
            self._turn ^= 1
            if self._turn and not partner_frozen:
                return self._partner
        return self._active

    def _do_step(self) -> bool:
        if self._active is None:
            if not self._queue:
                return self._finalize()
            self._active = self._start_scan(self._queue.pop(0))
            self._maybe_start_partner()
        scan = self._choose_scan()
        assert scan is not None
        before = self.meter.total
        entry = scan.cursor.next_entry()
        if entry is None:
            scan.scan_cost += self.meter.total - before
            self._complete_scan(scan)
            if self.finished:
                return True
            if self._active is None:
                if not self._queue:
                    return self._finalize()
                self._active = self._start_scan(self._queue.pop(0))
            self._maybe_start_partner()
            return False
        _, rid = entry
        scan.scanned += 1
        self.trace.counters.index_entries_scanned += 1
        if self._filter is not None and not self._filter.may_contain(rid):
            self.trace.counters.rids_filtered_out += 1
        else:
            spills_before = scan.rid_list.spills
            scan.rid_list.add(rid, self.meter)
            if scan.rid_list.spills != spills_before:
                self.trace.emit(
                    EventKind.SPILL,
                    index=scan.name,
                    rids=len(scan.rid_list),
                    region=scan.rid_list.region.value,
                )
            scan.kept += 1
            if self.on_keep is not None:
                self.on_keep(rid, scan.position)
        scan.scan_cost += self.meter.total - before
        self._evaluate_criterion(scan)
        return self.finished

    def _evaluate_criterion(self, scan: _IndexScan) -> None:
        if self.static_rid_threshold is not None:
            # [MoHa90]-style static control: abandon when the list exceeds a
            # precomputed threshold; no dynamic readjustment
            if scan.kept > self.static_rid_threshold:
                self._abandon_scan(scan, "static-threshold")
            return
        guaranteed = self.guaranteed_best_cost()
        if self._prob_criterion is not None:
            if scan.scanned % self.config.probabilistic_check_interval:
                return
            from repro.competition.probabilistic import ScanEvidence

            estimate = scan.candidate.estimated_rids
            evidence = ScanEvidence(
                scanned=scan.scanned,
                kept=scan.kept,
                estimated_total=estimate if estimate is not None else float(scan.scanned),
                scan_cost=scan.scan_cost,
            )
            decision = self._prob_criterion.evaluate(evidence, guaranteed)
            projection = None
        else:
            projection = self._projection(scan)
            decision = self.criterion.evaluate(projection, scan.scan_cost, guaranteed)
        if decision is SwitchDecision.CONTINUE:
            return
        reason = (
            "projected-cost" if decision is SwitchDecision.ABANDON_PROJECTED else "scan-cost"
        )
        audit = self.trace.audit
        if audit.enabled:
            # the switch-criterion's inputs at the moment it fired: what
            # the scan had cost, what the projection said it would cost
            # (None when too little of the range was scanned to project),
            # and the guaranteed bound it lost to
            if self._prob_criterion is not None:
                projection = self._projection(scan)
            audit.decision(
                DecisionKind.STAGE_TRANSITION,
                chosen=f"abandon({scan.name})",
                reason=reason,
                scanned=scan.scanned,
                kept=scan.kept,
                scan_cost=round(scan.scan_cost, 2),
                guaranteed=round(guaranteed, 2),
                projection=None if projection is None else round(projection, 2),
            )
        self._abandon_scan(scan, reason)
        self._maybe_start_partner()

    def _finalize(self) -> bool:
        if self._filter is not None:
            self.result_list = self._filter
            self.trace.emit(
                EventKind.RID_LIST_COMPLETE,
                rids=len(self._filter),
                region=self._filter.region.value,
            )
        else:
            self.tscan_recommended = True
            self.trace.emit(EventKind.TSCAN_RECOMMENDED)
        return True

    def _on_abandon(self) -> None:
        for scan in (self._active, self._partner):
            if scan is not None:
                scan.rid_list.discard()
        if self._filter is not None and self._filter is not self.result_list:
            self._filter.discard()

    def next_batch(self, max_rids: int) -> list[tuple[RID, int]]:
        """Advance until up to ``max_rids`` new RIDs have been kept.

        Returns the newly kept ``(rid, scan_position)`` pairs, in keep
        order. Steps run through :meth:`run_batch`, so cost accounting and
        the two-stage switch decisions are identical to repeated
        :meth:`step` calls; an installed :attr:`on_keep` tap still fires for
        every kept RID. An empty list means the joint scan ended (finished,
        empty intersection, Tscan recommendation, or abandonment) without
        keeping more RIDs.
        """
        if max_rids < 1:
            raise ValueError("max_rids must be >= 1")
        kept: list[tuple[RID, int]] = []
        outer = self.on_keep

        def capture(rid: RID, position: int) -> None:
            kept.append((rid, position))
            if outer is not None:
                outer(rid, position)

        self.on_keep = capture
        try:
            while self.active and len(kept) < max_rids:
                self.run_batch(max_rids - len(kept))
        finally:
            self.on_keep = outer
        return kept

    # -- consuming the result ------------------------------------------------------

    def sorted_result(self, meter: CostMeter | None = None) -> list[RID]:
        """Materialize the final RID list, sorted for page-clustered fetch."""
        if self.result_list is None:
            raise RuntimeError("jscan produced no RID list")
        return self.result_list.sorted_rids(meter if meter is not None else self.meter)
