"""Brute-force row oracle and the decision/I-O digest.

The oracle keeps its own in-memory copy of EVENTS, including the rows the
benchmark inserted, and evaluates every predicate over all of it with
NumPy. A statement that ran while another session's INSERT committed may
or may not see those rows, so each SELECT is checked against two states:
every matching row that existed when it was submitted must be returned,
and every returned row must be a matching row that existed when it
finished, without duplicates. ``limit to N rows`` must return
``min(N, matches)`` such rows.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import ROWS, Statement, event_row

_COLUMNS = {"*": slice(0, 4), "ID": slice(0, 1)}


class EventsCopy:
    """Append-only column store mirroring EVENTS (one array row per column)."""

    def __init__(self, capacity: int = ROWS * 2) -> None:
        self.data = np.zeros((4, capacity), dtype=np.int64)
        self.count = 0
        self.append([event_row(i) for i in range(ROWS)])

    def append(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        need = self.count + len(rows)
        if need > self.data.shape[1]:
            grown = np.zeros((4, max(need, 2 * self.data.shape[1])), dtype=np.int64)
            grown[:, : self.count] = self.data[:, : self.count]
            self.data = grown
        self.data[:, self.count:need] = rows.T
        self.count = need

    def matching(self, pred: tuple, upto: int) -> np.ndarray:
        """Rows among the first ``upto`` that satisfy ``pred``, one per row."""
        data = self.data[:, :upto]
        ids, v, w, p = data
        kind = pred[0]
        if kind == "id_between":
            mask = (ids >= pred[1]) & (ids <= pred[2])
        elif kind == "w_between":
            mask = (w >= pred[1]) & (w <= pred[2])
        elif kind == "v_between_w_lt":
            mask = (v >= pred[1]) & (v <= pred[2]) & (w < pred[3])
        elif kind == "p_lt":
            mask = p < pred[1]
        else:
            raise ValueError(f"unknown predicate {pred!r}")
        return data[:, np.flatnonzero(mask)].T


#: every column but ID is below 1,000, so a row packs into one integer
_FIELD_BITS = 10
_ID_LIMIT = 1 << (63 - 3 * _FIELD_BITS)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One integer per row, equal exactly when the rows are equal; rows
    outside the columns' value ranges must be filtered out first."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    keys = rows[:, 0].copy()
    for column in range(1, 4):
        keys <<= _FIELD_BITS
        keys |= rows[:, column]
    return keys


def _in_range(rows: np.ndarray) -> np.ndarray:
    if rows.shape[1] == 1:
        return np.ones(len(rows), dtype=bool)
    return ((rows[:, 0] >= 0) & (rows[:, 0] < _ID_LIMIT)
            & ((rows[:, 1:] >= 0) & (rows[:, 1:] < 1 << _FIELD_BITS)).all(axis=1))


def check(copy: EventsCopy, statement: Statement, values, width: int,
          seen_at_submit: int, seen_at_done: int) -> str | None:
    """Return a description of the mismatch, or None when the rows, given
    flattened as ``values`` with ``width`` columns, are right."""
    cols = _COLUMNS[statement.columns]
    got_rows = np.frombuffer(values, dtype=np.int64).reshape(-1, width)
    outside = ~_in_range(got_rows)
    if outside.any():
        return (f"{int(outside.sum())} rows outside the predicate, "
                f"e.g. {tuple(got_rows[outside][0].tolist())}")
    required_rows = copy.matching(statement.pred, seen_at_submit)[:, cols]
    required_keys = _keys(required_rows).tolist()
    required = set(required_keys)
    allowed = required
    if seen_at_done > seen_at_submit:
        allowed = set(_keys(copy.matching(statement.pred, seen_at_done)[:, cols]).tolist())
    got_keys = _keys(got_rows).tolist()
    got = set(got_keys)
    if len(got) != len(got_keys):
        return f"{len(got_keys) - len(got)} duplicate rows"
    stray = got - allowed
    if stray:
        first = got_keys.index(min(stray))
        return (f"{len(stray)} rows outside the predicate, "
                f"e.g. {tuple(got_rows[first].tolist())}")
    if statement.limit is not None:
        want = min(statement.limit, len(required))
        if not want <= len(got) <= min(statement.limit, len(allowed)):
            return f"limit: got {len(got)} rows, expected {want}"
        return None
    missing = required - got
    if missing:
        first = required_keys.index(min(missing))
        return (f"{len(missing)} rows missing, "
                f"e.g. {tuple(required_rows[first].tolist())}")
    return None


def statement_line(record) -> dict:
    """The per-statement entry of the decision log (rows hashed in sorted
    order, so a change of delivery order alone does not show)."""
    rows = sorted(record.rows or [])
    rows_hash = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return {
        "seq": record.statement.seq,
        "class": record.statement.cls,
        "session": record.session,
        "rows": len(rows) if record.values is not None else record.rowcount,
        "rows_sha": rows_hash,
        "io": record.total_io,
        "plans": record.descriptions,
        "decisions": record.decisions,
        "error": record.error,
    }


def digest(lines: list[dict]) -> str:
    """One hash over the per-statement decision log."""
    h = hashlib.sha256()
    for line in lines:
        h.update(json.dumps(line, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:20]
