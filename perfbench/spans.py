"""Spans around the public functions of each ``heffter`` module.

The tracer wraps functions where their caller looks them up (for example
``heffter.cli.verify_heffter`` and ``heffter.merge.build_h3_base``), so no
file of the package changes.  Spans stay in memory until the run ends; the
runner writes them out as JSON lines and ``layer_metrics`` turns them into
the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


# Work counters get the call's arguments and its result (None if it raised).
def _entries(args, result):
    return len(args[0].entries)


def _edges(args, result):
    return 0 if result is None else len(result.edge_index)


def _text_out(args, result):
    return 0 if result is None else len(result)


def _text_in(args, result):
    return len(args[0])


def _first_arg(args, result):
    return args[0]


# span name -> (patch sites as "module.attr" or "module:Class.attr", work counter)
PATCHES = {
    "grid.line_cells": (["heffter.grid:HeffterGrid.line_cells"], None),
    "grid.line_sum": (["heffter.grid:HeffterGrid.line_sum"], None),
    "grid.partial_sums": (["heffter.verify.partial_sums", "heffter.decompose.partial_sums"],
                          None),
    "verify.verify_heffter": (["heffter.cli.verify_heffter", "heffter.merge.verify_heffter"],
                              _entries),
    "verify.verify_integer": (["heffter.cli.verify_integer", "heffter.merge.verify_integer"],
                              _entries),
    "verify.verify_globally_simple": (["heffter.cli.verify_globally_simple",
                                       "heffter.merge.verify_globally_simple"], _entries),
    "verify.verify_support_shifted": (["heffter.cli.verify_support_shifted"], _entries),
    "gridio.grid_to_text": (["heffter.cli.grid_to_text"], _text_out),
    "gridio.grid_from_text": (["heffter.gridio.grid_from_text"], _text_in),
    "construct4p.build_h4p": (["heffter.construct4p.build_h4p"], None),
    "shifted.build_shifted": (["heffter.shifted.build_shifted", "heffter.merge.build_shifted"],
                              None),
    "h3.build_h3_base": (["heffter.merge.build_h3_base"], _first_arg),
    "h3.relocate_h3": (["heffter.merge.relocate_h3"], None),
    "h3.cyclic_shift": (["heffter.merge.cyclic_shift"], None),
    "merge.build_h4p3": (["heffter.merge.build_h4p3"], None),
    "decompose.base_cycle": (["heffter.decompose.base_cycle"], None),
    "decompose.develop": (["heffter.decompose.develop"], _edges),
    "decompose.orthogonality": (["heffter.decompose.orthogonality"], None),
    "decompose.write_system": (["heffter.decompose.write_system"], None),
    "decompose.read_system": (["heffter.decompose.read_system"], _edges),
}

VERIFY_SPANS = ("verify.verify_heffter", "verify.verify_integer",
                "verify.verify_globally_simple", "verify.verify_support_shifted")


class Tracer:
    """Records spans [id, parent, request, name, start, end, ok, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self._request, name, time.perf_counter(), None, True, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def request(self, request_id: int, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one request."""
        self._request = request_id
        span = self._open(name)
        try:
            return fn(*args)
        except BaseException:
            span[6] = False
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[6] = False
                raise
            finally:
                self._close(span)
                if count is not None:
                    span[7] = count(args, result)
        return traced

    def install(self, patches=PATCHES) -> None:
        for name, (sites, count) in patches.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "req", "name", "start", "end", "ok", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _resolve(site: str) -> tuple[object, str]:
    if ":" in site:
        module, rest = site.split(":")
        cls, attr = rest.split(".")
        return getattr(importlib.import_module(module), cls), attr
    module, attr = site.rsplit(".", 1)
    return importlib.import_module(module), attr


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def request_balance(spans: list[dict], own: dict[int, float]) -> float:
    """Largest |sum of self times - root duration| over the requests."""
    total = defaultdict(float)
    root = {}
    for s in spans:
        total[s["req"]] += own[s["id"]]
        if s["parent"] is None:
            root[s["req"]] = s["end"] - s["start"]
    return max((abs(total[r] - root[r]) for r in root), default=0.0)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        group = by_name.get(name, [])
        return sum(s["end"] - s["start"] for s in group), len(group)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str, int]] = {}
    for name in ("grid.line_cells", "grid.line_sum", "grid.partial_sums"):
        seconds, count = total(name)
        out[f"{name}.calls"] = (count, "count", count)
        out[f"{name}.s"] = (seconds, "s", count)
    for name in VERIFY_SPANS + ("gridio.grid_to_text", "gridio.grid_from_text",
                                "construct4p.build_h4p", "shifted.build_shifted"):
        seconds, count = total(name)
        out[f"{name}.s"] = (seconds, "s", count)

    verify = [s for name in VERIFY_SPANS for s in by_name.get(name, [])]
    busy = sum(s["end"] - s["start"] for s in verify)
    out["verify.cells_per_s"] = (ratio(sum(s["count"] for s in verify), busy), "1/s", len(verify))
    io = by_name.get("gridio.grid_to_text", []) + by_name.get("gridio.grid_from_text", [])
    out["gridio.bytes"] = (sum(s["count"] for s in io), "bytes", len(io))

    h3 = by_name.get("h3.build_h3_base", [])
    seconds, count = total("h3.build_h3_base")
    out["h3.build_h3_base.calls"] = (count, "count", count)
    out["h3.build_h3_base.s"] = (seconds, "s", count)
    out["h3.build_h3_base.failed"] = (sum(not s["ok"] for s in h3), "count", count)
    out["h3.repeat_ratio"] = (ratio(count, len({s["count"] for s in h3})), "ratio", count)
    for name in ("h3.relocate_h3", "h3.cyclic_shift"):
        seconds, count = total(name)
        out[f"{name}.s"] = (seconds, "s", count)

    merges = by_name.get("merge.build_h4p3", [])
    out["merge.build_h4p3.self_s"] = (sum(own[s["id"]] for s in merges), "s", len(merges))

    def inside_merge(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "merge.build_h4p3":
                return True
        return False

    full = sum(inside_merge(s) for s in by_name.get("verify.verify_globally_simple", []))
    out["merge.full_verify_calls"] = (full, "count", full)
    accepted = sum(s["ok"] for s in merges)
    out["merge.accept_ratio"] = (ratio(accepted, full), "ratio", full)

    for name in ("decompose.base_cycle", "decompose.develop", "decompose.orthogonality",
                 "decompose.write_system", "decompose.read_system"):
        seconds, count = total(name)
        out[f"{name}.s"] = (seconds, "s", count)
    indexed = by_name.get("decompose.develop", []) + by_name.get("decompose.read_system", [])
    out["decompose.edges_indexed"] = (sum(s["count"] for s in indexed), "count", len(indexed))

    for command in ("construct", "verify", "decompose", "orthogonality"):
        roots = by_name.get(f"cli.{command}", [])
        out[f"cli.{command}.self_s"] = (sum(own[s["id"]] for s in roots), "s", len(roots))
    return out
