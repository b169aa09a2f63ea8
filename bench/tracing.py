"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: wrappers replace the
library's public functions at module boundaries for the duration of a traced
op or set-up and are removed afterwards.  No source file of the library is
edited, and an untraced run installs nothing.

A span has a name, the root it belongs to (one op or one set-up, shared by all
its spans), a parent, a start, an end and a self time: its duration minus the
time its children cover.  Calls too frequent to record one by one
(per-instance overlap calls, protocol encodes, message checks) are folded into
one record per name and parent, with a call count and their summed time.
Self times therefore add up exactly to the root's duration, and the root's own
self time is the work no wrapper covers.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from sketchbench import agm, lbgraph, mincut, model, overlap, reduction, setfam


class _Frame:
    __slots__ = ("id", "name", "start", "child_s", "mark", "claimed")

    def __init__(self, span_id: int, name: str, mark: dict):
        self.id = span_id
        self.name = name
        self.mark = mark  # folded-call totals when the span opened
        self.claimed: dict[str, list] = {}  # folded-call totals accrued inside child spans
        self.child_s = 0.0
        self.start = perf_counter()


class Tracer:
    """In-memory span recorder; ``spans`` is written out when the run ends.

    Folded calls only bump a running total per name (see ``fold``), which keeps
    them cheap; a span takes the totals accrued while it was open, minus those
    accrued inside its child spans, as its own folded children.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[_Frame] = []
        self._root_id: str | None = None
        self._counts: dict[str, float] = {}
        self._mins: dict[str, float] = {}
        self._cells: dict[str, list] = {}
        self._next_id = 0

    def _frame(self, name: str) -> _Frame:
        mark = {key: tuple(cell) for key, cell in self._cells.items()}
        frame = _Frame(self._next_id, name, mark)
        self._next_id += 1
        self._open.append(frame)
        return frame

    @property
    def root_id(self) -> str | None:
        return self._root_id

    @contextmanager
    def root(self, root_id: str, name: str):
        """Open the root span of one op or set-up; every span inside shares ``root_id``."""
        if self._open:
            raise RuntimeError(f"root {root_id!r} opened inside span {self._open[-1].name!r}")
        self._root_id = root_id
        self._counts = defaultdict(float)
        self._mins = {}
        frame = self._frame(name)
        try:
            yield
        finally:
            self.exit(frame).update(counts=dict(self._counts), mins=dict(self._mins))
            self._root_id = None

    def enter(self, name: str) -> _Frame:
        if not self._open:
            raise RuntimeError(f"span {name!r} opened outside a root")
        return self._frame(name)

    def exit(self, frame: _Frame) -> dict:
        end = perf_counter()
        if self._open.pop() is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        parent = self._open[-1] if self._open else None
        folded = []
        for name, (calls, secs) in self._cells.items():
            calls0, secs0 = frame.mark.get(name, (0, 0.0))
            inner_calls, inner_secs = frame.claimed.get(name, (0, 0.0))
            if calls - calls0 - inner_calls:
                folded.append((name, calls - calls0 - inner_calls, secs - secs0 - inner_secs))
            if parent is not None and calls != calls0:
                claimed = parent.claimed.setdefault(name, [0, 0.0])
                claimed[0] += calls - calls0
                claimed[1] += secs - secs0
        duration = end - frame.start
        record = {
            "id": frame.id,
            "root": self._root_id,
            "parent": None if parent is None else parent.id,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "self_s": duration - frame.child_s - sum(secs for _, _, secs in folded),
            "calls": 1,
        }
        self.spans.append(record)
        for name, calls, secs in folded:
            self.spans.append(
                {
                    "id": self._next_id,
                    "root": self._root_id,
                    "parent": frame.id,
                    "name": name,
                    "start": None,
                    "end": None,
                    "self_s": secs,
                    "calls": calls,
                }
            )
            self._next_id += 1
        if parent is not None:
            parent.child_s += duration
        return record

    def cell(self, name: str) -> list:
        """Running [calls, seconds] of the folded calls named ``name``."""
        return self._cells.setdefault(name, [0, 0.0])

    def count(self, name: str, value: float = 1) -> None:
        self._counts[name] += value

    def note_min(self, name: str, value: float) -> None:
        if name not in self._mins or value < self._mins[name]:
            self._mins[name] = value

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]


def span(tracer: Tracer, name: str, fn):
    """``fn`` recorded as one span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def fold(tracer: Tracer, name: str, fn):
    """``fn`` folded into its caller's span: summed time and a call count.

    ``fn`` must call no other wrapped function, or that time is counted twice.
    """
    cell = tracer.cell(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            cell[1] += perf_counter() - start
            cell[0] += 1

    return wrapper


def observed(fn, note):
    """``fn`` followed by ``note(result, *args)``, which records counts."""

    @functools.wraps(fn)
    def wrapper(*args):
        result = fn(*args)
        note(result, *args)
        return result

    return wrapper


def traced_protocol(tracer: Tracer, protocol):
    """A copy of a sketching protocol whose encoder is counted and timed."""
    return dataclasses.replace(protocol, encode=fold(tracer, "protocols.encode", protocol.encode))


class Instrumentation:
    """Every module-boundary wrapper of the traced run, swapped in as a set."""

    def __init__(self, tracer: Tracer):
        t = tracer

        def cut(result, graph):
            t.count("mincut.calls")
            t.count("mincut.zero_cuts", result.value == 0)

        def certificate_cut(result, graph):
            cut(result, graph)
            t.count("agm.certificate_edges", graph.edge_slot_count())
            t.count("agm.certificate_mult", sum(m for _, _, m in graph.edges()))

        def encode_first_apart(fn):
            first, rest = span(t, "agm.encode_first", fn), fold(t, "agm.encode", fn)
            seen = set()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if t.root_id in seen:
                    return rest(*args, **kwargs)
                seen.add(t.root_id)
                return first(*args, **kwargs)

            return wrapper

        def spanned(name, note=None):
            if note is None:
                return lambda fn: span(t, name, fn)
            return lambda fn: observed(span(t, name, fn), note)

        def folded(name):
            return lambda fn: fold(t, name, fn)

        plan = [
            (model, "execute", spanned("model.execute")),
            (model, "check_bits", folded("model.check_bits")),
            (agm, "agm_encode", encode_first_apart),
            (agm, "agm_decide_kconn", spanned("agm.decode")),
            (agm, "global_min_cut", spanned("agm.certificate_cut", certificate_cut)),
            (mincut, "is_k_edge_connected", spanned("mincut.oracle")),
            (mincut, "global_min_cut", lambda fn: observed(fn, cut)),
            (lbgraph, "random_spec", spanned("lbgraph.random_spec")),
            (lbgraph, "build_lb_graph", spanned("lbgraph.build")),
            (reduction, "build_lb_graph", spanned("lbgraph.build")),
            (reduction, "execute", spanned("model.execute")),
            (reduction, "choose_partition", spanned("setfam.choose_partition")),
            (reduction, "alice_messages", spanned("reduction.alice")),
            (reduction, "bob_messages", spanned("reduction.bob")),
            (reduction, "charlie_messages", spanned("reduction.charlie")),
            (reduction, "charlie_decide", spanned("reduction.referee")),
            (reduction, "build_compatible_graph", spanned("reduction.compatible_graph")),
            (setfam, "message_partitions", spanned("setfam.message_partitions")),
            (
                setfam,
                "common_block",
                spanned("setfam.common_block", lambda block, *_: t.note_min("setfam.block_size", len(block))),
            ),
            (
                setfam,
                "find_separated_pair",
                spanned("setfam.find_separated_pair", lambda pair, *_: t.count("setfam.pinned", pair is not None)),
            ),
            (setfam, "verify_record", spanned("setfam.verify_record")),
            (overlap, "build_blocks", spanned("overlap.build_blocks")),
            (overlap, "appb_encode", folded("overlap.encode")),
            (overlap, "answer", folded("overlap.answer")),
        ]
        self.patches = [
            (module, attr, getattr(module, attr), make(getattr(module, attr)))
            for module, attr, make in plan
        ]

    @contextmanager
    def installed(self):
        """The wrappers in place for the duration of the block, the originals after it."""
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self.patches:
                setattr(module, attr, original)


#: Per-layer metrics read off the spans: (metric, phase, span or counter name,
#: statistic).  A "self" or "calls" statistic sums the named spans of one
#: root; "count" reads a root's counter, "min" its minimum.  Each value is the
#: mean over the phase's traced roots ("min": the minimum), so a time is
#: seconds per op or per set-up.
LAYER_METRICS = (
    ("agm.encode_first_s", "op", "agm.encode_first", "self"),
    ("agm.encode_s", "op", "agm.encode", "self"),
    ("model.check_bits_s", "op", "model.check_bits", "self"),
    ("model.execute_s", "op", "model.execute", "self"),
    ("agm.decode_s", "op", "agm.decode", "self"),
    ("agm.certificate_cut_s", "op", "agm.certificate_cut", "self"),
    ("agm.certificate_edges", "op", "agm.certificate_edges", "count"),
    ("agm.certificate_mult", "op", "agm.certificate_mult", "count"),
    ("mincut.oracle_s", "op", "mincut.oracle", "self"),
    ("mincut.calls", "op", "mincut.calls", "count"),
    ("mincut.zero_cuts", "op", "mincut.zero_cuts", "count"),
    ("lbgraph.random_spec_s", "op", "lbgraph.random_spec", "self"),
    ("lbgraph.build_s", "op", "lbgraph.build", "self"),
    ("setfam.choose_partition_s", "setup", "setfam.choose_partition", "self"),
    ("setfam.message_partitions_s", "setup", "setfam.message_partitions", "self"),
    ("setfam.common_block_s", "setup", "setfam.common_block", "self"),
    ("setfam.find_separated_pair_s", "setup", "setfam.find_separated_pair", "self"),
    ("setfam.verify_record_s", "setup", "setfam.verify_record", "self"),
    ("setfam.block_size.min", "setup", "setfam.block_size", "min"),
    ("protocols.encode_s", "setup", "protocols.encode", "self"),
    ("protocols.encode_calls", "setup", "protocols.encode", "calls"),
    ("reduction.alice_s", "op", "reduction.alice", "self"),
    ("reduction.bob_s", "op", "reduction.bob", "self"),
    ("reduction.charlie_s", "op", "reduction.charlie", "self"),
    ("reduction.referee_s", "op", "reduction.referee", "self"),
    ("reduction.compatible_graph_s", "op", "reduction.compatible_graph", "self"),
    ("reduction.encode_s", "op", "protocols.encode", "self"),
    ("reduction.encode_calls", "op", "protocols.encode", "calls"),
    ("reduction.charlie_calls", "op", "reduction.charlie", "calls"),
    ("overlap.build_blocks_s", "setup", "overlap.build_blocks", "self"),
    ("overlap.enumerate_s", "op", "overlap.enumerate", "self"),
    ("overlap.encode_s", "op", "overlap.encode", "self"),
    ("overlap.decode_s", "op", "overlap.decode", "self"),
    ("overlap.answer_s", "op", "overlap.answer", "self"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value, plus the traced op time and the part no span covers."""
    per_root: dict[str, list[dict]] = defaultdict(list)
    for s in tracer.spans:
        per_root[s["root"]].append(s)
    phases = {"op": tracer.roots("op"), "setup": tracer.roots("setup")}

    def value(root: dict, source: str, stat: str) -> float:
        if stat == "count":
            return root["counts"].get(source, 0.0)
        if stat == "min":
            return root["mins"].get(source, 0.0)
        field = "self_s" if stat == "self" else "calls"
        return sum(s[field] for s in per_root[root["root"]] if s["name"] == source and s is not root)

    out = {}
    for metric, phase, source, stat in LAYER_METRICS:
        values = [value(root, source, stat) for root in phases[phase]]
        if not values:
            out[metric] = 0.0
        elif stat == "min":
            out[metric] = min(values)
        else:
            out[metric] = statistics.fmean(values)
    ops = phases["op"]
    out["bench.op_s"] = statistics.fmean(r["end"] - r["start"] for r in ops) if ops else 0.0
    out["bench.unattributed_s"] = statistics.fmean(r["self_s"] for r in ops) if ops else 0.0
    return out
