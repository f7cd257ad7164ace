"""In-memory span tracer around the package's public functions.

The tracer replaces every name a ``triplesys`` module binds to a traced
function with a wrapper, so calls made inside the package are recorded as
well as calls made from outside it.  Each traced call becomes one span:
(name, start, end, parent).  Spans live in flat arrays while the benchmark
runs and are written out at the end; self time is derived from them
afterwards, never inside the hot path.

Wrappers only record while ``active`` is set; otherwise they pass the call
straight through, so the benchmark's own output checks are not counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict


def _embedding_hit(counters, name, args, kwargs, result):
    if result is not None:
        counters[name + ".hits"] += 1


def _true_hit(counters, name, args, kwargs, result):
    if result:
        counters[name + ".hits"] += 1


def _file_bytes(counters, name, args, kwargs, result):
    counters[name + ".bytes"] += os.path.getsize(args[0])


def _decision_nodes(counters, name, args, kwargs, result):
    counters["search.nodes_explored"] += result[1]


def _local_steps(counters, name, args, kwargs, result):
    counters["search.local_steps"] += args[2] if len(args) > 2 else kwargs["budget"]


def _certificate(counters, name, args, kwargs, result):
    if type(result).__name__ == "StructureCertificate":
        counters["witness.structure_certificates"] += 1


def _nonzero_exit(counters, name, args, kwargs, result):
    if result != 0:
        counters["cli.exit_nonzero"] += 1


#: (module, attribute, span name, result hook).  A dotted attribute names a
#: method, patched on its class.  Every function here is public; anything
#: it calls that is not listed accrues to its self time.
TARGETS = (
    ("triplesys.cli", "main", "cli.main", _nonzero_exit),
    ("triplesys.fileio", "read_hypergraph", "fileio.read_hypergraph", _file_bytes),
    ("triplesys.fileio", "write_hypergraph", "fileio.write_hypergraph", None),
    ("triplesys.fileio", "dump_json", "fileio.dump_json", None),
    ("triplesys.core", "TripleSystem.__init__", "core.TripleSystem", None),
    ("triplesys.core", "min_positive_codegree", "core.min_positive_codegree", None),
    ("triplesys.core", "build_codegree_table", "core.build_codegree_table", None),
    ("triplesys.patterns", "Pattern.closing_pairs", "patterns.closing_pairs", None),
    ("triplesys.patterns", "search_maps", "patterns.search_maps", None),
    ("triplesys.patterns", "find_embedding", "patterns.find_embedding", _embedding_hit),
    ("triplesys.patterns", "embeds_through_edge", "patterns.embeds_through_edge", _true_hit),
    ("triplesys.search", "exact_copos_ex", "search.exact_copos_ex", None),
    ("triplesys.search", "decide_exists", "search.decide_exists", _decision_nodes),
    ("triplesys.search", "local_search_lower_bound", "search.local_search_lower_bound", _local_steps),
    ("triplesys.witness", "find_c5_witness", "witness.find_c5_witness", None),
    ("triplesys.witness", "find_c5minus_witness", "witness.find_c5minus_witness", None),
    ("triplesys.witness", "analyze_half_degree", "witness.analyze_half_degree", _certificate),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.active = False
        self.counters: dict[str, int] = defaultdict(int)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(SPAN_NAMES.index(span), original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(SPAN_NAMES.index(span), original, hook)
            for name, mod in list(sys.modules.items()):
                if name != "triplesys" and not name.startswith("triplesys."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name_id: int, fn, hook):
        tracer = self
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters
        span = SPAN_NAMES[name_id]
        facts = span == "witness.analyze_half_degree"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if facts and kwargs.get("on_fact") is not None:
                kwargs["on_fact"] = _counting(kwargs["on_fact"], counters)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, span, args, kwargs, result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """A position to summarize from: span count and a counter snapshot."""
        return len(self.span_name), dict(self.counters)

    def summarize(self, since: tuple[int, dict[str, int]]):
        """Counts, self times and inclusive times of the spans after ``since``."""
        first, before = since
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        total = len(names)
        child = [0.0] * (total - first)
        for i in range(first, total):
            p = parents[i]
            if p >= first:
                child[p - first] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        whole = [0.0] * len(SPAN_NAMES)
        for i in range(first, total):
            nid = names[i]
            calls[nid] += 1
            whole[nid] += ends[i] - starts[i]
            self_s[nid] += ends[i] - starts[i] - child[i - first]
        counts = {f"{n}.calls": calls[i] for i, n in enumerate(SPAN_NAMES)}
        for key, value in self.counters.items():
            counts[key] = value - before.get(key, 0)
        times = {f"{n}.s": self_s[i] for i, n in enumerate(SPAN_NAMES)}
        inclusive = {f"{n}.s": whole[i] for i, n in enumerate(SPAN_NAMES)}
        return counts, times, inclusive

    def write(self, path: str) -> None:
        """Header line (JSON), then the four span arrays in native byte order."""
        header = {
            "names": list(SPAN_NAMES),
            "spans": len(self.span_name),
            "arrays": ["name:H", "start:d", "end:d", "parent:i"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("ascii"))
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)


def _counting(callback, counters):
    def on_fact(name):
        counters["witness.facts_exercised"] += 1
        return callback(name)

    return on_fact
