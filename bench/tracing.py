"""Spans around calls into trifuse's public functions, from outside the program.

``Tracer.install()`` replaces every module or class attribute in the
``trifuse`` package that refers to a traced function with a wrapper (for
example both ``trifuse.fusion.extract_patch`` and the name ``fusion``
imported from ``volume``), so every call reaches the wrapper whatever name
the caller used. ``uninstall()`` puts the originals back, so untraced passes
run the program unmodified.

A span is ``(target, start, end, parent, op, extra)``: the traced function,
``time.perf_counter`` bounds, the index of the enclosing span (-1 for a
root), the operation it ran under, and an exact work count taken from the
call's arguments or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fileio", "fusion", "froc", "sweeps", "readerstats", "reportlink", "volume")


def _len0(args, kwargs, result):
    return len(result)


def _match_rows(args, kwargs, result):
    return sum(len(table) for table in result.values())


def _file_size(args, kwargs, result):
    return os.path.getsize(result)


def _fuse_counts(args, kwargs, result):
    a = args[0] if len(args) > 0 else kwargs["candidates_a"]
    b = args[1] if len(args) > 1 else kwargs["candidates_b"]
    return (len(a) + len(b), len(result.fused))


def _pair_tests(args, kwargs, result):
    a = args[0] if len(args) > 0 else kwargs["list_a"]
    b = args[1] if len(args) > 1 else kwargs["list_b"]
    return len(a) * len(b)


def _nbytes(args, kwargs, result):
    return int(result.values.nbytes)


# traced public function -> (role, extra count from (args, kwargs, result) or None).
# Only functions the workloads reach are traced; a function called only from
# its own layer adds no attribution and is left out (its time is its caller's).
TARGETS = {
    "cli.main": ("root", None),
    "fileio.read_candidates": ("read", _len0),
    "fileio.read_references": ("read", _len0),
    "fileio.read_cadx_scores": ("read", _len0),
    "fileio.read_reports": ("read", _len0),
    "fileio.read_fused": ("read", _len0),
    "fileio.read_match_files": ("read", _match_rows),
    "fileio.write_csv": ("write", None),
    "fileio.write_fused_csv": ("write", None),
    "fileio.write_matches_csv": ("write", None),
    "fileio.write_cade_sweep_csv": ("write", None),
    "fileio.write_consensus_csv": ("write", None),
    "fileio.write_semantic_csv": ("write", None),
    "fileio.write_entities_csv": ("write", None),
    "fileio.write_entity_matches_csv": ("write", None),
    "fileio.write_json": ("write", None),
    "fileio.atomic_write_text": ("write", _file_size),
    "fileio.build_manifest": ("manifest", None),
    "fileio.write_manifest": ("manifest", None),
    "fusion.fuse_scans": ("fuse", _fuse_counts),
    "fusion.suppress_same_model_duplicates": ("dedup", None),
    "fusion.cross_detector_consensus": ("consensus", _pair_tests),
    "fusion.FileCadxProvider.__call__": ("cadx", None),
    "fusion.CommandCadxProvider.__call__": ("scorer", None),
    "volume.load_volume": ("load", _nbytes),
    "volume.centroid_in_lung": ("gate", None),
    "volume.label_at": ("label", None),
    "volume.extract_patch": ("patch", None),
    "volume.save_patch": ("save_patch", None),
    "froc.evaluate": ("evaluate", None),
    "froc.stratified_eval": ("stratified", None),
    "froc.match_lesions": ("match", None),
    "froc.froc_curve": ("curve", None),
    "froc.detection_probability_summary": ("summary", None),
    "sweeps.sweep_cade": ("sweep", _len0),
    "readerstats.detected_vs_missed_table": ("table", None),
    "readerstats.mann_whitney_u": ("rank_test", None),
    "reportlink.extract_entities": ("extract", _len0),
    "reportlink.match_entities": ("link_match", None),
    "reportlink.lobe_of_candidate": ("lobe", None),
}
NAMES = tuple(TARGETS)


class TraceTargetMissing(RuntimeError):
    """A traced public function no longer exists under its name."""


class TraceTargetUnreached(RuntimeError):
    """An operation that must reach a traced function recorded no call to it."""


class Tracer:
    """Installs the wrappers, owns the spans and counts garbage collections."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._gc_start = 0.0
        self.gc_seconds = 0.0
        self.gc_collections = 0

    def _wrapper(self, index: int, fn, extra):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (index, t0, t1, parent, tracer.op, 0)
            if extra is not None:
                spans[sid] = (index, t0, t1, parent, tracer.op, extra(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _resolve(self, name: str):
        module_name, _, attr = name.partition(".")
        module = sys.modules.get(f"trifuse.{module_name}")
        owner, _, leaf = attr.rpartition(".")
        obj = module
        for part in owner.split(".") if owner else ():
            obj = getattr(obj, part, None)
        fn = getattr(obj, leaf, None) if obj is not None else None
        if module is None or not callable(fn):
            raise TraceTargetMissing(f"trifuse.{name} is missing; update bench/tracing.py TARGETS")
        return obj, leaf, fn

    def install(self) -> None:
        """Wrap every traced function and start a fresh set of spans and GC totals."""
        self.spans.clear()
        self.gc_seconds = 0.0
        self.gc_collections = 0
        originals = {}
        for index, name in enumerate(NAMES):
            owner, leaf, fn = self._resolve(name)
            wrapper = self._wrapper(index, fn, TARGETS[name][1])
            originals[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._patches.append((owner, leaf, fn, wrapper))
        # every module attribute that refers to a traced function, under any name
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "trifuse" or mod_name.startswith("trifuse.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def check_reach(spans, ops) -> None:
    """Raise TraceTargetUnreached if an operation missed a function it must call."""
    seen = defaultdict(set)
    for span in spans:
        seen[span[4]].add(NAMES[span[0]])
    for index, op in enumerate(ops):
        missing = [name for name in op["expects"] if name not in seen[index]]
        if missing:
            raise TraceTargetUnreached(
                f"operation {op['name']!r} recorded no call to "
                + ", ".join(f"trifuse.{m}" for m in missing)
            )


METRIC_NAMES = (
    *(f"{layer}.self_s" for layer in LAYERS),
    "fileio.read_s", "fileio.rows_read", "fileio.write_s", "fileio.bytes_written",
    "fileio.manifest_s", "fusion.candidates_in", "fusion.fused_out", "fusion.consensus_s",
    "fusion.pair_tests", "fusion.dedup_s", "fusion.cadx_calls", "fusion.cadx_s",
    "fusion.scorer_wait_s", "volume.load_s", "volume.loads", "volume.bytes_loaded",
    "volume.gate_s", "volume.gate_calls", "volume.patch_s", "volume.patches",
    "volume.patches_per_s", "volume.save_patch_s", "froc.match_s", "froc.match_calls",
    "froc.curve_s", "froc.curve_calls", "froc.evaluate_self_s", "sweeps.sweep_s", "sweeps.rows",
    "readerstats.rank_tests", "reportlink.extract_s", "reportlink.entities",
    "reportlink.match_s", "reportlink.match_calls", "runtime.gc_s", "runtime.gc_collections",
    "trace.self_sum_s", "trace.spans",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and exact counts from the spans of one pass."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    roles = [TARGETS[NAMES[s[0]]][0] for s in spans]
    m: dict[str, float] = dict.fromkeys(METRIC_NAMES, 0)
    nested_write = {"write", "manifest"}
    for i, (index, t0, t1, parent, _, extra) in enumerate(spans):
        name = NAMES[index]
        role = roles[i]
        dur = t1 - t0
        self_time = dur - child[i]
        m[f"{name.split('.')[0]}.self_s"] += self_time
        top = parent < 0 or roles[parent] != role
        if role == "read":
            m["fileio.read_s"] += dur
            m["fileio.rows_read"] += extra
        elif role == "write":
            if parent < 0 or roles[parent] not in nested_write:
                m["fileio.write_s"] += dur
            m["fileio.bytes_written"] += extra
        elif role == "manifest" and top:
            m["fileio.manifest_s"] += dur
        elif role == "fuse":
            m["fusion.candidates_in"] += extra[0]
            m["fusion.fused_out"] += extra[1]
        elif role == "consensus":
            m["fusion.consensus_s"] += dur
            m["fusion.pair_tests"] += extra
        elif role == "dedup":
            m["fusion.dedup_s"] += dur
        elif role in ("cadx", "scorer"):
            m["fusion.cadx_calls"] += 1
            m["fusion.cadx_s"] += dur
            if role == "scorer":
                m["fusion.scorer_wait_s"] += self_time
        elif role == "load":
            m["volume.load_s"] += dur
            m["volume.loads"] += 1
            m["volume.bytes_loaded"] += extra
        elif role == "gate":
            m["volume.gate_s"] += dur
            m["volume.gate_calls"] += 1
        elif role == "patch":
            m["volume.patch_s"] += dur
            m["volume.patches"] += 1
        elif role == "save_patch":
            m["volume.save_patch_s"] += dur
        elif role == "match":
            m["froc.match_s"] += dur
            m["froc.match_calls"] += 1
        elif role == "curve":
            m["froc.curve_s"] += dur
            m["froc.curve_calls"] += 1
        elif role == "evaluate":
            m["froc.evaluate_self_s"] += self_time
        elif role == "sweep":
            m["sweeps.sweep_s"] += dur
            m["sweeps.rows"] += extra
        elif role == "rank_test":
            m["readerstats.rank_tests"] += 1
        elif role == "extract":
            m["reportlink.extract_s"] += dur
            m["reportlink.entities"] += extra
        elif role == "link_match":
            m["reportlink.match_s"] += dur
            m["reportlink.match_calls"] += 1
    patch_s = m["volume.patch_s"]
    m["volume.patches_per_s"] = m["volume.patches"] / patch_s if patch_s > 0 else 0.0
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.spans"] = len(spans)
    return m
