"""The trifuse process of one benchmark run.

Started by ``run.py`` with a JSON job file. It imports trifuse from the
checkout's ``src/``, runs one untimed warm-up pass on the small warm-up
cohort, prints ``ready`` on its protocol stream, and, unless the job is a
set-up probe, runs timed passes of the workload's operations through
``trifuse.cli.main(argv)`` until the run's time is spent. Between passes it
collects garbage and hashes every operation's outputs; garbage collection,
hashing and the temp-directory census stay outside the timed region. Every
operation of a timed pass is bracketed by calibration chunks
(``calibrate.py``), also outside the timed region, from which the runner
scales its time to the nominal host speed. The result goes to the job's
``result`` file as JSON.

With ``trace`` set, passes alternate untraced and traced, so one run gives
both the per-layer spans and the tracing overhead, and the run holds at least
``MIN_TRACED`` traced passes, so that the exact counts can be compared
between them. An untraced run holds at least ``MIN_PASSES`` passes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2
MIN_TRACED = 3


def _digest(paths) -> str:
    """Hash of the operation's outputs; manifests are hashed without created_utc."""
    h = hashlib.sha256()
    for path in paths:
        p = Path(path)
        h.update(p.name.encode())
        if not p.exists():
            h.update(b"<missing>")
            continue
        data = p.read_bytes()
        if p.name.endswith("manifest.json"):
            manifest = json.loads(data)
            manifest.pop("created_utc", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _tree_bytes(directory: Path) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _empty(directory: Path) -> None:
    for root, dirs, files in os.walk(directory, topdown=False):
        for name in files:
            os.unlink(os.path.join(root, name))
        for name in dirs:
            os.rmdir(os.path.join(root, name))


def run_pass(cli, ops, out: Path, tracer=None, calibrator=None) -> list[dict]:
    """Run one pass; with a ``calibrator``, bracket every operation with its chunks."""
    from workloads import stage_match_tables

    records = []
    before = calibrator.bracket() if calibrator is not None else None
    for index, op in enumerate(ops):
        if op.get("prepare") == "match_tables":
            stage_match_tables(out)
        if tracer is not None:
            tracer.op = index
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception is a failed operation, not a dead run
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if error:
            print(f"operation {op['name']} raised:\n{error}", file=sys.stderr)
        after = calibrator.bracket() if calibrator is not None else None
        records.append({"name": op["name"], "kind": op["kind"], "seconds": seconds,
                        "cal_before": before, "cal_after": after, "rc": rc, "error": error})
        before = after
    return records


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    log = open(job["log"], "a", encoding="utf-8")
    sys.stdout = log
    sys.stderr = log
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(job["root"]) / "src"))

    from trifuse import cli

    warm_out = Path(job["warmup_out"])
    for record in run_pass(cli, job["warmup_ops"], warm_out):
        if record["rc"] != 0:
            print(f"warm-up operation {record['name']} failed", file=sys.stderr)
            return 3
    gc.collect()
    proto.write("ready\n")
    if job["mode"] == "setup":
        return 0

    from calibrate import Calibrator

    calibrator = Calibrator()
    tracer = None
    spans_by_pass = []
    if job["trace"]:
        from tracing import (Tracer, TraceTargetMissing, TraceTargetUnreached, check_reach,
                             layer_metrics)

        tracer = Tracer()
    ops = job["ops"]
    out = Path(job["out"])
    tmp = Path(job["tmp"])
    result = {"passes": []}
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(result["passes"]) % 2 == 1
        _empty(tmp)
        gc.collect()
        if traced:
            try:
                tracer.install()
            except TraceTargetMissing as exc:
                result["fatal"] = f"{type(exc).__name__}: {exc}"
                break
        try:
            records = run_pass(cli, ops, out, tracer if traced else None, calibrator)
        finally:
            if traced:
                tracer.uninstall()
        entry = {
            "traced": traced,
            "ops": records,
            "pipeline_s": sum(r["seconds"] for r in records),
            "digests": {op["name"]: _digest(op["outputs"]) for op in ops},
            "tmp_bytes_left": _tree_bytes(tmp),
        }
        if traced:
            spans = list(tracer.spans)
            try:
                check_reach(spans, ops)
            except TraceTargetUnreached as exc:
                result["fatal"] = f"{type(exc).__name__}: {exc}"
                break
            layers = layer_metrics(spans)
            layers["runtime.gc_s"] = tracer.gc_seconds
            layers["runtime.gc_collections"] = tracer.gc_collections
            entry["layers"] = layers
            spans_by_pass.append(spans)
        result["passes"].append(entry)
        done = len(result["passes"])
        if tracer is not None:
            enough = sum(p["traced"] for p in result["passes"]) >= MIN_TRACED
        else:
            enough = done >= MIN_PASSES
        elapsed = time.perf_counter() - started
        per_pass = elapsed / done
        if enough and elapsed + per_pass > job["seconds"]:
            break
    _empty(tmp)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None and spans_by_pass:
        from tracing import NAMES

        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"targets": list(NAMES), "ops": [op["name"] for op in ops],
                       "fields": ["target", "start", "end", "parent", "op", "extra"],
                       "passes": spans_by_pass}, fh, separators=(",", ":"))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 3 if "fatal" in result else 0


if __name__ == "__main__":
    sys.exit(main())
