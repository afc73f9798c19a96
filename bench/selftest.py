"""Tiny-scale self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at the tiny scale (the 4-scan fixture shape; one small
volume for ``volumes``), once untraced and once traced, at the default seed,
and checks that each run exits 0, fails no operation, matches the recorded
seed-state values and prints every metric BENCHMARK.json names. It also
checks that a traced run stops with a named error when a traced function
is missing. Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    report = json.loads("\n".join(lines[:-1]))
    line = json.loads(lines[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload} trace={trace}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: failures {report['failures']}")
    if report["provenance"]["golden"] != "compared":
        raise AssertionError(f"{workload}: seed-state values were not compared")
    return line


def _missing_target_is_named() -> None:
    import tracing

    tracing.TARGETS["fusion.no_such_function"] = ("fuse", None)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import trifuse.cli  # noqa: F401  (loads every traced module)

        tracer = tracing.Tracer()
        tracing.NAMES = tuple(tracing.TARGETS)
        try:
            tracer.install()
        except tracing.TraceTargetMissing as err:
            assert "trifuse.fusion.no_such_function" in str(err), err
        else:
            raise AssertionError("a missing trace target was not reported")
        finally:
            tracer.uninstall()
    finally:
        del tracing.TARGETS["fusion.no_such_function"]
        tracing.NAMES = tuple(tracing.TARGETS)


def _unreached_target_is_named() -> None:
    import tracing

    op = {"name": "fuse", "expects": ["volume.extract_patch"]}
    try:
        tracing.check_reach([], [op])
    except tracing.TraceTargetUnreached as err:
        assert "trifuse.volume.extract_patch" in str(err), err
    else:
        raise AssertionError("an unreached trace target was not reported")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            metrics = _run(workload, trace)["metrics"]
            printed = {name: m["unit"] for name, m in metrics.items()}
            if printed != wanted:
                missing = sorted(set(wanted) - set(printed))
                extra = sorted(set(printed) - set(wanted))
                wrong = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
                raise AssertionError(f"{workload} trace={trace}: missing {missing}, "
                                     f"unexpected {extra}, wrong units {wrong}")
            print(f"ok {workload} trace={trace}: {len(printed)} metrics")
    _missing_target_is_named()
    _unreached_target_is_named()
    print("ok trace guard names missing and unreached targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
