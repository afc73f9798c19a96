"""Benchmark runner: one workload, one seed, one run.

    python3 bench/run.py --workload luna --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/trifuse``. It generates
the workload's inputs from ``--seed`` (in this process, so generation is
neither set-up time nor trifuse memory), times the trifuse set-up in fresh
processes, runs timed passes in one more fresh trifuse process, scales every
timing to the nominal host speed with the calibration chunks that bracket it
(``calibrate.py``), checks every operation's outputs, prints a report, and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a separate traced run. All files
live under ``bench/.work`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402  (bench modules sit next to this file)
import checks  # noqa: E402
import gen  # noqa: E402
from tracing import METRIC_NAMES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, operations  # noqa: E402

SETUP_PROBES = 7
DEADLINE_MARGIN_S = 140.0  # generation, set-up probes and the pass that overruns --seconds
BYTES_PER_MB = 1024.0 * 1024.0

# untraced per-command calibrated timings, by operation kind; reported, not gated
COMMAND_METRICS = {"fuse_s": ("fuse",), "eval_s": ("eval", "eval:ci"),
                   "strata_s": ("eval:strata",), "sweep_s": ("sweep",),
                   "stats_s": ("stats",), "link_s": ("link",)}
EXACT_COUNTS = {
    "fileio.rows_read", "fileio.bytes_written", "fusion.candidates_in", "fusion.fused_out",
    "fusion.pair_tests", "fusion.cadx_calls", "volume.loads", "volume.bytes_loaded",
    "volume.gate_calls", "volume.patches", "volume.tmp_bytes_left", "froc.match_calls",
    "froc.curve_calls", "sweeps.rows", "readerstats.rank_tests", "reportlink.entities",
    "reportlink.match_calls", "trace.spans",
}
# per-layer metrics computed here rather than from one pass's spans
RUN_LAYER_METRICS = ("trace.pipeline_s", "trace.unaccounted_s", "volume.tmp_bytes_left",
                     "trace.untraced_pipeline_s", "trace.overhead_s")


class BenchError(RuntimeError):
    pass


def _quartiles(values: list[float], unit: str = "s") -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"unit": unit, "n": len(values), "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": values[0], "max": values[-1]}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _worker_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TRIFUSE_THREADS"}
    env["TMPDIR"] = str(tmp)
    return env


def _start_worker(job_path: Path, env: dict, deadline: float):
    """Start a trifuse worker; return (process, seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
                            text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        if not readable:
            proc.kill()
        _stop(proc, deadline)
        raise BenchError(f"trifuse worker failed before ready (exit {proc.returncode})\n"
                         f"{_log_tail(job_path.parent)}")
    return proc, ready


def _log_tail(work: Path, lines: int = 20) -> str:
    log = work / "worker.log"
    if not log.exists():
        return ""
    return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def _stop(proc, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("trifuse worker overran the run deadline and was killed") from None


def _job(work: Path, name: str, **fields) -> Path:
    path = work / f"{name}.job.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + args.seconds + DEADLINE_MARGIN_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = BENCH / ".work" / f"{args.workload}-{args.scale}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        t_gen = time.perf_counter()
        cohort = gen.generate(args.workload, args.seed, args.scale, work / "inputs")
        warm = gen.generate(args.workload, args.seed, "tiny", work / "warm_inputs")
        gen_s = time.perf_counter() - t_gen
        resamples = gen.SPECS[args.scale][args.workload].get("resamples", 0)
        scorer = BENCH / "scorer.sh"
        ops = operations(args.workload, cohort["files"], work / "out", scorer, resamples)
        warm_ops = operations(args.workload, warm["files"], work / "warm_out", scorer,
                              gen.SPECS["tiny"][args.workload].get("resamples", 0))
        env = _worker_env(work / "tmp")
        common = dict(root=str(ROOT), warmup_ops=warm_ops, warmup_out=str(work / "warm_out"),
                      log=str(work / "worker.log"))

        setups, setup_walls = [], []
        calibrator = calibrate.Calibrator()
        before = calibrator.bracket()
        for i in range(SETUP_PROBES):
            proc, ready = _start_worker(_job(work, f"probe{i}", mode="setup", **common),
                                        env, deadline)
            if _stop(proc, deadline) != 0:
                raise BenchError(f"set-up probe failed\n{_log_tail(work)}")
            after = calibrator.bracket()
            setups.append(calibrate.scaled(ready, before, after))
            setup_walls.append(ready)
            before = after
        spans_out = BENCH / ".out" / f"{args.workload}-{args.scale}-seed{args.seed}.spans.json"
        if args.trace:
            spans_out.parent.mkdir(exist_ok=True)
        job = _job(work, "main", mode="run", trace=bool(args.trace), seconds=args.seconds,
                   ops=ops, out=str(work / "out"), tmp=str(work / "tmp"),
                   result=str(work / "result.json"), spans_out=str(spans_out), **common)
        proc, _ = _start_worker(job, env, deadline)
        code = _stop(proc, deadline)
        result_path = work / "result.json"
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
        if code != 0:
            raise BenchError(result.get("fatal")
                             or f"trifuse worker exited {code}\n{_log_tail(work)}")

        passes = result["passes"]
        failures: dict[str, list[str]] = {}
        reference = passes[0]["digests"]
        attempted = failed = 0
        problems = checks.invariants(ops, cohort["files"])
        golden_note = "not checked (seed is not the default)"
        if args.seed == DEFAULT_SEED:
            golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
            expected = golden.get(args.scale, {}).get(args.workload)
            if expected is None:
                raise BenchError(f"golden.json has no {args.scale}/{args.workload} entry")
            differences = checks.compare_golden(expected, checks.decision_values(ops))
            for name, found in differences.items():
                problems.setdefault(name, []).extend(found)
            golden_note = "compared"
        for k, entry in enumerate(passes):
            for record in entry["ops"]:
                attempted += 1
                reasons = []
                if record["rc"] != 0:
                    reasons.append(f"exit {record['rc']}" + (" (exception)" if record["error"] else ""))
                if entry["digests"][record["name"]] != reference[record["name"]]:
                    reasons.append("outputs differ from pass 0")
                # outputs equal to pass 0 carry pass 0's verdict, which the checks read
                reasons += problems.get(record["name"], [])
                if reasons:
                    failed += 1
                    failures.setdefault(f"pass{k}:{record['name']}", reasons)

        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        n_scans = cohort["counts"]["scans"]

        def scaled(record):
            return calibrate.scaled(record["seconds"], record["cal_before"], record["cal_after"])

        calibrated = [sum(scaled(r) for r in p["ops"]) for p in untraced]
        pipeline = _quartiles(calibrated)
        wall = _quartiles([p["pipeline_s"] for p in untraced])
        brackets = [b for p in untraced for r in p["ops"] for b in (r["cal_before"], r["cal_after"])]
        summary = {
            "pipeline_s": pipeline,
            "scans_per_s": _quartiles([n_scans / s for s in calibrated], "scans/s"),
            "setup_s": _quartiles(setups),
            "wall.pipeline_s": wall,
            "wall.setup_s": _quartiles(setup_walls),
            "calibration.python_s": _quartiles([b[0] for b in brackets]),
            "calibration.numpy_s": _quartiles([b[1] for b in brackets]),
        }
        for metric, kinds in COMMAND_METRICS.items():
            samples = [sum(scaled(r) for r in p["ops"] if r["kind"] in kinds) for p in untraced]
            if any(samples):
                summary[metric] = _quartiles(samples)

        measured = {
            "pipeline_s": pipeline["median"],
            "scans_per_s": summary["scans_per_s"]["median"],
            # the calibration buffer is resident from before the first pass to the end
            "peak_rss_mb": (result["peak_rss_kb"] * 1024.0 - calibrate.BUFFER_BYTES) / BYTES_PER_MB,
            "setup_s": summary["setup_s"]["median"],
        }
        unknown = {m["name"] for m in spec["end_to_end"]} - set(measured)
        if unknown:
            raise BenchError(f"BENCHMARK.json names end-to-end metrics the runner does not "
                             f"measure: {sorted(unknown)}")
        end_to_end = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        per_layer = {}
        if traced:
            layer_samples = {m["name"]: [] for m in spec["per_layer"]}
            unknown = set(layer_samples) - set(METRIC_NAMES) - set(RUN_LAYER_METRICS)
            if unknown:
                raise BenchError(f"BENCHMARK.json names per-layer metrics no trace gives: "
                                 f"{sorted(unknown)}")
            for p in traced:
                layers = dict(p["layers"])
                layers["trace.pipeline_s"] = p["pipeline_s"]
                layers["trace.unaccounted_s"] = p["pipeline_s"] - layers["trace.self_sum_s"]
                layers["volume.tmp_bytes_left"] = p["tmp_bytes_left"]
                for name, samples in layer_samples.items():
                    samples.append(layers.get(name, 0))
            traced_median = statistics.median(layer_samples["trace.pipeline_s"])
            layer_samples["trace.untraced_pipeline_s"] = [wall["median"]]
            layer_samples["trace.overhead_s"] = [traced_median - wall["median"]]
            for m in spec["per_layer"]:
                samples = layer_samples[m["name"]]
                if m["name"] in EXACT_COUNTS:
                    if len(set(samples)) != 1:
                        failures.setdefault("trace", []).append(
                            f"{m['name']} differs between traced passes: {samples}")
                    per_layer[m["name"]] = (samples[0], m["unit"])
                else:
                    per_layer[m["name"]] = (statistics.median(samples), m["unit"])
                summary[f"layer.{m['name']}"] = _quartiles(samples, m["unit"])
            if "trace" in failures:
                failed += 1

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "provenance": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "src_lines": _src_lines(),
                "cohort": {"spec": cohort["spec"], "counts": cohort["counts"]},
                "generation_s": gen_s,
                "run_seconds": args.seconds,
                "passes": {"untraced": len(untraced), "traced": len(traced)},
                "pipeline_s_by_pass": [[p["pipeline_s"], p["traced"]] for p in passes],
                "golden": golden_note,
            },
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
            "samples": summary,
            "failures": failures,
            "wall_s": time.perf_counter() - started,
        }
        metrics = per_layer if args.trace else end_to_end
        line = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return report, line
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend in timed passes (at least two passes run; "
                             "with --trace 1, at least three traced passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the 4-scan fixture shape, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trifuse" / "__init__.py").is_file():
        print(f"error: no trifuse sources at {ROOT / 'src' / 'trifuse'}; run inside a checkout",
              file=sys.stderr)
        return 2
    try:
        report, line = run(args)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
