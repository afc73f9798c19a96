"""Output checks that do not depend on timing.

``invariants`` checks seed-independent properties of one pass's outputs and
returns, per operation, the reasons it failed. ``decision_values`` extracts
the values a user acts on (fused rows, FROC numbers, sweep rows, link
statuses) in a form a pure formatting change does not alter;
``compare_golden`` compares them with those recorded from the seed-state
code in ``golden.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _rows(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _float(text: str):
    return float(text) if text.strip() else None


def _outputs(op) -> dict[str, Path]:
    return {Path(p).name: Path(p) for p in op["outputs"]}


def _fuse_problems(op, files) -> list[str]:
    known: dict[str, set[str]] = {}
    for key in ("cade_a", "cade_b"):
        for row in _rows(files[key]):
            known.setdefault(row["scan_id"], set()).add(f"{row['model']}:{row['candidate_id']}")
    used: set[tuple[str, str]] = set()
    for row in _rows(_outputs(op)["fused.csv"]):
        for qid in row["provenance"].split("|"):
            if qid not in known.get(row["scan_id"], ()):
                return [f"provenance id {qid} on scan {row['scan_id']} is not an input candidate"]
            if (row["scan_id"], qid) in used:
                return [f"provenance id {qid} on scan {row['scan_id']} appears in two fused rows"]
            used.add((row["scan_id"], qid))
    return []


def _eval_problems(op) -> list[str]:
    out = _outputs(op)
    metrics = json.loads(out["metrics.json"].read_text(encoding="utf-8"))
    raw = json.loads(out["metrics.raw.json"].read_text(encoding="utf-8"))
    matches = _rows(out["matches.csv"])
    detected = sum(1 for r in matches if r["detected"] == "1")
    problems = []
    overall = metrics["overall"]
    if (overall["detected"], overall["lesions"]) != (detected, len(matches)):
        problems.append(f"metrics.json detected/lesions {overall['detected']}/{overall['lesions']}"
                        f" disagrees with matches.csv {detected}/{len(matches)}")
    for name, result in [("overall", raw["overall"]), *raw["strata"].items()]:
        sens = result["sensitivities"]
        if any(b < a for a, b in zip(sens, sens[1:])):
            problems.append(f"{name}: sensitivity decreases as the FP rate rises: {sens}")
    return problems


def _sweep_problems(op, eval_op) -> list[str]:
    rows = _rows(_outputs(op)["sweep_cade.csv"])
    lowest = min(rows, key=lambda r: float(r["τ_CADe"]))
    raw = json.loads(_outputs(eval_op)["metrics.raw.json"].read_text(encoding="utf-8"))
    cpm = raw["overall"]["cpm"]
    if abs(float(lowest["CPM"]) - cpm) > ABS_TOL:
        return [f"lowest sweep threshold CPM {lowest['CPM']} differs from eval CPM {cpm!r}"]
    return []


def _link_problems(op) -> list[str]:
    out = _outputs(op)
    statuses = [r["status"] for r in _rows(out["links.csv"])]
    entities = len(_rows(out["links.entities.csv"]))
    matched, report_only = statuses.count("matched"), statuses.count("report_only")
    if matched + report_only != entities:
        return [f"link matched {matched} + report_only {report_only} != {entities} entities"]
    return []


def invariants(ops, files) -> dict[str, list[str]]:
    """Seed-independent checks on the outputs now on disk, per operation."""
    by_name = {op["name"]: op for op in ops}
    problems: dict[str, list[str]] = {}
    for op in ops:
        kind = op["kind"].split(":")[0]
        try:
            if kind == "fuse":
                found = _fuse_problems(op, files)
            elif kind == "eval":
                found = _eval_problems(op)
            elif kind == "sweep":
                found = _sweep_problems(op, by_name["eval_fused"])
            elif kind == "link":
                found = _link_problems(op)
            else:
                found = []
        except (OSError, KeyError, ValueError) as err:
            found = [f"outputs unreadable: {type(err).__name__}: {err}"]
        if found:
            problems[op["name"]] = found
    return problems


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def decision_values(ops) -> dict[str, dict]:
    """Decision-relevant values of each operation's outputs (digest lines excluded)."""
    values: dict[str, dict] = {}
    for op in ops:
        out = _outputs(op)
        kind = op["kind"].split(":")[0]
        if kind == "fuse":
            rows = _rows(out["fused.csv"])
            sums = {}
            for col in ("x_mm", "y_mm", "z_mm", "diameter_mm", "score", "cadx_avg"):
                sums[col] = math.fsum(v for v in (_float(r[col]) for r in rows) if v is not None)
            values[op["name"]] = {
                "rows": len(rows),
                "order": _sha(f"{r['scan_id']}|{r['candidate_id']}|{float(r['tier'])!r}|"
                              f"{r['stage']}|{r['provenance']}" for r in rows),
                "sums": sums,
            }
        elif kind == "eval":
            raw = json.loads(out["metrics.raw.json"].read_text(encoding="utf-8"))
            raw.pop("manifest_digest", None)
            values[op["name"]] = {"overall": raw["overall"], "strata": raw["strata"]}
        elif kind == "sweep":
            values[op["name"]] = {"rows": [[float(v) for v in r.values()]
                                           for r in _rows(out["sweep_cade.csv"])]}
        elif kind == "link":
            rows = _rows(out["links.csv"])
            counts: dict[str, int] = {}
            for r in rows:
                counts[r["status"]] = counts.get(r["status"], 0) + 1
            values[op["name"]] = {
                "statuses": _sha(f"{r['report_id']}|{r['scan_id']}|{r['status']}|{r['candidate_id']}"
                                 for r in rows),
                "counts": counts,
            }
    return values


def _differs(expected, actual, where: str) -> str | None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = _differs(expected[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _differs(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            return None
        return f"{where}: {actual!r} != {expected!r}"
    return None if expected == actual else f"{where}: {actual!r} != {expected!r}"


def compare_golden(expected: dict[str, dict], actual: dict[str, dict]) -> dict[str, list[str]]:
    """Per operation, how its decision values differ from the recorded ones."""
    problems = {}
    for name, values in expected.items():
        found = _differs(values, actual.get(name), name)
        if found:
            problems[name] = [f"differs from the seed-state values: {found}"]
    return problems
