"""File schemas, manifests and serialization helpers.

All CSV files are UTF-8 (a leading byte-order mark is accepted) with a
mandatory header row and '.' as the decimal separator. Parse failures name the
file, physical line and column; nothing is coerced silently. Writers emit a
leading ``# manifest_digest=...`` comment line and readers skip ``#`` lines,
so every output round-trips through its reader.

World coordinates are LPS millimeters on disk; RAS input is converted at
ingestion (x and y negate) when requested.

A run manifest records the configuration snapshot, input digests, tool
version, seed and timestamps. Its digest covers only the deterministic core
(no timestamps, no absolute paths), so reruns on identical inputs with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .domain import (
    CandidateDetection,
    ReferenceNodule,
    SemanticRatings,
    WorldPoint,
)
from .errors import ConfigError, InputError
from .froc import FrocResult, GroupScoreSummary, LesionMatchResult
from .fusion import CadxScores, FusedCandidate, TIER_BY_STAGE
from .readerstats import CHARACTERISTIC_DISPLAY, OverlapRow, SemanticTable
from .reportlink import EntityMatch, ReportEntity
from .sweeps import CadeSweepRow, CadxSweepRow

CANDIDATE_COLUMNS = ("scan_id", "candidate_id", "x_mm", "y_mm", "z_mm",
                     "diameter_mm", "score", "model")
REFERENCE_COLUMNS = ("scan_id", "nodule_id", "x_mm", "y_mm", "z_mm", "diameter_mm",
                     "diagnosis", "lungrads", "reviewers", "positive_votes")
FUSED_COLUMNS = CANDIDATE_COLUMNS + ("tier", "stage", "cadx_avg", "provenance")
CADX_SCORE_COLUMNS = ("scan_id", "model", "candidate_id", "p_luna", "p_dlcs")
LABELED_SCORE_COLUMNS = ("scan_id", "candidate_id", "score", "label")
MATCH_COLUMNS = ("scan_id", "nodule_id", "detected", "score", "model")

RATING_COLUMN_FIELDS = {display: field for field, display in CHARACTERISTIC_DISPLAY.items()}

PROVENANCE_SEP = "|"
COORDINATE_CONVENTIONS = ("lps", "ras")


def convert_to_lps(x: float, y: float, z: float, convention: str) -> tuple[float, float, float]:
    if convention == "lps":
        return (x, y, z)
    if convention == "ras":
        return (-x, -y, z)
    raise InputError(f"unknown coordinate convention {convention!r}; use lps or ras")


# ---------------------------------------------------------------------------
# low-level CSV plumbing


def _csv_lines(fh, last_line: list[int]) -> Iterable[str]:
    """The lines of ``fh`` that are not ``#`` comments; ``last_line[0]`` holds the
    physical number of the line yielded last."""
    for line_num, line in enumerate(fh, start=1):
        if line.startswith("#"):
            continue
        last_line[0] = line_num
        yield line


def _read_rows(path: str | Path, required: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Data rows of a CSV file, each with the physical line number it ends on.

    A leading UTF-8 byte-order mark (as spreadsheet exports write) is dropped.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    last_line = [0]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(_csv_lines(fh, last_line))
        if reader.fieldnames is None:
            raise InputError(f"{path}: missing header row")
        fieldnames = [name.strip() for name in reader.fieldnames]
        for column in required:
            if column not in fieldnames:
                raise InputError(f"{path}: column {column} missing")
        for row in reader:
            row_num = last_line[0]
            if None in row:
                raise InputError(f"{path}:{row_num}: more cells than header columns")
            yield row_num, {(k.strip() if k else k): (v if v is not None else "")
                            for k, v in row.items()}


def _cell(path, row_num: int, row: Mapping[str, str], column: str) -> str:
    return (row.get(column) or "").strip()


def _parse_float(path, row_num: int, row: Mapping[str, str], column: str,
                 required: bool = True) -> float | None:
    text = _cell(path, row_num, row, column)
    if not text:
        if required:
            raise InputError(f"{path}:{row_num}: column {column} is empty")
        return None
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{path}:{row_num}: column {column} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}:{row_num}: column {column} is not finite: {text!r}")
    return value


def _parse_int(path, row_num: int, row: Mapping[str, str], column: str,
               required: bool = True) -> int | None:
    text = _cell(path, row_num, row, column)
    if not text:
        if required:
            raise InputError(f"{path}:{row_num}: column {column} is empty")
        return None
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{path}:{row_num}: column {column} is not an integer: {text!r}") from None


def _parse_str(path, row_num: int, row: Mapping[str, str], column: str,
               required: bool = True) -> str | None:
    text = _cell(path, row_num, row, column)
    if not text and required:
        raise InputError(f"{path}:{row_num}: column {column} is empty")
    return text or None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Whole-file atomic write: temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    manifest_digest: str | None = None,
) -> Path:
    buf = io.StringIO()
    if manifest_digest:
        buf.write(f"# manifest_digest={manifest_digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# record readers


def read_candidates(
    path: str | Path, convention: str = "lps", expected_model: str | None = None
) -> list[CandidateDetection]:
    path = Path(path)
    out = []
    seen = set()
    for row_num, row in _read_rows(path, CANDIDATE_COLUMNS):
        model = _parse_str(path, row_num, row, "model")
        if expected_model is not None and model != expected_model:
            raise InputError(
                f"{path}:{row_num}: column model must be {expected_model}, got {model!r}"
            )
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        cand = CandidateDetection(
            scan_id=_parse_str(path, row_num, row, "scan_id"),
            candidate_id=_parse_str(path, row_num, row, "candidate_id"),
            center=WorldPoint(*convert_to_lps(x, y, z, convention)),
            diameter_mm=_parse_float(path, row_num, row, "diameter_mm", required=False),
            score=_parse_float(path, row_num, row, "score"),
            source_model=model,
        )
        if cand.key in seen:
            raise InputError(
                f"{path}:{row_num}: duplicate candidate_id {cand.candidate_id!r} "
                f"for model {model!r} on scan {cand.scan_id!r}"
            )
        seen.add(cand.key)
        out.append(cand)
    return out


def read_references(path: str | Path, convention: str = "lps") -> list[ReferenceNodule]:
    path = Path(path)
    out = []
    seen = set()
    for row_num, row in _read_rows(path, REFERENCE_COLUMNS):
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        rating_values = {}
        for display, field in RATING_COLUMN_FIELDS.items():
            if display not in row:
                continue
            if field == "diameter_rad_mm":
                rating_values[field] = _parse_float(path, row_num, row, display, required=False)
            else:
                rating_values[field] = _parse_int(path, row_num, row, display, required=False)
        ratings = SemanticRatings(**rating_values) if any(
            v is not None for v in rating_values.values()
        ) else None
        try:
            ref = ReferenceNodule(
                scan_id=_parse_str(path, row_num, row, "scan_id"),
                nodule_id=_parse_str(path, row_num, row, "nodule_id"),
                center=WorldPoint(*convert_to_lps(x, y, z, convention)),
                diameter_mm=_parse_float(path, row_num, row, "diameter_mm"),
                diagnosis=_parse_str(path, row_num, row, "diagnosis", required=False) or "unknown",
                lungrads=_parse_str(path, row_num, row, "lungrads", required=False),
                reviewers=_parse_int(path, row_num, row, "reviewers", required=False),
                positive_votes=_parse_int(path, row_num, row, "positive_votes", required=False),
                ratings=ratings,
            )
        except InputError as err:
            raise InputError(f"{path}:{row_num}: {err}") from None
        if ref.key in seen:
            raise InputError(
                f"{path}:{row_num}: duplicate nodule_id {ref.nodule_id!r} on scan {ref.scan_id!r}"
            )
        seen.add(ref.key)
        out.append(ref)
    return out


def read_cadx_scores(path: str | Path) -> dict[tuple[str, str, str], CadxScores]:
    path = Path(path)
    out: dict[tuple[str, str, str], CadxScores] = {}
    for row_num, row in _read_rows(path, CADX_SCORE_COLUMNS):
        key = (
            _parse_str(path, row_num, row, "scan_id"),
            _parse_str(path, row_num, row, "model"),
            _parse_str(path, row_num, row, "candidate_id"),
        )
        if key in out:
            raise InputError(f"{path}:{row_num}: duplicate CADx score entry for {key}")
        try:
            out[key] = CadxScores(
                p_luna=_parse_float(path, row_num, row, "p_luna"),
                p_dlcs=_parse_float(path, row_num, row, "p_dlcs"),
            )
        except InputError as err:
            raise InputError(f"{path}:{row_num}: {err}") from None
    return out


def read_labeled_scores(path: str | Path) -> tuple[list[float], list[str]]:
    path = Path(path)
    scores, labels = [], []
    for row_num, row in _read_rows(path, LABELED_SCORE_COLUMNS):
        scores.append(_parse_float(path, row_num, row, "score"))
        labels.append(_parse_str(path, row_num, row, "label"))
    return scores, labels


def read_reports(path: str | Path) -> list[tuple[str, str, str]]:
    """Tab-separated report records: report_id, scan_id, free text."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    out = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise InputError(
                    f"{path}:{line_num}: expected 3 tab-separated fields, got {len(parts)}"
                )
            out.append((parts[0], parts[1], parts[2]))
    return out


@dataclass(frozen=True)
class FusedRecord:
    """A fused-list CSV row read back from disk."""

    scan_id: str
    candidate_id: str
    center: WorldPoint
    diameter_mm: float | None
    score: float
    tier: float
    stage: str
    cadx_avg: float | None
    provenance: tuple[str, ...]


def read_fused(path: str | Path, convention: str = "lps") -> list[FusedRecord]:
    path = Path(path)
    out = []
    for row_num, row in _read_rows(path, FUSED_COLUMNS):
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        stage = _parse_str(path, row_num, row, "stage")
        if stage not in TIER_BY_STAGE:
            raise InputError(f"{path}:{row_num}: column stage has unknown value {stage!r}")
        out.append(
            FusedRecord(
                scan_id=_parse_str(path, row_num, row, "scan_id"),
                candidate_id=_parse_str(path, row_num, row, "candidate_id"),
                center=WorldPoint(*convert_to_lps(x, y, z, convention)),
                diameter_mm=_parse_float(path, row_num, row, "diameter_mm", required=False),
                score=_parse_float(path, row_num, row, "score"),
                tier=_parse_float(path, row_num, row, "tier"),
                stage=stage,
                cadx_avg=_parse_float(path, row_num, row, "cadx_avg", required=False),
                provenance=tuple(_parse_str(path, row_num, row, "provenance").split(PROVENANCE_SEP)),
            )
        )
    return out


def read_match_files(paths: Sequence[str | Path]) -> dict[str, dict[tuple[str, str], float | None]]:
    """Read per-model match files; returns model -> {(scan, nodule): score|None}."""
    out: dict[str, dict[tuple[str, str], float | None]] = {}
    for path in paths:
        path = Path(path)
        for row_num, row in _read_rows(path, MATCH_COLUMNS):
            model = _parse_str(path, row_num, row, "model")
            key = (
                _parse_str(path, row_num, row, "scan_id"),
                _parse_str(path, row_num, row, "nodule_id"),
            )
            detected = _parse_int(path, row_num, row, "detected")
            if detected not in (0, 1):
                raise InputError(f"{path}:{row_num}: column detected must be 0 or 1")
            score = _parse_float(path, row_num, row, "score", required=False)
            if detected == 1 and score is None:
                raise InputError(f"{path}:{row_num}: detected row without a score")
            table = out.setdefault(model, {})
            if key in table:
                raise InputError(f"{path}:{row_num}: duplicate match entry for {key}")
            table[key] = score if detected == 1 else None
    return out


# ---------------------------------------------------------------------------
# record writers


def fused_rows(fused: Sequence[FusedCandidate]) -> list[tuple]:
    """Assign per-scan output ids and flatten fused candidates to CSV rows."""
    rows = []
    counters: dict[str, int] = {}
    for f in fused:
        n = counters.get(f.scan_id, 0)
        counters[f.scan_id] = n + 1
        rows.append(
            (
                f.scan_id,
                f"F{n:04d}",
                f.center.x,
                f.center.y,
                f.center.z,
                f.diameter_mm,
                f.cade_score_avg,
                "FUSED",
                f.confidence_tier,
                f.stage,
                f.cadx_avg,
                PROVENANCE_SEP.join(f.provenance),
            )
        )
    return rows


def write_fused_csv(
    path: str | Path, fused: Sequence[FusedCandidate], manifest_digest: str | None = None
) -> Path:
    return write_csv(path, FUSED_COLUMNS, fused_rows(fused), manifest_digest)


def write_matches_csv(
    path: str | Path,
    result: LesionMatchResult,
    model_label: str,
    manifest_digest: str | None = None,
) -> Path:
    rows = []
    detected = result.detected_scores()
    for scan in result.scans:
        for tp in scan.tp:
            rows.append((scan.scan_id, tp.nodule_id, 1, tp.score, model_label))
        for nodule_id in scan.fn:
            rows.append((scan.scan_id, nodule_id, 0, None, model_label))
    rows.sort(key=lambda r: (r[0], r[1]))
    return write_csv(path, MATCH_COLUMNS, rows, manifest_digest)


CADX_SWEEP_HEADER = ("Missed", "Threshold", "Recall", "Precision", "FPR",
                     "Flagged (%)", "FN", "FP", "TP")
CADE_SWEEP_HEADER = ("τ_CADe", "CPM", "Candidates (n)", "Missed (n)")


def write_cadx_sweep_csv(
    path: str | Path, rows: Sequence[CadxSweepRow], manifest_digest: str | None = None
) -> Path:
    table = [
        (r.missed, r.threshold, r.recall, r.precision, r.fpr, r.flagged_pct, r.fn, r.fp, r.tp)
        for r in rows
    ]
    return write_csv(path, CADX_SWEEP_HEADER, table, manifest_digest)


def write_cade_sweep_csv(
    path: str | Path, rows: Sequence[CadeSweepRow], manifest_digest: str | None = None
) -> Path:
    table = [(r.threshold, r.cpm, r.candidates_forwarded, r.missed) for r in rows]
    return write_csv(path, CADE_SWEEP_HEADER, table, manifest_digest)


CONSENSUS_HEADER = ("Pattern", "Model", "GT Count (n)", "Detected (n)",
                    "Mean", "SD", "Median", "Min", "Max")


def write_consensus_csv(
    path: str | Path,
    summaries: Mapping[str, Mapping[str, GroupScoreSummary]],
    manifest_digest: str | None = None,
) -> Path:
    """summaries: model -> pattern -> GroupScoreSummary."""
    rows = []
    for model in sorted(summaries):
        for pattern, s in summaries[model].items():
            rows.append((pattern, model, s.n_gt, s.n_detected, s.mean, s.sd,
                         s.median, s.min, s.max))
    return write_csv(path, CONSENSUS_HEADER, rows, manifest_digest)


SEMANTIC_HEADER = ("Characteristic", "Detected Mean", "Missed Mean", "Mean Difference",
                   "Mann-Whitney p", "Cohen's d", "Effect Size", "Significant (Bonferroni)")


def write_semantic_csv(
    path: str | Path,
    tables: Mapping[str, SemanticTable],
    manifest_digest: str | None = None,
) -> Path:
    """tables: label -> SemanticTable; label 'pooled' for the pooled analysis."""
    multi = len(tables) > 1 or "pooled" not in tables
    header = (("Model",) + SEMANTIC_HEADER) if multi else SEMANTIC_HEADER
    rows = []
    for label in sorted(tables):
        for r in tables[label].rows:
            display = CHARACTERISTIC_DISPLAY.get(r.characteristic, r.characteristic)
            d_value = "inf" if r.d_infinite else r.d
            base = (display, r.mean_detected, r.mean_missed, r.mean_diff, r.p_value,
                    d_value, r.label, int(r.significant_after_bonferroni))
            rows.append(((label,) + base) if multi else base)
    return write_csv(path, header, rows, manifest_digest)


OVERLAP_HEADER = ("Category", "Count", "Percentage (%)", "Mean Diameter (mm)",
                  "Median Diameter (mm)", "Min Diameter (mm)", "Max Diameter (mm)")


def write_overlap_csv(
    path: str | Path, rows: Sequence[OverlapRow], manifest_digest: str | None = None
) -> Path:
    table = [
        (r.category, r.count, r.pct, r.mean_diameter, r.median_diameter,
         r.min_diameter, r.max_diameter)
        for r in rows
    ]
    return write_csv(path, OVERLAP_HEADER, table, manifest_digest)


ENTITY_HEADER = ("report_id", "scan_id", "size_mm", "lobe", "laterality",
                 "lungrads", "ordinals", "raw_span")
ENTITY_MATCH_HEADER = ("report_id", "scan_id", "status", "candidate_id",
                       "size_mm", "lobe", "lungrads", "criteria")


def write_entities_csv(
    path: str | Path, entities: Sequence[ReportEntity], manifest_digest: str | None = None
) -> Path:
    rows = [
        (e.report_id, e.scan_id, e.size_mm, e.lobe, e.laterality, e.lungrads,
         ";".join(f"{k}={v}" for k, v in e.ordinals), e.raw_span)
        for e in entities
    ]
    return write_csv(path, ENTITY_HEADER, rows, manifest_digest)


def write_entity_matches_csv(
    path: str | Path, matches: Sequence[EntityMatch], manifest_digest: str | None = None
) -> Path:
    rows = []
    for m in matches:
        e = m.entity
        criteria = ";".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in m.criteria)
        rows.append(
            (
                e.report_id if e else None,
                e.scan_id if e else None,
                m.status,
                m.candidate_id,
                e.size_mm if e else None,
                e.lobe if e else None,
                e.lungrads if e else None,
                criteria,
            )
        )
    return write_csv(path, ENTITY_MATCH_HEADER, rows, manifest_digest)


# ---------------------------------------------------------------------------
# metrics report


METRICS_CSV_HEADER = (
    "Stratum", "CPM", "CPM_CI_low", "CPM_CI_high", "Sens_at_1FP",
    "Sens_at_1FP_CI_low", "Sens_at_1FP_CI_high", "Detected", "Lesions",
    "Candidates", "Scans", "Candidates_per_scan",
)


def froc_result_payload(result: FrocResult) -> dict:
    detected, lesions = result.detected_over_lesions
    return {
        "cpm": result.cpm,
        "cpm_ci": list(result.cpm_ci) if result.cpm_ci else None,
        "sensitivity_at_1fp": result.sensitivity_at_1fp,
        "sensitivity_at_1fp_ci": list(result.sens_at_1fp_ci) if result.sens_at_1fp_ci else None,
        "fp_rates": list(result.curve.fp_rates),
        "sensitivities": list(result.curve.sensitivities),
        "detected": detected,
        "lesions": lesions,
        "candidates": result.curve.candidates_total,
        "scans": result.curve.n_scans,
        "candidates_per_scan": result.candidates_per_scan,
    }


def metrics_csv_rows(named_results: Mapping[str, FrocResult]) -> list[tuple]:
    rows = []
    for name, result in named_results.items():
        detected, lesions = result.detected_over_lesions
        cpm_ci = result.cpm_ci or (None, None)
        sens_ci = result.sens_at_1fp_ci or (None, None)
        rows.append(
            (name, result.cpm, cpm_ci[0], cpm_ci[1], result.sensitivity_at_1fp,
             sens_ci[0], sens_ci[1], detected, lesions,
             result.curve.candidates_total, result.curve.n_scans,
             result.candidates_per_scan)
        )
    return rows


# ---------------------------------------------------------------------------
# JSON serialization and significant-digit rounding


def round_sig(value: float, sig: int = 6) -> float:
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, sig - 1 - math.floor(math.log10(abs(value))))


def round_floats_deep(obj, sig: int = 6):
    if isinstance(obj, float):
        return round_sig(obj, sig)
    if isinstance(obj, dict):
        return {k: round_floats_deep(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats_deep(v, sig) for v in obj]
    return obj


def write_json(path: str | Path, payload, sig: int | None = None) -> Path:
    if sig is not None:
        payload = round_floats_deep(payload, sig)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# run manifest


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: str,
    config: Mapping[str, object],
    inputs: Mapping[str, str | Path],
    seed: int,
) -> dict:
    """Audit record for one command run.

    The digest covers command, config, seed, version and input content
    digests keyed by role; timestamps and paths stay outside it so reruns on
    identical inputs are reproducible.
    """
    input_entries = {}
    for name in sorted(inputs):
        p = Path(inputs[name])
        input_entries[name] = {"path": str(p), "sha256": sha256_file(p)}
    core = {
        "tool": "trifuse",
        "version": __version__,
        "command": command,
        "config": dict(sorted(config.items())),
        "seed": seed,
        "input_digests": {name: entry["sha256"] for name, entry in input_entries.items()},
    }
    digest = hashlib.sha256(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    manifest = dict(core)
    manifest["inputs"] = input_entries
    del manifest["input_digests"]
    manifest["digest"] = digest
    manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    return manifest


def write_manifest(path: str | Path, manifest: Mapping) -> Path:
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# config files


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key=value configuration mirroring the CLI flags (keys without '--')."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    out: dict[str, str] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_num}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_num}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{line_num}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
