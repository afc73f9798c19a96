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
from contextlib import contextmanager
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
from .fusion import STAGE_CADX, TIER_BY_STAGE, CadxScores, FusedCandidate
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


@contextmanager
def _csv_table(path: Path, required: Sequence[str]):
    """Open a CSV file for reading cells by position.

    Yields ``(columns, rows)``. ``columns`` maps each header name, stripped,
    to its position (the last one if a name repeats). ``rows`` yields every
    data row as ``(line, cells)``: the physical line the row ends on and its
    raw cells, padded with empty strings to the header's width. Blank lines
    and ``#`` comment lines are skipped, a leading UTF-8 byte-order mark (as
    spreadsheet exports write) is dropped, and a row with more cells than the
    header is an error.
    """
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    last_line = [0]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_csv_lines(fh, last_line))
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: missing header row")
        columns = {name.strip(): i for i, name in enumerate(header)}
        for column in required:
            if column not in columns:
                raise InputError(f"{path}: column {column} missing")
        yield columns, _data_rows(path, reader, last_line, len(header))


def _data_rows(path: Path, reader, last_line: list[int], width: int
               ) -> Iterator[tuple[int, list[str]]]:
    for cells in reader:
        if len(cells) != width:
            if not cells:
                continue
            if len(cells) > width:
                raise InputError(f"{path}:{last_line[0]}: more cells than header columns")
            cells += [""] * (width - len(cells))
        yield last_line[0], cells


def _cell_error(path: Path, line: int, column: str, problem: str) -> InputError:
    return InputError(f"{path}:{line}: column {column} {problem}")


def _text(path: Path, line: int, column: str, cell: str) -> str:
    text = cell.strip()
    if not text:
        raise _cell_error(path, line, column, "is empty")
    return text


def _number(path: Path, line: int, column: str, cell: str,
            required: bool = True) -> float | None:
    try:
        value = float(cell)  # float() ignores surrounding whitespace itself
    except ValueError:
        text = cell.strip()
        if text:
            raise _cell_error(path, line, column, f"is not a number: {text!r}") from None
        if required:
            raise _cell_error(path, line, column, "is empty") from None
        return None
    if not math.isfinite(value):
        raise _cell_error(path, line, column, f"is not finite: {cell.strip()!r}")
    return value


def _integer(path: Path, line: int, column: str, cell: str,
             required: bool = True) -> int | None:
    text = cell.strip()
    if not text:
        if required:
            raise _cell_error(path, line, column, "is empty")
        return None
    try:
        return int(text)
    except ValueError:
        raise _cell_error(path, line, column, f"is not an integer: {text!r}") from None


def _unit_interval(path: Path, line: int, column: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise _cell_error(path, line, column, f"must lie in [0, 1], got {value}")


def _positive(path: Path, line: int, column: str, value: float | None) -> None:
    if value is not None and value <= 0.0:
        raise _cell_error(path, line, column, f"must be positive, got {value}")


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
#
# Each reader converts and checks every cell once, naming file, line and
# column in its errors. The builders below then set the record fields as the
# dataclass constructors do, without running ``__post_init__`` to check the
# same values again.

_new = object.__new__
_set = object.__setattr__


def _point(x: float, y: float, z: float) -> WorldPoint:
    point = _new(WorldPoint)
    _set(point, "x", x)
    _set(point, "y", y)
    _set(point, "z", z)
    return point


def _candidate(scan_id: str, candidate_id: str, center: WorldPoint, score: float,
               source_model: str, diameter_mm: float | None) -> CandidateDetection:
    candidate = _new(CandidateDetection)
    _set(candidate, "scan_id", scan_id)
    _set(candidate, "candidate_id", candidate_id)
    _set(candidate, "center", center)
    _set(candidate, "score", score)
    _set(candidate, "source_model", source_model)
    _set(candidate, "diameter_mm", diameter_mm)
    return candidate


def _cadx_scores(p_luna: float, p_dlcs: float) -> CadxScores:
    scores = _new(CadxScores)
    _set(scores, "p_luna", p_luna)
    _set(scores, "p_dlcs", p_dlcs)
    return scores


def read_candidates(
    path: str | Path, convention: str = "lps", expected_model: str | None = None
) -> list[CandidateDetection]:
    path = Path(path)
    out = []
    seen = set()
    with _csv_table(path, CANDIDATE_COLUMNS) as (columns, rows):
        i_scan, i_id, i_x, i_y, i_z, i_diameter, i_score, i_model = (
            columns[c] for c in CANDIDATE_COLUMNS
        )
        for line, cells in rows:
            model = _text(path, line, "model", cells[i_model])
            if expected_model is not None and model != expected_model:
                raise _cell_error(path, line, "model", f"must be {expected_model}, got {model!r}")
            x, y, z = convert_to_lps(
                _number(path, line, "x_mm", cells[i_x]),
                _number(path, line, "y_mm", cells[i_y]),
                _number(path, line, "z_mm", cells[i_z]),
                convention,
            )
            scan_id = _text(path, line, "scan_id", cells[i_scan])
            candidate_id = _text(path, line, "candidate_id", cells[i_id])
            diameter = _number(path, line, "diameter_mm", cells[i_diameter], required=False)
            score = _number(path, line, "score", cells[i_score])
            _unit_interval(path, line, "score", score)
            _positive(path, line, "diameter_mm", diameter)
            key = (scan_id, model, candidate_id)
            if key in seen:
                raise InputError(
                    f"{path}:{line}: duplicate candidate_id {candidate_id!r} "
                    f"for model {model!r} on scan {scan_id!r}"
                )
            seen.add(key)
            out.append(_candidate(scan_id, candidate_id, _point(x, y, z), score, model, diameter))
    return out


def read_references(path: str | Path, convention: str = "lps") -> list[ReferenceNodule]:
    """Reference nodules. The cells are converted here; ``ReferenceNodule`` and
    ``SemanticRatings`` check the values, and their errors gain file and line."""
    path = Path(path)
    out = []
    seen = set()
    with _csv_table(path, REFERENCE_COLUMNS) as (columns, rows):
        ratings_at = [(display, field, columns[display])
                      for display, field in RATING_COLUMN_FIELDS.items() if display in columns]
        for line, cells in rows:
            cell = {column: cells[columns[column]] for column in REFERENCE_COLUMNS}
            x = _number(path, line, "x_mm", cell["x_mm"])
            y = _number(path, line, "y_mm", cell["y_mm"])
            z = _number(path, line, "z_mm", cell["z_mm"])
            rating_values = {}
            for display, field, i in ratings_at:
                parse = _number if field == "diameter_rad_mm" else _integer
                rating_values[field] = parse(path, line, display, cells[i], required=False)
            scan_id = _text(path, line, "scan_id", cell["scan_id"])
            nodule_id = _text(path, line, "nodule_id", cell["nodule_id"])
            diameter = _number(path, line, "diameter_mm", cell["diameter_mm"])
            reviewers = _integer(path, line, "reviewers", cell["reviewers"], required=False)
            votes = _integer(path, line, "positive_votes", cell["positive_votes"], required=False)
            try:
                ratings = SemanticRatings(**rating_values) if any(
                    v is not None for v in rating_values.values()
                ) else None
                ref = ReferenceNodule(
                    scan_id=scan_id,
                    nodule_id=nodule_id,
                    center=_point(*convert_to_lps(x, y, z, convention)),
                    diameter_mm=diameter,
                    diagnosis=cell["diagnosis"].strip() or "unknown",
                    lungrads=cell["lungrads"].strip() or None,
                    reviewers=reviewers,
                    positive_votes=votes,
                    ratings=ratings,
                )
            except InputError as err:
                raise InputError(f"{path}:{line}: {err}") from None
            if ref.key in seen:
                raise InputError(
                    f"{path}:{line}: duplicate nodule_id {nodule_id!r} on scan {scan_id!r}"
                )
            seen.add(ref.key)
            out.append(ref)
    return out


def read_cadx_scores(path: str | Path) -> dict[tuple[str, str, str], CadxScores]:
    path = Path(path)
    out: dict[tuple[str, str, str], CadxScores] = {}
    with _csv_table(path, CADX_SCORE_COLUMNS) as (columns, rows):
        i_scan, i_model, i_id, i_luna, i_dlcs = (columns[c] for c in CADX_SCORE_COLUMNS)
        for line, cells in rows:
            key = (
                _text(path, line, "scan_id", cells[i_scan]),
                _text(path, line, "model", cells[i_model]),
                _text(path, line, "candidate_id", cells[i_id]),
            )
            if key in out:
                raise InputError(f"{path}:{line}: duplicate CADx score entry for {key}")
            p_luna = _number(path, line, "p_luna", cells[i_luna])
            p_dlcs = _number(path, line, "p_dlcs", cells[i_dlcs])
            _unit_interval(path, line, "p_luna", p_luna)
            _unit_interval(path, line, "p_dlcs", p_dlcs)
            out[key] = _cadx_scores(p_luna, p_dlcs)
    return out


def read_labeled_scores(path: str | Path) -> tuple[list[float], list[str]]:
    path = Path(path)
    scores, labels = [], []
    with _csv_table(path, LABELED_SCORE_COLUMNS) as (columns, rows):
        i_score, i_label = columns["score"], columns["label"]
        for line, cells in rows:
            scores.append(_number(path, line, "score", cells[i_score]))
            labels.append(_text(path, line, "label", cells[i_label]))
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
    """Fused-list rows, held to the rules ``FusedCandidate`` enforces when
    ``fuse`` writes them: score and ``cadx_avg`` in [0, 1], a positive
    diameter, the tier of the stage, and ``cadx_avg`` exactly for
    cadx-promoted rows."""
    path = Path(path)
    out = []
    with _csv_table(path, FUSED_COLUMNS) as (columns, rows):
        (i_scan, i_id, i_x, i_y, i_z, i_diameter, i_score, _, i_tier, i_stage, i_cadx,
         i_provenance) = (columns[c] for c in FUSED_COLUMNS)
        for line, cells in rows:
            x = _number(path, line, "x_mm", cells[i_x])
            y = _number(path, line, "y_mm", cells[i_y])
            z = _number(path, line, "z_mm", cells[i_z])
            stage = _text(path, line, "stage", cells[i_stage])
            if stage not in TIER_BY_STAGE:
                raise _cell_error(path, line, "stage", f"has unknown value {stage!r}")
            scan_id = _text(path, line, "scan_id", cells[i_scan])
            candidate_id = _text(path, line, "candidate_id", cells[i_id])
            diameter = _number(path, line, "diameter_mm", cells[i_diameter], required=False)
            score = _number(path, line, "score", cells[i_score])
            tier = _number(path, line, "tier", cells[i_tier])
            cadx_avg = _number(path, line, "cadx_avg", cells[i_cadx], required=False)
            provenance = _text(path, line, "provenance", cells[i_provenance])
            _unit_interval(path, line, "score", score)
            _positive(path, line, "diameter_mm", diameter)
            if tier != TIER_BY_STAGE[stage]:
                raise _cell_error(path, line, "tier",
                                  f"must be {TIER_BY_STAGE[stage]} for stage {stage}, got {tier}")
            if stage == STAGE_CADX:
                if cadx_avg is None:
                    raise _cell_error(path, line, "cadx_avg", f"is empty for stage {stage}")
                _unit_interval(path, line, "cadx_avg", cadx_avg)
            elif cadx_avg is not None:
                raise _cell_error(path, line, "cadx_avg", f"must be empty for stage {stage}")
            x, y, z = convert_to_lps(x, y, z, convention)
            out.append(FusedRecord(
                scan_id=scan_id,
                candidate_id=candidate_id,
                center=_point(x, y, z),
                diameter_mm=diameter,
                score=score,
                tier=tier,
                stage=stage,
                cadx_avg=cadx_avg,
                provenance=tuple(provenance.split(PROVENANCE_SEP)),
            ))
    return out


def read_match_files(paths: Sequence[str | Path]) -> dict[str, dict[tuple[str, str], float | None]]:
    """Read per-model match files; returns model -> {(scan, nodule): score|None}."""
    out: dict[str, dict[tuple[str, str], float | None]] = {}
    for path in paths:
        path = Path(path)
        with _csv_table(path, MATCH_COLUMNS) as (columns, rows):
            i_scan, i_nodule, i_detected, i_score, i_model = (columns[c] for c in MATCH_COLUMNS)
            for line, cells in rows:
                model = _text(path, line, "model", cells[i_model])
                key = (
                    _text(path, line, "scan_id", cells[i_scan]),
                    _text(path, line, "nodule_id", cells[i_nodule]),
                )
                detected = _integer(path, line, "detected", cells[i_detected])
                if detected not in (0, 1):
                    raise _cell_error(path, line, "detected", "must be 0 or 1")
                score = _number(path, line, "score", cells[i_score], required=False)
                if detected == 1 and score is None:
                    raise InputError(f"{path}:{line}: detected row without a score")
                table = out.setdefault(model, {})
                if key in table:
                    raise InputError(f"{path}:{line}: duplicate match entry for {key}")
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
