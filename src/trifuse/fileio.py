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
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

import numpy as np

from . import __version__
from .domain import (
    PROVENANCE_SEP,
    RATING_RULES,
    REFERENCE_RULES,
    STAGE_CADX,
    TIER_BY_STAGE,
    CandidateTable,
    FusedCandidate,
    ReferenceTable,
    Rule,
    first_repeat,
    nan_to_none,
)
from .errors import ConfigError, InputError, open_text, read_settings
from .froc import FrocResult, GroupScoreSummary, LesionMatchResult
from .fusion import CadxScoreTable, fused_table
from .readerstats import CHARACTERISTIC_DISPLAY, OverlapRow, SemanticTable
from .reportlink import EntityMatches, ReportEntity
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
_CANDIDATE_NUMBERS = ("x_mm", "y_mm", "z_mm", "diameter_mm", "score")

COORDINATE_CONVENTIONS = ("lps", "ras")


# ---------------------------------------------------------------------------
# CSV columns
#
# A file is parsed into columns, then checked and converted a column at a time.
# Each check notes the first row it rejects; the error raised is the one of
# the earliest rejected row, and within a row the one checked first, so it is
# the error a row-by-row reader checking cells in the same order would raise.
# The physical line of that row is found by reading the file again, only then.


def _csv_lines(fh, last_line: list[int]) -> Iterable[str]:
    """The lines of ``fh`` that are not ``#`` comments; ``last_line[0]`` holds the
    physical number of the line yielded last."""
    for line_num, line in enumerate(fh, start=1):
        if line.startswith("#"):
            continue
        last_line[0] = line_num
        yield line


_CHUNK_LINES = 2048
_is_comment = operator.methodcaller("startswith", "#")
_SPECIAL = ('"', "\r", "\0")  # cells csv.reader may read otherwise than a split on ","


class _Columns:
    """The data cells of one CSV file, by column.

    Header names are stripped; a repeated name means its last column. Blank
    lines and ``#`` comment lines are skipped, a leading UTF-8 byte-order mark
    (as spreadsheet exports write) is dropped, and short rows are padded with
    empty cells. A row with more cells than the header, or one that
    ``csv.reader`` cannot read (a cell over ``csv.field_size_limit()``), is an
    error, raised after the errors of the rows before it; the rows from there
    on are not read.

    The lines are read a few thousand at a time. A chunk whose lines hold no
    quote, carriage return or NUL and each have one cell per column splits
    on "," in one pass; those lines are exactly the cells ``csv.reader``
    gives. Any other chunk goes through ``csv.reader``, and from the first
    chunk with a quote, carriage return or NUL on, so does the rest of the
    file, as a quoted cell may span lines.

    Each chunk of a column named in ``numbers`` is converted as it is read,
    by ``_segment``. Any other column holds one string per distinct value,
    as long as at most half of its cells so far are distinct: scan ids, and
    candidate ids numbered per scan, repeat from row to row.
    """

    def __init__(self, path: Path, required: Sequence[str], numbers: Sequence[str] = ()):
        if not path.exists():
            raise InputError(f"{path}: file does not exist")
        self.path = path
        self._first: tuple[int, Callable[[], InputError]] | None = None
        with open_text(path, newline="") as fh:
            lines = itertools.filterfalse(_is_comment, fh)
            try:
                header = next(csv.reader(lines), None)
            except csv.Error:
                self.line(-1)  # reading the header again raises the error with its line
                raise
            if header is None:
                raise InputError(f"{path}: missing header row")
            self._index = {name.strip(): i for i, name in enumerate(header)}
            for column in required:
                if column not in self._index:
                    raise InputError(f"{path}: column {column} missing")
            width = len(header)
            self._cells: list[list[str]] = [[] for _ in range(width)]
            self._segments: dict[int, list[_Segment]] = {
                self._index[name]: [] for name in numbers if name in self._index}
            self._shared = {i: {} for i in range(width) if i not in self._segments}
            self.n = 0
            limit = csv.field_size_limit()
            commas = {width - 1}
            # a chunk at a time, so no line or row list outlives its chunk
            # (and none is left for the garbage collector to trace)
            while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
                text = "".join(chunk)
                if any(c in text for c in _SPECIAL):
                    self._add_rows(csv.reader(itertools.chain(chunk, lines)), width)
                    break
                if (set(map(str.count, chunk, itertools.repeat(","))) == commas
                        and max(map(len, chunk)) <= limit and (width > 1 or "\n" not in chunk)):
                    flat = text.removesuffix("\n").replace("\n", ",").split(",")
                    self._add([flat[i::width] for i in range(width)])
                    self.n += len(chunk)
                elif not self._add_rows(csv.reader(chunk), width):
                    break

    def _add(self, parts: Sequence[Sequence[str]]) -> None:
        """Add one chunk of rows, given as the cells of each column."""
        for i, part in enumerate(parts):
            if i in self._segments:
                self._segments[i].append(_segment(part))
            elif i in self._shared:
                self._cells[i] += map(self._shared[i].setdefault, part, part)
                if 2 * len(self._shared[i]) > len(self._cells[i]):  # mostly distinct values
                    del self._shared[i]
            else:
                self._cells[i] += part

    def _add_rows(self, reader: Iterator[list[str]], width: int) -> bool:
        """Add the rows of ``reader`` a chunk at a time; false if a row stops
        the reading. That row is noted as a fault."""
        failed: list[csv.Error] = []
        rows_iter = _readable_rows(reader, failed)
        problem = None
        while problem is None and (rows := list(itertools.islice(rows_iter, _CHUNK_LINES))):
            if set(map(len, rows)) != {width}:
                rows, long_row = _even_rows(rows, width)
                if long_row is not None:
                    problem = "more cells than header columns"
            self._add(list(zip(*rows)))
            self.n += len(rows)
        if problem is None and failed:
            problem = str(failed[0])  # line() raises it itself, with the line it is on
        if problem is not None:
            row = self.n
            self.note(row, lambda: self.error(row, problem))
        return problem is None

    def raw(self, column: str) -> list[str]:
        return self._cells[self._index[column]]

    def has(self, column: str) -> bool:
        return column in self._index

    def line(self, row: int) -> int:
        """Physical line data row ``row`` ends on (reads the file again). A row
        up to it that ``csv.reader`` cannot read raises its error, with the
        line it is on; row -1 is the header."""
        last_line = [0]
        with open_text(self.path, newline="") as fh:
            reader = csv.reader(_csv_lines(fh, last_line))
            try:
                next(reader)
                if row < 0:
                    return last_line[0]
                for i, _ in enumerate(cells for cells in reader if cells):
                    if i == row:
                        return last_line[0]
            except csv.Error as err:
                raise InputError(f"{self.path}:{last_line[0]}: {err}") from None
        raise AssertionError(f"{self.path}: no data row {row}")

    def error(self, row: int, message: str) -> InputError:
        return InputError(f"{self.path}:{self.line(row)}: {message}")

    def cell_error(self, row: int, column: str, problem: str) -> InputError:
        return self.error(row, f"column {column} {problem}")

    # -- checks on whole columns, noted in the order a row is checked in

    def note(self, row: int | None, make_error: Callable[[], InputError]) -> None:
        """Record that ``row`` fails a check; the error is built if it is raised."""
        if row is not None and (self._first is None or row < self._first[0]):
            self._first = (row, make_error)

    def text(self, column: str) -> list[str]:
        """Stripped cells (stripped in place); an empty one is an error."""
        values = self.raw(column)
        values[:] = map(str.strip, values)
        if "" in values:
            row = values.index("")
            self.note(row, lambda: self.cell_error(row, column, "is empty"))
        return values

    def number(self, column: str, required: bool = True) -> np.ndarray:
        """``float()`` of every cell as float64. A cell that is not a finite
        number is an error, and so is a blank one unless ``required`` is
        false; then it reads as NaN. The chunks of a column named in
        ``numbers`` are let go: such a column is read once."""
        i = self._index[column]
        segments = self._segments.pop(i, None) or [_segment(self._cells[i])]
        faults, start = [], 0
        for values, blank, bad in segments:
            if required and blank is not None:
                faults.append((start + blank, ""))
            if bad is not None:
                faults.append((start + bad[0], bad[1]))
            start += len(values)
        if faults:
            row, cell = min(faults)
            self.note(row, lambda: self.cell_error(row, column, _number_problem(cell)))
        return np.concatenate([values for values, _, _ in segments])

    def integer(self, column: str, required: bool = True) -> list[int | None]:
        """``int()`` of every cell. A cell that is not an integer is an error,
        and so is an empty one unless ``required`` is false; then it reads as
        None."""
        cells = self.raw(column)
        try:  # int() ignores surrounding spaces itself
            return list(map(int, cells)) if required else [int(c) if c else None for c in cells]
        except ValueError:
            pass
        values = list(map(_int_or_none, cells))
        for row in itertools.compress(itertools.count(), map(operator.is_, values,
                                                             itertools.repeat(None))):
            text = cells[row].strip()
            if text or required:
                problem = f"is not an integer: {text!r}" if text else "is empty"
                self.note(row, lambda: self.cell_error(row, column, problem))
                break
        return values

    def where(self, column: str | None, bad: np.ndarray | Iterable[bool],
              words: Callable[[int], str]) -> None:
        """Note the first row ``bad`` marks: the first true of a boolean array
        or of any iterable. ``words(row)`` says what is wrong with a cell of
        ``column``, or with the row for None; it runs now, as a caller's rule
        may close over loop variables."""
        if isinstance(bad, np.ndarray):
            row = int(np.argmax(bad)) if bad.any() else None
        else:
            row = next(itertools.compress(itertools.count(), bad), None)
        if row is not None:
            text = words(row) if column is None else f"column {column} {words(row)}"
            self.note(row, lambda: self.error(row, text))

    def hold_to(self, rules: Iterable[Rule], values: Mapping[str, Sequence]) -> None:
        """Note the first row of ``values``, lists by field, that breaks each
        rule; a rule that reads a field without values is skipped."""
        for fields, words in rules:
            if all(field in values for field in fields):
                cells = [values[field] for field in fields]
                self.where(None, map(words, *cells), lambda row: words(*(c[row] for c in cells)))

    def unit_interval(self, column: str, values: np.ndarray) -> None:
        self.where(column, (values < 0.0) | (values > 1.0),
                   lambda row: f"must lie in [0, 1], got {float(values[row])}")

    def positive(self, column: str, values: np.ndarray) -> None:
        self.where(column, values <= 0.0, lambda row: f"must be positive, got {float(values[row])}")

    def unique(self, columns: Sequence[list[str]],
               make_error: Callable[[int], InputError]) -> None:
        """Note the first row whose key, its cells in ``columns``, an earlier row has."""
        row = first_repeat(*columns)
        if row is not None:
            self.note(row, lambda: make_error(row))

    def clean_rows(self) -> int:
        """The number of rows before the first noted error."""
        return self.n if self._first is None else self._first[0]

    def convention(self, convention: str) -> None:
        """Note an unknown coordinate convention, as first met on the first row."""
        if convention not in COORDINATE_CONVENTIONS and self.n:
            self.note(0, lambda: InputError(
                f"unknown coordinate convention {convention!r}; use lps or ras"))

    def done(self) -> None:
        """Raise the first noted error."""
        if self._first is not None:
            raise self._first[1]()

def _readable_rows(reader: Iterator[list[str]], failed: list[csv.Error]) -> Iterator[list[str]]:
    """The rows of ``reader`` up to one it cannot read; ``failed`` then holds
    the error."""
    try:
        yield from reader
    except csv.Error as err:
        failed.append(err)


def _even_rows(data: list[list[str]], width: int) -> tuple[list[list[str]], int | None]:
    """Rows without blank ones, short ones padded, up to the first row that is
    too long; and that row's index among the kept rows, or None."""
    out = []
    for cells in data:
        if len(cells) != width:
            if not cells:
                continue
            if len(cells) > width:
                return out, len(out)
            cells = cells + [""] * (width - len(cells))
        out.append(cells)
    return out, None


_EMPTY_AS_NAN = {"": "nan"}
# float64 values, NaN for a blank or bad cell; the first blank cell's index;
# and the first bad cell's index and text (a cell is bad if it is not blank
# and not a finite number)
_Segment = tuple[np.ndarray, int | None, tuple[int, str] | None]


def _segment(cells: Sequence[str]) -> _Segment:
    """``float()`` of each cell of one chunk. One parse, each empty cell read
    as NaN, settles a chunk whose only cells that are not finite numbers are
    empty; any other chunk is parsed again a cell at a time."""
    blanks = cells.count("")
    numbers = map(_EMPTY_AS_NAN.get, cells, cells) if blanks else cells
    try:
        values = np.fromiter(map(float, numbers), dtype=np.float64, count=len(cells))
        if np.count_nonzero(~np.isfinite(values)) == blanks:
            return values, cells.index("") if blanks else None, None
    except ValueError:
        pass
    values, blank, bad = np.full(len(cells), math.nan), None, None
    for i, cell in enumerate(cells):
        try:
            value = float(cell)  # float() ignores surrounding whitespace itself
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            values[i] = value
        elif not cell.strip():
            blank = i if blank is None else blank
        elif bad is None:
            bad = (i, cell)
    return values, blank, bad


def _int_or_none(cell: str) -> int | None:
    try:
        return int(cell.strip())  # str.strip() also drops the separators \x1c-\x1f, int() does not
    except ValueError:
        return None


def _number_problem(cell: str) -> str:
    """What is wrong with a numeric cell that is blank or not a finite number."""
    if not cell.strip():
        return "is empty"
    try:
        float(cell)
    except ValueError:  # quoted as it is: strip() drops \x1c-\x1f, float() does not
        return f"is not a number: {cell!r}"
    return f"is not finite: {cell.strip()!r}"


def atomic_write_text(path: str | Path, text: str | Callable[[TextIO], object]) -> Path:
    """Whole-file atomic write of ``text``, or of what ``text(fh)`` writes to the
    open file: temp file in the same directory, then rename. The temp file is
    created new, with the mode ``open()`` gives a file: 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            text(fh) if callable(text) else fh.write(text)
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
    """Rows of Python values: None is written as an empty cell and a float
    as its ``repr``. The rows go to the file as they come, not through a
    string of the whole file."""
    def write(fh: TextIO) -> None:
        if manifest_digest:
            fh.write(f"# manifest_digest={manifest_digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return atomic_write_text(path, write)


# ---------------------------------------------------------------------------
# record readers


def _xyz(columns: _Columns) -> np.ndarray:
    """The ``x_mm``, ``y_mm`` and ``z_mm`` columns as one ``(n, 3)`` array."""
    return np.column_stack([columns.number("x_mm"), columns.number("y_mm"),
                            columns.number("z_mm")]).reshape(-1, 3)


def _to_lps(xyz: np.ndarray, convention: str) -> np.ndarray:
    """RAS centres as LPS (x and y negate), for a convention already checked."""
    if convention == "ras":
        xyz[:, :2] = -xyz[:, :2]
    return xyz


def read_candidates(
    path: str | Path, convention: str = "lps", expected_model: str | None = None
) -> CandidateTable:
    path = Path(path)
    columns = _Columns(path, CANDIDATE_COLUMNS, numbers=_CANDIDATE_NUMBERS)
    model = columns.text("model")
    if expected_model is not None:
        columns.where("model", (m != expected_model for m in model),
                      lambda row: f"must be {expected_model}, got {model[row]!r}")
    xyz = _xyz(columns)
    columns.convention(convention)
    scan_id = columns.text("scan_id")
    candidate_id = columns.text("candidate_id")
    diameter = columns.number("diameter_mm", required=False)
    score = columns.number("score")
    columns.unit_interval("score", score)
    columns.positive("diameter_mm", diameter)
    columns.unique((scan_id, model, candidate_id), lambda row: columns.error(
        row, f"duplicate candidate_id {candidate_id[row]!r} "
             f"for model {model[row]!r} on scan {scan_id[row]!r}"))
    columns.done()
    return CandidateTable(scan_id, candidate_id, model, _to_lps(xyz, convention), diameter, score,
                          unique_keys=True)


def read_references(path: str | Path, convention: str = "lps") -> ReferenceTable:
    """The reference table of a file, which reads as ``ReferenceNodule``
    records. Its columns are held to the rules of ``SemanticRatings`` and
    ``ReferenceNodule``, ``RATING_RULES`` and ``REFERENCE_RULES``, in the
    order those records check a row; each error gains file and line."""
    path = Path(path)
    columns = _Columns(path, REFERENCE_COLUMNS, numbers=(
        "x_mm", "y_mm", "z_mm", "diameter_mm", CHARACTERISTIC_DISPLAY["diameter_rad_mm"]))
    xyz = _xyz(columns)
    ratings = {
        field: (list(map(nan_to_none, columns.number(display, required=False).tolist()))
                if field == "diameter_rad_mm" else columns.integer(display, required=False))
        for display, field in RATING_COLUMN_FIELDS.items() if columns.has(display)
    }
    scan_id = columns.text("scan_id")
    nodule_id = columns.text("nodule_id")
    diameter = columns.number("diameter_mm")
    reviewers = columns.integer("reviewers", required=False)
    votes = columns.integer("positive_votes", required=False)
    diagnosis = [cell.strip() or "unknown" for cell in columns.raw("diagnosis")]
    lungrads = [cell.strip() or None for cell in columns.raw("lungrads")]
    columns.hold_to(RATING_RULES, ratings)
    if convention not in COORDINATE_CONVENTIONS and columns.n:
        columns.note(0, lambda: columns.error(
            0, f"unknown coordinate convention {convention!r}; use lps or ras"))
    columns.hold_to(REFERENCE_RULES, {
        "diameter_mm": diameter.tolist(), "diagnosis": diagnosis, "lungrads": lungrads,
        "nodule_id": nodule_id, "reviewers": reviewers, "positive_votes": votes})
    columns.unique((scan_id, nodule_id), lambda row: columns.error(
        row, f"duplicate nodule_id {nodule_id[row]!r} on scan {scan_id[row]!r}"))
    columns.done()
    return ReferenceTable(scan_id, nodule_id, _to_lps(xyz, convention), diameter, diagnosis,
                          lungrads, reviewers, votes, ratings or None, unique_keys=True)


def read_cadx_scores(path: str | Path) -> CadxScoreTable:
    path = Path(path)
    columns = _Columns(path, CADX_SCORE_COLUMNS, numbers=("p_luna", "p_dlcs"))
    key = (columns.text("scan_id"), columns.text("model"), columns.text("candidate_id"))
    columns.unique(key, lambda row: columns.error(
        row, f"duplicate CADx score entry for {tuple(column[row] for column in key)}"))
    p_luna = columns.number("p_luna")
    p_dlcs = columns.number("p_dlcs")
    columns.unit_interval("p_luna", p_luna)
    columns.unit_interval("p_dlcs", p_dlcs)
    columns.done()
    return CadxScoreTable(*key, p_luna, p_dlcs)


def read_labeled_scores(path: str | Path) -> tuple[list[float], list[str]]:
    path = Path(path)
    columns = _Columns(path, LABELED_SCORE_COLUMNS, numbers=("score",))
    scores = columns.number("score")
    labels = columns.text("label")
    columns.done()
    return scores.tolist(), labels


def read_reports(path: str | Path) -> list[tuple[str, str, str]]:
    """Tab-separated report records: report_id, scan_id, free text. The ids
    are stripped, as the CSV readers strip theirs, and must not be empty."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    out = []
    with open_text(path) as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise InputError(
                    f"{path}:{line_num}: expected 3 tab-separated fields, got {len(parts)}"
                )
            report_id, scan_id, text = parts[0].strip(), parts[1].strip(), parts[2]
            for column, value in (("report_id", report_id), ("scan_id", scan_id)):
                if not value:
                    raise InputError(f"{path}:{line_num}: column {column} is empty")
            out.append((report_id, scan_id, text))
    return out


def read_fused(path: str | Path, convention: str = "lps") -> CandidateTable:
    """The fused-list table of a file, which reads as ``FusedCandidate``
    records. Its rows are held to the rules ``FusedCandidate`` enforces when
    ``fuse`` writes them: score and ``cadx_avg`` in [0, 1], a positive
    diameter, the tier of the stage, and ``cadx_avg`` exactly for
    cadx-promoted rows; no (scan, candidate id) repeats. Each provenance
    cell is split into its tuple of qualified ids."""
    path = Path(path)
    columns = _Columns(path, FUSED_COLUMNS, numbers=_CANDIDATE_NUMBERS + ("tier", "cadx_avg"))
    xyz = _xyz(columns)
    stage = columns.text("stage")
    known = np.array([s in TIER_BY_STAGE for s in stage], dtype=bool)
    columns.where("stage", ~known, lambda row: f"has unknown value {stage[row]!r}")
    scan_id = columns.text("scan_id")
    candidate_id = columns.text("candidate_id")
    diameter = columns.number("diameter_mm", required=False)
    score = columns.number("score")
    tier = columns.number("tier")
    cadx_avg = columns.number("cadx_avg", required=False)
    provenance = columns.text("provenance")
    columns.unit_interval("score", score)
    columns.positive("diameter_mm", diameter)
    stage_tier = np.array([TIER_BY_STAGE.get(s, math.nan) for s in stage], dtype=np.float64)
    columns.where("tier", (tier != stage_tier) & known, lambda row: (
        f"must be {TIER_BY_STAGE[stage[row]]} for stage {stage[row]}, got {float(tier[row])}"))
    promoted = np.array([s == STAGE_CADX for s in stage], dtype=bool)
    empty = np.isnan(cadx_avg)
    columns.where("cadx_avg", promoted & empty, lambda row: f"is empty for stage {stage[row]}")
    columns.unit_interval("cadx_avg", np.where(promoted, cadx_avg, math.nan))
    columns.where("cadx_avg", ~promoted & ~empty,
                  lambda row: f"must be empty for stage {stage[row]}")
    columns.unique((scan_id, candidate_id), lambda row: columns.error(
        row, f"duplicate candidate_id {candidate_id[row]!r} on scan {scan_id[row]!r}"))
    columns.convention(convention)
    columns.done()
    model = list(map(str.strip, columns.raw("model")))  # not checked: fused files say FUSED
    # ids, and so provenance cells, repeat from scan to scan: one tuple per distinct cell
    split = {p: tuple(p.split(PROVENANCE_SEP)) for p in set(provenance)}
    return CandidateTable(scan_id, candidate_id, model, _to_lps(xyz, convention), diameter, score,
                          tier=tier, stage=stage, cadx_avg=cadx_avg,
                          provenance=list(map(split.__getitem__, provenance)),
                          unique_keys=True)


def read_match_files(paths: Sequence[str | Path]) -> dict[str, dict[tuple[str, str], float | None]]:
    """Read per-model match files; returns model -> {(scan, nodule): score|None}.
    A (scan, nodule) key appears once per model, across all the files."""
    out: dict[str, dict[tuple[str, str], float | None]] = {}
    for path in paths:
        path = Path(path)
        columns = _Columns(path, MATCH_COLUMNS, numbers=("score",))
        model = columns.text("model")
        scan_id = columns.text("scan_id")
        nodule_id = columns.text("nodule_id")
        detected = columns.integer("detected")
        columns.where("detected", np.array([d not in (0, 1, None) for d in detected], dtype=bool),
                      lambda row: "must be 0 or 1")
        score = columns.number("score", required=False)
        columns.where(None, np.array([d == 1 for d in detected], dtype=bool) & np.isnan(score),
                      lambda row: "detected row without a score")

        def repeated(row: int) -> str:
            return f"duplicate match entry for {(scan_id[row], nodule_id[row])}"

        columns.unique((model, scan_id, nodule_id), lambda row: columns.error(row, repeated(row)))
        columns.where(None, ((scan, nodule) in out.get(m, ())  # the keys of the files before
                             for m, scan, nodule in zip(model, scan_id, nodule_id)), repeated)
        columns.done()
        for m, scan, nodule, d, value in zip(model, scan_id, nodule_id, detected, score.tolist()):
            out.setdefault(m, {})[(scan, nodule)] = value if d == 1 else None
    return out


# ---------------------------------------------------------------------------
# record writers


# rows turned into cells at a time: writing a fused list peaks at 1.1 MB
# under tracemalloc with 1024, 4.1 MB with 4096, and the bytes are the same
_FUSED_CHUNK = 1024
_QUOTED = (",", '"', "\r", "\n", "\0")  # text csv.writer may quote or refuse


def write_fused_csv(
    path: str | Path, fused: Iterable[FusedCandidate], manifest_digest: str | None = None
) -> Path:
    """The fused list, a fused-list table or ``FusedCandidate`` records (as
    ``fusion.fused_table`` numbers them), written from the table's columns,
    ``_FUSED_CHUNK`` (1024) rows at a time, so the cells of few rows are
    alive at once: a float as its ``repr``, a NaN diameter
    or ``cadx_avg`` as an empty cell, provenance joined with ``|``. Each
    column of a chunk is formatted once and the rows joined with ","; a
    chunk with a text cell ``csv.writer`` would quote goes through it."""
    t = fused_table(fused)

    def numbers(values: np.ndarray) -> list[str]:
        return list(map(repr, values.tolist()))

    def optional(values: np.ndarray) -> list[str]:
        return ["" if v != v else repr(v) for v in values.tolist()]

    def write(fh: TextIO) -> None:
        if manifest_digest:
            fh.write(f"# manifest_digest={manifest_digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FUSED_COLUMNS)
        for start in range(0, len(t), _FUSED_CHUNK):
            part = slice(start, start + _FUSED_CHUNK)
            text = scan_id, candidate_id, model, stage, provenance = (
                t.scan_id[part], t.candidate_id[part], t.model[part], t.stage[part],
                list(map(PROVENANCE_SEP.join, t.provenance[part])))
            rows = zip(scan_id, candidate_id, *map(numbers, t.xyz[part].T),
                       optional(t.diameter_mm[part]), numbers(t.score[part]), model,
                       numbers(t.tier[part]), stage, optional(t.cadx_avg[part]), provenance)
            if any(c in joined for joined in map("".join, text) for c in _QUOTED):
                writer.writerows(rows)
            else:
                fh.write("\n".join(map(",".join, rows)))
                fh.write("\n")

    return atomic_write_text(path, write)


def write_matches_csv(
    path: str | Path,
    result: LesionMatchResult,
    model_label: str,
    manifest_digest: str | None = None,
) -> Path:
    """One row per reference, in (scan, nodule id) order: detected with the
    matched score, or not."""
    scan_ids, score = result.scan_ids, result.score.tolist()
    rows = ((scan_ids[j], nodule_id, 1, score[p], model_label) if p >= 0 else
            (scan_ids[j], nodule_id, 0, None, model_label)
            for j, nodule_id, p in zip(result.ref_scan.tolist(), result.nodule_id,
                                       result.matched.tolist()))
    return write_csv(path, MATCH_COLUMNS, rows, manifest_digest)


# each writer's header follows its row dataclass's field order (the CADx sweep puts
# ``missed`` first)
CADX_SWEEP_HEADER = ("Missed", "Threshold", "Recall", "Precision", "FPR",
                     "Flagged (%)", "FN", "FP", "TP")
CADE_SWEEP_HEADER = ("τ_CADe", "CPM", "Candidates (n)", "Missed (n)")


def write_cadx_sweep_csv(
    path: str | Path, rows: Sequence[CadxSweepRow], manifest_digest: str | None = None
) -> Path:
    table = [(r.missed, *dataclasses.astuple(r)) for r in rows]
    return write_csv(path, CADX_SWEEP_HEADER, table, manifest_digest)


def write_cade_sweep_csv(
    path: str | Path, rows: Sequence[CadeSweepRow], manifest_digest: str | None = None
) -> Path:
    return write_csv(path, CADE_SWEEP_HEADER, map(dataclasses.astuple, rows), manifest_digest)


CONSENSUS_HEADER = ("Pattern", "Model", "GT Count (n)", "Detected (n)",
                    "Mean", "SD", "Median", "Min", "Max")


def write_consensus_csv(
    path: str | Path,
    summaries: Mapping[str, Mapping[str, GroupScoreSummary]],
    manifest_digest: str | None = None,
) -> Path:
    """summaries: model -> pattern -> GroupScoreSummary."""
    rows = [(pattern, model, *dataclasses.astuple(s))
            for model in sorted(summaries) for pattern, s in summaries[model].items()]
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
    return write_csv(path, OVERLAP_HEADER, map(dataclasses.astuple, rows), manifest_digest)


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
    path: str | Path, matches: EntityMatches, manifest_digest: str | None = None
) -> Path:
    """One row per row of ``matches``, in its order. A candidate-only row
    holds only its status and candidate id."""
    entities, taken, criteria = matches.entities, matches.taken, matches.criteria
    ids = matches.table.candidate_id

    def rows() -> Iterator[tuple]:
        for k in matches.order:
            if k < 0:
                yield None, None, "candidate_only", ids[~k], None, None, None, ""
                continue
            e, row = entities[k], taken[k]
            yield (e.report_id, e.scan_id, "matched" if row >= 0 else "report_only",
                   ids[row] if row >= 0 else None, e.size_mm, e.lobe, e.lungrads,
                   ";".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in criteria[k]))

    return write_csv(path, ENTITY_MATCH_HEADER, rows(), manifest_digest)


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
    """One ``METRICS_CSV_HEADER`` row per result, from its ``froc_result_payload``."""
    rows = []
    for name, result in named_results.items():
        p = froc_result_payload(result)
        rows.append((name, p["cpm"], *(p["cpm_ci"] or (None, None)), p["sensitivity_at_1fp"],
                     *(p["sensitivity_at_1fp_ci"] or (None, None)), p["detected"], p["lesions"],
                     p["candidates"], p["scans"], p["candidates_per_scan"]))
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
    """The SHA-256 hex digest of a file's bytes, read into one 256 KiB
    buffer again and again: no new bytes object per read."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
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


def parse_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """key=value configuration mirroring the CLI flags (keys without '--'):
    each key's value and the number of the line it is on."""
    path = Path(path)
    try:
        return read_settings(path, ConfigError)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
