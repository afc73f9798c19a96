"""Shared domain records and the lesion hit criterion.

All geometry lives in world millimeters (LPS unless converted at ingestion).
The hit test between a detection and a reference nodule uses a
diameter-dependent tolerance: half the reference diameter for nodules under
10 mm, capped at 5 mm from 10 mm upward. The boundary is inclusive, so a
candidate exactly at tolerance distance counts as a hit.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError

SOURCE_MODEL_A = "CADE_A"
SOURCE_MODEL_B = "CADE_B"
DETECTOR_MODELS = (SOURCE_MODEL_A, SOURCE_MODEL_B)

DIAGNOSES = ("benign", "cancer", "unknown")
LUNGRADS_CATEGORIES = ("1", "2", "3", "4A", "4B", "4X")
LOBE_BY_LABEL = {28: "LUL", 29: "LLL", 30: "RUL", 31: "RML", 32: "RLL"}
LUNG_LOBE_LABELS = frozenset(LOBE_BY_LABEL)

TOLERANCE_CAP_MM = 5.0
TOLERANCE_CAP_AT_DIAMETER_MM = 10.0

PROVENANCE_SEP = "|"

STAGE_CONSENSUS = "consensus"
STAGE_CADX = "cadx_promoted"
STAGE_CADE = "cade_refined"
TIER_BY_STAGE = {STAGE_CONSENSUS: 1.0, STAGE_CADX: 0.5, STAGE_CADE: 0.2}
FUSED_MODEL = "FUSED"  # the model column of a fused list

RATING_RANGES = {
    "subtlety": (1, 5),
    "malignancy": (0, 5),
    "texture": (1, 5),
    "spiculation": (1, 5),
    "lobulation": (1, 4),
    "margin": (1, 5),
    "sphericity": (1, 5),
}


def require_finite(name: str, value) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{name} is not a number: {value!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{name} is not finite: {value!r}")
    return value


def require_unit_interval(name: str, value) -> float:
    value = require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_positive(name: str, value) -> float:
    value = require_finite(name, value)
    if value <= 0.0:
        raise InputError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class WorldPoint:
    """A point in world millimeters. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for axis in ("x", "y", "z"):
            object.__setattr__(self, axis, require_finite(f"coordinate {axis}", getattr(self, axis)))

    def distance_to(self, other: "WorldPoint") -> float:
        """Euclidean distance; ``inf`` when the squared distance overflows."""
        return distance_mm(self.x, self.y, self.z, other.x, other.y, other.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def distance_mm(ax: float, ay: float, az: float, bx: float, by: float, bz: float) -> float:
    """Euclidean distance between two points given by their coordinates as
    Python floats; ``inf`` when the squared distance overflows.

    Each difference is squared by one multiplication, not by ``**`` (libm's
    ``pow``, which may round differently), and the squares are summed in x, y,
    z order: every step is one IEEE-rounded operation, so ``near_pairs``
    computes the same bits in numpy."""
    dx, dy, dz = ax - bx, ay - by, az - bz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


# np.median, np.percentile and np.unique import numpy.ma on their first call:
# 2 MB resident for a module trifuse does not use. These two sort the values
# and reach numpy's results with the same float arithmetic.


def median(values: Iterable[float]) -> float:
    """The median of one or more floats, as ``np.median`` gives it: the
    middle value, or the mean of the two middle values."""
    s = sorted(values)
    m = len(s) // 2
    return float(s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)


def percentiles(values: Iterable[float], q: Iterable[float]) -> list[float]:
    """The ``q`` percentiles of one or more floats, as ``np.percentile`` gives
    them (its default linear method): at index ``(n - 1) * (q / 100)`` of the
    sorted values, ``a + (b - a) * t`` between the values ``a`` and ``b``
    either side, or ``b - (b - a) * (1 - t)`` when ``t >= 0.5``."""
    s = sorted(values)
    out = []
    for p in q:
        index = (len(s) - 1) * (p / 100)
        lo = hi = -1  # from the last index on, numpy takes the last value, at index -1
        if index < len(s) - 1:
            lo = math.floor(index)
            hi = lo + 1
        a, b, t = s[lo], s[hi], index - lo
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t))
    return out


PAIR_BLOCK = 1 << 14  # pair tests near_pairs makes at a time


def sort_key(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One array that sorts as the rows' (code, value) pairs: numpy orders
    complex numbers lexicographically, and one sort of them is faster than
    ``np.lexsort`` of the two."""
    key = np.empty(len(values), complex)
    key.real, key.imag = codes, values
    return key


def near_pairs(codes_a: np.ndarray, xyz_a: np.ndarray, codes_b: np.ndarray, xyz_b: np.ndarray,
               radius_mm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, in row-major order, of rows of the ``(n, 3)`` arrays
    ``xyz_a`` and ``xyz_b`` with equal (scan) codes whose points lie within
    ``radius_mm``, and their distances: each one the bits ``distance_mm`` gives.

    Pairs are tested about ``PAIR_BLOCK`` at a time, on the rows of B whose x
    lies within ``reach`` of A's: the radius, with a slack that covers the
    rounding of the window's edges and of a distance, and squares that
    underflow. The slack decides which pairs are tested, never which are
    within. A distance that overflows is ``inf``, never within."""
    keys = sort_key(codes_b, xyz_b[:, 0])
    order = np.argsort(keys, kind="stable")
    x = xyz_a[:, 0]
    reach = radius_mm * (1.0 + 1e-9) + 1e-150
    lo = np.searchsorted(keys[order], sort_key(codes_a, x - reach), "left")
    counts = np.searchsorted(keys[order], sort_key(codes_a, x + reach), "right") - lo
    ends = np.cumsum(counts)
    first = lo - ends + counts  # pair g of row i tests B's sorted row first[i] + g
    rows, cols, dists = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    start = 0
    while start < len(x):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + PAIR_BLOCK, "right")))
        i = np.repeat(np.arange(start, stop), counts[start:stop])
        j = order[first[i] + np.arange(done, ends[stop - 1])]
        with np.errstate(over="ignore"):
            d = xyz_a[i] - xyz_b[j]
            d *= d
            dist = np.sqrt(d[:, 0] + d[:, 1] + d[:, 2])  # distance_mm's sum, in its order
        near = dist <= radius_mm
        rows.append(i[near])
        cols.append(j[near])
        dists.append(dist[near])
        start = stop
    rows, cols, dists = np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)
    row_major = np.lexsort((cols, rows))
    return rows[row_major], cols[row_major], dists[row_major]


@dataclass(frozen=True)
class CandidateDetection:
    """One detector proposal: a scored location on a single scan.

    ``candidate_id`` must be unique within one (scan_id, source_model) pair.
    ``source_model`` is CADE_A or CADE_B for raw detector output; fused lists
    re-ingested for evaluation may carry other labels.
    """

    scan_id: str
    candidate_id: str
    center: WorldPoint
    score: float
    source_model: str
    diameter_mm: float | None = None

    def __post_init__(self):
        if not self.scan_id:
            raise InputError("candidate scan_id must be non-empty")
        if not self.candidate_id:
            raise InputError("candidate_id must be non-empty")
        if not self.source_model:
            raise InputError("candidate source_model must be non-empty")
        object.__setattr__(self, "score", require_unit_interval("candidate score", self.score))
        if self.diameter_mm is not None:
            object.__setattr__(
                self, "diameter_mm", require_positive("candidate diameter_mm", self.diameter_mm)
            )

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.scan_id, self.source_model, self.candidate_id)

    @property
    def qualified_id(self) -> str:
        """Identifier unique within one scan across both detectors."""
        return f"{self.source_model}:{self.candidate_id}"


@dataclass(frozen=True)
class FusedCandidate:
    """A fused-list row: a location with confidence tier and provenance.

    ``candidate_id`` is the row's ``F0000``-style id in its list; it is None
    until the list is numbered."""

    scan_id: str
    center: WorldPoint
    confidence_tier: float
    stage: str
    cade_score_avg: float
    provenance: tuple[str, ...]
    diameter_mm: float | None = None
    cadx_avg: float | None = None
    candidate_id: str | None = None

    def __post_init__(self):
        if self.stage not in TIER_BY_STAGE:
            raise InputError(f"unknown fusion stage {self.stage!r}")
        if self.confidence_tier != TIER_BY_STAGE[self.stage]:
            raise InvariantError(
                f"tier {self.confidence_tier} inconsistent with stage {self.stage!r}"
            )
        if (self.cadx_avg is not None) != (self.stage == STAGE_CADX):
            raise InvariantError("cadx_avg must be present exactly for cadx-promoted candidates")
        object.__setattr__(
            self, "cade_score_avg", require_unit_interval("cade_score_avg", self.cade_score_avg)
        )
        if not self.provenance:
            raise InvariantError("fused candidate must carry provenance")

    @property
    def primary_id(self) -> str:
        return self.provenance[0]


class RecordSequence(Sequence):
    """A sequence that builds its records only when asked; ``==`` compares
    them with those of another such sequence, a list or a tuple."""

    def __eq__(self, other):
        if isinstance(other, (RecordSequence, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


class RowTable(RecordSequence):
    """Rows held by column, ``scan_id`` among them; as a sequence the table
    reads as the records that its ``records(rows)`` builds."""

    def __len__(self) -> int:
        return len(self.scan_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.records(range(*index.indices(len(self))))
        return self.records([range(len(self))[index]])[0]

    def __iter__(self):
        return iter(self.records(range(len(self))))

    @classmethod
    def of(cls, rows: Iterable):
        """``rows`` if it is a table of this class, else the table of its records."""
        return rows if isinstance(rows, cls) else cls.from_records(rows)


def nan_to_none(value: float) -> float | None:
    """A column value as a record field: NaN marks an empty cell."""
    return None if value != value else value


def run_bounds(*columns: Sequence) -> list[int]:
    """0, the first row of each later run of rows equal in every column, and
    the number of rows; ``[0]`` for no rows."""
    n = len(columns[0])
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for column in columns:
        change |= np.fromiter(map(operator.ne, itertools.islice(column, 1, None), column),
                              dtype=bool, count=change.size)
    return [0, *(np.flatnonzero(change) + 1).tolist(), n] if n else [0]


def rows_by_scan(scan_id: Sequence[str]) -> dict[str, np.ndarray]:
    """The ascending row indices of each scan in a ``scan_id`` column, keyed
    in the order the scans first appear."""
    # rows come in runs of one scan, usually one run per scan
    bounds = run_bounds(scan_id)
    runs: dict[str, list[np.ndarray]] = {}
    for start, end in zip(bounds, bounds[1:]):
        runs.setdefault(scan_id[start], []).append(np.arange(start, end, dtype=np.intp))
    return {scan: r[0] if len(r) == 1 else np.concatenate(r) for scan, r in runs.items()}


def first_repeat(*columns: Sequence[str]) -> int | None:
    """The first row whose key, its cells in two or more ``columns``, an
    earlier row has; None if no key repeats. Distinct keys are counted a run
    of rows equal in all but the last column at a time, so only columns that
    repeat a key get a key tuple per row."""
    *groups, ids = columns
    bounds = run_bounds(*groups)
    ids_by_group: dict[tuple[str, ...], set[str]] = {}
    for start, end in zip(bounds, bounds[1:]):
        ids_by_group.setdefault(tuple(c[start] for c in groups), set()).update(ids[start:end])
    if sum(map(len, ids_by_group.values())) == len(ids):
        return None
    seen: set[tuple[str, ...]] = set()
    for row, key in enumerate(zip(*columns)):
        if key in seen:
            return row
        seen.add(key)
    raise InvariantError("a repeated key was counted but not found")


def output_ids(scan_ids: list[str]) -> list[str]:
    """The ids of a fused list's rows: ``F0000``, ``F0001``, ... per scan, in
    list order."""
    counts: dict[str, int] = {}
    ids: list[str] = []
    names: list[str] = []  # one string per id, whatever the number of scans
    for scan_id, run in itertools.groupby(scan_ids):
        start = counts.get(scan_id, 0)
        counts[scan_id] = end = start + len(list(run))
        names += [f"F{n:04d}" for n in range(len(names), end)]
        ids += names[start:end]
    return ids


_COLUMNS = ("scan_id", "candidate_id", "model", "xyz", "diameter_mm", "score", "tier", "stage",
            "cadx_avg", "provenance")


class CandidateTable(RowTable):
    """Candidate rows held by column, in file order.

    Columns: ``scan_id``, ``candidate_id`` and ``model`` (lists of str),
    ``xyz`` (an ``(n, 3)`` float64 array), ``diameter_mm`` (float64, NaN where
    no diameter is given) and ``score`` (float64). A fused-list table also
    holds ``tier`` (float64), ``stage`` (list of str), ``cadx_avg`` (float64,
    NaN where empty) and ``provenance`` (each row's tuple of qualified ids);
    other tables hold None there.

    As a sequence the table reads as its records: indexing, iteration and
    ``==`` against a list build one ``CandidateDetection`` per row, or one
    ``FusedCandidate`` for a fused-list table, only when asked; ``of`` turns
    either kind of record back into its table. The columns
    are taken as given; the record constructors check each row they build.
    A table made by ``take`` holds in ``source_rows`` the rows it was taken
    at; any other table holds None there. ``unique_keys`` says the caller
    has checked that no (scan, model, candidate id) key repeats, so
    ``require_unique_keys`` does not check again.
    """

    def __init__(self, scan_id: list[str], candidate_id: list[str], model: list[str],
                 xyz: np.ndarray, diameter_mm: np.ndarray, score: np.ndarray,
                 tier: np.ndarray | None = None, stage: list[str] | None = None,
                 cadx_avg: np.ndarray | None = None,
                 provenance: list[tuple[str, ...]] | None = None, *,
                 unique_keys: bool = False):
        self.scan_id = scan_id
        self.candidate_id = candidate_id
        self.model = model
        self.xyz = xyz
        self.diameter_mm = diameter_mm
        self.score = score
        self.tier = tier
        self.stage = stage
        self.cadx_avg = cadx_avg
        self.provenance = provenance
        self._by_scan: dict[str, np.ndarray] | None = None
        self._qualified_id: list[str] | None = None
        self._unique_keys = unique_keys  # no (scan, model, candidate id) repeats
        self.source_rows: np.ndarray | None = None

    @classmethod
    def from_records(cls, records: Iterable[CandidateDetection | FusedCandidate]
                     ) -> "CandidateTable":
        """The table of API records, which must not repeat a (scan, model,
        candidate id) key; the readers reject repeated keys themselves.
        ``CandidateDetection`` records give a detection table, ``FusedCandidate``
        records a fused-list table of model ``FUSED``, with their
        ``candidate_id``s when every record has one, numbered ``F0000``,
        ``F0001``, ... per scan in list order when none has."""
        records = list(records)
        fused = {isinstance(c, FusedCandidate) for c in records}
        if len(fused) > 1:
            raise InputError("candidate records must all be detections or all fused")

        def floats(field: str) -> np.ndarray:  # NaN where a record holds None
            return np.array([math.nan if (v := getattr(c, field)) is None else v
                             for c in records], dtype=np.float64)

        scan_id = [c.scan_id for c in records]
        xyz = np.array([c.center.as_tuple() for c in records], dtype=np.float64).reshape(-1, 3)
        if True not in fused:  # detections, or no records at all
            return cls(scan_id, [c.candidate_id for c in records],
                       [c.source_model for c in records], xyz, floats("diameter_mm"),
                       floats("score")).require_unique_keys()
        ids = [f.candidate_id for f in records]
        if None in ids:
            if ids.count(None) < len(ids):
                raise InputError("fused records must all have a candidate_id, or none")
            ids = output_ids(scan_id)
        return cls(scan_id, ids, [FUSED_MODEL] * len(records), xyz, floats("diameter_mm"),
                   floats("cade_score_avg"), floats("confidence_tier"), [f.stage for f in records],
                   floats("cadx_avg"), [f.provenance for f in records]).require_unique_keys()

    @classmethod
    def take_joined(cls, first: "CandidateTable", second: "CandidateTable",
                    rows: np.ndarray) -> "CandidateTable":
        """The table of the given rows, in the given order, of two tables with
        the same columns as if joined, ``first``'s rows then ``second``'s:
        each cell is taken from its own table, and the two are never joined.
        ``source_rows`` holds ``rows``."""
        n = len(first)
        from_second = rows >= n

        def pick(a, b):
            if a is None:
                return None
            listed = isinstance(a, list)
            if listed:  # as object arrays, tuples too: no int object per row taken
                a, b = (np.fromiter(c, object, len(c)) for c in (a, b))
            column = np.empty((len(rows), *a.shape[1:]), a.dtype)
            column[~from_second] = a[rows[~from_second]]
            column[from_second] = b[rows[from_second] - n]
            return column.tolist() if listed else column

        table = cls(*(pick(getattr(first, name), getattr(second, name)) for name in _COLUMNS))
        table.source_rows = rows
        return table

    def require_unique_keys(self) -> "CandidateTable":
        """This table, if no two rows share a (scan, model, candidate id) key;
        else the ``InputError`` of the first row that repeats one. A table
        checked once, or taken at distinct rows of one, is not checked again."""
        if not self._unique_keys:
            row = first_repeat(self.scan_id, self.model, self.candidate_id)
            if row is not None:
                raise InputError(f"duplicate candidate {self.candidate_id[row]!r} for model "
                                 f"{self.model[row]!r} on scan {self.scan_id[row]!r}")
        self._unique_keys = True
        return self

    @property
    def by_scan(self) -> dict[str, np.ndarray]:
        """Row indices of each scan, ascending (file order)."""
        if self._by_scan is None:
            self._by_scan = rows_by_scan(self.scan_id)
        return self._by_scan

    @property
    def qualified_id(self) -> list[str]:
        """Each row's ``source_model:candidate_id``, as on its record; rows with
        equal ids share one string (ids repeat from scan to scan)."""
        if self._qualified_id is None:
            shared: dict[str, str] = {}
            self._qualified_id = [shared.setdefault(q := f"{m}:{c}", q)
                                  for m, c in zip(self.model, self.candidate_id)]
        return self._qualified_id

    def take(self, rows: Sequence[int]) -> "CandidateTable":
        """The table of the given rows, in the given order: every column, and
        the ``qualified_id`` list when this table has computed it."""
        rows = np.asarray(rows, dtype=np.intp)
        index = rows.tolist()

        def pick(column):
            return None if column is None else [column[i] for i in index]

        def pick_array(column):
            return None if column is None else column[rows]

        table = type(self)(
            pick(self.scan_id), pick(self.candidate_id), pick(self.model), self.xyz[rows],
            self.diameter_mm[rows], self.score[rows], pick_array(self.tier), pick(self.stage),
            pick_array(self.cadx_avg), pick(self.provenance),
        )
        table._qualified_id = pick(self._qualified_id)
        if self._unique_keys:  # rows taken at most once keep the keys unique
            seen = np.zeros(len(self), dtype=bool)
            seen[rows] = True  # a negative row and its positive twin mark one row
            table._unique_keys = int(np.count_nonzero(seen)) == rows.size
        table.source_rows = rows
        return table

    def records(self, rows: Iterable[int]) -> list:
        """The records of the given rows, in the given order."""
        rows = np.fromiter(rows, dtype=np.intp) if not isinstance(rows, np.ndarray) else rows
        index = rows.tolist()
        centers = [WorldPoint(*p) for p in self.xyz[rows].tolist()]
        diameters = map(nan_to_none, self.diameter_mm[rows].tolist())
        scores = self.score[rows].tolist()
        scan_id, candidate_id = self.scan_id, self.candidate_id
        if self.stage is None:
            model = self.model
            return [CandidateDetection(scan_id[i], candidate_id[i], p, s, model[i], d)
                    for i, p, d, s in zip(index, centers, diameters, scores)]
        stage, provenance = self.stage, self.provenance
        return [
            FusedCandidate(scan_id[i], p, t, stage[i], s, provenance[i], d, nan_to_none(c),
                           candidate_id[i])
            for i, p, d, s, t, c in zip(index, centers, diameters, scores,
                                        self.tier[rows].tolist(), self.cadx_avg[rows].tolist())
        ]


# The rules a reference row is held to, in the order a row is checked: the
# fields each reads, and a test of their values that gives the words of its
# error if they break it, else None. ``SemanticRatings`` and
# ``ReferenceNodule`` hold their one row to them; ``fileio.read_references``
# holds whole columns to them.
Rule = tuple[tuple[str, ...], Callable[..., str | None]]


def _integer_rule(field: str, label: str, lo: int, hi: float, must: str) -> Rule:
    """``field`` is None or an integer in [``lo``, ``hi``]."""
    return (field,), lambda value: (
        f"{label} must be {must}, got {value!r}"
        if value is not None and (not isinstance(value, int) or not lo <= value <= hi) else None)


RATING_RULES: tuple[Rule, ...] = (
    *(_integer_rule(name, f"rating {name}", lo, hi, f"an integer in [{lo}, {hi}]")
      for name, (lo, hi) in RATING_RANGES.items()),
    *(_integer_rule(name, f"rating {name}", 0, math.inf, "a non-negative integer")
      for name in ("internal_structure", "calcification")),
    (("diameter_rad_mm",), lambda d: (
        f"diameter_rad_mm must be positive, got {float(d)}"
        if d is not None and require_finite("diameter_rad_mm", d) <= 0.0 else None)),
)
REFERENCE_RULES: tuple[Rule, ...] = (
    (("diameter_mm",), lambda d: f"reference diameter_mm must be positive, got {d}"
     if d <= 0.0 else None),
    (("diagnosis",), lambda d: None if d in DIAGNOSES
     else f"diagnosis must be one of {DIAGNOSES}, got {d!r}"),
    (("lungrads",), lambda c: None if c is None or c in LUNGRADS_CATEGORIES
     else f"lungrads must be one of {LUNGRADS_CATEGORIES}, got {c!r}"),
    (("nodule_id", "reviewers", "positive_votes"), lambda n, r, v: (
        f"nodule {n}: positive_votes given without reviewers"
        if r is None and v is not None else None)),
    _integer_rule("reviewers", "reviewers", 1, math.inf, "a positive integer"),
    _integer_rule("positive_votes", "positive_votes", 0, math.inf, "a non-negative integer"),
    (("nodule_id", "reviewers", "positive_votes"), lambda n, r, v: (
        f"nodule {n}: positive_votes {v} exceeds reviewers {r}"
        if r is not None and v is not None and v > r else None)),
)


def hold_to(record, rules: Iterable[Rule]) -> None:
    """Raise the ``InputError`` of the first rule the fields of ``record`` break."""
    for fields, words in rules:
        broken = words(*(getattr(record, field) for field in fields))
        if broken:
            raise InputError(broken)


@dataclass(frozen=True)
class SemanticRatings:
    """Ordinal reader ratings for one nodule; every field optional."""

    subtlety: int | None = None
    malignancy: int | None = None
    texture: int | None = None
    spiculation: int | None = None
    lobulation: int | None = None
    margin: int | None = None
    sphericity: int | None = None
    internal_structure: int | None = None
    calcification: int | None = None
    diameter_rad_mm: float | None = None

    def __post_init__(self):
        hold_to(self, RATING_RULES)
        if self.diameter_rad_mm is not None:
            object.__setattr__(self, "diameter_rad_mm", float(self.diameter_rad_mm))

    def value(self, characteristic: str):
        if not hasattr(self, characteristic):
            raise InputError(f"unknown semantic characteristic {characteristic!r}")
        return getattr(self, characteristic)


@dataclass(frozen=True)
class ReferenceNodule:
    """Ground-truth lesion with diagnosis, category and optional reader votes."""

    scan_id: str
    nodule_id: str
    center: WorldPoint
    diameter_mm: float
    diagnosis: str = "unknown"
    lungrads: str | None = None
    reviewers: int | None = None
    positive_votes: int | None = None
    ratings: SemanticRatings | None = None

    def __post_init__(self):
        if not self.scan_id:
            raise InputError("reference scan_id must be non-empty")
        if not self.nodule_id:
            raise InputError("reference nodule_id must be non-empty")
        object.__setattr__(
            self, "diameter_mm", require_finite("reference diameter_mm", self.diameter_mm))
        hold_to(self, REFERENCE_RULES)

    @property
    def key(self) -> tuple[str, str]:
        return (self.scan_id, self.nodule_id)


RATING_FIELDS = tuple(SemanticRatings.__dataclass_fields__)


class ReferenceTable(RowTable):
    """Reference rows held by column, in file order.

    Columns: ``scan_id``, ``nodule_id`` and ``diagnosis`` (lists of str),
    ``xyz`` (an ``(n, 3)`` float64 array of LPS centres), ``diameter_mm``
    (float64), ``lungrads``, ``reviewers`` and ``positive_votes`` (lists, None
    where a row has none) and ``ratings``: each ``SemanticRatings`` field that
    has a column, mapped to the list of its values (None where a row has
    none), or None when no field has one.

    As a sequence the table reads as its ``ReferenceNodule`` records, built
    only when asked; a row with no rating value has no ``SemanticRatings``.
    The columns are taken as given; the record constructors check each row
    they build. ``unique_keys`` says the caller has checked that no (scan,
    nodule id) key repeats.
    """

    def __init__(self, scan_id: list[str], nodule_id: list[str], xyz: np.ndarray,
                 diameter_mm: np.ndarray, diagnosis: list[str], lungrads: list[str | None],
                 reviewers: list[int | None], positive_votes: list[int | None],
                 ratings: dict[str, list] | None = None, *, unique_keys: bool = False):
        self.scan_id = scan_id
        self.nodule_id = nodule_id
        self.xyz = xyz
        self.diameter_mm = diameter_mm
        self.diagnosis = diagnosis
        self.lungrads = lungrads
        self.reviewers = reviewers
        self.positive_votes = positive_votes
        self.ratings = ratings
        self._unique_keys = unique_keys

    @classmethod
    def from_records(cls, records: Iterable[ReferenceNodule]) -> "ReferenceTable":
        """The table of API records; it has every rating field if one is rated."""
        records = list(records)
        rated = any(r.ratings is not None for r in records)
        return cls(
            [r.scan_id for r in records],
            [r.nodule_id for r in records],
            np.array([r.center.as_tuple() for r in records], dtype=np.float64).reshape(-1, 3),
            np.array([r.diameter_mm for r in records], dtype=np.float64),
            [r.diagnosis for r in records],
            [r.lungrads for r in records],
            [r.reviewers for r in records],
            [r.positive_votes for r in records],
            {name: [None if r.ratings is None else getattr(r.ratings, name) for r in records]
             for name in RATING_FIELDS} if rated else None,
        )

    def require_unique_keys(self) -> "ReferenceTable":
        """This table, if no two rows share a (scan, nodule id) key; else the
        ``InputError`` of the first row that repeats one."""
        if not self._unique_keys:
            row = first_repeat(self.scan_id, self.nodule_id)
            if row is not None:
                raise InputError(f"duplicate nodule_id {self.nodule_id[row]!r} "
                                 f"on scan {self.scan_id[row]!r}")
        self._unique_keys = True
        return self

    @property
    def keys(self) -> list[tuple[str, str]]:
        """Each row's (scan id, nodule id), as ``ReferenceNodule.key``."""
        return list(zip(self.scan_id, self.nodule_id))

    @property
    def tolerance(self) -> np.ndarray:
        """Each row's ``match_tolerance``."""
        return tolerance_mm(self.diameter_mm)

    def rating(self, name: str) -> list:
        """The values of one ``SemanticRatings`` field, None where a row has
        none; a name that is no such field is an error if some row is rated."""
        if self.ratings is None:
            return [None] * len(self)
        if name not in self.ratings:
            if name not in RATING_FIELDS and any(
                    any(v is not None for v in values) for values in self.ratings.values()):
                raise InputError(f"unknown semantic characteristic {name!r}")
            return [None] * len(self)
        return self.ratings[name]

    def records(self, rows: Iterable[int]) -> list[ReferenceNodule]:
        """The records of the given rows, in the given order."""
        index = list(rows)
        centers = [WorldPoint(*p) for p in self.xyz[index].tolist()]
        ratings = [None] * len(index)
        if self.ratings is not None:
            for k, i in enumerate(index):
                values = {name: column[i] for name, column in self.ratings.items()}
                if any(v is not None for v in values.values()):
                    ratings[k] = SemanticRatings(**values)
        return [
            ReferenceNodule(self.scan_id[i], self.nodule_id[i], center, d, self.diagnosis[i],
                            self.lungrads[i], self.reviewers[i], self.positive_votes[i], rating)
            for i, center, d, rating in zip(index, centers, self.diameter_mm[index].tolist(),
                                            ratings)
        ]


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds and policies for the tri-stage fusion pipeline."""

    tau_cadx: float = 0.10
    tau_cade: float = 0.20
    consensus_radius_policy: str = "adaptive"
    consensus_radius_mm: float = 5.0
    dedup_radius_mm: float = 2.0
    lung_labels: frozenset[int] = LUNG_LOBE_LABELS

    def __post_init__(self):
        object.__setattr__(self, "tau_cadx", require_unit_interval("tau_cadx", self.tau_cadx))
        object.__setattr__(self, "tau_cade", require_unit_interval("tau_cade", self.tau_cade))
        if self.consensus_radius_policy not in ("adaptive", "fixed"):
            raise InputError(
                f"consensus_radius_policy must be 'adaptive' or 'fixed', "
                f"got {self.consensus_radius_policy!r}"
            )
        object.__setattr__(
            self, "consensus_radius_mm", require_positive("consensus_radius_mm", self.consensus_radius_mm)
        )
        object.__setattr__(
            self, "dedup_radius_mm", require_positive("dedup_radius_mm", self.dedup_radius_mm)
        )
        labels = frozenset(int(v) for v in self.lung_labels)
        if not labels:
            raise InputError("lung_labels must be non-empty")
        object.__setattr__(self, "lung_labels", labels)


def tolerance_mm(diameter_mm: np.ndarray) -> np.ndarray:
    """The matching tolerance in mm of each diameter: half the diameter below
    10 mm, a flat 5 mm cap from 10 mm upward."""
    return np.where(diameter_mm < TOLERANCE_CAP_AT_DIAMETER_MM, diameter_mm / 2.0,
                    TOLERANCE_CAP_MM)


def match_tolerance(diameter_mm: float) -> float:
    """Matching tolerance in mm for a reference nodule of the given diameter:
    its ``tolerance_mm``."""
    return float(tolerance_mm(require_positive("diameter_mm", diameter_mm)))


def is_hit(candidate: CandidateDetection, reference: ReferenceNodule) -> bool:
    """True iff the candidate centroid lies within the reference tolerance."""
    if candidate.scan_id != reference.scan_id:
        raise InputError(
            f"scan mismatch: candidate on {candidate.scan_id!r}, reference on {reference.scan_id!r}"
        )
    return candidate.center.distance_to(reference.center) <= match_tolerance(reference.diameter_mm)
