"""Tri-stage candidate fusion.

Stage 1 pairs detections proposed by both detector variants (consensus,
tier 1.0). Stage 2 scores each remaining single-detector candidate with an
ensemble of two malignancy classifiers and promotes those at or above the
malignancy threshold (tier 0.5). Stage 3 retains what is left when the
detector score itself clears the detection threshold (tier 0.2); everything
else is dropped. Candidates outside the lung mask, when one is supplied, are
rejected before any stage runs.

Every input candidate ends in exactly one disposition bucket:
mask_rejected, pair_member, promoted_cadx, retained_cade, or rejected.
Same-model duplicates suppressed before pairing are recorded as rejected and
additionally appear in their survivor's provenance list.
"""

from __future__ import annotations

import itertools
import math
import os
import shlex
import subprocess
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .domain import (
    STAGE_CADE,
    STAGE_CADX,
    STAGE_CONSENSUS,
    TIER_BY_STAGE,
    TOLERANCE_CAP_MM,
    CandidateDetection,
    CandidateTable,
    FusedCandidate,
    PipelineConfig,
    RecordSequence,
    WorldPoint,
    distance_mm,
    near_pairs,
    require_unit_interval,
    run_bounds,
    tolerance_mm,
)
from .errors import InputError, InvariantError, ScorerError
from .volume import Volume, centroid_in_lung, extract_patch, save_patch

STAGE_BY_TIER = {tier: stage for stage, tier in TIER_BY_STAGE.items()}
FUSED_MODEL = "FUSED"  # the model column of a fused list

DISP_MASK_REJECTED = "mask_rejected"
DISP_PAIR = "pair_member"
DISP_T2 = "promoted_cadx"
DISP_T3 = "retained_cade"
DISP_REJECTED = "rejected"
DISPOSITIONS = (DISP_MASK_REJECTED, DISP_PAIR, DISP_T2, DISP_T3, DISP_REJECTED)

CadxProvider = Callable[[CandidateDetection], "CadxScores"]


@dataclass(frozen=True)
class CadxScores:
    """Malignancy probabilities from the two classifier models."""

    p_luna: float
    p_dlcs: float

    def __post_init__(self):
        object.__setattr__(self, "p_luna", require_unit_interval("p_luna", self.p_luna))
        object.__setattr__(self, "p_dlcs", require_unit_interval("p_dlcs", self.p_dlcs))


def ensemble_cadx(scores: CadxScores) -> float:
    """Unweighted mean of the two classifier probabilities."""
    return (scores.p_luna + scores.p_dlcs) / 2.0


class CadxScoreTable(Mapping[tuple[str, str, str], CadxScores]):
    """Classifier scores by ``(scan_id, model, candidate_id)``, read-only,
    from the key and score columns of its rows. ``rows[(scan_id,
    model)][candidate_id]`` is a key's row in the ``p_luna`` and ``p_dlcs``
    arrays: one dict per scan and model, not a key tuple per row. A repeated
    key means its last row. The ``CadxScores`` of a key is built when it is
    looked up; keys iterate in the order of their rows."""

    def __init__(self, scan_id: Sequence[str], model: Sequence[str],
                 candidate_id: Sequence[str], p_luna: np.ndarray, p_dlcs: np.ndarray):
        self.rows: dict[tuple[str, str], dict[str, int]] = {}
        bounds = run_bounds(scan_id, model)
        for start, end in zip(bounds, bounds[1:]):
            self.rows.setdefault((scan_id[start], model[start]), {}).update(
                zip(candidate_id[start:end], range(start, end)))
        self._len = sum(map(len, self.rows.values()))
        # float64 arrays rather than lists: no two float objects per row on the heap
        self.p_luna = p_luna
        self.p_dlcs = p_dlcs

    def rows_of(self, scan_id: Sequence[str], model: Sequence[str],
                candidate_id: Sequence[str]) -> list[int | None]:
        """The row of each key the three columns give, None for a key with
        no scores; one dict lookup per run of rows on one scan and model."""
        bounds = run_bounds(scan_id, model)
        rows: list[int | None] = []
        for start, end in zip(bounds, bounds[1:]):
            rows += map(self.rows.get((scan_id[start], model[start]), {}).get,
                        candidate_id[start:end])
        return rows

    def __getitem__(self, key: tuple[str, str, str]) -> CadxScores:
        try:
            scan_id, model, candidate_id = key
            row = self.rows[scan_id, model][candidate_id]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        return CadxScores(self.p_luna.item(row), self.p_dlcs.item(row))

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        keys: list[tuple[str, str, str] | None] = [None] * len(self.p_luna)
        for (scan_id, model), ids in self.rows.items():
            for candidate_id, row in ids.items():
                keys[row] = (scan_id, model, candidate_id)
        return (key for key in keys if key is not None)

    def __len__(self) -> int:
        return self._len


@dataclass(frozen=True)
class ConsensusPair:
    member_a: CandidateDetection
    member_b: CandidateDetection
    merged_center: WorldPoint
    merged_score: float

    def __post_init__(self):
        if self.member_a.scan_id != self.member_b.scan_id:
            raise InputError("consensus pair members must share a scan")
        if self.member_a.source_model == self.member_b.source_model:
            raise InputError("consensus pair members must come from different detectors")


def fused_table(fused: Iterable[FusedCandidate]) -> CandidateTable:
    """``fused`` if it is a table, else the fused-list table of its records,
    with their ``candidate_id``s when every record has one, numbered
    ``F0000``, ``F0001``, ... per scan in list order when none has."""
    if isinstance(fused, CandidateTable):
        return fused
    fused = list(fused)
    scan_ids = [f.scan_id for f in fused]
    ids = [f.candidate_id for f in fused]
    if None in ids:
        if ids.count(None) < len(ids):
            raise InputError("fused records must all have a candidate_id, or none")
        ids = output_ids(scan_ids)
    return CandidateTable(
        scan_ids, ids, [FUSED_MODEL] * len(fused),
        np.array([f.center.as_tuple() for f in fused], dtype=np.float64).reshape(-1, 3),
        np.array([math.nan if f.diameter_mm is None else f.diameter_mm for f in fused],
                 dtype=np.float64),
        np.array([f.cade_score_avg for f in fused], dtype=np.float64),
        tier=np.array([f.confidence_tier for f in fused], dtype=np.float64),
        stage=[f.stage for f in fused],
        cadx_avg=np.array([math.nan if f.cadx_avg is None else f.cadx_avg for f in fused],
                          dtype=np.float64),
        provenance=[f.provenance for f in fused],
    )


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


@dataclass(frozen=True)
class TriStageResult:
    scan_id: str
    fused: CandidateTable
    dispositions: dict[str, str]
    duplicate_of: dict[str, str]

    def disposition_counts(self) -> dict[str, int]:
        dispositions = list(self.dispositions.values())
        return {disp: dispositions.count(disp) for disp in DISPOSITIONS}


def _pair_radii(diameter_a: np.ndarray, diameter_b: np.ndarray,
                cfg: PipelineConfig) -> np.ndarray:
    """Each pair's pairing distance: the base radius, or under the adaptive policy the
    larger of it and the (capped) matching tolerance of the larger of two diameters given."""
    base = np.full(len(diameter_a), cfg.consensus_radius_mm)
    larger = np.maximum(diameter_a, diameter_b)  # NaN unless both are given
    return np.where(np.isnan(larger) | (cfg.consensus_radius_policy == "fixed"), base,
                    np.maximum(base, tolerance_mm(larger)))


def _encode(*columns: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """The strings of ``columns``, one after the other, as int32 codes that
    order like them, and the sorted distinct strings that the codes index."""
    distinct = sorted(set().union(*columns))
    code = {c: k for k, c in enumerate(distinct)}
    return np.fromiter(map(code.__getitem__, itertools.chain(*columns)), np.int32,
                       sum(map(len, columns))), distinct


class DuplicateMap(dict):
    """Suppressed qualified ids to their survivors' (keys ``(scan_id, qualified id)`` across
    scans); ``rows`` and ``survivors`` hold both as input table rows, in visit order."""

    def __init__(self, table: CandidateTable, rows: np.ndarray, survivors: np.ndarray,
                 spans_scans: bool):
        self.rows, self.survivors = rows, survivors
        model, ids = table.model, table.candidate_id
        for i, j in zip(rows.tolist(), survivors.tolist()):
            key = f"{model[i]}:{ids[i]}"
            self[(table.scan_id[i], key) if spans_scans else key] = f"{model[j]}:{ids[j]}"


def suppress_same_model_duplicates(
    candidates: Iterable[CandidateDetection], radius_mm: float
) -> tuple[CandidateTable, DuplicateMap]:
    """Keep only the best-scored candidate among same-model near-duplicates
    on each scan of ``candidates`` (records or a ``CandidateTable``).

    Candidates are visited by scan id, then best score first (ties by
    candidate id); each one is absorbed by the first earlier survivor on its
    scan within ``radius_mm`` (scalar distance, after the prefilter), or
    survives. Returns the survivors' table, taken from the input in visit
    order, and the ``DuplicateMap`` of the suppressed candidates. A
    (scan, model, candidate id) key that repeats raises ``InputError``."""
    table = CandidateTable.of(candidates).require_unique_keys()
    codes, _ = _encode(table.scan_id)
    order = np.lexsort((_encode(table.candidate_id)[0], -table.score, codes))
    xyz = table.xyz[order]
    rows, cols = near_pairs(codes[order], xyz, codes[order], xyz, radius_mm)
    rows, cols = rows[cols < rows], cols[cols < rows]
    # row-major pairs: each candidate meets the earlier ones on its scan in
    # visit order, whose fate is settled, and joins the first survivor within
    # the radius
    survivor_of: dict[int, int] = {}
    for i, j, *ab in zip(rows.tolist(), cols.tolist(), *xyz[rows].T.tolist(),
                         *xyz[cols].T.tolist()):
        if i not in survivor_of and j not in survivor_of and distance_mm(*ab) <= radius_mm:
            survivor_of[i] = j
    return table.take(np.delete(order, list(survivor_of))), DuplicateMap(
        table, order[list(survivor_of)], order[list(survivor_of.values())], codes.any())


class ConsensusPairs(RecordSequence):
    """Committed consensus pairs as the tables of their members from both
    lists, position by position; reads as ``ConsensusPair`` records, built
    only when asked."""

    def __init__(self, members_a: CandidateTable, members_b: CandidateTable):
        self.members_a = members_a
        self.members_b = members_b

    def __len__(self) -> int:
        return len(self.members_a)

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pair's merged center (an ``(n, 3)`` array), score and diameter:
        the score-weighted means of the members' centers and diameters (plain
        means when both score 0; the one diameter given, or NaN), and their
        mean score. A center at the edge of the float range overflows to inf."""
        a, b = self.members_a, self.members_b
        total = a.score + b.score
        weighted = total > 0.0
        wa = np.divide(a.score, total, out=np.full(len(total), 0.5), where=weighted)
        wb = np.divide(b.score, total, out=np.full(len(total), 0.5), where=weighted)
        da, db = a.diameter_mm, b.diameter_mm
        with np.errstate(over="ignore", invalid="ignore"):
            xyz = wa[:, None] * a.xyz + wb[:, None] * b.xyz
            diameter = np.where(weighted, (a.score * da + b.score * db) / total, (da + db) / 2.0)
        diameter = np.where(np.isnan(da), db, np.where(np.isnan(db), da, diameter))
        return xyz, total / 2.0, diameter

    def __getitem__(self, index: int) -> ConsensusPair:
        a, b = self.members_a[index], self.members_b[index]
        xyz, score, _ = self.merged
        return ConsensusPair(member_a=a, member_b=b, merged_center=WorldPoint(*xyz[index].tolist()),
                             merged_score=score.item(index))


def cross_detector_consensus(
    list_a: Iterable[CandidateDetection],
    list_b: Iterable[CandidateDetection],
    cfg: PipelineConfig | None = None,
) -> tuple[ConsensusPairs, CandidateTable]:
    """Pair candidates proposed by both detectors on the same scan.

    A pair is admissible when both lie on one scan and the centroid distance
    (the scalar one, on the pairs ``near_pairs`` finds) satisfies the
    consensus radius. Admissible pairs are committed greedily in descending
    order of summed score (ties by candidate id pair); each candidate joins
    at most one pair. The lists are records or ``CandidateTable``s; a
    (model, candidate id) that repeats on a scan raises ``InputError``.
    Returns the pairs by scan id, then in commit order, with member tables
    taken from the lists, and the unpaired candidates (the disagreements) in
    (scan id, model, candidate id) order, taken from the lists as rows of
    both joined (A's rows, then B's), without joining them."""
    cfg = cfg or PipelineConfig()
    table_a, table_b = (CandidateTable.of(t).require_unique_keys() for t in (list_a, list_b))
    models_a, models_b = set(table_a.model), set(table_b.model)
    if len(models_a) > 1 or len(models_b) > 1:
        raise InputError("each detector list must come from a single source model")
    if models_a and models_b and models_a == models_b:
        raise InputError("detector lists must come from different source models")

    n_a = len(table_a)
    codes, _ = _encode(table_a.scan_id, table_b.scan_id)  # rows of A, then rows of B
    ranks, _ = _encode(table_a.candidate_id, table_b.candidate_id)
    near_a, near_b = near_pairs(codes[:n_a], table_a.xyz, codes[n_a:], table_b.xyz,
                                 max(cfg.consensus_radius_mm, TOLERANCE_CAP_MM))
    admitted = [k for k, (*ab, r) in enumerate(zip(
        *table_a.xyz[near_a].T.tolist(), *table_b.xyz[near_b].T.tolist(),
        _pair_radii(table_a.diameter_mm[near_a], table_b.diameter_mm[near_b], cfg).tolist()))
        if distance_mm(*ab) <= r]
    near_a, near_b = near_a[admitted], near_b[admitted]
    commit = np.lexsort((ranks[n_a + near_b], ranks[near_a],
                         -(table_a.score[near_a] + table_b.score[near_b]), codes[near_a]))

    paired: dict[int, int] = {}  # row of A -> row of B, in commit order
    used_b: set[int] = set()
    for i, j in zip(near_a[commit].tolist(), near_b[commit].tolist()):
        if i not in paired and j not in used_b:
            paired[i] = j
            used_b.add(j)
    paired_a, paired_b = list(paired), list(paired.values())

    rows = np.delete(np.arange(len(codes)), paired_a + [n_a + j for j in paired_b])
    b_first = bool(models_a and models_b and min(models_b) < min(models_a))
    order = np.lexsort((ranks[rows], (rows >= n_a) != b_first, codes[rows]))
    return (ConsensusPairs(table_a.take(paired_a), table_b.take(paired_b)),
            CandidateTable.take_joined(table_a, table_b, rows[order]))


def _score_disagreements(table: CandidateTable, provider: CadxProvider | None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The ``p_luna`` and ``p_dlcs`` of each row, scored in row order: a
    ``FileCadxProvider`` or ``CommandCadxProvider`` scores the whole table in
    one call, any other provider is called with one record per row."""
    if isinstance(provider, (FileCadxProvider, CommandCadxProvider)) and len(table):
        return provider(table)
    scores = []
    for candidate in table:
        label = f"{candidate.qualified_id} on scan {candidate.scan_id}"
        if provider is None:
            raise ScorerError(f"no CADx provider configured but candidate {label} needs scoring")
        try:
            scores.append(provider(candidate))
        except ScorerError:
            raise
        except Exception as err:
            raise ScorerError(f"CADx scoring failed for {label}: {err}") from err
        if not isinstance(scores[-1], CadxScores):
            raise ScorerError(f"CADx provider returned {type(scores[-1]).__name__} for {label}")
    return tuple(np.array([getattr(s, p) for s in scores], dtype=np.float64)
                 for p in ("p_luna", "p_dlcs"))


class FusionOutput:
    """A cohort's fused list, its scan ids and each scan's result, built when first read."""

    def __init__(self, fused: CandidateTable, scan_ids: list[str], per_scan: Callable[[], dict]):
        self.fused, self.scan_ids, self._per_scan = fused, scan_ids, per_scan

    @cached_property
    def per_scan(self) -> dict[str, TriStageResult]:
        return self._per_scan()


def fuse_scans(
    candidates_a: Iterable[CandidateDetection],
    candidates_b: Iterable[CandidateDetection],
    cadx_provider: CadxProvider | None = None,
    masks: Callable[[str], Volume | None] | None = None,
    cfg: PipelineConfig | None = None,
) -> FusionOutput:
    """Fuse candidate lists (``CandidateTable``s or records in which no
    (model, candidate id) repeats on a scan) in one pass over the cohort.

    The mask gate, dedup (one ``suppress_same_model_duplicates`` call per
    list), pairing (one ``cross_detector_consensus`` call), CADx scoring and
    the fused order work on all scans at once, each within its scan: the
    fused rows go by scan id, then tier desc, averaged detector score desc
    and primary candidate id, numbered ``F0000``, ... per scan. A mask loader
    is called once per scan, in scan-id order. Every input fault (a repeated
    key, a mask that cannot load, an overflowing merged center) is raised
    before the first scorer call.

    Memory: the cohort's scans and qualified ids are int32 codes into their
    sorted distinct values, the dedup and pairing tables are dropped once
    their rows are read, before the scorer runs, and the output keeps no
    Python object per input row: the settled rows (int32), their dispositions
    (int8) and the fused list, whose provenance tuples are shared: one per
    qualified id, one per distinct pair."""
    cfg = cfg or PipelineConfig()
    table_a = CandidateTable.of(candidates_a).require_unique_keys()
    table_b = CandidateTable.of(candidates_b).require_unique_keys()
    # cohort rows are A's rows, then B's; their scans and qualified ids as codes
    codes, scan_ids = _encode(table_a.scan_id, table_b.scan_id)
    qualified, names = _encode(table_a.qualified_id, table_b.qualified_id)
    n_a = len(table_a)
    rejected: list[int] = []
    for scan_id in scan_ids if masks is not None else ():
        mask = masks(scan_id)
        for table, offset in ((table_a, 0), (table_b, n_a)) if mask is not None else ():
            rows = table.by_scan.get(scan_id, np.empty(0, np.intp))
            rejected += [offset + row for row, p in zip(rows.tolist(), table.xyz[rows].tolist())
                         if not centroid_in_lung(WorldPoint(*p), mask, cfg.lung_labels)]
    gated = np.ones(len(codes), dtype=bool)
    gated[rejected] = False
    rows_a, rows_b = np.flatnonzero(gated[:n_a]), np.flatnonzero(gated[n_a:])
    (kept_a, dup_a), (kept_b, dup_b) = (
        suppress_same_model_duplicates(t if len(r) == len(t) else t.take(r), cfg.dedup_radius_mm)
        for t, r in ((table_a, rows_a), (table_b, rows_b)))
    kept = np.concatenate((rows_a[kept_a.source_rows], n_a + rows_b[kept_b.source_rows]))
    duplicates = np.concatenate((rows_a[dup_a.rows], n_a + rows_b[dup_b.rows]))
    survivors = np.concatenate((rows_a[dup_a.survivors], n_a + rows_b[dup_b.survivors]))

    pairs, singles = cross_detector_consensus(kept_a, kept_b, cfg)
    pair_a = kept[pairs.members_a.source_rows]
    pair_b = kept[len(kept_a) + pairs.members_b.source_rows]
    single_rows = kept[singles.source_rows]
    pair_xyz, pair_score, pair_diameter = pairs.merged
    n_pairs = len(pairs)
    # cohort-sized tables whose rows are read: gone before the scorer runs
    del kept_a, kept_b, dup_a, dup_b, pairs
    overflow = ~np.isfinite(pair_xyz).all(axis=1)
    if overflow.any():
        WorldPoint(*pair_xyz[np.argmax(overflow)].tolist())  # raises the InputError of the point

    p_luna, p_dlcs = _score_disagreements(singles, cadx_provider)
    cadx_avg = (p_luna + p_dlcs) / 2.0
    promoted = cadx_avg >= cfg.tau_cadx
    # For a single-detector candidate the averaged detector score is its
    # own score: only one detector saw it.
    retained = ~promoted & (singles.score >= cfg.tau_cade)
    # the fused rows are gathered from the pair rows stacked over the single rows
    stack_xyz, stack_diameter, stack_score = (np.concatenate(c) for c in (
        (pair_xyz, singles.xyz), (pair_diameter, singles.diameter_mm), (pair_score, singles.score)))
    del singles

    # cohort rows in the order fusion settled them, each with its index in DISPOSITIONS
    settled = np.concatenate((np.array(rejected, dtype=np.intp), duplicates,
                              np.column_stack((pair_a, pair_b)).ravel(), single_rows),
                             dtype=np.int32)
    dispositions = np.concatenate((
        np.repeat([0, 4, 1], [len(rejected), len(duplicates), 2 * n_pairs]),
        np.where(promoted, 2, np.where(retained, 3, 4))), dtype=np.int8)
    if not np.array_equal(np.bincount(settled, minlength=len(codes)), np.ones(len(codes))):
        raise InvariantError("fusion lost track of input candidates")

    stack_rows = np.concatenate((pair_a, single_rows))  # each one's primary cohort row
    stack_tier = np.concatenate((np.full(n_pairs, TIER_BY_STAGE[STAGE_CONSENSUS]),
                                 np.where(promoted, TIER_BY_STAGE[STAGE_CADX],
                                          TIER_BY_STAGE[STAGE_CADE])))
    chosen = np.concatenate((np.arange(n_pairs), n_pairs + np.flatnonzero(promoted | retained)))
    rows = chosen[np.lexsort((qualified[stack_rows[chosen]], -stack_score[chosen],
                              -stack_tier[chosen], codes[stack_rows[chosen]]))]
    # each cohort row's ids, one tuple per qualified id: its own, then for a
    # survivor those it absorbed, in id order
    ids = np.fromiter(((name,) for name in names), object, len(names))[qualified]
    by_id = np.argsort(qualified[duplicates], kind="stable")
    for duplicate, survivor in zip(duplicates[by_id].tolist(), survivors[by_id].tolist()):
        ids[survivor] += ids[duplicate]
    provenance = ids[stack_rows]
    joined: dict[tuple[str, ...], tuple[str, ...]] = {}  # a pair's: A's ids, then B's
    for k, (a, b) in enumerate(zip(provenance[:n_pairs].tolist(), ids[pair_b].tolist())):
        provenance[k] = joined.setdefault(a + b, a + b)
    tier = stack_tier[rows]
    fused_scans = [scan_ids[c] for c in codes[stack_rows[rows]].tolist()]
    fused = CandidateTable(
        fused_scans, output_ids(fused_scans), [FUSED_MODEL] * len(rows),
        stack_xyz[rows], stack_diameter[rows], stack_score[rows],
        tier=tier, stage=[STAGE_BY_TIER[t] for t in tier.tolist()],
        cadx_avg=np.concatenate((np.full(n_pairs, math.nan),
                                 np.where(promoted, cadx_avg, math.nan)))[rows],
        provenance=provenance[rows].tolist(),
    )

    def per_scan() -> dict[str, TriStageResult]:
        by_scan = fused.by_scan
        results = [TriStageResult(s, fused.take(by_scan.get(s, [])), {}, {}) for s in scan_ids]
        for scan, name, disposition in zip(codes[settled].tolist(), qualified[settled].tolist(),
                                           dispositions.tolist()):
            results[scan].dispositions[names[name]] = DISPOSITIONS[disposition]
        for scan, name, survivor in zip(codes[duplicates].tolist(),
                                        qualified[duplicates].tolist(),
                                        qualified[survivors].tolist()):
            results[scan].duplicate_of[names[name]] = names[survivor]
        return dict(zip(scan_ids, results))

    return FusionOutput(fused, scan_ids, per_scan)


def run_tri_stage(
    list_a: list[CandidateDetection],
    list_b: list[CandidateDetection],
    cadx_provider: CadxProvider | None = None,
    mask: Volume | None = None,
    cfg: PipelineConfig | None = None,
) -> TriStageResult:
    """Run the full tri-stage fusion for one scan: ``fuse_scans`` on lists
    that must not span scans, with ``mask`` as the scan's lung mask. Returns
    the scan's tiered candidate list plus a per-candidate disposition map."""
    table_a, table_b = CandidateTable.of(list_a), CandidateTable.of(list_b)
    scan_ids = set(table_a.scan_id) | set(table_b.scan_id)
    if len(scan_ids) > 1:
        raise InputError(f"candidates span multiple scans: {sorted(scan_ids)}")
    output = fuse_scans(table_a, table_b, cadx_provider,
                        None if mask is None else lambda _: mask, cfg)
    return output.per_scan[scan_ids.pop()] if scan_ids else TriStageResult("", output.fused, {}, {})


class FileCadxProvider:
    """Serves classifier scores from a pre-computed table.

    Keys are (scan_id, source_model, candidate_id); a missing key is a
    scoring failure, never a silent skip. Called with a ``CandidateTable``,
    it returns the ``p_luna`` and ``p_dlcs`` arrays of the table's rows,
    joined on the row index of a ``CadxScoreTable`` (another mapping is
    copied into one); a missing key raises for the first row without scores.
    Called with a record, it returns the ``CadxScores`` of its one-row table.
    """

    def __init__(self, scores: Mapping[tuple[str, str, str], CadxScores]):
        if not isinstance(scores, CadxScoreTable):
            keys = list(scores)
            scores = CadxScoreTable(*([k[i] for k in keys] for i in range(3)), *(
                np.array([getattr(scores[k], p) for k in keys], dtype=np.float64)
                for p in ("p_luna", "p_dlcs")))
        self._scores = scores

    def __call__(self, candidates: CandidateDetection | CandidateTable):
        if not isinstance(candidates, CandidateTable):  # a record: its one-row table's scores
            return CadxScores(*(p.item() for p in self(CandidateTable.from_records([candidates]))))
        rows = self._scores.rows_of(candidates.scan_id, candidates.model, candidates.candidate_id)
        if None in rows:
            missing = candidates[rows.index(None)]
            raise ScorerError(f"no CADx scores on file for {missing.qualified_id} "
                              f"on scan {missing.scan_id}")
        return self._scores.p_luna[rows], self._scores.p_dlcs[rows]


class _ScorerCall:
    """One candidate handed to the external scorer: its label, its patch
    header and, once started, the scorer process."""

    def __init__(self, candidate: CandidateDetection, workdir: Path):
        self.candidate = candidate
        self.label = f"{candidate.qualified_id} on scan {candidate.scan_id}"
        stem = f"patch_{candidate.scan_id}_{candidate.source_model}_{candidate.candidate_id}"
        self.header = workdir / f"{stem}.hdr"
        self.process: subprocess.Popen | None = None

    def start(self, argv: list[str]) -> None:
        """Start the scorer with the patch header path on its stdin."""
        read_end, write_end = os.pipe()
        # the path is far smaller than a pipe's buffer, so it is written before the
        # scorer starts, and the scorer sees end of input after it
        with open(write_end, "w") as stdin:
            stdin.write(f"{self.header}\n")
        try:
            self.process = subprocess.Popen(argv, stdin=read_end, stdout=subprocess.PIPE,
                                            stderr=subprocess.PIPE)
        except OSError as err:
            raise ScorerError(f"cannot run external scorer for {self.label}: {err}") from err
        finally:
            os.close(read_end)

    def finish(self) -> tuple[float, float]:
        """Wait for the scorer and read its two scores from its UTF-8 output."""
        stdout, stderr = self.process.communicate()
        if self.process.returncode != 0:
            raise ScorerError(f"external scorer exited {self.process.returncode} for "
                              f"{self.label}: {stderr.decode(errors='replace').strip()}")
        try:
            parts = stdout.decode().split()
        except UnicodeDecodeError as err:
            raise ScorerError(f"external scorer output invalid for {self.label}: {err}") from err
        if len(parts) != 2:
            raise ScorerError(
                f"external scorer printed {len(parts)} values for {self.label}, expected 2"
            )
        try:
            scores = CadxScores(p_luna=float(parts[0]), p_dlcs=float(parts[1]))
        except (ValueError, InputError) as err:
            raise ScorerError(f"external scorer output invalid for {self.label}: {err}") from err
        return scores.p_luna, scores.p_dlcs

    def discard(self) -> None:
        """Kill the scorer if it still runs, wait for it, and remove the patch pair."""
        if self.process is not None:
            self.process.kill()  # nothing to do once it has exited and been waited for
            self.process.wait()
            for pipe in (self.process.stdout, self.process.stderr):
                pipe.close()
        for path in (self.header, self.header.with_suffix(".raw")):
            path.unlink(missing_ok=True)


class CommandCadxProvider:
    """Scores candidates through an external command.

    For each candidate a 64^3 patch is extracted from the scan volume,
    written as a header + raw pair, and the header path is fed to the
    command on stdin. The command must print two reals in [0, 1] separated
    by whitespace and exit 0. Called with a ``CandidateTable``, it returns
    the ``p_luna`` and ``p_dlcs`` arrays of its rows, scored one command at
    a time in row order; called with a record, the ``CadxScores`` of its
    one-row table. While the command scores one patch, the next patch is
    prepared, and a patch pair is removed once its command has exited: at
    most two pairs exist at once. A volume the loader cannot load (its
    ``InputError``) is raised as an ``InputError``, a patch that cannot be
    extracted or saved as a ``ScorerError``; a command's failure is raised
    before either fault in the patch prepared after it. On any exception the
    running command is killed and waited for. ``volume_loader`` is called for
    every candidate, so it should keep the current scan's volume at hand.
    """

    def __init__(
        self,
        command: str,
        volume_loader: Callable[[str], Volume],
        workdir: str | Path,
    ):
        self._argv = shlex.split(command)
        if not self._argv:
            raise InputError("external scorer command is empty")
        self._volume_loader = volume_loader
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)

    def __call__(self, candidates: CandidateDetection | CandidateTable):
        if not isinstance(candidates, CandidateTable):  # a record: its one-row table's scores
            return CadxScores(*(p.item() for p in self(CandidateTable.from_records([candidates]))))
        scores = np.empty((2, len(candidates)))
        calls: list[_ScorerCall] = []  # the call whose scorer runs, then the next one
        try:
            for k, candidate in enumerate(candidates):
                calls.append(_ScorerCall(candidate, self._workdir))
                try:
                    self._write_patch(calls[-1])
                    fault = None
                except (InputError, ScorerError) as err:  # raised once the running scorer is done
                    fault = err
                if len(calls) == 2:
                    scores[:, k - 1] = calls[0].finish()
                    calls.pop(0).discard()
                if fault is not None:
                    raise fault
                calls[-1].start(self._argv)
            if calls:
                scores[:, -1] = calls[0].finish()
        finally:
            for call in calls:
                call.discard()
        return scores[0], scores[1]

    def _write_patch(self, call: _ScorerCall) -> None:
        try:
            volume = self._volume_loader(call.candidate.scan_id)
        except InputError as err:
            raise InputError(f"cannot load scan volume for {call.label}: {err}") from err
        try:
            save_patch(extract_patch(volume, call.candidate.center), call.header)
        except Exception as err:
            raise ScorerError(f"CADx scoring failed for {call.label}: {err}") from err
