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
import shlex
import subprocess
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
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
    match_tolerance,
    may_lie_within,
    nan_to_none,
    require_unit_interval,
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
    """Classifier scores by ``(scan_id, model, candidate_id)``, read-only: the
    ``row`` of each key in the ``p_luna`` and ``p_dlcs`` columns. The
    ``CadxScores`` of a key is built when it is looked up."""

    def __init__(self, keys: list[tuple[str, str, str]], p_luna: np.ndarray,
                 p_dlcs: np.ndarray):
        self.row = dict(zip(keys, range(len(keys))))
        # float64 arrays rather than lists: no two float objects per row on the heap
        self.p_luna = p_luna
        self.p_dlcs = p_dlcs

    def __getitem__(self, key: tuple[str, str, str]) -> CadxScores:
        row = self.row[key]
        return CadxScores(self.p_luna.item(row), self.p_dlcs.item(row))

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        return iter(self.row)

    def __len__(self) -> int:
        return len(self.row)


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
    numbered ``F0000``, ``F0001``, ... per scan in list order."""
    if isinstance(fused, CandidateTable):
        return fused
    fused = list(fused)
    scan_ids = [f.scan_id for f in fused]
    return CandidateTable(
        scan_ids, output_ids(scan_ids), [FUSED_MODEL] * len(fused),
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
    for scan_id, run in itertools.groupby(scan_ids):
        start = counts.get(scan_id, 0)
        counts[scan_id] = end = start + len(list(run))
        ids += [f"F{n:04d}" for n in range(start, end)]
    return ids


@dataclass(frozen=True)
class TriStageResult:
    scan_id: str
    fused: CandidateTable
    dispositions: dict[str, str]
    duplicate_of: dict[str, str]

    def disposition_counts(self) -> dict[str, int]:
        counts = dict.fromkeys((DISP_MASK_REJECTED, DISP_PAIR, DISP_T2, DISP_T3, DISP_REJECTED), 0)
        for disp in self.dispositions.values():
            counts[disp] += 1
        return counts


def _pair_radius_mm(diameter_a: float | None, diameter_b: float | None,
                    cfg: PipelineConfig) -> float:
    if cfg.consensus_radius_policy == "fixed":
        return cfg.consensus_radius_mm
    if diameter_a is not None and diameter_b is not None:
        return max(cfg.consensus_radius_mm, match_tolerance(max(diameter_a, diameter_b)))
    return cfg.consensus_radius_mm


def consensus_radius_mm(
    a: CandidateDetection, b: CandidateDetection, cfg: PipelineConfig
) -> float:
    """Pairing distance for two candidates under the configured policy.

    The adaptive policy widens the base radius to the matching tolerance of
    the larger reported diameter; without diameters it falls back to the flat
    base radius.
    """
    return _pair_radius_mm(a.diameter_mm, b.diameter_mm, cfg)


def _max_consensus_radius_mm(cfg: PipelineConfig) -> float:
    """The largest radius ``consensus_radius_mm`` returns under ``cfg``: the
    adaptive policy never exceeds the capped matching tolerance."""
    if cfg.consensus_radius_policy == "fixed":
        return cfg.consensus_radius_mm
    return max(cfg.consensus_radius_mm, TOLERANCE_CAP_MM)


def _near_pairs(a: np.ndarray, b: np.ndarray, radius_mm: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, in row-major order, of rows of the ``(n, 3)``
    arrays ``a`` and ``b`` whose points may lie within ``radius_mm``.

    A prefilter on one squared-distance array: it keeps every pair the exact
    scalar distance admits and a few just outside, which callers test exactly.
    """
    return np.nonzero(may_lie_within(a.T[:, :, None], b.T[:, None, :], radius_mm))


def _require_single_scan(*tables: CandidateTable) -> str | None:
    scan_ids = {scan_id for table in tables for scan_id in table.scan_id}
    if len(scan_ids) > 1:
        raise InputError(f"candidates span multiple scans: {sorted(scan_ids)}")
    return next(iter(scan_ids)) if scan_ids else None


def suppress_same_model_duplicates(
    candidates: Iterable[CandidateDetection], radius_mm: float
) -> tuple[CandidateTable, dict[str, str]]:
    """Keep only the best-scored candidate among same-model near-duplicates.

    Candidates are visited best score first (ties by candidate id); each one
    is absorbed by the first earlier survivor within ``radius_mm`` (scalar
    distance, after the prefilter), or survives. ``candidates`` are records
    or a ``CandidateTable``. Returns the table of the survivors
    (score-descending) and a map from each suppressed candidate's qualified
    id to its survivor's qualified id.
    """
    table = CandidateTable.of(candidates)
    ids = table.candidate_id
    id_rank = np.empty(len(ids), dtype=np.intp)  # orders like the ids, ties in list order
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((id_rank, -table.score))
    xyz = table.xyz[order]
    rows, cols = _near_pairs(xyz, xyz, radius_mm)
    earlier = np.flatnonzero(cols < rows)
    # row-major pairs: each candidate meets the earlier ones in visit order,
    # whose fate is settled, and joins the first survivor within the radius
    survivor_of: dict[int, int] = {}
    if earlier.size:
        rows, cols = rows[earlier], cols[earlier]
        for i, j, p, q in zip(rows.tolist(), cols.tolist(), xyz[rows].tolist(),
                              xyz[cols].tolist()):
            if i not in survivor_of and j not in survivor_of and distance_mm(*p, *q) <= radius_mm:
                survivor_of[i] = j
    order = order.tolist()
    qualified = table.qualified_id if survivor_of else []
    absorbed = {qualified[order[i]]: qualified[order[j]] for i, j in survivor_of.items()}
    return table.take([k for i, k in enumerate(order) if i not in survivor_of]), absorbed


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
    """Pair candidates proposed by both detectors on one scan.

    A pair is admissible when the centroid distance satisfies the consensus
    radius. Admissible pairs are committed greedily in descending order of
    summed score (ties by candidate id pair); each candidate joins at most
    one pair. Unpaired candidates from either list form the disagreement set.
    Pairs within the largest radius the policy allows are found on one
    distance array, then each is tested with the scalar distance and its own
    radius, so the result is that of testing every pair.

    The lists are records or ``CandidateTable``s. The pairs come as
    ``ConsensusPairs``, which hold the tables of their members; the
    disagreements as one ``CandidateTable`` in (model, candidate id) order.
    """
    cfg = cfg or PipelineConfig()
    table_a, table_b = CandidateTable.of(list_a), CandidateTable.of(list_b)
    _require_single_scan(table_a, table_b)
    models_a = set(table_a.model)
    models_b = set(table_b.model)
    if len(models_a) > 1 or len(models_b) > 1:
        raise InputError("each detector list must come from a single source model")
    if models_a and models_b and models_a == models_b:
        raise InputError("detector lists must come from different source models")

    near_a, near_b = _near_pairs(table_a.xyz, table_b.xyz, _max_consensus_radius_mm(cfg))
    admitted = [
        k for k, (p, q, da, db) in enumerate(zip(
            table_a.xyz[near_a].tolist(), table_b.xyz[near_b].tolist(),
            table_a.diameter_mm[near_a].tolist(), table_b.diameter_mm[near_b].tolist()))
        if distance_mm(*p, *q) <= _pair_radius_mm(nan_to_none(da), nan_to_none(db), cfg)
    ]
    ids_a, ids_b = table_a.candidate_id, table_b.candidate_id
    admissible = list(zip(near_a[admitted].tolist(), near_b[admitted].tolist(),
                          (table_a.score[near_a[admitted]]
                           + table_b.score[near_b[admitted]]).tolist()))
    admissible.sort(key=lambda ijs: (-ijs[2], ids_a[ijs[0]], ids_b[ijs[1]]))

    used_a: set[str] = set()
    used_b: set[str] = set()
    paired_a: list[int] = []
    paired_b: list[int] = []
    for i, j, _ in admissible:
        if ids_a[i] in used_a or ids_b[j] in used_b:
            continue
        used_a.add(ids_a[i])
        used_b.add(ids_b[j])
        paired_a.append(i)
        paired_b.append(j)
    pairs = ConsensusPairs(table_a.take(paired_a), table_b.take(paired_b))

    def unpaired(table: CandidateTable, ids: list[str], used: set[str]) -> CandidateTable:
        return table.take(sorted((k for k, c in enumerate(ids) if c not in used),
                                 key=ids.__getitem__))

    singles = [unpaired(table_a, ids_a, used_a), unpaired(table_b, ids_b, used_b)]
    if models_a and models_b and min(models_b) < min(models_a):
        singles.reverse()  # disagreements go by (model, candidate id)
    return pairs, CandidateTable.concat(singles)


def _score_disagreements(table: CandidateTable, provider: CadxProvider | None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The ``p_luna`` and ``p_dlcs`` of each row, scored in row order: a
    ``FileCadxProvider`` scores the whole table in one call, any other
    provider is called with one record per row."""
    if isinstance(provider, FileCadxProvider) and len(table):
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


def run_tri_stage(
    list_a: list[CandidateDetection],
    list_b: list[CandidateDetection],
    cadx_provider: CadxProvider | None = None,
    mask: Volume | None = None,
    cfg: PipelineConfig | None = None,
) -> TriStageResult:
    """Run the full tri-stage fusion for one scan.

    Returns the tiered candidate list sorted by (tier desc, averaged detector
    score desc, primary candidate id) plus a per-candidate disposition map.
    The lists are records or ``CandidateTable``s in which no (model,
    candidate id) repeats. Fusion works on their columns and builds the
    fused list as a table; it builds a record only for each candidate it
    sends to a CADx provider other than a ``FileCadxProvider``.
    """
    cfg = cfg or PipelineConfig()
    table_a = CandidateTable.of(list_a).require_unique_keys()
    table_b = CandidateTable.of(list_b).require_unique_keys()
    scan_id = _require_single_scan(table_a, table_b) or ""
    inputs = {*table_a.qualified_id, *table_b.qualified_id}  # every take keeps these ids
    dispositions: dict[str, str] = {}

    def gate(table: CandidateTable) -> CandidateTable:
        if mask is None:
            return table
        kept = []
        for k, (point, qualified_id) in enumerate(zip(table.xyz.tolist(), table.qualified_id)):
            if centroid_in_lung(WorldPoint(*point), mask, cfg.lung_labels):
                kept.append(k)
            else:
                dispositions[qualified_id] = DISP_MASK_REJECTED
        return table.take(kept)

    kept_a, absorbed_a = suppress_same_model_duplicates(gate(table_a), cfg.dedup_radius_mm)
    kept_b, absorbed_b = suppress_same_model_duplicates(gate(table_b), cfg.dedup_radius_mm)
    duplicate_of = {**absorbed_a, **absorbed_b}
    for dup_id in duplicate_of:
        dispositions[dup_id] = DISP_REJECTED
    absorbed_by: dict[str, list[str]] = {}
    for dup_id, survivor_id in sorted(duplicate_of.items()):
        absorbed_by.setdefault(survivor_id, []).append(dup_id)

    pairs, singles = cross_detector_consensus(kept_a, kept_b, cfg)
    pair_xyz, pair_score, pair_diameter = pairs.merged
    overflow = ~np.isfinite(pair_xyz).all(axis=1)
    if overflow.any():
        WorldPoint(*pair_xyz[np.argmax(overflow)].tolist())  # raises the InputError of the point
    ids_a, ids_b = pairs.members_a.qualified_id, pairs.members_b.qualified_id
    for qa, qb in zip(ids_a, ids_b):
        dispositions[qa] = DISP_PAIR
        dispositions[qb] = DISP_PAIR

    p_luna, p_dlcs = _score_disagreements(singles, cadx_provider)
    cadx_avg = (p_luna + p_dlcs) / 2.0
    promoted = cadx_avg >= cfg.tau_cadx
    # For a single-detector candidate the averaged detector score is its
    # own score: only one detector saw it.
    retained = ~promoted & (singles.score >= cfg.tau_cade)
    for qualified_id, t2, t3 in zip(singles.qualified_id, promoted.tolist(), retained.tolist()):
        dispositions[qualified_id] = DISP_T2 if t2 else DISP_T3 if t3 else DISP_REJECTED

    # the fused rows are gathered from the pair rows stacked over the single rows
    n_pairs = len(pairs)
    stack_tier = np.concatenate((np.full(n_pairs, TIER_BY_STAGE[STAGE_CONSENSUS]),
                                 np.where(promoted, TIER_BY_STAGE[STAGE_CADX],
                                          TIER_BY_STAGE[STAGE_CADE])))
    stack_score = np.concatenate((pair_score, singles.score))
    primary = ids_a + singles.qualified_id
    chosen = np.concatenate((np.arange(n_pairs), n_pairs + np.flatnonzero(promoted | retained)))
    chosen_ids = [primary[k] for k in chosen.tolist()]
    id_rank = np.empty(len(chosen_ids), dtype=np.intp)
    id_rank[sorted(range(len(chosen_ids)), key=chosen_ids.__getitem__)] = np.arange(len(chosen_ids))
    rows = chosen[np.lexsort((id_rank, -stack_score[chosen], -stack_tier[chosen]))]

    def provenance(qualified_id: str) -> tuple[str, ...]:
        return (qualified_id, *absorbed_by.get(qualified_id, ()))

    row_list = rows.tolist()
    tier = stack_tier[rows]
    scan_ids = [scan_id] * len(row_list)
    fused = CandidateTable(
        scan_ids, output_ids(scan_ids), [FUSED_MODEL] * len(row_list),
        np.concatenate((pair_xyz, singles.xyz))[rows],
        np.concatenate((pair_diameter, singles.diameter_mm))[rows], stack_score[rows],
        tier=tier, stage=[STAGE_BY_TIER[t] for t in tier.tolist()],
        cadx_avg=np.concatenate((np.full(n_pairs, math.nan),
                                 np.where(promoted, cadx_avg, math.nan)))[rows],
        provenance=[provenance(primary[k]) if k >= n_pairs
                    else provenance(primary[k]) + provenance(ids_b[k]) for k in row_list],
    )

    if set(dispositions) != inputs:
        raise InvariantError("fusion lost track of input candidates")

    return TriStageResult(
        scan_id=scan_id,
        fused=fused,
        dispositions=dispositions,
        duplicate_of=duplicate_of,
    )


@dataclass(frozen=True)
class FusionOutput:
    fused: CandidateTable
    per_scan: dict[str, TriStageResult] = field(default_factory=dict)


def fuse_scans(
    candidates_a: Iterable[CandidateDetection],
    candidates_b: Iterable[CandidateDetection],
    cadx_provider: CadxProvider | None = None,
    masks: Callable[[str], Volume | None] | None = None,
    cfg: PipelineConfig | None = None,
) -> FusionOutput:
    """Fuse candidate lists across scans, one scan at a time in scan-id order.

    Each list is a ``CandidateTable`` or an iterable of records; each scan is
    fused on its own rows, taken from the table, and the fused list is the
    scans' fused tables joined in that order. A mask loader is called once
    per scan, in that order, so it may keep only the current scan's volume.
    """
    cfg = cfg or PipelineConfig()
    table_a = CandidateTable.of(candidates_a)
    table_b = CandidateTable.of(candidates_b)
    by_scan_a = table_a.by_scan
    by_scan_b = table_b.by_scan
    scan_ids = sorted(set(by_scan_a) | set(by_scan_b))

    results = {
        scan_id: run_tri_stage(
            table_a.take(by_scan_a.get(scan_id, [])),
            table_b.take(by_scan_b.get(scan_id, [])),
            cadx_provider=cadx_provider,
            mask=masks(scan_id) if masks is not None else None,
            cfg=cfg,
        )
        for scan_id in scan_ids
    }
    tables = [result.fused for result in results.values()]
    fused = CandidateTable.concat(tables) if tables else fused_table(())
    return FusionOutput(fused=fused, per_scan=results)


class FileCadxProvider:
    """Serves classifier scores from a pre-computed table.

    Keys are (scan_id, source_model, candidate_id); a missing key is a
    scoring failure, never a silent skip. Called with a record, it returns
    its ``CadxScores``; called with a ``CandidateTable``, the ``p_luna`` and
    ``p_dlcs`` arrays of the table's rows, joined on the row index of a
    ``CadxScoreTable`` (another mapping is copied into one). A missing key
    raises for the first row without scores.
    """

    def __init__(self, scores: Mapping[tuple[str, str, str], CadxScores]):
        if not isinstance(scores, CadxScoreTable):
            keys = list(scores)
            scores = CadxScoreTable(keys, *(
                np.array([getattr(scores[k], p) for k in keys], dtype=np.float64)
                for p in ("p_luna", "p_dlcs")))
        self._scores = scores

    def __call__(self, candidates: CandidateDetection | CandidateTable):
        is_table = isinstance(candidates, CandidateTable)
        keys = (list(zip(candidates.scan_id, candidates.model, candidates.candidate_id))
                if is_table else [candidates.key])
        rows = list(map(self._scores.row.get, keys))
        if None in rows:
            scan_id, model, candidate_id = keys[rows.index(None)]
            raise ScorerError(
                f"no CADx scores on file for {model}:{candidate_id} on scan {scan_id}")
        p_luna, p_dlcs = self._scores.p_luna[rows], self._scores.p_dlcs[rows]
        return (p_luna, p_dlcs) if is_table else CadxScores(p_luna.item(), p_dlcs.item())


class CommandCadxProvider:
    """Scores candidates through an external command.

    For each candidate a 64^3 patch is extracted from the scan volume,
    written as a header + raw pair, and the header path is fed to the
    command on stdin. The command must print two reals in [0, 1] separated
    by whitespace and exit 0. ``volume_loader`` is called for every
    candidate, so it should keep the current scan's volume at hand.
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

    def __call__(self, candidate: CandidateDetection) -> CadxScores:
        label = f"{candidate.qualified_id} on scan {candidate.scan_id}"
        try:
            volume = self._volume_loader(candidate.scan_id)
        except Exception as err:
            raise ScorerError(f"cannot load scan volume for {label}: {err}") from err
        patch = extract_patch(volume, candidate.center)
        self._workdir.mkdir(parents=True, exist_ok=True)
        stem = f"patch_{candidate.scan_id}_{candidate.source_model}_{candidate.candidate_id}"
        header_path = save_patch(patch, self._workdir / f"{stem}.hdr")
        try:
            proc = subprocess.run(
                self._argv,
                input=str(header_path) + "\n",
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError as err:
            raise ScorerError(f"cannot run external scorer for {label}: {err}") from err
        if proc.returncode != 0:
            raise ScorerError(
                f"external scorer exited {proc.returncode} for {label}: "
                f"{proc.stderr.strip()}"
            )
        parts = proc.stdout.split()
        if len(parts) != 2:
            raise ScorerError(
                f"external scorer printed {len(parts)} values for {label}, expected 2"
            )
        try:
            return CadxScores(p_luna=float(parts[0]), p_dlcs=float(parts[1]))
        except (ValueError, InputError) as err:
            raise ScorerError(f"external scorer output invalid for {label}: {err}") from err
