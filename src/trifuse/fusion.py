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

import math
import shlex
import subprocess
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import (
    TOLERANCE_CAP_MM,
    CandidateDetection,
    CandidateTable,
    PipelineConfig,
    RecordSequence,
    WorldPoint,
    distance_mm,
    match_tolerance,
    may_lie_within,
    nan_to_none,
    require_unit_interval,
    unchecked_point,
)
from .errors import InputError, InvariantError, ScorerError
from .volume import Volume, centroid_in_lung, extract_patch, save_patch

STAGE_CONSENSUS = "consensus"
STAGE_CADX = "cadx_promoted"
STAGE_CADE = "cade_refined"
TIER_BY_STAGE = {STAGE_CONSENSUS: 1.0, STAGE_CADX: 0.5, STAGE_CADE: 0.2}

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


@dataclass(frozen=True)
class FusedCandidate:
    """Pipeline output row: a location with confidence tier and provenance."""

    scan_id: str
    center: WorldPoint
    confidence_tier: float
    stage: str
    cade_score_avg: float
    provenance: tuple[str, ...]
    diameter_mm: float | None = None
    cadx_avg: float | None = None

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


def _fused(scan_id: str, center: WorldPoint, stage: str, cade_score_avg: float,
           provenance: tuple[str, ...], diameter_mm: float | None,
           cadx_avg: float | None = None) -> FusedCandidate:
    """A ``FusedCandidate`` of values fusion computed from checked inputs, set
    without running ``__post_init__`` again."""
    fused = object.__new__(FusedCandidate)
    set_field = object.__setattr__
    set_field(fused, "scan_id", scan_id)
    set_field(fused, "center", center)
    set_field(fused, "confidence_tier", TIER_BY_STAGE[stage])
    set_field(fused, "stage", stage)
    set_field(fused, "cade_score_avg", cade_score_avg)
    set_field(fused, "provenance", provenance)
    set_field(fused, "diameter_mm", diameter_mm)
    set_field(fused, "cadx_avg", cadx_avg)
    return fused


@dataclass(frozen=True)
class TriStageResult:
    scan_id: str
    fused: tuple[FusedCandidate, ...]
    dispositions: dict[str, str]
    duplicate_of: dict[str, str]

    def disposition_counts(self) -> dict[str, int]:
        counts = {
            DISP_MASK_REJECTED: 0,
            DISP_PAIR: 0,
            DISP_T2: 0,
            DISP_T3: 0,
            DISP_REJECTED: 0,
        }
        for disp in self.dispositions.values():
            counts[disp] += 1
        return counts


def _merge_diameters(score_a: float, diameter_a: float | None,
                     score_b: float, diameter_b: float | None) -> float | None:
    if diameter_a is None and diameter_b is None:
        return None
    if diameter_a is None:
        return diameter_b
    if diameter_b is None:
        return diameter_a
    total = score_a + score_b
    if total == 0.0:
        return (diameter_a + diameter_b) / 2.0
    return (score_a * diameter_a + score_b * diameter_b) / total


def _merge_centers(score_a: float, center_a: Sequence[float],
                   score_b: float, center_b: Sequence[float]) -> WorldPoint:
    """The score-weighted center of a pair; the midpoint when both scores are 0."""
    total = score_a + score_b
    if total > 0.0:
        wa, wb = score_a / total, score_b / total
    else:
        wa = wb = 0.5
    x, y, z = (wa * a + wb * b for a, b in zip(center_a, center_b))
    # only a mean of coordinates at the edge of the float range can overflow
    return unchecked_point(x, y, z) if math.isfinite(x + y + z) else WorldPoint(x, y, z)


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

    def __getitem__(self, index: int) -> ConsensusPair:
        a, b = self.members_a[index], self.members_b[index]
        return ConsensusPair(
            member_a=a,
            member_b=b,
            merged_center=_merge_centers(a.score, a.center.as_tuple(), b.score,
                                         b.center.as_tuple()),
            merged_score=(a.score + b.score) / 2.0,
        )


def cross_detector_consensus(
    list_a: Iterable[CandidateDetection],
    list_b: Iterable[CandidateDetection],
    cfg: PipelineConfig | None = None,
) -> tuple[ConsensusPairs, list[CandidateDetection]]:
    """Pair candidates proposed by both detectors on one scan.

    A pair is admissible when the centroid distance satisfies the consensus
    radius. Admissible pairs are committed greedily in descending order of
    summed score (ties by candidate id pair); each candidate joins at most
    one pair. Unpaired candidates from either list form the disagreement set.
    Pairs within the largest radius the policy allows are found on one
    distance array, then each is tested with the scalar distance and its own
    radius, so the result is that of testing every pair.

    The lists are records or ``CandidateTable``s. The pairs come as
    ``ConsensusPairs``, which hold the tables of their members;
    disagreements are records.
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

    def unpaired(table: CandidateTable, ids: list[str], used: set[str]) -> list[CandidateDetection]:
        return table.records(sorted((k for k, c in enumerate(ids) if c not in used),
                                    key=ids.__getitem__))

    singles = [unpaired(table_a, ids_a, used_a), unpaired(table_b, ids_b, used_b)]
    if models_a and models_b and min(models_b) < min(models_a):
        singles.reverse()  # disagreements go by (model, candidate id)
    return pairs, singles[0] + singles[1]


def _score_disagreement(candidate: CandidateDetection, provider: CadxProvider | None) -> CadxScores:
    if provider is None:
        raise ScorerError(
            f"no CADx provider configured but candidate {candidate.qualified_id} "
            f"on scan {candidate.scan_id} needs scoring"
        )
    try:
        scores = provider(candidate)
    except ScorerError:
        raise
    except Exception as err:
        raise ScorerError(
            f"CADx scoring failed for {candidate.qualified_id} on scan "
            f"{candidate.scan_id}: {err}"
        ) from err
    if not isinstance(scores, CadxScores):
        raise ScorerError(
            f"CADx provider returned {type(scores).__name__} for "
            f"{candidate.qualified_id} on scan {candidate.scan_id}"
        )
    return scores


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
    The lists are records or ``CandidateTable``s; fusion works on their
    columns and builds a record only for each candidate the CADx provider
    scores.
    """
    cfg = cfg or PipelineConfig()
    table_a, table_b = CandidateTable.of(list_a), CandidateTable.of(list_b)
    scan_id = _require_single_scan(table_a, table_b) or ""
    dispositions: dict[str, str] = {}

    def gate(table: CandidateTable) -> CandidateTable:
        if mask is None:
            return table
        kept = []
        for k, (point, qualified_id) in enumerate(zip(table.xyz.tolist(), table.qualified_id)):
            if centroid_in_lung(unchecked_point(*point), mask, cfg.lung_labels):
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

    pairs, disagreements = cross_detector_consensus(kept_a, kept_b, cfg)

    fused: list[FusedCandidate] = []
    members = (pairs.members_a, pairs.members_b)
    for qa, qb, sa, sb, pa, pb, da, db in zip(
        *(m.qualified_id for m in members),
        *(getattr(m, name).tolist() for name in ("score", "xyz") for m in members),
        *(map(nan_to_none, m.diameter_mm.tolist()) for m in members),
    ):
        dispositions[qa] = DISP_PAIR
        dispositions[qb] = DISP_PAIR
        provenance = (qa, *absorbed_by.get(qa, ()), qb, *absorbed_by.get(qb, ()))
        fused.append(_fused(scan_id, _merge_centers(sa, pa, sb, pb), STAGE_CONSENSUS,
                            (sa + sb) / 2.0, provenance, _merge_diameters(sa, da, sb, db)))

    for cand in disagreements:
        scores = _score_disagreement(cand, cadx_provider)
        cadx_avg = ensemble_cadx(scores)
        qualified_id = cand.qualified_id
        provenance = (qualified_id, *absorbed_by.get(qualified_id, ()))
        # For a single-detector candidate the averaged detector score is its
        # own score: only one detector saw it.
        if cadx_avg >= cfg.tau_cadx:
            dispositions[qualified_id] = DISP_T2
            fused.append(_fused(scan_id, cand.center, STAGE_CADX, cand.score, provenance,
                                cand.diameter_mm, cadx_avg))
        elif cand.score >= cfg.tau_cade:
            dispositions[qualified_id] = DISP_T3
            fused.append(_fused(scan_id, cand.center, STAGE_CADE, cand.score, provenance,
                                cand.diameter_mm))
        else:
            dispositions[qualified_id] = DISP_REJECTED

    fused.sort(key=lambda f: (-f.confidence_tier, -f.cade_score_avg, f.primary_id))

    if set(dispositions) != {*table_a.qualified_id, *table_b.qualified_id}:
        raise InvariantError("fusion lost track of input candidates")

    return TriStageResult(
        scan_id=scan_id,
        fused=tuple(fused),
        dispositions=dispositions,
        duplicate_of=duplicate_of,
    )


@dataclass(frozen=True)
class FusionOutput:
    fused: tuple[FusedCandidate, ...]
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
    fused on its own rows, taken from the table. A mask loader is called once
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

    fused: list[FusedCandidate] = []
    for scan_id in scan_ids:
        fused.extend(results[scan_id].fused)
    return FusionOutput(fused=tuple(fused), per_scan=results)


class FileCadxProvider:
    """Serves classifier scores from a pre-computed table.

    Keys are (scan_id, source_model, candidate_id); a missing key is a
    scoring failure, never a silent skip.
    """

    def __init__(self, scores: Mapping[tuple[str, str, str], CadxScores]):
        self._scores = scores

    def __call__(self, candidate: CandidateDetection) -> CadxScores:
        try:
            return self._scores[candidate.key]
        except KeyError:
            raise ScorerError(
                f"no CADx scores on file for {candidate.qualified_id} "
                f"on scan {candidate.scan_id}"
            ) from None


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
