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

import shlex
import subprocess
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import (
    TOLERANCE_CAP_MM,
    CandidateDetection,
    PipelineConfig,
    WorldPoint,
    match_tolerance,
    require_unit_interval,
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

    @property
    def merged_diameter_mm(self) -> float | None:
        return _merge_diameters(self.member_a, self.member_b)


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


def _merge_diameters(a: CandidateDetection, b: CandidateDetection) -> float | None:
    if a.diameter_mm is None and b.diameter_mm is None:
        return None
    if a.diameter_mm is None:
        return b.diameter_mm
    if b.diameter_mm is None:
        return a.diameter_mm
    total = a.score + b.score
    if total == 0.0:
        return (a.diameter_mm + b.diameter_mm) / 2.0
    return (a.score * a.diameter_mm + b.score * b.diameter_mm) / total


def consensus_radius_mm(
    a: CandidateDetection, b: CandidateDetection, cfg: PipelineConfig
) -> float:
    """Pairing distance for two candidates under the configured policy.

    The adaptive policy widens the base radius to the matching tolerance of
    the larger reported diameter; without diameters it falls back to the flat
    base radius.
    """
    if cfg.consensus_radius_policy == "fixed":
        return cfg.consensus_radius_mm
    if a.diameter_mm is not None and b.diameter_mm is not None:
        return max(cfg.consensus_radius_mm, match_tolerance(max(a.diameter_mm, b.diameter_mm)))
    return cfg.consensus_radius_mm


def _max_consensus_radius_mm(cfg: PipelineConfig) -> float:
    """The largest radius ``consensus_radius_mm`` returns under ``cfg``: the
    adaptive policy never exceeds the capped matching tolerance."""
    if cfg.consensus_radius_policy == "fixed":
        return cfg.consensus_radius_mm
    return max(cfg.consensus_radius_mm, TOLERANCE_CAP_MM)


# numpy's squared distance can differ from the scalar one in the last bits, so
# the prefilter admits a relative slack above the radius, plus an absolute one
# for squares too small to hold that precision
_PREFILTER_SLACK = 1e-9
_PREFILTER_FLOOR_MM2 = 1e-300


def _near_pairs(
    list_a: list[CandidateDetection], list_b: list[CandidateDetection], radius_mm: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, in row-major order, of candidates whose centroids
    may lie within ``radius_mm``.

    A prefilter on one squared-distance array: it keeps every pair the exact
    scalar distance admits and a few just outside, which callers test exactly.
    """
    if not list_a or not list_b:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    a = np.array([c.center.as_tuple() for c in list_a])
    b = a if list_b is list_a else np.array([c.center.as_tuple() for c in list_b])
    with np.errstate(over="ignore"):  # an overflowing distance is inf: no pair
        d = a[:, None, :] - b[None, :, :]
        d *= d
        squared = d[:, :, 0] + d[:, :, 1] + d[:, :, 2]
    limit = radius_mm * radius_mm * (1.0 + _PREFILTER_SLACK) + _PREFILTER_FLOOR_MM2
    return np.nonzero(squared <= limit)


def _require_single_scan(candidates: Iterable[CandidateDetection]) -> str | None:
    scan_ids = {c.scan_id for c in candidates}
    if len(scan_ids) > 1:
        raise InputError(f"candidates span multiple scans: {sorted(scan_ids)}")
    return next(iter(scan_ids)) if scan_ids else None


def suppress_same_model_duplicates(
    candidates: list[CandidateDetection], radius_mm: float
) -> tuple[list[CandidateDetection], dict[str, str]]:
    """Keep only the best-scored candidate among same-model near-duplicates.

    Candidates are visited best score first (ties by candidate id); each one
    is absorbed by the first earlier survivor within ``radius_mm`` (scalar
    distance, after the prefilter), or survives. Returns the survivors
    (score-descending) and a map from each suppressed candidate's qualified
    id to its survivor's qualified id.
    """
    ordered = sorted(candidates, key=lambda c: (-c.score, c.candidate_id))
    rows, cols = _near_pairs(ordered, ordered, radius_mm)
    earlier = cols < rows
    near: dict[int, list[int]] = {}
    for i, j in zip(rows[earlier].tolist(), cols[earlier].tolist()):
        near.setdefault(i, []).append(j)
    kept: list[CandidateDetection] = []
    kept_at: set[int] = set()
    absorbed: dict[str, str] = {}
    for i, cand in enumerate(ordered):
        survivor = None
        for j in near.get(i, ()):
            keeper = ordered[j]
            if j in kept_at and cand.center.distance_to(keeper.center) <= radius_mm:
                survivor = keeper
                break
        if survivor is None:
            kept.append(cand)
            kept_at.add(i)
        else:
            absorbed[cand.qualified_id] = survivor.qualified_id
    return kept, absorbed


def cross_detector_consensus(
    list_a: list[CandidateDetection],
    list_b: list[CandidateDetection],
    cfg: PipelineConfig | None = None,
) -> tuple[list[ConsensusPair], list[CandidateDetection]]:
    """Pair candidates proposed by both detectors on one scan.

    A pair is admissible when the centroid distance satisfies the consensus
    radius. Admissible pairs are committed greedily in descending order of
    summed score (ties by candidate id pair); each candidate joins at most
    one pair. Unpaired candidates from either list form the disagreement set.
    Pairs within the largest radius the policy allows are found on one
    distance array, then each is tested with the scalar distance and its own
    radius, so the result is that of testing every pair.
    """
    cfg = cfg or PipelineConfig()
    _require_single_scan(list_a + list_b)
    models_a = {c.source_model for c in list_a}
    models_b = {c.source_model for c in list_b}
    if len(models_a) > 1 or len(models_b) > 1:
        raise InputError("each detector list must come from a single source model")
    if models_a and models_b and models_a == models_b:
        raise InputError("detector lists must come from different source models")

    admissible = []
    rows, cols = _near_pairs(list_a, list_b, _max_consensus_radius_mm(cfg))
    for i, j in zip(rows.tolist(), cols.tolist()):
        a, b = list_a[i], list_b[j]
        if a.center.distance_to(b.center) <= consensus_radius_mm(a, b, cfg):
            admissible.append((a, b))
    admissible.sort(key=lambda ab: (-(ab[0].score + ab[1].score),
                                    ab[0].candidate_id, ab[1].candidate_id))

    used_a: set[str] = set()
    used_b: set[str] = set()
    pairs: list[ConsensusPair] = []
    for a, b in admissible:
        if a.candidate_id in used_a or b.candidate_id in used_b:
            continue
        used_a.add(a.candidate_id)
        used_b.add(b.candidate_id)
        total = a.score + b.score
        if total > 0.0:
            wa, wb = a.score / total, b.score / total
        else:
            wa = wb = 0.5
        merged_center = WorldPoint(
            wa * a.center.x + wb * b.center.x,
            wa * a.center.y + wb * b.center.y,
            wa * a.center.z + wb * b.center.z,
        )
        pairs.append(
            ConsensusPair(
                member_a=a,
                member_b=b,
                merged_center=merged_center,
                merged_score=(a.score + b.score) / 2.0,
            )
        )

    disagreements = [c for c in list_a if c.candidate_id not in used_a]
    disagreements += [c for c in list_b if c.candidate_id not in used_b]
    disagreements.sort(key=lambda c: (c.source_model, c.candidate_id))
    return pairs, disagreements


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
    """
    cfg = cfg or PipelineConfig()
    scan_id = _require_single_scan(list_a + list_b) or ""
    dispositions: dict[str, str] = {}

    def gate(cands: list[CandidateDetection]) -> list[CandidateDetection]:
        if mask is None:
            return list(cands)
        kept = []
        for c in cands:
            if centroid_in_lung(c.center, mask, cfg.lung_labels):
                kept.append(c)
            else:
                dispositions[c.qualified_id] = DISP_MASK_REJECTED
        return kept

    gated_a = gate(list_a)
    gated_b = gate(list_b)

    kept_a, absorbed_a = suppress_same_model_duplicates(gated_a, cfg.dedup_radius_mm)
    kept_b, absorbed_b = suppress_same_model_duplicates(gated_b, cfg.dedup_radius_mm)
    duplicate_of = {**absorbed_a, **absorbed_b}
    for dup_id in duplicate_of:
        dispositions[dup_id] = DISP_REJECTED
    absorbed_by: dict[str, list[str]] = {}
    for dup_id, survivor_id in sorted(duplicate_of.items()):
        absorbed_by.setdefault(survivor_id, []).append(dup_id)

    pairs, disagreements = cross_detector_consensus(kept_a, kept_b, cfg)

    fused: list[FusedCandidate] = []
    for pair in pairs:
        a, b = pair.member_a, pair.member_b
        dispositions[a.qualified_id] = DISP_PAIR
        dispositions[b.qualified_id] = DISP_PAIR
        provenance = (
            a.qualified_id,
            *absorbed_by.get(a.qualified_id, ()),
            b.qualified_id,
            *absorbed_by.get(b.qualified_id, ()),
        )
        fused.append(
            FusedCandidate(
                scan_id=scan_id,
                center=pair.merged_center,
                confidence_tier=TIER_BY_STAGE[STAGE_CONSENSUS],
                stage=STAGE_CONSENSUS,
                cade_score_avg=pair.merged_score,
                provenance=provenance,
                diameter_mm=pair.merged_diameter_mm,
            )
        )

    for cand in disagreements:
        scores = _score_disagreement(cand, cadx_provider)
        cadx_avg = ensemble_cadx(scores)
        provenance = (cand.qualified_id, *absorbed_by.get(cand.qualified_id, ()))
        # For a single-detector candidate the averaged detector score is its
        # own score: only one detector saw it.
        if cadx_avg >= cfg.tau_cadx:
            dispositions[cand.qualified_id] = DISP_T2
            fused.append(
                FusedCandidate(
                    scan_id=scan_id,
                    center=cand.center,
                    confidence_tier=TIER_BY_STAGE[STAGE_CADX],
                    stage=STAGE_CADX,
                    cade_score_avg=cand.score,
                    provenance=provenance,
                    diameter_mm=cand.diameter_mm,
                    cadx_avg=cadx_avg,
                )
            )
        elif cand.score >= cfg.tau_cade:
            dispositions[cand.qualified_id] = DISP_T3
            fused.append(
                FusedCandidate(
                    scan_id=scan_id,
                    center=cand.center,
                    confidence_tier=TIER_BY_STAGE[STAGE_CADE],
                    stage=STAGE_CADE,
                    cade_score_avg=cand.score,
                    provenance=provenance,
                    diameter_mm=cand.diameter_mm,
                )
            )
        else:
            dispositions[cand.qualified_id] = DISP_REJECTED

    fused.sort(key=lambda f: (-f.confidence_tier, -f.cade_score_avg, f.primary_id))

    expected = {c.qualified_id for c in list_a} | {c.qualified_id for c in list_b}
    if set(dispositions) != expected:
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

    A mask loader is called once per scan, in that order, so it may keep
    only the current scan's volume.
    """
    cfg = cfg or PipelineConfig()
    by_scan_a: dict[str, list[CandidateDetection]] = {}
    by_scan_b: dict[str, list[CandidateDetection]] = {}
    for c in candidates_a:
        by_scan_a.setdefault(c.scan_id, []).append(c)
    for c in candidates_b:
        by_scan_b.setdefault(c.scan_id, []).append(c)
    scan_ids = sorted(set(by_scan_a) | set(by_scan_b))

    results = {
        scan_id: run_tri_stage(
            by_scan_a.get(scan_id, []),
            by_scan_b.get(scan_id, []),
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
        self._scores = dict(scores)

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
