"""Shared domain records and the lesion hit criterion.

All geometry lives in world millimeters (LPS unless converted at ingestion).
The hit test between a detection and a reference nodule uses a
diameter-dependent tolerance: half the reference diameter for nodules under
10 mm, capped at 5 mm from 10 mm upward. The boundary is inclusive, so a
candidate exactly at tolerance distance counts as a hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

SOURCE_MODEL_A = "CADE_A"
SOURCE_MODEL_B = "CADE_B"
DETECTOR_MODELS = (SOURCE_MODEL_A, SOURCE_MODEL_B)

DIAGNOSES = ("benign", "cancer", "unknown")
LUNGRADS_CATEGORIES = ("1", "2", "3", "4A", "4B", "4X")
LUNG_LOBE_LABELS = frozenset({28, 29, 30, 31, 32})

TOLERANCE_CAP_MM = 5.0
TOLERANCE_CAP_AT_DIAMETER_MM = 10.0

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
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


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
        for name, (lo, hi) in RATING_RANGES.items():
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or not lo <= value <= hi:
                raise InputError(f"rating {name} must be an integer in [{lo}, {hi}], got {value!r}")
        for name in ("internal_structure", "calcification"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 0):
                raise InputError(f"rating {name} must be a non-negative integer, got {value!r}")
        if self.diameter_rad_mm is not None:
            object.__setattr__(
                self, "diameter_rad_mm", require_positive("diameter_rad_mm", self.diameter_rad_mm)
            )

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
            self, "diameter_mm", require_positive("reference diameter_mm", self.diameter_mm)
        )
        if self.diagnosis not in DIAGNOSES:
            raise InputError(f"diagnosis must be one of {DIAGNOSES}, got {self.diagnosis!r}")
        if self.lungrads is not None and self.lungrads not in LUNGRADS_CATEGORIES:
            raise InputError(
                f"lungrads must be one of {LUNGRADS_CATEGORIES}, got {self.lungrads!r}"
            )
        if self.positive_votes is not None and self.reviewers is None:
            raise InputError(f"nodule {self.nodule_id}: positive_votes given without reviewers")
        if self.reviewers is not None:
            if not isinstance(self.reviewers, int) or self.reviewers < 1:
                raise InputError(f"reviewers must be a positive integer, got {self.reviewers!r}")
            if self.positive_votes is not None:
                if not isinstance(self.positive_votes, int) or self.positive_votes < 0:
                    raise InputError(
                        f"positive_votes must be a non-negative integer, got {self.positive_votes!r}"
                    )
                if self.positive_votes > self.reviewers:
                    raise InputError(
                        f"nodule {self.nodule_id}: positive_votes {self.positive_votes} "
                        f"exceeds reviewers {self.reviewers}"
                    )

    @property
    def key(self) -> tuple[str, str]:
        return (self.scan_id, self.nodule_id)


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


def match_tolerance(diameter_mm: float) -> float:
    """Matching tolerance in mm for a reference nodule of the given diameter.

    Half the diameter below 10 mm, a flat 5 mm cap from 10 mm upward.
    """
    diameter_mm = require_positive("diameter_mm", diameter_mm)
    if diameter_mm < TOLERANCE_CAP_AT_DIAMETER_MM:
        return diameter_mm / 2.0
    return TOLERANCE_CAP_MM


def is_hit(candidate: CandidateDetection, reference: ReferenceNodule) -> bool:
    """True iff the candidate centroid lies within the reference tolerance."""
    if candidate.scan_id != reference.scan_id:
        raise InputError(
            f"scan mismatch: candidate on {candidate.scan_id!r}, reference on {reference.scan_id!r}"
        )
    return candidate.center.distance_to(reference.center) <= match_tolerance(reference.diameter_mm)
