"""Rule-based extraction of nodule descriptors from report text and matching
of extracted entities to spatial candidates.

Extraction applies an ordered rule list per sentence: a sentence yields at
most one entity, and only when it mentions a nodule term and at least one
descriptor parses. Unparseable sentences yield nothing, never a guess.

Matching uses hard criteria: lobe agreement when both sides know it
(laterality when only laterality is known), size agreement within an
inclusive tolerance (default 3 mm), and agreement of every shared ordinal
characteristic within an inclusive level tolerance (default 1). Exactly one
admissible candidate matches outright; among several, the highest confidence
tier wins, then the highest detector score, then the smallest size
difference. The final assignment is a partial injection.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .domain import LUNGRADS_CATEGORIES, WorldPoint
from .errors import ConfigError, InputError
from .volume import Volume, label_at

LOBES = ("LUL", "LLL", "RUL", "RML", "RLL")
LOBE_BY_LABEL = {28: "LUL", 29: "LLL", 30: "RUL", 31: "RML", 32: "RLL"}
LOBE_LATERALITY = {"LUL": "left", "LLL": "left", "RUL": "right", "RML": "right", "RLL": "right"}

_RULE_FIELDS = ("mention", "size_mm", "lobe", "laterality", "lungrads")
# a period between two digits is a decimal point, not a sentence boundary
_SENTENCE_SPLIT = re.compile(r"(?<!\d)\.|\.(?!\d)|[;\n]")

DEFAULT_GRAMMAR_RULES = [
    {"field": "mention", "pattern": r"\b(nodule|nodules|mass|lesion|opacity|granuloma)\b"},
    {"field": "size_mm", "pattern": r"(?P<value>\d+(?:\.\d+)?)\s*(?:mm|millimeters?)\b"},
    {"field": "size_mm", "pattern": r"(?P<value>\d+(?:\.\d+)?)\s*(?:cm|centimeters?)\b", "scale": 10.0},
    {"field": "lobe", "pattern": r"\bright\s+upper\s+lobe\b|\bRUL\b", "value": "RUL"},
    {"field": "lobe", "pattern": r"\bright\s+middle\s+lobe\b|\bRML\b", "value": "RML"},
    {"field": "lobe", "pattern": r"\bright\s+lower\s+lobe\b|\bRLL\b", "value": "RLL"},
    {"field": "lobe", "pattern": r"\bleft\s+upper\s+lobe\b|\bLUL\b", "value": "LUL"},
    {"field": "lobe", "pattern": r"\bleft\s+lower\s+lobe\b|\bLLL\b", "value": "LLL"},
    {"field": "laterality", "pattern": r"\bleft\b", "value": "left"},
    {"field": "laterality", "pattern": r"\bright\b", "value": "right"},
    {"field": "lungrads", "pattern": r"\blung-?rads\s*(?:category\s*)?(?P<value>4A|4B|4X|[1-3])\b"},
    {"field": "ordinal:subtlety", "pattern": r"\bsubtlety\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:malignancy", "pattern": r"\bmalignancy\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:texture", "pattern": r"\btexture\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:spiculation", "pattern": r"\bspiculation\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:lobulation", "pattern": r"\blobulation\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:margin", "pattern": r"\bmargin\s*[:=]?\s*(?P<value>\d)\b"},
    {"field": "ordinal:sphericity", "pattern": r"\bsphericity\s*[:=]?\s*(?P<value>\d)\b"},
]


@dataclass(frozen=True)
class GrammarRule:
    field: str
    pattern: re.Pattern
    value: str | None = None
    scale: float = 1.0


class Grammar:
    """An ordered, compiled extraction rule list."""

    def __init__(self, rules: Sequence[GrammarRule]):
        if not rules:
            raise ConfigError("grammar has no rules")
        self.rules = tuple(rules)

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "Grammar":
        rules = []
        for i, raw in enumerate(spec):
            if not isinstance(raw, dict):
                raise ConfigError(f"grammar rule {i} is not an object")
            unknown = set(raw) - {"field", "pattern", "value", "scale"}
            if unknown:
                raise ConfigError(f"grammar rule {i} has unknown keys {sorted(unknown)}")
            field_name = raw.get("field")
            if field_name not in _RULE_FIELDS and not (
                isinstance(field_name, str) and field_name.startswith("ordinal:")
            ):
                raise ConfigError(f"grammar rule {i} has invalid field {field_name!r}")
            try:
                pattern = re.compile(raw["pattern"], re.IGNORECASE)
            except (KeyError, re.error) as err:
                raise ConfigError(f"grammar rule {i} has a bad pattern: {err}") from None
            rules.append(
                GrammarRule(
                    field=field_name,
                    pattern=pattern,
                    value=raw.get("value"),
                    scale=float(raw.get("scale", 1.0)),
                )
            )
        return cls(rules)


def default_grammar() -> Grammar:
    return Grammar.from_spec(DEFAULT_GRAMMAR_RULES)


def load_grammar(path: str | Path) -> Grammar:
    """Load a user grammar: JSON object with a top-level "rules" list."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read grammar file {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"grammar file {path} is not valid JSON: {err}") from None
    if not isinstance(payload, dict) or "rules" not in payload:
        raise ConfigError(f"grammar file {path} must be an object with a 'rules' list")
    if not isinstance(payload["rules"], list):
        raise ConfigError(f"grammar file {path}: 'rules' must be a list")
    return Grammar.from_spec(payload["rules"])


@dataclass(frozen=True)
class ReportEntity:
    """One structured nodule mention extracted from report text."""

    report_id: str
    scan_id: str
    raw_span: str
    size_mm: float | None = None
    lobe: str | None = None
    laterality: str | None = None
    lungrads: str | None = None
    ordinals: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.size_mm is not None and not (
            math.isfinite(self.size_mm) and self.size_mm > 0
        ):
            raise InputError(f"entity size_mm must be positive, got {self.size_mm!r}")
        if self.lobe is not None:
            if self.lobe not in LOBES:
                raise InputError(f"unknown lobe {self.lobe!r}")
            if self.laterality is not None and self.laterality != LOBE_LATERALITY[self.lobe]:
                raise InputError(
                    f"laterality {self.laterality!r} inconsistent with lobe {self.lobe!r}"
                )
        if self.lungrads is not None and self.lungrads not in LUNGRADS_CATEGORIES:
            raise InputError(f"unknown Lung-RADS category {self.lungrads!r}")

    def ordinal_map(self) -> dict[str, int]:
        return dict(self.ordinals)


def _extract_from_sentence(
    sentence: str, grammar: Grammar, report_id: str, scan_id: str
) -> ReportEntity | None:
    found: dict[str, object] = {}
    mentioned = False
    for rule in grammar.rules:
        match = rule.pattern.search(sentence)
        if match is None:
            continue
        if rule.field == "mention":
            mentioned = True
            continue
        if rule.field in found:
            continue  # first matching rule per field wins
        if rule.value is not None:
            found[rule.field] = rule.value
        else:
            try:
                raw_value = match.group("value")
            except (IndexError, re.error):
                raise ConfigError(
                    f"grammar rule for {rule.field!r} captured no 'value' group"
                ) from None
            if rule.field == "size_mm":
                found[rule.field] = float(raw_value) * rule.scale
            elif rule.field.startswith("ordinal:"):
                found[rule.field] = int(raw_value)
            else:
                found[rule.field] = raw_value.upper() if rule.field == "lungrads" else raw_value
    if not mentioned or not found:
        return None
    lobe = found.get("lobe")
    laterality = LOBE_LATERALITY[lobe] if lobe else found.get("laterality")
    ordinals = tuple(
        sorted((key.split(":", 1)[1], value) for key, value in found.items()
               if key.startswith("ordinal:"))
    )
    return ReportEntity(
        report_id=report_id,
        scan_id=scan_id,
        raw_span=sentence.strip(),
        size_mm=found.get("size_mm"),
        lobe=lobe,
        laterality=laterality,
        lungrads=found.get("lungrads"),
        ordinals=ordinals,
    )


def extract_entities(
    report_text: str, grammar: Grammar | None = None, report_id: str = "", scan_id: str = ""
) -> list[ReportEntity]:
    """Extract nodule entities from plain report text, one per sentence."""
    grammar = grammar or default_grammar()
    entities = []
    for sentence in _SENTENCE_SPLIT.split(report_text):
        if not sentence.strip():
            continue
        entity = _extract_from_sentence(sentence, grammar, report_id, scan_id)
        if entity is not None:
            entities.append(entity)
    return entities


def lobe_of_candidate(candidate, mask: Volume) -> str | None:
    """Lobe of a candidate's centroid via nearest-voxel lookup, or None."""
    label = label_at(candidate.center, mask)
    if label is None:
        return None
    return LOBE_BY_LABEL.get(label)


@dataclass(frozen=True)
class LinkCandidate:
    """Candidate-side record for report linkage."""

    scan_id: str
    candidate_id: str
    center: WorldPoint
    tier: float
    score: float
    diameter_mm: float | None = None
    lobe: str | None = None
    ordinals: tuple[tuple[str, int], ...] = ()

    @property
    def laterality(self) -> str | None:
        return LOBE_LATERALITY.get(self.lobe) if self.lobe else None

    def ordinal_map(self) -> dict[str, int]:
        return dict(self.ordinals)


@dataclass(frozen=True)
class EntityMatch:
    entity: ReportEntity | None
    candidate_id: str | None
    status: str  # matched | report_only | candidate_only
    criteria: tuple[tuple[str, bool], ...] = ()


def _criteria_for(
    entity: ReportEntity,
    candidate: LinkCandidate,
    size_tol_mm: float,
    ordinal_tol: int,
) -> tuple[tuple[str, bool], ...]:
    """Per-criterion verdicts; criteria with missing information are omitted."""
    checks: list[tuple[str, bool]] = []
    if entity.lobe is not None and candidate.lobe is not None:
        checks.append(("lobe", entity.lobe == candidate.lobe))
    elif entity.laterality is not None and candidate.laterality is not None:
        checks.append(("laterality", entity.laterality == candidate.laterality))
    if entity.size_mm is not None and candidate.diameter_mm is not None:
        checks.append(("size", abs(entity.size_mm - candidate.diameter_mm) <= size_tol_mm))
    shared = set(entity.ordinal_map()) & set(candidate.ordinal_map())
    for name in sorted(shared):
        checks.append(
            (f"ordinal:{name}",
             abs(entity.ordinal_map()[name] - candidate.ordinal_map()[name]) <= ordinal_tol)
        )
    return tuple(checks)


def is_admissible(
    entity: ReportEntity,
    candidate: LinkCandidate,
    size_tol_mm: float = 3.0,
    ordinal_tol: int = 1,
) -> bool:
    if entity.scan_id != candidate.scan_id:
        return False
    return all(ok for _, ok in _criteria_for(entity, candidate, size_tol_mm, ordinal_tol))


def match_entities(
    entities: Iterable[ReportEntity],
    candidates: Iterable[LinkCandidate],
    size_tol_mm: float = 3.0,
    ordinal_tol: int = 1,
) -> list[EntityMatch]:
    """Assign report entities to candidates; unmatched sides are labeled.

    Entities are processed in input order; a candidate matched to an earlier
    entity is no longer available, so the result is a partial injection.
    """
    entities = list(entities)
    pool: dict[str, LinkCandidate] = {}
    for cand in candidates:
        if cand.candidate_id in pool:
            raise InputError(f"duplicate link candidate id {cand.candidate_id!r}")
        pool[cand.candidate_id] = cand
    entity_scans = {e.scan_id for e in entities}
    candidate_scans = {c.scan_id for c in pool.values()}
    if entities and pool and not entity_scans & candidate_scans:
        raise InputError(
            f"entities and candidates share no scans: {sorted(entity_scans)} vs "
            f"{sorted(candidate_scans)}"
        )

    matches: list[EntityMatch] = []
    for entity in entities:
        admissible = [
            c for c in pool.values()
            if c.scan_id == entity.scan_id
            and is_admissible(entity, c, size_tol_mm, ordinal_tol)
        ]
        if not admissible:
            matches.append(EntityMatch(entity=entity, candidate_id=None, status="report_only"))
            continue

        def size_gap(c: LinkCandidate) -> float:
            if entity.size_mm is None or c.diameter_mm is None:
                return math.inf
            return abs(entity.size_mm - c.diameter_mm)

        admissible.sort(key=lambda c: (-c.tier, -c.score, size_gap(c), c.candidate_id))
        chosen = admissible[0]
        del pool[chosen.candidate_id]
        matches.append(
            EntityMatch(
                entity=entity,
                candidate_id=chosen.candidate_id,
                status="matched",
                criteria=_criteria_for(entity, chosen, size_tol_mm, ordinal_tol),
            )
        )
    for candidate_id in sorted(pool):
        matches.append(EntityMatch(entity=None, candidate_id=candidate_id, status="candidate_only"))
    return matches
