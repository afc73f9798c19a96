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
difference, then the lowest candidate id. Entities are served in report
order and each removes its candidate from the pool, so the final assignment
is a partial injection.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    LOBE_BY_LABEL,
    LUNGRADS_CATEGORIES,
    RecordSequence,
    WorldPoint,
    first_repeat,
    rows_by_scan,
)
from .errors import ConfigError, InputError, open_text
from .volume import Volume, label_at

LOBE_LATERALITY = {"LUL": "left", "LLL": "left", "RUL": "right", "RML": "right", "RLL": "right"}

_RULE_FIELDS = ("mention", "size_mm", "lobe", "laterality", "lungrads")
# what a fixed value of each field must be (an ``ordinal:`` field's under "ordinal"),
# and the test of it; a fixed lobe is checked apart
_FIXED_VALUES = {
    "size_mm": ("a finite positive number",
                lambda v: type(v) in (int, float) and 0 < v < math.inf),
    "laterality": ("'left' or 'right'", lambda v: v in ("left", "right")),
    "lungrads": (f"a Lung-RADS category of {list(LUNGRADS_CATEGORIES)}",
                 lambda v: v in LUNGRADS_CATEGORIES),
    "ordinal": ("an integer", lambda v: type(v) is int),
}
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
    """An ordered, compiled extraction rule list.

    Every rule but a ``mention`` one gives its field a fixed ``value`` or the
    text its ``(?P<value>...)`` group captures; a fixed value is one its field
    holds (a known lobe, laterality or Lung-RADS category, a finite positive
    size, an integer ordinal), and a ``scale`` is finite and positive.
    """

    def __init__(self, rules: Sequence[GrammarRule]):
        if not rules:
            raise ConfigError("grammar has no rules")
        for i, rule in enumerate(rules):
            if rule.field == "mention":
                continue
            if rule.value is None and "value" not in rule.pattern.groupindex:
                raise ConfigError(f"grammar rule {i} for {rule.field!r} has neither a "
                                  "(?P<value>...) group nor a fixed value")
            if rule.field == "lobe" and rule.value is not None and not (
                    isinstance(rule.value, str) and rule.value in LOBE_LATERALITY):
                raise ConfigError(f"grammar rule {i} has unknown lobe value {rule.value!r}")
            kind = rule.field.split(":", 1)[0]
            if rule.value is not None and kind in _FIXED_VALUES:
                must, holds = _FIXED_VALUES[kind]
                if not holds(rule.value):
                    raise ConfigError(f"grammar rule {i} has {rule.field} value "
                                      f"{rule.value!r}; it must be {must}")
            if not (math.isfinite(rule.scale) and rule.scale > 0):
                raise ConfigError(f"grammar rule {i} has scale {rule.scale!r}; "
                                  "it must be finite and positive")
        self.rules = tuple(rules)
        self.mentions = tuple(r.pattern for r in self.rules if r.field == "mention")
        self.descriptors = tuple(r for r in self.rules if r.field != "mention")

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
            try:
                scale = float(raw.get("scale", 1.0))
            except (TypeError, ValueError):
                raise ConfigError(f"grammar rule {i} has scale {raw['scale']!r}; "
                                  "it must be finite and positive") from None
            rules.append(GrammarRule(field=field_name, pattern=pattern,
                                     value=raw.get("value"), scale=scale))
        return cls(rules)


def default_grammar() -> Grammar:
    return Grammar.from_spec(DEFAULT_GRAMMAR_RULES)


def load_grammar(path: str | Path) -> Grammar:
    """Load a user grammar: JSON object with a top-level "rules" list."""
    path = Path(path)
    try:
        with open_text(path, error=ConfigError) as fh:
            payload = json.load(fh)
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
            if self.lobe not in LOBE_LATERALITY:
                raise InputError(f"unknown lobe {self.lobe!r}")
            if self.laterality is not None and self.laterality != LOBE_LATERALITY[self.lobe]:
                raise InputError(
                    f"laterality {self.laterality!r} inconsistent with lobe {self.lobe!r}"
                )
        if self.lungrads is not None and self.lungrads not in LUNGRADS_CATEGORIES:
            raise InputError(f"unknown Lung-RADS category {self.lungrads!r}")

    def ordinal_map(self) -> dict[str, int]:
        return dict(self.ordinals)


def _captured(rule: GrammarRule, raw: str | None):
    """The value a rule's ``value`` group captured, as its field holds it;
    None for a size that is not finite and positive: the rule does not match."""
    if raw is None:
        raise ConfigError(f"grammar rule for {rule.field!r} captured no 'value' group")
    try:
        if rule.field == "size_mm":
            size = float(raw) * rule.scale
            return size if 0.0 < size < math.inf else None
        if rule.field.startswith("ordinal:"):
            return int(raw)
    except ValueError:
        raise ConfigError(f"grammar rule for {rule.field!r} captured {raw!r}, "
                          "which is not a number") from None
    if rule.field == "lobe" and raw not in LOBE_LATERALITY:
        raise ConfigError(f"grammar rule for 'lobe' captured {raw!r}, which is not a lobe")
    return raw.upper() if rule.field == "lungrads" else raw


def _extract_from_sentence(
    sentence: str, grammar: Grammar, report_id: str, scan_id: str
) -> ReportEntity | None:
    if not any(pattern.search(sentence) for pattern in grammar.mentions):
        return None
    found: dict[str, object] = {}
    for rule in grammar.descriptors:
        if rule.field in found:
            continue  # first matching rule per field wins
        match = rule.pattern.search(sentence)
        if match is not None:
            value = rule.value if rule.value is not None else _captured(rule, match.group("value"))
            if value is not None:  # None: a size capture that matches nothing
                found[rule.field] = value
    if not found:
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


@dataclass(frozen=True, eq=False)
class LinkColumns:
    """The candidate side of report linkage as columns, one row per candidate.

    ``diameter_mm`` holds NaN where no diameter is given. ``lobe`` (a lobe or
    None per row) and ``ordinals`` (a name-to-level map per row) are None when
    the candidates carry none.
    """

    scan_id: list[str]
    candidate_id: list[str]
    tier: np.ndarray
    score: np.ndarray
    diameter_mm: np.ndarray
    lobe: list[str | None] | None = None
    ordinals: list[dict[str, int]] | None = None

    @classmethod
    def of(cls, candidates: "Iterable[LinkCandidate] | LinkColumns") -> "LinkColumns":
        """``candidates`` if they are columns, else the columns of the records."""
        if isinstance(candidates, LinkColumns):
            return candidates
        records = list(candidates)
        return cls(
            [c.scan_id for c in records],
            [c.candidate_id for c in records],
            np.array([c.tier for c in records], dtype=np.float64),
            np.array([c.score for c in records], dtype=np.float64),
            np.array([math.nan if c.diameter_mm is None else c.diameter_mm for c in records],
                     dtype=np.float64),
            [c.lobe for c in records],
            [c.ordinal_map() for c in records],
        )


def _link_criteria(entity: ReportEntity, table: LinkColumns, rows: np.ndarray,
                   size_tol_mm: float, ordinal_tol: int) -> tuple[list, np.ndarray]:
    """Each link criterion the entity carries, over the candidates at ``rows``
    of ``table``, as its name, whether each candidate has the information and
    whether each agrees, in the order a match reports them: lobe (laterality
    when the entity knows only that), size, ordinals by name. And whether each
    candidate is admissible: no criterion it has the information for disagrees."""
    criteria = []
    if table.lobe is not None and (entity.lobe is not None or entity.laterality is not None):
        sides = [table.lobe[k] for k in rows.tolist()]
        name, want = "lobe", entity.lobe
        if want is None:
            name, want = "laterality", entity.laterality
            sides = [LOBE_LATERALITY.get(lobe) if lobe else None for lobe in sides]
        criteria.append((name, np.array([side is not None for side in sides], dtype=bool),
                         np.array([side == want for side in sides], dtype=bool)))
    if entity.size_mm is not None:
        gap = np.abs(entity.size_mm - table.diameter_mm[rows])  # NaN: no diameter
        criteria.append(("size", ~np.isnan(gap), gap <= size_tol_mm))
    if table.ordinals is not None:
        for name, level in sorted(entity.ordinal_map().items()):
            have = np.array([table.ordinals[k].get(name, math.nan) for k in rows.tolist()],
                            dtype=float)
            criteria.append((f"ordinal:{name}", ~np.isnan(have),
                             np.abs(level - have) <= ordinal_tol))
    admissible = np.ones(len(rows), dtype=bool)
    for _, known, agrees in criteria:
        admissible &= agrees | ~known
    return criteria, admissible


def is_admissible(
    entity: ReportEntity,
    candidate: LinkCandidate,
    size_tol_mm: float = 3.0,
    ordinal_tol: int = 1,
) -> bool:
    if entity.scan_id != candidate.scan_id:
        return False
    _, admissible = _link_criteria(entity, LinkColumns.of([candidate]), np.arange(1),
                                   size_tol_mm, ordinal_tol)
    return bool(admissible[0])


class EntityMatches(RecordSequence):
    """What ``match_entities`` returns, held by column.

    ``taken[j]`` is the candidate row entity ``j`` took (-1 for none) and
    ``criteria[j]`` the verdicts of the criteria that candidate had the
    information for. ``order`` lists the result's rows: ``j >= 0`` for entity
    ``j``, ``~k`` for candidate row ``k`` left in the pool. Reads as
    ``EntityMatch`` records, built only when asked.
    """

    def __init__(self, entities: list[ReportEntity], table: LinkColumns, taken: list[int],
                 criteria: list[tuple[tuple[str, bool], ...]], order: list[int]):
        self.entities = entities
        self.table = table
        self.taken = taken
        self.criteria = criteria
        self.order = order

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> EntityMatch:
        return self._record(self.order[index])

    def __iter__(self):
        return map(self._record, self.order)

    def _record(self, k: int) -> EntityMatch:
        ids = self.table.candidate_id
        if k < 0:
            return EntityMatch(entity=None, candidate_id=ids[~k], status="candidate_only")
        row = self.taken[k]
        if row < 0:
            return EntityMatch(entity=self.entities[k], candidate_id=None, status="report_only")
        return EntityMatch(entity=self.entities[k], candidate_id=ids[row], status="matched",
                           criteria=self.criteria[k])


def match_entities(
    entities: Iterable[ReportEntity],
    candidates: Iterable[LinkCandidate] | LinkColumns,
    size_tol_mm: float = 3.0,
    ordinal_tol: int = 1,
    scans: Iterable[str] | None = None,
) -> EntityMatches:
    """Assign report entities to candidates; unmatched sides are labeled.

    ``candidates`` are ``LinkCandidate`` records or ``LinkColumns``; no
    (scan, candidate id) may repeat. The linked scans are the entities' scans
    and ``scans`` (by default every candidate's scan; then entities and
    candidates must share a scan), and candidates on other scans are left
    out. Each linked scan is linked on its own, in ascending scan id order:
    its entities are served in input order, and each removes the candidate it
    takes from the pool, so the result is a partial injection. An entity's
    admissible candidates (by the rule of ``is_admissible``) are found among
    the pool's rows on its scan in one step over the columns; the best of
    them (highest tier, then score, then smallest size difference, then
    lowest candidate id) is taken, with the verdicts of the criteria it has
    the information for. The scan's candidates left in the pool follow its
    entities, in candidate-id order.
    """
    entities = list(entities)
    table = LinkColumns.of(candidates)
    ids = table.candidate_id
    repeat = first_repeat(table.scan_id, ids)
    if repeat is not None:
        raise InputError(f"duplicate link candidate id {ids[repeat]!r}")
    by_scan = rows_by_scan(table.scan_id)
    entities_on: dict[str, list[int]] = {}
    for j, entity in enumerate(entities):
        entities_on.setdefault(entity.scan_id, []).append(j)
    if scans is None:
        scans = by_scan.keys()
        if entities and ids and not entities_on.keys() & scans:
            raise InputError(
                f"entities and candidates share no scans: {sorted(entities_on)} vs "
                f"{sorted(scans)}"
            )

    tiers, scores = table.tier.tolist(), table.score.tolist()
    diameters = table.diameter_mm.tolist()
    taken, criteria = [-1] * len(entities), [()] * len(entities)
    order: list[int] = []
    no_rows = np.empty(0, dtype=np.intp)
    for scan_id in sorted(set(scans) | entities_on.keys()):
        rows = by_scan.get(scan_id, no_rows)  # ascending
        pool = np.ones(len(rows), dtype=bool)
        for j in entities_on.get(scan_id, ()):
            order.append(j)
            entity = entities[j]
            live = rows[pool]
            verdicts, admissible = _link_criteria(entity, table, live, size_tol_mm, ordinal_tol)
            found = live[admissible].tolist()
            if not found:
                continue
            size = entity.size_mm  # no size or no diameter: an infinite gap
            best = min(found, key=lambda k: (
                -tiers[k], -scores[k],
                math.inf if size is None or diameters[k] != diameters[k]
                else abs(size - diameters[k]),
                ids[k]))
            pool[rows.searchsorted(best)] = False
            at = live.searchsorted(best)
            taken[j] = best
            criteria[j] = tuple((name, bool(ok[at])) for name, known, ok in verdicts if known[at])
        order.extend(~k for k in sorted(rows[pool].tolist(), key=ids.__getitem__))
    return EntityMatches(entities, table, taken, criteria, order)
