import json

import numpy as np
import pytest

from trifuse.domain import WorldPoint
from trifuse.errors import ConfigError, InputError
from trifuse.reportlink import (
    LinkCandidate,
    ReportEntity,
    default_grammar,
    extract_entities,
    is_admissible,
    load_grammar,
    lobe_of_candidate,
    match_entities,
)
from trifuse.volume import Volume


class TestExtraction:
    def test_full_sentence(self):
        (entity,) = extract_entities("8 mm nodule in the right upper lobe, Lung-RADS 3")
        assert entity.size_mm == 8.0
        assert entity.lobe == "RUL"
        assert entity.laterality == "right"
        assert entity.lungrads == "3"

    def test_empty_text(self):
        assert extract_entities("") == []

    def test_cm_converted_to_mm(self):
        (entity,) = extract_entities("1.2 cm nodule left lower lobe")
        assert entity.size_mm == pytest.approx(12.0)
        assert entity.lobe == "LLL"
        assert entity.laterality == "left"

    def test_sentence_without_mention_yields_nothing(self):
        assert extract_entities("The heart is 12 mm enlarged on the left") == []

    def test_mention_without_descriptors_yields_nothing(self):
        assert extract_entities("There is a nodule") == []

    def test_one_entity_per_sentence(self):
        entities = extract_entities(
            "5 mm nodule in the left upper lobe. 9 mm nodule in the right lower lobe."
        )
        assert len(entities) == 2
        assert entities[0].lobe == "LUL" and entities[1].lobe == "RLL"

    def test_ordinal_capture(self):
        (entity,) = extract_entities("nodule with subtlety 4 and spiculation 2")
        assert entity.ordinal_map() == {"subtlety": 4, "spiculation": 2}

    def test_lungrads_subcategories(self):
        (entity,) = extract_entities("nodule, Lung-RADS 4B")
        assert entity.lungrads == "4B"
        (entity,) = extract_entities("nodule, lungrads 4x")
        assert entity.lungrads == "4X"

    def test_deterministic_and_idempotent_on_raw_span(self):
        rng = np.random.default_rng(60)
        texts = [
            "8 mm nodule in the right upper lobe, Lung-RADS 3",
            "1.2 cm nodule left lower lobe; 4 mm opacity right middle lobe",
            "granuloma 3mm in the left upper lobe with subtlety 2",
        ]
        for text in texts:
            first = extract_entities(text, report_id="r", scan_id="s")
            again = extract_entities(text, report_id="r", scan_id="s")
            assert first == again
            for entity in first:
                (re_extracted,) = extract_entities(
                    entity.raw_span, report_id="r", scan_id="s"
                )
                assert re_extracted == entity

    def test_laterality_from_word_when_no_lobe(self):
        (entity,) = extract_entities("7 mm nodule in the left lung")
        assert entity.lobe is None
        assert entity.laterality == "left"


class TestGrammarFiles:
    def test_user_grammar_overrides(self, tmp_path):
        grammar_path = tmp_path / "grammar.json"
        grammar_path.write_text(
            json.dumps(
                {
                    "rules": [
                        {"field": "mention", "pattern": r"\bnodulo\b"},
                        {"field": "size_mm", "pattern": r"(?P<value>\d+)\s*mm"},
                    ]
                }
            )
        )
        grammar = load_grammar(grammar_path)
        (entity,) = extract_entities("nodulo de 9 mm", grammar)
        assert entity.size_mm == 9.0
        assert extract_entities("nodule of 9 mm", grammar) == []

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_grammar(path)

    def test_missing_rules_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"patterns": []}))
        with pytest.raises(ConfigError):
            load_grammar(path)

    def test_bad_pattern_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rules": [{"field": "lobe", "pattern": "(((", "value": "RUL"}]}))
        with pytest.raises(ConfigError):
            load_grammar(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rules": [{"field": "flavor", "pattern": "x"}]}))
        with pytest.raises(ConfigError):
            load_grammar(path)


class FakeCandidate:
    def __init__(self, center):
        self.center = center


class TestLobeOfCandidate:
    def mask(self):
        values = np.zeros((6, 6, 6), dtype=np.uint8)
        values[0, 0, 0] = 28
        values[1, 0, 0] = 29
        values[2, 0, 0] = 30
        values[3, 0, 0] = 31
        values[4, 0, 0] = 32
        values[5, 0, 0] = 99
        return Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(0, 0, 0))

    @pytest.mark.parametrize(
        "x,expected",
        [(0, "LUL"), (1, "LLL"), (2, "RUL"), (3, "RML"), (4, "RLL")],
    )
    def test_label_map(self, x, expected):
        assert lobe_of_candidate(FakeCandidate(WorldPoint(x, 0, 0)), self.mask()) == expected

    def test_background_and_non_lung(self):
        assert lobe_of_candidate(FakeCandidate(WorldPoint(0, 3, 3)), self.mask()) is None
        assert lobe_of_candidate(FakeCandidate(WorldPoint(5, 0, 0)), self.mask()) is None

    def test_outside_volume(self):
        assert lobe_of_candidate(FakeCandidate(WorldPoint(-50, 0, 0)), self.mask()) is None


def entity(scan="s", size=None, lobe=None, laterality=None, ordinals=(), report="r"):
    return ReportEntity(
        report_id=report,
        scan_id=scan,
        raw_span="x",
        size_mm=size,
        lobe=lobe,
        laterality=laterality if lobe is None else None,
        ordinals=tuple(sorted(ordinals)),
    )


def link_cand(cid, scan="s", size=None, lobe=None, tier=1.0, score=0.5, ordinals=()):
    return LinkCandidate(
        scan_id=scan,
        candidate_id=cid,
        center=WorldPoint(0, 0, 0),
        tier=tier,
        score=score,
        diameter_mm=size,
        lobe=lobe,
        ordinals=tuple(sorted(ordinals)),
    )


class TestMatchEntities:
    def test_size_within_tolerance_matches(self):
        (match,) = match_entities(
            [entity(size=8.0, lobe="RUL")], [link_cand("c1", size=10.0, lobe="RUL")]
        )
        assert match.status == "matched"
        assert match.candidate_id == "c1"
        assert dict(match.criteria) == {"lobe": True, "size": True}

    def test_size_beyond_tolerance_is_report_only(self):
        matches = match_entities(
            [entity(size=8.0, lobe="RUL")], [link_cand("c1", size=12.0, lobe="RUL")]
        )
        statuses = {m.status for m in matches}
        assert statuses == {"report_only", "candidate_only"}

    def test_size_boundary_inclusive(self):
        (match,) = match_entities([entity(size=8.0)], [link_cand("c1", size=11.0)])
        assert match.status == "matched"
        matches = match_entities([entity(size=8.0)], [link_cand("c1", size=11.01)])
        assert all(m.status != "matched" for m in matches)

    def test_ordinal_boundary(self):
        one_level = match_entities(
            [entity(ordinals=(("subtlety", 3),))],
            [link_cand("c1", ordinals=(("subtlety", 4),))],
        )
        assert one_level[0].status == "matched"
        two_levels = match_entities(
            [entity(ordinals=(("subtlety", 3),))],
            [link_cand("c1", ordinals=(("subtlety", 5),))],
        )
        assert all(m.status != "matched" for m in two_levels)

    def test_laterality_used_when_lobe_unknown(self):
        (match,) = match_entities(
            [entity(laterality="right")], [link_cand("c1", lobe="RML")]
        )
        assert match.status == "matched"
        matches = match_entities(
            [entity(laterality="left")], [link_cand("c1", lobe="RML")]
        )
        assert all(m.status != "matched" for m in matches)

    def test_tier_breaks_ties(self):
        matches = match_entities(
            [entity(size=8.0)],
            [
                link_cand("low", size=8.0, tier=0.2, score=0.9),
                link_cand("high", size=8.0, tier=1.0, score=0.1),
            ],
        )
        matched = [m for m in matches if m.status == "matched"]
        assert matched[0].candidate_id == "high"

    def test_score_breaks_ties_within_tier(self):
        matches = match_entities(
            [entity(size=8.0)],
            [
                link_cand("a", size=8.0, tier=0.5, score=0.4),
                link_cand("b", size=8.0, tier=0.5, score=0.7),
            ],
        )
        matched = [m for m in matches if m.status == "matched"]
        assert matched[0].candidate_id == "b"

    def test_size_gap_breaks_remaining_ties(self):
        matches = match_entities(
            [entity(size=8.0)],
            [
                link_cand("far", size=10.5, tier=0.5, score=0.5),
                link_cand("near", size=8.5, tier=0.5, score=0.5),
            ],
        )
        matched = [m for m in matches if m.status == "matched"]
        assert matched[0].candidate_id == "near"

    def test_unmatched_candidates_reported(self):
        matches = match_entities([], [link_cand("c1"), link_cand("c2")])
        assert {m.candidate_id for m in matches} == {"c1", "c2"}
        assert {m.status for m in matches} == {"candidate_only"}

    def test_scan_mismatch_rejected(self):
        with pytest.raises(InputError):
            match_entities([entity(scan="s1")], [link_cand("c1", scan="s2")])

    def test_partial_injection_on_random_instances(self):
        rng = np.random.default_rng(61)
        lobes = ["RUL", "RML", "RLL", "LUL", "LLL", None]
        for _ in range(500):
            n_entities = int(rng.integers(0, 6))
            n_candidates = int(rng.integers(0, 6))
            entities = [
                entity(
                    size=float(rng.uniform(3, 20)) if rng.random() < 0.7 else None,
                    lobe=lobes[rng.integers(0, 6)],
                )
                for _ in range(n_entities)
            ]
            candidates = [
                link_cand(
                    f"c{i}",
                    size=float(rng.uniform(3, 20)) if rng.random() < 0.7 else None,
                    lobe=lobes[rng.integers(0, 6)],
                    tier=[1.0, 0.5, 0.2][rng.integers(0, 3)],
                    score=float(rng.uniform(0, 1)),
                )
                for i in range(n_candidates)
            ]
            matches = match_entities(entities, candidates)
            matched_candidates = [m.candidate_id for m in matches if m.status == "matched"]
            assert len(matched_candidates) == len(set(matched_candidates))
            entity_rows = [m for m in matches if m.entity is not None]
            assert len(entity_rows) == n_entities
            assert len(matches) == n_entities + (n_candidates - len(matched_candidates))
            for m in matches:
                if m.status == "matched":
                    assert all(ok for _, ok in m.criteria)

    def test_shrinking_tolerance_never_adds_admissible_pairs(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            e = entity(size=float(rng.uniform(3, 20)))
            c = link_cand("c1", size=float(rng.uniform(3, 20)))
            if is_admissible(e, c, size_tol_mm=2.0):
                assert is_admissible(e, c, size_tol_mm=3.0)
                assert is_admissible(e, c, size_tol_mm=10.0)
