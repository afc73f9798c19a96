import dataclasses
import itertools
import json

import numpy as np
import pytest

from trifuse import domain
from trifuse.domain import WorldPoint
from trifuse.errors import ConfigError, InputError
from trifuse.reportlink import (
    LOBE_BY_LABEL,
    Grammar,
    LinkCandidate,
    LinkColumns,
    ReportEntity,
    default_grammar,
    extract_entities,
    is_admissible,
    load_grammar,
    lobe_of_candidate,
    match_entities,
)
from trifuse.volume import Volume

from oracles import _oracle_criteria_for, oracle_link_by_scan, oracle_match_entities


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

    def test_text_that_is_not_utf8_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "grammar.json"
        path.write_bytes(b'{"rules": [],\n "note": "caf\xe9"}\n')
        with pytest.raises(ConfigError) as err:
            load_grammar(path)
        assert str(err.value) == f"{path}:2: not UTF-8 text: cannot decode byte 0xe9"

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

    @pytest.mark.parametrize("rule, message", [
        ({"field": "size_mm", "pattern": r"(\d+) mm"},
         "grammar rule 1 for 'size_mm' has neither a (?P<value>...) group nor a fixed value"),
        ({"field": "lobe", "pattern": r"upper", "value": "RUM"},
         "grammar rule 1 has unknown lobe value 'RUM'"),
        ({"field": "size_mm", "pattern": r"(?P<value>\d+) cm", "scale": "x"},
         "grammar rule 1 has scale 'x'; it must be finite and positive"),
        ({"field": "size_mm", "pattern": r"(?P<value>\d+) cm", "scale": 0},
         "grammar rule 1 has scale 0.0; it must be finite and positive"),
        ({"field": "size_mm", "pattern": r"(?P<value>\d+) cm", "scale": "inf"},
         "grammar rule 1 has scale inf; it must be finite and positive"),
    ])
    def test_rule_checked_at_load(self, rule, message):
        with pytest.raises(ConfigError) as err:
            Grammar.from_spec([{"field": "mention", "pattern": "nodule"}, rule])
        assert str(err.value) == message

    @pytest.mark.parametrize("rule, message", [
        ({"field": "size_mm", "pattern": r"(?P<value>[a-z]+)?"},
         "grammar rule for 'size_mm' captured 'An', which is not a number"),
        ({"field": "size_mm", "pattern": r"(?P<value>[a-z]+)?\d"},
         "grammar rule for 'size_mm' captured no 'value' group"),
        ({"field": "ordinal:x", "pattern": r"(?P<value>right)"},
         "grammar rule for 'ordinal:x' captured 'right', which is not a number"),
        ({"field": "lobe", "pattern": r"(?P<value>right upper)"},
         "grammar rule for 'lobe' captured 'right upper', which is not a lobe"),
    ])
    def test_bad_capture_is_a_config_error(self, rule, message):
        grammar = Grammar.from_spec([{"field": "mention", "pattern": "nodule"}, rule])
        assert extract_entities("An 8 mm finding in the right upper lobe", grammar) == []
        with pytest.raises(ConfigError) as err:
            extract_entities("An 8 mm nodule in the right upper lobe", grammar)
        assert str(err.value) == message


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

    def test_lobe_labels_are_defined_once(self):
        assert LOBE_BY_LABEL is domain.LOBE_BY_LABEL
        assert domain.LUNG_LOBE_LABELS == frozenset({28, 29, 30, 31, 32})
        for lobe in LOBE_BY_LABEL.values():
            assert entity(lobe=lobe).lobe == lobe
        with pytest.raises(InputError, match="unknown lobe 'LML'"):
            entity(lobe="LML")


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


def random_link_instance(rng):
    """Entities and candidates on one or two scans with ties on tier, score,
    size gap and id, missing sizes, lobes, lateralities and ordinals."""
    scans = ["s1", "s2"][: 1 + int(rng.random() < 0.3)]
    lobes = [None, None, "RUL", "RML", "LLL", "LUL", "RLL"]
    names = ("subtlety", "malignancy")

    def ordinals():
        return tuple((name, int(rng.integers(1, 6))) for name in names if rng.random() < 0.4)

    entities = []
    for _ in range(int(rng.integers(0, 6))):
        lobe = lobes[int(rng.integers(len(lobes)))]
        entities.append(ReportEntity(
            report_id="r", scan_id=scans[int(rng.integers(len(scans)))], raw_span="x",
            size_mm=[None, 6.0, 8.0, 10.0][int(rng.integers(4))], lobe=lobe,
            laterality=None if lobe else [None, "left", "right"][int(rng.integers(3))],
            ordinals=ordinals(),
        ))
    ids = rng.permutation(12)[: int(rng.integers(0, 9))]
    candidates = [
        LinkCandidate(
            scan_id=scans[int(rng.integers(len(scans)))], candidate_id=f"c{i}",
            center=WorldPoint(0, 0, 0), tier=[1.0, 0.5, 0.2][int(rng.integers(3))],
            score=[0.3, 0.6][int(rng.integers(2))],
            diameter_mm=[None, 5.0, 7.0, 9.0, 11.0][int(rng.integers(5))],
            lobe=lobes[int(rng.integers(len(lobes)))], ordinals=ordinals(),
        )
        for i in ids
    ]
    return entities, candidates


class TestMatchAgainstOracle:
    """Column matching against the record loop it replaced."""

    def test_seeded_instances(self):
        rng = np.random.default_rng(63)
        matched = 0
        for _ in range(400):
            entities, candidates = random_link_instance(rng)
            for size_tol, ordinal_tol in ((3.0, 1), (2.0, 0), (0.0, 2)):
                try:
                    expected = oracle_link_by_scan(entities, candidates, size_tol, ordinal_tol)
                except InputError as err:
                    for given in (candidates, LinkColumns.of(candidates)):
                        with pytest.raises(InputError) as raised:
                            match_entities(entities, given, size_tol, ordinal_tol)
                        assert str(raised.value) == str(err)
                    continue
                for given in (candidates, LinkColumns.of(candidates)):
                    assert match_entities(entities, given, size_tol, ordinal_tol) == expected
                matched += sum(m.status == "matched" for m in expected)
        assert matched > 0

    def test_is_admissible_equals_the_oracle_rule(self):
        rng = np.random.default_rng(63)
        verdicts = set()
        for _ in range(400):
            entities, candidates = random_link_instance(rng)
            for size_tol, ordinal_tol in ((3.0, 1), (2.0, 0), (0.0, 2)):
                for e in entities:
                    for c in candidates:
                        expected = e.scan_id == c.scan_id and all(
                            ok for _, ok in _oracle_criteria_for(e, c, size_tol, ordinal_tol))
                        assert is_admissible(e, c, size_tol, ordinal_tol) == expected
                        verdicts.add(expected)
        assert verdicts == {False, True}

    def test_every_tie_break(self):
        e = entity(size=8.0)
        cases = (
            [link_cand("b", size=8.0, tier=0.5), link_cand("a", size=8.0, tier=1.0)],
            [link_cand("a", size=8.0, score=0.4), link_cand("b", size=8.0, score=0.7)],
            [link_cand("a", size=10.0), link_cand("b", size=9.0), link_cand("c")],
            [link_cand("b", size=6.0), link_cand("a", size=10.0)],
            [link_cand("b"), link_cand("a")],
        )
        for candidates in cases:
            expected = oracle_match_entities([e], candidates)
            assert match_entities([e], candidates) == expected
            assert match_entities([e], LinkColumns.of(candidates)) == expected

    def test_duplicate_ids_and_disjoint_scans(self):
        for entities, candidates, message in (
            ([entity()], [link_cand("c1"), link_cand("c2"), link_cand("c1")], "duplicate"),
            ([entity(scan="s1")], [link_cand("c1", scan="s2")], "share no scans"),
        ):
            with pytest.raises(InputError, match=message) as expected:
                oracle_match_entities(entities, candidates)
            with pytest.raises(InputError) as got:
                match_entities(entities, LinkColumns.of(candidates))
            assert str(got.value) == str(expected.value)

    def test_ids_repeat_across_scans_but_not_within_one(self):
        candidates = [link_cand("c1", scan="s1"), link_cand("c1", scan="s2")]
        assert [m.candidate_id for m in match_entities([], candidates)] == ["c1", "c1"]
        with pytest.raises(InputError, match="duplicate link candidate id 'c1'"):
            match_entities([], candidates + [link_cand("c1", scan="s2")])


def random_link_cohort(rng):
    """Candidates on up to five scans in shuffled row order, each scan's ids
    counting from F0000 as in fused lists, and entities on some of the
    reported scans; some reported scans have no candidates, some scans with
    candidates have no report."""
    entities, candidates = random_link_instance(rng)
    scans = [f"s{i}" for i in range(1, 6)]
    candidates = [
        LinkCandidate(scan_id=scan, candidate_id=f"F{k:04d}", center=c.center, tier=c.tier,
                      score=c.score, diameter_mm=c.diameter_mm, lobe=c.lobe, ordinals=c.ordinals)
        for scan in scans[: int(rng.integers(1, 5))]
        for k, c in enumerate(random_link_instance(rng)[1])
    ]
    candidates = [candidates[k] for k in rng.permutation(len(candidates))]
    reported = sorted(scan for scan in scans if rng.random() < 0.7)
    entities = [
        dataclasses.replace(e, scan_id=reported[int(rng.integers(len(reported)))])
        for _ in range(int(rng.integers(0, 3))) for e in random_link_instance(rng)[0]
    ] if reported else []
    return entities, candidates, reported


class TestCohortAgainstOracle:
    """One linkage call over a cohort against the loop over scans it replaced."""

    def test_seeded_cohorts(self):
        rng = np.random.default_rng(64)
        seen = {"matched": 0, "report_only": 0, "candidate_only": 0}
        for _ in range(300):
            entities, candidates, reported = random_link_cohort(rng)
            for size_tol, ordinal_tol in ((3.0, 1), (0.0, 0)):
                expected = oracle_link_by_scan(entities, candidates, size_tol, ordinal_tol,
                                               scans=reported)
                for given in (candidates, LinkColumns.of(candidates)):
                    got = match_entities(entities, given, size_tol, ordinal_tol, scans=reported)
                    assert got == expected
                    assert [got[i] for i in range(-len(got), len(got))] == expected * 2
                for m in expected:
                    seen[m.status] += 1
        assert min(seen.values()) > 0

    def test_every_tie_break_in_one_call(self):
        # the tie cases of TestMatchAgainstOracle, one scan each, rows interleaved
        cases = (
            [link_cand("b", size=8.0, tier=0.5), link_cand("a", size=8.0, tier=1.0)],
            [link_cand("a", size=8.0, score=0.4), link_cand("b", size=8.0, score=0.7)],
            [link_cand("a", size=10.0), link_cand("b", size=9.0), link_cand("c")],
            [link_cand("b", size=6.0), link_cand("a", size=10.0)],
            [link_cand("b"), link_cand("a")],
        )
        scans = [f"t{i}" for i in range(len(cases))]
        candidates = [dataclasses.replace(c, scan_id=scan)
                      for c, scan in zip(itertools.chain(*itertools.zip_longest(*cases)),
                                         itertools.cycle(scans)) if c is not None]
        # entities in reverse scan order; one reported scan holds no candidate
        entities = [entity(scan=scan, size=8.0) for scan in reversed(scans + ["t9"])]
        expected = oracle_link_by_scan(entities, candidates)
        assert [m.candidate_id for m in expected if m.status == "matched"] == [
            "a", "b", "b", "a", "a"]
        assert match_entities(entities, candidates) == expected
        assert match_entities(entities, LinkColumns.of(candidates)) == expected

    def test_reported_scans_without_candidates_need_no_shared_scan(self):
        entities = [entity(scan="s9", size=8.0)]
        candidates = [link_cand("F0000", scan="s1"), link_cand("F0000", scan="s2")]
        got = match_entities(entities, candidates, scans=["s1", "s9"])
        assert got == oracle_link_by_scan(entities, candidates, scans=["s1", "s9"])
        assert [(m.status, m.candidate_id) for m in got] == [
            ("candidate_only", "F0000"), ("report_only", None)]
        assert got.taken == [-1] and got.order == [~0, 0]
