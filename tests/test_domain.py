import math

import numpy as np
import pytest

from trifuse.domain import (
    CandidateDetection,
    CandidateTable,
    PipelineConfig,
    ReferenceNodule,
    SemanticRatings,
    WorldPoint,
    is_hit,
    match_tolerance,
    median,
    percentiles,
)
from trifuse.errors import InputError

from conftest import cand, ref
from oracles import oracle_median, oracle_percentiles


class TestMatchTolerance:
    def test_half_diameter_below_cap(self):
        assert match_tolerance(8.0) == 4.0

    def test_capped_above_10mm(self):
        assert match_tolerance(20.0) == 5.0

    def test_boundary_diameter(self):
        # both branches coincide at 10 mm
        assert match_tolerance(10.0) == 5.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, "x", None])
    def test_rejects_bad_diameters(self, bad):
        with pytest.raises(InputError):
            match_tolerance(bad)

    def test_monotone_and_capped(self):
        rng = np.random.default_rng(1)
        diameters = np.sort(rng.uniform(0.1, 60.0, size=200))
        tolerances = [match_tolerance(float(d)) for d in diameters]
        assert all(b >= a for a, b in zip(tolerances, tolerances[1:]))
        assert all(t <= 5.0 for t in tolerances)


class TestIsHit:
    def test_zero_distance_any_diameter(self):
        for d in (0.5, 3.0, 10.0, 40.0):
            assert is_hit(cand("s", "c", 1, 2, 3, 0.5), ref("s", "n", 1, 2, 3, d))

    def test_offset_inside_tolerance(self):
        assert is_hit(cand("s", "c", 13, 10, 10, 0.5), ref("s", "n", 10, 10, 10, 8.0))

    def test_offset_outside_tolerance(self):
        assert not is_hit(cand("s", "c", 15, 10, 10, 0.5), ref("s", "n", 10, 10, 10, 8.0))

    def test_boundary_is_inclusive(self):
        assert is_hit(cand("s", "c", 14, 10, 10, 0.5), ref("s", "n", 10, 10, 10, 8.0))

    def test_scan_mismatch_raises(self):
        with pytest.raises(InputError):
            is_hit(cand("s1", "c", 0, 0, 0, 0.5), ref("s2", "n", 0, 0, 0, 8.0))

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cx, cy, cz = rng.uniform(-50, 50, size=3)
            ox, oy, oz = rng.uniform(-20, 20, size=3)
            d = float(rng.uniform(1, 30))
            tx, ty, tz = rng.uniform(-500, 500, size=3)
            base = is_hit(
                cand("s", "c", cx + ox, cy + oy, cz + oz, 0.5), ref("s", "n", cx, cy, cz, d)
            )
            moved = is_hit(
                cand("s", "c", cx + ox + tx, cy + oy + ty, cz + oz + tz, 0.5),
                ref("s", "n", cx + tx, cy + ty, cz + tz, d),
            )
            assert base == moved

    def test_overflowing_distance_is_inf_and_never_hits(self):
        c = cand("s", "c", 1e200, 0, 0, 0.5)
        r = ref("s", "n", -1e200, 0, 0, 8.0)
        assert c.center.distance_to(r.center) == math.inf
        assert not is_hit(c, r)

    def test_hit_implies_distance_at_most_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = cand("s", "c", *rng.uniform(-10, 10, size=3), 0.5)
            r = ref("s", "n", *rng.uniform(-10, 10, size=3), float(rng.uniform(0.5, 50)))
            if is_hit(c, r):
                assert c.center.distance_to(r.center) <= 5.0


class TestRecords:
    def test_world_point_rejects_non_finite(self):
        with pytest.raises(InputError):
            WorldPoint(0.0, math.nan, 0.0)
        with pytest.raises(InputError):
            WorldPoint(math.inf, 0.0, 0.0)

    def test_candidate_score_range(self):
        with pytest.raises(InputError):
            cand("s", "c", 0, 0, 0, 1.5)
        with pytest.raises(InputError):
            cand("s", "c", 0, 0, 0, -0.1)

    def test_candidate_diameter_positive(self):
        with pytest.raises(InputError):
            cand("s", "c", 0, 0, 0, 0.5, diameter=0.0)

    def test_votes_cannot_exceed_reviewers(self):
        with pytest.raises(InputError):
            ref("s", "n", 0, 0, 0, 5.0, reviewers=2, positive_votes=3)

    def test_votes_need_reviewers(self):
        with pytest.raises(InputError):
            ref("s", "n", 0, 0, 0, 5.0, positive_votes=1)

    def test_lungrads_domain(self):
        ref("s", "n", 0, 0, 0, 5.0, lungrads="4A")
        with pytest.raises(InputError):
            ref("s", "n", 0, 0, 0, 5.0, lungrads="5")

    def test_diagnosis_domain(self):
        with pytest.raises(InputError):
            ref("s", "n", 0, 0, 0, 5.0, diagnosis="malignant")

    def test_rating_ranges(self):
        SemanticRatings(subtlety=5, lobulation=4, malignancy=0)
        with pytest.raises(InputError):
            SemanticRatings(subtlety=6)
        with pytest.raises(InputError):
            SemanticRatings(lobulation=5)

    def test_config_validation(self):
        cfg = PipelineConfig()
        assert cfg.tau_cadx == 0.10
        assert cfg.tau_cade == 0.20
        assert cfg.lung_labels == frozenset({28, 29, 30, 31, 32})
        with pytest.raises(InputError):
            PipelineConfig(tau_cadx=1.5)
        with pytest.raises(InputError):
            PipelineConfig(lung_labels=frozenset())
        with pytest.raises(InputError):
            PipelineConfig(consensus_radius_policy="nearest")


def fused_table():
    """A fused-list table of four rows on two scans, one without a diameter
    and one with a ``cadx_avg``."""
    return CandidateTable(
        ["s1", "s1", "s2", "s2"], ["f1", "f2", "f1", "f2"], ["FUSED"] * 4,
        np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0], [9.0, 10.0, 11.0]]),
        np.array([6.0, math.nan, 12.0, 4.5]), np.array([0.9, 0.4, 0.7, 0.3]),
        np.array([1.0, 0.5, 1.0, 0.2]),
        ["consensus", "cadx_promoted", "consensus", "cade_refined"],
        np.array([math.nan, 0.35, math.nan, math.nan]),
        [("CADE_A:a1", "CADE_B:b1"), ("CADE_A:a2",), ("CADE_A:a1", "CADE_B:b4", "CADE_B:b5"),
         ("CADE_B:b2",)],
    )


class TestCandidateTableTake:
    def test_rows_in_the_given_order(self):
        table = CandidateTable.from_records(
            [cand("s", f"c{k}", k, 0, 0, k / 10, model="CADE_A") for k in range(5)])
        taken = table.take([3, 0, 4])
        assert taken.candidate_id == ["c3", "c0", "c4"]
        assert taken.xyz[:, 0].tolist() == [3.0, 0.0, 4.0]
        assert taken == table.records([3, 0, 4]) == [table[3], table[0], table[4]]

    def test_empty_index(self):
        taken = fused_table().take([])
        assert len(taken) == 0 and taken == []
        assert taken.xyz.shape == (0, 3)
        assert taken.stage == [] and taken.tier.size == 0

    def test_fused_columns_are_kept(self):
        table = fused_table()
        taken = table.take(np.array([3, 1, 2]))
        assert taken.tier.tolist() == [0.2, 0.5, 1.0]
        assert taken.stage == ["cade_refined", "cadx_promoted", "consensus"]
        assert taken.cadx_avg[1] == 0.35 and math.isnan(taken.cadx_avg[0])
        assert taken.provenance == [("CADE_B:b2",), ("CADE_A:a2",),
                                    ("CADE_A:a1", "CADE_B:b4", "CADE_B:b5")]
        assert taken == table.records([3, 1, 2])
        assert taken[0].provenance == ("CADE_B:b2",)

    def test_cached_qualified_ids_are_carried(self):
        table = CandidateTable.from_records(
            [cand("s", "a1", 0, 0, 0, 0.5, model="CADE_A"),
             cand("s", "b1", 0, 0, 0, 0.5, model="CADE_B")])
        assert table.take([1])._qualified_id is None
        assert table.qualified_id == ["CADE_A:a1", "CADE_B:b1"]
        taken = table.take([1, 0])
        assert taken._qualified_id == ["CADE_B:b1", "CADE_A:a1"]
        assert taken.qualified_id == [c.qualified_id for c in taken]

    def test_records_with_a_repeated_key_are_rejected(self):
        twice = [cand("s", "a1", 0, 0, 0, 0.5, model="CADE_A"),
                 cand("s", "a1", 50, 0, 0, 0.5, model="CADE_A")]
        with pytest.raises(InputError, match="duplicate candidate 'a1' for model 'CADE_A'"):
            CandidateTable.from_records(twice)

class TestTakeJoined:
    """Rows of two tables as if joined, taken from each without joining them."""

    @pytest.mark.parametrize("rows", [[5, 0, 3, 6, 1], [2, 1, 0], [7, 4], []])
    def test_rows_of_both_tables_in_the_given_order(self, rows):
        a = CandidateTable.from_records(
            [cand("s", f"a{k}", k, 0, 0, k / 10, model="CADE_A", diameter=k + 1.0)
             for k in range(3)])
        b = CandidateTable.from_records(
            [cand("t", f"b{k}", 0, k, 0, k / 10, model="CADE_B") for k in range(5)])
        taken = CandidateTable.take_joined(a, b, np.array(rows, dtype=np.intp))
        assert taken == [(list(a) + list(b))[i] for i in rows]
        assert taken.source_rows.tolist() == rows
        assert taken.xyz.shape == (len(rows), 3) and taken.tier is None

    def test_fused_columns(self):
        a, b = fused_table(), fused_table().take([3, 2])
        taken = CandidateTable.take_joined(a, b, np.array([5, 1, 4]))
        assert taken.provenance == [("CADE_A:a1", "CADE_B:b4", "CADE_B:b5"), ("CADE_A:a2",),
                                    ("CADE_B:b2",)]
        assert taken.stage == ["consensus", "cadx_promoted", "cade_refined"]
        assert taken == a.records([2, 1, 3])

    def test_equal_length_provenance_tuples_stay_tuples(self):
        a = fused_table()
        a.provenance = [("CADE_A:a1",), ("CADE_A:a2",), ("CADE_B:b4",), ("CADE_B:b2",)]
        taken = CandidateTable.take_joined(a, a.take([0]), np.array([4, 2]))
        assert taken.provenance == [("CADE_A:a1",), ("CADE_B:b4",)]


class TestOrderStatisticsAgainstNumpy:
    """``median`` and ``percentiles`` give numpy's values bit for bit."""

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("values", [[0.3], [0.7, 0.2], [0.5, 0.1, 0.9], [0.4, 0.4],
                                        [0.2, 0.6, 0.6, 0.6, 0.1], [1.0, 1.0, 0.0]])
    def test_small_samples_and_ties(self, values):
        assert self.bits([median(values)]) == self.bits([oracle_median(values)])
        for q in ([2.5, 97.5], [0.0, 50.0, 100.0], [33.3, 66.7]):
            assert self.bits(percentiles(values, q)) == self.bits(oracle_percentiles(values, q))

    def test_random_samples(self):
        rng = np.random.default_rng(27)
        for trial in range(2000):
            n = int(rng.integers(1, 60))
            if trial % 2:
                values = rng.integers(0, 5, n) / 4.0  # many ties
            else:
                values = rng.uniform(-1.0, 1.0, n) * 10.0 ** int(rng.integers(-3, 4))
            q = [2.5, 97.5] if trial % 3 == 0 else rng.uniform(0.0, 100.0, 4).tolist()
            values = values.tolist()
            assert self.bits([median(values)]) == self.bits([oracle_median(values)])
            assert self.bits(percentiles(values, q)) == self.bits(oracle_percentiles(values, q))
