import math

import numpy as np
import pytest

from trifuse.domain import (
    CandidateDetection,
    PipelineConfig,
    ReferenceNodule,
    SemanticRatings,
    WorldPoint,
    is_hit,
    match_tolerance,
)
from trifuse.errors import InputError

from conftest import cand, ref


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
