import math

import numpy as np
import pytest

from trifuse.errors import InputError
from trifuse.readerstats import (
    cohens_d,
    consensus_category,
    detected_vs_missed_table,
    effect_size_label,
    mann_whitney_u,
    missed_overlap_table,
)

from conftest import ref
from oracles import (
    oracle_cohens_d,
    oracle_mw_exact_p,
    oracle_sorting_mann_whitney_u,
    oracle_u_statistic,
)


class TestConsensusCategory:
    @pytest.mark.parametrize(
        "reviewers,votes,expected",
        [
            (1, 1, "R1_1of1"),
            (2, 2, "R2_2of2"),
            (2, 1, "R2_1of2"),
            (3, 3, "R3_3of3"),
            (3, 2, "R3_2of3"),
            (3, 1, "Other"),
            (2, 0, "Other"),
            (4, 4, "Other"),
        ],
    )
    def test_mapping(self, reviewers, votes, expected):
        assert consensus_category(reviewers, votes) == expected

    def test_absent_votes(self):
        assert consensus_category(None, None) == "NoVotes"
        assert consensus_category(3, None) == "NoVotes"

    def test_votes_exceeding_reviewers_rejected(self):
        with pytest.raises(InputError):
            consensus_category(2, 3)


class TestEffectSizeLabel:
    @pytest.mark.parametrize(
        "d,label",
        [
            (0.0, "negligible"),
            (0.19, "negligible"),
            (0.2, "small"),
            (0.3, "small"),
            (-0.6, "medium"),
            (0.5, "medium"),
            (0.79, "medium"),
            (0.8, "large"),
            (0.9, "large"),
            (-3.0, "large"),
        ],
    )
    def test_bands(self, d, label):
        assert effect_size_label(d) == label

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            effect_size_label(math.inf)


class TestCohensD:
    def test_identical_samples(self):
        result = cohens_d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.d == 0.0
        assert result.label == "negligible"

    def test_hand_computed_case(self):
        result = cohens_d([2.0, 4.0], [1.0, 3.0])
        assert result.mean1 == 3.0 and result.mean2 == 2.0
        assert result.s_pooled == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert result.d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert result.label == "medium"

    def test_large_band(self):
        result = cohens_d([0.0, 0.0, 1.8], [-1.8, 0.0, 0.0])
        assert abs(result.d) >= 0.8
        assert result.label == "large"

    def test_zero_spread_unequal_means_is_infinite_flag(self):
        result = cohens_d([2.0, 2.0], [1.0, 1.0])
        assert result.infinite and result.d is None
        assert result.label == "large"

    def test_zero_spread_equal_means_is_zero(self):
        result = cohens_d([2.0, 2.0], [2.0, 2.0])
        assert result.d == 0.0 and not result.infinite

    def test_small_samples_rejected(self):
        with pytest.raises(InputError):
            cohens_d([1.0], [1.0, 2.0])

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            x = list(rng.normal(size=int(rng.integers(2, 10))))
            y = list(rng.normal(size=int(rng.integers(2, 10))))
            a = cohens_d(x, y)
            b = cohens_d(y, x)
            if a.infinite:
                assert b.infinite
            else:
                assert a.d == -b.d

    def test_affine_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            x = list(rng.normal(size=6))
            y = list(rng.normal(size=5))
            a = float(rng.uniform(0.1, 10))
            b = float(rng.uniform(-100, 100))
            base = cohens_d(x, y).d
            scaled = cohens_d([a * v + b for v in x], [a * v + b for v in y]).d
            assert abs(base - scaled) <= 1e-9 * max(abs(base), 1.0)

    def test_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = list(rng.normal(size=7))
            y = list(rng.normal(size=9))
            assert cohens_d(x, y).d == pytest.approx(oracle_cohens_d(x, y), abs=1e-12)


class TestMannWhitney:
    def test_single_tie_gives_half_u(self):
        result = mann_whitney_u([5.0], [5.0])
        assert result.u_statistic == 0.5
        assert result.method == "normal_approx"

    def test_two_vs_two_exact(self):
        result = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
        assert result.u_statistic == 0.0
        assert result.method == "exact"
        assert result.p_value == pytest.approx(2.0 / 6.0, abs=1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            mann_whitney_u([], [1.0])

    def test_u_sums_to_n1_n2_with_ties(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n1 = int(rng.integers(1, 12))
            n2 = int(rng.integers(1, 12))
            x = [float(v) for v in rng.integers(0, 4, size=n1)]
            y = [float(v) for v in rng.integers(0, 4, size=n2)]
            ux = mann_whitney_u(x, y).u_statistic
            uy = mann_whitney_u(y, x).u_statistic
            assert ux + uy == n1 * n2
            assert 0.0 <= ux <= n1 * n2

    def test_u_matches_pairwise_count(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            x = [float(v) for v in rng.integers(0, 6, size=int(rng.integers(1, 8)))]
            y = [float(v) for v in rng.integers(0, 6, size=int(rng.integers(1, 8)))]
            assert mann_whitney_u(x, y).u_statistic == oracle_u_statistic(x, y)

    def test_exact_p_matches_enumeration_for_small_tie_free(self):
        rng = np.random.default_rng(45)
        for n1, n2 in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (2, 8), (5, 5)]:
            for _ in range(3):
                values = rng.permutation(20)[: n1 + n2].astype(float)
                x, y = list(values[:n1]), list(values[n1:])
                result = mann_whitney_u(x, y)
                assert result.method == "exact"
                assert result.p_value == pytest.approx(oracle_mw_exact_p(x, y), abs=1e-12)

    def test_ties_force_normal_approximation(self):
        result = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0])
        assert result.method == "normal_approx"
        with pytest.raises(InputError):
            mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0], method="exact")

    def test_large_samples_use_approximation(self):
        x = [float(v) for v in range(13)]
        y = [float(v) + 0.5 for v in range(13)]
        assert mann_whitney_u(x, y).method == "normal_approx"

    def test_approximation_close_to_exact(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            values = rng.permutation(1000)[:10].astype(float)
            x, y = list(values[:5]), list(values[5:])
            exact = mann_whitney_u(x, y, method="exact").p_value
            approx = mann_whitney_u(x, y, method="normal").p_value
            assert abs(exact - approx) < 0.05

    def test_one_sort_equals_the_three_sort_test(self):
        # few distinct values make long tie runs; the cases span the exact and
        # the normal paths, forced and chosen, and cohort-sized samples
        rng = np.random.default_rng(48)
        sizes = [(1, 1), (2, 3), (5, 7), (6, 6), (13, 2), (40, 55), (1800, 1800)]
        for n1, n2 in sizes:
            for distinct in (3, 50, None):
                draw = ((lambda n: rng.integers(0, distinct, size=n) / 2.0) if distinct
                        else (lambda n: rng.normal(size=n)))
                x, y = [float(v) for v in draw(n1)], [float(v) for v in draw(n2)]
                for method in ("auto", "normal", "exact"):
                    if method == "exact" and n1 + n2 > 12:
                        continue
                    try:
                        want = oracle_sorting_mann_whitney_u(x, y, method)
                    except InputError:
                        with pytest.raises(InputError, match="tied samples"):
                            mann_whitney_u(x, y, method)
                        continue
                    got = mann_whitney_u(x, y, method)
                    assert (got.u_statistic, got.p_value, got.method) == want
                    if n1 * n2 <= 400:
                        assert got.u_statistic == oracle_u_statistic(x, y)
                    if got.method == "exact":
                        assert got.p_value == pytest.approx(oracle_mw_exact_p(x, y), abs=1e-12)

    def test_p_value_within_unit_interval(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            x = [float(v) for v in rng.normal(size=int(rng.integers(1, 30)))]
            y = [float(v) for v in rng.normal(size=int(rng.integers(1, 30)))]
            assert 0.0 <= mann_whitney_u(x, y).p_value <= 1.0


def rated_reference(scan, nid, detected_value, subtlety, malignancy=None, diameter=6.0):
    from trifuse.domain import SemanticRatings

    return ref(
        scan,
        nid,
        0,
        0,
        0,
        diameter,
        ratings=SemanticRatings(
            subtlety=subtlety, malignancy=malignancy, diameter_rad_mm=diameter
        ),
    )


class TestDetectedVsMissed:
    def build(self, n_detected=6, n_missed=4, gap=1.0):
        references = []
        detected = set()
        rng = np.random.default_rng(48)
        for i in range(n_detected + n_missed):
            is_detected = i < n_detected
            base = 3.0 + (gap if is_detected else 0.0)
            subtlety = int(np.clip(round(base + rng.integers(-1, 2)), 1, 5))
            r = rated_reference("s", f"n{i}", is_detected, subtlety)
            references.append(r)
            if is_detected:
                detected.add(r.key)
        return references, detected

    def test_all_detected_yields_empty_table_with_diagnostics(self):
        references, detected = self.build(n_detected=5, n_missed=0)
        table = detected_vs_missed_table({"M": detected}, references)
        assert table.rows == ()
        assert table.diagnostics

    def test_pooling_doubles_counts(self):
        references, detected = self.build()
        single = detected_vs_missed_table({"M1": detected}, references)
        pooled = detected_vs_missed_table({"M1": detected, "M2": detected}, references)
        row_single = {r.characteristic: r for r in single.rows}["subtlety"]
        row_pooled = {r.characteristic: r for r in pooled.rows}["subtlety"]
        assert row_pooled.n_detected == 2 * row_single.n_detected
        assert row_pooled.n_missed == 2 * row_single.n_missed

    def test_planted_gap_reproduced_by_oracle(self):
        references = []
        detected = set()
        detected_vals = [4.0, 5.0, 4.0, 5.0, 4.0, 5.0]
        missed_vals = [3.0, 4.0, 3.0, 4.0, 3.0, 4.0]
        for i, v in enumerate(detected_vals):
            r = rated_reference("s", f"d{i}", True, int(v))
            references.append(r)
            detected.add(r.key)
        for i, v in enumerate(missed_vals):
            references.append(rated_reference("s", f"m{i}", False, int(v)))
        table = detected_vs_missed_table({"M": detected}, references)
        row = {r.characteristic: r for r in table.rows}["subtlety"]
        assert row.mean_diff == pytest.approx(1.0, abs=1e-12)
        assert row.d == pytest.approx(oracle_cohens_d(detected_vals, missed_vals), abs=1e-12)

    def test_bonferroni_threshold_for_eight_tests(self):
        rng = np.random.default_rng(49)
        from trifuse.domain import SemanticRatings

        references, detected = [], set()
        for i in range(30):
            is_detected = i < 18
            ratings = SemanticRatings(
                subtlety=int(rng.integers(1, 6)),
                malignancy=int(rng.integers(0, 6)),
                texture=int(rng.integers(1, 6)),
                spiculation=int(rng.integers(1, 6)),
                lobulation=int(rng.integers(1, 5)),
                margin=int(rng.integers(1, 6)),
                sphericity=int(rng.integers(1, 6)),
                diameter_rad_mm=float(rng.uniform(3, 25)),
            )
            r = ref("s", f"n{i}", 0, 0, 0, 6.0, ratings=ratings)
            references.append(r)
            if is_detected:
                detected.add(r.key)
        table = detected_vs_missed_table({"M": detected}, references)
        assert table.k_tests == 8
        assert table.alpha_star == pytest.approx(0.00625, abs=1e-15)
        for row in table.rows:
            assert row.significant_after_bonferroni == (row.p_value < 0.00625)

    def test_per_model_ranked_by_effect_magnitude(self):
        references, detected = self.build()
        tables = detected_vs_missed_table(
            {"M1": detected, "M2": set(list(detected)[:3])}, references, pooled=False
        )
        assert set(tables) == {"M1", "M2"}
        for table in tables.values():
            magnitudes = [abs(r.d) for r in table.rows if not r.d_infinite]
            assert magnitudes == sorted(magnitudes, reverse=True)


class TestMissedOverlap:
    def refs(self):
        return [
            ref("s", "n1", 0, 0, 0, 4.0),
            ref("s", "n2", 20, 0, 0, 6.0),
            ref("s", "n3", 40, 0, 0, 8.0),
            ref("s", "n4", 60, 0, 0, 10.0),
            ref("s", "n5", 80, 0, 0, 12.0),
        ]

    def test_shared_single_miss(self):
        rows = missed_overlap_table(
            {"A": {("s", "n1")}, "B": {("s", "n1")}}, self.refs()
        )
        table = {r.category: r for r in rows}
        assert table["missed_by_all"].count == 1
        assert table["only_A"].count == 0
        assert table["only_B"].count == 0
        assert table["missed_by_all"].median_diameter == 4.0

    def test_disjoint_misses(self):
        rows = missed_overlap_table(
            {"A": {("s", "n1")}, "B": {("s", "n2")}}, self.refs()
        )
        table = {r.category: r for r in rows}
        assert table["missed_by_all"].count == 0
        assert table["only_A"].count == 1
        assert table["only_B"].count == 1

    def test_diameter_summaries_by_hand(self):
        missed_a = {("s", "n1"), ("s", "n2"), ("s", "n3"), ("s", "n4"), ("s", "n5")}
        missed_b = {("s", "n2"), ("s", "n4")}
        rows = missed_overlap_table({"A": missed_a, "B": missed_b}, self.refs())
        table = {r.category: r for r in rows}
        # missed by all = {n2, n4}: diameters 6, 10
        assert table["missed_by_all"].count == 2
        assert table["missed_by_all"].mean_diameter == 8.0
        assert table["missed_by_all"].median_diameter == 8.0
        assert table["missed_by_all"].min_diameter == 6.0
        assert table["missed_by_all"].max_diameter == 10.0
        # unique to A = {n1, n3, n5}: diameters 4, 8, 12
        assert table["only_A"].count == 3
        assert table["only_A"].median_diameter == 8.0
        assert table["only_A"].pct == pytest.approx(100.0 * 3 / 5)
        assert table["only_B"].count == 0
        assert table["only_B"].mean_diameter is None

    def test_needs_two_models(self):
        with pytest.raises(InputError):
            missed_overlap_table({"A": set()}, self.refs())

    def test_unknown_reference_rejected(self):
        with pytest.raises(InputError):
            missed_overlap_table(
                {"A": {("s", "zzz")}, "B": set()}, self.refs()
            )
