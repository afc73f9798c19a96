import numpy as np
import pytest

from trifuse.errors import InputError
from trifuse.froc import (
    DLCS_SIZE_BINS,
    FP_RATES,
    BootstrapCI,
    FrocCurve,
    IMD_SIZE_BINS,
    LesionMatchResult,
    ScanMatch,
    TruePositive,
    _bootstrap_intervals,
    bootstrap_ci,
    cpm,
    detection_probability_summary,
    evaluate,
    froc_curve,
    match_lesions,
    stratified_eval,
)

from conftest import (
    CPM_FIXTURE_CPM,
    CPM_FIXTURE_SENSITIVITIES,
    cand,
    cpm_fixture,
    cpm_fixture_tuples,
    ref,
)
from oracles import (
    balls_disjoint,
    oracle_bootstrap,
    oracle_froc,
    oracle_froc_sensitivities,
    oracle_match,
    oracle_max_matching,
)


class TestMatchLesions:
    def test_no_candidates_all_fn(self):
        refs = [ref("s", "n1", 0, 0, 0, 6.0), ref("s", "n2", 30, 0, 0, 6.0)]
        result = match_lesions([], refs)
        assert result.n_detected == 0
        assert result.scans[0].fn == ("n1", "n2")
        assert result.n_candidates == 0

    def test_exact_hit(self):
        result = match_lesions(
            [cand("s", "c1", 0, 0, 0, 0.9)], [ref("s", "n1", 0, 0, 0, 6.0)]
        )
        assert result.n_detected == 1
        assert result.scans[0].fp == ()
        assert result.scans[0].fn == ()

    def test_one_to_one_higher_score_wins(self):
        result = match_lesions(
            [cand("s", "c1", 1, 0, 0, 0.9), cand("s", "c2", 0, 1, 0, 0.8)],
            [ref("s", "n1", 0, 0, 0, 8.0)],
        )
        tp = result.scans[0].tp
        assert len(tp) == 1 and tp[0].candidate_id == "c1"
        assert result.scans[0].fp == (("c2", 0.8),)

    def test_candidate_takes_nearest_reference(self):
        # hits both (distances 3 and 2); the nearer one wins
        result = match_lesions(
            [cand("s", "c1", 3, 0, 0, 0.9)],
            [ref("s", "n1", 0, 0, 0, 8.0), ref("s", "n2", 5, 0, 0, 8.0)],
        )
        assert result.scans[0].tp[0].nodule_id == "n2"

    def test_duplicate_nodule_id_rejected(self):
        with pytest.raises(InputError):
            match_lesions([], [ref("s", "n1", 0, 0, 0, 6.0), ref("s", "n1", 9, 9, 9, 6.0)])

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(InputError):
            match_lesions(
                [cand("s", "c1", 0, 0, 0, 0.9), cand("s", "c1", 1, 1, 1, 0.8)],
                [ref("s", "n1", 0, 0, 0, 6.0)],
            )

    def test_input_order_invariance(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            cands = [
                cand("s", f"c{i}", *rng.uniform(0, 30, size=3), float(rng.uniform(0, 1)))
                for i in range(int(rng.integers(0, 7)))
            ]
            refs = [
                ref("s", f"n{i}", *rng.uniform(0, 30, size=3), float(rng.uniform(2, 20)))
                for i in range(int(rng.integers(0, 7)))
            ]
            base = match_lesions(cands, refs)
            perm = list(cands)
            rng.shuffle(perm)
            assert match_lesions(perm, refs) == base


class TestMatchingProperties:
    def random_instance(self, rng):
        cands = [
            (f"c{i}", tuple(rng.uniform(0, 40, size=3)), float(rng.uniform(0, 1)))
            for i in range(int(rng.integers(0, 7)))
        ]
        refs = [
            (f"n{i}", tuple(rng.uniform(0, 40, size=3)), float(rng.uniform(1, 25)))
            for i in range(int(rng.integers(0, 7)))
        ]
        return cands, refs

    def to_domain(self, cands, refs):
        return (
            [cand("s", cid, *center, score) for cid, center, score in cands],
            [ref("s", nid, *center, d) for nid, center, d in refs],
        )

    def test_counting_identities_and_oracle_agreement(self):
        rng = np.random.default_rng(21)
        disjoint_checked = 0
        for _ in range(300):
            tcands, trefs = self.random_instance(rng)
            dcands, drefs = self.to_domain(tcands, trefs)
            result = match_lesions(dcands, drefs, scan_ids=["s"])
            scan = result.scans[0]
            assert len(scan.tp) + len(scan.fn) == len(trefs)
            assert len(scan.tp) + len(scan.fp) == len(tcands)
            otp, ofn, ofp = oracle_match(tcands, trefs)
            assert {(t.nodule_id, t.candidate_id) for t in scan.tp} == {
                (nid, cid) for nid, cid, _ in otp
            }
            if trefs and balls_disjoint(trefs):
                disjoint_checked += 1
                assert len(scan.tp) == oracle_max_matching(tcands, trefs)
        assert disjoint_checked > 10


class TestFrocCurve:
    def test_perfect_detector(self):
        cands, refs = [], []
        for i in range(4):
            refs.append(ref(f"s{i}", "n1", 0, 0, 0, 8.0))
            cands.append(cand(f"s{i}", "c1", 0, 0, 0, 1.0))
        curve = froc_curve(match_lesions(cands, refs))
        assert curve.sensitivities == (1.0,) * 7
        assert cpm(curve) == 1.0

    def test_silent_detector(self):
        refs = [ref("s1", "n1", 0, 0, 0, 8.0)]
        curve = froc_curve(match_lesions([], refs))
        assert curve.sensitivities == (0.0,) * 7
        assert cpm(curve) == 0.0

    def test_zero_lesions_rejected(self):
        result = match_lesions([cand("s1", "c1", 0, 0, 0, 0.5)], [])
        with pytest.raises(InputError):
            froc_curve(result)

    def test_fixture_matches_frozen_values_and_oracle(self):
        cands, refs = cpm_fixture()
        curve = froc_curve(match_lesions(cands, refs))
        assert curve.sensitivities == CPM_FIXTURE_SENSITIVITIES
        assert cpm(curve) == pytest.approx(CPM_FIXTURE_CPM, abs=1e-15)
        oracle = oracle_froc(cpm_fixture_tuples(), FP_RATES)
        assert max(abs(a - b) for a, b in zip(curve.sensitivities, oracle)) < 1e-12

    def test_random_inputs_match_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            scan_data = {}
            for s in range(int(rng.integers(1, 5))):
                scan = f"s{s}"
                cands = [
                    (f"c{i}", tuple(rng.uniform(0, 40, size=3)), float(rng.uniform(0, 1)))
                    for i in range(int(rng.integers(0, 6)))
                ]
                refs = [
                    (f"n{i}", tuple(rng.uniform(0, 40, size=3)), float(rng.uniform(1, 25)))
                    for i in range(int(rng.integers(0, 4)))
                ]
                scan_data[scan] = (cands, refs)
            if sum(len(r) for _, r in scan_data.values()) == 0:
                continue
            dcands = [
                cand(s, cid, *center, score)
                for s, (cands, _) in scan_data.items()
                for cid, center, score in cands
            ]
            drefs = [
                ref(s, nid, *center, d)
                for s, (_, refs) in scan_data.items()
                for nid, center, d in refs
            ]
            curve = froc_curve(match_lesions(dcands, drefs, scan_ids=scan_data))
            oracle = oracle_froc(scan_data, FP_RATES)
            assert max(abs(a - b) for a, b in zip(curve.sensitivities, oracle)) < 1e-12

    def test_staircase_property(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_tp = int(rng.integers(0, 10))
            n_fp = int(rng.integers(0, 30))
            s = _random_curve(rng, n_tp, n_fp)
            assert all(b >= a for a, b in zip(s, s[1:]))

    def test_cpm_examples(self):
        mk = lambda sens: FrocCurve(FP_RATES, sens, 1, 1, 0)
        assert cpm(mk((1.0,) * 7)) == 1.0
        assert cpm(mk((0.0,) * 7)) == 0.0
        assert cpm(mk((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))) == pytest.approx(0.4, abs=1e-15)
        curve = mk((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        assert min(curve.sensitivities) <= cpm(curve) <= max(curve.sensitivities)


def _random_curve(rng, n_tp, n_fp):
    """Sensitivities produced by the implementation on random score data."""
    tp = tuple(TruePositive("s0", f"n{k}", f"c{k}", float(x))
               for k, x in enumerate(rng.uniform(0, 1, size=n_tp)))
    fp = tuple((f"f{k}", float(x)) for k, x in enumerate(rng.uniform(0, 1, size=n_fp)))
    scans = [ScanMatch("s0", max(n_tp, 1), tp, () if n_tp else ("n0",), fp)]
    scans += [ScanMatch(f"s{j}", 0, (), (), ()) for j in range(1, 4)]
    return froc_curve(LesionMatchResult(tuple(scans))).sensitivities


class TestBootstrap:
    def identical_scans_result(self):
        cands, refs = [], []
        for i in range(5):
            scan = f"s{i}"
            refs.append(ref(scan, "n1", 0, 0, 0, 8.0))
            cands.append(cand(scan, "c1", 0, 0, 0, 0.9))
            cands.append(cand(scan, "fp", 50, 50, 50, 0.4))
        return match_lesions(cands, refs)

    def test_degenerate_bootstrap_collapses_to_point(self):
        result = self.identical_scans_result()
        point = cpm(froc_curve(result))
        ci = bootstrap_ci(result, "cpm", resamples=200, seed=42)
        assert ci.lo == ci.hi == pytest.approx(point, abs=1e-15)

    def test_interval_brackets_point_estimate(self):
        cands, refs = cpm_fixture()
        result = match_lesions(cands, refs)
        point = cpm(froc_curve(result))
        ci = bootstrap_ci(result, "cpm", resamples=500, seed=7)
        assert ci.lo <= point <= ci.hi

    def test_seeded_determinism(self):
        cands, refs = cpm_fixture()
        result = match_lesions(cands, refs)
        a = bootstrap_ci(result, "cpm", resamples=300, seed=42)
        b = bootstrap_ci(result, "cpm", resamples=300, seed=42)
        assert a == b

    def test_sensitivity_statistic(self):
        cands, refs = cpm_fixture()
        result = match_lesions(cands, refs)
        ci = bootstrap_ci(result, "sensitivity", rate=1.0, resamples=200, seed=1)
        assert 0.0 <= ci.lo <= ci.hi <= 1.0


def random_match_result(rng, n_scans, p_no_refs, p_no_cands, tied):
    """A match result drawn directly: TP/FP counts and scores per scan."""
    scans = []
    for j in range(n_scans):
        sid = f"s{j:03d}"
        n_refs = 0 if rng.random() < p_no_refs else int(rng.integers(1, 4))
        n_tp = n_fp = 0
        if rng.random() >= p_no_cands:
            n_tp = int(rng.integers(0, n_refs + 1))
            n_fp = int(rng.integers(0, 7))
        if tied:  # eight score levels: TPs and FPs tie within and across scans
            scores = rng.integers(1, 9, size=n_tp + n_fp) / 8.0
        else:
            scores = rng.uniform(0.05, 1.0, size=n_tp + n_fp)
        tp = tuple(TruePositive(sid, f"n{k}", f"c{k}", float(scores[k])) for k in range(n_tp))
        fp = tuple((f"f{k}", float(scores[n_tp + k])) for k in range(n_fp))
        fn = tuple(f"n{k}" for k in range(n_tp, n_refs))
        scans.append(ScanMatch(sid, n_refs, tp, fn, fp))
    return LesionMatchResult(tuple(scans))


class TestCurveAgainstScalarOracle:
    """The grid-count curve equals the earlier sort-and-search count exactly."""

    RATES = (FP_RATES, (0.5, 2.0, 3.0), (0.0, 0.3, 100.0))

    def test_seeded_results_equal_oracle(self):
        cases = [(12, 0.3, 0.2, True), (12, 0.3, 0.2, False), (5, 0.6, 0.5, True), (1, 0.0, 0.0, True)]
        checked = 0
        for k, (n_scans, p_no_refs, p_no_cands, tied) in enumerate(cases):
            rng = np.random.default_rng([29, k])
            for _ in range(20):
                result = random_match_result(rng, n_scans, p_no_refs, p_no_cands, tied)
                if not result.n_references:
                    continue
                for rates in self.RATES:
                    got = froc_curve(result, rates).sensitivities
                    assert got == oracle_froc_sensitivities(result, rates)
                checked += 1
        assert checked > 40

    def test_empty_tp_or_fp_sets_equal_oracle(self):
        def result(tp_scores, fp_scores):
            tp = tuple(TruePositive("s0", f"n{k}", f"c{k}", x) for k, x in enumerate(tp_scores))
            fp = tuple((f"f{k}", x) for k, x in enumerate(fp_scores))
            scans = (ScanMatch("s0", 3, tp, tuple(f"n{k}" for k in range(len(tp), 3)), fp),
                     ScanMatch("s1", 0, (), (), ()))
            return LesionMatchResult(scans)

        for tp_scores, fp_scores in [((), ()), ((0.4, 0.4), ()), ((), (0.2, 0.9, 0.9)),
                                     ((0.5,), (0.5, 0.5))]:
            res = result(tp_scores, fp_scores)
            for rates in self.RATES:
                assert froc_curve(res, rates).sensitivities == oracle_froc_sensitivities(res, rates)


def plain_scans(result):
    return [(s.n_references, [t.score for t in s.tp], [f[1] for f in s.fp])
            for s in result.scans]


def oracle_ci(result, statistics, resamples, seed, rates=FP_RATES):
    out = oracle_bootstrap(plain_scans(result), statistics, resamples, seed, rates)
    return {name: BootstrapCI(*values) for name, values in out.items()}


def raised(fn):
    try:
        fn()
    except (InputError, ValueError) as err:
        return type(err), str(err)
    raise AssertionError("no error raised")


class TestBootstrapAgainstOracle:
    """The count-weighted bootstrap equals the per-resample curve rebuild exactly."""

    CASES = [
        # (n_scans, p_no_refs, p_no_cands, tied)
        (1, 0.0, 0.0, True),
        (1, 0.0, 1.0, False),
        (2, 0.5, 0.3, True),
        (3, 0.6, 0.3, True),
        (5, 0.5, 0.5, True),
        (12, 0.3, 0.2, True),
        (12, 0.3, 0.2, False),
        (60, 0.1, 0.1, True),
        (150, 0.1, 0.1, False),
    ]

    def cohorts(self):
        for k, (n_scans, p_no_refs, p_no_cands, tied) in enumerate(self.CASES):
            rng = np.random.default_rng([11, k])
            for _ in range(3):
                result = random_match_result(rng, n_scans, p_no_refs, p_no_cands, tied)
                if result.n_references:
                    yield result

    def test_single_statistics_equal_oracle(self):
        skipped = empty_scans = 0
        for c, result in enumerate(self.cohorts()):
            seed = 100 + c
            resamples = 40
            got = bootstrap_ci(result, "cpm", resamples=resamples, seed=seed)
            assert got == oracle_ci(result, {"cpm": ("cpm", None)}, resamples, seed)["cpm"]
            for rate in (0.125, 1.0, 4.0):
                got = bootstrap_ci(result, "sensitivity", rate=rate, resamples=resamples, seed=seed)
                want = oracle_ci(result, {"s": ("sensitivity", rate)}, resamples, seed)["s"]
                assert got == want
            skipped += got.resamples_skipped
            empty_scans += sum(1 for s in result.scans if not s.tp and not s.fp)
        assert skipped > 0 and empty_scans > 0  # both edge cases were exercised

    def test_joint_statistics_and_custom_rates_equal_oracle(self):
        rates = (0.5, 2.0, 3.0)
        for c, result in enumerate(self.cohorts()):
            got = _bootstrap_intervals(result, {"cpm": None, "s2": 2.0}, 30, c, rates)
            want = oracle_ci(result, {"cpm": ("cpm", None), "s2": ("sensitivity", 2.0)},
                             30, c, rates)
            assert got == want

    def test_evaluate_intervals_equal_oracle(self):
        cands, refs = cpm_fixture()
        out = evaluate(cands, refs, ci=True, resamples=200, seed=5)
        want = oracle_ci(match_lesions(cands, refs),
                         {"cpm": ("cpm", None), "s1": ("sensitivity", 1.0)}, 200, 5)
        assert out.cpm_ci == want["cpm"].interval
        assert out.sens_at_1fp_ci == want["s1"].interval

    def test_errors_equal_oracle(self):
        rng = np.random.default_rng(3)
        result = random_match_result(rng, 8, 0.2, 0.2, True)
        no_refs = random_match_result(rng, 1, 1.0, 0.0, True)
        calls = [
            (result, "auc", 1.0, 20, {"x": ("auc", None)}),
            (result, "sensitivity", 0.3, 20, {"x": ("sensitivity", 0.3)}),
            (result, "cpm", 1.0, 0, {"x": ("cpm", None)}),
            (no_refs, "cpm", 1.0, 20, {"x": ("cpm", None)}),
            (no_refs, "sensitivity", 0.3, 20, {"x": ("sensitivity", 0.3)}),
        ]
        for res, statistic, rate, resamples, spec in calls:
            err_type, message = raised(
                lambda: bootstrap_ci(res, statistic, rate=rate, resamples=resamples, seed=9))
            assert err_type is InputError
            assert raised(lambda: oracle_ci(res, spec, resamples, 9)) == (ValueError, message)


class TestStratified:
    def test_single_stratum_equals_overall(self):
        cands, refs = cpm_fixture()
        refs = [
            ref(r.scan_id, r.nodule_id, r.center.x, r.center.y, r.center.z, 15.0)
            for r in refs
        ]
        out = stratified_eval(cands, refs, DLCS_SIZE_BINS)
        assert set(out.strata) == {">=10"}
        assert out.strata[">=10"].cpm == out.overall.cpm
        assert out.strata[">=10"].curve == out.overall.curve

    def test_dlcs_bin_edges_lower_inclusive(self):
        assert DLCS_SIZE_BINS.bin_for(5.999) == "<6"
        assert DLCS_SIZE_BINS.bin_for(6.0) == "6-10"
        assert DLCS_SIZE_BINS.bin_for(10.0) == ">=10"
        assert IMD_SIZE_BINS.bin_for(10.0) == "10-20"
        assert IMD_SIZE_BINS.bin_for(20.0) == ">=20"

    def test_all_benign_omits_cancer_stratum(self):
        cands, refs = cpm_fixture()
        refs = [
            ref(r.scan_id, r.nodule_id, r.center.x, r.center.y, r.center.z,
                r.diameter_mm, diagnosis="benign")
            for r in refs
        ]
        out = stratified_eval(cands, refs, "diagnosis")
        assert set(out.strata) == {"benign"}
        assert any("cancer" in w for w in out.warnings)

    def test_candidates_restricted_to_stratum_scans(self):
        # two scans; the small lesion lives on s1 only, so s2's candidates
        # stay out of that stratum's denominator
        refs = [ref("s1", "n1", 0, 0, 0, 4.0), ref("s2", "n2", 0, 0, 0, 15.0)]
        cands = [
            cand("s1", "c1", 0, 0, 0, 0.9),
            cand("s2", "c2", 0, 0, 0, 0.8),
            cand("s2", "fp", 90, 90, 90, 0.7),
        ]
        out = stratified_eval(cands, refs, DLCS_SIZE_BINS)
        small = out.strata["<6"]
        assert small.curve.n_scans == 1
        assert small.curve.candidates_total == 1
        big = out.strata[">=10"]
        assert big.curve.n_scans == 1
        assert big.curve.candidates_total == 2

    def test_missing_attribute_goes_to_unknown(self):
        refs = [ref("s1", "n1", 0, 0, 0, 8.0)]  # lungrads absent
        cands = [cand("s1", "c1", 0, 0, 0, 0.9)]
        out = stratified_eval(cands, refs, "lungrads")
        assert set(out.strata) == {"unknown"}


class TestDetectionProbabilitySummary:
    def test_single_detection(self):
        refs = [ref("s", "n1", 0, 0, 0, 8.0, lungrads="1")]
        result = match_lesions([cand("s", "c1", 0, 0, 0, 0.995)], refs)
        out = detection_probability_summary(result, refs, "lungrads")
        row = out["1"]
        assert row.n_gt == 1 and row.n_detected == 1
        assert row.mean == row.median == row.min == row.max == 0.995
        assert row.sd is None

    def test_no_detections_counts_only(self):
        refs = [ref("s", "n1", 0, 0, 0, 8.0, diagnosis="benign")]
        result = match_lesions([], refs)
        out = detection_probability_summary(result, refs, "diagnosis")
        row = out["benign"]
        assert row.n_gt == 1 and row.n_detected == 0
        assert row.mean is None and row.median is None

    def test_summary_statistics(self):
        refs = [
            ref("s", "n1", 0, 0, 0, 8.0, diagnosis="cancer"),
            ref("s", "n2", 40, 0, 0, 8.0, diagnosis="cancer"),
            ref("s", "n3", 80, 0, 0, 8.0, diagnosis="cancer"),
        ]
        cands = [
            cand("s", "c1", 0, 0, 0, 0.2),
            cand("s", "c2", 40, 0, 0, 0.4),
            cand("s", "c3", 80, 0, 0, 0.9),
        ]
        out = detection_probability_summary(match_lesions(cands, refs), refs, "diagnosis")
        row = out["cancer"]
        assert row.mean == pytest.approx(0.5)
        assert row.median == pytest.approx(0.4)
        assert row.min == 0.2 and row.max == 0.9

    def test_accepts_plain_mapping(self):
        refs = [ref("s", "n1", 0, 0, 0, 8.0, diagnosis="cancer")]
        out = detection_probability_summary({("s", "n1"): 0.7}, refs, "diagnosis")
        assert out["cancer"].mean == 0.7


class TestEvaluate:
    def test_fixture_summary(self):
        cands, refs = cpm_fixture()
        result = evaluate(cands, refs)
        assert result.cpm == pytest.approx(CPM_FIXTURE_CPM, abs=1e-15)
        assert result.detected_over_lesions == (4, 4)
        assert result.candidates_per_scan == pytest.approx(10 / 4)
        assert result.sensitivity_at_1fp == 0.75
        assert result.cpm_ci is None

    def test_with_ci(self):
        cands, refs = cpm_fixture()
        result = evaluate(cands, refs, ci=True, resamples=100, seed=3)
        assert result.cpm_ci is not None and result.sens_at_1fp_ci is not None
        assert result.cpm_ci[0] <= result.cpm <= result.cpm_ci[1]
