import math

import numpy as np
import pytest

from trifuse import fileio, froc
from trifuse.domain import (
    DIAGNOSES,
    LUNGRADS_CATEGORIES,
    CandidateTable,
    ReferenceTable,
    SemanticRatings,
)
from trifuse.errors import InputError
from trifuse.froc import (
    DLCS_SIZE_BINS,
    FP_RATES,
    BootstrapCI,
    FrocCurve,
    IMD_SIZE_BINS,
    STRATIFIERS,
    LesionMatchResult,
    ScanMatch,
    SizeBinSpec,
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
from trifuse.readerstats import consensus_category, detected_vs_missed_table, missed_overlap_table
from trifuse.sweeps import sweep_cade

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
    oracle_grid_bootstrap,
    oracle_grid_curve,
    oracle_match,
    oracle_match_lesions,
    oracle_max_matching,
    oracle_pair_match_lesions,
    oracle_write_csv,
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


# candidate offsets from a reference centre on or next to its tolerance:
# exact 3-4-5 triangles (5 mm, the cap), scaled ones (4 mm, an 8 mm nodule),
# and (3, 4, 6e-8), whose squared length is the double after 25 but whose
# length rounds to 5.0
MATCH_OFFSETS = (
    (3.0, 4.0, 0.0), (0.0, 3.0, 4.0), (4.0, 0.0, 3.0), (0.0, 0.0, 5.0), (2.4, 3.2, 0.0),
    (0.0, 0.0, 4.0), (3.0, 4.0, 6e-8), (3.0, 4.0, 1e-7), (2.9999999999999996, 4.0, 0.0),
    (0.0, 0.0, 4.999999999999999), (0.0, 0.0, 4.5), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
)
MATCH_DIAMETERS = (8.0, 9.0, 9.999999999999998, 10.0, 10.000000000000002, 12.0, 3.0)
MATCH_SCORES = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
MODELS = ("CADE_A", "CADE_B", "FUSED")


def random_match_inputs(rng, n_scans, huge=False):
    """Seeded candidates and references: boundary offsets, diameters at and
    around 10 mm, references sharing a centre, score ties and candidate ids
    repeated across models, scans without references and without candidates."""
    candidates, references = [], []
    for s in range(n_scans):
        scan_id = f"scan{s:02d}"
        centres = []
        for k in range(int(rng.integers(0, 4))):
            centre = (tuple(float(v) for v in rng.integers(-50, 50, 3)) if not centres
                      or rng.random() < 0.7 else centres[-1])
            centres.append(centre)
            references.append(ref(scan_id, f"n{rng.integers(0, 9)}{k}", *centre,
                                  float(rng.choice(MATCH_DIAMETERS))))
        keys = set()
        for _ in range(int(rng.integers(0, 9))):
            key = (str(rng.choice(MODELS)), f"c{rng.integers(0, 4)}")
            if key in keys:
                continue
            keys.add(key)
            if centres and rng.random() < 0.7:
                centre = centres[int(rng.integers(len(centres)))]
                offset = MATCH_OFFSETS[int(rng.integers(len(MATCH_OFFSETS)))]
                sign = rng.choice([-1.0, 1.0], 3)
                offset = np.roll(offset, rng.integers(3))
                xyz = [c + sg * o for c, sg, o in zip(centre, sign, offset)]
            else:
                xyz = rng.uniform(-60, 60, 3).tolist()
            if huge and rng.random() < 0.3:
                xyz[0] = float(rng.choice([-1e200, 1e200, 1.7e308]))
            score = float(rng.choice(MATCH_SCORES)) if rng.random() < 0.7 else float(rng.random())
            candidates.append(cand(scan_id, key[1], *xyz, score, model=key[0]))
    return candidates, references


class TestMatchAgainstScalarOracle:
    """``match_lesions`` on tables equals the all-pairs scalar loop."""

    def check(self, candidates, references, scan_ids=None):
        expected = oracle_match_lesions(candidates, references, scan_ids)
        assert match_lesions(candidates, references, scan_ids) == expected
        assert match_lesions(iter(candidates), iter(references), scan_ids) == expected
        table = CandidateTable.from_records(candidates)
        refs = ReferenceTable.from_records(references)
        result = match_lesions(table, refs, scan_ids)
        assert result == expected
        # the columns say what the views say
        assert (result.n_scans, result.n_references, result.n_detected, result.n_candidates) == (
            expected.n_scans, expected.n_references, expected.n_detected, expected.n_candidates)
        assert result.detected_scores() == expected.detected_scores()
        assert LesionMatchResult(expected.scans) == expected
        assert result == oracle_pair_match_lesions(table, references, scan_ids)
        return expected

    def test_seeded_inputs_equal_oracle(self):
        rng = np.random.default_rng(71)
        hits = 0
        for _ in range(60):
            candidates, references = random_match_inputs(rng, int(rng.integers(1, 8)))
            hits += self.check(candidates, references).n_detected
        assert hits > 100  # the boundary offsets do produce matches

    def test_shuffled_input_order_equals_oracle(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            candidates, references = random_match_inputs(rng, 5)
            order = rng.permutation(len(candidates))
            self.check([candidates[i] for i in order], references[::-1])

    def test_table_read_from_csv_equals_oracle(self, tmp_path):
        rng = np.random.default_rng(73)
        for k in range(10):
            candidates, references = random_match_inputs(rng, 6)
            path = fileio.write_csv(
                tmp_path / f"c{k}.csv", fileio.CANDIDATE_COLUMNS,
                [(c.scan_id, c.candidate_id, *c.center.as_tuple(), c.diameter_mm, c.score,
                  c.source_model) for c in candidates])
            table = fileio.read_candidates(path)
            assert match_lesions(table, references) == oracle_match_lesions(candidates, references)

    def test_scan_universe_and_stray_scans(self):
        rng = np.random.default_rng(74)
        candidates, references = random_match_inputs(rng, 6)
        scans = {c.scan_id for c in candidates} | {r.scan_id for r in references}
        self.check(candidates, references, scans | {"empty1", "empty2"})
        missing = sorted(scans)[1:]
        with pytest.raises(InputError) as expected:
            oracle_match_lesions(candidates, references, missing)
        for given in (candidates, CandidateTable.from_records(candidates)):
            with pytest.raises(InputError) as got:
                match_lesions(given, references, missing)
            assert str(got.value) == str(expected.value)

    def test_duplicate_candidates_and_references_raise_as_oracle(self):
        rng = np.random.default_rng(75)
        candidates, references = random_match_inputs(rng, 4)
        candidates = [c for c in candidates if c.scan_id == candidates[0].scan_id][:3]
        dup = candidates[-1]
        for cands, refs in ((candidates + [cand(dup.scan_id, dup.candidate_id, 0, 0, 0, 0.5,
                                                    model=dup.source_model)], references),
                            (candidates, references + references[:1])):
            with pytest.raises(InputError) as expected:
                oracle_match_lesions(cands, refs)
            with pytest.raises(InputError) as got:
                match_lesions(cands, refs)
            assert str(got.value) == str(expected.value)

    def test_model_breaks_score_and_id_ties(self):
        # equal score and id: CADE_A goes first and takes n1, so the CADE_B
        # candidate, which hits both, takes n2
        refs = [ref("s", "n1", 0, 0, 0, 10.0), ref("s", "n2", 6, 0, 0, 10.0)]
        cands = [cand("s", "c1", 2, 0, 0, 0.5, model="CADE_B"),
                 cand("s", "c1", -1, 0, 0, 0.5, model="CADE_A")]
        result = self.check(cands, refs)
        assert [t.nodule_id for t in result.scans[0].tp] == ["n1", "n2"]

    def test_reference_free_and_candidate_free_scans(self):
        refs = [ref("s1", "n1", 0, 0, 0, 10.0)]
        cands = [cand("s2", "c1", 0, 0, 0, 0.5), cand("s2", "c2", 3, 4, 0, 0.5, model="N")]
        result = self.check(cands, refs)
        assert [(s.scan_id, s.fn, len(s.fp)) for s in result.scans] == [
            ("s1", ("n1",), 0), ("s2", (), 2)]
        self.check([], refs)
        self.check(cands, [])
        self.check([], [])

    def test_matches_csv_equals_oracle_writer(self, tmp_path):
        rng = np.random.default_rng(77)
        for k in range(20):
            candidates, references = random_match_inputs(rng, int(rng.integers(1, 8)))
            expected = oracle_match_lesions(candidates, references)
            rows = sorted([(s.scan_id, t.nodule_id, 1, t.score, "M") for s in expected.scans
                           for t in s.tp] + [(s.scan_id, nid, 0, None, "M")
                                             for s in expected.scans for nid in s.fn])
            want = oracle_write_csv(tmp_path / f"want{k}.csv", fileio.MATCH_COLUMNS, rows, "d")
            got = fileio.write_matches_csv(tmp_path / f"got{k}.csv",
                                           match_lesions(candidates, references), "M", "d")
            assert got.read_bytes() == want.read_bytes()

    def test_huge_coordinates_never_hit(self):
        # numpy would warn on the overflowing squares; warnings are errors here
        rng = np.random.default_rng(76)
        for _ in range(10):
            candidates, references = random_match_inputs(rng, 5, huge=True)
            self.check(candidates, references)
        result = self.check([cand("s", "c", 1e200, 0, 0, 0.5)],
                            [ref("s", "n", -1e200, 0, 0, 10.0)])
        assert result.n_detected == 0 and result.n_candidates == 1


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
    """The curve read from the ranking equals the earlier sort-and-search
    count and the earlier grid count exactly."""

    RATES = (FP_RATES, (0.5, 2.0, 3.0), (0.0, 0.3, 100.0), (4.0, 0.5, 2.0), (-1.0, math.nan, 1.0))

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
                    assert list(got) == oracle_grid_curve(result, rates)
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
                                     ((0.5,), (0.5, 0.5)), ((0.5, 0.7), (0.7, 0.1))]:
            res = result(tp_scores, fp_scores)
            for rates in self.RATES:
                got = froc_curve(res, rates).sensitivities
                assert got == oracle_froc_sensitivities(res, rates)
                assert list(got) == oracle_grid_curve(res, rates)


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


def fp_heavy_result(rng, n_scans=30):
    """One scan holds 150 false positives above every other candidate; the
    other scans hold a reference or two and a few tied or interleaved
    candidates below. A resample that does not draw the heavy scan falls
    short of 8 FP/scan within the first 8 x scans false positives."""
    scans = [ScanMatch("s000", 1, (), ("n0",),
                       tuple((f"f{k}", 0.9 + 0.0005 * k) for k in range(150)))]
    for j in range(1, n_scans):
        sid = f"s{j:03d}"
        n_refs = int(rng.integers(1, 3))
        n_tp = int(rng.integers(0, n_refs + 1))
        scores = rng.integers(1, 60, size=n_tp + 6) / 64.0
        tp = tuple(TruePositive(sid, f"n{k}", f"c{k}", float(scores[k])) for k in range(n_tp))
        fp = tuple((f"f{k}", float(x)) for k, x in enumerate(scores[n_tp:].tolist()))
        scans.append(ScanMatch(sid, n_refs, tp, tuple(f"n{k}" for k in range(n_tp, n_refs)), fp))
    return LesionMatchResult(tuple(scans))


def round_robin_result(n_scans=5, per_scan=12):
    """False positive r (best first) on scan r % n_scans, so the first
    8 x n_scans of them weigh exactly 8 x n_scans in every resample; a true
    positive sits between each pair of false positives from there on, two
    scans along, so it counts where the false positives around it may not."""
    fp = {j: [] for j in range(n_scans)}
    tp = {j: [] for j in range(n_scans)}
    for r in range(n_scans * per_scan):
        fp[r % n_scans].append((f"f{r}", 1.0 - r / 1024))
    for r in range(8 * n_scans - 1, 8 * n_scans + 2 * n_scans - 1):
        j = (r + 2) % n_scans
        tp[j].append(TruePositive(f"s{j}", f"n{len(tp[j])}", f"c{r}", 1.0 - (r + 0.5) / 1024))
    return LesionMatchResult(tuple(
        ScanMatch(f"s{j}", 2, tuple(tp[j]), (), tuple(fp[j])) for j in range(n_scans)))


class TestRankingAgainstGridOracle:
    """The bootstrap, read from the descending ranking, equals the earlier
    whole-grid count exactly."""

    RATES = (FP_RATES, (4.0, 0.5, 2.0), (-1.0, math.nan, 1.0))
    CASES = TestBootstrapAgainstOracle.CASES

    def cohorts(self, salt):
        for k, (n_scans, p_no_refs, p_no_cands, tied) in enumerate(self.CASES):
            rng = np.random.default_rng([salt, k])
            for _ in range(4):
                result = random_match_result(rng, n_scans, p_no_refs, p_no_cands, tied)
                if result.n_references:
                    yield result

    @staticmethod
    def statistics(rates):
        out = {f"s{k}": r for k, r in enumerate(rates) if not math.isnan(r)}
        out["cpm"] = None
        return out

    def test_no_false_or_no_true_positives_equal_grid_oracle(self):
        def result(tp_scores, fp_scores):
            tp = tuple(TruePositive("s0", f"n{k}", f"c{k}", x) for k, x in enumerate(tp_scores))
            fp = tuple((f"f{k}", x) for k, x in enumerate(fp_scores))
            return LesionMatchResult((
                ScanMatch("s0", 3, tp, tuple(f"n{k}" for k in range(len(tp), 3)), fp),
                ScanMatch("s1", 1, (), ("n0",), ()), ScanMatch("s2", 0, (), (), ())))

        for tp_scores, fp_scores in [((), ()), ((0.4, 0.4, 0.9), ()), ((), (0.2, 0.9, 0.9)),
                                     ((0.5,), (0.5, 0.5)), ((0.5, 0.7), (0.7, 0.1))]:
            res = result(tp_scores, fp_scores)
            for rates in self.RATES:
                stats = self.statistics(rates)
                assert _bootstrap_intervals(res, stats, 25, 3, rates) == oracle_grid_bootstrap(
                    res, stats, 25, 3, rates)

    def test_intervals_equal_grid_oracle(self):
        skipped = no_fp = no_tp = 0
        for c, result in enumerate(self.cohorts(43)):
            for rates in self.RATES[:2]:
                stats = self.statistics(rates)
                got = _bootstrap_intervals(result, stats, 30, c, rates)
                assert got == oracle_grid_bootstrap(result, stats, 30, c, rates)
            skipped += got["cpm"].resamples_skipped
            no_fp += result.n_candidates == result.n_detected
            no_tp += result.n_detected == 0
        assert skipped > 0 and no_fp > 0 and no_tp > 0  # each edge case was exercised

    def extending_cohorts(self):
        return [fp_heavy_result(np.random.default_rng(53)), round_robin_result()]

    def test_each_resample_equals_grid_oracle_where_the_prefix_falls_short(self):
        # two resamples a seed: each interval bound is one resample's value or
        # the midpoint of two, so a resample that differs shows
        for result in self.extending_cohorts():
            n, ranking = result.n_scans, result.ranking
            need = 8.0 * n
            short = 0
            for seed in range(150):
                for rates in (FP_RATES, (4.0, 0.5, 8.0, 2.0)):
                    stats = self.statistics(rates)
                    got = _bootstrap_intervals(result, stats, 2, seed, rates)
                    assert got == oracle_grid_bootstrap(result, stats, 2, seed, rates)
                for i in range(2):
                    draws = np.random.default_rng((seed, i)).integers(0, n, size=n)
                    w = np.bincount(draws, minlength=n)
                    short += int(w[ranking.fp_scan[:int(need) + 1]].sum() <= need)
            assert short > 20  # the unweighted prefix fell short and was extended

    def test_unsorted_rates_read_past_the_last_rate(self):
        # the prefix must reach 4 FP/scan, the largest rate, not 2, the last one
        for result in self.extending_cohorts():
            rates = (4.0, 0.5, 2.0)
            stats = self.statistics(rates)
            for seed in range(40):
                got = _bootstrap_intervals(result, stats, 2, seed, rates)
                assert got == oracle_grid_bootstrap(result, stats, 2, seed, rates)


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

    # every stratum of each stratifier, in report order
    ORDER = {
        "size:dlcs": ("<6", "6-10", ">=10"),
        "size:imd": ("<10", "10-20", ">=20"),
        "lungrads": ("1", "2", "3", "4A", "4B", "4X", "unknown"),
        "diagnosis": ("benign", "cancer", "unknown"),
        "consensus": ("R1_1of1", "R2_2of2", "R2_1of2", "R3_3of3", "R3_2of3", "NoVotes", "Other"),
    }
    # one lesion per scan: diameter, lungrads, diagnosis, reviewers, positive votes
    LESIONS = [(4.0, "4A", "cancer", 3, 2), (8.0, None, "benign", 2, 1),
               (12.0, "2", "unknown", 1, 1), (25.0, "1", "cancer", None, None),
               (7.0, "4X", "benign", 2, 2)]
    PRESENT = {
        "size:dlcs": {"<6", "6-10", ">=10"},
        "size:imd": {"<10", "10-20", ">=20"},
        "lungrads": {"1", "2", "4A", "4X", "unknown"},
        "diagnosis": {"benign", "cancer", "unknown"},
        "consensus": {"R1_1of1", "R2_2of2", "R2_1of2", "R3_2of3", "NoVotes"},
    }

    def mixed_cohort(self):
        refs = [ref(f"s{k}", "n1", 0, 0, 0, d, lungrads=lr, diagnosis=dx, reviewers=rv,
                    positive_votes=pv)
                for k, (d, lr, dx, rv, pv) in enumerate(self.LESIONS)]
        cands = [cand(f"s{k}", "c1", 0, 0, 0, 0.9 - 0.1 * k) for k in range(len(refs))]
        return cands + [cand("s0", "fp", 90, 90, 90, 0.65)], refs

    def test_every_stratifier_reports_its_strata_in_order(self):
        assert STRATIFIERS == tuple(self.ORDER)
        cands, refs = self.mixed_cohort()
        result = match_lesions(cands, refs)
        for name in STRATIFIERS:
            order, present = self.ORDER[name], self.PRESENT[name]
            out = stratified_eval(cands, refs, name)
            assert list(out.strata) == [n for n in order if n in present], name
            assert out.warnings == tuple(f"stratum {n!r} is empty and was omitted"
                                         for n in order if n not in present and n != "unknown")
            summary = detection_probability_summary(result, refs, name)
            assert list(summary) == sorted(present), name
            assert sum(g.n_gt for g in summary.values()) == len(refs)

    def test_size_name_equals_its_bin_spec(self):
        cands, refs = self.mixed_cohort()
        assert (stratified_eval(cands, refs, "size:dlcs", ci=True, resamples=20)
                == stratified_eval(cands, refs, DLCS_SIZE_BINS, ci=True, resamples=20))
        result = match_lesions(cands, refs)
        assert (detection_probability_summary(result, refs, "size:dlcs")
                == detection_probability_summary(result, refs, DLCS_SIZE_BINS))

    def test_unknown_stratifier_raises_before_matching(self, monkeypatch):
        calls = []
        monkeypatch.setattr(froc, "match_lesions", lambda *a, **k: calls.append(a))
        cands, refs = self.mixed_cohort()
        for stratify in ("bogus", "size", None):
            with pytest.raises(InputError, match="unknown stratifier .*; choose from"):
                stratified_eval(cands, refs, stratify)
            with pytest.raises(InputError, match="unknown stratifier"):
                detection_probability_summary({}, refs, stratify)
        assert calls == []

    def test_stratum_matches_anew_instead_of_slicing(self):
        # overall c1 hits both lesions and takes the nearer big one, so c2
        # takes the small one; in the small stratum c1 goes first and takes
        # it, and c3, which hits only the far lesion, is a false positive
        refs = [ref("s1", "big", 0, 0, 0, 12.0), ref("s1", "small", 3, 0, 0, 5.0),
                ref("s1", "far", 50, 0, 0, 12.0), ref("s2", "other", 0, 0, 0, 8.0)]
        cands = [cand("s1", "c1", 1, 0, 0, 0.9), cand("s1", "c2", 4.5, 0, 0, 0.8),
                 cand("s1", "c3", 50, 0, 0, 0.7), cand("s2", "c4", 0, 0, 0, 0.6)]
        out = stratified_eval(cands, refs, "size:dlcs")
        assert [(t.candidate_id, t.nodule_id) for t in out.overall.matches.scans[0].tp] == [
            ("c1", "big"), ("c2", "small"), ("c3", "far")]
        small = out.strata["<6"].matches
        assert [s.scan_id for s in small.scans] == ["s1"]
        assert [(t.candidate_id, t.nodule_id, t.score) for t in small.scans[0].tp] == [
            ("c1", "small", 0.9)]
        assert small.scans[0].fp == (("c2", 0.8), ("c3", 0.7))
        big = out.strata[">=10"].matches
        assert [(t.candidate_id, t.nodule_id) for t in big.scans[0].tp] == [
            ("c1", "big"), ("c3", "far")]
        assert big.scans[0].fp == (("c2", 0.8),)
        for name, result in out.strata.items():
            stratum = [r for r in refs if DLCS_SIZE_BINS.bin_for(r.diameter_mm) == name]
            scans = {r.scan_id for r in stratum}
            expected = oracle_match_lesions([c for c in cands if c.scan_id in scans], stratum, scans)
            assert result.matches == expected

    STRATUM_OF = {
        "size:dlcs": lambda r: DLCS_SIZE_BINS.bin_for(r.diameter_mm),
        "size:imd": lambda r: IMD_SIZE_BINS.bin_for(r.diameter_mm),
        "lungrads": lambda r: r.lungrads or "unknown",
        "diagnosis": lambda r: r.diagnosis,
        "consensus": lambda r: consensus_category(r.reviewers, r.positive_votes),
    }

    def test_every_stratum_equals_oracle_on_its_own_inputs(self):
        rng = np.random.default_rng(79)
        checked = rematched = 0
        for k in range(40):
            candidates, references = random_match_inputs(rng, int(rng.integers(1, 8)))
            if not references:
                continue
            references = [
                ref(r.scan_id, r.nodule_id, *r.center.as_tuple(), r.diameter_mm,
                    diagnosis=str(rng.choice(DIAGNOSES)),
                    lungrads=None if rng.random() < 0.3 else str(rng.choice(LUNGRADS_CATEGORIES)),
                    reviewers=(reviewers := int(rng.integers(1, 4))),
                    positive_votes=int(rng.integers(0, reviewers + 1)))
                for r in references]
            stratify = STRATIFIERS[k % len(STRATIFIERS)]
            out = stratified_eval(candidates, references, stratify, ci=k % 4 == 0,
                                  resamples=10, seed=k)
            overall_tp = {(s.scan_id, t.nodule_id): t.candidate_id
                          for s in out.overall.matches.scans for t in s.tp}
            for name, got in out.strata.items():
                stratum = [r for r in references if self.STRATUM_OF[stratify](r) == name]
                scans = {r.scan_id for r in stratum}
                on_scans = [c for c in candidates if c.scan_id in scans]
                expected = oracle_match_lesions(on_scans, stratum, scans)
                assert got.matches == expected
                assert got == evaluate(on_scans, stratum, ci=k % 4 == 0, resamples=10, seed=k,
                                       scan_ids=scans)
                rematched += any(overall_tp.get((s.scan_id, t.nodule_id)) != t.candidate_id
                                 for s in expected.scans for t in s.tp)
                checked += 1
        assert checked > 60 and rematched > 0  # some stratum differs from a slice of the overall

    @pytest.mark.parametrize("bins", [
        (),
        (("a", 10.0), ("b", 6.0), ("c", math.inf)),  # edges descend
        (("a", 6.0), ("b", 6.0), ("c", math.inf)),  # an empty bin
        (("a", 0.0), ("b", math.inf)),  # an empty first bin
        (("a", math.nan), ("b", math.inf)),
        (("a", 6.0), ("b", 10.0)),  # a finite last edge
    ])
    def test_malformed_bin_spec_rejected(self, bins):
        with pytest.raises(InputError):
            SizeBinSpec(bins)


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


class TestNoRecordsOnTheColumnPath:
    """Evaluation on a table read from a file builds no reference records."""

    def test_evaluation_builds_no_semantic_ratings(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(80)
        candidates, references = random_match_inputs(rng, 12)
        ratings = ("Subtlety", "Malignancy", "Texture", "DiamEq_Rad")
        ref_path = fileio.write_csv(
            tmp_path / "refs.csv", fileio.REFERENCE_COLUMNS + ratings,
            [(r.scan_id, r.nodule_id, *r.center.as_tuple(), r.diameter_mm,
              str(rng.choice(DIAGNOSES)), str(rng.choice(LUNGRADS_CATEGORIES)), 3,
              int(rng.integers(0, 4)), int(rng.integers(1, 6)), int(rng.integers(0, 6)),
              int(rng.integers(1, 6)), float(rng.uniform(1, 20))) for r in references])
        cand_path = fileio.write_csv(
            tmp_path / "cands.csv", fileio.CANDIDATE_COLUMNS,
            [(c.scan_id, c.candidate_id, *c.center.as_tuple(), None, c.score, c.source_model)
             for c in candidates])
        refs, cands = fileio.read_references(ref_path), fileio.read_candidates(cand_path)
        built = []
        check = SemanticRatings.__post_init__
        monkeypatch.setattr(SemanticRatings, "__post_init__",
                            lambda self: (built.append(self), check(self))[1])

        result = evaluate(cands, refs, ci=True, resamples=5).matches
        for stratify in STRATIFIERS:
            stratified_eval(cands, refs, stratify, ci=True, resamples=5)
            detection_probability_summary(result, refs, stratify)
        sweep_cade(cands, refs, [0.1, 0.5])
        detected = {"M": set(result.detected_scores()), "N": set()}
        detected_vs_missed_table(detected, refs, pooled=False)
        missed_overlap_table({m: set(refs.keys) - keys for m, keys in detected.items()}, refs)
        fileio.write_matches_csv(tmp_path / "matches.csv", result, "M")
        assert built == []
        assert len(list(refs)) == len(references) and built  # the count does see records
