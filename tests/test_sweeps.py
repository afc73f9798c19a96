import numpy as np
import pytest

from trifuse.errors import InputError
from trifuse.froc import FP_RATES, match_lesions, froc_curve, cpm
from trifuse.sweeps import (
    CADE_PRESET_THRESHOLDS,
    CADX_PRESET_THRESHOLDS,
    sweep_cade,
    sweep_cadx,
)

from conftest import cand, cpm_fixture, ref
from oracles import oracle_confusion, oracle_froc, oracle_sweep_cade


class TestSweepCadx:
    def labeled_sample(self):
        scores = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
        labels = ["no-cancer", "no-cancer", "cancer", "no-cancer", "no-cancer",
                  "cancer", "no-cancer", "no-cancer", "cancer", "no-cancer"]
        return scores, labels

    def test_zero_threshold_flags_everything(self):
        scores, labels = self.labeled_sample()
        (row,) = sweep_cadx(scores, labels, [0.0])
        assert row.recall == 1.0
        assert row.flagged_pct == 100.0
        assert row.fn == 0

    def test_threshold_above_max_flags_nothing(self):
        scores, labels = self.labeled_sample()
        (row,) = sweep_cadx(scores, labels, [0.99])
        assert row.recall == 0.0 and row.tp == 0
        assert row.precision is None
        assert row.flagged_pct == 0.0

    def test_rows_match_confusion_oracle(self):
        scores, labels = self.labeled_sample()
        thresholds = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        rows = sweep_cadx(scores, labels, thresholds)
        n_pos = labels.count("cancer")
        n_neg = labels.count("no-cancer")
        for row in rows:
            tp, fp, fn, tn = oracle_confusion(scores, labels, row.threshold)
            assert (row.tp, row.fp, row.fn) == (tp, fp, fn)
            assert row.recall == tp / n_pos
            assert row.fpr == fp / n_neg
            assert row.flagged_pct == 100.0 * (tp + fp) / len(scores)
            if tp + fp:
                assert row.precision == tp / (tp + fp)
            assert row.missed == row.fn

    def test_no_positives_rejected(self):
        with pytest.raises(InputError):
            sweep_cadx([0.5, 0.6], ["no-cancer", "no-cancer"], [0.1])

    def test_bad_label_rejected(self):
        with pytest.raises(InputError):
            sweep_cadx([0.5], ["malignant"], [0.1])

    def test_monotonicity_on_random_inputs(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = [float(v) for v in rng.uniform(0, 1, size=n)]
            labels = ["cancer" if rng.random() < 0.4 else "no-cancer" for _ in range(n)]
            if "cancer" not in labels:
                labels[0] = "cancer"
            thresholds = sorted(float(v) for v in rng.uniform(0, 1, size=8))
            rows = sweep_cadx(scores, labels, thresholds)
            recalls = [r.recall for r in rows]
            flagged = [r.flagged_pct for r in rows]
            assert all(b <= a for a, b in zip(recalls, recalls[1:]))
            assert all(b <= a for a, b in zip(flagged, flagged[1:]))

    def test_inclusive_flagging(self):
        (row,) = sweep_cadx([0.3, 0.2], ["cancer", "no-cancer"], [0.3])
        assert row.tp == 1 and row.fp == 0

    def test_rows_ordered_ascending(self):
        scores, labels = self.labeled_sample()
        rows = sweep_cadx(scores, labels, [0.5, 0.1, 0.3])
        assert [r.threshold for r in rows] == [0.1, 0.3, 0.5]


def sweep_fixture():
    """Ten candidates with scores spread across the preset grid; one lesion
    per scan so every threshold step changes the forwarded count."""
    cands, refs = [], []
    scores = [0.06, 0.11, 0.16, 0.21, 0.26, 0.31, 0.36, 0.41, 0.46, 0.51]
    for i, score in enumerate(scores):
        scan = f"s{i % 4}"
        cands.append(cand(scan, f"c{i}", 200.0 + 40 * i, 0, 0, score))
    for i in range(4):
        scan = f"s{i}"
        refs.append(ref(scan, "n1", 10.0 * i, 5, 5, 8.0))
        cands.append(cand(scan, f"tp{i}", 10.0 * i, 5, 5, 0.03 + 0.25 * i))
    return cands, refs


def random_cohort(rng, n_scans, tied):
    """Candidates and references on ``n_scans`` scans; some scans have no
    references and some no candidates. Candidates sit on a reference slot
    (a hit when the slot holds a reference) or far from every slot."""
    cands, refs = [], []
    for j in range(n_scans):
        scan = f"s{j:02d}"
        for k in range(int(rng.integers(0, 3))):
            refs.append(ref(scan, f"n{k}", 30.0 * k, 0, 0, 8.0))
        for k in range(int(rng.integers(0, 6))):
            score = rng.integers(1, 8) / 8.0 if tied else rng.uniform(0.05, 0.9)
            x = 30.0 * int(rng.integers(0, 3)) if rng.random() < 0.5 else 200.0 + 20 * k
            cands.append(cand(scan, f"c{k}", x + rng.uniform(-1, 1), 0, 0, float(score)))
    return cands, refs


class TestSweepCade:
    def test_extreme_thresholds_monotone(self):
        cands, refs = cpm_fixture()
        rows = sweep_cade(cands, refs, [0.0, 1.0])
        assert rows[0].candidates_forwarded >= rows[1].candidates_forwarded
        assert rows[0].missed <= rows[1].missed

    def test_uniform_scores_plateau(self):
        refs = [ref("s1", "n1", 0, 0, 0, 8.0)]
        cands = [
            cand("s1", "c1", 0, 0, 0, 0.5),
            cand("s1", "c2", 50, 0, 0, 0.5),
        ]
        rows = sweep_cade(cands, refs, [0.1, 0.3, 0.5, 0.7])
        assert rows[0] != rows[3]
        assert (rows[0].cpm, rows[0].candidates_forwarded) == (
            rows[1].cpm, rows[1].candidates_forwarded)
        assert rows[1].candidates_forwarded == rows[2].candidates_forwarded == 2
        assert rows[3].candidates_forwarded == 0

    def test_fixture_strictly_decreasing_and_matches_per_threshold_oracle(self):
        cands, refs = sweep_fixture()
        rows = sweep_cade(cands, refs, CADE_PRESET_THRESHOLDS)
        forwarded = [r.candidates_forwarded for r in rows]
        assert all(b < a for a, b in zip(forwarded, forwarded[1:]))
        missed = [r.missed for r in rows]
        assert all(b >= a for a, b in zip(missed, missed[1:]))

        scan_ids = {c.scan_id for c in cands} | {r.scan_id for r in refs}
        for row in rows:
            kept = [c for c in cands if c.score >= row.threshold]
            result = match_lesions(kept, refs, scan_ids=scan_ids)
            assert row.candidates_forwarded == result.n_candidates
            assert row.missed == result.n_references - result.n_detected
            assert row.cpm == pytest.approx(cpm(froc_curve(result)), abs=1e-15)

    def test_fixture_matches_full_froc_oracle_per_threshold(self):
        cands, refs = sweep_fixture()
        scan_data = {}
        for c in cands:
            scan_data.setdefault(c.scan_id, ([], []))[0].append(
                (c.candidate_id, c.center.as_tuple(), c.score)
            )
        for r in refs:
            scan_data.setdefault(r.scan_id, ([], []))[1].append(
                (r.nodule_id, r.center.as_tuple(), r.diameter_mm)
            )
        rows = sweep_cade(cands, refs, [0.05, 0.25, 0.45])
        for row in rows:
            filtered = {
                scan: ([c for c in cands_t if c[2] >= row.threshold], refs_t)
                for scan, (cands_t, refs_t) in scan_data.items()
            }
            oracle = oracle_froc(filtered, FP_RATES)
            assert row.cpm == pytest.approx(sum(oracle) / 7, abs=1e-12)

    def test_threshold_below_min_score_reproduces_unfiltered_evaluation(self):
        cands, refs = cpm_fixture()
        (row,) = sweep_cade(cands, refs, [0.0])
        result = match_lesions(cands, refs)
        assert row.candidates_forwarded == result.n_candidates
        assert row.missed == result.n_references - result.n_detected
        assert row.cpm == cpm(froc_curve(result))

    def test_rows_equal_per_threshold_oracle(self):
        checked = 0
        for k, tied in enumerate((True, False, True, False)):
            rng = np.random.default_rng([31, k])
            for _ in range(10):
                cands, refs = random_cohort(rng, 8, tied)
                if not refs:
                    continue
                scan_ids = {f"s{j:02d}" for j in range(8)}
                result = match_lesions(cands, refs, scan_ids=scan_ids)
                grid = sorted({c.score for c in cands})
                between = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
                thresholds = [0.0, 1.0, 0.95, *grid[:3], *between[:3]]
                for rates in (FP_RATES, (0.5, 2.0, 3.0)):
                    rows = sweep_cade(cands, refs, thresholds, rates, scan_ids=scan_ids)
                    assert rows == oracle_sweep_cade(result, thresholds, rates)
                checked += 1
        assert checked > 30

    def test_zero_references_rejected(self):
        with pytest.raises(InputError):
            sweep_cade([cand("s", "c", 0, 0, 0, 0.5)], [], [0.1])

    def test_presets(self):
        assert CADX_PRESET_THRESHOLDS == (0.02, 0.03, 0.04, 0.08, 0.10)
        assert CADE_PRESET_THRESHOLDS[0] == 0.05
        assert CADE_PRESET_THRESHOLDS[-1] == 0.50
        assert len(CADE_PRESET_THRESHOLDS) == 10
