import dataclasses
import gc
import math
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trifuse
from trifuse import domain, fusion
from trifuse.domain import PAIR_BLOCK, CandidateTable, PipelineConfig, WorldPoint
from trifuse.errors import InputError, InvariantError, ScorerError
from trifuse.fileio import read_cadx_scores, read_candidates, write_fused_csv
from trifuse.fusion import (
    CadxScores,
    CadxScoreTable,
    CommandCadxProvider,
    FileCadxProvider,
    FusedCandidate,
    cross_detector_consensus,
    ensemble_cadx,
    fuse_scans,
    run_tri_stage,
    suppress_same_model_duplicates,
)
from trifuse.volume import Volume, extract_patch

from conftest import cand
from oracles import (
    oracle_cross_detector_consensus,
    oracle_run_tri_stage,
    oracle_suppress_same_model_duplicates,
    oracle_write_fused_csv,
)


def a_cand(cid, x, y, z, score, scan="s", diameter=None):
    return cand(scan, cid, x, y, z, score, model="CADE_A", diameter=diameter)


def b_cand(cid, x, y, z, score, scan="s", diameter=None):
    return cand(scan, cid, x, y, z, score, model="CADE_B", diameter=diameter)


def constant_provider(p_luna, p_dlcs):
    return lambda candidate: CadxScores(p_luna=p_luna, p_dlcs=p_dlcs)


def score_table(keys, p_luna, p_dlcs):
    """The ``CadxScoreTable`` of (scan, model, candidate id) keys and their scores."""
    return CadxScoreTable(*([key[i] for key in keys] for i in range(3)), p_luna, p_dlcs)


def python_scorer(tmp_path, body):
    """A scorer command that runs ``body`` with the patch header path it reads
    in ``header`` and the tested trifuse importable."""
    script = tmp_path / "scorer.py"
    script.write_text(f"import sys\nsys.path.insert(0, {str(Path(trifuse.__file__).parents[1])!r})\n"
                      "header = sys.stdin.readline().strip()\n" + body)
    return shlex.join([sys.executable, str(script)])


@pytest.fixture
def spawned(monkeypatch):
    """Every scorer process started during the test, to check each was waited for."""
    processes = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        processes.append(popen(*args, **kwargs))
        return processes[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return processes


def hashed_provider(candidate):
    """Deterministic pseudo-scores derived from the candidate identity."""
    h = abs(hash(("cadx", candidate.scan_id, candidate.source_model, candidate.candidate_id)))
    return CadxScores(p_luna=(h % 1000) / 999.0, p_dlcs=((h // 1000) % 1000) / 999.0)


class TestEnsembleCadx:
    def test_mean(self):
        assert ensemble_cadx(CadxScores(0.2, 0.4)) == pytest.approx(0.3)

    def test_idempotent_on_equal_inputs(self):
        assert ensemble_cadx(CadxScores(1.0, 1.0)) == 1.0

    def test_boundary_promotes_at_default_threshold(self):
        avg = ensemble_cadx(CadxScores(0.05, 0.15))
        assert avg == pytest.approx(0.10)
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.5)], [], cadx_provider=constant_provider(0.05, 0.15)
        )
        assert result.fused[0].confidence_tier == 0.5

    def test_scores_validated(self):
        with pytest.raises(InputError):
            CadxScores(1.2, 0.4)
        with pytest.raises(InputError):
            CadxScores(0.4, -0.1)


class TestConsensus:
    def test_identical_candidate_pairs(self):
        pairs, disagreements = cross_detector_consensus(
            [a_cand("a1", 5, 5, 5, 0.7)], [b_cand("b1", 5, 5, 5, 0.7)]
        )
        assert len(pairs) == 1 and not disagreements
        assert pairs[0].merged_center == WorldPoint(5, 5, 5)
        assert pairs[0].merged_score == pytest.approx(0.7)

    def test_far_candidates_disagree(self):
        pairs, disagreements = cross_detector_consensus(
            [a_cand("a1", 0, 0, 0, 0.7)], [b_cand("b1", 100, 0, 0, 0.7)]
        )
        assert not pairs and len(disagreements) == 2

    def test_greedy_picks_max_score_sum(self):
        # a1/b1 sum 1.8 wins over a2/b1 sum 1.7; a2 is left unpaired
        pairs, disagreements = cross_detector_consensus(
            [a_cand("a1", 0, 0, 0, 0.9), a_cand("a2", 0, 0, 3, 0.8)],
            [b_cand("b1", 0, 0, 1, 0.9)],
        )
        assert len(pairs) == 1
        assert pairs[0].member_a.candidate_id == "a1"
        assert [c.candidate_id for c in disagreements] == ["a2"]

    def test_merged_center_is_score_weighted(self):
        pairs, _ = cross_detector_consensus(
            [a_cand("a1", 0, 0, 0, 0.9)], [b_cand("b1", 3, 0, 0, 0.3)]
        )
        assert pairs[0].merged_center.x == pytest.approx(0.75)

    def test_mixed_scans_pair_within_each_scan(self):
        # candidates on different scans never pair, however close
        pairs, disagreements = cross_detector_consensus(
            [a_cand("a1", 0, 0, 0, 0.5, scan="s1")],
            [b_cand("b1", 0, 0, 0, 0.5, scan="s2")],
        )
        assert not pairs
        assert [(c.scan_id, c.qualified_id) for c in disagreements] == [
            ("s1", "CADE_A:a1"), ("s2", "CADE_B:b1")]

    def test_same_model_lists_rejected(self):
        with pytest.raises(InputError):
            cross_detector_consensus(
                [a_cand("a1", 0, 0, 0, 0.5)], [a_cand("a2", 0, 0, 0, 0.5)]
            )

    def test_adaptive_radius_uses_diameters(self):
        # 6 mm apart: flat 5 mm radius misses, 16 mm diameters widen to 5 -> still 5
        # (tolerance caps at 5) so only a configured larger fixed radius pairs them
        apart = [a_cand("a1", 0, 0, 0, 0.5, diameter=16.0)], [b_cand("b1", 6, 0, 0, 0.5, diameter=16.0)]
        pairs, _ = cross_detector_consensus(*apart)
        assert not pairs
        cfg = PipelineConfig(consensus_radius_policy="fixed", consensus_radius_mm=7.0)
        pairs, _ = cross_detector_consensus(*apart, cfg=cfg)
        assert len(pairs) == 1


class TestDedup:
    def test_near_duplicates_keep_best(self):
        kept, absorbed = suppress_same_model_duplicates(
            [a_cand("a1", 0, 0, 0, 0.9), a_cand("a2", 1, 0, 0, 0.8)], radius_mm=2.0
        )
        assert [c.candidate_id for c in kept] == ["a1"]
        assert absorbed == {"CADE_A:a2": "CADE_A:a1"}

    def test_separated_candidates_survive(self):
        kept, absorbed = suppress_same_model_duplicates(
            [a_cand("a1", 0, 0, 0, 0.9), a_cand("a2", 3, 0, 0, 0.8)], radius_mm=2.0
        )
        assert len(kept) == 2 and not absorbed

    def test_chain_does_not_absorb_transitively(self):
        kept, absorbed = suppress_same_model_duplicates(
            [
                a_cand("a1", 0, 0, 0, 0.9),
                a_cand("a2", 2, 0, 0, 0.8),
                a_cand("a3", 4, 0, 0, 0.7),
            ],
            radius_mm=2.0,
        )
        assert [c.candidate_id for c in kept] == ["a1", "a3"]
        assert absorbed == {"CADE_A:a2": "CADE_A:a1"}

    def test_candidates_on_other_scans_are_never_absorbed(self):
        # s2's a2 lies 0.5 mm from s1's a1, on another scan
        kept, absorbed = suppress_same_model_duplicates(
            [a_cand("a1", 0, 0, 0, 0.9, scan="s1"), a_cand("a2", 0.5, 0, 0, 0.8, scan="s2")],
            radius_mm=2.0)
        assert [(c.scan_id, c.candidate_id) for c in kept] == [("s1", "a1"), ("s2", "a2")]
        assert absorbed == {}
        # across scans the map is keyed by (scan, qualified id), since ids repeat
        kept, absorbed = suppress_same_model_duplicates(
            [a_cand("a1", 0, 0, 0, 0.9, scan="s2"), a_cand("a2", 1, 0, 0, 0.8, scan="s2"),
             a_cand("a1", 0, 0, 0, 0.5, scan="s1"), a_cand("a2", 1, 0, 0, 0.6, scan="s1")],
            radius_mm=2.0)
        assert [(c.scan_id, c.candidate_id) for c in kept] == [("s1", "a2"), ("s2", "a1")]
        assert absorbed == {("s1", "CADE_A:a1"): "CADE_A:a2", ("s2", "CADE_A:a2"): "CADE_A:a1"}
        assert absorbed.rows.tolist() == [2, 1] and absorbed.survivors.tolist() == [3, 0]


class TestTriStage:
    def test_pair_gets_tier_one_regardless_of_scores(self):
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.01)], [b_cand("b1", 0, 0, 0, 0.02)]
        )
        assert len(result.fused) == 1
        fused = result.fused[0]
        assert fused.confidence_tier == 1.0 and fused.stage == "consensus"
        assert fused.cadx_avg is None

    def test_disagreement_promoted_by_cadx(self):
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.5)], [], cadx_provider=constant_provider(0.6, 0.4)
        )
        fused = result.fused[0]
        assert fused.confidence_tier == 0.5 and fused.stage == "cadx_promoted"
        assert fused.cadx_avg == pytest.approx(0.5)
        assert fused.cade_score_avg == pytest.approx(0.5)

    def test_disagreement_retained_by_cade(self):
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.25)], [], cadx_provider=constant_provider(0.05, 0.05)
        )
        fused = result.fused[0]
        assert fused.confidence_tier == 0.2 and fused.stage == "cade_refined"
        assert fused.cadx_avg is None

    def test_disagreement_rejected_below_both(self):
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.10)], [], cadx_provider=constant_provider(0.05, 0.05)
        )
        assert not result.fused
        assert result.dispositions == {"CADE_A:a1": "rejected"}

    def test_provider_failure_names_candidate(self):
        def broken(candidate):
            raise RuntimeError("backend offline")

        with pytest.raises(ScorerError, match="CADE_A:a1"):
            run_tri_stage([a_cand("a1", 0, 0, 0, 0.9)], [], cadx_provider=broken)

    def test_missing_provider_with_disagreement(self):
        with pytest.raises(ScorerError, match="CADE_A:a1"):
            run_tri_stage([a_cand("a1", 0, 0, 0, 0.9)], [])

    def test_mask_gating_rejects_outside_lung(self):
        values = np.zeros((10, 10, 10), dtype=np.uint8)
        values[2, 2, 2] = 28
        mask = Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(0, 0, 0))
        result = run_tri_stage(
            [a_cand("a1", 2, 2, 2, 0.9), a_cand("a2", 8, 8, 8, 0.9)],
            [b_cand("b1", 2, 2, 2, 0.9)],
            mask=mask,
        )
        assert result.dispositions["CADE_A:a2"] == "mask_rejected"
        assert result.dispositions["CADE_A:a1"] == "pair_member"
        assert len(result.fused) == 1

    def test_output_sorted_by_tier_then_score(self):
        result = run_tri_stage(
            [
                a_cand("a1", 0, 0, 0, 0.3),
                a_cand("a2", 20, 0, 0, 0.9),
                a_cand("a3", 40, 0, 0, 0.8),
            ],
            [b_cand("b1", 0, 0, 0, 0.5)],
            cadx_provider=constant_provider(0.5, 0.5),
        )
        tiers = [f.confidence_tier for f in result.fused]
        scores = [f.cade_score_avg for f in result.fused]
        assert tiers == [1.0, 0.5, 0.5]
        assert scores == [0.4, 0.9, 0.8]

    def test_duplicate_absorbed_into_pair_provenance(self):
        result = run_tri_stage(
            [a_cand("a1", 0, 0, 0, 0.9), a_cand("a2", 1, 0, 0, 0.5)],
            [b_cand("b1", 0, 0, 0, 0.9)],
        )
        assert len(result.fused) == 1
        assert result.fused[0].provenance == ("CADE_A:a1", "CADE_A:a2", "CADE_B:b1")
        assert result.dispositions["CADE_A:a2"] == "rejected"
        assert result.duplicate_of == {"CADE_A:a2": "CADE_A:a1"}

    def test_empty_inputs(self):
        result = run_tri_stage([], [])
        assert result.fused == ()
        assert result.dispositions == {}


def random_scan(rng, scan="s"):
    n_a = int(rng.integers(0, 7))
    n_b = int(rng.integers(0, 7))
    mk = lambda model, prefix, i: cand(
        scan,
        f"{prefix}{i}",
        *[float(v) for v in rng.uniform(0, 60, size=3)],
        float(rng.uniform(0, 1)),
        model=model,
        diameter=float(rng.uniform(2, 25)) if rng.random() < 0.5 else None,
    )
    return (
        [mk("CADE_A", "a", i) for i in range(n_a)],
        [mk("CADE_B", "b", i) for i in range(n_b)],
    )


class TestTriStageProperties:
    def test_partition_completeness(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            list_a, list_b = random_scan(rng)
            result = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider)
            counts = result.disposition_counts()
            assert counts["pair_member"] % 2 == 0
            assert sum(counts.values()) == len(list_a) + len(list_b)
            n_pairs = sum(1 for f in result.fused if f.stage == "consensus")
            assert counts["pair_member"] == 2 * n_pairs

    def test_tier_one_membership_independent_of_thresholds(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            list_a, list_b = random_scan(rng)
            tier1 = None
            for tau_cadx, tau_cade in ((0.0, 0.0), (0.3, 0.1), (0.9, 0.9)):
                cfg = PipelineConfig(tau_cadx=tau_cadx, tau_cade=tau_cade)
                result = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider, cfg=cfg)
                current = {
                    f.provenance for f in result.fused if f.confidence_tier == 1.0
                }
                if tier1 is None:
                    tier1 = current
                assert current == tier1

    def test_zero_thresholds_forward_everything(self):
        rng = np.random.default_rng(13)
        cfg = PipelineConfig(tau_cadx=0.0, tau_cade=0.0)
        for _ in range(50):
            list_a, list_b = random_scan(rng)
            result = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider, cfg=cfg)
            forwarded = {qid for f in result.fused for qid in f.provenance}
            expected = {c.qualified_id for c in list_a + list_b}
            assert forwarded == expected

    def test_fused_candidates_pass_their_own_checks(self):
        # every row of a fused table reads as a FusedCandidate, built by the
        # validating constructor; building it again changes nothing
        rng = np.random.default_rng(16)
        for _ in range(100):
            list_a, list_b = random_scan(rng)
            result = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider)
            assert [dataclasses.replace(f) for f in result.fused] == list(result.fused)

    def test_direct_construction_still_validates(self):
        fields = dict(scan_id="s", center=WorldPoint(0, 0, 0), confidence_tier=1.0,
                      stage="consensus", cade_score_avg=0.5, provenance=("CADE_A:a1",))
        FusedCandidate(**fields)
        with pytest.raises(InvariantError, match="inconsistent with stage"):
            FusedCandidate(**{**fields, "confidence_tier": 0.5})
        with pytest.raises(InvariantError, match="cadx_avg"):
            FusedCandidate(**{**fields, "cadx_avg": 0.3})
        with pytest.raises(InputError):
            FusedCandidate(**{**fields, "cade_score_avg": 1.5})

    def test_raising_tau_cade_never_grows_output(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            list_a, list_b = random_scan(rng)
            sizes = []
            for tau in (0.0, 0.2, 0.5, 0.9):
                cfg = PipelineConfig(tau_cade=tau)
                result = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider, cfg=cfg)
                sizes.append(len(result.fused))
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(15)
        list_a, list_b = random_scan(rng)
        r1 = run_tri_stage(list_a, list_b, cadx_provider=hashed_provider)
        r2 = run_tri_stage(list(reversed(list_a)), list(reversed(list_b)),
                           cadx_provider=hashed_provider)
        assert r1.fused == r2.fused
        assert r1.dispositions == r2.dispositions


# offsets whose length sits on or next to a pairing radius: exact 3-4-5
# triangles, scaled ones whose squares round in the last bit, and (3, 4, 6e-8),
# whose squared length is the double after 25 but whose length rounds to 5.0
BOUNDARY_OFFSETS = (
    (3.0, 4.0, 0.0), (0.0, 3.0, 4.0), (4.0, 0.0, 3.0), (0.0, 0.0, 5.0), (0.0, 0.0, 2.0),
    (0.0, 0.0, 3.0), (1.2, 1.6, 0.0), (0.6, 0.8, 0.0), (1.8, 2.4, 0.0), (2.7, 3.6, 0.0),
    (0.0, 1.5, 2.0), (0.0, 0.0, 4.5), (3.0, 4.0, 6e-8), (3.0, 4.0, 1e-7),
    (2.9999999999999996, 4.0, 0.0),
)
PAIRING_CONFIGS = (
    PipelineConfig(),
    PipelineConfig(consensus_radius_policy="fixed"),
    PipelineConfig(consensus_radius_mm=3.0),
    PipelineConfig(consensus_radius_policy="fixed", consensus_radius_mm=3.0),
    PipelineConfig(consensus_radius_mm=4.5),
    PipelineConfig(consensus_radius_policy="fixed", consensus_radius_mm=2.5),
    PipelineConfig(consensus_radius_mm=7.0),
)
DEDUP_RADII = (1.0, 2.0, 2.5, 3.0, 5.0)


def boundary_scan(rng):
    """Two detector lists around shared anchors, many pairs exactly at a radius.

    Scores come from four values and ids from one pool shared by both lists,
    so greedy pairing and dedup meet ties in score and in id; either list
    may be empty.
    """
    anchors = [rng.integers(-20, 20, size=3).astype(float) for _ in range(3)]
    anchors.append(rng.uniform(-20.0, 20.0, size=3))

    def one_list(model):
        n = int(rng.choice([0, 1, 2, 5, 9, 14]))
        ids = rng.permutation(16)[:n]
        out = []
        for cid in ids:
            center = anchors[int(rng.integers(len(anchors)))].copy()
            if rng.random() < 0.8:
                offset = np.array(BOUNDARY_OFFSETS[int(rng.integers(len(BOUNDARY_OFFSETS)))])
                center += offset[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            else:
                center += rng.normal(0.0, 2.0, size=3)
            diameter = rng.choice([0.0, 3.0, 6.0, 9.5, 10.0, 12.0, 16.0])
            out.append(cand("s", f"c{cid}", *map(float, center),
                            float(rng.choice([0.25, 0.5, 0.75, 0.9])), model=model,
                            diameter=float(diameter) or None))
        return out

    return one_list("CADE_A"), one_list("CADE_B")


class TestPairingAgainstOracle:
    """The windowed pairing and dedup against the all-pairs scalar loops."""

    def test_seeded_boundary_scans(self):
        rng = np.random.default_rng(41)
        admitted_at_radius = 0
        for _ in range(250):
            list_a, list_b = boundary_scan(rng)
            for cfg in PAIRING_CONFIGS:
                got = cross_detector_consensus(list_a, list_b, cfg)
                expected = oracle_cross_detector_consensus(list_a, list_b, cfg)
                assert got == expected
                # record input gives table-backed pairs that index and iterate as a list
                pairs = got[0]
                assert [pairs[k] for k in range(len(pairs))] == list(pairs) == expected[0]
                admitted_at_radius += sum(
                    p.member_a.center.distance_to(p.member_b.center) == cfg.consensus_radius_mm
                    for p in got[0]
                )
            for candidates in (list_a, list_b):
                for radius in DEDUP_RADII:
                    got = suppress_same_model_duplicates(candidates, radius)
                    expected = oracle_suppress_same_model_duplicates(candidates, radius)
                    assert got == expected
                    kept = got[0]
                    assert [kept[k] for k in range(len(kept))] == list(kept) == expected[0]
                    assert kept[-1:] == expected[0][-1:]
        assert admitted_at_radius > 0

    def test_exact_radius_is_inclusive(self):
        fixed = PipelineConfig(consensus_radius_policy="fixed")
        a = [a_cand("a1", 0, 0, 0, 0.5)]
        for pairing in (cross_detector_consensus, oracle_cross_detector_consensus):
            assert len(pairing(a, [b_cand("b1", 3, 4, 0, 0.5)], fixed)[0]) == 1
            # squared length 25 + 1 ulp, length 5.0: a squared-distance test
            # without slack would drop this pair
            assert len(pairing(a, [b_cand("b1", 3, 4, 6e-8, 0.5)], fixed)[0]) == 1
            assert pairing(a, [b_cand("b1", 3, 4, 1e-7, 0.5)], fixed)[0] == []
        for dedup in (suppress_same_model_duplicates, oracle_suppress_same_model_duplicates):
            kept, _ = dedup([a_cand("a1", 0, 0, 0, 0.9), a_cand("a2", 0, 1.2, 1.6, 0.5)], 2.0)
            assert len(kept) == (1 if math.sqrt(1.2 ** 2 + 1.6 ** 2) <= 2.0 else 2)

    def test_pair_at_an_ieee_exact_radius(self):
        # A and B are this far apart with each difference squared by
        # multiplication; squaring with ** 2 (libm's pow) gave one ulp more on glibc
        a_xyz, b_xyz = (9.359, -135.456, -107.058), (12.616, -133.518, -109.969)
        radius = 4.778892549534868
        fixed = PipelineConfig(consensus_radius_policy="fixed", consensus_radius_mm=radius)
        a, b = [a_cand("a1", *a_xyz, 0.9)], [b_cand("b1", *b_xyz, 0.5)]
        for pairing in (cross_detector_consensus, oracle_cross_detector_consensus):
            pairs, singles = pairing(a, b, fixed)
            assert (len(pairs), len(singles)) == (1, 0)
        result = run_tri_stage(a + [a_cand("a2", *b_xyz, 0.5)], [],
                               cadx_provider=constant_provider(0.5, 0.5),
                               cfg=PipelineConfig(dedup_radius_mm=radius))
        assert result.duplicate_of == {"CADE_A:a2": "CADE_A:a1"}

    def test_empty_and_one_sided_lists(self):
        one = [a_cand("a1", 0, 0, 0, 0.5), a_cand("a2", 1, 0, 0, 0.5)]
        for list_a, list_b in (([], []), (one, []), ([], [b_cand("b1", 0, 0, 0, 0.5)])):
            assert cross_detector_consensus(list_a, list_b) == (
                oracle_cross_detector_consensus(list_a, list_b)
            )
        assert suppress_same_model_duplicates([], 2.0) == ([], {})

    def test_adaptive_radius_widens_to_the_capped_tolerance(self):
        # diameters of 10 mm and up give a 5 mm matching tolerance, above the
        # configured 3 mm base radius: only the adaptive policy pairs 4.5 mm
        apart = ([a_cand("a1", 0, 0, 0, 0.5, diameter=10.0)],
                 [b_cand("b1", 0, 0, 4.5, 0.5, diameter=12.0)])
        adaptive = PipelineConfig(consensus_radius_policy="adaptive", consensus_radius_mm=3.0)
        fixed = PipelineConfig(consensus_radius_policy="fixed", consensus_radius_mm=3.0)
        for pairing in (cross_detector_consensus, oracle_cross_detector_consensus):
            assert len(pairing(*apart, cfg=adaptive)[0]) == 1
            assert pairing(*apart, cfg=fixed)[0] == []


def recording_provider(fail_at=None, wrong_type_at=None):
    """A provider whose scores spread around the default thresholds, and the
    keys it was called with, in call order. It raises at call ``fail_at`` and
    returns a non-score at call ``wrong_type_at``."""
    calls = []

    def provider(candidate):
        calls.append(candidate.key)
        if len(calls) == fail_at:
            raise RuntimeError("backend offline")
        if len(calls) == wrong_type_at:
            return (0.5, 0.5)
        code = sum(map(ord, candidate.qualified_id)) + int(candidate.score * 97)
        return CadxScores(p_luna=(code % 7) / 20.0, p_dlcs=(code % 5) / 25.0)

    return provider, calls


def lung_mask():
    """Lobe labels over x < 0 of a 60 mm cube centered on the origin."""
    values = np.zeros((60, 60, 60), dtype=np.uint8)
    values[:30] = 28
    return Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(-30, -30, -30))


def zero_score_scan(rng):
    """Pairs and dedup chains whose members all score 0: the midpoint and
    mean-diameter branches of the merge."""
    a, b = boundary_scan(rng)
    a = [dataclasses.replace(c, score=0.0) if i % 2 == 0 else c for i, c in enumerate(a)]
    b = [dataclasses.replace(c, score=0.0) for c in b]
    return a, b


class TestTriStageAgainstOracle:
    """The table-row tri-stage fusion against the record loops it replaced."""

    def assert_same(self, list_a, list_b, cfg=None, mask=None, **provider_args):
        provider, calls = recording_provider(**provider_args)
        oracle_provider, oracle_calls = recording_provider(**provider_args)
        inputs = ((list_a, list_b),
                  (CandidateTable.from_records(list_a), CandidateTable.from_records(list_b)))
        try:
            expected = oracle_run_tri_stage(list_a, list_b, oracle_provider, mask, cfg)
        except ScorerError as err:
            for given in inputs:
                calls.clear()
                with pytest.raises(ScorerError) as raised:
                    run_tri_stage(*given, cadx_provider=provider, mask=mask, cfg=cfg)
                assert str(raised.value) == str(err)
                assert calls == oracle_calls
            return "raised"
        for given in inputs:
            calls.clear()
            got = run_tri_stage(*given, cadx_provider=provider, mask=mask, cfg=cfg)
            assert got.fused == expected.fused
            assert got.dispositions == expected.dispositions
            assert list(got.dispositions) == list(expected.dispositions)
            assert got.duplicate_of == expected.duplicate_of
            assert list(got.duplicate_of) == list(expected.duplicate_of)
            assert calls == oracle_calls
        return expected

    def test_seeded_boundary_scans(self):
        rng = np.random.default_rng(43)
        pairs = duplicates = 0
        configs = (*PAIRING_CONFIGS[:4], PipelineConfig(dedup_radius_mm=5.0))
        for _ in range(120):
            list_a, list_b = boundary_scan(rng)
            for cfg in configs:
                result = self.assert_same(list_a, list_b, cfg)
                pairs += result.disposition_counts()["pair_member"]
                duplicates += len(result.duplicate_of)
        assert pairs > 0 and duplicates > 0

    def test_zero_scores_and_missing_diameters(self):
        rng = np.random.default_rng(44)
        zero_pairs = 0
        for _ in range(80):
            list_a, list_b = zero_score_scan(rng)
            for cfg in PAIRING_CONFIGS[:2]:
                result = self.assert_same(list_a, list_b, cfg)
                zero_pairs += sum(f.stage == "consensus" and f.cade_score_avg == 0.0
                                  for f in result.fused)
        assert zero_pairs > 0

    def test_mask_gate(self):
        rng = np.random.default_rng(45)
        mask = lung_mask()
        rejected = 0
        for _ in range(60):
            list_a, list_b = boundary_scan(rng)
            result = self.assert_same(list_a, list_b, mask=mask)
            rejected += result.disposition_counts()["mask_rejected"]
        assert rejected > 0

    def test_empty_and_one_sided_scans(self):
        one = [a_cand("a1", 0, 0, 0, 0.5), a_cand("a2", 1, 0, 0, 0.5, diameter=6.0)]
        for list_a, list_b in (([], []), (one, []), ([], [b_cand("b1", 0, 0, 0, 0.5)])):
            self.assert_same(list_a, list_b)

    def test_provider_failures_raise_the_same_error(self):
        rng = np.random.default_rng(46)
        raised = 0
        for trial in range(40):
            list_a, list_b = boundary_scan(rng)
            for args in ({"fail_at": 1 + trial % 3}, {"wrong_type_at": 1 + trial % 4}):
                raised += self.assert_same(list_a, list_b, **args) == "raised"
        assert raised > 0

    def test_fuse_scans_runs_every_scan_on_table_rows(self):
        """One pass over the cohort gives every scan the oracle's result for
        that scan alone: a scan whose pair tests exceed one block, scans in
        only one list, the same ids on every scan, and empty lists."""
        rng = np.random.default_rng(47)
        scans = []
        for s in range(8):
            a, b = boundary_scan(rng)
            scans.append(([dataclasses.replace(c, scan_id=f"s{s}") for c in a],
                          [dataclasses.replace(c, scan_id=f"s{s}") for c in b]))
        ids = [f"c{k}" for k in range(12)]
        scans.append(([a_cand(c, 0, k, 0, 0.5, scan="only_a") for k, c in enumerate(ids)], []))
        scans.append(([], [b_cand(c, 0, k, 0, 0.5, scan="only_b") for k, c in enumerate(ids)]))
        # every row of the big scan sits at x = 0, so each meets every row of
        # its scan in the x window: more tests than one block
        big = [[cand("big", f"c{k}", 0.0, *map(float, rng.uniform(0, 60, 2)),
                     float(rng.choice([0.25, 0.5, 0.9])), model=model)
                for k in range(300)] for model in ("CADE_A", "CADE_B")]
        assert len(big[0]) * len(big[1]) > PAIR_BLOCK
        scans.append(tuple(big))
        for cohort in (scans, [(a, []) for a, _ in scans], [([], b) for _, b in scans], []):
            self.assert_cohort_matches_oracle(cohort, rng)

    @staticmethod
    def assert_cohort_matches_oracle(scans, rng):
        provider, calls = recording_provider()
        oracle_provider, oracle_calls = recording_provider()
        scans = sorted((ab for ab in scans if ab[0] or ab[1]),
                       key=lambda ab: (ab[0] + ab[1])[0].scan_id)
        expected = [oracle_run_tri_stage(a, b, oracle_provider) for a, b in scans]
        list_a = [c for a, _ in scans for c in a]
        list_b = [c for _, b in scans for c in b]
        shuffled = [list_a[k] for k in rng.permutation(len(list_a))]  # scans interleaved
        got = fuse_scans(CandidateTable.from_records(shuffled),
                         CandidateTable.from_records(list_b), cadx_provider=provider)
        assert got.fused == [f for e in expected for f in e.fused]
        assert got.scan_ids == [e.scan_id for e in expected] == list(got.per_scan)
        assert list(got.per_scan.values()) == expected
        for result, oracle in zip(got.per_scan.values(), expected):
            assert list(result.dispositions.items()) == list(oracle.dispositions.items())
            assert list(result.duplicate_of.items()) == list(oracle.duplicate_of.items())
        assert calls == oracle_calls


def edge_scan(rng, scan):
    """Two detector lists on the edges of columnar fusion.

    Candidates of list A sit on anchors, some with a near-duplicate whose id
    holds the provenance separator; list B pairs some anchors (every one,
    none, or B is empty, by turns). Scores and diameters come from few
    values, so pairs score 0 (the midpoint) or lack one or both diameters
    and fused rows tie in (tier, score); anchors lie on both sides of
    ``lung_mask``.
    """
    kind = int(rng.integers(4))  # 0: some pairs, 1: every anchor paired, 2: no pairs, 3: no B
    anchors = rng.uniform(-25.0, 25.0, size=(int(rng.integers(1, 8)), 3))
    scores, diameters = (0.0, 0.0, 0.2, 0.5, 0.9), (None, None, 4.0, 12.0)
    list_a, list_b = [], []
    for k, anchor in enumerate(anchors.tolist()):
        score = float(rng.choice(scores))
        list_a.append(cand(scan, f"a{k}", *anchor, score, model="CADE_A",
                           diameter=diameters[int(rng.integers(4))]))
        if rng.random() < 0.3:
            list_a.append(cand(scan, f"d{k}|{k}", anchor[0] + 0.5, *anchor[1:], score,
                               model="CADE_A"))
        if kind == 1 or (kind == 0 and rng.random() < 0.6):
            list_b.append(cand(scan, f"b{k}", anchor[0], anchor[1] + 0.5, anchor[2],
                               float(rng.choice(scores)), model="CADE_B",
                               diameter=diameters[int(rng.integers(4))]))
        elif kind != 3:
            list_b.append(cand(scan, f"b{k}", anchor[0], anchor[1], anchor[2] + 40.0,
                               float(rng.choice(scores)), model="CADE_B"))
    return list_a, list_b


class TestColumnarFusionAgainstOracle:
    """The fused list as a table, scored by key join and written from its
    columns, against the record loops of fusion and the fused-list writer."""

    def test_seeded_edges(self, tmp_path):
        rng = np.random.default_rng(48)
        mask = lung_mask()
        seen = Counter()
        all_a, all_b, all_scores, expected_fused, masked = [], [], {}, [], set()
        for k in range(150):
            scan = f"s{k:03d}"
            list_a, list_b = edge_scan(rng, scan)
            keys = [c.key for c in list_a + list_b]
            scores = score_table(keys, *rng.choice([0.0, 0.05, 0.1, 0.3], size=(2, len(keys))))
            scan_mask = mask if k % 3 == 0 else None
            for provider in (FileCadxProvider(scores), FileCadxProvider(dict(scores.items())),
                             recording_provider()[0]):
                expected = oracle_run_tri_stage(list_a, list_b, provider, scan_mask)
                for given in ((list_a, list_b), (CandidateTable.from_records(list_a),
                                                 CandidateTable.from_records(list_b))):
                    got = run_tri_stage(*given, cadx_provider=provider, mask=scan_mask)
                    assert got == expected
                    assert list(got.dispositions) == list(expected.dispositions)
            expected = oracle_run_tri_stage(list_a, list_b, FileCadxProvider(scores), scan_mask)
            all_a += list_a
            all_b += list_b
            all_scores.update(scores.items())
            expected_fused += expected.fused
            masked |= {scan} if scan_mask else set()
            self.count_edges(seen, expected, {c.qualified_id: c for c in list_a + list_b})
        assert all(seen[edge] > 0 for edge in (
            "midpoint", "one diameter", "no diameter", "absorbed", "mask_rejected", "tie",
            "no disagreements", "no pairs")), seen

        keys = list(all_scores)
        scores = score_table(keys, np.array([all_scores[k].p_luna for k in keys]),
                             np.array([all_scores[k].p_dlcs for k in keys]))
        got = fuse_scans(all_a, all_b, FileCadxProvider(scores),
                         masks=lambda scan: mask if scan in masked else None)
        assert got.fused == expected_fused
        oracle_write_fused_csv(tmp_path / "expected.csv", expected_fused, "d1")
        for fused in (got.fused, expected_fused):
            write_fused_csv(tmp_path / "got.csv", fused, "d1")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @staticmethod
    def count_edges(seen, result, by_id):
        counts = result.disposition_counts()
        seen["mask_rejected"] += counts["mask_rejected"] > 0
        seen["no pairs"] += counts["pair_member"] == 0 and counts["promoted_cadx"] > 0
        singles = counts["promoted_cadx"] + counts["retained_cade"] + counts["rejected"]
        seen["no disagreements"] += (counts["pair_member"] > 0
                                     and singles == len(result.duplicate_of))
        seen["absorbed"] += any(q in result.duplicate_of for f in result.fused
                                for q in f.provenance)
        fused = list(result.fused)
        seen["tie"] += any((f.confidence_tier, f.cade_score_avg) == (g.confidence_tier,
                                                                      g.cade_score_avg)
                           for f, g in zip(fused, fused[1:]))
        for f in fused:
            if f.stage == "consensus":
                members = [by_id[q] for q in f.provenance if q not in result.duplicate_of]
                seen["midpoint"] += all(m.score == 0.0 for m in members)
                missing = sum(m.diameter_mm is None for m in members)
                seen[{0: "two diameters", 1: "one diameter", 2: "no diameter"}[missing]] += 1


class TestBatchFileProvider:
    """A ``FileCadxProvider`` scores a scan's disagreements in one call."""

    list_a = [a_cand("a1", 0, 0, 0, 0.5), a_cand("a2", 50, 0, 0, 0.5)]
    list_b = [b_cand("b1", 0, 0, 90, 0.5)]
    scored = {("s", "CADE_A", "a1"): CadxScores(0.25, 0.5)}

    def providers(self, scored):
        keys = list(scored)
        return (FileCadxProvider(dict(scored)), FileCadxProvider(score_table(
            keys, np.array([scored[k].p_luna for k in keys]),
            np.array([scored[k].p_dlcs for k in keys]))))

    def test_table_keys_rows_by_scan_and_model(self):
        # rows interleave scans and models; a repeated key means its last row
        keys = [("s1", "CADE_A", "a1"), ("s2", "CADE_A", "a1"), ("s1", "CADE_A", "a2"),
                ("s1", "CADE_B", "a1"), ("s2", "CADE_A", "a1")]
        table = score_table(keys, np.arange(5) / 8, np.zeros(5))
        assert len(table) == 4 and list(table) == [keys[0], keys[2], keys[3], keys[4]]
        assert table[("s2", "CADE_A", "a1")] == CadxScores(0.5, 0.0)
        assert ("s2", "CADE_B", "a1") not in table and ("s1", "CADE_A") not in table
        assert table.rows_of(["s1", "s1", "s1", "s2", "s9"], ["CADE_B"] + ["CADE_A"] * 4,
                             ["a1", "a2", "a1", "a1", "a1"]) == [3, 2, 0, 4, None]

    def test_join_gives_each_rows_scores_in_row_order(self):
        scored = {**self.scored, ("s", "CADE_A", "a2"): CadxScores(0.0, 1.0),
                  ("s", "CADE_B", "b1"): CadxScores(0.75, 0.125)}
        _, disagreements = cross_detector_consensus(self.list_a, self.list_b)
        for provider in self.providers(scored):
            p_luna, p_dlcs = provider(disagreements)
            assert p_luna.tolist() == [0.25, 0.0, 0.75]
            assert p_dlcs.tolist() == [0.5, 1.0, 0.125]

    def test_missing_key_names_the_first_missing_candidate_in_call_order(self):
        _, disagreements = cross_detector_consensus(self.list_a, self.list_b)
        message = "^no CADx scores on file for CADE_A:a2 on scan s$"
        for provider in self.providers(self.scored):
            with pytest.raises(ScorerError, match=message):
                provider(disagreements)
            with pytest.raises(ScorerError, match=message):
                run_tri_stage(self.list_a, self.list_b, cadx_provider=provider)

    def test_callable_provider_gets_one_record_per_disagreement_in_order(self):
        provider, calls = recording_provider()
        list_a = [a_cand("a3", 0, 0, 0, 0.5), a_cand("a2", 60, 0, 0, 0.5),
                  a_cand("a1", 30, 0, 0, 0.5)]
        list_b = [b_cand("b2", 0, 0, 0.5, 0.5), b_cand("b1", 0, 30, 0, 0.5)]
        run_tri_stage(list_b, list_a, cadx_provider=provider)
        assert calls == [("s", "CADE_A", "a1"), ("s", "CADE_A", "a2"), ("s", "CADE_B", "b1")]


class TestInputFaultsBeforeScoring:
    """Every input fault of a cohort is raised before its first scorer call."""

    def test_repeated_key_on_a_later_scan_beats_missing_scores(self):
        # s1 has no CADx scores, so scoring it would fail; s2 repeats a key
        table = CandidateTable(["s1", "s2", "s2"], ["a1", "a1", "a1"], ["CADE_A"] * 3,
                               np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]),
                               np.full(3, np.nan), np.full(3, 0.5))
        provider, calls = recording_provider(fail_at=1)
        files = FileCadxProvider({("s2", "CADE_A", "a1"): CadxScores(0.5, 0.5)})
        for given in (provider, files):
            with pytest.raises(InputError, match="duplicate candidate 'a1' for model 'CADE_A' "
                                                 "on scan 's2'"):
                fuse_scans(table, [], cadx_provider=given)
        assert calls == []
        with pytest.raises(ScorerError, match="CADE_A:a1 on scan s1"):
            fuse_scans(table.take([0, 1]), [], cadx_provider=files)

    def test_overflow_and_missing_mask_beat_scoring(self):
        # the score-weighted mean of two largest doubles rounds past the float range
        top = sys.float_info.max
        huge = [a_cand("a1", top, 0, 0, 0.01, scan="s2")], [b_cand("b1", top, 0, 0, 0.02, scan="s2")]
        scored = ([a_cand("a1", 0, 0, 0, 0.5, scan="s1")], [])
        provider, calls = recording_provider(fail_at=1)
        with pytest.raises(InputError, match="not finite"):
            fuse_scans(scored[0] + huge[0], huge[1], cadx_provider=provider)

        def masks(scan_id):
            if scan_id == "s2":
                raise InputError("no mask volume for scan 's2'")
            return lung_mask()

        with pytest.raises(InputError, match="no mask volume"):
            fuse_scans(scored[0] + [a_cand("a9", 0, 0, 0, 0.5, scan="s2")], [],
                       cadx_provider=provider, masks=masks)
        assert calls == []


class TestDuplicateKeys:
    """Two records of one detector that share a candidate id on a scan would
    end in one disposition between them, so fusion refuses them."""

    twice = [a_cand("a1", 0, 0, 0, 0.5), a_cand("a1", 50, 0, 0, 0.5)]
    message = "duplicate candidate 'a1' for model 'CADE_A' on scan 's'"

    def test_run_tri_stage_rejects_them(self):
        with pytest.raises(InputError, match=self.message):
            run_tri_stage(self.twice, [], cadx_provider=constant_provider(0.5, 0.5))

    def test_run_tri_stage_rejects_them_in_a_table_built_directly(self):
        # a table built from columns skips the check from_records makes
        table = CandidateTable(["s", "s"], ["a1", "a1"], ["CADE_A", "CADE_A"],
                               np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]),
                               np.full(2, np.nan), np.full(2, 0.5))
        for call in (lambda: run_tri_stage(table, [], cadx_provider=constant_provider(0.5, 0.5)),
                     lambda: fuse_scans(table, [], cadx_provider=constant_provider(0.5, 0.5))):
            with pytest.raises(InputError, match=self.message):
                call()

    def test_fuse_scans_rejects_them(self):
        with pytest.raises(InputError, match=self.message):
            fuse_scans(self.twice, [b_cand("b1", 0, 0, 0, 0.5)],
                       cadx_provider=constant_provider(0.5, 0.5))

    def test_consensus_and_dedup_reject_them_in_a_table_built_directly(self):
        # by row, consensus would commit a1-b1 and a1-b2, and dedup would absorb a1 into a1
        table = CandidateTable(["s", "s"], ["a1", "a1"], ["CADE_A", "CADE_A"],
                               np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]),
                               np.full(2, np.nan), np.full(2, 0.5))
        near = table.take([0, 0])
        near.score = np.array([0.6, 0.5])
        list_b = [b_cand("b1", 0, 0, 0, 0.5), b_cand("b2", 10, 0, 0, 0.5)]
        for call in (lambda: cross_detector_consensus(table, list_b),
                     lambda: cross_detector_consensus(list_b, table),
                     lambda: suppress_same_model_duplicates(near, radius_mm=2.0)):
            with pytest.raises(InputError, match=self.message):
                call()

    def test_a_checked_table_taken_at_a_repeated_row_is_checked_again(self):
        table = CandidateTable.from_records([a_cand("a1", 0, 0, 0, 0.5),
                                             a_cand("a2", 9, 0, 0, 0.5)])
        assert table.take([1, 0]).require_unique_keys().candidate_id == ["a2", "a1"]
        assert len(table.take([]).require_unique_keys()) == 0
        for rows in ([0, 1, 0], [0, -2]):  # -2 is row 0 again
            with pytest.raises(InputError, match=self.message):
                table.take(rows).require_unique_keys()

    def test_reader_tables_are_not_checked_again(self, tmp_path, monkeypatch):
        # the readers reject a repeated key with its line; fusion then does
        # not count the keys of their tables a second time
        checked = []
        real = domain.first_repeat

        def spy(*columns):
            checked.append(list(columns[-1]))
            return real(*columns)

        monkeypatch.setattr(domain, "first_repeat", spy)
        for name, ids in (("a", ["a1", "a2"]), ("b", ["b1"])):
            (tmp_path / f"{name}.csv").write_text(
                "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n" + "".join(
                    f"s,{c},{9 * i},0,0,,0.5,CADE_{name.upper()}\n" for i, c in enumerate(ids)))
        table_a, table_b = (read_candidates(tmp_path / f"{name}.csv") for name in "ab")
        fuse_scans(table_a, table_b, cadx_provider=constant_provider(0.5, 0.5))
        assert checked == []
        assert table_a.take([1, 0]).require_unique_keys() and checked == []
        CandidateTable.from_records(list(table_b))
        assert checked == [["b1"]]
        with pytest.raises(InputError, match=self.message):
            table_a.take([0, 1, 0]).require_unique_keys()
        assert checked == [["b1"], ["a1", "a2", "a1"]]


class TestFuseScans:
    def test_table_input_equals_record_input(self, tmp_path):
        rng = np.random.default_rng(17)
        list_a, list_b = [], []
        for s in range(6):
            a, b = random_scan(rng)
            list_a += [dataclasses.replace(c, scan_id=f"s{s}") for c in a]
            list_b += [dataclasses.replace(c, scan_id=f"s{s}") for c in b]
        order = rng.permutation(len(list_a))
        list_a = [list_a[i] for i in order]  # scans interleaved in the file
        expected = fuse_scans(list_a, list_b, cadx_provider=hashed_provider)
        tables = [CandidateTable.from_records(list_a), CandidateTable.from_records(list_b)]
        got = fuse_scans(*tables, cadx_provider=hashed_provider)
        assert got.fused == expected.fused
        assert got.per_scan == expected.per_scan

    def test_groups_by_scan_and_sorts(self):
        out = fuse_scans(
            [a_cand("a1", 0, 0, 0, 0.9, scan="s2"), a_cand("a1", 0, 0, 0, 0.9, scan="s1")],
            [b_cand("b1", 0, 0, 0, 0.9, scan="s2"), b_cand("b1", 0, 0, 0, 0.9, scan="s1")],
        )
        assert [f.scan_id for f in out.fused] == ["s1", "s2"]


class TestFusionMemory:
    """One fuse_scans call copies no cohort-sized table it can do without,
    and its output holds its codes, settled rows and dispositions in narrow
    arrays and one provenance tuple per qualified id."""

    def write_cohort(self, directory, n_scans=400, per_scan=25):
        """Two detector lists of ``n_scans * per_scan`` rows as a detector
        writes them, B proposing a third of A's points again a mm or so away
        and every tenth A row a near duplicate of the row before it, and the
        classifier scores of every row."""
        rng = np.random.default_rng(53)
        n = n_scans * per_scan
        xyz_a = rng.uniform(-150.0, 150.0, (n, 3))
        xyz_a[1::10] = xyz_a[0::10] + 0.5
        again = rng.random(n) < 0.3
        xyz_b = np.where(again[:, None], xyz_a + rng.uniform(-1.5, 1.5, (n, 3)),
                         rng.uniform(-150.0, 150.0, (n, 3)))
        paths = {}
        scores = ["scan_id,model,candidate_id,p_luna,p_dlcs\n"]
        for model, xyz in (("CADE_A", xyz_a), ("CADE_B", xyz_b)):
            lines = ["scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"]
            for i, ((x, y, z), d, p) in enumerate(zip(
                    xyz.tolist(), rng.uniform(3.0, 30.0, n).tolist(),
                    rng.uniform(0.05, 1.0, n).tolist())):
                scan, cid = f"scan{i // per_scan:04d}", f"c{i % per_scan:05d}"
                lines.append(f"{scan},{cid},{x:.3f},{y:.3f},{z:.3f},{d:.2f},{p:.4f},{model}\n")
                scores.append(f"{scan},{model},{cid},{p * 0.3:.4f},{p * 0.1:.4f}\n")
            paths[model] = directory / f"{model}.csv"
            paths[model].write_text("".join(lines))
        paths["cadx"] = directory / "cadx.csv"
        paths["cadx"].write_text("".join(scores))
        return paths

    def test_fuse_scans_peak_and_retained_bytes(self, tmp_path):
        # 10 000 rows a list on 400 scans. Under tracemalloc on CPython 3.11,
        # with the lists joined for pairing, intp codes, settled rows and
        # dispositions and a Python int per fused row for provenance, one call
        # peaked at 6.5 MB and its output kept 3.0 MB; with the disagreements
        # taken from both lists unjoined and narrow codes it peaks at 5.1 MB
        # and keeps 1.9 MB.
        paths = self.write_cohort(tmp_path)
        provider = FileCadxProvider(read_cadx_scores(paths["cadx"]))
        fuse_scans(read_candidates(paths["CADE_A"]), read_candidates(paths["CADE_B"]), provider)
        table_a, table_b = read_candidates(paths["CADE_A"]), read_candidates(paths["CADE_B"])
        gc.collect()
        tracemalloc.start()
        try:
            output = fuse_scans(table_a, table_b, provider)
            retained, peak = tracemalloc.get_traced_memory()  # bytes since start()
        finally:
            tracemalloc.stop()
        assert len(output.fused) > 8000
        assert peak < 5.8e6
        assert retained < 2.5e6


class TestProviders:
    def test_file_provider_missing_key(self):
        provider = FileCadxProvider({})
        with pytest.raises(ScorerError, match="CADE_A:a1"):
            provider(a_cand("a1", 0, 0, 0, 0.9))

    def test_file_provider_lookup(self):
        provider = FileCadxProvider({("s", "CADE_A", "a1"): CadxScores(0.2, 0.6)})
        assert provider(a_cand("a1", 0, 0, 0, 0.9)) == CadxScores(0.2, 0.6)

    def test_command_provider_round_trip(self, tmp_path):
        vol = Volume.from_array(
            np.full((20, 20, 20), 0.0, dtype="<f4"), (1.0, 1.0, 1.0), WorldPoint(0, 0, 0),
            "float32",
        )
        # the patch is removed once its scorer exits, so the scorer checks the
        # file handed over: it is loadable and normalized
        scorer = python_scorer(
            tmp_path,
            "from trifuse.volume import load_volume\n"
            "assert header.endswith('.hdr'), header\n"
            "patch_vol = load_volume(header)\n"
            "assert patch_vol.header.dims == (64, 64, 64), patch_vol.header.dims\n"
            "assert float(patch_vol.values.max()) <= 1.0\n"
            "print(0.25, 0.75)\n",
        )
        workdir = tmp_path / "patches"
        provider = CommandCadxProvider(scorer, volume_loader=lambda scan_id: vol, workdir=workdir)
        scores = provider(a_cand("a1", 10, 10, 10, 0.9))
        assert scores == CadxScores(0.25, 0.75)
        assert list(workdir.iterdir()) == []

    def test_command_provider_keeps_at_most_two_patch_pairs(self, tmp_path, spawned):
        # each scorer logs its patch and how many patch pairs share its directory,
        # and scores by the position that ends the patch name, plus one
        log = tmp_path / "scorer.log"
        scorer = python_scorer(
            tmp_path,
            "import glob, os\n"
            "raws = glob.glob(os.path.join(os.path.dirname(header), '*.raw'))\n"
            f"open({str(log)!r}, 'a').write(f'{{os.path.basename(header)}} {{len(raws)}}\\n')\n"
            "print((int(header[-5]) + 1) / 10, 0.5)\n",
        )
        vol = Volume.from_array(np.zeros((10, 10, 10), dtype="<f4"), (1.0, 1.0, 1.0),
                                WorldPoint(0, 0, 0), "float32")
        workdir = tmp_path / "patches"
        provider = CommandCadxProvider(scorer, volume_loader=lambda scan_id: vol, workdir=workdir)
        table = CandidateTable.from_records(
            [a_cand(f"a{k}", 5, 5, 5, 0.9, scan=f"s{k // 2}") for k in range(1, 6)])
        p_luna, p_dlcs = provider(table)
        assert p_luna.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5] and p_dlcs.tolist() == [0.5] * 5
        logged = [line.split() for line in log.read_text().splitlines()]
        assert [name for name, _ in logged] == [f"patch_{k}.hdr" for k in range(5)]
        assert max(int(count) for _, count in logged) <= 2
        assert list(workdir.iterdir()) == []
        assert [p.returncode for p in spawned] == [0] * 5

    def test_command_provider_names_patches_by_position_not_id(self, tmp_path, spawned):
        # an id with a path separator, and two keys whose scan, model and id joined
        # with "_" spell one name: each scorer logs its path and scores by the
        # z of its own patch's centre, read from the patch
        log = tmp_path / "scorer.log"
        scorer = python_scorer(
            tmp_path,
            "from trifuse.volume import load_volume\n"
            f"open({str(log)!r}, 'a').write(header + '\\n')\n"
            "z = load_volume(header).header.origin_mm.z + 31.5 * 1.25\n"
            "print(z / 100, 0.5)\n",
        )
        vol = Volume.from_array(np.zeros((10, 10, 10), dtype="<f4"), (1.0, 1.0, 1.0),
                                WorldPoint(0, 0, 0), "float32")
        workdir = tmp_path / "patches"
        provider = CommandCadxProvider(scorer, volume_loader=lambda scan_id: vol, workdir=workdir)
        table = CandidateTable.from_records([
            a_cand("a/b", 5, 5, 10, 0.9, scan="s1"),
            a_cand("1_CADE_B_2", 5, 5, 20, 0.9, scan="x"),
            b_cand("2", 5, 5, 30, 0.9, scan="x_CADE_A_1")])
        p_luna, p_dlcs = provider(table)
        assert p_luna.tolist() == [0.1, 0.2, 0.3] and p_dlcs.tolist() == [0.5] * 3
        assert log.read_text().splitlines() == [str(workdir / f"patch_{k}.hdr") for k in range(3)]
        assert list(workdir.iterdir()) == []
        assert [p.returncode for p in spawned] == [0] * 3

    def test_command_provider_failure_exits_nonzero(self, tmp_path):
        vol = Volume.from_array(
            np.zeros((10, 10, 10), dtype="<f4"), (1.0, 1.0, 1.0), WorldPoint(0, 0, 0), "float32"
        )
        provider = CommandCadxProvider(
            f'{sys.executable} -c "import sys; sys.exit(3)"',
            volume_loader=lambda scan_id: vol,
            workdir=tmp_path,
        )
        with pytest.raises(ScorerError, match="exited 3"):
            provider(a_cand("a1", 5, 5, 5, 0.9))

    def test_command_provider_bad_output(self, tmp_path):
        vol = Volume.from_array(
            np.zeros((10, 10, 10), dtype="<f4"), (1.0, 1.0, 1.0), WorldPoint(0, 0, 0), "float32"
        )
        provider = CommandCadxProvider(
            f"{sys.executable} -c \"print('not numbers')\"",
            volume_loader=lambda scan_id: vol,
            workdir=tmp_path,
        )
        with pytest.raises(ScorerError):
            provider(a_cand("a1", 5, 5, 5, 0.9))


class TestCommandProviderPipeline:
    """The table call prepares patch k+1 while scorer k runs; these pin the
    order of its errors and that no scorer outlives the call."""

    vol = Volume.from_array(np.zeros((10, 10, 10), dtype="<f4"), (1.0, 1.0, 1.0),
                            WorldPoint(0, 0, 0), "float32")
    table = CandidateTable.from_records([a_cand("a1", 5, 5, 5, 0.9, scan="s1"),
                                         a_cand("a2", 5, 5, 5, 0.9, scan="s2")])

    def loader(self, scan_id):
        if scan_id == "s2":
            raise InputError("no intensity volume for scan 's2'")
        return self.vol

    def test_scorer_failure_beats_the_next_patch_fault(self, tmp_path, spawned):
        provider = CommandCadxProvider(f'{sys.executable} -c "import sys; sys.exit(3)"',
                                       self.loader, tmp_path / "patches")
        with pytest.raises(ScorerError, match="exited 3 for CADE_A:a1 on scan s1"):
            provider(self.table)
        assert [p.returncode for p in spawned] == [3]
        assert list((tmp_path / "patches").iterdir()) == []

    def test_output_that_is_not_utf8(self, tmp_path, spawned):
        scorer = tmp_path / "scorer.py"
        scorer.write_text("import sys\nsys.stdout.buffer.write(b'0.5 0.5\\xff\\n')\n")
        provider = CommandCadxProvider(f"{sys.executable} {scorer}", self.loader,
                                       tmp_path / "patches")
        with pytest.raises(ScorerError, match="^external scorer output invalid for CADE_A:a1 "
                                              "on scan s1: 'utf-8' codec can't decode byte 0xff"):
            provider(self.table)
        assert [p.returncode for p in spawned] == [0]
        assert list((tmp_path / "patches").iterdir()) == []

    @pytest.mark.parametrize("volume, message", [
        (None, "cannot load scan volume for CADE_A:a2 on scan s2: no intensity volume"),
        ("not a volume", "CADx scoring failed for CADE_A:a2 on scan s2: "),
    ])
    def test_next_patch_fault_after_a_clean_scorer(self, tmp_path, spawned, volume, message):
        def loader(scan_id):
            return volume if scan_id == "s2" and volume is not None else self.loader(scan_id)

        provider = CommandCadxProvider(f'{sys.executable} -c "print(0.5, 0.5)"', loader,
                                       tmp_path / "patches")
        # a volume that cannot be loaded is an input error; a bad patch, a scorer error
        with pytest.raises(InputError if volume is None else ScorerError, match=message):
            provider(self.table)
        assert [p.returncode for p in spawned] == [0]
        assert list((tmp_path / "patches").iterdir()) == []

    def test_interrupt_while_extracting_kills_the_running_scorer(
            self, tmp_path, spawned, monkeypatch):
        extracted = []

        def interrupted(volume, center):
            extracted.append(center)
            if len(extracted) == 2:
                raise KeyboardInterrupt
            return extract_patch(volume, center)

        monkeypatch.setattr(fusion, "extract_patch", interrupted)
        provider = CommandCadxProvider(f'{sys.executable} -c "import time; time.sleep(60)"',
                                       lambda scan_id: self.vol, tmp_path / "patches")
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            provider(self.table)
        assert time.monotonic() - started < 30
        assert [p.returncode for p in spawned] == [-signal.SIGKILL]
        assert list((tmp_path / "patches").iterdir()) == []
