import csv
import json
import random
import sys
import tempfile
import warnings
import weakref

import numpy as np

from trifuse import cli
from trifuse.cli import main
from trifuse.domain import WorldPoint
from trifuse.volume import Volume, save_volume

from conftest import CPM_FIXTURE_CPM


def run(argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def first_line(path):
    return path.read_text(encoding="utf-8").splitlines()[0]


def body(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


def write_volumes(directory, scans, values=None):
    """One <scan>.hdr volume per scan (5^3 zeros unless values are given)."""
    directory.mkdir(parents=True, exist_ok=True)
    if values is None:
        values = np.zeros((5, 5, 5), dtype="<f4")
    for scan in scans:
        save_volume(
            Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(0, 0, 0)),
            directory / f"{scan}.hdr",
        )
    return directory


def logging_scorer(tmp_path):
    """Scorer command that appends each patch header path it reads to a log."""
    script = tmp_path / "scorer.py"
    log = tmp_path / "scorer.log"
    script.write_text(
        "import sys\n"
        "with open(sys.argv[1], 'a') as fh:\n"
        "    fh.write(sys.stdin.read())\n"
        "print(0.5, 0.5)\n"
    )
    return f"{sys.executable} {script} {log}", log


class TestFuseCommand:
    def test_trivial_consensus(self, tmp_path):
        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(header + "s1,c1,1,2,3,8.0,0.9,CADE_A\n")
        b.write_text(header + "s1,c1,1,2,3,8.0,0.9,CADE_B\n")
        out = tmp_path / "fused.csv"
        assert run(["fuse", "--cade-a", a, "--cade-b", b, "--out", out]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["tier"] == "1.0"
        assert rows[0]["stage"] == "consensus"

    def test_defaults_recorded_in_manifest(self, tmp_path, e2e_inputs):
        out = tmp_path / "fused.csv"
        code = run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "fused.manifest.json").read_text())
        assert manifest["config"]["tau_cadx"] == 0.10
        assert manifest["config"]["tau_cade"] == 0.20
        assert manifest["seed"] == 17
        assert first_line(out) == f"# manifest_digest={manifest['digest']}"

    def test_fixture_fusion_composition(self, tmp_path, e2e_inputs):
        out = tmp_path / "fused.csv"
        run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", out,
        ])
        rows = read_csv_rows(out)
        assert len(rows) == 10  # the rejected candidate x1 is dropped
        stages = sorted(r["stage"] for r in rows)
        assert stages.count("consensus") == 5
        assert stages.count("cadx_promoted") == 3
        assert stages.count("cade_refined") == 2
        scores = sorted(float(r["score"]) for r in rows)
        assert scores == [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]

    def test_missing_score_column_exits_2(self, tmp_path, e2e_inputs, capsys):
        broken = tmp_path / "broken.csv"
        lines = e2e_inputs["cade_a"].read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("score")
        rewritten = [",".join(v for i, v in enumerate(line.split(",")) if i != idx)
                     for line in lines]
        broken.write_text("\n".join(rewritten) + "\n")
        code = run([
            "fuse", "--cade-a", broken, "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", tmp_path / "f.csv",
        ])
        assert code == 2
        assert "column score missing" in capsys.readouterr().err

    def test_missing_cadx_entry_exits_3(self, tmp_path, e2e_inputs, capsys):
        truncated = tmp_path / "cadx.csv"
        lines = e2e_inputs["cadx_scores"].read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")  # drop x1's scores
        code = run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", truncated, "--out", tmp_path / "f.csv",
        ])
        assert code == 3
        assert "x1" in capsys.readouterr().err

    def test_mask_gating(self, tmp_path):
        import numpy as np

        from trifuse.domain import WorldPoint
        from trifuse.volume import Volume, save_volume

        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(header + "s1,c1,2,2,2,,0.9,CADE_A\ns1,c2,8,8,8,,0.9,CADE_A\n")
        b.write_text(header + "s1,c1,2,2,2,,0.9,CADE_B\n")
        masks = tmp_path / "masks"
        masks.mkdir()
        values = np.zeros((10, 10, 10), dtype=np.uint8)
        values[2, 2, 2] = 30
        save_volume(
            Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(0, 0, 0)),
            masks / "s1.hdr",
        )
        out = tmp_path / "fused.csv"
        code = run(["fuse", "--cade-a", a, "--cade-b", b, "--masks", masks, "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1 and rows[0]["stage"] == "consensus"

    def test_external_scorer_failure_exits_3(self, tmp_path, e2e_inputs, capsys):
        volumes = tmp_path / "vols"
        volumes.mkdir()
        import numpy as np

        from trifuse.domain import WorldPoint
        from trifuse.volume import Volume, save_volume

        for scan in ("s1", "s2", "s3", "s4"):
            save_volume(
                Volume.from_array(
                    np.zeros((5, 5, 5), dtype="<f4"), (1.0, 1.0, 1.0), WorldPoint(0, 0, 0),
                    "float32",
                ),
                volumes / f"{scan}.hdr",
            )
        code = run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-cmd", f"{sys.executable} -c \"import sys; sys.exit(9)\"",
            "--volumes", volumes, "--out", tmp_path / "f.csv",
        ])
        assert code == 3
        assert "exited 9" in capsys.readouterr().err

    def test_config_can_supply_every_flag(self, tmp_path, e2e_inputs):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "fused.csv"
        cfg.write_text(
            f"cade-a={e2e_inputs['cade_a']}\n"
            f"cade-b={e2e_inputs['cade_b']}\n"
            f"cadx-scores={e2e_inputs['cadx_scores']}\n"
            f"out={out}\ntau-cade=0.3\n"
        )
        assert run(["fuse", "--config", cfg]) == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "fused.manifest.json").read_text())
        assert manifest["config"]["tau_cade"] == 0.3

    def test_huge_coordinates_fuse_quietly(self, tmp_path, capsys):
        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        scores = tmp_path / "cadx.csv"
        a.write_text(header + "s1,c1,1e200,0,0,,0.9,CADE_A\ns1,c2,-1e200,0,0,,0.8,CADE_A\n")
        b.write_text(header + "s1,c1,-1e200,0,0,,0.9,CADE_B\n")
        scores.write_text("scan_id,model,candidate_id,p_luna,p_dlcs\n"
                          "s1,CADE_A,c1,0.9,0.9\ns1,CADE_A,c2,0.9,0.9\ns1,CADE_B,c1,0.9,0.9\n")
        out = tmp_path / "fused.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fuse", "--cade-a", a, "--cade-b", b, "--cadx-scores", scores,
                        "--out", out])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        stages = sorted(r["stage"] for r in read_csv_rows(out))
        assert stages == ["cadx_promoted", "consensus"]

    def test_missing_input_flag_exits_2(self, tmp_path, e2e_inputs, capsys):
        code = run(["fuse", "--cade-a", e2e_inputs["cade_a"], "--out", tmp_path / "f.csv"])
        assert code == 2
        assert "--cade-b" in capsys.readouterr().err

    def test_patch_dir_removed_on_success_and_scorer_failure(
        self, tmp_path, e2e_inputs, monkeypatch
    ):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        # TMPDIR is read once per process; point the cached value at tmp
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        volumes = write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"))
        scorer, log = logging_scorer(tmp_path)
        fuse = ["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
                "--volumes", volumes]
        assert run(fuse + ["--cadx-cmd", scorer, "--out", tmp_path / "ok.csv"]) == 0
        patches = log.read_text().split()
        assert len(patches) == 6
        assert all(p.startswith(str(tmp / "trifuse_patch_")) for p in patches)
        assert list(tmp.iterdir()) == []

        failing = f"{sys.executable} -c \"import sys; sys.exit(9)\""
        assert run(fuse + ["--cadx-cmd", failing, "--out", tmp_path / "bad.csv"]) == 3
        assert list(tmp.iterdir()) == []

    def test_cadx_cmd_manifest_lists_scored_volumes(self, tmp_path, e2e_inputs):
        # s5 has a volume but no candidates, so it is never read
        volumes = write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4", "s5"))
        scorer, _ = logging_scorer(tmp_path)
        out = tmp_path / "fused.csv"
        assert run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--volumes", volumes, "--cadx-cmd", scorer, "--out", out,
        ]) == 0
        inputs = json.loads((tmp_path / "fused.manifest.json").read_text())["inputs"]
        scanned = sorted(name for name in inputs if name.startswith("volume:"))
        assert scanned == ["volume:s1", "volume:s2", "volume:s3", "volume:s4"]
        assert inputs["volume:s2"]["path"] == str(volumes / "s2.hdr")

    def test_config_file_overridden_by_flags(self, tmp_path, e2e_inputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau-cadx=0.9\ntau-cade=0.9\n")
        out = tmp_path / "fused.csv"
        run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--config", cfg,
            "--tau-cadx", "0.10", "--out", out,
        ])
        manifest = json.loads((tmp_path / "fused.manifest.json").read_text())
        assert manifest["config"]["tau_cadx"] == 0.10  # flag wins
        assert manifest["config"]["tau_cade"] == 0.9  # config applies


def test_volume_dir_loader_keeps_only_the_current_scan(tmp_path):
    load, loaded = cli._volume_dir_loader(write_volumes(tmp_path, ("s1", "s2")), "mask")
    first = load("s1")
    assert load("s1") is first
    released = weakref.ref(first)
    del first
    load("s2")
    assert released() is None
    assert sorted(loaded) == ["s1", "s2"]


class TestEvalCommand:
    def test_perfect_detector(self, tmp_path):
        refs = tmp_path / "refs.csv"
        cands = tmp_path / "cands.csv"
        refs.write_text(
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes\ns1,n1,0,0,0,8.0,unknown,,,\n"
        )
        cands.write_text(
            "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
            "s1,c1,0,0,0,,1.0,M\n"
        )
        out = tmp_path / "out"
        assert run(["eval", "--candidates", cands, "--references", refs, "--out", out]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["overall"]["cpm"] == 1.0

    def test_e2e_fuse_then_eval_matches_oracle(self, tmp_path, e2e_inputs):
        fused = tmp_path / "fused.csv"
        run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", fused,
        ])
        out = tmp_path / "out"
        code = run([
            "eval", "--candidates", fused, "--references", e2e_inputs["references"],
            "--out", out,
        ])
        assert code == 0
        raw = json.loads((out / "metrics.raw.json").read_text())
        assert abs(raw["overall"]["cpm"] - CPM_FIXTURE_CPM) < 1e-12
        assert raw["overall"]["detected"] == 4 and raw["overall"]["lesions"] == 4
        assert raw["overall"]["candidates"] == 10 and raw["overall"]["scans"] == 4

    def test_stratified_output(self, tmp_path, e2e_inputs):
        out = tmp_path / "out"
        cands = tmp_path / "cands.csv"
        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
        cands.write_text(header + "s1,c1,10,10,10,,0.9,M\ns2,c2,20,20,20,,0.8,M\n")
        code = run([
            "eval", "--candidates", cands, "--references", e2e_inputs["references"],
            "--stratify", "size:dlcs", "--out", out,
        ])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload["strata"]) == {"<6", "6-10", ">=10"}
        rows = read_csv_rows(out / "metrics.csv")
        assert [r["Stratum"] for r in rows] == ["overall", "<6", "6-10", ">=10"]

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path, e2e_inputs):
        fused = tmp_path / "fused.csv"
        run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", fused,
        ])
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            code = run([
                "eval", "--candidates", fused, "--references", e2e_inputs["references"],
                "--ci", "--resamples", "200", "--seed", "42", "--label", "fixture",
                "--out", out,
            ])
            assert code == 0
            outs.append(out)
        for filename in ("metrics.json", "metrics.raw.json", "metrics.csv", "matches.csv"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_zero_references_exits_2(self, tmp_path, e2e_inputs, capsys):
        empty = tmp_path / "refs.csv"
        empty.write_text(
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes\n"
        )
        cands = tmp_path / "cands.csv"
        cands.write_text(
            "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
            "s1,c1,0,0,0,,1.0,M\n"
        )
        code = run(["eval", "--candidates", cands, "--references", empty,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "no reference lesions" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, e2e_inputs, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = run(["eval", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--out", taken])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {taken}: ") and "Traceback" not in err
        code = run(["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
                    "--cadx-scores", e2e_inputs["cadx_scores"], "--out", taken / "fused.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {taken}")

    def test_huge_coordinates_never_hit(self, tmp_path):
        refs = tmp_path / "refs.csv"
        cands = tmp_path / "cands.csv"
        refs.write_text(
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes\ns1,n1,-1e200,0,0,8.0,unknown,,,\n"
        )
        cands.write_text(
            "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
            "s1,c1,1e200,0,0,,1.0,M\n"
        )
        out = tmp_path / "out"
        assert run(["eval", "--candidates", cands, "--references", refs, "--out", out]) == 0
        (row,) = read_csv_rows(out / "metrics.csv")
        assert (row["Detected"], row["Lesions"], row["Candidates"]) == ("0", "1", "1")
        (match,) = read_csv_rows(out / "matches.csv")
        assert (match["nodule_id"], match["detected"]) == ("n1", "0")


class TestSweepCommand:
    def test_cadx_single_zero_threshold(self, tmp_path):
        scored = tmp_path / "scored.csv"
        scored.write_text(
            "scan_id,candidate_id,score,label\n"
            "s1,c1,0.9,cancer\ns1,c2,0.4,no-cancer\ns1,c3,0.2,no-cancer\n"
        )
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--mode", "cadx", "--scored", scored,
                    "--thresholds", "0.0", "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["Recall"] == "1.0"
        assert rows[0]["Flagged (%)"] == "100.0"
        assert rows[0]["TP"] == "1" and rows[0]["FP"] == "2"

    def test_cade_preset_monotone(self, tmp_path, e2e_inputs):
        fused = tmp_path / "fused.csv"
        run([
            "fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
            "--cadx-scores", e2e_inputs["cadx_scores"], "--out", fused,
        ])
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--mode", "cade", "--candidates", fused,
                    "--references", e2e_inputs["references"], "--preset", "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 10
        forwarded = [int(r["Candidates (n)"]) for r in rows]
        missed = [int(r["Missed (n)"]) for r in rows]
        assert all(b <= a for a, b in zip(forwarded, forwarded[1:]))
        assert all(b >= a for a, b in zip(missed, missed[1:]))
        assert "τ_CADe" in first_line(out) or "τ_CADe" in rows[0]

    def test_missing_threshold_spec_exits_2(self, tmp_path, e2e_inputs):
        code = run(["sweep", "--mode", "cade", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--out", tmp_path / "s.csv"])
        assert code == 2


def write_stats_fixture(tmp_path):
    """References with votes and full ratings plus two hand-written match files."""
    refs = tmp_path / "refs.csv"
    header = (
        "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
        "reviewers,positive_votes,Subtlety,Malignancy,Texture,Spiculation,"
        "Lobulation,Margin,Sphericity,DiamEq_Rad\n"
    )
    rows = []
    votes = [(3, 3), (2, 2), (2, 1), (1, 1), (3, 2), (3, 3), (2, 2), (1, 1),
             (3, 3), (2, 2), (1, 1), (2, 1)]
    for i, (reviewers, positive) in enumerate(votes):
        subtlety = 1 + (i % 5)
        malignancy = i % 6
        texture = 1 + ((i + 1) % 5)
        spiculation = 1 + ((i + 2) % 5)
        lobulation = 1 + (i % 4)
        margin = 1 + ((i + 3) % 5)
        sphericity = 1 + ((i + 4) % 5)
        rows.append(
            f"s{i % 3},n{i},{10.0 * i},0,0,{4.0 + i},unknown,,{reviewers},{positive},"
            f"{subtlety},{malignancy},{texture},{spiculation},{lobulation},"
            f"{margin},{sphericity},{4.0 + i}\n"
        )
    refs.write_text(header + "".join(rows))

    matches_dir = tmp_path / "matches"
    matches_dir.mkdir()
    # model A misses n8..n11; model B misses n6..n9
    for model, missed in (("A", {8, 9, 10, 11}), ("B", {6, 7, 8, 9})):
        lines = ["scan_id,nodule_id,detected,score,model\n"]
        for i in range(12):
            detected = 0 if i in missed else 1
            score = "" if not detected else repr(0.5 + 0.04 * i)
            lines.append(f"s{i % 3},n{i},{detected},{score},{model}\n")
        (matches_dir / f"matches_{model}.csv").write_text("".join(lines))
    return refs, matches_dir


class TestStatsCommand:
    def test_consensus_analysis(self, tmp_path):
        refs, matches_dir = write_stats_fixture(tmp_path)
        out = tmp_path / "consensus.csv"
        code = run(["stats", "--matches", matches_dir, "--references", refs,
                    "--analysis", "consensus", "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        patterns = {r["Pattern"] for r in rows}
        assert "R3_3of3" in patterns and "R2_1of2" in patterns
        r33 = [r for r in rows if r["Pattern"] == "R3_3of3" and r["Model"] == "A"][0]
        assert r33["GT Count (n)"] == "3"

    def test_semantic_analysis_emits_eight_rows(self, tmp_path):
        refs, matches_dir = write_stats_fixture(tmp_path)
        out = tmp_path / "semantic.csv"
        code = run(["stats", "--matches", matches_dir, "--references", refs,
                    "--analysis", "semantic", "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 8
        assert "Significant (Bonferroni)" in rows[0]
        names = {r["Characteristic"] for r in rows}
        assert names == {"DiamEq_Rad", "Texture", "Malignancy", "Subtlety",
                         "Spiculation", "Lobulation", "Margin", "Sphericity"}

    def test_overlap_analysis(self, tmp_path):
        refs, matches_dir = write_stats_fixture(tmp_path)
        out = tmp_path / "overlap.csv"
        code = run(["stats", "--matches", matches_dir, "--references", refs,
                    "--analysis", "overlap", "--out", out])
        assert code == 0
        rows = {r["Category"]: r for r in read_csv_rows(out)}
        assert rows["missed_by_all"]["Count"] == "2"  # n8, n9
        assert rows["only_A"]["Count"] == "2"  # n10, n11
        assert rows["only_B"]["Count"] == "2"  # n6, n7

    def test_incomplete_match_table_exits_2(self, tmp_path):
        refs, matches_dir = write_stats_fixture(tmp_path)
        short = matches_dir / "matches_A.csv"
        lines = short.read_text().splitlines()
        short.write_text("\n".join(lines[:-1]) + "\n")
        code = run(["stats", "--matches", matches_dir, "--references", refs,
                    "--analysis", "overlap", "--out", tmp_path / "o.csv"])
        assert code == 2


class TestLinkCommand:
    def write_fused(self, path):
        path.write_text(
            "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model,"
            "tier,stage,cadx_avg,provenance\n"
            "s1,F0000,10,10,10,8.0,0.9,FUSED,1.0,consensus,,CADE_A:a1|CADE_B:b1\n"
            "s1,F0001,50,50,50,14.0,0.6,FUSED,0.5,cadx_promoted,0.4,CADE_A:a2\n"
        )
        return path

    def test_empty_reports_empty_matches(self, tmp_path):
        reports = tmp_path / "reports.tsv"
        reports.write_text("")
        fused = self.write_fused(tmp_path / "fused.csv")
        out = tmp_path / "links.csv"
        code = run(["link", "--reports", reports, "--fused", fused, "--out", out])
        assert code == 0
        assert read_csv_rows(out) == []
        assert read_csv_rows(tmp_path / "links.entities.csv") == []

    def test_unparseable_report_leaves_candidates_unmatched(self, tmp_path):
        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tno findings to speak of\n")
        fused = self.write_fused(tmp_path / "fused.csv")
        out = tmp_path / "links.csv"
        assert run(["link", "--reports", reports, "--fused", fused, "--out", out]) == 0
        rows = read_csv_rows(out)
        assert {r["status"] for r in rows} == {"candidate_only"}
        assert len(rows) == 2

    def test_link_by_size(self, tmp_path):
        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tA 9 mm nodule is seen\n")
        fused = self.write_fused(tmp_path / "fused.csv")
        out = tmp_path / "links.csv"
        code = run(["link", "--reports", reports, "--fused", fused, "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        matched = [r for r in rows if r["status"] == "matched"]
        assert len(matched) == 1
        assert matched[0]["candidate_id"] == "F0000"  # |9-8| <= 3; |9-14| > 3
        entities = read_csv_rows(tmp_path / "links.entities.csv")
        assert entities[0]["size_mm"] == "9.0"

    def test_link_with_mask_lobe(self, tmp_path):
        import numpy as np

        from trifuse.domain import WorldPoint
        from trifuse.volume import Volume, save_volume

        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tnodule in the right upper lobe\n")
        fused = self.write_fused(tmp_path / "fused.csv")
        masks = tmp_path / "masks"
        masks.mkdir()
        values = np.zeros((60, 60, 60), dtype=np.uint8)
        values[10, 10, 10] = 30  # RUL at candidate F0000
        values[50, 50, 50] = 29
        save_volume(
            Volume.from_array(values, (1.0, 1.0, 1.0), WorldPoint(0, 0, 0)),
            masks / "s1.hdr",
        )
        out = tmp_path / "links.csv"
        code = run(["link", "--reports", reports, "--fused", fused,
                    "--masks", masks, "--out", out])
        assert code == 0
        matched = [r for r in read_csv_rows(out) if r["status"] == "matched"]
        assert len(matched) == 1 and matched[0]["candidate_id"] == "F0000"
        assert "lobe=pass" in matched[0]["criteria"]

    def test_shuffled_fused_rows_give_same_links(self, tmp_path, monkeypatch):
        header = ("scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model,"
                  "tier,stage,cadx_avg,provenance\n")
        rows = [
            "s1,F0000,10,10,10,8.0,0.9,FUSED,1.0,consensus,,CADE_A:a1|CADE_B:b1\n",
            "s1,F0001,50,50,50,14.0,0.6,FUSED,0.5,cadx_promoted,0.4,CADE_A:a2\n",
            "s2,F0002,20,20,20,9.0,0.8,FUSED,1.0,consensus,,CADE_A:a3|CADE_B:b3\n",
            "s2,F0003,40,40,40,5.0,0.7,FUSED,0.5,cadx_promoted,0.3,CADE_A:a4\n",
            "s3,F0004,30,30,30,6.0,0.5,FUSED,0.5,cadx_promoted,0.2,CADE_B:b5\n",
        ]
        reports = tmp_path / "reports.tsv"
        reports.write_text(
            "r2\ts2\tA 5 mm nodule in the left lower lobe; a 9 mm nodule\n"
            "r1\ts1\tA 9 mm nodule in the right upper lobe\n"
        )
        labels = np.zeros((60, 60, 60), dtype=np.uint8)
        labels[10, 10, 10] = 30
        labels[40, 40, 40] = 29
        masks = write_volumes(tmp_path / "masks", ("s1", "s2"), labels)
        loads = []
        load_volume = cli.load_volume
        monkeypatch.setattr(cli, "load_volume", lambda h: loads.append(h) or load_volume(h))

        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        assert [r[:2] for r in shuffled] != sorted(r[:2] for r in shuffled)
        outs = []
        for name, order in (("sorted", rows), ("shuffled", shuffled)):
            fused = tmp_path / f"{name}.csv"
            fused.write_text(header + "".join(order))
            out = tmp_path / f"{name}_links.csv"
            loads.clear()
            assert run(["link", "--reports", reports, "--fused", fused,
                        "--masks", masks, "--out", out]) == 0
            assert sorted(h.name for h in loads) == ["s1.hdr", "s2.hdr"]
            outs.append(out)
        assert body(outs[0]) == body(outs[1])
        rows = read_csv_rows(outs[0])
        assert {r["candidate_id"] for r in rows if r["status"] == "matched"} == {
            "F0000", "F0002", "F0003"
        }


class TestConfigFile:
    def test_bom_prefixed_config_keeps_first_key(self, tmp_path, e2e_inputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed=3\n")
        out = tmp_path / "out"
        assert run(["eval", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--config", cfg,
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
