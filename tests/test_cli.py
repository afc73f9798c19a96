import argparse
import csv
import json
import os
import random
import shutil
import stat
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from trifuse import cli
from trifuse.cli import main
from trifuse.domain import WorldPoint
from trifuse.volume import Volume, save_volume

from conftest import CPM_FIXTURE_CPM, run_python, write_e2e_inputs


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


def write_volumes(directory, scans, values=None, spacing=(1.0, 1.0, 1.0)):
    """One <scan>.hdr volume per scan (5^3 zeros unless values are given)."""
    directory.mkdir(parents=True, exist_ok=True)
    if values is None:
        values = np.zeros((5, 5, 5), dtype="<f4")
    for scan in scans:
        save_volume(
            Volume.from_array(values, spacing, WorldPoint(0, 0, 0)),
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

    def test_malformed_lung_labels_exits_2(self, tmp_path, e2e_inputs, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lung-labels=a,b\n")
        out = tmp_path / "fused.csv"
        assert run(["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
                    "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:1: config key 'lung-labels' has invalid value 'a,b'\n"
        assert not out.exists()

    def test_zero_threshold_in_config_is_applied(self, tmp_path, e2e_inputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau-cade=0\n")
        out = tmp_path / "fused.csv"
        assert run(["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
                    "--cadx-scores", e2e_inputs["cadx_scores"], "--config", cfg,
                    "--out", out]) == 0
        manifest = json.loads((tmp_path / "fused.manifest.json").read_text())
        assert manifest["config"]["tau_cade"] == 0.0
        # x1 (score 0.15, CADx 0.02) is kept only when tau_cade is 0
        assert "x1" in (out.read_text())


def test_volume_dir_loader_keeps_only_the_current_scan(tmp_path):
    run_ = cli._Run(argparse.Namespace(config=None))
    load = run_.volumes(write_volumes(tmp_path, ("s1", "s2")), "mask", "mask")
    first = load("s1")
    assert load("s1") is first
    released = weakref.ref(first)
    del first
    load("s2")
    assert released() is None
    assert sorted(run_.inputs) == ["mask:s1", "mask:s2"]


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

    @pytest.mark.parametrize("extra", [[], ["--stratify", "size:dlcs"]])
    def test_negative_seed_exits_2(self, tmp_path, e2e_inputs, capsys, extra):
        out = tmp_path / "out"
        code = run(["eval", "--candidates", e2e_inputs["cade_a"], "--references",
                    e2e_inputs["references"], "--ci", "--seed", "-1", *extra, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: bootstrap seed must be non-negative, got -1\n"
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("quoted", [False, True])
    def test_cell_over_the_csv_field_limit_exits_2(self, tmp_path, e2e_inputs, capsys, quoted):
        cands = tmp_path / "cands.csv"
        huge = f'"{"c" * 200_000}"' if quoted else "c" * 200_000
        lines = e2e_inputs["cade_a"].read_text().splitlines(keepends=True)
        lines.insert(3, f"s1,{huge},1,2,3,,0.5,CADE_A\n")
        cands.write_text("".join(lines))
        code = run(["eval", "--candidates", cands, "--references", e2e_inputs["references"],
                    "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cands}:4: field larger than field limit (131072)\n")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("detected, missed, cell", [(1, 3, "-inf"), (3, 1, "inf")])
    def test_semantic_infinite_effect_keeps_its_sign(self, tmp_path, detected, missed, cell):
        # equal subtlety within each group: the pooled SD is 0 and the effect infinite
        refs, matches = tmp_path / "refs.csv", tmp_path / "matches"
        refs.write_text("scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
                        "reviewers,positive_votes,Subtlety\n" + "".join(
                            f"s1,n{i},{20 * i},0,0,5,unknown,,,,{rating}\n"
                            for i, rating in enumerate((detected, detected, missed, missed))))
        matches.mkdir()
        (matches / "a.csv").write_text("scan_id,nodule_id,detected,score,model\n"
                                       "s1,n0,1,0.9,A\ns1,n1,1,0.8,A\ns1,n2,0,,A\ns1,n3,0,,A\n")
        out = tmp_path / "semantic.csv"
        assert run(["stats", "--matches", matches, "--references", refs,
                    "--analysis", "semantic", "--out", out]) == 0
        (row,) = read_csv_rows(out)
        assert (row["Mean Difference"], row["Cohen's d"]) == (f"{detected - missed:.1f}", cell)

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

    def test_zero_size_leaves_the_entity_without_a_size(self, tmp_path):
        reports = tmp_path / "reports.tsv"
        reports.write_text("R1\ts1\tA 0 mm nodule in the right upper lobe.\n")
        fused = self.write_fused(tmp_path / "fused.csv")
        out = tmp_path / "links.csv"
        assert run(["link", "--reports", reports, "--fused", fused, "--out", out]) == 0
        (entity,) = read_csv_rows(tmp_path / "links.entities.csv")
        assert (entity["report_id"], entity["size_mm"], entity["lobe"]) == ("R1", "", "RUL")

    def test_repeated_candidate_id_exits_2_with_its_line(self, tmp_path, capsys):
        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tA 9 mm nodule is seen\n")
        fused = self.write_fused(tmp_path / "fused.csv")
        fused.write_text(fused.read_text().replace("F0001", "F0000"))
        code = run(["link", "--reports", reports, "--fused", fused, "--out", tmp_path / "l.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fused}:3: duplicate candidate_id 'F0000' on scan 's1'\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--size-tol-mm", "nan", "--size-tol-mm is not finite: nan"),
        ("--size-tol-mm", "inf", "--size-tol-mm is not finite: inf"),
        ("--size-tol-mm", "-1", "--size-tol-mm must be non-negative, got -1.0"),
        ("--ordinal-tol", "-3", "--ordinal-tol must be non-negative, got -3"),
    ])
    def test_invalid_tolerance_exits_2_before_reading(self, tmp_path, capsys, flag, value,
                                                      message):
        # neither input exists: the tolerance is rejected before any is read
        out = tmp_path / "links.csv"
        assert run(["link", "--reports", tmp_path / "none.tsv", "--fused",
                    tmp_path / "none.csv", flag, value, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("rule, message", [
        ({"field": "size_mm", "pattern": r"(?P<value>[a-z]+)?"},
         "grammar rule for 'size_mm' captured 'A', which is not a number"),
        ({"field": "ordinal:x", "pattern": r"(?P<value>right)"},
         "grammar rule for 'ordinal:x' captured 'right', which is not a number"),
        ({"field": "lobe", "pattern": r"(?P<value>right upper)"},
         "grammar rule for 'lobe' captured 'right upper', which is not a lobe"),
        ({"field": "size_mm", "pattern": r"(?P<value>\d+) mm", "scale": "x"},
         "grammar rule 1 has scale 'x'; it must be finite and positive"),
        ({"field": "size_mm", "pattern": r"nodule", "value": "5"},
         "grammar rule 1 has size_mm value '5'; it must be a finite positive number"),
    ])
    def test_bad_grammar_exits_2(self, tmp_path, capsys, rule, message):
        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tA 9 mm nodule in the right upper lobe\n")
        grammar = tmp_path / "grammar.json"
        grammar.write_text(json.dumps({"rules": [{"field": "mention", "pattern": "nodule"},
                                                 rule]}))
        fused = self.write_fused(tmp_path / "fused.csv")
        out = tmp_path / "links.csv"
        assert run(["link", "--reports", reports, "--fused", fused, "--grammar", grammar,
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_report_on_a_scan_without_candidates(self, tmp_path, capsys):
        # s1 is reported without a nodule sentence, s9 has no fused row: the
        # two share no scan, and neither is an error
        reports = tmp_path / "reports.tsv"
        reports.write_text("r1\ts1\tno findings to speak of\nr2\ts9\tAn 8 mm nodule is seen\n")
        fused = tmp_path / "fused.csv"
        fused.write_text(self.write_fused(fused).read_text().splitlines(keepends=True)[0]
                         + "s1,F0000,10,10,10,8.0,0.9,FUSED,1.0,consensus,,CADE_A:a1|CADE_B:b1\n")
        out = tmp_path / "links.csv"
        assert run(["link", "--reports", reports, "--fused", fused, "--out", out]) == 0
        assert capsys.readouterr().out == f"linked 0/1 entities -> {out}\n"
        assert out.read_text() == (
            "# manifest_digest=113fa7a39c6b0c485c664a233914c44ed5dff7371ba0054ee504f7ec86dd1e71\n"
            "report_id,scan_id,status,candidate_id,size_mm,lobe,lungrads,criteria\n"
            ",,candidate_only,F0000,,,,\n"
            "r2,s9,report_only,,8.0,,,\n"
        )

    def test_seeded_cohorts_match_the_per_scan_oracle(self, tmp_path):
        """``link --masks`` on seeded cohorts: fused rows interleaved across
        scans, ids repeating from scan to scan, score and size ties, scans
        without candidates or without a report, reports without entities and
        entities without size or lobe; against the loop over scans it replaced."""
        from oracles import oracle_link_by_scan

        from trifuse import fileio
        from trifuse.reportlink import LinkCandidate, default_grammar, extract_entities
        from trifuse.reportlink import lobe_of_candidate
        from trifuse.volume import load_volume

        rng = random.Random(65)
        scans = [f"s{i}" for i in range(1, 7)]
        stages = (("consensus", "1.0", ""), ("cadx_promoted", "0.5", "0.4"),
                  ("cade_refined", "0.2", ""))
        sentences = ("A {size} mm nodule in the {lobe}", "{size} mm opacity",
                     "nodule on the {side}", "{size} mm nodule on the {side}",
                     "nodule, malignancy 3", "no findings", "the {lobe} is clear")
        lobes = ("right upper lobe", "right middle lobe", "right lower lobe",
                 "left upper lobe", "left lower lobe")
        header = ("scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model,"
                  "tier,stage,cadx_avg,provenance\n")
        statuses = set()
        for cohort in range(4):
            directory = tmp_path / f"cohort{cohort}"
            labels = np.zeros((12, 12, 12), dtype=np.uint8)
            labels[:6, :, :6], labels[6:, :, :6] = 28, 30
            labels[:6, :, 6:], labels[6:, :, 6:] = 29, 32
            labels[6:, :6, 6:] = 31
            masks = write_volumes(directory / "masks", scans, labels)
            rows = []
            for scan in scans[: rng.randrange(2, 6)]:
                for k in range(rng.randrange(1, 9)):
                    stage, tier, cadx = rng.choice(stages)
                    rows.append(
                        f"{scan},F{k:04d},{rng.randrange(12)},{rng.randrange(12)},"
                        f"{rng.randrange(12)},{rng.choice(('', '5.0', '8.0', '11.0'))},"
                        f"{rng.choice(('0.3', '0.6'))},FUSED,{tier},{stage},{cadx},CADE_A:a{k}\n")
            rng.shuffle(rows)
            fused = directory / "fused.csv"
            fused.write_text(header + "".join(rows))
            reports = directory / "reports.tsv"
            reports.write_text("".join(
                f"r{i}\t{rng.choice(scans)}\t" + ". ".join(
                    rng.choice(sentences).format(size=rng.choice((5, 8, 10)),
                                                 lobe=rng.choice(lobes),
                                                 side=rng.choice(("left", "right")))
                    for _ in range(rng.randrange(1, 4))) + "\n"
                for i in range(rng.randrange(1, 7))))
            out = directory / "links.csv"
            assert run(["link", "--reports", reports, "--fused", fused, "--masks", masks,
                        "--out", out]) == 0

            table = fileio.read_fused(fused)
            candidates = [
                LinkCandidate(c.scan_id, c.candidate_id, c.center, c.confidence_tier,
                              c.cade_score_avg, c.diameter_mm,
                              lobe_of_candidate(c, load_volume(masks / f"{c.scan_id}.hdr")))
                for c in table
            ]
            report_rows = fileio.read_reports(reports)
            entities = [e for report_id, scan, text in report_rows
                        for e in extract_entities(text, default_grammar(), report_id, scan)]
            expected = oracle_link_by_scan(entities, candidates,
                                           scans={scan for _, scan, _ in report_rows})
            assert read_csv_rows(out) == [
                {"report_id": m.entity.report_id if m.entity else "",
                 "scan_id": m.entity.scan_id if m.entity else "",
                 "status": m.status, "candidate_id": m.candidate_id or "",
                 "size_mm": "" if m.entity is None or m.entity.size_mm is None
                 else repr(m.entity.size_mm),
                 "lobe": (m.entity and m.entity.lobe) or "",
                 "lungrads": (m.entity and m.entity.lungrads) or "",
                 "criteria": ";".join(f"{k}={'pass' if ok else 'fail'}" for k, ok in m.criteria)}
                for m in expected
            ]
            statuses.update(m.status for m in expected)
            statuses.update(name for m in expected for name, _ in m.criteria)
        assert statuses >= {"matched", "report_only", "candidate_only", "lobe", "laterality",
                            "size"}


class TestConfigFile:
    def test_unused_key_warns_and_changes_nothing(self, tmp_path, e2e_inputs, capsys):
        argv = ["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
                "--cadx-scores", e2e_inputs["cadx_scores"]]
        plain = tmp_path / "plain" / "fused.csv"
        assert run(argv + ["--out", plain]) == 0
        plain_out = capsys.readouterr()
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("sed=3\ntau-cade=0.2\n")
        typo = tmp_path / "typo" / "fused.csv"
        assert run(argv + ["--config", cfg, "--out", typo]) == 0
        typo_out = capsys.readouterr()
        assert typo_out.err == f"warning: {cfg}: key 'sed' was not used by fuse\n"
        assert typo_out.out == plain_out.out.replace(str(plain), str(typo))
        assert typo.read_bytes() == plain.read_bytes()

    def test_used_keys_do_not_warn(self, tmp_path, e2e_inputs, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"seed=3\nresamples=20\nci=no\nlabel=A\nout={out}\n"
                       f"coordinate-convention=lps\ncandidates={e2e_inputs['cade_a']}\n")
        # a key a flag overrides was still looked up
        assert run(["eval", "--references", e2e_inputs["references"], "--config", cfg,
                    "--seed", 4]) == 0
        assert capsys.readouterr().err == ""

    def test_bom_prefixed_config_keeps_first_key(self, tmp_path, e2e_inputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed=3\n")
        out = tmp_path / "out"
        assert run(["eval", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--config", cfg,
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_invalid_value_names_its_line(self, tmp_path, e2e_inputs, capsys):
        # a vertical tab inside a value does not end line 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\x0bx\nresamples=5\n")
        out = tmp_path / "out"
        assert run(["eval", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--config", cfg,
                    "--out", out]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}:1: config key 'seed' has invalid "
                                           "value '3\\x0bx'\n")
        assert not out.exists()

    def test_unknown_stratifier_exits_2(self, tmp_path, e2e_inputs, capsys):
        # argparse checks --stratify; a config value is checked by the evaluation
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stratify=bogus\n")
        out = tmp_path / "out"
        assert run(["eval", "--candidates", e2e_inputs["cade_a"],
                    "--references", e2e_inputs["references"], "--config", cfg,
                    "--out", out]) == 2
        assert "unknown stratifier 'bogus'; choose from" in capsys.readouterr().err
        assert not out.exists()


def write_command_inputs(directory):
    """Inputs for every subcommand: the end-to-end lists, their fused list and
    one report, the stats fixture's references and match tables, and a copy
    of CADE_A's list at ``eval_out/matches.csv``."""
    paths = write_e2e_inputs(directory)
    write_stats_fixture(directory)
    assert run(["fuse", "--cade-a", paths["cade_a"], "--cade-b", paths["cade_b"],
                "--cadx-scores", paths["cadx_scores"], "--out", directory / "fused.csv"]) == 0
    (directory / "reports.tsv").write_text("r1\ts1\tA 6 mm nodule in the right upper lobe.\n")
    (directory / "eval_out").mkdir()
    shutil.copy(paths["cade_a"], directory / "eval_out" / "matches.csv")
    return directory


# Every subcommand, run in the directory of ``write_command_inputs``: IN is
# the input a fault replaces, and OUT the output.
COMMANDS = {
    "fuse": "fuse --cade-a IN --cade-b cade_b.csv --cadx-scores cadx_scores.csv --out OUT",
    "eval": "eval --candidates IN --references references.csv --out OUT",
    "sweep": "sweep --mode cade --preset --candidates IN --references references.csv --out OUT",
    "stats": "stats --analysis consensus --matches matches --references IN --out OUT",
    "link": "link --reports reports.tsv --fused IN --out OUT",
}
# each command's IN, its role, and an output that names it
CLASHES = {
    "fuse": ("cade_a.csv", "cade_a", "cade_a.csv"),
    "eval": ("eval_out/matches.csv", "candidates", "eval_out"),
    "sweep": ("cade_a.csv", "candidates", "cade_a.csv"),
    "stats": ("refs.csv", "references", "refs.csv"),
    "link": ("fused.csv", "fused", "fused.csv"),
}


def command_argv(command, given, out):
    return [given if a == "IN" else out if a == "OUT" else a for a in COMMANDS[command].split()]


def write_bad_cell(source, target):
    """``source`` with the ``diameter_mm`` cell of its first data row not a number."""
    lines = source.read_text().splitlines(keepends=True)
    header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1].split(",")
    cells[lines[header].split(",").index("diameter_mm")] = "abc"
    lines[header + 1] = ",".join(cells)
    target.write_text("".join(lines))


# the CLI run with each volume's raw file cut to 4096 B right after it is mapped
CUT_AFTER_LOAD = (
    "import os, sys\n"
    "from trifuse import cli\n"
    "load = cli.load_volume\n"
    "def load_then_cut(header):\n"
    "    volume = load(header)\n"
    "    os.truncate(os.path.splitext(header)[0] + '.raw', 4096)\n"
    "    return volume\n"
    "cli.load_volume = load_then_cut\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


class TestExitCodes:
    """Each subcommand crossed with each input fault: exit 2 and one ``error:``
    line; a scorer that runs and fails: exit 3 and one ``scorer error:`` line."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fault", ["missing file", "directory", "bad cell",
                                       "output names input"])
    def test_input_fault_exits_2(self, tmp_path, monkeypatch, capsys, command, fault):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        capsys.readouterr()
        given, role, out = CLASHES[command]
        expected = {
            "missing file": "error: missing.csv: file does not exist\n",
            "directory": "error: matches: Is a directory\n",
            "bad cell": "column diameter_mm is not a number: 'abc'\n",
            "output names input": (f"error: output {given} is the {role} input {given}; "
                                   "refusing to overwrite it\n"),
        }[fault]
        if fault == "missing file":
            given = "missing.csv"
        elif fault == "directory":
            given = "matches"
        elif fault == "bad cell":
            write_bad_cell(tmp_path / given, tmp_path / "bad.csv")
            given = "bad.csv"
        if fault != "output names input":
            out = "result"
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(command_argv(command, given, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert err.endswith(expected) if fault == "bad cell" else err == expected
        # nothing written, and every input keeps its bytes
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("written", ["manifest", "entities"])
    def test_a_second_output_that_names_an_input_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         written):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        capsys.readouterr()
        # fuse's manifest and link's entity table go next to --out
        command, role, given = {"manifest": ("fuse", "cade_a", "x.manifest.json"),
                                "entities": ("link", "fused", "x.entities.csv")}[written]
        shutil.copy(CLASHES[command][0], given)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(command_argv(command, given, "x.csv")) == 2
        assert capsys.readouterr().err == (f"error: output {given} is the {role} input "
                                           f"{given}; refusing to overwrite it\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_failing_scorer_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"))
        capsys.readouterr()
        argv = command_argv("fuse", "cade_a.csv", "result.csv")
        argv[argv.index("--cadx-scores"):argv.index("--out")] = [
            "--cadx-cmd", f"{sys.executable} -c \"import sys; sys.exit(1)\"", "--volumes", "vols"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("scorer error: ") and err.count("\n") == 1
        assert "exited 1" in err and "Traceback" not in err
        assert not (tmp_path / "result.csv").exists()

    def test_scorer_ids_that_are_no_file_name_exit_0(self, tmp_path, monkeypatch):
        # an id with a path separator, and two keys whose scan, model and id joined
        # with "_" spell one name: each scorer scores by the z of its own patch's centre
        monkeypatch.chdir(tmp_path)
        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
        Path("a.csv").write_text(header + "s1,a/b,5,5,10,,0.9,CADE_A\n"
                                          "x,1_CADE_B_2,5,5,20,,0.9,CADE_A\n")
        Path("b.csv").write_text(header + "x_CADE_A_1,2,5,5,30,,0.9,CADE_B\n")
        write_volumes(tmp_path / "vols", ("s1", "x", "x_CADE_A_1"))
        Path("scorer.py").write_text(
            f"import sys\nsys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
            "from trifuse.volume import load_volume\n"
            "z = load_volume(sys.stdin.readline().strip()).header.origin_mm.z + 31.5 * 1.25\n"
            "print(z / 100, 0.5)\n")
        assert run(["fuse", "--cade-a", "a.csv", "--cade-b", "b.csv", "--volumes", "vols",
                    "--cadx-cmd", f"{sys.executable} scorer.py", "--out", "fused.csv"]) == 0
        rows = {r["provenance"]: r["cadx_avg"] for r in read_csv_rows(tmp_path / "fused.csv")}
        assert rows == {"CADE_A:a/b": repr((0.1 + 0.5) / 2),
                        "CADE_A:1_CADE_B_2": repr((0.2 + 0.5) / 2),
                        "CADE_B:2": repr((0.3 + 0.5) / 2)}

    def test_raw_file_cut_short_mid_run_exits_3(self, tmp_path, monkeypatch):
        # each intensity volume's raw file is cut short right after it is
        # mapped; through the memory map the patch would die of SIGBUS, so
        # the command runs in a child process
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"),
                      np.ones((128, 128, 64), dtype="<i2"))
        argv = command_argv("fuse", "cade_a.csv", "result.csv")
        argv[argv.index("--cadx-scores"):argv.index("--out")] = [
            "--cadx-cmd", f"{sys.executable} -c \"print(0.5, 0.5)\"", "--volumes", "vols"]
        done = run_python(CUT_AFTER_LOAD, *argv)
        assert done.returncode == 3, (done.returncode, done.stderr)
        assert done.stderr.startswith("scorer error: CADx scoring failed for CADE_A:c02 on "
                                      f"scan s1: {Path('vols', 's1.raw')}: voxel data cut short")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("command", ["fuse", "link"])
    def test_mask_cut_short_mid_run_exits_2(self, tmp_path, monkeypatch, command):
        # each mask's raw file is cut short right after it is mapped; through
        # the memory map the lookup would die of SIGBUS, so the command runs
        # in a child process
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "masks", ("s1", "s2", "s3", "s4"),
                      np.full((128, 128, 64), 28, dtype="<u1"))
        argv = command_argv(command, CLASHES[command][0], "result.csv") + ["--masks", "masks"]
        done = run_python(CUT_AFTER_LOAD, *argv)
        assert done.returncode == 2, (done.returncode, done.stderr)
        assert done.stderr.startswith(f"error: {Path('masks', 's1.raw')}: voxel data cut short "
                                      "since it was loaded: read 0 of 128 bytes at offset ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), 28.5])
    def test_mask_voxel_that_is_not_a_label_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        values = np.full((16, 16, 16), 28.0, dtype="<f4")
        values[11, 10, 10] = value  # under c01 on s1, the first candidate gated
        write_volumes(tmp_path / "masks", ("s1", "s2", "s3", "s4"), values)
        capsys.readouterr()
        assert run(command_argv("fuse", "cade_a.csv", "result.csv") + ["--masks", "masks"]) == 2
        assert capsys.readouterr().err == (f"error: {Path('masks', 's1.raw')}: voxel "
                                           f"(11, 10, 10) holds {value}, not a label\n")
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("command, role", [("fuse", "mask"), ("fuse", "volume"),
                                               ("link", "mask")])
    def test_an_output_that_names_a_raw_voxel_file_exits_2(self, tmp_path, monkeypatch, capsys,
                                                           command, role):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"),
                      np.full((8, 8, 8), 28, dtype="<u1"), spacing=(32.0, 32.0, 32.0))
        raw = Path("vols", "s1.raw")
        argv = command_argv(command, CLASHES[command][0], raw)
        if role == "mask":
            argv += ["--masks", "vols"]
        else:
            argv[argv.index("--cadx-scores"):argv.index("--out")] = [
                "--cadx-cmd", f"{sys.executable} -c \"print(0.5, 0.5)\"", "--volumes", "vols"]
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(argv) == 2
        assert capsys.readouterr().err == (f"error: output {raw} is the {role}:s1 input {raw}; "
                                           "refusing to overwrite it\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("bad", ["cade_a.csv", "reports.tsv", "run.cfg", "grammar.json",
                                     "masks/s1.hdr"])
    def test_text_that_is_not_utf8_exits_2(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "masks", ("s1", "s2", "s3", "s4"))
        Path("grammar.json").write_text('{"rules": [{"field": "mention", "pattern": "nodule"}]}')
        Path("run.cfg").write_text("seed=3\n")
        text = Path(bad).read_bytes()
        Path(bad).write_bytes(text + b"caf\xe9\n")  # Latin-1, on the line after the last
        line = text.count(b"\n") + 1
        argv = (["link", "--reports", "reports.tsv", "--fused", "fused.csv",
                 "--grammar", "grammar.json", "--out", "links.csv"]
                if bad in ("reports.tsv", "grammar.json") else
                command_argv("fuse", "cade_a.csv", "result.csv") + [
                    "--masks", "masks", "--config", "run.cfg"])
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(argv) == 2
        assert capsys.readouterr().err == (f"error: {Path(bad)}:{line}: not UTF-8 text: "
                                           "cannot decode byte 0xe9\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_scorer_output_that_is_not_utf8_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"))
        capsys.readouterr()
        argv = command_argv("fuse", "cade_a.csv", "result.csv")
        Path("scorer.py").write_text("import sys\nsys.stdout.buffer.write(b'0.5 0.5\\xff\\n')\n")
        argv[argv.index("--cadx-scores"):argv.index("--out")] = [
            "--cadx-cmd", f"{sys.executable} scorer.py", "--volumes", "vols"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("scorer error: external scorer output invalid for CADE_A:c02 on "
                              "scan s1: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "result.csv").exists()

    def test_missing_volume_header_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        (tmp_path / "vols").mkdir()
        capsys.readouterr()
        argv = command_argv("fuse", "cade_a.csv", "result.csv")
        argv[argv.index("--cadx-scores"):argv.index("--out")] = [
            "--cadx-cmd", f"{sys.executable} -c \"print(0.5, 0.5)\"", "--volumes", "vols"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: cannot load scan volume for CADE_A:c02 on scan s1: no intensity "
                       f"volume for scan 's1': {Path('vols', 's1.hdr')} not found\n")
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize("cade_b, code", [("cade_a.csv", 0), ("cade_b.csv", 2)])
    def test_fuse_without_a_cadx_provider(self, tmp_path, monkeypatch, capsys, cade_b, code):
        monkeypatch.chdir(write_command_inputs(tmp_path))
        capsys.readouterr()
        # CADE_A's list again as CADE_B's pairs every candidate: none needs a CADx score
        Path("b.csv").write_text(Path(cade_b).read_text().replace("CADE_A", "CADE_B"))
        assert run(["fuse", "--cade-a", "cade_a.csv", "--cade-b", "b.csv",
                    "--out", "f.csv"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and {r["stage"] for r in read_csv_rows(Path("f.csv"))} == {"consensus"}
        else:
            assert err == ("error: no CADx provider configured but candidate CADE_A:c02 on scan "
                           "s1 needs scoring; give --cadx-scores FILE or --cadx-cmd CMD\n")
            assert not Path("f.csv").exists()


def test_fuse_and_link_do_not_import_numpy_ma(tmp_path, e2e_inputs):
    # numpy.ma costs set-up time and memory; np.unique, for one, imports it
    masks = write_volumes(tmp_path / "masks", ("s1", "s2", "s3", "s4"),
                          np.full((8, 8, 8), 28, dtype="<u1"), spacing=(32.0, 32.0, 32.0))
    rng = np.random.default_rng(46)
    volumes = write_volumes(tmp_path / "vols", ("s1", "s2", "s3", "s4"),
                            rng.integers(-1000, 500, size=(24, 24, 24)).astype("<i2"),
                            spacing=(10.0, 10.0, 10.0))
    reports = tmp_path / "reports.tsv"
    reports.write_text("R1\ts1\tA 6 mm nodule in the right upper lobe.\n")
    fused = tmp_path / "fused.csv"
    argvs = [
        ["fuse", "--cade-a", e2e_inputs["cade_a"], "--cade-b", e2e_inputs["cade_b"],
         "--masks", masks, "--volumes", volumes,
         "--cadx-cmd", f"{sys.executable} -c \"print(0.5, 0.5)\"", "--out", fused],
        ["link", "--reports", reports, "--fused", fused, "--masks", masks,
         "--out", tmp_path / "links.csv"],
    ]
    assert exit_codes_and_numpy_ma(argvs) == [[0, 0], False]
    assert ",cadx_promoted," in fused.read_text()


def exit_codes_and_numpy_ma(argvs):
    """The exit codes of the commands run one after another in a fresh
    process, and whether numpy.ma was imported once they had run."""
    code = ("import json, sys\n"
            "from trifuse.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    done = run_python(code, json.dumps([[str(a) for a in argv] for argv in argvs]))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", ["eval", "stats", "sweep"])
def test_no_other_command_imports_numpy_ma(tmp_path, e2e_inputs, command):
    # as for fuse and link: np.median and np.percentile import numpy.ma too
    refs, matches = write_stats_fixture(tmp_path)
    candidates = ["--candidates", e2e_inputs["cade_a"], "--references", e2e_inputs["references"]]
    argvs = {
        "eval": [["eval", *candidates, "--ci", "--resamples", "20", "--stratify", "size:dlcs",
                  "--out", tmp_path / "eval"]],
        "stats": [["stats", "--analysis", analysis, "--matches", matches, "--references", refs,
                   "--out", tmp_path / f"{analysis}.csv"]
                  for analysis in ("consensus", "semantic", "overlap")],
        "sweep": [["sweep", "--mode", "cade", "--preset", *candidates,
                   "--out", tmp_path / "sweep.csv"]],
    }[command]
    assert exit_codes_and_numpy_ma(argvs) == [[0] * len(argvs), False]


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
def test_outputs_take_the_mode_open_gives(tmp_path, e2e_inputs):
    # 0o666 less the umask, as open() creates a file; the bytes do not depend on it
    code = ("import os, sys\n"
            "os.umask(int(sys.argv[1], 8))\n"
            "from trifuse.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n")
    fused = {}
    for umask, mode in (("022", 0o644), ("077", 0o600)):
        out = tmp_path / umask / "fused.csv"
        done = run_python(code, umask, "fuse", "--cade-a", e2e_inputs["cade_a"],
                          "--cade-b", e2e_inputs["cade_b"],
                          "--cadx-scores", e2e_inputs["cadx_scores"], "--out", out)
        assert done.returncode == 0, done.stderr
        for path in (out, out.parent / "fused.manifest.json"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, (path, umask)
        fused[umask] = out.read_bytes()
    assert fused["022"] == fused["077"]
    assert not list(tmp_path.rglob("*.tmp"))


def write_pin_cohort(directory, n_scans=50, seed=29):
    """A seeded fuse-and-link cohort with score ties, empty diameters,
    near-duplicates, pairs on the consensus radius and reports.

    Only ``random.Random.random`` draws the values, and every value is
    written with fixed decimals, so the files are the same bytes everywhere.
    """
    rng = random.Random(seed)

    def pick(options):
        return options[int(rng.random() * len(options))]

    header = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
    lists = {"CADE_A": [], "CADE_B": []}
    cadx = []
    reports = []
    for s in range(n_scans):
        scan = f"scan{s:03d}"
        anchors = [(pick((-40, -10, 0, 25, 60)) + pick((0.0, 0.5)),
                    pick((-30, 5, 30)) * 1.0, pick((-80, -20, 10)) * 1.0)
                   for _ in range(1 + int(rng.random() * 4))]
        offsets = ((0, 0, 0), (3, 4, 0), (0, 1.2, 1.6), (1, 0, 0), (0, 0, 5), (6, 0, 0))
        for model in lists:
            for k in range(int(rng.random() * 9)):
                ax, ay, az = pick(anchors)
                dx, dy, dz = pick(offsets)
                diameter = pick(("", "", "4.0", "6.5", "10.0", "12.0", "16.0"))
                score = pick(("0.05", "0.15", "0.25", "0.5", "0.5", "0.75", "0.9"))
                cid = f"c{pick(range(12)):02d}" if k < 12 else f"c{k:02d}"
                if any(row[1] == cid for row in lists[model] if row[0] == scan):
                    cid = f"{cid}x{k}"
                lists[model].append((scan, cid, f"{ax + dx:.2f}", f"{ay + dy:.2f}",
                                     f"{az + dz:.2f}", diameter, score, model))
                cadx.append(f"{scan},{model},{cid},{pick(('0.0', '0.05', '0.1', '0.3'))},"
                            f"{pick(('0.0', '0.1', '0.2', '0.6'))}\n")
        if rng.random() < 0.85:
            sentences = [
                f"{pick(('A', 'One'))} {pick(('4', '6', '9', '10', '12', '15'))} mm "
                f"{pick(('nodule', 'opacity', 'lesion'))} "
                f"{pick(('in the right upper lobe', 'in the left lower lobe', 'on the left', 'on the right', ''))}"
                f"{pick(('', ', Lung-RADS 3', ', malignancy 4', ', spiculation: 2'))}"
                for _ in range(int(rng.random() * 4))
            ]
            if rng.random() < 0.2:
                sentences.append("Nodule in the right middle lobe")
            reports.append(f"r{s:03d}\t{scan}\t{'. '.join(sentences)}\n")
    reports.append("r999\tscan999\tA 7 mm nodule on a scan no detector saw\n")
    paths = {}
    for model, rows in lists.items():
        paths[model] = directory / f"{model.lower()}.csv"
        paths[model].write_text(header + "".join(",".join(r) + "\n" for r in rows),
                                encoding="utf-8")
    paths["cadx"] = directory / "cadx_scores.csv"
    paths["cadx"].write_text("scan_id,model,candidate_id,p_luna,p_dlcs\n" + "".join(cadx),
                             encoding="utf-8")
    paths["reports"] = directory / "reports.tsv"
    paths["reports"].write_text("".join(reports), encoding="utf-8")
    return paths


class TestFuseLinkBytePin:
    """``fuse`` then ``link`` on a seeded cohort give the bytes recorded from
    the record-based fusion and linkage that the columnar code replaced."""

    DIGESTS = {
        "fused.csv": "de50473abcfccdc919e46e5a2c0807152378cd313cdc9a8b25d8c07bb82af3a2",
        "links.csv": "b3ba14b381e8e52f224863d98044c14b35ac45ff842ba91480f2dc267f597ef5",
        "links.entities.csv": "8523a0e08d9925d78a9e6578d1ac84394446056dc8be4ae639447ccabea50a26",
    }

    def test_outputs_keep_their_bytes(self, tmp_path):
        import hashlib

        paths = write_pin_cohort(tmp_path)
        fused = tmp_path / "fused.csv"
        links = tmp_path / "links.csv"
        assert run(["fuse", "--cade-a", paths["CADE_A"], "--cade-b", paths["CADE_B"],
                    "--cadx-scores", paths["cadx"], "--out", fused]) == 0
        assert run(["link", "--reports", paths["reports"], "--fused", fused,
                    "--out", links]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.DIGESTS}
        assert got == self.DIGESTS


PIN_REPORTS = (
    "r1\ts1\tA 6 mm nodule in the left upper lobe.\n"
    "r2\ts2\tA 9 mm nodule in the left lower lobe; a 4 mm opacity, spiculation: 2\n"
    "r3\ts3\tNodule on the right, malignancy 4. Lung-RADS 3\n"
    "r4\ts4\tno findings\n"
)
PIN_GRAMMAR = {"rules": [
    {"field": "mention", "pattern": r"\b(nodule|opacity)\b"},
    {"field": "size_mm", "pattern": r"(?P<value>\d+(?:\.\d+)?)\s*mm\b"},
    {"field": "lobe", "pattern": r"\bleft\s+upper\s+lobe\b", "value": "LUL"},
    {"field": "lobe", "pattern": r"\bleft\s+lower\s+lobe\b", "value": "LLL"},
    {"field": "laterality", "pattern": r"\bright\b", "value": "right"},
    {"field": "ordinal:spiculation", "pattern": r"\bspiculation\s*[:=]?\s*(?P<value>\d)\b"},
]}


def write_manifest_pin_inputs(directory):
    """The end-to-end fixture plus what the other commands read: lobe masks
    and intensity volumes for s1-s4, labeled scores, reports and a grammar."""
    from conftest import write_e2e_inputs

    paths = write_e2e_inputs(directory)
    # 8^3 voxels of 64 mm around the origin hold every fixture candidate
    origin, spacing = WorldPoint(-256.0, -256.0, -256.0), (64.0, 64.0, 64.0)
    for sub in ("masks", "vols"):
        (directory / sub).mkdir()
    for k, scan in enumerate(("s1", "s2", "s3", "s4")):
        labels = np.full((8, 8, 8), 28 + k, dtype=np.uint8)
        values = np.arange(512, dtype=np.int16).reshape(8, 8, 8) * (k + 1) - 700
        save_volume(Volume.from_array(labels, spacing, origin), directory / "masks" / f"{scan}.hdr")
        save_volume(Volume.from_array(values, spacing, origin), directory / "vols" / f"{scan}.hdr")
    paths["masks"] = directory / "masks"
    paths["vols"] = directory / "vols"
    paths["scored"] = directory / "scored.csv"
    paths["scored"].write_text("scan_id,candidate_id,score,label\n"
                               "s1,c1,0.9,cancer\ns1,c2,0.4,no-cancer\ns2,c3,0.45,cancer\n"
                               "s2,c4,0.05,no-cancer\ns3,c5,0.5,no-cancer\n")
    paths["reports"] = directory / "reports.tsv"
    paths["reports"].write_text(PIN_REPORTS)
    paths["grammar"] = directory / "grammar.json"
    paths["grammar"].write_text(json.dumps(PIN_GRAMMAR, indent=1))
    paths["config"] = directory / "fuse.cfg"
    paths["config"].write_text("lung-labels=28,29\ndedup-radius-mm=1.5\nseed=5\n")
    return paths


class TestManifestPin:
    """Each command variant keeps its manifest (digest, config, seed, input
    roles) and the bytes of every output, as recorded before the commands
    shared one run object. Inputs are the end-to-end fixture, except that
    ``stats`` reads the rated references and match tables of
    ``write_stats_fixture``."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        import hashlib
        import os

        root = tmp_path_factory.mktemp("pin")
        p = write_manifest_pin_inputs(root / "inputs")
        # the scorer command names "python3", found on PATH, so the manifest
        # config (and digest) do not depend on where the interpreter lives
        shim = root / "bin"
        shim.mkdir()
        (shim / "python3").symlink_to(sys.executable)
        scorer = "python3 -c \"print(0.5, 0.5)\""
        fuse = ["fuse", "--cade-a", p["cade_a"], "--cade-b", p["cade_b"]]
        fused = root / "fuse_plain" / "fused.csv"
        # references with votes and ratings, so every analysis has rows
        rated, matches = write_stats_fixture(root)
        stats = ["stats", "--matches", matches, "--references", rated]
        link = ["link", "--reports", p["reports"], "--fused", fused]
        variants = {
            "fuse_plain": fuse + ["--cadx-scores", p["cadx_scores"]],
            "fuse_masks_config": fuse + ["--cadx-scores", p["cadx_scores"], "--masks", p["masks"],
                                         "--config", p["config"], "--coordinate-convention", "ras"],
            "fuse_volumes_cmd": fuse + ["--masks", p["masks"], "--volumes", p["vols"],
                                        "--cadx-cmd", scorer],
            "eval_plain": ["eval", "--candidates", p["cade_a"], "--references", p["references"]],
            "eval_ci": ["eval", "--candidates", fused, "--references", p["references"],
                        "--stratify", "size:dlcs", "--ci", "--resamples", 40, "--seed", 3,
                        "--label", "A"],
            "sweep_cade": ["sweep", "--mode", "cade", "--preset", "--candidates", p["cade_a"],
                           "--references", p["references"]],
            "sweep_cadx": ["sweep", "--mode", "cadx", "--thresholds", "0.1,0.5",
                           "--scored", p["scored"]],
            "stats_consensus": stats + ["--analysis", "consensus"],
            "stats_semantic": stats + ["--analysis", "semantic"],
            "stats_semantic_per_model": stats + ["--analysis", "semantic", "--per-model"],
            "stats_overlap": stats + ["--analysis", "overlap"],
            "link_plain": link,
            "link_masks_grammar": link + ["--masks", p["masks"], "--grammar", p["grammar"],
                                          "--size-tol-mm", 2, "--ordinal-tol", 0],
        }
        got = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PATH", f"{shim}{os.pathsep}{os.environ.get('PATH', '')}")
            for name, argv in variants.items():
                out_dir = root / name
                command = name.split("_")[0]
                out = out_dir if command == "eval" else out_dir / f"{self.OUT[command]}.csv"
                assert run(argv + ["--out", out]) == 0, name
                outputs = {}
                for path in sorted(out_dir.iterdir()):
                    if path.name.endswith("manifest.json"):
                        manifest = json.loads(path.read_text())
                    else:
                        outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
                got[name] = {"digest": manifest["digest"], "config": manifest["config"],
                             "seed": manifest["seed"], "inputs": sorted(manifest["inputs"]),
                             "outputs": outputs}
        return got

    OUT = {"fuse": "fused", "sweep": "sweep", "stats": "stats", "link": "links"}
    EXPECTED = {
        "fuse_plain": {
            "digest": "cfc68d03dca63499658331fdcfe21a8b249706cf1022c28cf82420404ca8cf39",
            "config": {"cadx_cmd": None, "consensus_radius_mm": 5.0,
                       "consensus_radius_policy": "adaptive", "coordinate_convention": "lps",
                       "dedup_radius_mm": 2.0, "lung_labels": [28, 29, 30, 31, 32],
                       "tau_cade": 0.2, "tau_cadx": 0.1},
            "seed": 17,
            "inputs": ["cade_a", "cade_b", "cadx_scores"],
            "outputs": {
                "fused.csv": "7a9270fa2e414a0abc1b2995a138d1319b83706f850fa0b866191c415c94e891",
            },
        },
        "fuse_masks_config": {
            "digest": "b5053b217f3d7074c55ae1aa3074eb850d059427e3a0c006005c9223c1ee6d42",
            "config": {"cadx_cmd": None, "consensus_radius_mm": 5.0,
                       "consensus_radius_policy": "adaptive", "coordinate_convention": "ras",
                       "dedup_radius_mm": 1.5, "lung_labels": [28, 29], "tau_cade": 0.2,
                       "tau_cadx": 0.1},
            "seed": 5,
            "inputs": [
                "cade_a", "cade_b", "cadx_scores", "mask:s1", "mask:s2", "mask:s3", "mask:s4",
            ],
            "outputs": {
                "fused.csv": "a736b72499dba841256f25b4c076aa50396dc1cd3ec924820b57c10d3a2f6ad7",
            },
        },
        "fuse_volumes_cmd": {
            "digest": "2d215de9c57c6b2ebf251fd7a6012e550ade8fa56ab7c7878a259d636a1d8142",
            "config": {"cadx_cmd": "python3 -c \"print(0.5, 0.5)\"", "consensus_radius_mm": 5.0,
                       "consensus_radius_policy": "adaptive", "coordinate_convention": "lps",
                       "dedup_radius_mm": 2.0, "lung_labels": [28, 29, 30, 31, 32],
                       "tau_cade": 0.2, "tau_cadx": 0.1},
            "seed": 17,
            "inputs": [
                "cade_a", "cade_b", "mask:s1", "mask:s2", "mask:s3", "mask:s4", "volume:s1",
                "volume:s2", "volume:s3", "volume:s4",
            ],
            "outputs": {
                "fused.csv": "97bde14f384387a58618ce35027bc302aaa6a2c2185a6d65194c3f564d1db0f4",
            },
        },
        "eval_plain": {
            "digest": "ae3dab1f7e9a13a3a16a1fde8123de8b98737e1806520402669751e42c6760b3",
            "config": {"ci": False, "coordinate_convention": "lps", "label": "cade_a",
                       "resamples": None, "stratify": None},
            "seed": 17,
            "inputs": ["candidates", "references"],
            "outputs": {
                "matches.csv": "054efddc7ac968f01b94bbe7f02ab7aa5d551d482aed1b3e6780f398431ef0fe",
                "metrics.csv": "917ca0705164ef58e3816bf10e5be1d659d6b002f55e7325677a6b77998f9a95",
                "metrics.json": "658322bcecd28e408b1314dcefd01d73bdaa5b3861d0c4915d80321e3b25d745",
                "metrics.raw.json": "0d33d61785b8ab33cc57f81da2693c100ec76f9bd0d5b36635c23ebd3427037e",
            },
        },
        "eval_ci": {
            "digest": "8afbb60e3dca4954220c7396073b1ceeee84c2b5ddc4a81eb237a7f3293d9a75",
            "config": {"ci": True, "coordinate_convention": "lps", "label": "A", "resamples": 40,
                       "stratify": "size:dlcs"},
            "seed": 3,
            "inputs": ["candidates", "references"],
            "outputs": {
                "matches.csv": "2b70fe4a2d20b068c7b155e09cb27a1aba797cc8b91b69331d6b0737f900c41a",
                "metrics.csv": "008dbec31faa4f72603611eff03ae51c0a2e8c9bcafcd6b311fe5baf128e8d8f",
                "metrics.json": "a6d8aa73777215c99b80f97936746b897ebd3e4e9f7c92e97343caf2eebc2f64",
                "metrics.raw.json": "1c298d83b1851b046d57a8ec93f72b6fe8670d92f64b44cad43e63768b1eee2b",
            },
        },
        "sweep_cade": {
            "digest": "ac26fb39007cbd5e4cfa200efa61ff5af44ceaebe4b32324b50140b0edef70f8",
            "config": {"coordinate_convention": "lps", "mode": "cade",
                       "thresholds": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]},
            "seed": 17,
            "inputs": ["candidates", "references"],
            "outputs": {
                "sweep.csv": "f6ee44ce5d63a32900ad264bac69372152a0ab5ed518014130a735c215449d86",
            },
        },
        "sweep_cadx": {
            "digest": "606e53baf6544c9dd2aa626dc76b768794dfa6fc7f00501e5e6cd18f3db5ed69",
            "config": {"mode": "cadx", "thresholds": [0.1, 0.5]},
            "seed": 17,
            "inputs": ["scored"],
            "outputs": {
                "sweep.csv": "53c8d1d2c42f167768ff73c55d5b0ecb92f92a473f8d085ab665cd53905baf99",
            },
        },
        "stats_consensus": {
            "digest": "9ceaa46ff6dfb84d8f0658e40ab48672176f5ef32fd19df09550f4125c3f9aa4",
            "config": {"analysis": "consensus", "per_model": False},
            "seed": 17,
            "inputs": ["matches:matches_A", "matches:matches_B", "references"],
            "outputs": {
                "stats.csv": "e012233fad226ccebd18fec08ec2d532fa3bb46e665dd980feeb65f0a05024c0",
            },
        },
        "stats_semantic": {
            "digest": "13b687d3e0322e3d2a37670d87aeeb3b451a3987ad8d06cb8b10f32ecc7cb3d9",
            "config": {"analysis": "semantic", "per_model": False},
            "seed": 17,
            "inputs": ["matches:matches_A", "matches:matches_B", "references"],
            "outputs": {
                "stats.csv": "1880d74798560544a2f62b0e55d22e293016464f4cc2460a7889f7bc9f5d20fb",
            },
        },
        "stats_semantic_per_model": {
            "digest": "3d4b4344958a66b446d1ff2e4390c80b263b58187dd5df284b514014c12b3191",
            "config": {"analysis": "semantic", "per_model": True},
            "seed": 17,
            "inputs": ["matches:matches_A", "matches:matches_B", "references"],
            "outputs": {
                "stats.csv": "cda86edb262a5e579faf62fd51bed8c4a929a7bb99e980ac706e31ad61e34852",
            },
        },
        "stats_overlap": {
            "digest": "1c2865a0c930ebccf94a3057cc69b1948f18b910177ae9d4c07fe33f96f49978",
            "config": {"analysis": "overlap", "per_model": False},
            "seed": 17,
            "inputs": ["matches:matches_A", "matches:matches_B", "references"],
            "outputs": {
                "stats.csv": "e32cfba2415ae971b92617aff64fcd89a33ced538e0f979998cb64f6d1f22216",
            },
        },
        "link_plain": {
            "digest": "0911496d92e8ef78d9b3a65109f84a0fd1b2631926c4131e6d51ba5ed74c0b75",
            "config": {"coordinate_convention": "lps", "ordinal_tol": 1, "size_tol_mm": 3.0},
            "seed": 17,
            "inputs": ["fused", "reports"],
            "outputs": {
                "links.csv": "4cdc8b0aa9f76a09c931d4af5304f2ce126381b37a8b8580d10d6273a712b3f1",
                "links.entities.csv": "61bfac130e3e78247510c9c87ae319a4152851f75b5e4b71086245616e90ae88",
            },
        },
        "link_masks_grammar": {
            "digest": "10c28520f36da65d7a699d3f339dc4256e46625257386056fc1a6b75dc2fa357",
            "config": {"coordinate_convention": "lps", "ordinal_tol": 0, "size_tol_mm": 2.0},
            "seed": 17,
            "inputs": ["fused", "grammar", "mask:s1", "mask:s2", "mask:s3", "mask:s4", "reports"],
            "outputs": {
                "links.csv": "b4b73f33c86bf750688b1b54b3147c20ec37cbcf4c8fe22e1ebe0a937e76cebf",
                "links.entities.csv": "8bead525687755754b3e25fb16742816e6236e4e74ffe2caaf2b99638cb3a0c0",
            },
        },
    }

    @pytest.mark.parametrize("variant", [
        "fuse_plain", "fuse_masks_config", "fuse_volumes_cmd", "eval_plain", "eval_ci",
        "sweep_cade", "sweep_cadx", "stats_consensus", "stats_semantic",
        "stats_semantic_per_model", "stats_overlap", "link_plain", "link_masks_grammar",
    ])
    def test_manifest_and_outputs_keep_their_values(self, runs, variant):
        assert runs[variant] == self.EXPECTED[variant]
