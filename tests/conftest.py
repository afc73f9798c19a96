"""Shared builders for the synthetic fixtures used across the suite."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifuse
from trifuse.domain import CandidateDetection, ReferenceNodule, WorldPoint


def cand(scan, cid, x, y, z, score, model="M", diameter=None):
    return CandidateDetection(
        scan_id=scan,
        candidate_id=cid,
        center=WorldPoint(x, y, z),
        score=score,
        source_model=model,
        diameter_mm=diameter,
    )


def ref(scan, nid, x, y, z, diameter, **kwargs):
    return ReferenceNodule(
        scan_id=scan,
        nodule_id=nid,
        center=WorldPoint(x, y, z),
        diameter_mm=diameter,
        **kwargs,
    )


def run_python(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports the trifuse under test,
    with ``args`` as ``sys.argv[1:]``. A crash there, such as a SIGBUS, ends
    only that process."""
    path = [str(Path(trifuse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


# ---------------------------------------------------------------------------
# The 4-scan CPM fixture: four lesions and a hand-crafted score ladder.
#
# Cumulative (TP, FP) down the ladder:
#   0.95 (1,0) | 0.90 (1,1) | 0.85 (2,1) | 0.80 (2,2) | 0.75 (2,3)
#   0.70 (3,3) | 0.65 (3,4) | 0.60 (3,5) | 0.55 (4,5) | 0.50 (4,6)
# With 4 scans the FP/scan targets (1/8 ... 8) admit cutoffs with
# sensitivities (0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0); CPM = 5/7.

CPM_FIXTURE_SENSITIVITIES = (0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0)
CPM_FIXTURE_CPM = 5.0 / 7.0

CPM_FIXTURE_REFERENCES = [
    ("s1", "r1", (10.0, 10.0, 10.0), 8.0),
    ("s2", "r2", (20.0, 20.0, 20.0), 10.0),
    ("s3", "r3", (30.0, 30.0, 30.0), 4.0),
    ("s4", "r4", (40.0, 40.0, 40.0), 20.0),
]

# (scan, id, center, score, hits)
CPM_FIXTURE_CANDIDATES = [
    ("s1", "c01", (11.0, 10.0, 10.0), 0.95, "r1"),
    ("s1", "c02", (100.0, 100.0, 100.0), 0.90, None),
    ("s2", "c03", (22.0, 20.0, 20.0), 0.85, "r2"),
    ("s2", "c04", (120.0, 120.0, 120.0), 0.80, None),
    ("s3", "c05", (130.0, 130.0, 130.0), 0.75, None),
    ("s3", "c06", (31.0, 31.0, 30.0), 0.70, "r3"),
    ("s4", "c07", (140.0, 140.0, 140.0), 0.65, None),
    ("s1", "c08", (60.0, 60.0, 60.0), 0.60, None),
    ("s4", "c09", (43.0, 40.0, 40.0), 0.55, "r4"),
    ("s2", "c10", (150.0, 150.0, 150.0), 0.50, None),
]


def cpm_fixture():
    """Domain objects for the 4-scan ladder (single-model candidate list)."""
    references = [
        ref(scan, nid, *center, d) for scan, nid, center, d in CPM_FIXTURE_REFERENCES
    ]
    candidates = [
        cand(scan, cid, *center, score)
        for scan, cid, center, score, _ in CPM_FIXTURE_CANDIDATES
    ]
    return candidates, references


def cpm_fixture_tuples():
    """The same fixture in the plain-tuple form the oracles consume."""
    scan_data = {}
    for scan, nid, center, d in CPM_FIXTURE_REFERENCES:
        scan_data.setdefault(scan, ([], []))[1].append((nid, center, d))
    for scan, cid, center, score, _ in CPM_FIXTURE_CANDIDATES:
        scan_data.setdefault(scan, ([], []))[0].append((cid, center, score))
    return scan_data


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# End-to-end files: two detector lists plus classifier scores whose fusion
# reproduces the CPM ladder exactly (pairs keep their common score; single-
# detector candidates keep their own score).
#
# Consensus pairs: c01, c03, c06, c08, c09. Single-detector candidates:
# c02 (A, CADx avg 0.40 -> tier 0.5), c04 (B, avg 0.05, score 0.80 -> 0.2),
# c05 (A, avg 0.20 -> 0.5), c07 (B, avg 0.05, score 0.65 -> 0.2),
# c10 (A, avg 0.15 -> 0.5), plus x1 (A, avg 0.02, score 0.15 -> rejected).

E2E_PAIRED = {"c01", "c03", "c06", "c08", "c09"}
E2E_SINGLES = {  # cid -> (model, p_luna, p_dlcs)
    "c02": ("CADE_A", 0.5, 0.3),
    "c04": ("CADE_B", 0.05, 0.05),
    "c05": ("CADE_A", 0.2, 0.2),
    "c07": ("CADE_B", 0.0, 0.1),
    "c10": ("CADE_A", 0.15, 0.15),
}
E2E_REJECTED = ("s3", "x1", (200.0, 200.0, 200.0), 0.15, "CADE_A", 0.02, 0.02)


def write_reference_csv(path: Path):
    header = ("scan_id", "nodule_id", "x_mm", "y_mm", "z_mm", "diameter_mm",
              "diagnosis", "lungrads", "reviewers", "positive_votes")
    rows = [
        (scan, nid, center[0], center[1], center[2], d, "unknown", "", "", "")
        for scan, nid, center, d in CPM_FIXTURE_REFERENCES
    ]
    return _write_csv(path, header, rows)


def write_e2e_inputs(directory: Path):
    """Write cade_a.csv, cade_b.csv, cadx_scores.csv and references.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    header = ("scan_id", "candidate_id", "x_mm", "y_mm", "z_mm",
              "diameter_mm", "score", "model")
    rows_a, rows_b, cadx_rows = [], [], []
    for scan, cid, center, score, _ in CPM_FIXTURE_CANDIDATES:
        if cid in E2E_PAIRED:
            rows_a.append((scan, cid, center[0], center[1], center[2], "", score, "CADE_A"))
            rows_b.append((scan, cid, center[0], center[1], center[2], "", score, "CADE_B"))
        else:
            model, p_luna, p_dlcs = E2E_SINGLES[cid]
            row = (scan, cid, center[0], center[1], center[2], "", score, model)
            (rows_a if model == "CADE_A" else rows_b).append(row)
            cadx_rows.append((scan, model, cid, p_luna, p_dlcs))
    scan, cid, center, score, model, p_luna, p_dlcs = E2E_REJECTED
    rows_a.append((scan, cid, center[0], center[1], center[2], "", score, model))
    cadx_rows.append((scan, model, cid, p_luna, p_dlcs))

    paths = {
        "cade_a": _write_csv(directory / "cade_a.csv", header, rows_a),
        "cade_b": _write_csv(directory / "cade_b.csv", header, rows_b),
        "cadx_scores": _write_csv(
            directory / "cadx_scores.csv",
            ("scan_id", "model", "candidate_id", "p_luna", "p_dlcs"),
            cadx_rows,
        ),
        "references": write_reference_csv(directory / "references.csv"),
    }
    return paths


@pytest.fixture
def e2e_inputs(tmp_path):
    return write_e2e_inputs(tmp_path / "inputs")
