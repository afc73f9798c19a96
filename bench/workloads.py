"""The command sequence of one pass of each workload.

An operation is one ``trifuse.cli.main(argv)`` invocation. Each operation
names the files it writes (compared across passes and checked), its
metric group (``kind``) and the public functions a traced run must see it
reach.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("luna", "bootstrap", "volumes")
DEFAULT_SEED = 1

# Public functions every operation of a command kind must reach in a traced run.
_REACH = {
    "fuse": ("fileio.read_candidates", "fusion.fuse_scans", "fusion.suppress_same_model_duplicates",
             "fusion.cross_detector_consensus", "fileio.write_fused_csv", "fileio.build_manifest"),
    "eval": ("fileio.read_candidates", "fileio.read_references", "froc.evaluate",
             "froc.match_lesions", "froc.froc_curve", "fileio.write_json"),
    "sweep": ("fileio.read_candidates", "sweeps.sweep_cade", "froc.match_lesions"),
    "stats": ("fileio.read_references", "fileio.read_match_files"),
    "link": ("fileio.read_reports", "fileio.read_fused", "reportlink.extract_entities",
             "reportlink.match_entities"),
}


def _op(name, kind, argv, outputs, extra_reach=()):
    return {
        "name": name,
        "kind": kind,
        "argv": [str(a) for a in argv],
        "outputs": [str(p) for p in outputs],
        "expects": list(_REACH[kind.split(":")[0]]) + list(extra_reach),
    }


def _manifest(path: Path) -> Path:
    return path.parent / (path.stem + ".manifest.json")


def _eval_outputs(out: Path) -> list[Path]:
    return [out / n for n in ("metrics.json", "metrics.raw.json", "metrics.csv",
                              "matches.csv", "manifest.json")]


def operations(workload: str, files: dict, out: Path, scorer: Path, resamples: int) -> list[dict]:
    """The operations of one pass, in order; every output lands under ``out``."""
    if workload == "luna":
        fused = out / "fused.csv"
        ops = [_op("fuse", "fuse",
                   ["fuse", "--cade-a", files["cade_a"], "--cade-b", files["cade_b"],
                    "--cadx-scores", files["cadx_scores"], "--out", fused],
                   [fused, _manifest(fused)],
                   ("fileio.read_cadx_scores", "fusion.FileCadxProvider.__call__"))]
        for label, source in (("CADE_A", files["cade_a"]), ("CADE_B", files["cade_b"]),
                              ("FUSED", fused)):
            dest = out / f"eval_{label.lower()}"
            ops.append(_op(f"eval_{label.lower()}", "eval",
                           ["eval", "--candidates", source, "--references", files["references"],
                            "--label", label, "--out", dest],
                           _eval_outputs(dest)))
        sweep = out / "sweep_cade.csv"
        ops.append(_op("sweep", "sweep",
                       ["sweep", "--mode", "cade", "--preset", "--candidates", fused,
                        "--references", files["references"], "--out", sweep],
                       [sweep, _manifest(sweep)]))
        # rank tests run only for characteristics with two detected and two missed
        # values, which a small cohort may lack: they are counted, not required
        for analysis, reach in (("semantic", ("readerstats.detected_vs_missed_table",)),
                                ("consensus", ("froc.detection_probability_summary",))):
            dest = out / f"stats_{analysis}.csv"
            ops.append(_op(f"stats_{analysis}", "stats",
                           ["stats", "--analysis", analysis, "--matches", out / "matches",
                            "--references", files["references"], "--out", dest],
                           [dest, _manifest(dest)], reach))
        ops[-2]["prepare"] = "match_tables"  # untimed: gather the eval match tables
        links = out / "links.csv"
        ops.append(_op("link", "link",
                       ["link", "--reports", files["reports"], "--fused", fused, "--out", links],
                       [links, out / "links.entities.csv", _manifest(links)]))
        return ops
    if workload == "bootstrap":
        ops = []
        for name, extra in (("eval_ci", []), ("eval_strata", ["--stratify", "size:dlcs"])):
            dest = out / name
            ops.append(_op(name, "eval:strata" if extra else "eval:ci",
                           ["eval", "--candidates", files["candidates"],
                            "--references", files["references"], "--ci",
                            "--resamples", resamples, *extra, "--out", dest],
                           _eval_outputs(dest),
                           ("froc.stratified_eval",) if extra else ()))
        return ops
    if workload == "volumes":
        fused = out / "fused.csv"
        links = out / "links.csv"
        return [
            _op("fuse", "fuse",
                ["fuse", "--cade-a", files["cade_a"], "--cade-b", files["cade_b"],
                 "--masks", files["masks"], "--volumes", files["volumes"],
                 "--cadx-cmd", f"sh {scorer}", "--out", fused],
                [fused, _manifest(fused)],
                ("volume.load_volume", "volume.centroid_in_lung", "volume.extract_patch",
                 "volume.save_patch", "fusion.CommandCadxProvider.__call__")),
            _op("link", "link",
                ["link", "--reports", files["reports"], "--fused", fused,
                 "--masks", files["masks"], "--out", links],
                [links, out / "links.entities.csv", _manifest(links)],
                ("volume.load_volume", "reportlink.lobe_of_candidate")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def stage_match_tables(out: Path) -> None:
    """Gather the three eval match tables into the directory ``stats`` reads."""
    dest = out / "matches"
    dest.mkdir(parents=True, exist_ok=True)
    for label in ("cade_a", "cade_b", "fused"):
        src = out / f"eval_{label}" / "matches.csv"
        (dest / f"{label}.csv").write_bytes(src.read_bytes())
