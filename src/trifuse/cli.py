"""Command-line surface: fuse, eval, sweep, stats and link subcommands.

Every command is deterministic given (inputs, flags, seed). Exit codes:
0 success; 2 input/schema error (a text input that is not UTF-8 among
them), an output path that cannot be written or that is an input (a
volume's raw file among them), ``fuse`` with a candidate to score but no
CADx provider, a scan volume the scorer's patch cannot be taken from, or a
mask whose raw file is cut short mid-run or whose voxel under a candidate
is not a whole-number label; 3 a CADx scorer that failed or
printed output that is not UTF-8 text, or whose patch could not be
extracted or saved; 4 internal invariant violation. A ``--config FILE`` of
key=value lines mirrors every flag (keys are the long flag names without
the leading dashes); explicit flags win over the config file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

from . import fileio
from .domain import SOURCE_MODEL_A, SOURCE_MODEL_B, PipelineConfig, require_finite
from .errors import ConfigError, InputError, InvariantError, ScorerError
from .froc import (
    STRATIFIERS,
    detection_probability_summary,
    evaluate,
    stratified_eval,
)
from .fusion import CommandCadxProvider, FileCadxProvider, fuse_scans
from .readerstats import detected_vs_missed_table, missed_overlap_table
from .reportlink import (
    LinkColumns,
    default_grammar,
    extract_entities,
    load_grammar,
    lobe_of_candidate,
    match_entities,
)
from .sweeps import (
    CADE_PRESET_THRESHOLDS,
    CADX_PRESET_THRESHOLDS,
    sweep_cade,
    sweep_cadx,
)
from .volume import Volume, load_volume

DEFAULT_SEED = 17
DEFAULT_RESAMPLES = 1000


class _Run:
    """One command run: its options, the inputs it read, and its manifest.

    Options are looked up layered: explicit flag, then config file, then
    default. Every name looked up is recorded, so config keys no lookup asked
    for can be reported; every file read is recorded under its role, so the
    manifest covers exactly the inputs the outputs came from. A loaded
    volume's raw file is not hashed, but no output may overwrite it either.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = fileio.parse_config_file(args.config) if args.config else {}
        self.looked_up: set[str] = set()
        self.inputs: dict[str, str | Path] = {}
        self.voxel_files: dict[str, Path] = {}
        self.convention = self.choice("coordinate-convention", ("lps", "ras"), "lps")
        self.seed = self.get("seed", DEFAULT_SEED, int)

    def unused_config_keys(self) -> list[str]:
        return [key for key in self.config if key not in self.looked_up]

    def get(self, name: str, default=None, cast=str):
        self.looked_up.add(name)
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if name in self.config:
            raw, line = self.config[name]
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{self.args.config}:{line}: config key {name!r} "
                                  f"has invalid value {raw!r}") from None
        return default

    def get_flag(self, name: str) -> bool:
        self.looked_up.add(name)
        if getattr(self.args, name.replace("-", "_"), False):
            return True
        raw = self.config.get(name, ("", 0))[0].lower()
        return raw in ("1", "true", "yes", "on")

    def require(self, name: str, cast=str):
        value = self.get(name, None, cast)
        if value is None:
            raise InputError(f"missing required option --{name} (flag or config key)")
        return value

    def choice(self, name: str, choices: tuple[str, ...], default=None):
        value = self.require(name) if default is None else self.get(name, default)
        if value not in choices:
            raise InputError(f"--{name} must be one of {choices}, got {value!r}")
        return value

    def input(self, name: str, required: bool = True):
        """The path a file option names, recorded as an input under its role."""
        path = self.require(name) if required else self.get(name)
        if path:
            self.inputs[name.replace("-", "_")] = path
        return path

    def volumes(self, directory: str | Path, kind: str, role: str) -> Callable[[str], Volume]:
        """Per-scan volume loader; records each header and raw file read as
        ``<role>:<scan_id>``.

        Only the last requested scan stays resident. Commands work scan by scan,
        so every lookup within a scan reuses it and each volume is mapped once.
        Its voxels are read from the raw file, never through the map: one cut
        short mid-run fails a mask lookup (exit 2) or a patch (exit 3).
        """
        directory = Path(directory)
        current: dict[str, Volume] = {}

        def load(scan_id: str) -> Volume:
            if scan_id not in current:
                header = directory / f"{scan_id}.hdr"
                if not header.exists():
                    raise InputError(f"no {kind} volume for scan {scan_id!r}: {header} not found")
                current.clear()
                current[scan_id] = load_volume(header)
                self.inputs[f"{role}:{scan_id}"] = header
                self.voxel_files[f"{role}:{scan_id}"] = current[scan_id].data_path
            return current[scan_id]

        return load

    def write(self, command: str, config: dict, outputs: list[Path],
              write_outputs: Callable[[str], object], manifest_path: Path | None = None) -> None:
        """Build the manifest over the recorded inputs, write the outputs
        under its digest, then write the manifest (by default next to the
        first output, as ``<name>.manifest.json``). An output or the manifest
        that is the same file as a recorded input or voxel file is an error,
        raised before anything is written."""
        manifest_path = manifest_path or _sibling(outputs[0], ".manifest.json")
        existing = {path: os.stat(path) for path in (*outputs, manifest_path)
                    if os.path.exists(path)}
        sources = [*self.inputs.items(), *self.voxel_files.items()] if existing else ()
        for role, source in sources:
            source_stat = os.stat(source)
            for path, stat in existing.items():
                if os.path.samestat(stat, source_stat):
                    raise InputError(f"output {path} is the {role} input {source}; "
                                     "refusing to overwrite it")
        manifest = fileio.build_manifest(command=command, config=config,
                                         inputs=self.inputs, seed=self.seed)
        write_outputs(manifest["digest"])
        fileio.write_manifest(manifest_path, manifest)


def _sibling(path: Path, suffix: str) -> Path:
    """``dir/name.csv`` -> ``dir/name<suffix>``."""
    return path.parent / (path.stem + suffix)


def _parse_thresholds(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"malformed threshold list {text!r}") from None


def _parse_labels(text: str) -> frozenset[int]:
    return frozenset(int(v) for v in text.split(",") if v.strip())


def _pipeline_config(run: _Run) -> PipelineConfig:
    """Each ``PipelineConfig`` field given as a flag or config key (``tau_cade``
    as ``tau-cade``); the fields' own defaults fill the rest."""
    casts = {"consensus_radius_policy": str, "lung_labels": _parse_labels}
    given = {}
    for field in dataclasses.fields(PipelineConfig):
        value = run.get(field.name.replace("_", "-"), None, casts.get(field.name, float))
        if value is not None:
            given[field.name] = value
    return PipelineConfig(**given)


def cmd_fuse(run: _Run) -> int:
    cfg = _pipeline_config(run)
    cade_a = run.input("cade-a")
    cade_b = run.input("cade-b")
    out_path = Path(run.require("out"))

    candidates_a = fileio.read_candidates(cade_a, run.convention, expected_model=SOURCE_MODEL_A)
    candidates_b = fileio.read_candidates(cade_b, run.convention, expected_model=SOURCE_MODEL_B)

    cadx_scores_path = run.input("cadx-scores", required=False)
    cadx_cmd = run.get("cadx-cmd")
    if cadx_scores_path and cadx_cmd:
        raise InputError("use either --cadx-scores or --cadx-cmd, not both")
    volumes_dir = run.get("volumes")
    if cadx_cmd and not volumes_dir:
        raise InputError("--cadx-cmd needs --volumes DIR to extract patches from")

    masks_dir = run.get("masks")
    mask_loader = run.volumes(masks_dir, "mask", "mask") if masks_dir else None
    # the external scorer's patch directory lives only as long as the fusion run
    patch_dir = (tempfile.TemporaryDirectory(prefix="trifuse_patch_") if cadx_cmd
                 else contextlib.nullcontext())
    with patch_dir as workdir:
        provider = None
        if cadx_scores_path:
            provider = FileCadxProvider(fileio.read_cadx_scores(cadx_scores_path))
        elif cadx_cmd:
            volumes = run.volumes(volumes_dir, "intensity", "volume")
            provider = CommandCadxProvider(cadx_cmd, volumes, workdir=workdir)
        try:
            output = fuse_scans(candidates_a, candidates_b, cadx_provider=provider,
                                masks=mask_loader, cfg=cfg)
        except ScorerError as err:
            if provider is None:  # no scorer ran: the run was not given one
                raise InputError(f"{err}; give --cadx-scores FILE or --cadx-cmd CMD") from None
            raise

    config = {**dataclasses.asdict(cfg), "lung_labels": sorted(cfg.lung_labels),
              "coordinate_convention": run.convention, "cadx_cmd": cadx_cmd or None}
    run.write("fuse", config, [out_path],
              lambda digest: fileio.write_fused_csv(out_path, output.fused, digest))
    print(f"fused {len(output.fused)} candidates across {len(output.scan_ids)} scans -> {out_path}")
    return 0


def cmd_eval(run: _Run) -> int:
    resamples = run.get("resamples", DEFAULT_RESAMPLES, int)
    with_ci = run.get_flag("ci")
    candidates_path = run.input("candidates")
    references_path = run.input("references")
    out_dir = Path(run.require("out"))

    candidates = fileio.read_candidates(candidates_path, run.convention)
    references = fileio.read_references(references_path, run.convention)
    if not references:
        raise InputError(f"{references_path}: no reference lesions")
    label = run.get("label") or Path(candidates_path).stem

    stratify_name = run.get("stratify")
    if stratify_name:
        result = stratified_eval(candidates, references, stratify_name, ci=with_ci,
                                 resamples=resamples, seed=run.seed)
        overall, strata, warnings = result.overall, result.strata, result.warnings
    else:
        overall = evaluate(candidates, references, ci=with_ci, resamples=resamples, seed=run.seed)
        strata, warnings = {}, ()

    names = ("metrics.json", "metrics.raw.json", "metrics.csv", "matches.csv")
    outputs = metrics_json, metrics_raw, metrics_csv, matches_csv = [out_dir / n for n in names]

    def write_outputs(digest: str) -> None:
        payload = {
            "manifest_digest": digest,
            "label": label,
            "overall": fileio.froc_result_payload(overall),
            "strata": {name: fileio.froc_result_payload(r) for name, r in strata.items()},
            "warnings": list(warnings),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_json(metrics_json, payload, sig=6)
        fileio.write_json(metrics_raw, payload)
        fileio.write_csv(metrics_csv, fileio.METRICS_CSV_HEADER,
                         fileio.metrics_csv_rows({"overall": overall, **strata}), digest)
        fileio.write_matches_csv(matches_csv, overall.matches, label, digest)

    config = {"stratify": stratify_name or None, "ci": with_ci,
              "resamples": resamples if with_ci else None,
              "coordinate_convention": run.convention, "label": label}
    run.write("eval", config, outputs, write_outputs, out_dir / "manifest.json")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"evaluated {len(candidates)} candidates against {len(references)} lesions -> {out_dir}")
    return 0


def cmd_sweep(run: _Run) -> int:
    mode = run.choice("mode", ("cadx", "cade"))
    out_path = Path(run.require("out"))

    threshold_text = run.get("thresholds")
    preset = run.get_flag("preset")
    if threshold_text and preset:
        raise InputError("use either --thresholds or --preset, not both")
    if threshold_text:
        thresholds = _parse_thresholds(threshold_text)
    elif preset:
        thresholds = list(CADX_PRESET_THRESHOLDS if mode == "cadx" else CADE_PRESET_THRESHOLDS)
    else:
        raise InputError("sweep needs --thresholds LIST or --preset")

    config = {"mode": mode, "thresholds": thresholds}
    if mode == "cadx":
        scored_path = run.input("scored", required=False)
        if not scored_path:
            raise InputError("--mode cadx needs --scored FILE")
        rows = sweep_cadx(*fileio.read_labeled_scores(scored_path), thresholds)
        write_rows = fileio.write_cadx_sweep_csv
    else:
        candidates_path = run.input("candidates", required=False)
        references_path = run.input("references", required=False)
        if not candidates_path or not references_path:
            raise InputError("--mode cade needs --candidates FILE and --references FILE")
        candidates = fileio.read_candidates(candidates_path, run.convention)
        references = fileio.read_references(references_path, run.convention)
        rows = sweep_cade(candidates, references, thresholds)
        config["coordinate_convention"] = run.convention
        write_rows = fileio.write_cade_sweep_csv
    run.write("sweep", config, [out_path], lambda digest: write_rows(out_path, rows, digest))
    print(f"swept {len(thresholds)} thresholds ({mode}) -> {out_path}")
    return 0


def cmd_stats(run: _Run) -> int:
    analysis = run.choice("analysis", ("consensus", "semantic", "overlap"))
    per_model = run.get_flag("per-model")
    matches_dir = run.require("matches")
    references_path = run.input("references")
    out_path = Path(run.require("out"))
    references = fileio.read_references(references_path, run.convention)
    if not references:
        raise InputError(f"{references_path}: no reference lesions")
    files = sorted(Path(matches_dir).glob("*.csv"))
    if not files:
        raise InputError(f"{matches_dir}: no match CSV files found")
    tables = fileio.read_match_files(files)
    ref_keys = set(references.keys)
    for model, table in tables.items():
        if set(table) != ref_keys:
            raise InputError(
                f"match table for model {model!r} does not cover the reference set exactly"
            )
    run.inputs.update((f"matches:{p.stem}", p) for p in files)

    def write_outputs(digest: str) -> None:
        if analysis == "consensus":
            summaries = {
                model: detection_probability_summary(
                    {k: v for k, v in table.items() if v is not None}, references, "consensus"
                )
                for model, table in tables.items()
            }
            fileio.write_consensus_csv(out_path, summaries, digest)
        elif analysis == "semantic":
            detected_by_model = {
                model: {k for k, v in table.items() if v is not None}
                for model, table in tables.items()
            }
            if per_model:
                result = detected_vs_missed_table(detected_by_model, references, pooled=False)
            else:
                result = {"pooled": detected_vs_missed_table(detected_by_model, references,
                                                             pooled=True)}
            fileio.write_semantic_csv(out_path, result, digest)
            for table in result.values():
                for diagnostic in table.diagnostics:
                    print(f"warning: {diagnostic}", file=sys.stderr)
        else:
            missed_by_model = {
                model: {k for k, v in table.items() if v is None}
                for model, table in tables.items()
            }
            rows = missed_overlap_table(missed_by_model, references)
            fileio.write_overlap_csv(out_path, rows, digest)

    run.write("stats", {"analysis": analysis, "per_model": per_model}, [out_path], write_outputs)
    print(f"{analysis} analysis over {len(tables)} model(s) -> {out_path}")
    return 0


def cmd_link(run: _Run) -> int:
    reports_path = run.input("reports")
    fused_path = run.input("fused")
    out_path = Path(run.require("out"))
    entities_path = _sibling(out_path, ".entities.csv")
    size_tol = require_finite("--size-tol-mm", run.get("size-tol-mm", 3.0, float))
    ordinal_tol = run.get("ordinal-tol", 1, int)
    for name, value in (("size-tol-mm", size_tol), ("ordinal-tol", ordinal_tol)):
        if value < 0:
            raise InputError(f"--{name} must be non-negative, got {value}")
    grammar_path = run.input("grammar", required=False)
    masks_dir = run.get("masks")

    reports = fileio.read_reports(reports_path)
    grammar = load_grammar(grammar_path) if grammar_path else default_grammar()
    fused = fileio.read_fused(fused_path, run.convention)

    entities = []
    for report_id, scan_id, text in reports:
        entities.extend(extract_entities(text, grammar, report_id=report_id, scan_id=scan_id))

    # linkage is scoped to scans that have a report; candidates on scans
    # never mentioned in any report stay out of the match table
    reported = sorted({scan_id for _, scan_id, _ in reports})
    lobes = None
    if masks_dir:
        mask_loader = run.volumes(masks_dir, "mask", "mask")
        lobes = [None] * len(fused)
        for scan_id in reported:
            rows = fused.by_scan.get(scan_id)
            if rows is not None:
                mask = mask_loader(scan_id)
                for row, record in zip(rows.tolist(), fused.records(rows)):
                    lobes[row] = lobe_of_candidate(record, mask)
    candidates = LinkColumns(fused.scan_id, fused.candidate_id, fused.tier, fused.score,
                             fused.diameter_mm, lobes)
    matches = match_entities(entities, candidates, size_tol_mm=size_tol,
                             ordinal_tol=ordinal_tol, scans=reported)

    def write_outputs(digest: str) -> None:
        fileio.write_entity_matches_csv(out_path, matches, digest)
        fileio.write_entities_csv(entities_path, entities, digest)

    config = {"size_tol_mm": size_tol, "ordinal_tol": ordinal_tol,
              "coordinate_convention": run.convention}
    run.write("link", config, [out_path, entities_path], write_outputs)
    matched = sum(row >= 0 for row in matches.taken)
    print(f"linked {matched}/{len(entities)} entities -> {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifuse",
        description="Fuse detector candidate lists and evaluate lesion-level performance.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="key=value file mirroring the flags")
        p.add_argument("--seed", type=int, help="seed for all randomness (default 17)")
        p.add_argument("--coordinate-convention", choices=("lps", "ras"),
                       help="convention of input world coordinates (default lps)")

    p = sub.add_parser("fuse", help="run tri-stage fusion over two candidate lists")
    p.add_argument("--cade-a", help="CSV of CADE_A candidates")
    p.add_argument("--cade-b", help="CSV of CADE_B candidates")
    p.add_argument("--cadx-scores", help="CSV of precomputed classifier scores")
    p.add_argument("--cadx-cmd", help="external scorer command (reads patch header path on stdin)")
    p.add_argument("--volumes", help="directory of <scan_id>.hdr intensity volumes for --cadx-cmd")
    p.add_argument("--masks", help="directory of <scan_id>.hdr lobe label volumes")
    p.add_argument("--tau-cadx", type=float, help="malignancy promotion threshold (default 0.10)")
    p.add_argument("--tau-cade", type=float, help="detector retention threshold (default 0.20)")
    p.add_argument("--out", help="output fused CSV path")
    common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="lesion-level FROC evaluation")
    p.add_argument("--candidates", help="candidate CSV (raw or fused)")
    p.add_argument("--references", help="reference nodule CSV")
    p.add_argument("--stratify", choices=STRATIFIERS, help="optional stratified analysis")
    p.add_argument("--ci", action="store_true", help="bootstrap confidence intervals")
    p.add_argument("--resamples", type=int, help="bootstrap resamples (default 1000)")
    p.add_argument("--label", help="model label recorded in outputs")
    p.add_argument("--out", help="output directory")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="operating-threshold sweep tables")
    p.add_argument("--mode", choices=("cadx", "cade"))
    p.add_argument("--scored", help="labeled score CSV (cadx mode)")
    p.add_argument("--candidates", help="candidate CSV (cade mode)")
    p.add_argument("--references", help="reference CSV (cade mode)")
    p.add_argument("--thresholds", help="comma-separated threshold list")
    p.add_argument("--preset", action="store_true", help="use the built-in threshold grid")
    p.add_argument("--out", help="output CSV path")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="reader-consensus and detectability statistics")
    p.add_argument("--matches", help="directory of per-model match CSVs")
    p.add_argument("--references", help="reference nodule CSV")
    p.add_argument("--analysis", choices=("consensus", "semantic", "overlap"))
    p.add_argument("--per-model", action="store_true",
                   help="semantic analysis per model instead of pooled")
    p.add_argument("--out", help="output CSV path")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("link", help="match report-derived entities to fused candidates")
    p.add_argument("--reports", help="TSV of report_id, scan_id, text")
    p.add_argument("--fused", help="fused candidate CSV")
    p.add_argument("--masks", help="directory of <scan_id>.hdr lobe label volumes")
    p.add_argument("--grammar", help="JSON extraction grammar (default built-in English rules)")
    p.add_argument("--size-tol-mm", type=float, help="size agreement tolerance (default 3)")
    p.add_argument("--ordinal-tol", type=int, help="ordinal agreement tolerance (default 1)")
    p.add_argument("--out", help="output match CSV path")
    common(p)
    p.set_defaults(func=cmd_link)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args)
        code = args.func(run)
        for key in run.unused_config_keys():
            print(f"warning: {args.config}: key {key!r} was not used by {args.subcommand}",
                  file=sys.stderr)
        return code
    except (InputError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ScorerError as err:
        print(f"scorer error: {err}", file=sys.stderr)
        return 3
    except InvariantError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        # mostly an output path that cannot be written; inputs are checked as read
        where = f"{err.filename}: " if err.filename else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
