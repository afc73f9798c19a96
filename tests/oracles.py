"""Independent brute-force oracles used to cross-check the library.

Most oracles work on plain tuples and enumerate exhaustively (or, for the
bootstrap, recompute every resample from scratch) without importing the code
under test. The CSV-reader, fusion-pairing, FROC-count and detection-sweep
oracles are the library's earlier scalar code: they build the library's
record types, validated by their constructors, so results compare with
``==``, and they import only those records, the error type, the file
schemas and the scalar consensus-radius rule.

Conventions:
  candidate = (cid, (x, y, z), score)
  reference = (nid, (x, y, z), diameter_mm)
"""

import csv
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from trifuse.domain import (
    CandidateDetection,
    PipelineConfig,
    ReferenceNodule,
    SemanticRatings,
    WorldPoint,
)
from trifuse.errors import InputError
from trifuse.fileio import (
    CADX_SCORE_COLUMNS,
    CANDIDATE_COLUMNS,
    FUSED_COLUMNS,
    LABELED_SCORE_COLUMNS,
    MATCH_COLUMNS,
    PROVENANCE_SEP,
    RATING_COLUMN_FIELDS,
    REFERENCE_COLUMNS,
    FusedRecord,
)
from trifuse.fusion import TIER_BY_STAGE, CadxScores, ConsensusPair, consensus_radius_mm
from trifuse.sweeps import CadeSweepRow


def hit_tolerance(diameter_mm):
    return diameter_mm / 2.0 if diameter_mm < 10.0 else 5.0


def distance(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def oracle_match(cands, refs):
    """Greedy one-to-one matching on one scan: (tp, fn, fp)."""
    order = sorted(cands, key=lambda c: (-c[2], c[0]))
    unmatched = {r[0]: r for r in refs}
    tp, fp = [], []
    for cid, center, score in order:
        best = None
        for nid, ref in unmatched.items():
            dist = distance(center, ref[1])
            if dist <= hit_tolerance(ref[2]):
                if best is None or (dist, nid) < best:
                    best = (dist, nid)
        if best is None:
            fp.append((cid, score))
        else:
            del unmatched[best[1]]
            tp.append((best[1], cid, score))
    return tp, sorted(unmatched), fp


def oracle_max_matching(cands, refs):
    """Maximum-cardinality candidate/reference matching by exhaustive search."""
    hits = [
        [distance(c[1], r[1]) <= hit_tolerance(r[2]) for r in refs]
        for c in cands
    ]

    def go(i, used):
        if i == len(cands):
            return 0
        best = go(i + 1, used)
        for j in range(len(refs)):
            if j not in used and hits[i][j]:
                used.add(j)
                best = max(best, 1 + go(i + 1, used))
                used.remove(j)
        return best

    return go(0, set())


def balls_disjoint(refs):
    for a, b in itertools.combinations(refs, 2):
        if distance(a[1], b[1]) <= hit_tolerance(a[2]) + hit_tolerance(b[2]):
            return False
    return True


def oracle_froc(scan_data, rates):
    """FROC sensitivities by enumerating every score cutoff.

    scan_data: dict scan_id -> (cands, refs). For each cutoff the filtered
    set is re-matched from scratch; each target rate takes the best
    sensitivity among admissible cutoffs.
    """
    n_scans = len(scan_data)
    n_refs = sum(len(refs) for _, refs in scan_data.values())
    all_scores = sorted({c[2] for cands, _ in scan_data.values() for c in cands})
    outcomes = []
    for tau in all_scores + [math.inf]:
        tp_total = fp_total = 0
        for cands, refs in scan_data.values():
            kept = [c for c in cands if c[2] >= tau]
            tp, _, fp = oracle_match(kept, refs)
            tp_total += len(tp)
            fp_total += len(fp)
        outcomes.append((fp_total / n_scans, tp_total / n_refs))
    sens = []
    for rate in rates:
        best = 0.0
        for fp_rate, s in outcomes:
            if fp_rate <= rate:
                best = max(best, s)
        sens.append(best)
    return sens


def oracle_sensitivities(tp_scores, fp_scores, n_scans, n_lesions, rates):
    """The library's earlier scalar FROC count on sorted TP and FP scores.

    Counts at or above each distinct score come from ``searchsorted``; each
    rate takes the first threshold whose false positives fit within
    ``rate * n_scans``, or 0 when none does.
    """
    thresholds = np.unique(np.concatenate([tp_scores, fp_scores]))  # ascending
    if thresholds.size == 0:
        return tuple(0.0 for _ in rates)
    # counts of scores >= each threshold
    tp_counts = tp_scores.size - np.searchsorted(tp_scores, thresholds, side="left")
    fp_counts = fp_scores.size - np.searchsorted(fp_scores, thresholds, side="left")
    out = []
    for rate in rates:
        allowed = rate * n_scans
        admissible = np.nonzero(fp_counts <= allowed)[0]
        if admissible.size == 0:
            out.append(0.0)
        else:
            out.append(float(tp_counts[admissible[0]]) / n_lesions)
    return tuple(out)


def _sorted_scores(result):
    tp_scores = np.sort(np.array([t.score for s in result.scans for t in s.tp], dtype=np.float64))
    fp_scores = np.sort(np.array([f[1] for s in result.scans for f in s.fp], dtype=np.float64))
    return tp_scores, fp_scores


def oracle_froc_sensitivities(result, rates):
    """Sensitivities of a lesion match result by the scalar count."""
    tp_scores, fp_scores = _sorted_scores(result)
    return oracle_sensitivities(tp_scores, fp_scores, result.n_scans, result.n_references, rates)


def oracle_sweep_cade(result, thresholds, rates):
    """The library's earlier detection sweep over one lesion match result:
    at each threshold the TP and FP scores are filtered and counted afresh."""
    tp_scores, fp_scores = _sorted_scores(result)
    n_scans = result.n_scans
    n_refs = result.n_references

    rows = []
    for threshold in sorted(set(thresholds)):
        tp_kept = tp_scores[tp_scores >= threshold]
        fp_kept = fp_scores[fp_scores >= threshold]
        sens = oracle_sensitivities(tp_kept, fp_kept, n_scans, n_refs, rates)
        rows.append(
            CadeSweepRow(
                threshold=threshold,
                cpm=float(sum(sens) / len(sens)),
                candidates_forwarded=int(tp_kept.size + fp_kept.size),
                missed=n_refs - int(tp_kept.size),
            )
        )
    return rows


def oracle_bootstrap(scans, statistics, resamples, seed, rates):
    """Scan-level percentile bootstrap, one full FROC curve per resample.

    The scalar reference for the library's bootstrap: resample i draws scan
    indices with ``default_rng((seed, i)).integers(0, n, size=n)``, rebuilds
    the resampled cohort and its curve on the resample's own score grid.
    scans: list of (n_references, tp_scores, fp_scores). statistics: name ->
    ("cpm", None) or ("sensitivity", rate). Returns name -> (lo, hi, used,
    skipped). Raises ValueError with the library's messages.
    """
    for kind, _ in statistics.values():
        if kind not in ("cpm", "sensitivity"):
            raise ValueError(f"unknown bootstrap statistic {kind!r}")
    if resamples < 1:
        raise ValueError("bootstrap needs at least one resample")
    n = len(scans)
    if n < 1:
        raise ValueError("bootstrap needs at least one scan")
    values = {name: [] for name in statistics}
    skipped = 0
    for i in range(resamples):
        idx = np.random.default_rng((seed, i)).integers(0, n, size=n)
        sample = [scans[j] for j in idx]
        n_lesions = sum(s[0] for s in sample)
        if n_lesions == 0:
            skipped += 1
            continue
        tp = np.sort(np.array([x for s in sample for x in s[1]], dtype=np.float64))
        fp = np.sort(np.array([x for s in sample for x in s[2]], dtype=np.float64))
        sens = oracle_sensitivities(tp, fp, n, n_lesions, rates)
        for name, (kind, rate) in statistics.items():
            if kind == "cpm":
                values[name].append(float(sum(sens) / len(sens)))
                continue
            for r, s in zip(rates, sens):
                if r == rate:
                    values[name].append(s)
                    break
            else:
                raise ValueError(f"rate {rate} not on the curve")
    out = {}
    for name, vals in values.items():
        if not vals:
            raise ValueError("every bootstrap resample had zero reference lesions")
        lo, hi = np.percentile(np.array(vals, dtype=np.float64), [2.5, 97.5])
        out[name] = (float(lo), float(hi), len(vals), skipped)
    return out


def _oracle_trilinear(values, coords, fill):
    """Trilinear interpolation at (N, 3) continuous voxel coordinates.

    Every point gathers its eight corners from the whole volume cast to
    float64; points outside the sample hull [0, n-1] on any axis get fill.
    """
    nx, ny, nz = values.shape
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    inside = (
        (x >= 0.0) & (x <= nx - 1)
        & (y >= 0.0) & (y <= ny - 1)
        & (z >= 0.0) & (z <= nz - 1)
    )
    out = np.full(coords.shape[0], float(fill), dtype=np.float64)
    if not inside.any():
        return out

    xi, yi, zi = x[inside], y[inside], z[inside]
    x0 = np.clip(np.floor(xi).astype(np.int64), 0, nx - 1)
    y0 = np.clip(np.floor(yi).astype(np.int64), 0, ny - 1)
    z0 = np.clip(np.floor(zi).astype(np.int64), 0, nz - 1)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    fx = xi - x0
    fy = yi - y0
    fz = zi - z0

    v = values.astype(np.float64, copy=False)
    c000 = v[x0, y0, z0]
    c100 = v[x1, y0, z0]
    c010 = v[x0, y1, z0]
    c110 = v[x1, y1, z0]
    c001 = v[x0, y0, z1]
    c101 = v[x1, y0, z1]
    c011 = v[x0, y1, z1]
    c111 = v[x1, y1, z1]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out[inside] = c0 * (1 - fz) + c1 * fz
    return out


def oracle_extract_patch(volume, center, shape=(64, 64, 64), spacing=(0.7, 0.7, 1.25),
                         hu_min=-1000.0, hu_max=500.0):
    """Point-by-point patch resampling: the scalar reference for the library.

    Builds the full 64^3 world grid around ``center``, maps every point to
    voxel coordinates, interpolates it from its eight corners, then clips to
    [hu_min, hu_max] and normalizes to [0, 1]. ``volume`` needs ``values``
    indexed [ix, iy, iz] and a ``header`` with ``spacing_mm`` and an
    ``origin_mm`` point; ``center`` is a point with ``as_tuple()``. Returns a
    namespace with the patch ``values`` and ``center``.
    """
    half = [(n - 1) / 2.0 for n in shape]
    axes_world = [
        center.as_tuple()[a] + (np.arange(shape[a]) - half[a]) * spacing[a]
        for a in range(3)
    ]
    gx, gy, gz = np.meshgrid(*axes_world, indexing="ij")
    o = volume.header.origin_mm
    sx, sy, sz = volume.header.spacing_mm
    coords = np.stack(
        [
            (gx.ravel() - o.x) / sx,
            (gy.ravel() - o.y) / sy,
            (gz.ravel() - o.z) / sz,
        ],
        axis=1,
    )
    hu = _oracle_trilinear(volume.values, coords, fill=hu_min)
    hu = np.clip(hu, hu_min, hu_max)
    normalized = (hu - hu_min) / (hu_max - hu_min)
    return SimpleNamespace(values=normalized.reshape(shape), center=center)


def oracle_save_patch(patch, header_path):
    """The earlier patch writer's files, from numpy and text alone.

    The patch values went to float32 three times (a float32 copy, the
    volume's copy, the copy converted on write) and were written x-fastest
    from a transposed view; the header lists dims, spacing, origin, element
    type and data file. ``patch`` needs ``values``, ``center`` and ``spacing_mm``.
    """
    header_path = Path(header_path)
    values = patch.values.astype("<f4").astype("<f4")
    data_file = header_path.stem + ".raw"
    values.astype("<f4").T.tofile(header_path.parent / data_file)
    spacing = [float(s) for s in patch.spacing_mm]
    c = patch.center.as_tuple()
    origin = [float(c[a] - (values.shape[a] - 1) / 2.0 * spacing[a]) for a in range(3)]
    lines = [
        "dims = {} {} {}".format(*values.shape),
        "spacing_mm = {!r} {!r} {!r}".format(*spacing),
        "origin_mm = {!r} {!r} {!r}".format(*origin),
        "element_type = float32",
        f"data_file = {data_file}",
    ]
    header_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return header_path


def oracle_confusion(scores, labels, tau):
    """(tp, fp, fn, tn) for flagging score >= tau against 'cancer' labels."""
    tp = fp = fn = tn = 0
    for score, label in zip(scores, labels):
        flagged = score >= tau
        positive = label == "cancer"
        if flagged and positive:
            tp += 1
        elif flagged:
            fp += 1
        elif positive:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def oracle_u_statistic(x, y):
    u = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                u += 1.0
            elif xi == yj:
                u += 0.5
    return u


def oracle_mw_exact_p(x, y):
    """Two-sided exact p by enumerating all group assignments."""
    combined = list(x) + list(y)
    n1 = len(x)
    n = len(combined)
    mu = n1 * (n - n1) / 2.0
    observed = abs(oracle_u_statistic(x, y) - mu)
    extreme = total = 0
    for idx in itertools.combinations(range(n), n1):
        chosen = set(idx)
        xs = [combined[i] for i in idx]
        ys = [combined[i] for i in range(n) if i not in chosen]
        if abs(oracle_u_statistic(xs, ys) - mu) >= observed - 1e-12:
            extreme += 1
        total += 1
    return extreme / total


def oracle_cohens_d(x, y):
    n1, n2 = len(x), len(y)
    m1 = sum(x) / n1
    m2 = sum(y) / n2
    v1 = sum((v - m1) ** 2 for v in x) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in y) / (n2 - 1)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    return (m1 - m2) / pooled


# ---------------------------------------------------------------------------
# CSV readers: a csv.DictReader per file, a dict per row, every value parsed
# by name and validated again by the record constructors.


def _convert_to_lps(x: float, y: float, z: float, convention: str) -> tuple[float, float, float]:
    if convention == "lps":
        return (x, y, z)
    if convention == "ras":
        return (-x, -y, z)
    raise InputError(f"unknown coordinate convention {convention!r}; use lps or ras")


def _csv_lines(fh, last_line: list[int]) -> Iterable[str]:
    """The lines of ``fh`` that are not ``#`` comments; ``last_line[0]`` holds the
    physical number of the line yielded last."""
    for line_num, line in enumerate(fh, start=1):
        if line.startswith("#"):
            continue
        last_line[0] = line_num
        yield line


def _read_rows(path: str | Path, required: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Data rows of a CSV file, each with the physical line number it ends on.

    A leading UTF-8 byte-order mark (as spreadsheet exports write) is dropped.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    last_line = [0]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(_csv_lines(fh, last_line))
        if reader.fieldnames is None:
            raise InputError(f"{path}: missing header row")
        fieldnames = [name.strip() for name in reader.fieldnames]
        for column in required:
            if column not in fieldnames:
                raise InputError(f"{path}: column {column} missing")
        for row in reader:
            row_num = last_line[0]
            if None in row:
                raise InputError(f"{path}:{row_num}: more cells than header columns")
            yield row_num, {(k.strip() if k else k): (v if v is not None else "")
                            for k, v in row.items()}


def _cell(path, row_num: int, row: Mapping[str, str], column: str) -> str:
    return (row.get(column) or "").strip()


def _parse_float(path, row_num: int, row: Mapping[str, str], column: str,
                 required: bool = True) -> float | None:
    text = _cell(path, row_num, row, column)
    if not text:
        if required:
            raise InputError(f"{path}:{row_num}: column {column} is empty")
        return None
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{path}:{row_num}: column {column} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}:{row_num}: column {column} is not finite: {text!r}")
    return value


def _parse_int(path, row_num: int, row: Mapping[str, str], column: str,
               required: bool = True) -> int | None:
    text = _cell(path, row_num, row, column)
    if not text:
        if required:
            raise InputError(f"{path}:{row_num}: column {column} is empty")
        return None
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{path}:{row_num}: column {column} is not an integer: {text!r}") from None


def _parse_str(path, row_num: int, row: Mapping[str, str], column: str,
               required: bool = True) -> str | None:
    text = _cell(path, row_num, row, column)
    if not text and required:
        raise InputError(f"{path}:{row_num}: column {column} is empty")
    return text or None


def oracle_read_candidates(
    path: str | Path, convention: str = "lps", expected_model: str | None = None
) -> list[CandidateDetection]:
    path = Path(path)
    out = []
    seen = set()
    for row_num, row in _read_rows(path, CANDIDATE_COLUMNS):
        model = _parse_str(path, row_num, row, "model")
        if expected_model is not None and model != expected_model:
            raise InputError(
                f"{path}:{row_num}: column model must be {expected_model}, got {model!r}"
            )
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        cand = CandidateDetection(
            scan_id=_parse_str(path, row_num, row, "scan_id"),
            candidate_id=_parse_str(path, row_num, row, "candidate_id"),
            center=WorldPoint(*_convert_to_lps(x, y, z, convention)),
            diameter_mm=_parse_float(path, row_num, row, "diameter_mm", required=False),
            score=_parse_float(path, row_num, row, "score"),
            source_model=model,
        )
        if cand.key in seen:
            raise InputError(
                f"{path}:{row_num}: duplicate candidate_id {cand.candidate_id!r} "
                f"for model {model!r} on scan {cand.scan_id!r}"
            )
        seen.add(cand.key)
        out.append(cand)
    return out


def oracle_read_references(path: str | Path, convention: str = "lps") -> list[ReferenceNodule]:
    path = Path(path)
    out = []
    seen = set()
    for row_num, row in _read_rows(path, REFERENCE_COLUMNS):
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        rating_values = {}
        for display, field in RATING_COLUMN_FIELDS.items():
            if display not in row:
                continue
            if field == "diameter_rad_mm":
                rating_values[field] = _parse_float(path, row_num, row, display, required=False)
            else:
                rating_values[field] = _parse_int(path, row_num, row, display, required=False)
        ratings = SemanticRatings(**rating_values) if any(
            v is not None for v in rating_values.values()
        ) else None
        try:
            ref = ReferenceNodule(
                scan_id=_parse_str(path, row_num, row, "scan_id"),
                nodule_id=_parse_str(path, row_num, row, "nodule_id"),
                center=WorldPoint(*_convert_to_lps(x, y, z, convention)),
                diameter_mm=_parse_float(path, row_num, row, "diameter_mm"),
                diagnosis=_parse_str(path, row_num, row, "diagnosis", required=False) or "unknown",
                lungrads=_parse_str(path, row_num, row, "lungrads", required=False),
                reviewers=_parse_int(path, row_num, row, "reviewers", required=False),
                positive_votes=_parse_int(path, row_num, row, "positive_votes", required=False),
                ratings=ratings,
            )
        except InputError as err:
            raise InputError(f"{path}:{row_num}: {err}") from None
        if ref.key in seen:
            raise InputError(
                f"{path}:{row_num}: duplicate nodule_id {ref.nodule_id!r} on scan {ref.scan_id!r}"
            )
        seen.add(ref.key)
        out.append(ref)
    return out


def oracle_read_cadx_scores(path: str | Path) -> dict[tuple[str, str, str], CadxScores]:
    path = Path(path)
    out: dict[tuple[str, str, str], CadxScores] = {}
    for row_num, row in _read_rows(path, CADX_SCORE_COLUMNS):
        key = (
            _parse_str(path, row_num, row, "scan_id"),
            _parse_str(path, row_num, row, "model"),
            _parse_str(path, row_num, row, "candidate_id"),
        )
        if key in out:
            raise InputError(f"{path}:{row_num}: duplicate CADx score entry for {key}")
        try:
            out[key] = CadxScores(
                p_luna=_parse_float(path, row_num, row, "p_luna"),
                p_dlcs=_parse_float(path, row_num, row, "p_dlcs"),
            )
        except InputError as err:
            raise InputError(f"{path}:{row_num}: {err}") from None
    return out


def oracle_read_labeled_scores(path: str | Path) -> tuple[list[float], list[str]]:
    path = Path(path)
    scores, labels = [], []
    for row_num, row in _read_rows(path, LABELED_SCORE_COLUMNS):
        scores.append(_parse_float(path, row_num, row, "score"))
        labels.append(_parse_str(path, row_num, row, "label"))
    return scores, labels


def oracle_read_fused(path: str | Path, convention: str = "lps") -> list[FusedRecord]:
    path = Path(path)
    out = []
    for row_num, row in _read_rows(path, FUSED_COLUMNS):
        x = _parse_float(path, row_num, row, "x_mm")
        y = _parse_float(path, row_num, row, "y_mm")
        z = _parse_float(path, row_num, row, "z_mm")
        stage = _parse_str(path, row_num, row, "stage")
        if stage not in TIER_BY_STAGE:
            raise InputError(f"{path}:{row_num}: column stage has unknown value {stage!r}")
        out.append(
            FusedRecord(
                scan_id=_parse_str(path, row_num, row, "scan_id"),
                candidate_id=_parse_str(path, row_num, row, "candidate_id"),
                center=WorldPoint(*_convert_to_lps(x, y, z, convention)),
                diameter_mm=_parse_float(path, row_num, row, "diameter_mm", required=False),
                score=_parse_float(path, row_num, row, "score"),
                tier=_parse_float(path, row_num, row, "tier"),
                stage=stage,
                cadx_avg=_parse_float(path, row_num, row, "cadx_avg", required=False),
                provenance=tuple(_parse_str(path, row_num, row, "provenance").split(PROVENANCE_SEP)),
            )
        )
    return out


def oracle_read_match_files(paths: Sequence[str | Path]) -> dict[str, dict[tuple[str, str], float | None]]:
    """Read per-model match files; returns model -> {(scan, nodule): score|None}."""
    out: dict[str, dict[tuple[str, str], float | None]] = {}
    for path in paths:
        path = Path(path)
        for row_num, row in _read_rows(path, MATCH_COLUMNS):
            model = _parse_str(path, row_num, row, "model")
            key = (
                _parse_str(path, row_num, row, "scan_id"),
                _parse_str(path, row_num, row, "nodule_id"),
            )
            detected = _parse_int(path, row_num, row, "detected")
            if detected not in (0, 1):
                raise InputError(f"{path}:{row_num}: column detected must be 0 or 1")
            score = _parse_float(path, row_num, row, "score", required=False)
            if detected == 1 and score is None:
                raise InputError(f"{path}:{row_num}: detected row without a score")
            table = out.setdefault(model, {})
            if key in table:
                raise InputError(f"{path}:{row_num}: duplicate match entry for {key}")
            table[key] = score if detected == 1 else None
    return out



# ---------------------------------------------------------------------------
# Fusion pairing and dedup: every pair's distance in a Python loop.


def oracle_suppress_same_model_duplicates(candidates, radius_mm):
    """Keep only the best-scored candidate among same-model near-duplicates.

    Returns the survivors (score-descending) and a map from each suppressed
    candidate's qualified id to its survivor's qualified id.
    """
    ordered = sorted(candidates, key=lambda c: (-c.score, c.candidate_id))
    kept = []
    absorbed = {}
    for cand in ordered:
        survivor = None
        for keeper in kept:
            if cand.center.distance_to(keeper.center) <= radius_mm:
                survivor = keeper
                break
        if survivor is None:
            kept.append(cand)
        else:
            absorbed[cand.qualified_id] = survivor.qualified_id
    return kept, absorbed


def oracle_cross_detector_consensus(list_a, list_b, cfg=None):
    """Pair candidates proposed by both detectors on one scan.

    A pair is admissible when the centroid distance satisfies the consensus
    radius. Admissible pairs are committed greedily in descending order of
    summed score (ties by candidate id pair); each candidate joins at most
    one pair. Unpaired candidates from either list form the disagreement set.
    """
    cfg = cfg or PipelineConfig()
    scan_ids = {c.scan_id for c in list_a + list_b}
    if len(scan_ids) > 1:
        raise InputError(f"candidates span multiple scans: {sorted(scan_ids)}")
    models_a = {c.source_model for c in list_a}
    models_b = {c.source_model for c in list_b}
    if len(models_a) > 1 or len(models_b) > 1:
        raise InputError("each detector list must come from a single source model")
    if models_a and models_b and models_a == models_b:
        raise InputError("detector lists must come from different source models")

    admissible = []
    for a in list_a:
        for b in list_b:
            if a.center.distance_to(b.center) <= consensus_radius_mm(a, b, cfg):
                admissible.append((a, b))
    admissible.sort(key=lambda ab: (-(ab[0].score + ab[1].score),
                                    ab[0].candidate_id, ab[1].candidate_id))

    used_a = set()
    used_b = set()
    pairs = []
    for a, b in admissible:
        if a.candidate_id in used_a or b.candidate_id in used_b:
            continue
        used_a.add(a.candidate_id)
        used_b.add(b.candidate_id)
        total = a.score + b.score
        if total > 0.0:
            wa, wb = a.score / total, b.score / total
        else:
            wa = wb = 0.5
        merged_center = WorldPoint(
            wa * a.center.x + wb * b.center.x,
            wa * a.center.y + wb * b.center.y,
            wa * a.center.z + wb * b.center.z,
        )
        pairs.append(
            ConsensusPair(
                member_a=a,
                member_b=b,
                merged_center=merged_center,
                merged_score=(a.score + b.score) / 2.0,
            )
        )

    disagreements = [c for c in list_a if c.candidate_id not in used_a]
    disagreements += [c for c in list_b if c.candidate_id not in used_b]
    disagreements.sort(key=lambda c: (c.source_model, c.candidate_id))
    return pairs, disagreements
