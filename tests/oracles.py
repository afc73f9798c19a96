"""Independent brute-force oracles used to cross-check the library.

Most oracles work on plain tuples and enumerate exhaustively (or, for the
bootstrap, recompute every resample from scratch) without importing the code
under test. The CSV-reader, CSV-writer, fusion-pairing, lesion-matching,
FROC-count and detection-sweep oracles are the library's earlier scalar code:
they build the library's record types, so results compare with ``==``, and
they import only those records, the error types, the file schemas, the scalar
hit test and the mask's voxel lookup. The
tri-stage and report-linkage oracles are the record loops that fusion and
linkage ran before they moved onto table columns. So are
``oracle_link_by_scan``, the loop over scans that ``link`` ran before one
linkage call covered the cohort, ``oracle_record_read_references``, the
reference reader that built a record per row on the library's column
parser, ``oracle_pair_match_lesions``,
the table matcher that built a ``ScanMatch`` per scan,
``oracle_separable_extract_patch``, the patch resampler that ran its passes
on the volume's (x, y, z) axes, and ``oracle_sorting_mann_whitney_u``, the
rank-sum test that sorted its pooled sample three times.
``oracle_median`` and ``oracle_percentiles`` are the numpy calls that the
library's order statistics replace.

Conventions:
  candidate = (cid, (x, y, z), score)
  reference = (nid, (x, y, z), diameter_mm)
"""

import csv
import dataclasses
import io
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from trifuse.domain import (
    CandidateDetection,
    CandidateTable,
    PipelineConfig,
    ReferenceNodule,
    SemanticRatings,
    WorldPoint,
    distance_mm,
    is_hit,
    match_tolerance,
    nan_to_none,
)
from trifuse.errors import InputError, InvariantError, ScorerError
from trifuse.fileio import (
    CADX_SCORE_COLUMNS,
    CANDIDATE_COLUMNS,
    FUSED_COLUMNS,
    LABELED_SCORE_COLUMNS,
    MATCH_COLUMNS,
    PROVENANCE_SEP,
    RATING_COLUMN_FIELDS,
    REFERENCE_COLUMNS,
    _Columns,
)
from trifuse.froc import BootstrapCI, LesionMatchResult, ScanMatch, TruePositive
from trifuse.fusion import (
    DISP_MASK_REJECTED,
    DISP_PAIR,
    DISP_REJECTED,
    DISP_T2,
    DISP_T3,
    STAGE_CADE,
    STAGE_CADX,
    STAGE_CONSENSUS,
    TIER_BY_STAGE,
    CadxScores,
    ConsensusPair,
    FusedCandidate,
    TriStageResult,
)
from trifuse.readerstats import CHARACTERISTIC_DISPLAY
from trifuse.reportlink import EntityMatch
from trifuse.sweeps import CadeSweepRow
from trifuse.volume import centroid_in_lung


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


def oracle_score_grid(result):
    """The library's earlier score grid: the ascending distinct scores of a
    matching, and the rank on it of each true positive and each false
    positive, both in candidate order."""
    grid = np.unique(result.score)
    rank = np.searchsorted(grid, result.score)
    tp = result.nodule >= 0
    return grid, rank[tp], rank[~tp]


def oracle_sensitivities_on_grid(grid_size, tp_rank, fp_rank, n_scans, n_lesions, rates,
                                 tp_weight=None, fp_weight=None):
    """The library's earlier weighted count on the score grid.

    Each positive counts its weight (default 1) at every grid score at or
    below its own. At each rate the threshold is the lowest grid score whose
    false positives fit within ``rate * n_scans``; the sensitivity is its true
    positives over ``n_lesions``, or 0 when no threshold fits.
    """
    # weighted counts at or above each grid score, plus a zero count above the top one
    tp_counts = np.zeros(grid_size + 1)
    tp_counts[:-1] = np.bincount(tp_rank, tp_weight, grid_size)[::-1].cumsum()[::-1]
    fp_counts = np.bincount(fp_rank, fp_weight, grid_size)[::-1].cumsum()[::-1]
    # fp_counts never rises with the threshold: first index with fp <= rate * n_scans
    allowed = -np.array(rates, dtype=np.float64) * n_scans
    first = np.searchsorted(-fp_counts, allowed, side="left")
    return (tp_counts[first] / n_lesions).tolist()


def oracle_grid_curve(result, rates):
    """Sensitivities of a matching by the grid count."""
    grid, tp_rank, fp_rank = oracle_score_grid(result)
    return oracle_sensitivities_on_grid(grid.size, tp_rank, fp_rank, result.n_scans,
                                        result.n_references, rates)


def oracle_grid_sweep_cade(result, thresholds, rates):
    """Detection sweep rows by the grid count: a threshold zeroes the
    weights of the positives below it."""
    grid, tp_rank, fp_rank = oracle_score_grid(result)
    n_refs = result.n_references
    rows = []
    for threshold in sorted(set(thresholds)):
        cut = np.searchsorted(grid, threshold, side="left")
        tp_kept, fp_kept = tp_rank >= cut, fp_rank >= cut
        sens = oracle_sensitivities_on_grid(grid.size, tp_rank, fp_rank, result.n_scans, n_refs,
                                            rates, tp_kept, fp_kept)
        n_tp = int(tp_kept.sum())
        rows.append(CadeSweepRow(threshold=threshold, cpm=float(sum(sens) / len(sens)),
                                 candidates_forwarded=n_tp + int(fp_kept.sum()),
                                 missed=n_refs - n_tp))
    return rows


def oracle_grid_bootstrap(result, statistics, resamples, seed, rates):
    """The library's earlier bootstrap: every resample weights each scan's
    positives by its draw count on the full matching's score grid and counts
    the whole grid. ``statistics`` maps each name to a rate or to None for
    the CPM. Returns name -> BootstrapCI."""
    if resamples < 1:
        raise InputError("bootstrap needs at least one resample")
    n = result.n_scans
    if n < 1:
        raise InputError("bootstrap needs at least one scan")
    tp = result.nodule >= 0
    tp_scan, fp_scan = result.scan[tp], result.scan[~tp]
    grid, tp_rank, fp_rank = oracle_score_grid(result)
    values = {name: [] for name in statistics}
    skipped = 0
    for i in range(resamples):
        w = np.bincount(np.random.default_rng((seed, i)).integers(0, n, size=n), minlength=n)
        n_lesions = int(w @ result.n_refs)
        if n_lesions == 0:
            skipped += 1
            continue
        sens = oracle_sensitivities_on_grid(grid.size, tp_rank, fp_rank, n, n_lesions, rates,
                                            w[tp_scan], w[fp_scan])
        for name, rate in statistics.items():
            values[name].append(float(sum(sens) / len(sens)) if rate is None
                                else sens[list(rates).index(rate)])
    out = {}
    for name, vals in values.items():
        if not vals:
            raise InputError("every bootstrap resample had zero reference lesions")
        lo, hi = np.percentile(np.array(vals, dtype=np.float64), [2.5, 97.5])
        out[name] = BootstrapCI(float(lo), float(hi), len(vals), skipped)
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


def _oracle_axis_samples(coords, n):
    inside = (coords >= 0.0) & (coords <= n - 1)
    if not inside.any():
        return None
    c = coords[inside]
    i0 = np.clip(np.floor(c).astype(np.int64), 0, n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    lo = i0[0]  # the grid ascends, so the first coordinate has the lowest index
    return inside, slice(lo, i1[-1] + 1), i0 - lo, i1 - lo, c - i0


def oracle_separable_extract_patch(volume, center, shape=(64, 64, 64),
                                   spacing=(0.7, 0.7, 1.25), hu_min=-1000.0, hu_max=500.0):
    """The library's earlier separable resampler, on the volume's (x, y, z) axes.

    Copies the source box the grid touches to float64 in its own layout, runs
    the x, y and z passes on gathered rows, writes the inside samples into an
    air-filled cube by mask, then clips and normalizes. Same arguments and
    result as ``oracle_extract_patch``.
    """
    h = volume.header
    c = center.as_tuple()
    o = h.origin_mm.as_tuple()
    axes = []
    for a, n in enumerate(shape):
        world = c[a] + (np.arange(n) - (n - 1) / 2.0) * spacing[a]
        axes.append(_oracle_axis_samples((world - o[a]) / h.spacing_mm[a], h.dims[a]))
    out = np.full(shape, hu_min, dtype=np.float64)
    if all(axis is not None for axis in axes):
        (ix, bx, x0, x1, fx), (iy, by, y0, y1, fy), (iz, bz, z0, z1, fz) = axes
        v = volume.values[bx, by, bz].astype(np.float64)
        v = v[x0] * (1 - fx)[:, None, None] + v[x1] * fx[:, None, None]
        v = v[:, y0] * (1 - fy)[None, :, None] + v[:, y1] * fy[None, :, None]
        v = v[:, :, z0] * (1 - fz) + v[:, :, z1] * fz
        out[np.ix_(ix, iy, iz)] = v
    hu = np.clip(out, hu_min, hu_max)
    normalized = (hu - hu_min) / (hu_max - hu_min)
    return SimpleNamespace(values=normalized, center=center)


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


def oracle_sorting_mann_whitney_u(x, y, method="auto", exact_max_n=12):
    """The library's earlier rank-sum test, which sorted the pooled sample
    three times: for the midranks, for the ties flag and for the tie term.
    Returns ``(u, p_value, method)``; a tied sample under ``method="exact"``
    raises ``InputError``."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n1, n2 = len(x), len(y)

    def midranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        ranks = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                ranks[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranks

    u = sum(midranks(x + y)[:n1]) - n1 * (n1 + 1) / 2.0
    combined = sorted(x + y)
    has_ties = any(a == b for a, b in zip(combined, combined[1:]))
    if method == "exact" or (method == "auto" and n1 + n2 <= exact_max_n and not has_ties):
        if has_ties:
            raise InputError("exact rank test is unavailable for tied samples")
        int_ranks = [int(r) for r in midranks(x + y)]
        observed_dev = abs(int(round(2 * u)) - n1 * n2)
        extreme = total = 0
        for chosen in itertools.combinations(range(n1 + n2), n1):
            u_doubled = 2 * sum(int_ranks[i] for i in chosen) - n1 * (n1 + 1)
            extreme += abs(u_doubled - n1 * n2) >= observed_dev
            total += 1
        return u, extreme / total, "exact"
    n = n1 + n2
    combined = sorted(x + y)
    tie_term = 0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and combined[j + 1] == combined[i]:
            j += 1
        tie_term += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u, 1.0, "normal_approx"
    z = max(abs(u - n1 * n2 / 2.0) - 0.5, 0.0) / math.sqrt(variance)
    return u, min(max(math.erfc(z / math.sqrt(2.0)), 0.0), 1.0), "normal_approx"


def oracle_cohens_d(x, y):
    n1, n2 = len(x), len(y)
    m1 = sum(x) / n1
    m2 = sum(y) / n2
    v1 = sum((v - m1) ** 2 for v in x) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in y) / (n2 - 1)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    return (m1 - m2) / pooled


def oracle_median(values):
    """numpy's median, which the library called before it sorted the values itself."""
    return float(np.median(np.array(values, dtype=np.float64)))


def oracle_percentiles(values, q):
    """numpy's percentiles (the linear method), which the library called
    before it sorted the values itself."""
    return np.percentile(np.array(values, dtype=np.float64), q).tolist()


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


def oracle_segment(cells):
    """The library's earlier conversion of one chunk of a numeric column:
    ``float()`` of every cell; when that fails or a value is not finite,
    ``float()`` of each cell again, NaN for a blank one or one that fails,
    and a mask of the blank cells. The float64 values if exactly the blank
    cells are not finite; else the cells."""
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    values = np.array([_oracle_float_or_nan(c) if c.strip() else math.nan for c in cells],
                      dtype=np.float64)
    if np.array_equal(~np.isfinite(values), [not c.strip() for c in cells]):
        return values
    return cells


def _oracle_float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


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


def oracle_read_fused(path: str | Path, convention: str = "lps") -> list[FusedCandidate]:
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
            FusedCandidate(
                scan_id=_parse_str(path, row_num, row, "scan_id"),
                center=WorldPoint(*_convert_to_lps(x, y, z, convention)),
                confidence_tier=_parse_float(path, row_num, row, "tier"),
                stage=stage,
                cade_score_avg=_parse_float(path, row_num, row, "score"),
                provenance=tuple(_parse_str(path, row_num, row, "provenance").split(PROVENANCE_SEP)),
                diameter_mm=_parse_float(path, row_num, row, "diameter_mm", required=False),
                cadx_avg=_parse_float(path, row_num, row, "cadx_avg", required=False),
                candidate_id=_parse_str(path, row_num, row, "candidate_id"),
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
# CSV readers, row by row: the library's readers before they read whole
# columns. Each cell is converted and checked once, in a fixed order per row,
# and records are built without running their ``__post_init__``; the column
# readers must raise the same first error (file, physical line, column and
# wording) and return equal records.


@contextmanager
def _csv_table(path: Path, required: Sequence[str]):
    """Open a CSV file for reading cells by position.

    Yields ``(columns, rows)``. ``columns`` maps each header name, stripped,
    to its position (the last one if a name repeats). ``rows`` yields every
    data row as ``(line, cells)``: the physical line the row ends on and its
    raw cells, padded with empty strings to the header's width. Blank lines
    and ``#`` comment lines are skipped, a leading UTF-8 byte-order mark (as
    spreadsheet exports write) is dropped, and a row with more cells than the
    header is an error, as is a line ``csv.reader`` cannot read.
    """
    if not path.exists():
        raise InputError(f"{path}: file does not exist")
    last_line = [0]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _readable(path, csv.reader(_csv_lines(fh, last_line)), last_line)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: missing header row")
        columns = {name.strip(): i for i, name in enumerate(header)}
        for column in required:
            if column not in columns:
                raise InputError(f"{path}: column {column} missing")
        yield columns, _data_rows(path, reader, last_line, len(header))


def _readable(path: Path, reader, last_line: list[int]) -> Iterator[list[str]]:
    """The rows of ``reader``; a ``csv.Error`` becomes an ``InputError`` naming
    the physical line it is raised on."""
    try:
        yield from reader
    except csv.Error as err:
        raise InputError(f"{path}:{last_line[0]}: {err}") from None


def _data_rows(path: Path, reader, last_line: list[int], width: int
               ) -> Iterator[tuple[int, list[str]]]:
    for cells in reader:
        if len(cells) != width:
            if not cells:
                continue
            if len(cells) > width:
                raise InputError(f"{path}:{last_line[0]}: more cells than header columns")
            cells += [""] * (width - len(cells))
        yield last_line[0], cells


def oracle_row_columns(path: str | Path) -> dict[str, list[str]]:
    """The raw cells of every column (the last one of a repeated name), read
    row by row."""
    path = Path(path)
    with _csv_table(path, ()) as (columns, rows):
        cells = [row for _, row in rows]
    return {name: [row[i] for row in cells] for name, i in columns.items()}


def _cell_error(path: Path, line: int, column: str, problem: str) -> InputError:
    return InputError(f"{path}:{line}: column {column} {problem}")


def _text(path: Path, line: int, column: str, cell: str) -> str:
    text = cell.strip()
    if not text:
        raise _cell_error(path, line, column, "is empty")
    return text


def _number(path: Path, line: int, column: str, cell: str,
            required: bool = True) -> float | None:
    try:
        value = float(cell)  # float() ignores surrounding whitespace itself
    except ValueError:
        if cell.strip():
            raise _cell_error(path, line, column, f"is not a number: {cell!r}") from None
        if required:
            raise _cell_error(path, line, column, "is empty") from None
        return None
    if not math.isfinite(value):
        raise _cell_error(path, line, column, f"is not finite: {cell.strip()!r}")
    return value


def _integer(path: Path, line: int, column: str, cell: str,
             required: bool = True) -> int | None:
    text = cell.strip()
    if not text:
        if required:
            raise _cell_error(path, line, column, "is empty")
        return None
    try:
        return int(text)
    except ValueError:
        raise _cell_error(path, line, column, f"is not an integer: {text!r}") from None


def _unit_interval(path: Path, line: int, column: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise _cell_error(path, line, column, f"must lie in [0, 1], got {value}")


def _positive(path: Path, line: int, column: str, value: float | None) -> None:
    if value is not None and value <= 0.0:
        raise _cell_error(path, line, column, f"must be positive, got {value}")


_new = object.__new__
_set = object.__setattr__


def _point(x: float, y: float, z: float) -> WorldPoint:
    point = _new(WorldPoint)
    _set(point, "x", x)
    _set(point, "y", y)
    _set(point, "z", z)
    return point


def _candidate(scan_id: str, candidate_id: str, center: WorldPoint, score: float,
               source_model: str, diameter_mm: float | None) -> CandidateDetection:
    candidate = _new(CandidateDetection)
    _set(candidate, "scan_id", scan_id)
    _set(candidate, "candidate_id", candidate_id)
    _set(candidate, "center", center)
    _set(candidate, "score", score)
    _set(candidate, "source_model", source_model)
    _set(candidate, "diameter_mm", diameter_mm)
    return candidate


def _cadx_scores(p_luna: float, p_dlcs: float) -> CadxScores:
    scores = _new(CadxScores)
    _set(scores, "p_luna", p_luna)
    _set(scores, "p_dlcs", p_dlcs)
    return scores


def oracle_row_read_candidates(
    path: str | Path, convention: str = "lps", expected_model: str | None = None
) -> list[CandidateDetection]:
    path = Path(path)
    out = []
    seen = set()
    with _csv_table(path, CANDIDATE_COLUMNS) as (columns, rows):
        i_scan, i_id, i_x, i_y, i_z, i_diameter, i_score, i_model = (
            columns[c] for c in CANDIDATE_COLUMNS
        )
        for line, cells in rows:
            model = _text(path, line, "model", cells[i_model])
            if expected_model is not None and model != expected_model:
                raise _cell_error(path, line, "model", f"must be {expected_model}, got {model!r}")
            x, y, z = _convert_to_lps(
                _number(path, line, "x_mm", cells[i_x]),
                _number(path, line, "y_mm", cells[i_y]),
                _number(path, line, "z_mm", cells[i_z]),
                convention,
            )
            scan_id = _text(path, line, "scan_id", cells[i_scan])
            candidate_id = _text(path, line, "candidate_id", cells[i_id])
            diameter = _number(path, line, "diameter_mm", cells[i_diameter], required=False)
            score = _number(path, line, "score", cells[i_score])
            _unit_interval(path, line, "score", score)
            _positive(path, line, "diameter_mm", diameter)
            key = (scan_id, model, candidate_id)
            if key in seen:
                raise InputError(
                    f"{path}:{line}: duplicate candidate_id {candidate_id!r} "
                    f"for model {model!r} on scan {scan_id!r}"
                )
            seen.add(key)
            out.append(_candidate(scan_id, candidate_id, _point(x, y, z), score, model, diameter))
    return out


def oracle_row_read_references(path: str | Path, convention: str = "lps") -> list[ReferenceNodule]:
    """Reference nodules. The cells are converted here; ``ReferenceNodule`` and
    ``SemanticRatings`` check the values, and their errors gain file and line."""
    path = Path(path)
    out = []
    seen = set()
    with _csv_table(path, REFERENCE_COLUMNS) as (columns, rows):
        ratings_at = [(display, field, columns[display])
                      for display, field in RATING_COLUMN_FIELDS.items() if display in columns]
        for line, cells in rows:
            cell = {column: cells[columns[column]] for column in REFERENCE_COLUMNS}
            x = _number(path, line, "x_mm", cell["x_mm"])
            y = _number(path, line, "y_mm", cell["y_mm"])
            z = _number(path, line, "z_mm", cell["z_mm"])
            rating_values = {}
            for display, field, i in ratings_at:
                parse = _number if field == "diameter_rad_mm" else _integer
                rating_values[field] = parse(path, line, display, cells[i], required=False)
            scan_id = _text(path, line, "scan_id", cell["scan_id"])
            nodule_id = _text(path, line, "nodule_id", cell["nodule_id"])
            diameter = _number(path, line, "diameter_mm", cell["diameter_mm"])
            reviewers = _integer(path, line, "reviewers", cell["reviewers"], required=False)
            votes = _integer(path, line, "positive_votes", cell["positive_votes"], required=False)
            try:
                ratings = SemanticRatings(**rating_values) if any(
                    v is not None for v in rating_values.values()
                ) else None
                ref = ReferenceNodule(
                    scan_id=scan_id,
                    nodule_id=nodule_id,
                    center=_point(*_convert_to_lps(x, y, z, convention)),
                    diameter_mm=diameter,
                    diagnosis=cell["diagnosis"].strip() or "unknown",
                    lungrads=cell["lungrads"].strip() or None,
                    reviewers=reviewers,
                    positive_votes=votes,
                    ratings=ratings,
                )
            except InputError as err:
                raise InputError(f"{path}:{line}: {err}") from None
            if ref.key in seen:
                raise InputError(
                    f"{path}:{line}: duplicate nodule_id {nodule_id!r} on scan {scan_id!r}"
                )
            seen.add(ref.key)
            out.append(ref)
    return out


def oracle_row_read_cadx_scores(path: str | Path) -> dict[tuple[str, str, str], CadxScores]:
    path = Path(path)
    out: dict[tuple[str, str, str], CadxScores] = {}
    with _csv_table(path, CADX_SCORE_COLUMNS) as (columns, rows):
        i_scan, i_model, i_id, i_luna, i_dlcs = (columns[c] for c in CADX_SCORE_COLUMNS)
        for line, cells in rows:
            key = (
                _text(path, line, "scan_id", cells[i_scan]),
                _text(path, line, "model", cells[i_model]),
                _text(path, line, "candidate_id", cells[i_id]),
            )
            if key in out:
                raise InputError(f"{path}:{line}: duplicate CADx score entry for {key}")
            p_luna = _number(path, line, "p_luna", cells[i_luna])
            p_dlcs = _number(path, line, "p_dlcs", cells[i_dlcs])
            _unit_interval(path, line, "p_luna", p_luna)
            _unit_interval(path, line, "p_dlcs", p_dlcs)
            out[key] = _cadx_scores(p_luna, p_dlcs)
    return out


def oracle_row_read_labeled_scores(path: str | Path) -> tuple[list[float], list[str]]:
    path = Path(path)
    scores, labels = [], []
    with _csv_table(path, LABELED_SCORE_COLUMNS) as (columns, rows):
        i_score, i_label = columns["score"], columns["label"]
        for line, cells in rows:
            scores.append(_number(path, line, "score", cells[i_score]))
            labels.append(_text(path, line, "label", cells[i_label]))
    return scores, labels


def oracle_row_read_fused(path: str | Path, convention: str = "lps") -> list[FusedCandidate]:
    """Fused-list rows, held to the rules ``FusedCandidate`` enforces when
    ``fuse`` writes them: score and ``cadx_avg`` in [0, 1], a positive
    diameter, the tier of the stage, ``cadx_avg`` exactly for cadx-promoted
    rows, and no repeated (scan, candidate id)."""
    path = Path(path)
    out = []
    seen = set()
    with _csv_table(path, FUSED_COLUMNS) as (columns, rows):
        (i_scan, i_id, i_x, i_y, i_z, i_diameter, i_score, _, i_tier, i_stage, i_cadx,
         i_provenance) = (columns[c] for c in FUSED_COLUMNS)
        for line, cells in rows:
            x = _number(path, line, "x_mm", cells[i_x])
            y = _number(path, line, "y_mm", cells[i_y])
            z = _number(path, line, "z_mm", cells[i_z])
            stage = _text(path, line, "stage", cells[i_stage])
            if stage not in TIER_BY_STAGE:
                raise _cell_error(path, line, "stage", f"has unknown value {stage!r}")
            scan_id = _text(path, line, "scan_id", cells[i_scan])
            candidate_id = _text(path, line, "candidate_id", cells[i_id])
            diameter = _number(path, line, "diameter_mm", cells[i_diameter], required=False)
            score = _number(path, line, "score", cells[i_score])
            tier = _number(path, line, "tier", cells[i_tier])
            cadx_avg = _number(path, line, "cadx_avg", cells[i_cadx], required=False)
            provenance = _text(path, line, "provenance", cells[i_provenance])
            _unit_interval(path, line, "score", score)
            _positive(path, line, "diameter_mm", diameter)
            if tier != TIER_BY_STAGE[stage]:
                raise _cell_error(path, line, "tier",
                                  f"must be {TIER_BY_STAGE[stage]} for stage {stage}, got {tier}")
            if stage == STAGE_CADX:
                if cadx_avg is None:
                    raise _cell_error(path, line, "cadx_avg", f"is empty for stage {stage}")
                _unit_interval(path, line, "cadx_avg", cadx_avg)
            elif cadx_avg is not None:
                raise _cell_error(path, line, "cadx_avg", f"must be empty for stage {stage}")
            if (scan_id, candidate_id) in seen:
                raise InputError(f"{path}:{line}: duplicate candidate_id {candidate_id!r} "
                                 f"on scan {scan_id!r}")
            seen.add((scan_id, candidate_id))
            x, y, z = _convert_to_lps(x, y, z, convention)
            out.append(FusedCandidate(
                scan_id=scan_id,
                center=_point(x, y, z),
                confidence_tier=tier,
                stage=stage,
                cade_score_avg=score,
                provenance=tuple(provenance.split(PROVENANCE_SEP)),
                diameter_mm=diameter,
                cadx_avg=cadx_avg,
                candidate_id=candidate_id,
            ))
    return out


def oracle_row_read_match_files(paths: Sequence[str | Path]) -> dict[str, dict[tuple[str, str], float | None]]:
    """Read per-model match files; returns model -> {(scan, nodule): score|None}."""
    out: dict[str, dict[tuple[str, str], float | None]] = {}
    for path in paths:
        path = Path(path)
        with _csv_table(path, MATCH_COLUMNS) as (columns, rows):
            i_scan, i_nodule, i_detected, i_score, i_model = (columns[c] for c in MATCH_COLUMNS)
            for line, cells in rows:
                model = _text(path, line, "model", cells[i_model])
                key = (
                    _text(path, line, "scan_id", cells[i_scan]),
                    _text(path, line, "nodule_id", cells[i_nodule]),
                )
                detected = _integer(path, line, "detected", cells[i_detected])
                if detected not in (0, 1):
                    raise _cell_error(path, line, "detected", "must be 0 or 1")
                score = _number(path, line, "score", cells[i_score], required=False)
                if detected == 1 and score is None:
                    raise InputError(f"{path}:{line}: detected row without a score")
                table = out.setdefault(model, {})
                if key in table:
                    raise InputError(f"{path}:{line}: duplicate match entry for {key}")
                table[key] = score if detected == 1 else None
    return out


# ---------------------------------------------------------------------------
# The reference reader that converted cells by column, then checked each row
# by building its ``SemanticRatings`` and ``ReferenceNodule``.


def oracle_record_read_references(path: str | Path, convention: str = "lps") -> list[ReferenceNodule]:
    """Reference nodules. The cells are converted a column at a time; then
    ``SemanticRatings`` and ``ReferenceNodule`` check the values of each row,
    and their errors gain file and line."""
    path = Path(path)
    columns = _Columns(path, REFERENCE_COLUMNS, numbers=(
        "x_mm", "y_mm", "z_mm", "diameter_mm", CHARACTERISTIC_DISPLAY["diameter_rad_mm"]))
    x = columns.number("x_mm").tolist()
    y = columns.number("y_mm").tolist()
    z = columns.number("z_mm").tolist()
    ratings = {
        field: (list(map(nan_to_none, columns.number(display, required=False).tolist()))
                if field == "diameter_rad_mm" else columns.integer(display, required=False))
        for display, field in RATING_COLUMN_FIELDS.items() if columns.has(display)
    }
    scan_id = columns.text("scan_id")
    nodule_id = columns.text("nodule_id")
    diameter = columns.number("diameter_mm").tolist()
    reviewers = columns.integer("reviewers", required=False)
    votes = columns.integer("positive_votes", required=False)
    diagnosis = [cell.strip() or "unknown" for cell in columns.raw("diagnosis")]
    lungrads = [cell.strip() or None for cell in columns.raw("lungrads")]
    out = []
    rating_rows = zip(*ratings.values()) if ratings else itertools.repeat(())
    for row, rating_values in zip(range(columns.clean_rows()), rating_rows):
        rated = rating_values.count(None) < len(rating_values)
        try:
            rating = SemanticRatings(**dict(zip(ratings, rating_values))) if rated else None
            out.append(ReferenceNodule(
                scan_id=scan_id[row],
                nodule_id=nodule_id[row],
                center=WorldPoint(*_convert_to_lps(x[row], y[row], z[row], convention)),
                diameter_mm=diameter[row],
                diagnosis=diagnosis[row],
                lungrads=lungrads[row],
                reviewers=reviewers[row],
                positive_votes=votes[row],
                ratings=rating,
            ))
        except InputError as err:
            message = str(err)
            columns.note(row, lambda: columns.error(row, message))
            break
    columns.unique((scan_id, nodule_id), lambda row: columns.error(
        row, f"duplicate nodule_id {nodule_id[row]!r} on scan {scan_id[row]!r}"))
    columns.done()
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


def consensus_radius_mm(a, b, cfg):
    """Pairing distance for two candidates under the configured policy.

    The adaptive policy widens the base radius to the matching tolerance of
    the larger reported diameter; without diameters it falls back to the flat
    base radius.
    """
    if cfg.consensus_radius_policy == "fixed":
        return cfg.consensus_radius_mm
    if a.diameter_mm is not None and b.diameter_mm is not None:
        return max(cfg.consensus_radius_mm, match_tolerance(max(a.diameter_mm, b.diameter_mm)))
    return cfg.consensus_radius_mm


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


def _oracle_merge_diameters(a, b):
    if a.diameter_mm is None and b.diameter_mm is None:
        return None
    if a.diameter_mm is None:
        return b.diameter_mm
    if b.diameter_mm is None:
        return a.diameter_mm
    total = a.score + b.score
    if total == 0.0:
        return (a.diameter_mm + b.diameter_mm) / 2.0
    return (a.score * a.diameter_mm + b.score * b.diameter_mm) / total


def _oracle_score_disagreement(candidate, provider):
    if provider is None:
        raise ScorerError(
            f"no CADx provider configured but candidate {candidate.qualified_id} "
            f"on scan {candidate.scan_id} needs scoring"
        )
    try:
        scores = provider(candidate)
    except ScorerError:
        raise
    except Exception as err:
        raise ScorerError(
            f"CADx scoring failed for {candidate.qualified_id} on scan "
            f"{candidate.scan_id}: {err}"
        ) from err
    if not isinstance(scores, CadxScores):
        raise ScorerError(
            f"CADx provider returned {type(scores).__name__} for "
            f"{candidate.qualified_id} on scan {candidate.scan_id}"
        )
    return scores


def oracle_run_tri_stage(list_a, list_b, cadx_provider=None, mask=None, cfg=None):
    """The full tri-stage fusion for one scan, on records: mask gate, the
    all-pairs dedup and consensus loops, then CADx scoring of every
    single-detector candidate in (model, candidate id) order."""
    cfg = cfg or PipelineConfig()
    list_a, list_b = list(list_a), list(list_b)
    scan_ids = {c.scan_id for c in list_a + list_b}
    if len(scan_ids) > 1:
        raise InputError(f"candidates span multiple scans: {sorted(scan_ids)}")
    scan_id = next(iter(scan_ids)) if scan_ids else ""
    dispositions = {}

    def gate(cands):
        if mask is None:
            return list(cands)
        kept = []
        for c in cands:
            if centroid_in_lung(c.center, mask, cfg.lung_labels):
                kept.append(c)
            else:
                dispositions[c.qualified_id] = DISP_MASK_REJECTED
        return kept

    gated_a = gate(list_a)
    gated_b = gate(list_b)
    kept_a, absorbed_a = oracle_suppress_same_model_duplicates(gated_a, cfg.dedup_radius_mm)
    kept_b, absorbed_b = oracle_suppress_same_model_duplicates(gated_b, cfg.dedup_radius_mm)
    duplicate_of = {**absorbed_a, **absorbed_b}
    for dup_id in duplicate_of:
        dispositions[dup_id] = DISP_REJECTED
    absorbed_by = {}
    for dup_id, survivor_id in sorted(duplicate_of.items()):
        absorbed_by.setdefault(survivor_id, []).append(dup_id)

    pairs, disagreements = oracle_cross_detector_consensus(kept_a, kept_b, cfg)

    fused = []
    for pair in pairs:
        a, b = pair.member_a, pair.member_b
        dispositions[a.qualified_id] = DISP_PAIR
        dispositions[b.qualified_id] = DISP_PAIR
        provenance = (
            a.qualified_id,
            *absorbed_by.get(a.qualified_id, ()),
            b.qualified_id,
            *absorbed_by.get(b.qualified_id, ()),
        )
        fused.append(FusedCandidate(
            scan_id=scan_id, center=pair.merged_center,
            confidence_tier=TIER_BY_STAGE[STAGE_CONSENSUS], stage=STAGE_CONSENSUS,
            cade_score_avg=pair.merged_score, provenance=provenance,
            diameter_mm=_oracle_merge_diameters(a, b),
        ))

    for cand in disagreements:
        scores = _oracle_score_disagreement(cand, cadx_provider)
        cadx_avg = (scores.p_luna + scores.p_dlcs) / 2.0
        provenance = (cand.qualified_id, *absorbed_by.get(cand.qualified_id, ()))
        if cadx_avg >= cfg.tau_cadx:
            dispositions[cand.qualified_id] = DISP_T2
            fused.append(FusedCandidate(
                scan_id=scan_id, center=cand.center, confidence_tier=TIER_BY_STAGE[STAGE_CADX],
                stage=STAGE_CADX, cade_score_avg=cand.score, provenance=provenance,
                diameter_mm=cand.diameter_mm, cadx_avg=cadx_avg,
            ))
        elif cand.score >= cfg.tau_cade:
            dispositions[cand.qualified_id] = DISP_T3
            fused.append(FusedCandidate(
                scan_id=scan_id, center=cand.center, confidence_tier=TIER_BY_STAGE[STAGE_CADE],
                stage=STAGE_CADE, cade_score_avg=cand.score, provenance=provenance,
                diameter_mm=cand.diameter_mm,
            ))
        else:
            dispositions[cand.qualified_id] = DISP_REJECTED

    fused.sort(key=lambda f: (-f.confidence_tier, -f.cade_score_avg, f.primary_id))
    fused = [dataclasses.replace(f, candidate_id=f"F{n:04d}") for n, f in enumerate(fused)]
    expected = {c.qualified_id for c in list_a} | {c.qualified_id for c in list_b}
    if set(dispositions) != expected:
        raise InvariantError("fusion lost track of input candidates")
    return TriStageResult(scan_id=scan_id, fused=tuple(fused), dispositions=dispositions,
                          duplicate_of=duplicate_of)


# ---------------------------------------------------------------------------
# Report linkage: every entity tested against every pooled candidate.


def _oracle_criteria_for(entity, candidate, size_tol_mm, ordinal_tol):
    checks = []
    if entity.lobe is not None and candidate.lobe is not None:
        checks.append(("lobe", entity.lobe == candidate.lobe))
    elif entity.laterality is not None and candidate.laterality is not None:
        checks.append(("laterality", entity.laterality == candidate.laterality))
    if entity.size_mm is not None and candidate.diameter_mm is not None:
        checks.append(("size", abs(entity.size_mm - candidate.diameter_mm) <= size_tol_mm))
    shared = set(entity.ordinal_map()) & set(candidate.ordinal_map())
    for name in sorted(shared):
        checks.append(
            (f"ordinal:{name}",
             abs(entity.ordinal_map()[name] - candidate.ordinal_map()[name]) <= ordinal_tol)
        )
    return tuple(checks)


def oracle_match_entities(entities, candidates, size_tol_mm=3.0, ordinal_tol=1):
    """Assign report entities to ``LinkCandidate`` records in input order;
    each entity takes the best admissible pooled candidate (tier, score, size
    gap, candidate id), and the rest are reported candidate-only."""
    entities = list(entities)
    pool = {}
    for cand in candidates:
        if cand.candidate_id in pool:
            raise InputError(f"duplicate link candidate id {cand.candidate_id!r}")
        pool[cand.candidate_id] = cand
    entity_scans = {e.scan_id for e in entities}
    candidate_scans = {c.scan_id for c in pool.values()}
    if entities and pool and not entity_scans & candidate_scans:
        raise InputError(
            f"entities and candidates share no scans: {sorted(entity_scans)} vs "
            f"{sorted(candidate_scans)}"
        )

    matches = []
    for entity in entities:
        admissible = [
            c for c in pool.values()
            if c.scan_id == entity.scan_id
            and all(ok for _, ok in _oracle_criteria_for(entity, c, size_tol_mm, ordinal_tol))
        ]
        if not admissible:
            matches.append(EntityMatch(entity=entity, candidate_id=None, status="report_only"))
            continue

        def size_gap(c):
            if entity.size_mm is None or c.diameter_mm is None:
                return math.inf
            return abs(entity.size_mm - c.diameter_mm)

        admissible.sort(key=lambda c: (-c.tier, -c.score, size_gap(c), c.candidate_id))
        chosen = admissible[0]
        del pool[chosen.candidate_id]
        matches.append(EntityMatch(
            entity=entity, candidate_id=chosen.candidate_id, status="matched",
            criteria=_oracle_criteria_for(entity, chosen, size_tol_mm, ordinal_tol),
        ))
    for candidate_id in sorted(pool):
        matches.append(EntityMatch(entity=None, candidate_id=candidate_id, status="candidate_only"))
    return matches


def oracle_link_by_scan(entities, candidates, size_tol_mm=3.0, ordinal_tol=1, scans=None):
    """The per-scan loop ``link`` ran: one ``oracle_match_entities`` call per
    scan, in ascending scan id order, on the scan's entities and
    ``LinkCandidate`` records. The scans are ``scans`` and the entities'
    scans; without ``scans``, the scans of both sides, which must share one.
    No (scan, candidate id) may repeat."""
    entities, candidates = list(entities), list(candidates)
    seen = set()
    for cand in candidates:
        if (cand.scan_id, cand.candidate_id) in seen:
            raise InputError(f"duplicate link candidate id {cand.candidate_id!r}")
        seen.add((cand.scan_id, cand.candidate_id))
    entity_scans = {e.scan_id for e in entities}
    if scans is None:
        scans = {c.scan_id for c in candidates}
        if entities and candidates and not entity_scans & scans:
            raise InputError(
                f"entities and candidates share no scans: {sorted(entity_scans)} vs "
                f"{sorted(scans)}"
            )
    matches = []
    for scan_id in sorted(set(scans) | entity_scans):
        matches.extend(oracle_match_entities(
            [e for e in entities if e.scan_id == scan_id],
            [c for c in candidates if c.scan_id == scan_id], size_tol_mm, ordinal_tol))
    return matches


# ---------------------------------------------------------------------------
# Lesion matching: every unmatched reference tested for every candidate.


def oracle_match_lesions(candidates, references, scan_ids=None):
    """One-to-one greedy matching of candidates to reference nodules.

    ``scan_ids`` fixes the scan universe; by default it is the union of scan
    ids seen in either input, so reference-free scans still contribute their
    false positives.
    """
    by_scan_c = {}
    seen_candidates = set()
    for c in candidates:
        if c.key in seen_candidates:
            raise InputError(
                f"duplicate candidate {c.candidate_id!r} for model {c.source_model!r} "
                f"on scan {c.scan_id!r}"
            )
        seen_candidates.add(c.key)
        by_scan_c.setdefault(c.scan_id, []).append(c)

    by_scan_r = {}
    seen_refs = set()
    for r in references:
        if r.key in seen_refs:
            raise InputError(f"duplicate nodule_id {r.nodule_id!r} on scan {r.scan_id!r}")
        seen_refs.add(r.key)
        by_scan_r.setdefault(r.scan_id, []).append(r)

    universe = set(scan_ids) if scan_ids is not None else set(by_scan_c) | set(by_scan_r)
    stray = (set(by_scan_c) | set(by_scan_r)) - universe
    if stray:
        raise InputError(f"records reference scans outside the scan set: {sorted(stray)}")

    scans = []
    for scan_id in sorted(universe):
        cands = sorted(
            by_scan_c.get(scan_id, []), key=lambda c: (-c.score, c.candidate_id, c.source_model)
        )
        refs = by_scan_r.get(scan_id, [])
        unmatched = {r.nodule_id: r for r in refs}
        tps = []
        fps = []
        for cand in cands:
            best = None
            for nodule_id, ref in unmatched.items():
                if not is_hit(cand, ref):
                    continue
                dist = cand.center.distance_to(ref.center)
                if best is None or (dist, nodule_id) < best:
                    best = (dist, nodule_id)
            if best is None:
                fps.append((cand.candidate_id, cand.score))
            else:
                nodule_id = best[1]
                del unmatched[nodule_id]
                tps.append(
                    TruePositive(
                        scan_id=scan_id,
                        nodule_id=nodule_id,
                        candidate_id=cand.candidate_id,
                        score=cand.score,
                    )
                )
        scans.append(
            ScanMatch(
                scan_id=scan_id,
                n_references=len(refs),
                tp=tuple(tps),
                fn=tuple(sorted(unmatched)),
                fp=tuple(fps),
            )
        )
    return LesionMatchResult(scans=tuple(scans))


# ---------------------------------------------------------------------------
# Lesion matching on a candidate table: every candidate-reference pair on a
# scan tested one by one, then a ``ScanMatch`` per scan with one
# ``(candidate id, score)`` tuple per false positive.


def _oracle_score_order(table, scans):
    """Rows grouped by scan in the order of ``scans``, each scan's rows by
    (score descending, candidate id, model); and where each scan's rows end."""
    by_scan = table.by_scan
    no_rows = np.zeros(0, dtype=np.intp)
    groups = [by_scan.get(scan_id, no_rows) for scan_id in scans]
    rows = np.concatenate(groups) if groups else no_rows
    ends = np.cumsum([len(g) for g in groups]).tolist()
    scan_rank = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    score = table.score[rows]
    order = np.lexsort((-score, scan_rank))
    rows, score, scan_rank = rows[order], score[order], scan_rank[order]
    tied = (score[1:] == score[:-1]) & (scan_rank[1:] == scan_rank[:-1])
    if tied.any():
        cid, model = table.candidate_id, table.model
        edges = np.flatnonzero(np.diff(np.concatenate(([0], tied.view(np.int8), [0])))).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            run = rows[start:stop + 1].tolist()
            rows[start:stop + 1] = sorted(run, key=lambda i: (cid[i], model[i]))
    return rows, ends


def oracle_pair_match_lesions(candidates, references, scan_ids=None):
    """``oracle_match_lesions`` on a ``CandidateTable`` of the candidates."""
    table = CandidateTable.of(candidates)
    by_scan_r = {}
    seen_refs = set()
    for r in references:
        if r.key in seen_refs:
            raise InputError(f"duplicate nodule_id {r.nodule_id!r} on scan {r.scan_id!r}")
        seen_refs.add(r.key)
        by_scan_r.setdefault(r.scan_id, []).append(r)

    by_scan_c = table.by_scan
    universe = set(scan_ids) if scan_ids is not None else set(by_scan_c) | set(by_scan_r)
    stray = (set(by_scan_c) | set(by_scan_r)) - universe
    if stray:
        raise InputError(f"records reference scans outside the scan set: {sorted(stray)}")
    scans = sorted(universe)
    rows, ends = _oracle_score_order(table, scans)
    position = np.empty(len(table), dtype=np.intp)
    position[rows] = np.arange(rows.size)

    refs = [r for scan_id in scans for r in by_scan_r.get(scan_id, ())]
    ref_rows = [by_scan_c.get(r.scan_id, np.zeros(0, dtype=np.intp)) for r in refs]
    pair_c = np.concatenate(ref_rows) if refs else np.zeros(0, dtype=np.intp)
    pair_r = np.repeat(np.arange(len(refs)), [len(g) for g in ref_rows])
    tolerance = [match_tolerance(r.diameter_mm) for r in refs]
    hits = {}
    for p, j, (x, y, z) in zip(position[pair_c].tolist(), pair_r.tolist(),
                               table.xyz[pair_c].tolist()):
        ref = refs[j]
        dist = distance_mm(x, y, z, ref.center.x, ref.center.y, ref.center.z)
        if dist <= tolerance[j]:
            hits.setdefault(p, []).append((dist, ref.nodule_id, j))

    matched = set()
    tp_at = {}
    for p in sorted(hits):
        best = min((h for h in hits[p] if h[2] not in matched), default=None)
        if best is not None:
            matched.add(best[2])
            tp_at[p] = best[1]

    cids = table.candidate_id
    ordered_cid = [cids[i] for i in rows.tolist()]
    ordered_score = table.score[rows].tolist()
    scans_out = []
    start = 0
    for scan_id, end in zip(scans, ends):
        tps = tuple(
            TruePositive(scan_id=scan_id, nodule_id=tp_at[p], candidate_id=ordered_cid[p],
                         score=ordered_score[p])
            for p in range(start, end) if p in tp_at
        )
        fps = tuple((ordered_cid[p], ordered_score[p]) for p in range(start, end) if p not in tp_at)
        scan_refs = by_scan_r.get(scan_id, [])
        detected = {t.nodule_id for t in tps}
        scans_out.append(ScanMatch(
            scan_id=scan_id,
            n_references=len(scan_refs),
            tp=tps,
            fn=tuple(sorted(r.nodule_id for r in scan_refs if r.nodule_id not in detected)),
            fp=fps,
        ))
        start = end
    return LesionMatchResult(scans=tuple(scans_out))


# ---------------------------------------------------------------------------
# CSV writer: every cell formatted by ``_fmt`` before the csv module sees it.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def oracle_write_csv(path, header, rows, manifest_digest=None):
    buf = io.StringIO()
    if manifest_digest:
        buf.write(f"# manifest_digest={manifest_digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")
    return Path(path)


def oracle_write_fused_csv(path, fused, manifest_digest=None):
    """The fused-list writer of the record era: output ids counted per scan
    over the ``FusedCandidate`` records, one row tuple per record."""
    rows = []
    counters = {}
    for f in fused:
        n = counters.get(f.scan_id, 0)
        counters[f.scan_id] = n + 1
        rows.append((f.scan_id, f"F{n:04d}", f.center.x, f.center.y, f.center.z, f.diameter_mm,
                     f.cade_score_avg, "FUSED", f.confidence_tier, f.stage, f.cadx_avg,
                     PROVENANCE_SEP.join(f.provenance)))
    return oracle_write_csv(path, FUSED_COLUMNS, rows, manifest_digest)


def oracle_write_fused_columns(path, fused, manifest_digest=None):
    """The fused-list writer that handed the table's column values to
    ``csv.writer``: a float as its ``repr``, a NaN diameter or ``cadx_avg``
    as an empty cell, provenance joined with ``|``."""
    t = CandidateTable.of(fused)

    def cells(values):
        return [None if v != v else v for v in values.tolist()]

    rows = zip(t.scan_id, t.candidate_id, *t.xyz.T.tolist(), cells(t.diameter_mm),
               t.score.tolist(), t.model, t.tier.tolist(), t.stage, cells(t.cadx_avg),
               map(PROVENANCE_SEP.join, t.provenance))
    return oracle_write_csv(path, FUSED_COLUMNS, rows, manifest_digest)
