"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain tuples and enumerates exhaustively (or, for
the bootstrap, recomputes every resample from scratch); nothing imports the
code under test.

Conventions:
  candidate = (cid, (x, y, z), score)
  reference = (nid, (x, y, z), diameter_mm)
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np


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
        thresholds = np.unique(np.concatenate([tp, fp]))
        tp_counts = tp.size - np.searchsorted(tp, thresholds, side="left")
        fp_counts = fp.size - np.searchsorted(fp, thresholds, side="left")
        sens = []
        for rate in rates:
            admissible = np.nonzero(fp_counts <= rate * n)[0]
            if admissible.size == 0:
                sens.append(0.0)
            else:
                sens.append(float(tp_counts[admissible[0]]) / n_lesions)
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
