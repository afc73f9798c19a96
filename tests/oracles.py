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
