"""Lesion-level matching, FROC curves, the competition metric, bootstrap
confidence intervals, and stratified evaluation.

Matching is one-to-one: candidates are processed in descending score order
(ties broken by candidate id) and each becomes a true positive for the
nearest still-unmatched reference it hits, otherwise a false positive.
References never matched are false negatives.

The curve reports sensitivity at seven false-positive rates per scan
(1/8, 1/4, 1/2, 1, 2, 4, 8). At each target rate the score threshold is the
lowest one whose total false positives per scan do not exceed the target;
candidates tied on score enter or leave as a block. The competition metric
is the mean of the seven sensitivities. Scans without references still count
in the false-positive denominator.

Stratified evaluation filters references to one stratum and restricts
candidates to scans containing that stratum; candidates that hit only
out-of-stratum references count as false positives there.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    DIAGNOSES,
    LUNGRADS_CATEGORIES,
    CandidateDetection,
    CandidateTable,
    ReferenceNodule,
    distance_mm,
    match_tolerance,
    may_lie_within,
)
from .errors import InputError
from .readerstats import CONSENSUS_PATTERNS, consensus_category

FP_RATES = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class TruePositive:
    scan_id: str
    nodule_id: str
    candidate_id: str
    score: float


@dataclass(frozen=True)
class ScanMatch:
    scan_id: str
    n_references: int
    tp: tuple[TruePositive, ...]
    fn: tuple[str, ...]
    fp: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class LesionMatchResult:
    scans: tuple[ScanMatch, ...]

    @property
    def n_scans(self) -> int:
        return len(self.scans)

    @property
    def n_references(self) -> int:
        return sum(s.n_references for s in self.scans)

    @property
    def n_detected(self) -> int:
        return sum(len(s.tp) for s in self.scans)

    @property
    def n_candidates(self) -> int:
        return sum(len(s.tp) + len(s.fp) for s in self.scans)

    def detected_scores(self) -> dict[tuple[str, str], float]:
        """Matched candidate score per detected reference, keyed (scan, nodule)."""
        return {(t.scan_id, t.nodule_id): t.score for s in self.scans for t in s.tp}


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _score_order(table: CandidateTable, scans: list[str]) -> tuple[np.ndarray, list[int]]:
    """Rows grouped by scan in the order of ``scans``, each scan's rows by
    (score descending, candidate id, model); and where each scan's rows end."""
    by_scan = table.by_scan
    groups = [by_scan.get(scan_id, _NO_ROWS) for scan_id in scans]
    rows = np.concatenate(groups) if groups else _NO_ROWS
    ends = np.cumsum([len(g) for g in groups]).tolist()
    scan_rank = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    score = table.score[rows]
    order = np.lexsort((-score, scan_rank))  # stable: ties keep file order for now
    rows, score, scan_rank = rows[order], score[order], scan_rank[order]
    # runs of equal scores within a scan go by (candidate id, model) instead
    tied = (score[1:] == score[:-1]) & (scan_rank[1:] == scan_rank[:-1])
    if tied.any():
        cid, model = table.candidate_id, table.model
        edges = np.flatnonzero(np.diff(np.concatenate(([0], tied.view(np.int8), [0])))).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            run = rows[start:stop + 1].tolist()
            rows[start:stop + 1] = sorted(run, key=lambda i: (cid[i], model[i]))
    return rows, ends


def match_lesions(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    scan_ids: Iterable[str] | None = None,
) -> LesionMatchResult:
    """One-to-one greedy matching of candidates to reference nodules.

    ``candidates`` is a ``CandidateTable`` or an iterable of records.
    ``scan_ids`` fixes the scan universe; by default it is the union of scan
    ids seen in either input, so reference-free scans still contribute their
    false positives.

    Within a scan, candidates go best score first (ties by candidate id, then
    model); each takes the nearest (then lowest nodule id) still-unmatched
    reference it hits. The candidate-reference pairs that may hit are found on
    one squared-distance array and each is confirmed with the scalar distance
    and ``match_tolerance``; a candidate with no such pair is a false positive.
    """
    table = CandidateTable.of(candidates)

    by_scan_r: dict[str, list[ReferenceNodule]] = {}
    seen_refs: set[tuple[str, str]] = set()
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
    rows, ends = _score_order(table, scans)
    position = np.empty(len(table), dtype=np.intp)
    position[rows] = np.arange(rows.size)

    # every candidate x reference pair on a scan, prefiltered, then confirmed
    refs = [r for scan_id in scans for r in by_scan_r.get(scan_id, ())]
    ref_rows = [by_scan_c.get(r.scan_id, _NO_ROWS) for r in refs]
    pair_c = np.concatenate(ref_rows) if refs else _NO_ROWS
    pair_r = np.repeat(np.arange(len(refs)), [len(g) for g in ref_rows])
    tolerance = [match_tolerance(r.diameter_mm) for r in refs]
    ref_xyz = np.array([r.center.as_tuple() for r in refs], dtype=np.float64).reshape(-1, 3)
    near = may_lie_within((table.xyz[pair_c, k] for k in range(3)),
                          (ref_xyz[pair_r, k] for k in range(3)),
                          np.array(tolerance, dtype=np.float64)[pair_r])
    hits: dict[int, list[tuple[float, str, int]]] = {}
    for p, j, (x, y, z) in zip(position[pair_c[near]].tolist(), pair_r[near].tolist(),
                               table.xyz[pair_c[near]].tolist()):
        ref = refs[j]
        dist = distance_mm(x, y, z, ref.center.x, ref.center.y, ref.center.z)
        if dist <= tolerance[j]:
            hits.setdefault(p, []).append((dist, ref.nodule_id, j))

    # greedy assignment in score order; positions ascend scan by scan
    matched: set[int] = set()
    tp_at: dict[int, str] = {}
    for p in sorted(hits):
        best = min((h for h in hits[p] if h[2] not in matched), default=None)
        if best is not None:
            matched.add(best[2])
            tp_at[p] = best[1]

    cids = table.candidate_id
    ordered_cid = [cids[i] for i in rows.tolist()]
    ordered_score = table.score[rows].tolist()
    scans_out: list[ScanMatch] = []
    start = 0
    for scan_id, end in zip(scans, ends):
        tps = tuple(
            TruePositive(scan_id=scan_id, nodule_id=tp_at[p], candidate_id=ordered_cid[p],
                         score=ordered_score[p])
            for p in range(start, end) if p in tp_at
        )
        if tps:
            fps = tuple((ordered_cid[p], ordered_score[p])
                        for p in range(start, end) if p not in tp_at)
        else:
            fps = tuple(zip(ordered_cid[start:end], ordered_score[start:end]))
        scan_refs = by_scan_r.get(scan_id, [])
        detected = {t.nodule_id for t in tps}
        scans_out.append(
            ScanMatch(
                scan_id=scan_id,
                n_references=len(scan_refs),
                tp=tps,
                fn=tuple(sorted(r.nodule_id for r in scan_refs if r.nodule_id not in detected)),
                fp=fps,
            )
        )
        start = end
    return LesionMatchResult(scans=tuple(scans_out))


@dataclass(frozen=True)
class FrocCurve:
    fp_rates: tuple[float, ...]
    sensitivities: tuple[float, ...]
    n_scans: int
    n_lesions: int
    candidates_total: int

    def __post_init__(self):
        if len(self.fp_rates) != len(self.sensitivities):
            raise InputError("fp_rates and sensitivities must have equal length")

    def sensitivity_at(self, rate: float) -> float:
        return self.sensitivities[_rate_index(self.fp_rates, rate)]


def _rate_index(rates: Sequence[float], rate: float) -> int:
    for k, r in enumerate(rates):
        if r == rate:
            return k
    raise InputError(f"rate {rate} not on the curve")


def _score_grid(result: LesionMatchResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending distinct scores of a matching, and the rank on it of each
    true positive and each false positive, both in scan order."""
    tp_scores = np.array([t.score for s in result.scans for t in s.tp], dtype=np.float64)
    fp_scores = np.array([f[1] for s in result.scans for f in s.fp], dtype=np.float64)
    grid = np.unique(np.concatenate([tp_scores, fp_scores]))
    return grid, np.searchsorted(grid, tp_scores), np.searchsorted(grid, fp_scores)


def _sensitivities_on_grid(
    grid_size: int,
    tp_rank: np.ndarray,
    fp_rank: np.ndarray,
    n_scans: int,
    n_lesions: int,
    rates: Sequence[float],
    tp_weight: np.ndarray | None = None,
    fp_weight: np.ndarray | None = None,
) -> list[float]:
    """Sensitivity at each false-positive rate per scan.

    Each positive counts its weight (default 1) at every grid score at or
    below its own. At each rate the threshold is the lowest grid score whose
    false positives fit within ``rate * n_scans``; the sensitivity is its true
    positives over ``n_lesions``, or 0 when no threshold fits. Zero weights
    below a cut give the curve of the positives kept by that cut, and draw
    counts give the curve of a scan resample.
    """
    # weighted counts at or above each grid score, plus a zero count above the top one
    tp_counts = np.zeros(grid_size + 1)
    tp_counts[:-1] = np.bincount(tp_rank, tp_weight, grid_size)[::-1].cumsum()[::-1]
    fp_counts = np.bincount(fp_rank, fp_weight, grid_size)[::-1].cumsum()[::-1]
    # fp_counts never rises with the threshold: first index with fp <= rate * n_scans
    allowed = -np.array(rates, dtype=np.float64) * n_scans
    first = np.searchsorted(-fp_counts, allowed, side="left")
    return (tp_counts[first] / n_lesions).tolist()


def _mean_sensitivity(sensitivities: Sequence[float]) -> float:
    return float(sum(sensitivities) / len(sensitivities))


def froc_curve(result: LesionMatchResult, rates: Sequence[float] = FP_RATES) -> FrocCurve:
    """Sensitivity at each target false-positive rate per scan."""
    if result.n_scans < 1:
        raise InputError("FROC evaluation needs at least one scan")
    if result.n_references < 1:
        raise InputError("FROC evaluation needs at least one reference lesion")
    grid, tp_rank, fp_rank = _score_grid(result)
    sens = _sensitivities_on_grid(
        grid.size, tp_rank, fp_rank, result.n_scans, result.n_references, rates
    )
    return FrocCurve(
        fp_rates=tuple(rates),
        sensitivities=tuple(sens),
        n_scans=result.n_scans,
        n_lesions=result.n_references,
        candidates_total=result.n_candidates,
    )


def cpm(curve: FrocCurve) -> float:
    """Mean sensitivity across the target false-positive rates."""
    return _mean_sensitivity(curve.sensitivities)


@dataclass(frozen=True)
class BootstrapCI:
    lo: float
    hi: float
    resamples_used: int
    resamples_skipped: int

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def _bootstrap_intervals(
    result: LesionMatchResult,
    statistics: Mapping[str, float | None],
    resamples: int,
    seed: int,
    rates: Sequence[float] = FP_RATES,
) -> dict[str, BootstrapCI]:
    """Scan-level percentile bootstrap; one resampling pass for all statistics.

    ``statistics`` maps each output name to the false-positive rate whose
    sensitivity it resamples, or to None for the CPM.

    Resample i draws scans with replacement using a generator seeded with
    (seed, i), so results do not depend on evaluation order. Resamples with
    zero reference lesions are skipped and counted.

    A resample is the draw count of every scan, used as the weight of that
    scan's true and false positives on the full result's score grid.
    """
    if resamples < 1:
        raise InputError("bootstrap needs at least one resample")
    if result.n_scans < 1:
        raise InputError("bootstrap needs at least one scan")
    n = result.n_scans
    n_refs = np.array([s.n_references for s in result.scans], dtype=np.int64)
    tp_scan = np.array([j for j, s in enumerate(result.scans) for _ in s.tp], dtype=np.intp)
    fp_scan = np.array([j for j, s in enumerate(result.scans) for _ in s.fp], dtype=np.intp)
    grid, tp_rank, fp_rank = _score_grid(result)

    values: dict[str, list[float]] = {name: [] for name in statistics}
    skipped = 0
    for i in range(resamples):
        rng = np.random.default_rng((seed, i))
        idx = rng.integers(0, n, size=n)
        w = np.bincount(idx, minlength=n)
        n_lesions = int(w @ n_refs)
        if n_lesions == 0:
            skipped += 1
            continue
        sens = _sensitivities_on_grid(
            grid.size, tp_rank, fp_rank, n, n_lesions, rates, w[tp_scan], w[fp_scan]
        )
        for name, rate in statistics.items():
            if rate is None:
                values[name].append(_mean_sensitivity(sens))
            else:
                values[name].append(sens[_rate_index(rates, rate)])
    out = {}
    for name, vals in values.items():
        if not vals:
            raise InputError("every bootstrap resample had zero reference lesions")
        lo, hi = np.percentile(np.array(vals, dtype=np.float64), [2.5, 97.5])
        out[name] = BootstrapCI(
            lo=float(lo), hi=float(hi), resamples_used=len(vals), resamples_skipped=skipped
        )
    return out


def bootstrap_ci(
    result: LesionMatchResult,
    statistic: str = "cpm",
    rate: float = 1.0,
    resamples: int = 1000,
    seed: int = 17,
    rates: Sequence[float] = FP_RATES,
) -> BootstrapCI:
    """Percentile bootstrap CI for the CPM or for sensitivity at one rate."""
    if statistic not in ("cpm", "sensitivity"):
        raise InputError(f"unknown bootstrap statistic {statistic!r}")
    statistics = {statistic: rate if statistic == "sensitivity" else None}
    return _bootstrap_intervals(result, statistics, resamples, seed, rates)[statistic]


@dataclass(frozen=True)
class FrocResult:
    curve: FrocCurve
    cpm: float
    detected_over_lesions: tuple[int, int]
    candidates_per_scan: float
    cpm_ci: tuple[float, float] | None = None
    sens_at_1fp_ci: tuple[float, float] | None = None
    # the matching the metrics were computed from; not part of equality
    matches: LesionMatchResult | None = field(default=None, repr=False, compare=False)

    @property
    def sensitivity_at_1fp(self) -> float:
        return self.curve.sensitivity_at(1.0)


def evaluate(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    ci: bool = False,
    resamples: int = 1000,
    seed: int = 17,
    rates: Sequence[float] = FP_RATES,
    scan_ids: Iterable[str] | None = None,
) -> FrocResult:
    """Match, build the curve and summarize; optionally with bootstrap CIs."""
    result = match_lesions(candidates, references, scan_ids=scan_ids)
    curve = froc_curve(result, rates)
    cis: dict[str, BootstrapCI] = {}
    if ci:
        cis = _bootstrap_intervals(result, {"cpm": None, "sens1": 1.0}, resamples, seed, rates)
    return FrocResult(
        curve=curve,
        cpm=cpm(curve),
        detected_over_lesions=(result.n_detected, result.n_references),
        candidates_per_scan=result.n_candidates / result.n_scans,
        cpm_ci=cis["cpm"].interval if cis else None,
        sens_at_1fp_ci=cis["sens1"].interval if cis else None,
        matches=result,
    )


@dataclass(frozen=True)
class SizeBinSpec:
    """Named size bins as ``(name, upper edge)`` pairs with ascending edges:
    each bin holds the diameters from the previous edge (0 for the first)
    up to but excluding its own, and the last edge is inf."""

    bins: tuple[tuple[str, float], ...]

    def __post_init__(self):
        edges = [0.0] + [hi for _, hi in self.bins]
        if not (all(lo < hi for lo, hi in zip(edges, edges[1:])) and math.isinf(edges[-1])):
            raise InputError(f"size bin edges must ascend from 0 to inf, got {edges[1:]}")

    def bin_for(self, diameter_mm: float) -> str:
        if diameter_mm >= 0.0:
            for name, hi in self.bins:
                if diameter_mm < hi:
                    return name
        raise InputError(f"diameter {diameter_mm} fits no size bin")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.bins)


DLCS_SIZE_BINS = SizeBinSpec((("<6", 6.0), ("6-10", 10.0), (">=10", math.inf)))
IMD_SIZE_BINS = SizeBinSpec((("<10", 10.0), ("10-20", 20.0), (">=20", math.inf)))

_Stratifier = tuple[Callable[[ReferenceNodule], str], tuple[str, ...]]


def _by_size(spec: SizeBinSpec) -> _Stratifier:
    return (lambda ref: spec.bin_for(ref.diameter_mm)), spec.names


# each stratifier: a reference's stratum, and every stratum in report order
_STRATIFIERS: dict[str, _Stratifier] = {
    "size:dlcs": _by_size(DLCS_SIZE_BINS),
    "size:imd": _by_size(IMD_SIZE_BINS),
    "lungrads": (lambda ref: "unknown" if ref.lungrads is None else ref.lungrads,
                 LUNGRADS_CATEGORIES + ("unknown",)),
    "diagnosis": (lambda ref: ref.diagnosis, DIAGNOSES),
    "consensus": (lambda ref: consensus_category(ref.reviewers, ref.positive_votes),
                  CONSENSUS_PATTERNS),
}
STRATIFIERS = tuple(_STRATIFIERS)


def _strata(references: Iterable[ReferenceNodule], stratify: str | SizeBinSpec
            ) -> tuple[dict[str, list[ReferenceNodule]], tuple[str, ...]]:
    """The references of each stratum of a name in ``STRATIFIERS`` or of a
    ``SizeBinSpec``, and all its strata in report order."""
    if isinstance(stratify, SizeBinSpec):
        stratum_of, order = _by_size(stratify)
    elif isinstance(stratify, str) and stratify in _STRATIFIERS:
        stratum_of, order = _STRATIFIERS[stratify]
    else:
        raise InputError(f"unknown stratifier {stratify!r}; choose from {STRATIFIERS}")
    groups: dict[str, list[ReferenceNodule]] = {}
    for ref in references:
        groups.setdefault(stratum_of(ref), []).append(ref)
    return groups, order


@dataclass(frozen=True)
class StratifiedResult:
    overall: FrocResult
    strata: dict[str, FrocResult]
    warnings: tuple[str, ...]


def stratified_eval(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    stratify: str | SizeBinSpec,
    ci: bool = False,
    resamples: int = 1000,
    seed: int = 17,
    rates: Sequence[float] = FP_RATES,
) -> StratifiedResult:
    """Per-stratum evaluation plus overall.

    Each stratum keeps only its references and only the candidates on scans
    containing at least one stratum reference, mirroring per-subset scan
    denominators. Empty strata are omitted with a warning.
    """
    references = list(references)
    by_stratum, order = _strata(references, stratify)
    candidates = CandidateTable.of(candidates)
    overall = evaluate(candidates, references, ci=ci, resamples=resamples, seed=seed, rates=rates)
    names = [n for n in order if n in by_stratum]
    warnings = [f"stratum {n!r} is empty and was omitted"
                for n in order if n not in by_stratum and n != "unknown"]

    strata: dict[str, FrocResult] = {}
    for name in names:
        refs = by_stratum[name]
        scan_set = {r.scan_id for r in refs}
        strata[name] = evaluate(
            candidates.of_scans(scan_set), refs,
            ci=ci, resamples=resamples, seed=seed, rates=rates, scan_ids=scan_set,
        )
    return StratifiedResult(overall=overall, strata=strata, warnings=tuple(warnings))


@dataclass(frozen=True)
class GroupScoreSummary:
    n_gt: int
    n_detected: int
    mean: float | None
    sd: float | None
    median: float | None
    min: float | None
    max: float | None


def detection_probability_summary(
    result,
    references: Iterable[ReferenceNodule],
    group_by: str | SizeBinSpec,
) -> dict[str, GroupScoreSummary]:
    """Matched-candidate score statistics per reference group.

    ``result`` is a LesionMatchResult or a ready mapping of
    (scan_id, nodule_id) to the matched score. Undetected references count in
    n_gt but contribute no score. The spread uses the n-1 denominator and is
    absent for groups with fewer than two detections.
    """
    groups, _ = _strata(references, group_by)
    if isinstance(result, LesionMatchResult):
        detected = result.detected_scores()
    else:
        detected = {k: v for k, v in dict(result).items() if v is not None}
    out: dict[str, GroupScoreSummary] = {}
    for name in sorted(groups):
        refs = groups[name]
        scores = [detected[r.key] for r in refs if r.key in detected]
        if scores:
            arr = np.array(scores, dtype=np.float64)
            out[name] = GroupScoreSummary(
                n_gt=len(refs),
                n_detected=len(scores),
                mean=float(arr.mean()),
                sd=float(arr.std(ddof=1)) if arr.size >= 2 else None,
                median=float(np.median(arr)),
                min=float(arr.min()),
                max=float(arr.max()),
            )
        else:
            out[name] = GroupScoreSummary(
                n_gt=len(refs), n_detected=0, mean=None, sd=None, median=None, min=None, max=None
            )
    return out
