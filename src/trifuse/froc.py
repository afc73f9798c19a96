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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import CandidateDetection, LUNGRADS_CATEGORIES, ReferenceNodule, is_hit
from .errors import InputError

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


def match_lesions(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    scan_ids: Iterable[str] | None = None,
) -> LesionMatchResult:
    """One-to-one greedy matching of candidates to reference nodules.

    ``scan_ids`` fixes the scan universe; by default it is the union of scan
    ids seen in either input, so reference-free scans still contribute their
    false positives.
    """
    by_scan_c: dict[str, list[CandidateDetection]] = {}
    seen_candidates: set[tuple[str, str, str]] = set()
    for c in candidates:
        if c.key in seen_candidates:
            raise InputError(
                f"duplicate candidate {c.candidate_id!r} for model {c.source_model!r} "
                f"on scan {c.scan_id!r}"
            )
        seen_candidates.add(c.key)
        by_scan_c.setdefault(c.scan_id, []).append(c)

    by_scan_r: dict[str, list[ReferenceNodule]] = {}
    seen_refs: set[tuple[str, str]] = set()
    for r in references:
        if r.key in seen_refs:
            raise InputError(f"duplicate nodule_id {r.nodule_id!r} on scan {r.scan_id!r}")
        seen_refs.add(r.key)
        by_scan_r.setdefault(r.scan_id, []).append(r)

    universe = set(scan_ids) if scan_ids is not None else set(by_scan_c) | set(by_scan_r)
    stray = (set(by_scan_c) | set(by_scan_r)) - universe
    if stray:
        raise InputError(f"records reference scans outside the scan set: {sorted(stray)}")

    scans: list[ScanMatch] = []
    for scan_id in sorted(universe):
        cands = sorted(
            by_scan_c.get(scan_id, []), key=lambda c: (-c.score, c.candidate_id, c.source_model)
        )
        refs = by_scan_r.get(scan_id, [])
        unmatched = {r.nodule_id: r for r in refs}
        tps: list[TruePositive] = []
        fps: list[tuple[str, float]] = []
        for cand in cands:
            best: tuple[float, str] | None = None
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
class SizeBin:
    """Half-open diameter interval [lo, hi) in millimeters."""

    name: str
    lo: float
    hi: float

    def contains(self, diameter_mm: float) -> bool:
        return self.lo <= diameter_mm < self.hi


@dataclass(frozen=True)
class SizeBinSpec:
    bins: tuple[SizeBin, ...]

    def __post_init__(self):
        ordered = sorted(self.bins, key=lambda b: b.lo)
        if not ordered:
            raise InputError("size bin spec needs at least one bin")
        if ordered[0].lo != 0.0 or not math.isinf(ordered[-1].hi):
            raise InputError("size bins must cover (0, inf)")
        for left, right in zip(ordered, ordered[1:]):
            if left.hi != right.lo:
                raise InputError(
                    f"size bins must be contiguous; {left.name!r} ends at {left.hi}, "
                    f"{right.name!r} starts at {right.lo}"
                )
        object.__setattr__(self, "bins", tuple(ordered))

    def bin_for(self, diameter_mm: float) -> str:
        for b in self.bins:
            if b.contains(diameter_mm):
                return b.name
        raise InputError(f"diameter {diameter_mm} fits no size bin")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bins)


DLCS_SIZE_BINS = SizeBinSpec(
    bins=(
        SizeBin("<6", 0.0, 6.0),
        SizeBin("6-10", 6.0, 10.0),
        SizeBin(">=10", 10.0, math.inf),
    )
)
IMD_SIZE_BINS = SizeBinSpec(
    bins=(
        SizeBin("<10", 0.0, 10.0),
        SizeBin("10-20", 10.0, 20.0),
        SizeBin(">=20", 20.0, math.inf),
    )
)

STRATIFIERS = ("size:dlcs", "size:imd", "lungrads", "diagnosis", "consensus")


def _stratum_of(ref: ReferenceNodule, stratify) -> str:
    if isinstance(stratify, SizeBinSpec):
        return stratify.bin_for(ref.diameter_mm)
    if stratify == "lungrads":
        return ref.lungrads if ref.lungrads is not None else "unknown"
    if stratify == "diagnosis":
        return ref.diagnosis
    if stratify == "consensus":
        from .readerstats import consensus_category

        return consensus_category(ref.reviewers, ref.positive_votes)
    raise InputError(f"unknown stratifier {stratify!r}")


def _stratum_order(stratify) -> tuple[str, ...] | None:
    if isinstance(stratify, SizeBinSpec):
        return stratify.names
    if stratify == "lungrads":
        return LUNGRADS_CATEGORIES + ("unknown",)
    if stratify == "diagnosis":
        return ("benign", "cancer", "unknown")
    if stratify == "consensus":
        from .readerstats import CONSENSUS_PATTERNS

        return CONSENSUS_PATTERNS
    return None


def resolve_stratifier(name: str):
    if name == "size:dlcs":
        return DLCS_SIZE_BINS
    if name == "size:imd":
        return IMD_SIZE_BINS
    if name in ("lungrads", "diagnosis", "consensus"):
        return name
    raise InputError(f"unknown stratifier {name!r}; choose from {STRATIFIERS}")


@dataclass(frozen=True)
class StratifiedResult:
    overall: FrocResult
    strata: dict[str, FrocResult]
    warnings: tuple[str, ...]


def stratified_eval(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    stratify,
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
    if isinstance(stratify, str) and stratify.startswith("size"):
        stratify = resolve_stratifier(stratify)
    candidates = list(candidates)
    references = list(references)
    overall = evaluate(candidates, references, ci=ci, resamples=resamples, seed=seed, rates=rates)

    by_stratum: dict[str, list[ReferenceNodule]] = {}
    for ref in references:
        by_stratum.setdefault(_stratum_of(ref, stratify), []).append(ref)

    order = _stratum_order(stratify)
    names = [n for n in order if n in by_stratum] if order else sorted(by_stratum)
    warnings = []
    if order:
        for name in order:
            if name not in by_stratum and name != "unknown":
                warnings.append(f"stratum {name!r} is empty and was omitted")

    strata: dict[str, FrocResult] = {}
    for name in names:
        refs = by_stratum[name]
        scan_set = {r.scan_id for r in refs}
        cands = [c for c in candidates if c.scan_id in scan_set]
        strata[name] = evaluate(
            cands, refs, ci=ci, resamples=resamples, seed=seed, rates=rates, scan_ids=scan_set
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
    group_by,
) -> dict[str, GroupScoreSummary]:
    """Matched-candidate score statistics per reference group.

    ``result`` is a LesionMatchResult or a ready mapping of
    (scan_id, nodule_id) to the matched score. Undetected references count in
    n_gt but contribute no score. The spread uses the n-1 denominator and is
    absent for groups with fewer than two detections.
    """
    if isinstance(result, LesionMatchResult):
        detected = result.detected_scores()
    else:
        detected = {k: v for k, v in dict(result).items() if v is not None}
    groups: dict[str, list[ReferenceNodule]] = {}
    for ref in references:
        groups.setdefault(_stratum_of(ref, group_by), []).append(ref)
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
