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
import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    DIAGNOSES,
    LUNGRADS_CATEGORIES,
    TOLERANCE_CAP_MM,
    CandidateDetection,
    CandidateTable,
    ReferenceNodule,
    ReferenceTable,
    distance_mm,
    median,
    near_pairs,
    percentiles,
    sort_key,
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


class LesionMatchResult:
    """A matching of candidates to references, held by column.

    Scans are in id order (``scan_ids``); ``n_refs`` counts each scan's
    references. Candidates are in score order: scan by scan, best score
    first. Each one's ``scan`` is the index of its scan, ``score`` its score
    and ``nodule`` the index of the reference it matched, or -1 for a false
    positive. References are in (scan id, nodule id) order: each one's
    ``ref_scan`` is the index of its scan, ``nodule_id`` its id and
    ``matched`` the index of the candidate that matched it, or -1 for a
    false negative.

    ``scans`` is the same matching as one ``ScanMatch`` per scan, built only
    when asked, and ``==`` compares it. A result made from such a tuple (as
    ``LesionMatchResult(scans)``) takes each scan's true positives, then its
    false positives, as its candidates.
    """

    def __init__(self, scans: Sequence[ScanMatch]):
        scans = tuple(scans)
        candidates = [(j, t.score, t.candidate_id, t.nodule_id) for j, s in enumerate(scans)
                      for t in s.tp]
        candidates += [(j, score, cid, None) for j, s in enumerate(scans) for cid, score in s.fp]
        candidates.sort(key=lambda c: c[0])  # stable: true positives first within a scan
        position = {(j, nid): p for p, (j, _, _, nid) in enumerate(candidates) if nid is not None}
        refs = sorted((s.scan_id, nid, j) for j, s in enumerate(scans)
                      for nid in (*(t.nodule_id for t in s.tp), *s.fn))
        matched = [position.get((j, nid), -1) for _, nid, j in refs]
        nodule = np.full(len(candidates), -1, dtype=np.intp)
        nodule[[p for p in matched if p >= 0]] = [k for k, p in enumerate(matched) if p >= 0]
        self._set(
            tuple(s.scan_id for s in scans), [s.n_references for s in scans],
            [c[0] for c in candidates], [c[1] for c in candidates], nodule,
            ([c[2] for c in candidates], np.arange(len(candidates))), [j for _, _, j in refs],
            [nid for _, nid, _ in refs], matched,
        )
        self._scans = scans

    def _set(self, scan_ids, n_refs, scan, score, nodule, ids_at, ref_scan, nodule_id,
             matched, hits=None, ref_rows=None) -> "LesionMatchResult":
        self.scan_ids = scan_ids
        self.n_refs = np.asarray(n_refs, dtype=np.int64)
        self.scan = np.asarray(scan, dtype=np.intp)
        self.score = np.asarray(score, dtype=np.float64)
        self.nodule = nodule
        self._ids, self._rows = ids_at  # candidate k's id is ids[rows[k]]
        self.ref_scan = np.asarray(ref_scan, dtype=np.intp)
        self.nodule_id = nodule_id
        self.matched = np.asarray(matched, dtype=np.intp)
        self._hits = hits  # (candidate, reference) pairs that hit, in assignment order
        self.ref_rows = ref_rows  # each reference's row in the table it was matched from
        self._scans = None
        self._ranking = None
        return self

    @classmethod
    def _of_columns(cls, *columns, **named) -> "LesionMatchResult":
        return cls.__new__(cls)._set(*columns, **named)

    @property
    def candidate_id(self) -> list[str]:
        """Each candidate's id, in score order."""
        return [self._ids[i] for i in self._rows.tolist()]

    @property
    def scans(self) -> tuple[ScanMatch, ...]:
        if self._scans is None:
            n = len(self.scan_ids)
            ends = np.searchsorted(self.scan, np.arange(n + 1)).tolist()
            ref_ends = np.searchsorted(self.ref_scan, np.arange(n + 1)).tolist()
            cid, score, nodule = self.candidate_id, self.score.tolist(), self.nodule.tolist()
            nodule_id, matched = self.nodule_id, self.matched.tolist()
            self._scans = tuple(
                ScanMatch(
                    scan_id=scan_id,
                    n_references=n_refs,
                    tp=tuple(TruePositive(scan_id, nodule_id[nodule[p]], cid[p], score[p])
                             for p in range(ends[j], ends[j + 1]) if nodule[p] >= 0),
                    fn=tuple(nodule_id[k] for k in range(ref_ends[j], ref_ends[j + 1])
                             if matched[k] < 0),
                    fp=tuple((cid[p], score[p])
                             for p in range(ends[j], ends[j + 1]) if nodule[p] < 0),
                )
                for j, (scan_id, n_refs) in enumerate(zip(self.scan_ids, self.n_refs.tolist()))
            )
        return self._scans

    @property
    def ranking(self) -> "_Ranking":
        """The candidates best score first, as score thresholds read them."""
        if self._ranking is None:
            self._ranking = _Ranking.of(self)
        return self._ranking

    def __eq__(self, other):
        if isinstance(other, LesionMatchResult):
            return self.scans == other.scans
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"LesionMatchResult(scans={self.scans!r})"

    @property
    def n_scans(self) -> int:
        return len(self.scan_ids)

    @property
    def n_references(self) -> int:
        return int(self.n_refs.sum())

    @property
    def n_detected(self) -> int:
        return int(np.count_nonzero(self.nodule >= 0))

    @property
    def n_candidates(self) -> int:
        return len(self.score)

    def detected_scores(self) -> dict[tuple[str, str], float]:
        """Matched candidate score per detected reference, keyed (scan, nodule)."""
        scan_ids, score = self.scan_ids, self.score.tolist()
        return {(scan_ids[j], nid): score[p]
                for j, nid, p in zip(self.ref_scan.tolist(), self.nodule_id, self.matched.tolist())
                if p >= 0}

    def _within(self, keep: np.ndarray) -> "LesionMatchResult":
        """The matching of this result's candidates to the references ``keep``
        marks, on the scans of those references: the assignment rerun on the
        hit pairs of those references, which a matching by ``match_lesions``
        holds."""
        scans = np.flatnonzero(np.bincount(self.ref_scan[keep], minlength=self.n_scans))
        scan_code = np.full(self.n_scans, -1, dtype=np.intp)
        scan_code[scans] = np.arange(scans.size)
        on_scans = scan_code[self.scan] >= 0
        new_position = np.cumsum(on_scans) - 1
        new_ref = np.cumsum(keep) - 1
        hit_c, hit_r = self._hits
        kept_hits = keep[hit_r]
        hit_c, hit_r = new_position[hit_c[kept_hits]], new_ref[hit_r[kept_hits]]
        ref_scan = scan_code[self.ref_scan[keep]]
        nodule, matched = _assign(hit_c, hit_r, int(on_scans.sum()), ref_scan.size)
        return LesionMatchResult._of_columns(
            tuple(self.scan_ids[j] for j in scans.tolist()),
            np.bincount(ref_scan, minlength=scans.size), scan_code[self.scan[on_scans]],
            self.score[on_scans], nodule, (self._ids, self._rows[on_scans]), ref_scan,
            list(itertools.compress(self.nodule_id, keep.tolist())), matched,
            hits=(hit_c, hit_r),
            ref_rows=None if self.ref_rows is None else self.ref_rows[keep],
        )


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _score_order(table: CandidateTable, scans: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by scan in the order of ``scans``, each scan's rows by
    (score descending, candidate id, model); and the number of each scan's rows."""
    by_scan = table.by_scan
    groups = [by_scan.get(scan_id, _NO_ROWS) for scan_id in scans]
    counts = np.array(list(map(len, groups)), dtype=np.intp)
    rows = np.concatenate(groups) if groups else _NO_ROWS
    scan_rank = np.repeat(np.arange(len(groups)), counts)
    score = table.score[rows]
    order = np.argsort(sort_key(scan_rank, -score), kind="stable")  # ties keep file order for now
    rows, score, scan_rank = rows[order], score[order], scan_rank[order]
    # runs of equal scores within a scan go by (candidate id, model) instead
    tied = (score[1:] == score[:-1]) & (scan_rank[1:] == scan_rank[:-1])
    if tied.any():
        cid, model = table.candidate_id, table.model
        edges = np.flatnonzero(np.diff(np.concatenate(([0], tied.view(np.int8), [0])))).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            run = rows[start:stop + 1].tolist()
            rows[start:stop + 1] = sorted(run, key=lambda i: (cid[i], model[i]))
    return rows, counts


def _assign(hit_c: np.ndarray, hit_r: np.ndarray, n_candidates: int, n_references: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one assignment over hit pairs in assignment order (by
    candidate, then distance, then reference): each pair whose candidate and
    reference are both still free matches them. The reference of each
    candidate and the candidate of each reference, -1 for none."""
    taken: dict[int, int] = {}  # reference -> candidate
    last = -1  # the candidate matched last; its other pairs follow its first
    for c, r in zip(hit_c.tolist(), hit_r.tolist()):
        if c != last and r not in taken:
            taken[r] = c
            last = c
    nodule = np.full(n_candidates, -1, dtype=np.intp)
    matched = np.full(n_references, -1, dtype=np.intp)
    if taken:
        refs, cands = list(taken), list(taken.values())
        nodule[cands] = refs
        matched[refs] = cands
    return nodule, matched


def match_lesions(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    scan_ids: Iterable[str] | None = None,
) -> LesionMatchResult:
    """One-to-one greedy matching of candidates to reference nodules.

    ``candidates`` is a ``CandidateTable`` or an iterable of records, and
    ``references`` a ``ReferenceTable`` or an iterable of records.
    ``scan_ids`` fixes the scan universe; by default it is the union of scan
    ids seen in either input, so reference-free scans still contribute their
    false positives.

    Within a scan, candidates go best score first (ties by candidate id, then
    model); each takes the nearest (then lowest nodule id) still-unmatched
    reference it hits. The candidate-reference pairs that may hit come from
    the same windowed search as fusion pairing (``near_pairs``, within the
    largest tolerance) and each is confirmed with the scalar distance against
    the reference's own tolerance; a candidate with no such pair is a false
    positive. The result keeps the pairs that hit, so a stratum's matching
    reruns only the assignment.
    """
    table = CandidateTable.of(candidates)
    refs = ReferenceTable.of(references).require_unique_keys()

    by_scan_c = table.by_scan
    seen = set(by_scan_c) | set(refs.scan_id)
    universe = set(scan_ids) if scan_ids is not None else seen
    stray = seen - universe
    if stray:
        raise InputError(f"records reference scans outside the scan set: {sorted(stray)}")
    scans = sorted(universe)
    rows, counts = _score_order(table, scans)
    scan = np.repeat(np.arange(len(scans)), counts)

    # references in (scan, nodule id) order
    code = {scan_id: j for j, scan_id in enumerate(scans)}
    ref_order = sorted(zip(map(code.__getitem__, refs.scan_id), refs.nodule_id, range(len(refs))))
    ref_scan = np.array([j for j, _, _ in ref_order], dtype=np.intp)
    ref_rows = np.array([i for _, _, i in ref_order], dtype=np.intp)

    # pairs on a scan within the tolerance cap, which no reference's tolerance exceeds
    xyz = table.xyz[rows]
    ref_xyz = refs.xyz[ref_rows]
    tolerance = refs.tolerance[ref_rows]
    pair_c, pair_r = near_pairs(scan, xyz, ref_scan, ref_xyz, TOLERANCE_CAP_MM)
    dist = np.array([distance_mm(x, y, z, *r) for (x, y, z), r in
                     zip(xyz[pair_c].tolist(), ref_xyz[pair_r].tolist())], dtype=np.float64)
    hit = dist <= tolerance[pair_r]
    # assignment order: by candidate, then distance, then reference (nodule id)
    order = np.lexsort((pair_r[hit], dist[hit], pair_c[hit]))
    hit_c, hit_r = pair_c[hit][order], pair_r[hit][order]
    nodule, matched = _assign(hit_c, hit_r, rows.size, ref_scan.size)
    return LesionMatchResult._of_columns(
        tuple(scans), np.bincount(ref_scan, minlength=len(scans)), scan, table.score[rows],
        nodule, (table.candidate_id, rows), ref_scan, [nodule_id for _, nodule_id, _ in ref_order],
        matched, hits=(hit_c, hit_r), ref_rows=ref_rows,
    )


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


class _Ranking:
    """The candidates of a matching best score first, as a score threshold
    reads them: the false positives' scans and scores (``fp_scan``,
    ``fp_score``) and the true positives' (``tp_scan``, ``tp_score``). The
    lowest threshold that keeps the first p false positives but not false
    positive p leaves out p's whole score level, so it keeps the
    ``tp_above[p]`` true positives that score above p; ``tp_above[-1]``,
    when every false positive fits, counts them all.
    """

    def __init__(self, fp_scan, fp_score, tp_scan, tp_score, tp_above):
        self.fp_scan, self.fp_score, self.tp_above = fp_scan, fp_score, tp_above
        self.tp_scan, self.tp_score = tp_scan, tp_score

    @classmethod
    def of(cls, result: LesionMatchResult) -> "_Ranking":
        order = np.argsort(-result.score, kind="stable")
        tp = result.nodule[order] >= 0
        scan, score = result.scan[order], result.score[order]
        tp_score, fp_score = score[tp], score[~tp]
        tp_above = np.append(np.searchsorted(-tp_score, -fp_score, side="left"), tp_score.size)
        return cls(scan[~tp], fp_score, scan[tp], tp_score, tp_above)

    def kept(self, threshold: float) -> "_Ranking":
        """The ranking of the candidates that score at least ``threshold``."""
        n_fp = int(np.searchsorted(-self.fp_score, -threshold, side="right"))
        n_tp = int(np.searchsorted(-self.tp_score, -threshold, side="right"))
        return _Ranking(self.fp_scan[:n_fp], self.fp_score[:n_fp], self.tp_scan[:n_tp],
                        self.tp_score[:n_tp], np.append(self.tp_above[:n_fp], n_tp))

    def weighted_counts(self, weight: np.ndarray, prefix: int, need: float
                        ) -> tuple[np.ndarray, np.ndarray]:
        """With each scan's positives counted ``weight`` times: the count of
        the first p + 1 false positives for each p, read from the first
        ``prefix`` on (an eighth of that more at a time) until it passes
        ``need``; and of the first k true positives for each k."""
        fp_scan = self.fp_scan
        fp_counts = np.cumsum(weight[fp_scan[:prefix]])
        while fp_counts.size < fp_scan.size and fp_counts[-1] <= need:
            more = np.cumsum(weight[fp_scan[fp_counts.size:fp_counts.size + prefix // 8 + 1]])
            fp_counts = np.concatenate((fp_counts, more + fp_counts[-1]))
        tp_counts = np.zeros(self.tp_scan.size + 1, dtype=np.int64)
        np.cumsum(weight[self.tp_scan], out=tp_counts[1:])
        return fp_counts, tp_counts

    def sensitivities(self, allowed: np.ndarray, n_lesions: int, fp_counts=None, tp_counts=None
                      ) -> list[float]:
        """Sensitivity at each budget of ``allowed`` false positives: that of
        the lowest threshold whose false positives fit, or 0 when none does.
        The counts are those of ``weighted_counts``, by default of unit
        weights; they must pass every budget, or count every false positive."""
        if fp_counts is None:
            fp_counts = np.arange(1, self.fp_scan.size + 1)
            tp_counts = np.arange(self.tp_scan.size + 1)
        over = np.searchsorted(fp_counts, allowed, side="right")  # the first that does not fit
        tp = np.where(allowed >= 0, tp_counts[self.tp_above[over]], 0)  # < 0 or NaN fits none
        return (tp / n_lesions).tolist()


def _mean_sensitivity(sensitivities: Sequence[float]) -> float:
    return float(sum(sensitivities) / len(sensitivities))


def froc_curve(result: LesionMatchResult, rates: Sequence[float] = FP_RATES) -> FrocCurve:
    """Sensitivity at each target false-positive rate per scan."""
    if result.n_scans < 1:
        raise InputError("FROC evaluation needs at least one scan")
    if result.n_references < 1:
        raise InputError("FROC evaluation needs at least one reference lesion")
    allowed = np.asarray(rates, dtype=np.float64) * result.n_scans
    sens = result.ranking.sensitivities(allowed, result.n_references)
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
    scan's true and false positives in the matching's ranking. Its false
    positives are counted only until they pass the largest budget: the
    first ones an unweighted count needs, and more while the weighted count
    falls short.
    """
    if resamples < 1:
        raise InputError("bootstrap needs at least one resample")
    if seed < 0:
        raise InputError(f"bootstrap seed must be non-negative, got {seed}")
    if result.n_scans < 1:
        raise InputError("bootstrap needs at least one scan")
    n = result.n_scans
    n_refs = result.n_refs
    ranking = result.ranking
    allowed = np.asarray(rates, dtype=np.float64) * n
    need = allowed[allowed >= 0].max(initial=0.0)
    n_fp = ranking.fp_scan.size
    prefix = n_fp if need >= n_fp else int(need) + 1  # as many as unit weights need

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
        sens = ranking.sensitivities(allowed, n_lesions, *ranking.weighted_counts(w, prefix, need))
        for name, rate in statistics.items():
            if rate is None:
                values[name].append(_mean_sensitivity(sens))
            else:
                values[name].append(sens[_rate_index(rates, rate)])
    out = {}
    for name, vals in values.items():
        if not vals:
            raise InputError("every bootstrap resample had zero reference lesions")
        lo, hi = percentiles(vals, (2.5, 97.5))
        out[name] = BootstrapCI(lo=lo, hi=hi, resamples_used=len(vals), resamples_skipped=skipped)
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
    return _summary(result, ci, resamples, seed, rates)


def _summary(result: LesionMatchResult, ci: bool, resamples: int, seed: int,
             rates: Sequence[float]) -> FrocResult:
    """The curve and metrics of a matching; with bootstrap CIs if ``ci``."""
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

_Stratifier = tuple[Callable[[ReferenceTable], list[str]], tuple[str, ...]]


def _by_size(spec: SizeBinSpec) -> _Stratifier:
    return (lambda refs: list(map(spec.bin_for, refs.diameter_mm.tolist()))), spec.names


# each stratifier: the stratum of each reference of a table, and every stratum in report order
_STRATIFIERS: dict[str, _Stratifier] = {
    "size:dlcs": _by_size(DLCS_SIZE_BINS),
    "size:imd": _by_size(IMD_SIZE_BINS),
    "lungrads": (lambda refs: ["unknown" if v is None else v for v in refs.lungrads],
                 LUNGRADS_CATEGORIES + ("unknown",)),
    "diagnosis": (lambda refs: refs.diagnosis, DIAGNOSES),
    "consensus": (lambda refs: list(map(consensus_category, refs.reviewers, refs.positive_votes)),
                  CONSENSUS_PATTERNS),
}
STRATIFIERS = tuple(_STRATIFIERS)


def _strata(references: ReferenceTable, stratify: str | SizeBinSpec
            ) -> tuple[list[str], tuple[str, ...]]:
    """The stratum of each reference, by a name in ``STRATIFIERS`` or a
    ``SizeBinSpec``, and all its strata in report order."""
    if isinstance(stratify, SizeBinSpec):
        stratum_of, order = _by_size(stratify)
    elif isinstance(stratify, str) and stratify in _STRATIFIERS:
        stratum_of, order = _STRATIFIERS[stratify]
    else:
        raise InputError(f"unknown stratifier {stratify!r}; choose from {STRATIFIERS}")
    return stratum_of(references), order


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
    denominators; there a candidate may match a reference that another one
    took overall, and one that hits only out-of-stratum references is a false
    positive. Every stratum reuses the hit pairs of the overall matching and
    reruns only the assignment. Empty strata are omitted with a warning.
    """
    references = ReferenceTable.of(references)
    labels, order = _strata(references, stratify)
    overall = evaluate(candidates, references, ci=ci, resamples=resamples, seed=seed, rates=rates)
    present = set(labels)
    warnings = [f"stratum {n!r} is empty and was omitted"
                for n in order if n not in present and n != "unknown"]

    result = overall.matches
    ref_labels = np.array(labels, dtype=object)[result.ref_rows]
    strata = {name: _summary(result._within(ref_labels == name), ci, resamples, seed, rates)
              for name in order if name in present}
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
    references = ReferenceTable.of(references)
    labels, _ = _strata(references, group_by)
    if isinstance(result, LesionMatchResult):
        detected = result.detected_scores()
    else:
        detected = {k: v for k, v in dict(result).items() if v is not None}
    n_gt: dict[str, int] = {}
    detected_in: dict[str, list[float]] = {}
    for name, key in zip(labels, references.keys):
        n_gt[name] = n_gt.get(name, 0) + 1
        scores = detected_in.setdefault(name, [])
        if key in detected:
            scores.append(detected[key])
    out: dict[str, GroupScoreSummary] = {}
    for name in sorted(n_gt):
        scores = detected_in[name]
        if scores:
            arr = np.array(scores, dtype=np.float64)
            out[name] = GroupScoreSummary(
                n_gt=n_gt[name],
                n_detected=len(scores),
                mean=float(arr.mean()),
                sd=float(arr.std(ddof=1)) if arr.size >= 2 else None,
                median=median(scores),
                min=float(arr.min()),
                max=float(arr.max()),
            )
        else:
            out[name] = GroupScoreSummary(
                n_gt=n_gt[name], n_detected=0, mean=None, sd=None, median=None, min=None, max=None
            )
    return out
