"""Reader-consensus categorization and detected-vs-missed statistics.

Effect sizes follow the pooled-standard-deviation formulation with n-1
sample variances. Rank tests use midranks; the two-sided p-value is exact
(full enumeration of group assignments) for tie-free samples with combined
size up to 12, otherwise a normal approximation with tie and continuity
corrections. Band boundaries for the effect-size label are lower-inclusive.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .domain import ReferenceNodule, ReferenceTable, SemanticRatings  # noqa: F401  (re-export)
from .domain import median
from .errors import InputError

CONSENSUS_PATTERNS = (
    "R1_1of1",
    "R2_2of2",
    "R2_1of2",
    "R3_3of3",
    "R3_2of3",
    "NoVotes",
    "Other",
)

CONSENSUS_LABELS = {
    "R1_1of1": "1R (1/1)",
    "R2_2of2": "2R (2/2) Consensus",
    "R2_1of2": "2R (1/2) Disagree",
    "R3_3of3": "3R (3/3) Consensus",
    "R3_2of3": "3R (2/3) 1 dissent",
    "NoVotes": "No votes",
    "Other": "Other",
}

EXACT_TEST_MAX_N = 12

DEFAULT_CHARACTERISTICS = (
    "diameter_rad_mm",
    "texture",
    "malignancy",
    "subtlety",
    "spiculation",
    "lobulation",
    "margin",
    "sphericity",
)

CHARACTERISTIC_DISPLAY = {
    "diameter_rad_mm": "DiamEq_Rad",
    "texture": "Texture",
    "malignancy": "Malignancy",
    "subtlety": "Subtlety",
    "spiculation": "Spiculation",
    "lobulation": "Lobulation",
    "margin": "Margin",
    "sphericity": "Sphericity",
    "internal_structure": "InternalStructure",
    "calcification": "Calcification",
}


def consensus_category(reviewers: int | None, positive_votes: int | None) -> str:
    """Canonical reader vote pattern for one nodule; vote counts that
    ``ReferenceNodule`` rejects raise ``InputError``."""
    if positive_votes is None:
        return "NoVotes"
    if reviewers is None or reviewers < 1 or not 0 <= positive_votes <= reviewers:
        raise InputError(f"invalid vote counts: {positive_votes}/{reviewers}")
    table = {
        (1, 1): "R1_1of1",
        (2, 2): "R2_2of2",
        (2, 1): "R2_1of2",
        (3, 3): "R3_3of3",
        (3, 2): "R3_2of3",
    }
    return table.get((reviewers, positive_votes), "Other")


def effect_size_label(d: float) -> str:
    """Label for |d|: <0.2 negligible, [0.2,0.5) small, [0.5,0.8) medium, >=0.8 large."""
    if not math.isfinite(d):
        raise InputError(f"effect size must be finite, got {d!r}")
    magnitude = abs(d)
    if magnitude < 0.2:
        return "negligible"
    if magnitude < 0.5:
        return "small"
    if magnitude < 0.8:
        return "medium"
    return "large"


@dataclass(frozen=True)
class EffectSizeResult:
    d: float | None
    s_pooled: float
    n1: int
    n2: int
    mean1: float
    mean2: float
    s1: float
    s2: float
    label: str
    infinite: bool = False


def cohens_d(detected_sample: Sequence[float], missed_sample: Sequence[float]) -> EffectSizeResult:
    """Standardized mean difference (detected minus missed) with pooled SD.

    A zero pooled SD with unequal means is flagged as an infinite effect
    rather than reported as a number; with equal means the effect is zero.
    """
    x = [float(v) for v in detected_sample]
    y = [float(v) for v in missed_sample]
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise InputError(f"cohens_d needs at least two values per sample, got {n1} and {n2}")
    mean1 = sum(x) / n1
    mean2 = sum(y) / n2
    var1 = sum((v - mean1) ** 2 for v in x) / (n1 - 1)
    var2 = sum((v - mean2) ** 2 for v in y) / (n2 - 1)
    s_pooled = math.sqrt(((n1 - 1) * var1 + (n2 - 1) * var2) / (n1 + n2 - 2))
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    if s_pooled == 0.0:
        if mean1 == mean2:
            return EffectSizeResult(
                d=0.0, s_pooled=0.0, n1=n1, n2=n2, mean1=mean1, mean2=mean2,
                s1=s1, s2=s2, label="negligible",
            )
        return EffectSizeResult(
            d=None, s_pooled=0.0, n1=n1, n2=n2, mean1=mean1, mean2=mean2,
            s1=s1, s2=s2, label="large", infinite=True,
        )
    d = (mean1 - mean2) / s_pooled
    return EffectSizeResult(
        d=d, s_pooled=s_pooled, n1=n1, n2=n2, mean1=mean1, mean2=mean2,
        s1=s1, s2=s2, label=effect_size_label(d),
    )


@dataclass(frozen=True)
class RankTestResult:
    u_statistic: float
    p_value: float
    method: str
    n1: int
    n2: int


def _ranks(values: Sequence[float]) -> tuple[np.ndarray, int]:
    """Midranks of ``values`` and the tie term: the sum of ``t**3 - t`` over
    the runs of ``t`` equal values, from one sort. Midranks are half-integers,
    so sums of them are exact."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, len(v)))
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)  # 1-based midrank of each run
    return ranks, int((counts ** 3 - counts).sum())


def _exact_two_sided_p(n1: int, n2: int, ranks: Sequence[float], u: float) -> float:
    """Enumerate all group assignments of the combined sample (tie-free only,
    so its ``ranks`` are integers).

    Compares doubled deviations from the null mean so the test is exact in
    integer arithmetic.
    """
    int_ranks = [int(r) for r in ranks]
    observed_dev = abs(int(round(2 * u)) - n1 * n2)
    base = n1 * (n1 + 1)
    extreme = 0
    total = 0
    for chosen in combinations(range(n1 + n2), n1):
        r1_doubled = 2 * sum(int_ranks[i] for i in chosen)
        u_doubled = r1_doubled - base
        if abs(u_doubled - n1 * n2) >= observed_dev:
            extreme += 1
        total += 1
    return extreme / total


def _normal_approx_p(n1: int, n2: int, tie_term: int, u: float) -> float:
    """Two-sided normal approximation with tie and continuity corrections."""
    n = n1 + n2
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return 1.0
    mu = n1 * n2 / 2.0
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(variance)
    p = math.erfc(z / math.sqrt(2.0))
    return min(max(p, 0.0), 1.0)


def mann_whitney_u(x: Sequence[float], y: Sequence[float], method: str = "auto") -> RankTestResult:
    """Two-sided rank-sum test; U is reported for the first sample.

    ``method``: "auto" picks the exact enumeration for tie-free samples with
    n1+n2 <= 12 and the normal approximation otherwise; "exact" and "normal"
    force each path (exact refuses ties). The pooled sample is sorted once.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if not x or not y:
        raise InputError("mann_whitney_u needs at least one value per sample")
    if method not in ("auto", "exact", "normal"):
        raise InputError(f"unknown method {method!r}")
    n1, n2 = len(x), len(y)
    ranks, tie_term = _ranks(x + y)
    u = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    has_ties = tie_term > 0
    use_exact = (
        method == "exact"
        or (method == "auto" and n1 + n2 <= EXACT_TEST_MAX_N and not has_ties)
    )
    if use_exact:
        if has_ties:
            raise InputError("exact rank test is unavailable for tied samples")
        p = _exact_two_sided_p(n1, n2, ranks.tolist(), u)
        return RankTestResult(u_statistic=u, p_value=p, method="exact", n1=n1, n2=n2)
    p = _normal_approx_p(n1, n2, tie_term, u)
    return RankTestResult(u_statistic=u, p_value=p, method="normal_approx", n1=n1, n2=n2)


@dataclass(frozen=True)
class CharacteristicComparison:
    characteristic: str
    n_detected: int
    n_missed: int
    mean_detected: float
    mean_missed: float
    mean_diff: float
    p_value: float
    test_method: str
    d: float | None
    d_infinite: bool
    label: str
    significant_after_bonferroni: bool


@dataclass(frozen=True)
class SemanticTable:
    rows: tuple[CharacteristicComparison, ...]
    k_tests: int
    alpha: float
    alpha_star: float
    diagnostics: tuple[str, ...]


def _build_rows(
    samples: dict[str, tuple[list[float], list[float]]],
    characteristics: Sequence[str],
    alpha: float,
) -> tuple[list[CharacteristicComparison], list[str]]:
    candidates: list[tuple[str, list[float], list[float]]] = []
    diagnostics: list[str] = []
    for name in characteristics:
        det, mis = samples[name]
        if not det and not mis:
            diagnostics.append(f"characteristic {name!r} absent on all references; omitted")
            continue
        if len(det) < 2 or len(mis) < 2:
            diagnostics.append(
                f"characteristic {name!r} needs two detected and two missed values, "
                f"got {len(det)} and {len(mis)}; omitted"
            )
            continue
        candidates.append((name, det, mis))

    k = len(candidates)
    rows: list[CharacteristicComparison] = []
    for name, det, mis in candidates:
        effect = cohens_d(det, mis)
        test = mann_whitney_u(det, mis)
        rows.append(
            CharacteristicComparison(
                characteristic=name,
                n_detected=len(det),
                n_missed=len(mis),
                mean_detected=effect.mean1,
                mean_missed=effect.mean2,
                mean_diff=effect.mean1 - effect.mean2,
                p_value=test.p_value,
                test_method=test.method,
                d=effect.d,
                d_infinite=effect.infinite,
                label=effect.label,
                significant_after_bonferroni=(k > 0 and test.p_value < alpha / k),
            )
        )
    return rows, diagnostics


def detected_vs_missed_table(
    detected_by_model: Mapping[str, Collection[tuple[str, str]]],
    references: Iterable[ReferenceNodule],
    pooled: bool = True,
    characteristics: Sequence[str] = DEFAULT_CHARACTERISTICS,
    alpha: float = 0.05,
):
    """Compare semantic characteristics of detected vs missed nodules.

    ``detected_by_model`` maps each model to the (scan_id, nodule_id) keys it
    detected; every model is assumed evaluated on all given references.
    Pooled mode concatenates lesion-model pairs across models and returns one
    SemanticTable; per-model mode returns a mapping of model to table with
    rows ranked by |d| descending. The Bonferroni threshold divides alpha by
    the number of rows actually tested.
    """
    references = ReferenceTable.of(references)
    keys = references.keys
    values: dict[str, np.ndarray] = {}  # each characteristic as float64, NaN where absent

    def samples_for(models: Sequence[str]) -> dict[str, tuple[list[float], list[float]]]:
        out = {name: ([], []) for name in characteristics}
        for model in models:
            detected = set(detected_by_model[model])
            hit = np.fromiter((key in detected for key in keys), dtype=bool, count=len(keys))
            for name in characteristics:
                if name not in values:
                    values[name] = np.array([math.nan if v is None else v
                                             for v in references.rating(name)], dtype=np.float64)
                given = ~np.isnan(values[name])
                out[name][0].extend(values[name][given & hit].tolist())
                out[name][1].extend(values[name][given & ~hit].tolist())
        return out

    def table(models: Sequence[str], ranked: bool) -> SemanticTable:
        rows, diagnostics = _build_rows(samples_for(models), characteristics, alpha)
        if ranked:
            rows.sort(key=lambda r: -(math.inf if r.d_infinite else abs(r.d)))
        k = len(rows)
        return SemanticTable(rows=tuple(rows), k_tests=k, alpha=alpha,
                             alpha_star=alpha / k if k else math.nan,
                             diagnostics=tuple(diagnostics))

    if pooled:
        return table(sorted(detected_by_model), ranked=False)
    return {model: table([model], ranked=True) for model in sorted(detected_by_model)}


@dataclass(frozen=True)
class OverlapRow:
    category: str
    count: int
    pct: float | None
    mean_diameter: float | None
    median_diameter: float | None
    min_diameter: float | None
    max_diameter: float | None


def missed_overlap_table(
    missed_by_model: Mapping[str, Collection[tuple[str, str]]],
    references: Iterable[ReferenceNodule],
) -> list[OverlapRow]:
    """Overlap structure of per-model miss sets with diameter summaries.

    Emits one row for nodules missed by every model (percentage of the union
    of all misses) and one uniquely-missed row per model (percentage of that
    model's misses).
    """
    if len(missed_by_model) < 2:
        raise InputError("overlap analysis needs at least two models")
    references = ReferenceTable.of(references)
    diameters = dict(zip(references.keys, references.diameter_mm.tolist()))
    miss_sets = {model: set(keys) for model, keys in missed_by_model.items()}
    for model, keys in miss_sets.items():
        unknown = keys - set(diameters)
        if unknown:
            raise InputError(f"model {model!r} misses reference keys not in the reference set")

    def summarize(category: str, keys: set, denominator: int) -> OverlapRow:
        values = sorted(diameters[k] for k in keys)
        if values:
            arr = np.array(values, dtype=np.float64)
            stats = (float(arr.mean()), median(values), float(arr.min()), float(arr.max()))
        else:
            stats = (None, None, None, None)
        pct = 100.0 * len(keys) / denominator if denominator else None
        return OverlapRow(category, len(keys), pct, *stats)

    union = set().union(*miss_sets.values())
    missed_by_all = set.intersection(*miss_sets.values())
    rows = [summarize("missed_by_all", missed_by_all, len(union))]
    for model in sorted(miss_sets):
        unique = miss_sets[model] - set().union(
            *(s for m, s in miss_sets.items() if m != model)
        )
        rows.append(summarize(f"only_{model}", unique, len(miss_sets[model])))
    return rows
