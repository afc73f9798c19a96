"""Operating-threshold sweeps: classification trade-off rows and FROC rows.

Flagging is inclusive: a candidate is kept when its score >= threshold.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .domain import CandidateDetection, ReferenceNodule, require_unit_interval
from .errors import InputError
from .froc import FP_RATES, _mean_sensitivity, _score_grid, _sensitivities_on_grid, match_lesions

CANCER = "cancer"
NO_CANCER = "no-cancer"

CADX_PRESET_THRESHOLDS = (0.02, 0.03, 0.04, 0.08, 0.10)
CADE_PRESET_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))


@dataclass(frozen=True)
class CadxSweepRow:
    threshold: float
    recall: float
    precision: float | None
    fpr: float | None
    flagged_pct: float
    fn: int
    fp: int
    tp: int

    @property
    def missed(self) -> int:
        return self.fn


@dataclass(frozen=True)
class CadeSweepRow:
    threshold: float
    cpm: float
    candidates_forwarded: int
    missed: int


def _clean_thresholds(thresholds: Sequence[float]) -> list[float]:
    cleaned = sorted({require_unit_interval("threshold", t) for t in thresholds})
    if not cleaned:
        raise InputError("threshold list is empty")
    return cleaned


def sweep_cadx(
    scores: Sequence[float], labels: Sequence[str], thresholds: Sequence[float]
) -> list[CadxSweepRow]:
    """Confusion-matrix trade-off per threshold over labeled candidate scores."""
    if len(scores) != len(labels):
        raise InputError("scores and labels must have equal length")
    if not scores:
        raise InputError("no scored candidates to sweep")
    for label in labels:
        if label not in (CANCER, NO_CANCER):
            raise InputError(f"label must be '{CANCER}' or '{NO_CANCER}', got {label!r}")
    values = np.array([require_unit_interval("score", s) for s in scores], dtype=np.float64)
    positive = np.array([label == CANCER for label in labels], dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    total = len(scores)
    if n_pos == 0:
        raise InputError("no cancer-labeled candidates: recall is undefined")

    rows = []
    for threshold in _clean_thresholds(thresholds):
        flagged = values >= threshold
        tp = int((flagged & positive).sum())
        fp = int((flagged & ~positive).sum())
        fn = n_pos - tp
        rows.append(
            CadxSweepRow(
                threshold=threshold,
                recall=tp / n_pos,
                precision=tp / (tp + fp) if (tp + fp) > 0 else None,
                fpr=fp / n_neg if n_neg > 0 else None,
                flagged_pct=100.0 * (tp + fp) / total,
                fn=fn,
                fp=fp,
                tp=tp,
            )
        )
    return rows


def sweep_cade(
    candidates: Iterable[CandidateDetection],
    references: Iterable[ReferenceNodule],
    thresholds: Sequence[float],
    rates: Sequence[float] = FP_RATES,
    scan_ids: Iterable[str] | None = None,
) -> list[CadeSweepRow]:
    """FROC trade-off per detector-score threshold.

    Greedy matching of a score-filtered list equals the corresponding prefix
    of the full matching, so one matching pass serves every threshold. The
    scan universe stays fixed across rows.
    """
    candidates = list(candidates)
    references = list(references)
    if scan_ids is None:
        scan_ids = {c.scan_id for c in candidates} | {r.scan_id for r in references}
    scan_ids = set(scan_ids)
    result = match_lesions(candidates, references, scan_ids=scan_ids)
    if result.n_references < 1:
        raise InputError("FROC sweep needs at least one reference lesion")
    grid, tp_rank, fp_rank = _score_grid(result)
    n_refs = result.n_references

    rows = []
    for threshold in _clean_thresholds(thresholds):
        # the candidates kept at this threshold are the grid ranks at or above its cut
        cut = np.searchsorted(grid, threshold, side="left")
        tp_kept = tp_rank >= cut
        fp_kept = fp_rank >= cut
        sens = _sensitivities_on_grid(
            grid.size, tp_rank, fp_rank, result.n_scans, n_refs, rates, tp_kept, fp_kept
        )
        n_tp = int(tp_kept.sum())
        rows.append(
            CadeSweepRow(
                threshold=threshold,
                cpm=_mean_sensitivity(sens),
                candidates_forwarded=n_tp + int(fp_kept.sum()),
                missed=n_refs - n_tp,
            )
        )
    return rows
