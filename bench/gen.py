"""Seeded synthetic cohort generator for the benchmark workloads.

``generate(workload, seed, scale, directory)`` writes every input file one
workload needs and returns a description of them. The same (workload, seed,
scale) always gives byte-identical files. The generator never imports
trifuse: the program under test sees only the files.

Work per cohort is held steady across seeds. Per-scan candidate and lesion
counts and lesion diameters are fixed ladders (heavy-tailed for candidates)
that the seed only permutes, so totals, sum |A|*|B| over scans and the size
strata do not move with the seed; positions, scores, ratings and report text
do. The volume cohort has an exact per-scan composition, so every seed
scores the same number of patches.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

CANDIDATE_HEADER = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"
REFERENCE_HEADER = (
    "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,reviewers,"
    "positive_votes,Subtlety,Malignancy,Texture,Spiculation,Lobulation,Margin,"
    "Sphericity,InternalStructure,Calcification,DiamEq_Rad\n"
)
CADX_HEADER = "scan_id,model,candidate_id,p_luna,p_dlcs\n"

# Lesions per scan: shares of scans with 0..4 lesions (mean 2.05).
LESION_LADDER = (0.10, 0.25, 0.30, 0.20, 0.15)
MIN_SCORE = 0.051  # above the lowest detection-sweep preset (0.05)

SPECS = {
    "full": {
        "luna": {"scans": 888, "mean_candidates": 30, "tail_sigma": 0.6, "shared_share": 0.15},
        "bootstrap": {"scans": 888, "mean_candidates": 30, "tail_sigma": 0.6,
                      "shared_share": 0.15, "resamples": 200},
        "volumes": {"scans": 4, "candidates_per_scan": 16, "shared": 7, "off_lung": 3,
                    "dims": (512, 512, 160), "spacing_mm": (0.7, 0.7, 1.25)},
    },
    # The 4-scan fixture shape plus one small volume: warm-up and self-test.
    "tiny": {
        "luna": {"scans": 4, "mean_candidates": 6, "tail_sigma": 0.6, "shared_share": 0.15},
        "bootstrap": {"scans": 4, "mean_candidates": 6, "tail_sigma": 0.6,
                      "shared_share": 0.15, "resamples": 20},
        "volumes": {"scans": 1, "candidates_per_scan": 8, "shared": 2, "off_lung": 2,
                    "dims": (96, 96, 40), "spacing_mm": (3.5, 3.5, 5.0)},
    },
}

LOBE_PHRASES = {
    "RUL": ("right upper lobe", "RUL"),
    "RML": ("right middle lobe", "RML"),
    "RLL": ("right lower lobe", "RLL"),
    "LUL": ("left upper lobe", "LUL"),
    "LLL": ("left lower lobe", "LLL"),
}
LOBES = tuple(LOBE_PHRASES)
FILLER = ("No pleural effusion", "Heart size is normal", "Mild emphysema",
          "No mediastinal adenopathy", "Stable granuloma")


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _count_ladder(n: int, mean: float, sigma: float) -> list[int]:
    """n heavy-tailed counts (lognormal quantiles) with an exact total of n*mean."""
    if sigma == 0 or n == 1:
        return [int(round(mean))] * n
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    w = np.exp(sigma * z)
    raw = w / w.sum() * n * mean
    counts = np.maximum(np.floor(raw).astype(int), 2)
    deficit = int(round(n * mean)) - int(counts.sum())
    order = np.argsort(-(raw - np.floor(raw)))
    i = 0
    while deficit != 0:
        j = order[i % n]
        step = 1 if deficit > 0 else -1
        if counts[j] + step >= 2:
            counts[j] += step
            deficit -= step
        i += 1
    return sorted(int(c) for c in counts)


def _lesion_counts(n: int) -> list[int]:
    counts = []
    for k, share in enumerate(LESION_LADDER):
        counts += [k] * int(round(share * n))
    counts = (counts + [2] * n)[:n]
    return counts


class _Geometry:
    """Body and lung placement shared by candidates, lesions and volumes."""

    def __init__(self, rng: np.random.Generator, dims, spacing):
        self.dims = dims
        self.spacing = spacing
        ext = [d * s for d, s in zip(dims, spacing)]
        self.origin = (-ext[0] / 2.0, -ext[1] / 2.0, -ext[2])
        self.zc = -ext[2] / 2.0
        jit = lambda scale: 1.0 + rng.uniform(-0.05, 0.05) * scale
        self.lung_axes = (0.155 * ext[0] * jit(1), 0.21 * ext[1] * jit(1), 0.42 * ext[2] * jit(1))
        self.lung_cx = (-0.2 * ext[0] * jit(1), 0.2 * ext[0] * jit(1))  # right (LPS -x), left
        self.lung_cy = -0.02 * ext[1]
        self.body_axes = (0.45 * ext[0], 0.34 * ext[1])

    def lobe_of(self, x, y, z, grow: float = 1.0) -> str | None:
        a, b, c = (grow * axis for axis in self.lung_axes)
        for side, cx in (("R", self.lung_cx[0]), ("L", self.lung_cx[1])):
            if ((x - cx) / a) ** 2 + ((y - self.lung_cy) / b) ** 2 + ((z - self.zc) / c) ** 2 <= 1.0:
                rel = (z - self.zc) / c
                if side == "R":
                    return "RUL" if rel > 0.25 else ("RML" if rel > -0.15 else "RLL")
                return "LUL" if rel > 0.0 else "LLL"
        return None

    def point_in_lung(self, rng, shrink=0.75):
        a, b, c = self.lung_axes
        cx = self.lung_cx[int(rng.integers(0, 2))]
        while True:
            u = rng.uniform(-1.0, 1.0, size=3)
            if (u * u).sum() <= 1.0:
                break
        return (cx + u[0] * a * shrink, self.lung_cy + u[1] * b * shrink,
                self.zc + u[2] * c * shrink)

    def point_off_lung(self, rng):
        """A point inside the body but outside both lungs, or outside the volume."""
        if rng.random() < 0.2:  # beyond the volume's +x face
            half_x = self.dims[0] * self.spacing[0] / 2.0
            return (half_x + rng.uniform(5.0, 40.0), rng.uniform(-50.0, 50.0), self.zc)
        while True:
            x = rng.uniform(-self.body_axes[0], self.body_axes[0])
            y = rng.uniform(-self.body_axes[1], self.body_axes[1])
            z = self.zc + rng.uniform(-0.9, 0.9) * self.lung_axes[2]
            # clear of the lungs by a margin, so voxel rounding cannot gate it in
            in_body = (x / self.body_axes[0]) ** 2 + (y / self.body_axes[1]) ** 2 <= 1.0
            if in_body and self.lobe_of(x, y, z, grow=1.15) is None:
                return (x, y, z)


def _diameter_ladder(rng, n: int) -> list[float]:
    """n lesion diameters at fixed lognormal quantiles (median 7 mm), in seeded order.

    The size strata of ``eval --stratify size:dlcs`` then hold the same number
    of lesions for every seed.
    """
    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    ladder = [min(max(7.0 * math.exp(0.45 * v), 3.0), 35.0) for v in z]
    return [ladder[i] for i in rng.permutation(n)]


def _lesions(rng, geo: _Geometry, scan_id: str, diameters, min_sep_mm: float) -> list[dict]:
    out = []
    taken: list = []
    for k, d in enumerate(diameters):
        x, y, z = _separated(rng, lambda r: geo.point_in_lung(r, shrink=0.6), taken, min_sep_mm)
        reviewers = int(rng.integers(1, 4)) if rng.random() > 0.05 else None
        votes = int(rng.integers(1, reviewers + 1)) if reviewers else None
        out.append({
            "scan_id": scan_id, "nodule_id": f"n{k + 1}", "x": x, "y": y, "z": z,
            "d": round(d, 2), "lobe": geo.lobe_of(x, y, z) or LOBES[k % 5],
            "diagnosis": str(rng.choice(["benign", "benign", "cancer", "unknown", ""])),
            "lungrads": str(rng.choice(["", "1", "2", "3", "4A", "4B", "4X"])),
            "reviewers": reviewers, "votes": votes,
            "ratings": [int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                        int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                        int(rng.integers(1, 6)), 1, int(rng.integers(1, 7))],
            "diam_rad": round(d * float(rng.uniform(0.85, 1.15)), 2),
        })
    return out


def _detector_list(rng, geo, n, lesions, sensitivity, shared_fps):
    """n candidate rows for one detector on one scan."""
    rows = []

    def add(x, y, z, d, score, cadx):
        cid = f"c{len(rows):05d}"
        rows.append((cid, x, y, z, d, score, cadx))

    for les in lesions:
        if len(rows) >= n or rng.random() > sensitivity:
            continue
        tol = min(les["d"] / 2.0, 5.0)
        off = rng.normal(0.0, 0.3 * tol, size=3)
        d = les["d"] * float(rng.uniform(0.8, 1.2)) if rng.random() > 0.1 else None
        add(les["x"] + off[0], les["y"] + off[1], les["z"] + off[2], d,
            float(rng.uniform(0.3, 1.0)), rng.uniform(0.15, 0.95, size=2))
    for (x, y, z) in shared_fps:
        if len(rows) >= n:
            break
        off = rng.normal(0.0, 0.8, size=3)
        add(x + off[0], y + off[1], z + off[2], float(rng.uniform(3.0, 9.0)),
            float(rng.uniform(MIN_SCORE, 0.8)), rng.uniform(0.0, 0.3, size=2) ** 2)
    while len(rows) < n:
        if rows and rng.random() < 0.06:  # same-model near-duplicate
            src = rows[int(rng.integers(0, len(rows)))]
            off = rng.normal(0.0, 0.6, size=3)
            add(src[1] + off[0], src[2] + off[1], src[3] + off[2], src[4],
                float(np.clip(src[5] * rng.uniform(0.7, 1.0), MIN_SCORE, 1.0)), src[6])
            continue
        x, y, z = geo.point_in_lung(rng, shrink=0.9) if rng.random() < 0.8 else geo.point_off_lung(rng)
        add(x, y, z, float(rng.uniform(3.0, 12.0)) if rng.random() > 0.1 else None,
            MIN_SCORE + 0.7 * float(rng.random()) ** 2, rng.uniform(0.0, 0.55, size=2) ** 2)
    return rows


def _separated(rng, draw, taken: list, min_mm: float):
    """A point from ``draw(rng)`` at least ``min_mm`` from every taken point."""
    while True:
        p = draw(rng)
        if all(sum((p[k] - q[k]) ** 2 for k in range(3)) >= min_mm ** 2 for q in taken):
            taken.append(p)
            return p


def _volume_lists(rng, geo, lesions, spec):
    """Both detectors' rows for one volume scan, with an exact composition.

    Each detector reports every lesion and ``shared`` false positives the other
    detector also reports (cross-detector pairs), ``off_lung`` candidates
    outside the lungs (rejected by mask gating) and the rest as in-lung
    singles that pair with nothing. Points are kept apart so that no
    accidental pair or duplicate changes the number of scored singles, and so
    the number of patches, from seed to seed.
    """
    n = spec["candidates_per_scan"]
    singles = n - len(lesions) - spec["shared"] - spec["off_lung"]
    taken = [(les["x"], les["y"], les["z"]) for les in lesions]
    in_lung = lambda r: geo.point_in_lung(r, shrink=0.85)
    rows = {"a": [], "b": []}

    def add(side, p, d, score):
        rows[side].append((f"c{len(rows[side]):05d}", p[0], p[1], p[2], d, score, (0.3, 0.2)))

    def near(p, radius):
        off = rng.normal(0.0, 1.0, size=3)
        off *= radius * float(rng.random()) / max(float(np.linalg.norm(off)), 1e-9)
        return (p[0] + off[0], p[1] + off[1], p[2] + off[2])

    for les in lesions:
        for side in ("a", "b"):
            add(side, near((les["x"], les["y"], les["z"]), 1.5), les["d"], float(rng.uniform(0.3, 1.0)))
    for _ in range(spec["shared"]):
        p = _separated(rng, in_lung, taken, 12.0)
        for side in ("a", "b"):
            add(side, near(p, 1.5), float(rng.uniform(3.0, 9.0)), float(rng.uniform(MIN_SCORE, 0.8)))
    for side in ("a", "b"):
        for _ in range(spec["off_lung"]):
            add(side, geo.point_off_lung(rng), float(rng.uniform(3.0, 9.0)),
                float(rng.uniform(MIN_SCORE, 0.6)))
        for _ in range(singles):
            add(side, _separated(rng, in_lung, taken, 12.0), float(rng.uniform(3.0, 12.0)),
                MIN_SCORE + 0.7 * float(rng.random()) ** 2)
    return rows["a"], rows["b"]


def _lines(scan_id, model, rows):
    cand_lines, cadx_lines = [], []
    for cid, x, y, z, d, score, cadx in rows:
        dtext = _fmt(d, 2) if d is not None else ""
        cand_lines.append(f"{scan_id},{cid},{_fmt(x, 3)},{_fmt(y, 3)},{_fmt(z, 3)},"
                          f"{dtext},{_fmt(score, 4)},{model}\n")
        cadx_lines.append(f"{scan_id},{model},{cid},{_fmt(cadx[0], 4)},{_fmt(cadx[1], 4)}\n")
    return cand_lines, cadx_lines


def _reference_line(les) -> str:
    r = les["ratings"]
    ratings = ",".join(str(v) for v in r)
    return (f"{les['scan_id']},{les['nodule_id']},{_fmt(les['x'], 3)},{_fmt(les['y'], 3)},"
            f"{_fmt(les['z'], 3)},{_fmt(les['d'], 2)},{les['diagnosis']},{les['lungrads']},"
            f"{les['reviewers'] or ''},{les['votes'] if les['votes'] is not None else ''},"
            f"{ratings},{_fmt(les['diam_rad'], 2)}\n")


def _report_line(rng, index: int, scan_id: str, lesions) -> str:
    sentences = []
    for les in lesions:
        if rng.random() > 0.9:
            continue
        size = (f"{les['d'] / 10.0:.1f} cm" if rng.random() < 0.2 else f"{les['d']:.1f} mm")
        phrase = LOBE_PHRASES[les["lobe"]][int(rng.integers(0, 2))]
        text = f"There is a {size} nodule in the {phrase}"
        if les["lungrads"] and rng.random() < 0.6:
            text += f", Lung-RADS {les['lungrads']}"
        if rng.random() < 0.4:
            text += f", subtlety {les['ratings'][0]}"
        sentences.append(text)
    sentences.insert(int(rng.integers(0, len(sentences) + 1)), str(rng.choice(FILLER)))
    return f"RPT{index:05d}\t{scan_id}\t{'. '.join(sentences)}.\n"


def _scan_ids(rng, n: int) -> list[str]:
    tails = rng.integers(10 ** 11, 10 ** 12, size=n)
    return [f"1.3.6.1.4.1.14519.5.2.1.6279.6001.{int(t)}{i:04d}" for i, t in enumerate(tails)]


def _write(path: Path, header: str, lines) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.writelines(lines)
    return path


def _cohort(rng, spec, directory: Path, with_volumes: bool):
    n = spec["scans"]
    scan_ids = _scan_ids(rng, n)
    if with_volumes:
        cand_counts = [spec["candidates_per_scan"]] * n
        lesion_counts = [2] * n
        dims, spacing = spec["dims"], spec["spacing_mm"]
    else:
        ladder = _count_ladder(n, spec["mean_candidates"], spec["tail_sigma"])
        rank = rng.permutation(n)
        cand_counts = [ladder[r] for r in rank]
        # detector B sees a neighbouring density rank: same multiset, same sum |A|*|B|
        cand_counts_b = [ladder[min(r ^ 1, n - 1)] for r in rank]
        lesion_counts = list(rng.permutation(_lesion_counts(n)))
        dims, spacing = (512, 512, 300), (0.7, 0.7, 1.0)
    if with_volumes:
        cand_counts_b = cand_counts
    geo = _Geometry(rng, dims, spacing)
    diameters = iter(_diameter_ladder(rng, int(sum(lesion_counts))))
    lines = {"a": [], "b": [], "cadx": [], "refs": [], "reports": []}
    for i, scan_id in enumerate(scan_ids):
        lesions = _lesions(rng, geo, scan_id, [next(diameters) for _ in range(lesion_counts[i])],
                           24.0 if with_volumes else 0.0)
        # false positives both detectors report: cross-detector pairs off any lesion
        if with_volumes:
            rows_a, rows_b = _volume_lists(rng, geo, lesions, spec)
        else:
            n_shared = int(spec["shared_share"] * min(cand_counts[i], cand_counts_b[i]))
            shared = [geo.point_in_lung(rng, shrink=0.9) for _ in range(n_shared)]
            rows_a = _detector_list(rng, geo, cand_counts[i], lesions, 0.85, shared)
            rows_b = _detector_list(rng, geo, cand_counts_b[i], lesions, 0.80, shared)
        a, xa = _lines(scan_id, "CADE_A", rows_a)
        b, xb = _lines(scan_id, "CADE_B", rows_b)
        lines["a"] += a
        lines["b"] += b
        lines["cadx"] += xa + xb
        lines["refs"] += [_reference_line(les) for les in lesions]
        lines["reports"].append(_report_line(rng, i, scan_id, lesions))
    files = {
        "cade_a": _write(directory / "cade_a.csv", CANDIDATE_HEADER, lines["a"]),
        "cade_b": _write(directory / "cade_b.csv", CANDIDATE_HEADER, lines["b"]),
        "cadx_scores": _write(directory / "cadx_scores.csv", CADX_HEADER, lines["cadx"]),
        "references": _write(directory / "references.csv", REFERENCE_HEADER, lines["refs"]),
        "reports": _write(directory / "reports.tsv", "", lines["reports"]),
    }
    counts = {
        "scans": n,
        "candidates_a": len(lines["a"]),
        "candidates_b": len(lines["b"]),
        "lesions": len(lines["refs"]),
        "pair_tests": int(sum(a * b for a, b in zip(cand_counts, cand_counts_b))),
    }
    return scan_ids, geo, files, counts


def _write_volumes(rng, geo: _Geometry, scan_ids, directory: Path) -> dict:
    """Lobe-label masks (uint8) and intensity volumes (int16), x-fastest raw."""
    masks = directory / "masks"
    volumes = directory / "volumes"
    masks.mkdir()
    volumes.mkdir()
    nx, ny, nz = geo.dims
    sx, sy, sz = geo.spacing
    ox, oy, oz = geo.origin
    xs = ox + np.arange(nx) * sx
    ys = oy + np.arange(ny) * sy
    a, b, c = geo.lung_axes
    body = ((xs[None, :] / geo.body_axes[0]) ** 2 + (ys[:, None] / geo.body_axes[1]) ** 2) <= 1.0
    lung_xy = [((xs[None, :] - cx) / a) ** 2 + ((ys[:, None] - geo.lung_cy) / b) ** 2
               for cx in geo.lung_cx]
    header = ("dims = {} {} {}\nspacing_mm = {!r} {!r} {!r}\norigin_mm = {!r} {!r} {!r}\n"
              "element_type = {}\ndata_file = {}\n")
    for scan_id in scan_ids:
        with open(masks / f"{scan_id}.raw", "wb") as mfh, open(volumes / f"{scan_id}.raw", "wb") as vfh:
            for k in range(nz):
                z = oz + k * sz
                rel = (z - geo.zc) / c
                label = np.zeros((ny, nx), dtype=np.uint8)
                right = lung_xy[0] + rel * rel <= 1.0
                left = lung_xy[1] + rel * rel <= 1.0
                label[right] = 30 if rel > 0.25 else (31 if rel > -0.15 else 32)
                label[left] = 28 if rel > 0.0 else 29
                hu = np.where(body, np.int16(40), np.int16(-1000)).astype(np.int16)
                hu[label > 0] = -850
                hu += rng.integers(-30, 31, size=(ny, nx), dtype=np.int16)
                mfh.write(label.tobytes())
                vfh.write(hu.tobytes())
        for kind, folder in (("uint8", masks), ("int16", volumes)):
            (folder / f"{scan_id}.hdr").write_text(
                header.format(nx, ny, nz, sx, sy, sz, ox, oy, oz, kind, f"{scan_id}.raw"),
                encoding="utf-8")
    return {"masks": masks, "volumes": volumes}


def generate(workload: str, seed: int, scale: str, directory: Path) -> dict:
    """Write the inputs of one workload into ``directory``; return their description."""
    spec = SPECS[scale][workload]
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(SPECS[scale]).index(workload)])
    with_volumes = workload == "volumes"
    scan_ids, geo, files, counts = _cohort(rng, spec, directory, with_volumes)
    if with_volumes:
        files.update(_write_volumes(rng, geo, scan_ids, directory))
    if workload == "bootstrap":
        # the list to evaluate is a detector list written directly: no trifuse in set-up
        files = {"candidates": files["cade_a"], "references": files["references"]}
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "spec": {k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()},
        "counts": counts,
        "files": {k: str(v) for k, v in files.items()},
    }
