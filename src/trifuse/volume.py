"""Label and intensity volumes: on-disk format, world/voxel transforms,
lung-membership gating and fixed-geometry patch extraction.

On-disk container: a small text header plus a raw little-endian voxel file.
Header grammar (``key = value`` lines, read as config files are; unknown keys rejected)::

    dims = nx ny nz
    spacing_mm = sx sy sz
    origin_mm = ox oy oz
    element_type = uint8 | int16 | float32
    data_file = <path relative to the header>

Voxels are stored x-fastest; in memory the array is indexed ``[ix, iy, iz]``.
trifuse reads a loaded volume's voxels only with positioned reads of its raw
file (``_source_box``), for a label lookup's one voxel as for a patch's
source box, and keeps the read-only memory map only as ``Volume.values``:
no page it reads counts toward the process's memory, and a raw file cut
short mid-run raises ``InputError`` instead of a crash.
Label lookups use the nearest voxel (labels are never interpolated); patch
resampling uses trilinear interpolation. Grid points outside the sample hull
of the source volume take the air value, -1000 HU, which normalizes to 0.0.
Patches are resampled in the raw file's order: the source rows are copied to
C-ordered (z, y, x) float64 arrays and interpolated in an x, a y and a z
pass, so a patch's values in memory are already x-fastest, as its file stores
them; ``Patch.values`` is the ``[ix, iy, iz]`` view of that array.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import LUNG_LOBE_LABELS, WorldPoint, require_positive
from .errors import InputError, read_settings

ELEMENT_DTYPES = {"uint8": "<u1", "int16": "<i2", "float32": "<f4"}

PATCH_SHAPE = (64, 64, 64)
PATCH_SPACING_MM = (0.7, 0.7, 1.25)
HU_MIN = -1000.0
HU_MAX = 500.0
# patch rows (along y) resampled at a time: the temporaries of a group stay
# small enough to be reused from the allocator's free memory and the CPU caches
_PATCH_ROWS = 8

_HEADER_KEYS = ("dims", "spacing_mm", "origin_mm", "element_type", "data_file")


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: WorldPoint
    element_type: str

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise InputError(f"dims must be three integers >= 1, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        spacing = tuple(require_positive("spacing_mm", s) for s in self.spacing_mm)
        if len(spacing) != 3:
            raise InputError(f"spacing_mm must have three components, got {self.spacing_mm!r}")
        object.__setattr__(self, "spacing_mm", spacing)
        if self.element_type not in ELEMENT_DTYPES:
            raise InputError(
                f"element_type must be one of {sorted(ELEMENT_DTYPES)}, got {self.element_type!r}"
            )

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


@dataclass(eq=False)
class Volume:
    """An immutable-by-convention voxel grid with world placement.

    ``data_path`` is the raw file a loaded volume's values map, from which
    its voxels are read; it is None for any other volume.
    """

    header: VolumeHeader
    values: np.ndarray
    data_path: Path | None = None

    def __post_init__(self):
        if tuple(self.values.shape) != self.header.dims:
            raise InputError(
                f"voxel array shape {self.values.shape} does not match dims {self.header.dims}"
            )

    @classmethod
    def from_array(
        cls,
        values: np.ndarray,
        spacing_mm: tuple[float, float, float],
        origin_mm: WorldPoint,
        element_type: str | None = None,
    ) -> "Volume":
        values = np.asarray(values)
        if values.ndim != 3:
            raise InputError(f"volume array must be 3-D, got shape {values.shape}")
        if element_type is None:
            element_type = _element_type_for(values.dtype)
        header = VolumeHeader(
            dims=tuple(values.shape),
            spacing_mm=spacing_mm,
            origin_mm=origin_mm,
            element_type=element_type,
        )
        return cls(header=header, values=values.astype(ELEMENT_DTYPES[element_type]))


@dataclass(eq=False)
class Patch:
    """A 64x64x64 resampled, windowed and normalized intensity cube, indexed
    ``[ix, iy, iz]`` like a volume (``extract_patch`` gives the transposed
    view of a C-ordered (z, y, x) array)."""

    values: np.ndarray
    center: WorldPoint
    spacing_mm: tuple[float, float, float] = PATCH_SPACING_MM

    def __post_init__(self):
        if tuple(self.values.shape) != PATCH_SHAPE:
            raise InputError(f"patch shape must be {PATCH_SHAPE}, got {self.values.shape}")


def _element_type_for(dtype: np.dtype) -> str:
    for name, code in ELEMENT_DTYPES.items():
        if np.dtype(code) == np.dtype(dtype).newbyteorder("<"):
            return name
    raise InputError(f"unsupported voxel dtype {dtype!r}; use one of {sorted(ELEMENT_DTYPES)}")


def world_to_voxel(p: WorldPoint, header: VolumeHeader) -> tuple[float, float, float]:
    """Continuous voxel coordinate of a world point. No bounds check."""
    sx, sy, sz = header.spacing_mm
    o = header.origin_mm
    return ((p.x - o.x) / sx, (p.y - o.y) / sy, (p.z - o.z) / sz)


def voxel_to_world(v: tuple[float, float, float], header: VolumeHeader) -> WorldPoint:
    sx, sy, sz = header.spacing_mm
    o = header.origin_mm
    return WorldPoint(o.x + v[0] * sx, o.y + v[1] * sy, o.z + v[2] * sz)


def nearest_voxel_index(p: WorldPoint, header: VolumeHeader) -> tuple[int, int, int] | None:
    """Nearest voxel index for a world point, or None when out of bounds.

    Half-way coordinates round toward +infinity.
    """
    cont = world_to_voxel(p, header)
    idx = tuple(int(math.floor(c + 0.5)) for c in cont)
    for i, n in zip(idx, header.dims):
        if i < 0 or i >= n:
            return None
    return idx


def label_at(p: WorldPoint, volume: Volume) -> int | None:
    """Nearest-voxel label at a world point; None when outside the volume. A
    voxel that does not hold a whole number raises ``InputError``."""
    idx = nearest_voxel_index(p, volume.header)
    if idx is None:
        return None
    value = _source_box(volume, *(slice(i, i + 1) for i in idx)).item()
    if not float(value).is_integer():
        raise InputError(f"{volume.data_path or 'volume'}: voxel {idx} holds {value}, not a label")
    return int(value)


def centroid_in_lung(p: WorldPoint, volume: Volume, lung_labels=LUNG_LOBE_LABELS) -> bool:
    """True iff the nearest voxel under the point carries a lung-lobe label."""
    label = label_at(p, volume)
    return label is not None and label in lung_labels


def _axis_samples(coords: np.ndarray, n: int):
    """Interpolation terms along one axis of the patch grid.

    Returns None when no coordinate lies in the sample hull [0, n-1].
    Otherwise returns the slice of the grid the inside coordinates fill (the
    grid ascends, so they are one run), the source slice they touch, each
    inside coordinate's lower and upper index relative to that slice, and
    its fractional offset from the lower index.
    """
    inside = np.flatnonzero((coords >= 0.0) & (coords <= n - 1))
    if not len(inside):
        return None
    run = slice(inside[0], inside[-1] + 1)
    c = coords[run]
    i0 = np.clip(np.floor(c).astype(np.int64), 0, n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    lo = i0[0]  # the first coordinate has the lowest index
    return run, slice(lo, i1[-1] + 1), i0 - lo, i1 - lo, c - i0


def _lerp(v: np.ndarray, axis: int, i0: np.ndarray, i1: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``a * (1 - f) + b * f`` along one axis of ``v``, in place on the
    gathered lower (``a``) and upper (``b``) rows."""
    shape = [1, 1, 1]
    shape[axis] = len(f)
    a = v.take(i0, axis=axis)
    a *= (1 - f).reshape(shape)
    b = v.take(i1, axis=axis)
    b *= f.reshape(shape)
    a += b
    return a


def _source_box(volume: Volume, bx: slice, by: slice, bz: slice) -> np.ndarray:
    """The voxels ``[bx, by, bz]`` as a C-ordered (z, y, x) array.

    A loaded volume's box is read from its raw file, one z-slice's rows
    ``by`` at a time, without touching the memory map; a file cut short
    since it was loaded raises ``InputError`` naming it. Any other volume's
    box is a view of its values.
    """
    if volume.data_path is None:
        return volume.values[bx, by, bz].T
    path = volume.data_path
    nx, ny, _ = volume.header.dims
    dtype = volume.values.dtype
    rows = np.empty((by.stop - by.start, nx), dtype)  # one z-slice's rows, reused
    box = np.empty((bz.stop - bz.start, by.stop - by.start, bx.stop - bx.start), dtype)
    try:
        fd = os.open(path, os.O_RDONLY)  # a descriptor, not a file object: a box is a few reads
        try:
            for k, z in enumerate(range(bz.start, bz.stop)):
                offset = (z * ny + int(by.start)) * nx * dtype.itemsize
                got = os.preadv(fd, [rows], offset)
                if got != rows.nbytes:
                    raise InputError(f"{path}: voxel data cut short since it was loaded: "
                                     f"read {got} of {rows.nbytes} bytes at offset {offset}")
                box[k] = rows[:, bx]
        finally:
            os.close(fd)
    except OSError as err:
        raise InputError(f"cannot read voxel data {path}: {err}") from None
    return box


def extract_patch(volume: Volume, center: WorldPoint) -> Patch:
    """Resample a 64^3 patch at (0.7, 0.7, 1.25) mm spacing around a point.

    Samples are trilinearly interpolated from the source volume, clipped to
    the [-1000, 500] HU window and normalized to [0, 1]. Grid points outside
    the source receive the normalized air value 0.0.

    The patch grid is axis-aligned, so interpolation runs as three separable
    passes over the source box the grid touches, in the raw file's (z, y, x)
    order: the x pass, then the y pass, then the z pass. Each pass is
    ``a * (1 - f) + b * f`` in float64, computed in place on the gathered
    rows: the same operations in the same order as interpolating every grid
    point from its eight corners. The passes run on a few patch rows (y) at
    a time, each group on a C-ordered float64 copy of the source rows it
    touches, and write into a C-ordered (z, y, x) patch that is clipped and
    normalized in place. ``Patch.values`` is indexed ``[ix, iy, iz]``: it is
    the transposed view of that array, so the patch lies x-fastest in
    memory, as a patch file stores it. The box is read by ``_source_box``.
    """
    h = volume.header
    c = center.as_tuple()
    o = h.origin_mm.as_tuple()
    axes = []
    for a, n in enumerate(PATCH_SHAPE):
        world = c[a] + (np.arange(n) - (n - 1) / 2.0) * PATCH_SPACING_MM[a]
        axes.append(_axis_samples((world - o[a]) / h.spacing_mm[a], h.dims[a]))
    if any(axis is None for axis in axes):
        # every sample is air, which normalizes to 0.0
        return Patch(values=np.zeros(PATCH_SHAPE[::-1]).T, center=center)
    (rx, bx, x0, x1, fx), (ry, by, y0, y1, fy), (rz, bz, z0, z1, fz) = axes
    box = _source_box(volume, bx, by, bz)  # (z, y, x), the raw file's order
    if all(run == slice(0, n) for run, n in zip((rx, ry, rz), PATCH_SHAPE)):
        out = np.empty(PATCH_SHAPE[::-1])
    else:
        out = np.full(PATCH_SHAPE[::-1], HU_MIN)
    for j in range(0, len(fy), _PATCH_ROWS):
        rows = slice(j, j + _PATCH_ROWS)
        lo, hi = y0[rows][0], y1[rows][-1] + 1
        v = box[:, lo:hi].astype(np.float64, order="C")
        v = _lerp(v, 2, x0, x1, fx)
        v = _lerp(v, 1, y0[rows] - lo, y1[rows] - lo, fy[rows])
        out[rz, ry, rx][:, rows] = _lerp(v, 0, z0, z1, fz)
    np.clip(out, HU_MIN, HU_MAX, out=out)
    out -= HU_MIN
    out /= HU_MAX - HU_MIN
    return Patch(values=out.T, center=center)


def _parse_triple(value: str, key: str, caster):
    parts = value.split()
    if len(parts) != 3:
        raise InputError(f"header key {key!r} needs three values, got {value!r}")
    try:
        return tuple(caster(p) for p in parts)
    except ValueError:
        raise InputError(f"header key {key!r} has a malformed value: {value!r}") from None


def read_header(header_path: str | Path) -> tuple[VolumeHeader, Path]:
    """Parse a volume header file; returns the header and the data file path."""
    header_path = Path(header_path)
    try:
        settings = read_settings(header_path, InputError)
    except OSError as err:
        raise InputError(f"cannot read volume header {header_path}: {err}") from None
    for key, (_, line_num) in settings.items():
        if key not in _HEADER_KEYS:
            raise InputError(f"{header_path}:{line_num}: unknown header key {key!r}")
    fields = {key: value for key, (value, _) in settings.items()}
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise InputError(f"{header_path}: missing header keys {missing}")

    dims = _parse_triple(fields["dims"], "dims", int)
    spacing = _parse_triple(fields["spacing_mm"], "spacing_mm", float)
    origin = _parse_triple(fields["origin_mm"], "origin_mm", float)
    header = VolumeHeader(
        dims=dims,
        spacing_mm=spacing,
        origin_mm=WorldPoint(*origin),
        element_type=fields["element_type"],
    )
    return header, header_path.parent / fields["data_file"]


def load_volume(header_path: str | Path) -> Volume:
    """Map a volume's raw data file read-only, as described by its header.

    The voxels are not read up front. The returned values are a read-only
    memory map, kept only as the public ``Volume.values``: label lookups and
    patches read their voxels from the raw file (``data_path``) with
    positioned reads. The raw file must not change while the volume is in
    use; one cut short fails the next read with ``InputError``.
    """
    header, data_path = read_header(header_path)
    dtype = np.dtype(ELEMENT_DTYPES[header.element_type])
    try:
        size = data_path.stat().st_size
    except OSError as err:
        raise InputError(f"cannot read voxel data {data_path}: {err}") from None
    if size != header.voxel_count * dtype.itemsize:
        raise InputError(
            f"{data_path}: expected {header.voxel_count} voxels, found {size // dtype.itemsize}"
        )
    try:
        raw = np.memmap(data_path, dtype=dtype, mode="r", shape=(header.voxel_count,))
    except OSError as err:
        raise InputError(f"cannot read voxel data {data_path}: {err}") from None
    nx, ny, nz = header.dims
    values = raw.reshape((nz, ny, nx)).T  # stored x-fastest
    return Volume(header=header, values=values, data_path=data_path)


def save_volume(volume: Volume, header_path: str | Path, data_file: str | None = None) -> Path:
    """Write a volume as header + raw pair; returns the header path."""
    header_path = Path(header_path)
    if data_file is None:
        data_file = header_path.stem + ".raw"
    h = volume.header
    dtype = ELEMENT_DTYPES[h.element_type]
    data_path = header_path.parent / data_file
    # one pass converts to the stored dtype and lays the voxels out x-fastest
    np.ascontiguousarray(volume.values.T, dtype=dtype).tofile(data_path)
    lines = [
        f"dims = {h.dims[0]} {h.dims[1]} {h.dims[2]}",
        f"spacing_mm = {h.spacing_mm[0]!r} {h.spacing_mm[1]!r} {h.spacing_mm[2]!r}",
        f"origin_mm = {h.origin_mm.x!r} {h.origin_mm.y!r} {h.origin_mm.z!r}",
        f"element_type = {h.element_type}",
        f"data_file = {data_file}",
    ]
    header_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return header_path


def save_patch(patch: Patch, header_path: str | Path) -> Path:
    """Persist a patch as a float32 volume pair (used to feed external scorers).

    The float64 patch values are converted to float32 once, as they are
    written; a patch from ``extract_patch`` is already x-fastest in memory, so
    the conversion reads it in order, without a transposing copy.
    """
    origin = WorldPoint(
        patch.center.x - (PATCH_SHAPE[0] - 1) / 2.0 * patch.spacing_mm[0],
        patch.center.y - (PATCH_SHAPE[1] - 1) / 2.0 * patch.spacing_mm[1],
        patch.center.z - (PATCH_SHAPE[2] - 1) / 2.0 * patch.spacing_mm[2],
    )
    header = VolumeHeader(
        dims=PATCH_SHAPE, spacing_mm=patch.spacing_mm, origin_mm=origin, element_type="float32"
    )
    return save_volume(Volume(header=header, values=patch.values), header_path)
