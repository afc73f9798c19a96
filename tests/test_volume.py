from pathlib import Path

import numpy as np
import pytest

from trifuse.domain import WorldPoint
from trifuse.errors import ConfigError, InputError
from trifuse.fileio import parse_config_file
from trifuse.volume import (
    HU_MAX,
    HU_MIN,
    PATCH_SHAPE,
    PATCH_SPACING_MM,
    Volume,
    VolumeHeader,
    centroid_in_lung,
    extract_patch,
    label_at,
    load_volume,
    read_header,
    save_patch,
    save_volume,
    voxel_to_world,
    world_to_voxel,
)

from conftest import run_python
from oracles import oracle_extract_patch, oracle_save_patch, oracle_separable_extract_patch


def make_volume(values, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return Volume.from_array(np.asarray(values), spacing, WorldPoint(*origin))


class TestTransforms:
    def test_origin_maps_to_zero(self):
        h = VolumeHeader((4, 4, 4), (1.0, 2.0, 3.0), WorldPoint(5, 6, 7), "int16")
        assert world_to_voxel(WorldPoint(5, 6, 7), h) == (0.0, 0.0, 0.0)

    def test_arithmetic(self):
        h = VolumeHeader((8, 8, 8), (2.0, 2.0, 2.0), WorldPoint(0, 0, 0), "int16")
        assert world_to_voxel(WorldPoint(4, 6, 8), h) == (2.0, 3.0, 4.0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        h = VolumeHeader((10, 20, 30), (0.7, 0.7, 1.25), WorldPoint(-17.5, 4.0, 99.0), "float32")
        for _ in range(50):
            p = WorldPoint(*rng.uniform(-100, 100, size=3))
            back = voxel_to_world(world_to_voxel(p, h), h)
            assert p.distance_to(back) < 1e-9


class TestHeaderFile:
    def write_pair(self, tmp_path, values, element_type="int16", extra_lines=(), drop=None):
        arr = np.asarray(values, dtype={"int16": "<i2", "uint8": "<u1", "float32": "<f4"}[element_type])
        raw = tmp_path / "vol.raw"
        arr.T.tofile(raw)
        lines = {
            "dims": f"dims = {arr.shape[0]} {arr.shape[1]} {arr.shape[2]}",
            "spacing_mm": "spacing_mm = 1.0 1.0 2.0",
            "origin_mm": "origin_mm = 0.0 0.0 0.0",
            "element_type": f"element_type = {element_type}",
            "data_file": "data_file = vol.raw",
        }
        if drop:
            del lines[drop]
        header = tmp_path / "vol.hdr"
        header.write_text("\n".join(list(lines.values()) + list(extra_lines)) + "\n")
        return header

    def test_load_round_trip_all_dtypes(self, tmp_path):
        rng = np.random.default_rng(6)
        for element_type, values in (
            ("uint8", rng.integers(0, 255, size=(4, 3, 2)).astype("<u1")),
            ("int16", rng.integers(-1000, 500, size=(4, 3, 2)).astype("<i2")),
            ("float32", rng.normal(size=(4, 3, 2)).astype("<f4")),
        ):
            vol = Volume.from_array(values, (1.0, 1.0, 2.0), WorldPoint(0, 0, 0), element_type)
            header = save_volume(vol, tmp_path / f"{element_type}.hdr")
            loaded = load_volume(header)
            assert loaded.header == vol.header
            np.testing.assert_array_equal(loaded.values, vol.values)

    def test_x_fastest_layout(self, tmp_path):
        values = np.arange(24).reshape(2, 3, 4)  # (nx, ny, nz)
        header = self.write_pair(tmp_path, values)
        loaded = load_volume(header)
        np.testing.assert_array_equal(loaded.values, values)
        # the raw stream starts by walking x at y=z=0
        raw = np.fromfile(tmp_path / "vol.raw", dtype="<i2")
        np.testing.assert_array_equal(raw[:2], values[:, 0, 0])

    def test_unknown_key_rejected(self, tmp_path):
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)), extra_lines=("flavor = salty",))
        with pytest.raises(InputError, match="unknown header key"):
            read_header(header)

    def test_text_that_is_not_utf8_rejected_with_its_line(self, tmp_path):
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)))
        header.write_bytes(b"\xef\xbb\xbf" + header.read_bytes() + b"# caf\xe9\n")
        with pytest.raises(InputError) as err:
            read_header(header)
        assert str(err.value) == f"{header}:6: not UTF-8 text: cannot decode byte 0xe9"

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_lines_end_only_at_line_breaks(self, tmp_path, mark):
        # str.splitlines() would also break the comment at ``mark``, and
        # then name line 2 for its second half
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)), extra_lines=("flavor = salty",))
        header.write_text(f"# exported{mark}by hand\n" + header.read_text(), encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_header(header)
        assert str(err.value) == f"{header}:7: unknown header key 'flavor'"

    @pytest.mark.parametrize("bad", ["dims 2 2 2", "= 2 2 2", "dims = 3 3 3"])
    def test_malformed_lines_worded_as_in_config_files(self, tmp_path, bad):
        # one parser reads both: the same lines give the same words and line
        text = f"# exported by hand\ndims = 2 2 2\n{bad}\nspacing_mm = 1 1 1\n"
        (tmp_path / "vol.hdr").write_text(text)
        (tmp_path / "vol.cfg").write_text(text)
        with pytest.raises(InputError) as header_err:
            read_header(tmp_path / "vol.hdr")
        with pytest.raises(ConfigError) as config_err:
            parse_config_file(tmp_path / "vol.cfg")
        message = str(header_err.value)
        assert message.startswith(f"{tmp_path / 'vol.hdr'}:3: ")
        assert message.replace("vol.hdr", "vol.cfg") == str(config_err.value)

    def test_missing_key_rejected(self, tmp_path):
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)), drop="spacing_mm")
        with pytest.raises(InputError, match="missing header keys"):
            read_header(header)

    def test_size_mismatch_rejected(self, tmp_path):
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)))
        (tmp_path / "vol.raw").write_bytes(b"\x00" * 6)
        with pytest.raises(InputError, match="expected 8 voxels"):
            load_volume(header)

    @pytest.mark.parametrize(
        "nbytes, found", [(0, 0), (7, 3), (15, 7), (18, 9), (400, 200)]
    )
    def test_raw_size_must_match_dims(self, tmp_path, nbytes, found):
        # int16 voxels: empty, short, odd-length and over-long files
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)))
        (tmp_path / "vol.raw").write_bytes(b"\x00" * nbytes)
        with pytest.raises(InputError, match=f"expected 8 voxels, found {found}$"):
            load_volume(header)

    def test_missing_raw_file_rejected(self, tmp_path):
        header = self.write_pair(tmp_path, np.zeros((2, 2, 2)))
        (tmp_path / "vol.raw").unlink()
        with pytest.raises(InputError, match="cannot read voxel data"):
            load_volume(header)

    def test_loaded_values_are_read_only(self, tmp_path):
        values = np.arange(24).reshape(2, 3, 4)
        header = self.write_pair(tmp_path, values)
        loaded = load_volume(header)
        assert not loaded.values.flags.writeable
        with pytest.raises(ValueError):
            loaded.values[0, 0, 0] = 7
        np.testing.assert_array_equal(np.fromfile(tmp_path / "vol.raw", "<i2")[:1], [0])

    def test_bad_dims_rejected(self, tmp_path):
        header = tmp_path / "bad.hdr"
        header.write_text(
            "dims = 0 2 2\nspacing_mm = 1 1 1\norigin_mm = 0 0 0\n"
            "element_type = uint8\ndata_file = bad.raw\n"
        )
        with pytest.raises(InputError):
            read_header(header)


class TestLungGating:
    def volume_with_labels(self):
        values = np.zeros((10, 10, 10), dtype=np.uint8)
        for i, label in enumerate((28, 29, 30, 31, 32)):
            values[i, 0, 0] = label
        values[9, 9, 9] = 99
        return make_volume(values)

    def test_lung_labels_accepted(self):
        vol = self.volume_with_labels()
        for i in range(5):
            assert centroid_in_lung(WorldPoint(float(i), 0.0, 0.0), vol)

    def test_background_rejected(self):
        vol = self.volume_with_labels()
        assert not centroid_in_lung(WorldPoint(5.0, 5.0, 5.0), vol)

    def test_non_lung_label_rejected(self):
        vol = self.volume_with_labels()
        assert not centroid_in_lung(WorldPoint(9.0, 9.0, 9.0), vol)
        assert label_at(WorldPoint(9.0, 9.0, 9.0), vol) == 99

    def test_out_of_bounds_rejected(self):
        vol = self.volume_with_labels()
        assert not centroid_in_lung(WorldPoint(-3.0, 0.0, 0.0), vol)
        assert not centroid_in_lung(WorldPoint(0.0, 0.0, 500.0), vol)
        assert label_at(WorldPoint(0.0, 0.0, 500.0), vol) is None

    def test_invariant_to_relabeling_non_lung(self):
        vol = self.volume_with_labels()
        relabeled = vol.values.copy()
        relabeled[relabeled == 99] = 7
        relabeled[relabeled == 0] = 250
        vol2 = make_volume(relabeled)
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = WorldPoint(*rng.uniform(-2, 12, size=3))
            assert centroid_in_lung(p, vol) == centroid_in_lung(p, vol2)

    @pytest.mark.parametrize("value", [float("nan"), 28.5])
    def test_a_voxel_that_is_not_a_label_raises_input_error(self, tmp_path, value):
        values = np.full((12, 12, 12), 28.0, dtype="<f4")
        values[10, 10, 10] = value
        for vol in (make_volume(values), load_volume(save_volume(make_volume(values),
                                                                 tmp_path / "m.hdr"))):
            assert label_at(WorldPoint(9.0, 10.0, 10.0), vol) == 28
            with pytest.raises(InputError) as err:
                label_at(WorldPoint(10.0, 10.0, 10.0), vol)
            where = tmp_path / "m.raw" if vol.data_path else "volume"
            assert str(err.value) == f"{where}: voxel (10, 10, 10) holds {value}, not a label"

    def test_raw_file_cut_short_raises_input_error(self, tmp_path):
        # through the memory map the lookup would die of SIGBUS, so it runs
        # in a child process
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "from trifuse.domain import WorldPoint\n"
            "from trifuse.errors import InputError\n"
            "from trifuse.volume import Volume, label_at, load_volume, save_volume\n"
            "vol = Volume.from_array(np.full((128, 128, 64), 28, '<u1'), (1.0, 1.0, 1.0),\n"
            "                        WorldPoint(0, 0, 0))\n"
            "loaded = load_volume(save_volume(vol, sys.argv[1]))\n"
            "print(label_at(WorldPoint(0, 0, 0), loaded))\n"
            "os.truncate(sys.argv[1].replace('.hdr', '.raw'), 4096)\n"
            "try:\n"
            "    label_at(WorldPoint(64, 64, 32), loaded)\n"
            "except InputError as err:\n"
            "    print(err)\n"
        )
        done = run_python(code, tmp_path / "v.hdr")
        assert done.returncode == 0 and done.stderr == "", (done.returncode, done.stderr)
        assert done.stdout == (f"28\n{tmp_path / 'v.raw'}: voxel data cut short since it was "
                               "loaded: read 0 of 128 bytes at offset 532480\n")

    def test_nearest_voxel_uses_rounding(self):
        values = np.zeros((4, 4, 4), dtype=np.uint8)
        values[2, 2, 2] = 30
        vol = make_volume(values, spacing=(2.0, 2.0, 2.0))
        # world (3.2, 4.0, 4.0) -> voxel (1.6, 2, 2) -> nearest (2, 2, 2)
        assert centroid_in_lung(WorldPoint(3.2, 4.0, 4.0), vol)
        assert not centroid_in_lung(WorldPoint(2.9, 4.0, 4.0), vol)


class TestExtractPatch:
    # the patch spans 44.1 x 44.1 x 78.75 mm; interior tests need a volume
    # large enough to contain it

    def test_constant_volume_normalizes(self):
        vol = make_volume(np.full((60, 60, 100), 100.0, dtype="<f4"))
        patch = extract_patch(vol, WorldPoint(30, 30, 50))
        assert patch.values.shape == PATCH_SHAPE
        np.testing.assert_allclose(patch.values, (100.0 + 1000.0) / 1500.0, atol=1e-9)

    def test_clip_floor(self):
        vol = make_volume(np.full((30, 30, 30), -2000.0, dtype="<f4"))
        patch = extract_patch(vol, WorldPoint(15, 15, 15))
        np.testing.assert_array_equal(patch.values, 0.0)

    def test_clip_ceiling(self):
        vol = make_volume(np.full((60, 60, 100), 3000.0, dtype="<f4"))
        patch = extract_patch(vol, WorldPoint(30, 30, 50))
        np.testing.assert_array_equal(patch.values, 1.0)

    def test_center_far_outside_pads_with_air(self):
        vol = make_volume(np.full((20, 20, 20), 100.0, dtype="<f4"))
        patch = extract_patch(vol, WorldPoint(5000, 5000, 5000))
        np.testing.assert_array_equal(patch.values, 0.0)

    def test_values_always_in_unit_interval(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-3000, 3000, size=(25, 25, 25)).astype("<f4")
        vol = make_volume(values, spacing=(1.3, 0.9, 2.0))
        for _ in range(5):
            center = WorldPoint(*rng.uniform(-10, 40, size=3))
            patch = extract_patch(vol, center)
            assert patch.values.shape == PATCH_SHAPE
            assert patch.values.min() >= 0.0
            assert patch.values.max() <= 1.0

    def test_grid_aligned_resample_reproduces_source(self):
        # source already at patch spacing; center placed on the sample grid
        rng = np.random.default_rng(9)
        values = rng.uniform(HU_MIN, HU_MAX, size=(80, 80, 80)).astype("<f4")
        vol = make_volume(values, spacing=PATCH_SPACING_MM)
        # center at voxel (39.5, 39.5, 39.5): patch sample k maps to voxel k+8
        center = voxel_to_world((39.5, 39.5, 39.5), vol.header)
        patch = extract_patch(vol, center)
        expected = (values[8:72, 8:72, 8:72].astype(np.float64) - HU_MIN) / (HU_MAX - HU_MIN)
        np.testing.assert_allclose(patch.values, expected, atol=1e-9)

    def test_affine_field_is_interpolated_exactly(self):
        # integer grid and half-integer coefficients keep every stored voxel
        # value exact in float32, isolating the interpolation error itself
        nx, ny, nz = 60, 60, 85
        spacing = (1.0, 1.0, 1.0)
        origin = WorldPoint(0.0, 0.0, 0.0)
        ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        a = (3.0, -2.0, 1.5)
        b = -200.0
        field = a[0] * ix + a[1] * iy + a[2] * iz + b
        assert field.min() > HU_MIN and field.max() < HU_MAX
        vol = Volume.from_array(field.astype("<f4"), spacing, origin, "float32")
        center = WorldPoint(nx / 2, ny / 2, nz / 2)
        patch = extract_patch(vol, center)
        # expected affine values on the patch grid, windowed and normalized
        offsets = [(np.arange(64) - 31.5) * PATCH_SPACING_MM[axis] for axis in range(3)]
        gx, gy, gz = np.meshgrid(
            center.x + offsets[0], center.y + offsets[1], center.z + offsets[2], indexing="ij"
        )
        expected_field = a[0] * gx + a[1] * gy + a[2] * gz + b
        inside = (
            (gx >= 0) & (gx <= nx - 1)
            & (gy >= 0) & (gy <= ny - 1)
            & (gz >= 0) & (gz <= nz - 1)
        )
        assert inside.all()  # center and spacing keep all samples interior
        expected = (expected_field - HU_MIN) / (HU_MAX - HU_MIN)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(patch.values - expected) / scale) < 1e-9


class TestExtractPatchMatchesOracle:
    """The (z, y, x) resampler against point-by-point trilinear interpolation
    and against the earlier separable resampler on (x, y, z) axes.

    Equality is on the bytes: every patch sample must come out of the same
    floating-point operations as the oracles'.
    """

    def centres(self, rng, vol):
        h = vol.header
        lo = np.array(h.origin_mm.as_tuple())
        hi = lo + (np.array(h.dims) - 1) * np.array(h.spacing_mm)
        inside = [WorldPoint(*rng.uniform(lo, hi)) for _ in range(4)]
        partly = [WorldPoint(*rng.uniform(lo - 30.0, hi + 30.0)) for _ in range(4)]
        return inside + partly + [
            WorldPoint(*hi),  # exactly on the last sample
            WorldPoint(*lo),
            voxel_to_world((h.dims[0] - 1, 0.5, h.dims[2] - 1), h),
            WorldPoint(*(hi + 1000.0)),  # fully outside
            WorldPoint(*(lo - 1000.0)),
        ]

    def assert_same(self, vol, centres):
        for center in centres:
            got = extract_patch(vol, center).values
            assert got.shape == PATCH_SHAPE
            for oracle in (oracle_extract_patch, oracle_separable_extract_patch):
                want = oracle(vol, center).values
                assert got.tobytes() == want.tobytes(), (oracle, center)

    @pytest.mark.parametrize("element_type", ["uint8", "int16", "float32"])
    def test_seeded_volumes(self, element_type):
        rng = np.random.default_rng({"uint8": 21, "int16": 22, "float32": 23}[element_type])
        shape = (37, 29, 23)
        if element_type == "uint8":
            values = rng.integers(0, 256, size=shape)
        elif element_type == "int16":
            values = rng.integers(-1500, 1500, size=shape)
        else:
            values = rng.uniform(-2000.0, 2000.0, size=shape)
        vol = Volume.from_array(
            values, (0.83, 1.17, 2.5), WorldPoint(-11.3, 4.7, 101.9), element_type
        )
        self.assert_same(vol, self.centres(rng, vol))

    def test_one_voxel_thick_axis(self):
        rng = np.random.default_rng(24)
        values = rng.integers(-1000, 500, size=(40, 1, 30))
        vol = Volume.from_array(values, (0.7, 2.0, 1.1), WorldPoint(3.0, 0.0, 0.0), "int16")
        # patch samples sit half a step off the centre, so a centre half a
        # step above y = 0 puts one sample row exactly on the single y sample
        y = PATCH_SPACING_MM[1] / 2
        on_plane = [WorldPoint(17.0, y, 15.0), WorldPoint(3.0, y, 31.9)]
        for center in on_plane:
            assert extract_patch(vol, center).values.any()
        self.assert_same(vol, on_plane + self.centres(rng, vol))

    def test_memory_mapped_volume(self, tmp_path):
        rng = np.random.default_rng(25)
        values = rng.integers(-1000, 1000, size=(30, 30, 30))
        vol = Volume.from_array(values, (0.9, 0.9, 1.6), WorldPoint(0, 0, 0), "int16")
        loaded = load_volume(save_volume(vol, tmp_path / "v.hdr"))
        self.assert_same(loaded, self.centres(rng, loaded))

    @pytest.mark.parametrize("element_type", ["uint8", "float32"])
    def test_loaded_volume_of_each_type(self, tmp_path, element_type):
        # a loaded volume's boxes are read from its raw file; int16 is
        # test_memory_mapped_volume's
        rng = np.random.default_rng({"uint8": 41, "float32": 43}[element_type])
        values = {"uint8": rng.integers(0, 256, size=(33, 27, 21)),
                  "float32": rng.uniform(-2000.0, 2000.0, size=(33, 27, 21))}[element_type]
        vol = Volume.from_array(values, (0.83, 1.17, 2.5), WorldPoint(-11.3, 4.7, 101.9),
                                element_type)
        loaded = load_volume(save_volume(vol, tmp_path / "v.hdr"))
        assert loaded.data_path == tmp_path / "v.raw" and vol.data_path is None
        centres = self.centres(rng, loaded)
        for center in centres:
            got = extract_patch(loaded, center).values
            assert got.tobytes() == extract_patch(vol, center).values.tobytes(), center
        self.assert_same(loaded, centres)

    def test_volume_at_patch_spacing(self, tmp_path):
        # the benchmark's geometry: every pass gathers consecutive source rows
        rng = np.random.default_rng(27)
        values = rng.integers(-1100, 600, size=(90, 80, 70))
        vol = Volume.from_array(values, PATCH_SPACING_MM, WorldPoint(-31.0, 12.5, -40.25), "int16")
        loaded = load_volume(save_volume(vol, tmp_path / "v.hdr"))
        self.assert_same(loaded, self.centres(rng, loaded) + [
            voxel_to_world((44.5, 39.5, 34.5), loaded.header),  # on the grid, wholly inside
            voxel_to_world((44.25, 39.75, 34.1), loaded.header),  # off the grid, wholly inside
        ])

    def test_volume_smaller_than_the_patch_on_every_axis(self):
        # the inside samples are a run in the middle of every grid axis
        rng = np.random.default_rng(28)
        values = rng.uniform(-1500.0, 800.0, size=(11, 7, 5))
        vol = Volume.from_array(values, (1.1, 1.9, 3.3), WorldPoint(4.0, -2.0, 9.0), "float32")
        middle = voxel_to_world((5.0, 3.0, 2.0), vol.header)
        patch = extract_patch(vol, middle).values
        for axis in range(3):
            filled = np.flatnonzero(patch.any(axis=tuple(a for a in range(3) if a != axis)))
            assert 0 < filled[0] and filled[-1] < PATCH_SHAPE[axis] - 1
        self.assert_same(vol, [middle] + self.centres(rng, vol))

    def test_samples_exactly_on_last_voxel(self):
        # power-of-two spacings and a centre half a patch step off the grid
        # put patch sample 31 exactly on index n-1 of every axis, where the
        # upper corner is clamped onto the lower one
        rng = np.random.default_rng(26)
        dims = (20, 24, 12)
        spacing = (1.0, 0.5, 2.0)
        origin = WorldPoint(*[-(n - 1) * s for n, s in zip(dims, spacing)])
        center = WorldPoint(*[s / 2 for s in PATCH_SPACING_MM])
        for a in range(3):
            sample = (center.as_tuple()[a] + (31 - 31.5) * PATCH_SPACING_MM[a]
                      - origin.as_tuple()[a]) / spacing[a]
            assert sample == dims[a] - 1
        values = rng.uniform(-1000.0, 500.0, size=dims)
        vol = Volume.from_array(values, spacing, origin, "float32")
        assert extract_patch(vol, center).values[31, 31, 31] > 0.0
        self.assert_same(vol, [center])


def mapped_file_kb() -> int:
    """The file-backed and shared pages mapped into this process, in kB."""
    with open("/proc/self/status") as fh:
        return sum(int(line.split()[1]) for line in fh
                   if line.startswith(("RssFile:", "RssShmem:")))


def has_rss_file() -> bool:
    try:
        return "RssFile:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


class TestPatchReads:
    """A loaded volume's patches read their source boxes from the raw file,
    never through the memory map."""

    @pytest.mark.skipif(not has_rss_file(), reason="needs RssFile in /proc/self/status")
    def test_patches_map_no_volume_pages(self, tmp_path):
        nx, ny, nz = 512, 512, 64
        plane = (np.arange(nx * ny) % 1500 - 1000).astype("<i2")
        with open(tmp_path / "big.raw", "wb") as fh:
            for _ in range(nz):
                plane.tofile(fh)
        (tmp_path / "big.hdr").write_text(
            f"dims = {nx} {ny} {nz}\nspacing_mm = 0.7 0.7 1.25\norigin_mm = 0 0 0\n"
            "element_type = int16\ndata_file = big.raw\n")
        # one patch of an in-memory volume first, so nothing is loaded lazily later
        extract_patch(make_volume(np.zeros((30, 30, 30), "<i2")), WorldPoint(15, 15, 15))
        loaded = load_volume(tmp_path / "big.hdr")
        rng = np.random.default_rng(44)
        before = mapped_file_kb()
        for _ in range(8):
            center = WorldPoint(*rng.uniform((30.0, 30.0, 10.0), (330.0, 330.0, 70.0)))
            assert extract_patch(loaded, center).values.any()
        assert mapped_file_kb() - before < 4096

    def test_raw_file_cut_short_raises_input_error(self, tmp_path):
        # through the memory map the patch would die of SIGBUS, so it runs
        # in a child process
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "from trifuse.domain import WorldPoint\n"
            "from trifuse.errors import InputError\n"
            "from trifuse.volume import Volume, extract_patch, load_volume, save_volume\n"
            "vol = Volume.from_array(np.ones((128, 128, 64), '<i2'), (1.0, 1.0, 1.0),\n"
            "                        WorldPoint(0, 0, 0))\n"
            "loaded = load_volume(save_volume(vol, sys.argv[1]))\n"
            "os.truncate(sys.argv[1].replace('.hdr', '.raw'), 4096)\n"
            "try:\n"
            "    extract_patch(loaded, WorldPoint(64, 64, 32))\n"
            "except InputError as err:\n"
            "    print(err)\n"
        )
        done = run_python(code, tmp_path / "v.hdr")
        assert done.returncode == 0 and done.stderr == "", (done.returncode, done.stderr)
        assert done.stdout == (f"{tmp_path / 'v.raw'}: voxel data cut short since it was "
                               "loaded: read 0 of 12032 bytes at offset 10496\n")

    def test_a_volume_built_from_loaded_values_uses_its_values(self, tmp_path):
        rng = np.random.default_rng(45)
        vol = Volume.from_array(rng.integers(-1000, 500, size=(30, 26, 22)), (1.0, 1.2, 1.9),
                                WorldPoint(0, 0, 0), "int16")
        loaded = load_volume(save_volume(vol, tmp_path / "v.hdr"))
        flipped = Volume(header=loaded.header, values=loaded.values[::-1])
        center = WorldPoint(14.0, 15.0, 20.0)
        want = extract_patch(make_volume(vol.values[::-1].copy(), (1.0, 1.2, 1.9)), center)
        assert extract_patch(flipped, center).values.tobytes() == want.values.tobytes()
        assert extract_patch(flipped, center).values.tobytes() != (
            extract_patch(loaded, center).values.tobytes())


class TestSavePatchMatchesOracle:
    """The one-conversion patch writer against the earlier three-copy one."""

    @pytest.mark.parametrize("seed", [31, 32])
    def test_same_files(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-1200, 700, size=(45, 38, 27))
        vol = Volume.from_array(values, (0.77, 0.81, 1.9), WorldPoint(-20.1, 3.3, -7.75), "int16")
        for k, center in enumerate([WorldPoint(*rng.uniform(-10.0, 30.0, size=3)),
                                    WorldPoint(0.1, 1 / 3, -2.0 ** -20)]):
            patch = extract_patch(vol, center)
            assert patch.values.T.flags.c_contiguous  # x-fastest in memory, as on disk
            got = save_patch(patch, tmp_path / f"new{k}.hdr")
            want = oracle_save_patch(patch, tmp_path / f"old{k}.hdr")
            assert got.read_text().replace(f"new{k}", "x") == want.read_text().replace(f"old{k}", "x")
            assert (tmp_path / f"new{k}.raw").read_bytes() == (tmp_path / f"old{k}.raw").read_bytes()
            loaded = load_volume(got)
            assert loaded.values.dtype == np.dtype("<f4")
            assert np.array_equal(loaded.values, patch.values.astype(np.float32))
