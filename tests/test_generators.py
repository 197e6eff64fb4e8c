"""Tests for the workload generators and hierarchy stats."""

import math

import pytest

from repro.layout import generators
from repro.layout.layer import DEFAULT_LAYER
from repro.layout.flatten import flat_area, flatten_cell
from repro.layout.gdsii import dumps_gdsii
from repro.layout.stats import library_stats


def flat(lib):
    return flatten_cell(lib.top_cell())


class TestGrating:
    def test_line_count_and_area(self):
        lib = generators.grating(pitch=2.0, duty=0.5, lines=10, length=20.0)
        f = flat(lib)
        assert sum(map(len, f.values())) == 10
        assert flat_area(f) == pytest.approx(10 * 1.0 * 20.0)

    def test_duty_validation(self):
        with pytest.raises(ValueError):
            generators.grating(duty=1.5)

    def test_duty_sets_density(self):
        lib = generators.grating(pitch=2.0, duty=0.25, lines=10, length=20.0)
        assert flat_area(flat(lib)) == pytest.approx(10 * 0.5 * 20.0)


class TestContactArray:
    def test_flat_count(self):
        lib = generators.contact_array(columns=8, rows=4)
        assert sum(map(len, flat(lib).values())) == 32

    def test_hierarchical_variant_same_flat_geometry(self):
        flat_lib = generators.contact_array(columns=8, rows=4)
        hier_lib = generators.contact_array(columns=8, rows=4, hierarchical=True)
        assert flat_area(flat(flat_lib)) == pytest.approx(
            flat_area(flat(hier_lib))
        )
        assert len(hier_lib) == 2  # top + unit cell

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generators.contact_array(size=5.0, pitch=4.0)


class TestRandomLogic:
    def test_deterministic(self):
        a = generators.random_logic(seed=7)
        b = generators.random_logic(seed=7)
        assert flat_area(flat(a)) == pytest.approx(flat_area(flat(b)))

    def test_seeds_differ(self):
        a = generators.random_logic(seed=1)
        b = generators.random_logic(seed=2)
        assert flat_area(flat(a)) != pytest.approx(flat_area(flat(b)))

    def test_density_target_met(self):
        chip = 100.0
        lib = generators.random_logic(chip_size=chip, target_density=0.25, seed=3)
        raw_density = flat_area(flat(lib)) / (chip * chip)
        assert 0.25 <= raw_density <= 0.30

    def test_density_validation(self):
        with pytest.raises(ValueError):
            generators.random_logic(target_density=0.95)

    @pytest.mark.parametrize(
        "chip_size, seed",
        [
            (20.000000000000004, 0),  # track 4e-15 µm inside the chip edge
            (20.004, 0),  # 4 nm: above the GDSII grid, below the CIF grid
            (100.0, 1),  # track exactly on the right edge: zero width
            (100.0, 2),  # ... and on the top edge
        ],
    )
    def test_edge_clipping_leaves_no_sub_grid_feature(self, chip_size, seed):
        lib = generators.random_logic(
            chip_size=chip_size, target_density=0.25, seed=seed
        )
        for poly in flat(lib)[DEFAULT_LAYER]:
            x0, y0, x1, y1 = poly.bounding_box()
            assert min(x1 - x0, y1 - y0) >= generators.MIN_FEATURE
            assert max(x1, y1) <= chip_size

    def test_default_geometry_unchanged(self):
        # The seed-0 chip is every logic golden's and bench's input.
        lib = generators.random_logic()
        assert sum(map(len, flat(lib).values())) == 90
        assert flat_area(flat(lib)) == pytest.approx(2019.7667485629122)


#: ``(instance_count, flat_polygons, flat_vertices, compaction_ratio)``
#: per library, as the per-placement walk counted them.
STATS = {
    "grating": (1, 50, 200, 1.0),
    "contacts": (1, 1024, 4096, 1.0),
    "logic": (1, 90, 360, 1.0),
    "memory": (4113, 12288, 49152, 4096.0),
    "fzp": (1, 20, 2560, 1.0),
    "serpentine": (1, 1, 84, 1.0),
    "density_ladder": (1, 50, 200, 1.0),
    "line_and_pad": (1, 2, 8, 1.0),
    "checkerboard": (1, 32, 128, 1.0),
    "memory_4x4": (4113, 12288, 49152, 4096.0),
    "contacts_hierarchical": (1025, 1024, 4096, 1024.0),
}


def stats_inputs():
    yield from generators.all_workloads()
    yield "memory_4x4", generators.memory_array(blocks=(4, 4))
    yield "contacts_hierarchical", generators.contact_array(hierarchical=True)


@pytest.mark.parametrize(
    "lib, expected", [pytest.param(lib, STATS[n], id=n) for n, lib in stats_inputs()]
)
def test_library_stats_counts_the_expansion(lib, expected):
    stats = library_stats(lib)
    counted = (stats.instance_count, stats.flat_polygons, stats.flat_vertices)
    assert (*counted, stats.compaction_ratio) == expected


class TestMemoryArray:
    def test_hierarchy_shape(self):
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 3))
        stats = library_stats(lib)
        assert stats.cell_count == 3
        assert stats.depth == 3
        assert stats.flat_polygons == 3 * 4 * 4 * 2 * 3

    def test_compaction_ratio_grows_with_array(self):
        small = library_stats(generators.memory_array(words=2, bits=2, blocks=(2, 2)))
        large = library_stats(generators.memory_array(words=8, bits=8, blocks=(4, 4)))
        assert large.compaction_ratio > small.compaction_ratio


class TestFresnelZonePlate:
    def test_zone_radii(self):
        wavelength, focal = 0.5, 100.0
        lib = generators.fresnel_zone_plate(
            wavelength=wavelength, focal_length=focal, zones=6
        )
        box = lib.top_cell().bounding_box()
        r_max_expected = math.sqrt(
            6 * wavelength * focal + (6 * wavelength / 2) ** 2
        )
        assert box[2] == pytest.approx(r_max_expected, rel=1e-3)

    def test_alternate_zones_only(self):
        lib = generators.fresnel_zone_plate(zones=8)
        # 4 opaque zones, each as two half-annuli.
        assert sum(map(len, flat(lib).values())) == 8

    def test_needs_two_zones(self):
        with pytest.raises(ValueError):
            generators.fresnel_zone_plate(zones=1)


class TestOtherWorkloads:
    def test_serpentine_is_single_polygon(self):
        lib = generators.serpentine(turns=6)
        assert sum(map(len, flat(lib).values())) == 1

    def test_serpentine_pitch_validation(self):
        with pytest.raises(ValueError):
            generators.serpentine(wire_width=3.0, pitch=4.0)

    def test_density_ladder_pads(self):
        lib = generators.density_ladder(densities=(0.2, 0.8))
        f = flat(lib)
        assert flat_area(f) > 0
        # Second pad is 4x denser than the first.
        polys = [p for v in f.values() for p in v]
        xs = sorted(set(round(p.bounding_box()[0]) for p in polys))
        assert len(xs) > 2

    def test_density_ladder_validation(self):
        with pytest.raises(ValueError):
            generators.density_ladder(densities=(1.5,))

    def test_line_and_pad_geometry(self):
        lib = generators.isolated_line_with_pad(
            line_width=0.5, line_length=30.0, pad_size=20.0
        )
        f = flat(lib)
        assert sum(map(len, f.values())) == 2
        assert flat_area(f) == pytest.approx(400.0 + 15.0)

    def test_checkerboard_count(self):
        lib = generators.checkerboard(cells=4)
        assert sum(map(len, flat(lib).values())) == 8

    def test_all_workloads_nonempty(self):
        for name, lib in generators.all_workloads():
            assert flat_area(flat(lib)) > 0, name

    def test_all_workloads_is_the_table_built(self):
        suite = generators.all_workloads()
        assert [name for name, _ in suite] == list(generators.WORKLOADS)
        for name, lib in suite:
            assert dumps_gdsii(lib) == dumps_gdsii(generators.WORKLOADS[name]())

    def test_all_workloads_seeds_the_logic_chip(self):
        seeded = dict(generators.all_workloads(seed=5))["logic"]
        assert dumps_gdsii(seeded) == dumps_gdsii(generators.random_logic(seed=5))
        assert dumps_gdsii(seeded) != dumps_gdsii(generators.random_logic())
