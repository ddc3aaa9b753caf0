"""Grid, shape, rasterization, distance, tiling, and field-file tests."""

import math

import numpy as np
import pytest

from okpattern.torus_field import (
    Ball,
    Cylinder,
    FieldFormatError,
    GridSpec,
    Lamella,
    ScalarField,
    TiledShape,
    alpha_distance,
    periodize,
    rasterize,
    read_field,
    subsample,
    tanh_profile,
    tile,
    write_field,
)


def test_gridspec_validation():
    GridSpec((8,))
    GridSpec((16, 8))
    with pytest.raises(ValueError):
        GridSpec((7, 8))  # odd
    with pytest.raises(ValueError):
        GridSpec((2, 8))  # too small
    with pytest.raises(ValueError):
        GridSpec((8, 8, 8, 8))  # dim 4


def test_scalarfield_kind_invariants():
    spec = GridSpec((8, 8))
    ScalarField(spec, np.ones(spec.sizes), "indicator")
    with pytest.raises(ValueError):
        ScalarField(spec, 0.5 * np.ones(spec.sizes), "indicator")
    with pytest.raises(ValueError):
        ScalarField(spec, 1.2 * np.ones(spec.sizes), "phase")
    nan = np.zeros(spec.sizes)
    nan[2, 3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(spec, nan, "phase")
    f = ScalarField(spec, np.zeros(spec.sizes))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0  # frozen


def test_rasterize_half_volume_lamella_mean_zero():
    spec = GridSpec((64, 64))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    assert u.mean == 0.0
    assert u.kind == "indicator"


def test_rasterize_ball_volume_converges():
    spec = GridSpec((64, 64, 64))
    u = rasterize(Ball(center=(0.5, 0.5, 0.5), radius=0.25), spec)
    expected = 2.0 * (4.0 / 3.0) * np.pi * 0.25**3 - 1.0
    assert abs(u.mean - expected) < 5e-3


def test_rasterize_point_sampling_consistent_across_resolutions():
    # centers sit at (j+1/2)/n, so grids share cell centers at odd refinement
    # ratios: (j+1/2)/8 = (3j+1+1/2)/24
    shape = Ball(center=(0.375, 0.625), radius=0.3)
    coarse = rasterize(shape, GridSpec((8, 8)))
    fine = rasterize(shape, GridSpec((24, 24)))
    assert np.array_equal(coarse.values, fine.values[1::3, 1::3])


def test_rasterize_dimension_mismatch():
    with pytest.raises(ValueError):
        rasterize(Lamella(axis=2), GridSpec((8, 8)))
    with pytest.raises(ValueError):
        rasterize(Ball(center=(0.5, 0.5, 0.5)), GridSpec((8, 8)))
    with pytest.raises(ValueError):
        rasterize(Cylinder(), GridSpec((8, 8)))


def test_tanh_profile_values():
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    eps = 0.05
    u = tanh_profile(shape, spec, eps)
    assert u.kind == "phase"
    # at x = (0.5 + h/2, .) the signed distance is 0.25 - h/2
    h = 1.0 / 64
    i = 32  # center (32.5)/64 = 0.5078
    expected = np.tanh((0.25 - h / 2) / eps)
    assert np.allclose(u.values[i, :], expected, atol=1e-12)
    with pytest.raises(ValueError):
        tanh_profile(shape, spec, 0.01)  # below 2/min(n)


def test_tanh_profile_saturates_and_vanishes_on_boundary():
    spec = GridSpec((256,))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    u = tanh_profile(shape, spec, 2.0 / 256)
    # off-boundary points saturate to +-1 as eps -> 0
    assert u.values[128] > 0.999
    assert u.values[0] < -0.999
    # analytic signed distance of zero gives exactly zero
    d = shape.signed_distance([np.array([0.75])])
    assert np.tanh(d / 0.05) == 0.0


def test_alpha_distance_identity_and_shift():
    spec = GridSpec((32, 32))
    u = rasterize(Ball(center=(0.5, 0.5), radius=0.3), spec)
    assert alpha_distance(u, u) == 0.0
    shifted = ScalarField(spec, np.roll(u.values, (3, 5), axis=(0, 1)), "indicator")
    assert alpha_distance(u, shifted) == 0.0


def test_scalar_field_copies_an_array_its_caller_can_still_write():
    spec = GridSpec((4, 6))
    writeable = np.zeros(spec.sizes)
    base = np.zeros(spec.sizes)
    view = base[:]
    view.flags.writeable = False  # a read-only view of a writeable base
    fields = [ScalarField(spec, writeable), ScalarField(spec, view)]
    writeable[0, 0] = base[0, 0] = 1.0
    for f in fields:
        assert f.values[0, 0] == 0.0 and not f.values.flags.writeable
    # a frozen array that owns its memory is taken as it is
    frozen = np.zeros(spec.sizes)
    frozen.flags.writeable = False
    assert ScalarField(spec, frozen).values is frozen


@pytest.mark.parametrize("sizes", [(8,), (6, 10), (4, 6, 8)])
def test_scalar_field_mean_is_bitwise_np_mean(sizes):
    values = np.random.default_rng(len(sizes)).standard_normal(sizes) + 0.1
    f = ScalarField(GridSpec(sizes), values)
    assert f.mean == float(np.mean(values))


def test_alpha_distance_of_equal_sets_needs_no_fft(monkeypatch):
    # equal sets read 0.0 without a transform; a grid-translated copy still
    # takes the FFT path and reads 0.0 there
    calls = []
    rfftn = np.fft.rfftn

    def spy(*args, **kwargs):
        calls.append(1)
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    spec = GridSpec((32, 32))
    u = rasterize(Ball(center=(0.5, 0.5), radius=0.3), spec)
    copy = ScalarField(spec, u.values.copy(), "indicator")
    distance = alpha_distance(u, copy)
    assert distance == 0.0 and math.copysign(1.0, distance) == 1.0
    assert calls == []
    shifted = ScalarField(spec, np.roll(u.values, (3, 5), axis=(0, 1)), "indicator")
    assert alpha_distance(u, shifted) == 0.0
    assert len(calls) == 2


def test_alpha_distance_nested_slabs():
    # n=160 puts both slab boundaries on cell edges: |E^F| = 2(w - w') exactly
    spec = GridSpec((160,))
    e = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    f = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.20), spec)
    assert alpha_distance(e, f) == pytest.approx(0.10, abs=1e-14)


def test_alpha_distance_pseudometric_properties():
    rng = np.random.default_rng(7)
    spec = GridSpec((16, 16))
    fields = [
        ScalarField(spec, np.where(rng.random(spec.sizes) < 0.5, 1.0, -1.0), "indicator")
        for _ in range(3)
    ]
    a, b, c = fields
    assert alpha_distance(a, b) == pytest.approx(alpha_distance(b, a), abs=1e-14)
    assert alpha_distance(a, c) <= alpha_distance(a, b) + alpha_distance(b, c) + 1e-14
    with pytest.raises(ValueError):
        alpha_distance(a, rasterize(Lamella(), GridSpec((32, 32))))


def complex_fft_alpha_distance(e: ScalarField, f: ScalarField) -> float:
    """Oracle: the cross-correlation through three full complex FFTs."""
    corr = np.fft.ifftn(np.fft.fftn(e.values) * np.conj(np.fft.fftn(f.values))).real
    return float(np.rint((e.spec.cells - corr) / 2.0).min()) * e.spec.cell_volume


@pytest.mark.parametrize("sizes", [(6,), (48, 40), (16, 24, 20), (8, 6, 10)])
def test_alpha_distance_real_fft_equals_complex_fft(sizes):
    rng = np.random.default_rng(sum(sizes))
    spec = GridSpec(sizes)
    for fill in (0.1, 0.5, 0.9):
        e, f = (
            ScalarField(spec, np.where(rng.random(sizes) < fill, 1.0, -1.0), "indicator")
            for _ in range(2)
        )
        assert alpha_distance(e, f) == complex_fft_alpha_distance(e, f)


def test_tile_identity_and_unrolled_definition():
    spec = GridSpec((64, 64))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    assert np.array_equal(tile(u, 1).values, u.values)
    t = tile(u, 2)
    # two slabs of halfwidth 0.125 centered at x1 in {0.25, 0.75}
    x = spec.centers(0)
    inside = np.minimum(np.abs(x - 0.25), np.abs(x - 0.75)) <= 0.125
    assert np.array_equal(t.values[:, 0], np.where(inside, 1.0, -1.0))
    with pytest.raises(ValueError):
        tile(u, 3)


def test_tile_mean_preserved():
    spec = GridSpec((64, 64))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    assert tile(u, 2).mean == u.mean
    assert tile(u, 4).mean == u.mean
    # curved boundary: preserved up to a few boundary cells of the sublattice
    b = rasterize(Ball(center=(0.5, 0.5), radius=0.3), spec)
    assert abs(tile(b, 2).mean - b.mean) < 8.0 / 64


def test_tile_equals_periodize_of_subsample():
    rng = np.random.default_rng(3)
    spec = GridSpec((24, 24))
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    t = tile(u, 3)
    p = periodize(subsample(u, 3), 3)
    assert np.array_equal(t.values, p.values)
    assert p.spec == spec


def test_rasterize_tile_commutation():
    # boundaries placed away from cell centers on both grids
    spec = GridSpec((64, 64))
    shape = Lamella(axis=1, center=0.5, halfwidth=0.25)
    for k in (2, 4):
        tiled = tile(rasterize(shape, spec), k)
        direct = rasterize(TiledShape(shape, k), spec)
        assert np.array_equal(tiled.values, direct.values)


def test_field_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    spec = GridSpec((8, 12, 6))
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    path = tmp_path / "field.okf"
    write_field(u, path)
    v = read_field(path)
    assert v.spec == u.spec and v.kind == u.kind
    assert np.array_equal(v.values, u.values)


def test_field_file_validation(tmp_path):
    spec = GridSpec((8, 8))
    u = rasterize(Lamella(), spec)
    path = tmp_path / "field.okf"
    write_field(u, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.okf"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(bad_magic)

    truncated = tmp_path / "trunc.okf"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(truncated)

    bad_kind = tmp_path / "kind.okf"
    bad_kind.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(FieldFormatError, match="kind"):
        read_field(bad_kind)

    # well-formed headers and payload lengths whose grid or values fail
    # GridSpec or ScalarField: odd and zero sizes, a non +-1 indicator, NaN phase
    phase = tmp_path / "phase.okf"
    write_field(ScalarField(spec, np.zeros(spec.sizes), "phase"), phase)
    phase_raw = phase.read_bytes()
    cases = {
        "odd": raw[:8] + (7).to_bytes(4, "little") + raw[12:16] + bytes(8 * 7 * 8),
        "zero": raw[:8] + (0).to_bytes(4, "little") + raw[12:16],
        "indicator": raw[:16] + np.full(64, 0.5).astype("<f8").tobytes(),
        "nan-phase": phase_raw[:16] + np.full(64, np.nan).astype("<f8").tobytes(),
    }
    for name, data in cases.items():
        bad = tmp_path / f"{name}.okf"
        bad.write_bytes(data)
        with pytest.raises(FieldFormatError):
            read_field(bad)


def test_indicator_mean_bounds():
    rng = np.random.default_rng(5)
    spec = GridSpec((16, 16))
    for _ in range(5):
        u = ScalarField(
            spec, np.where(rng.random(spec.sizes) < rng.random(), 1.0, -1.0), "indicator"
        )
        assert -1.0 <= u.mean <= 1.0


def test_rasterize_cylinder_volume():
    spec = GridSpec((48, 48, 48))
    u = rasterize(Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), spec)
    expected = 2 * np.pi * 0.25**2 - 1.0
    assert abs(u.mean - expected) < 5e-3
    # constant along the cylinder axis
    assert np.all(u.values == u.values[:, :, :1])


def test_negative_or_out_of_range_axis_rejected():
    # a negative axis would index the last grid axis in rasterize while the
    # charts are built for the axis as given
    with pytest.raises(ValueError, match="lamella axis"):
        Lamella(axis=-1)
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="cylinder axis"):
            Cylinder(axis=axis)
    assert Cylinder(axis=0).cross_axes() == (1, 2)


def test_gridspec_memory_budget():
    with pytest.raises(ValueError, match="budget"):
        GridSpec((1024, 1024, 1024))


def test_field_file_size_overflow(tmp_path):
    spec = GridSpec((8, 8))
    u = rasterize(Lamella(), spec)
    path = tmp_path / "f.okf"
    write_field(u, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (1 << 31).to_bytes(4, "little")  # absurd first size
    big = tmp_path / "big.okf"
    big.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="overflow"):
        read_field(big)
