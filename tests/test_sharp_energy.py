"""Perimeter, sharp energy, and rescaling identity tests."""

import numpy as np
import pytest

from okpattern.sharp_energy import (
    EnergyBreakdown,
    perimeter,
    scaling_check,
    sharp_energy,
    total_variation_perimeter,
)
from okpattern.spectral import cell_average_potential, nonlocal_energy
from okpattern.torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    TiledShape,
    rasterize,
)


def test_analytic_perimeters():
    assert perimeter(Lamella(axis=0, center=0.3, halfwidth=0.1)) == 2.0
    assert perimeter(Ball((0.5, 0.5), 0.25)) == pytest.approx(2 * np.pi * 0.25)
    assert perimeter(Ball((0.5, 0.5, 0.5), 0.25)) == pytest.approx(
        4 * np.pi * 0.25**2
    )  # ~0.785398
    assert perimeter(Cylinder(axis=2, center=(0.5, 0.5), radius=0.2)) == pytest.approx(
        2 * np.pi * 0.2
    )
    assert perimeter(TiledShape(Lamella(), 4)) == 8.0


def test_tv_perimeter_axis_aligned_exact():
    for sizes in ((64,), (64, 64), (16, 16, 16)):
        spec = GridSpec(sizes)
        u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
        assert total_variation_perimeter(u) == pytest.approx(2.0, abs=1e-12)
    # anisotropy correction: unequal per-axis sample counts
    spec = GridSpec((64, 16))
    u = rasterize(Lamella(axis=1, center=0.5, halfwidth=0.25), spec)
    assert total_variation_perimeter(u) == pytest.approx(2.0, abs=1e-12)


def test_tv_perimeter_rejects_non_indicator():
    spec = GridSpec((16, 16))
    with pytest.raises(ValueError):
        total_variation_perimeter(ScalarField(spec, np.zeros(spec.sizes)))


def test_sharp_energy_lamella_values():
    spec = GridSpec((256, 256))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    e0 = sharp_energy(shape, 0.0, spec)
    assert e0.total == pytest.approx(2.0)
    e48 = sharp_energy(shape, 48.0, spec)
    assert e48.total == pytest.approx(3.0, abs=5e-5)
    assert e48.total == e48.perimeter + 48.0 * e48.nonlocal_term


def test_sharp_energy_rejects_non_indicator_field():
    spec = GridSpec((32, 32))
    x = spec.center_mesh()[0]
    u = ScalarField(spec, np.broadcast_to(np.cos(2 * np.pi * x), spec.sizes).copy())
    with pytest.raises(TypeError):
        sharp_energy(u, 1.0, spec)
    with pytest.raises(ValueError):
        sharp_energy(Lamella(), -1.0, spec)


def test_gamma_monotonicity_affine():
    spec = GridSpec((64, 64))
    shape = Ball((0.5, 0.5), 0.3)
    nl = sharp_energy(shape, 0.0, spec).nonlocal_term
    assert nl >= 0
    totals = [sharp_energy(shape, g, spec).total for g in (0.0, 1.0, 2.0, 5.0)]
    for g_lo, g_hi, t_lo, t_hi in zip((0, 1, 2), (1, 2, 5), totals, totals[1:]):
        assert (t_hi - t_lo) / (g_hi - g_lo) == pytest.approx(nl, rel=1e-12)


def test_scaling_check_identity_k1_exact_zero():
    spec = GridSpec((64, 64))
    rep = scaling_check(Lamella(axis=0, center=0.5, halfwidth=0.25), 1.0, 1, spec)
    assert rep.perimeter_error == 0.0
    assert rep.nonlocal_error == 0.0
    assert rep.total_error == 0.0


def test_scaling_check_closed_form_values():
    spec = GridSpec((512, 8))
    rep = scaling_check(Lamella(axis=0, center=0.5, halfwidth=0.25), 1.0, 2, spec)
    # F(E^2) = 2[2 + 2^-3 (1/48)] = 4 + 1/192; NL(E^2) = 1/192
    assert rep.total_lhs == pytest.approx(4.0 + 1.0 / 192, abs=1e-6)
    assert rep.nonlocal_lhs == pytest.approx(1.0 / 192, abs=1e-8)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_scaling_suite_tolerances(gamma, k):
    spec = GridSpec((64, 64))
    for shape in (Lamella(axis=0, center=0.5, halfwidth=0.25), Ball((0.5, 0.5), 0.3)):
        rep = scaling_check(shape, gamma, k, spec)
        assert rep.nonlocal_error <= 1e-12
        assert rep.total_error <= 1e-3
        assert rep.perimeter_error <= 1e-12


def test_shrinking_difference_continuity():
    # |NL(w) - NL(w')| <= 2 (||v_w||inf + ||v_w'||inf) |2w - 2w'|
    spec = GridSpec((256,))
    w = 0.25
    for wp in (0.24, 0.22, 0.2):
        e = rasterize(Lamella(axis=0, center=0.5, halfwidth=w), spec)
        f = rasterize(Lamella(axis=0, center=0.5, halfwidth=wp), spec)
        lhs = abs(nonlocal_energy(e) - nonlocal_energy(f))
        bound = (
            2.0
            * (
                np.max(np.abs(cell_average_potential(e).values))
                + np.max(np.abs(cell_average_potential(f).values))
            )
            * float(np.mean(e.values != f.values))
        )
        assert lhs <= bound + 1e-15
