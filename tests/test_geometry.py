"""Mesh quadrature, curvature, and criticality residual tests."""

import numpy as np
import pytest

from okpattern.geometry import (
    el_residual,
    fit_ball,
    fit_cylinder,
    fit_lamella,
    interface_mesh,
)
from okpattern.torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    TiledShape,
    rasterize,
)
from okpattern.spectral import sample_potential


def test_lamella_mesh_weights_and_normals():
    mesh = interface_mesh(Lamella(axis=0, center=0.5, halfwidth=0.25), 16, dim=2)
    assert mesh.total_weight == pytest.approx(2.0, abs=1e-12)
    normals = mesh.all_normals()
    assert np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-12)
    assert set(np.unique(normals[:, 0])) == {-1.0, 1.0}


def test_ball_mesh_weights():
    mesh2 = interface_mesh(Ball((0.5, 0.5), 0.3), 64)
    assert mesh2.total_weight == pytest.approx(2 * np.pi * 0.3, rel=1e-12)
    mesh3 = interface_mesh(Ball((0.5, 0.5, 0.5), 0.25), 16)
    assert mesh3.total_weight == pytest.approx(4 * np.pi * 0.25**2, rel=1e-12)
    norms = np.linalg.norm(mesh3.all_normals(), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_cylinder_mesh_weights_and_radial_normals():
    shape = Cylinder(axis=2, center=(0.5, 0.5), radius=0.2)
    mesh = interface_mesh(shape, 16)
    assert mesh.total_weight == pytest.approx(2 * np.pi * 0.2, rel=1e-12)
    normals = mesh.all_normals()
    assert np.max(np.abs(normals[:, 2])) == 0.0


def test_mesh_resolution_and_variant_errors():
    with pytest.raises(ValueError):
        interface_mesh(Lamella(), 4, dim=2)
    with pytest.raises(ValueError):
        interface_mesh(Cylinder(), 16, dim=2)
    with pytest.raises(ValueError):
        interface_mesh(Ball((0.5,), 0.2), 16)
    # the sphere's polar extension f(2 pi - theta, phi + pi) needs phi + pi on a node
    with pytest.raises(ValueError):
        interface_mesh(Ball((0.5, 0.5, 0.5), 0.25), 17)


def chart_mean_curvatures(shape, dim):
    """The distinct Chart.mean_curv values, the curvature el_residual reads."""
    return sorted({c.mean_curv for c in interface_mesh(shape, 16, dim).charts})


def test_mean_curvature_values():
    assert chart_mean_curvatures(Lamella(axis=0, center=0.5, halfwidth=0.25), 2) == [0.0]
    assert chart_mean_curvatures(Ball((0.5, 0.5), 0.25), 2) == pytest.approx([4.0])
    assert chart_mean_curvatures(Ball((0.5, 0.5, 0.5), 0.25), 3) == pytest.approx([8.0])
    assert chart_mean_curvatures(Cylinder(axis=2, center=(0.5, 0.5), radius=0.2), 3) == pytest.approx([5.0])


def test_sphere_tangential_derivative_exact_for_harmonics():
    mesh = interface_mesh(Ball((0.5, 0.5, 0.5), 0.25), 16)
    chart = mesh.charts[0]
    # phi = nu . e_z is a degree-1 harmonic: |grad phi|^2 = (1 - mu^2)/r^2
    phi = chart.normals[..., 2]
    grad_sq = chart.tangential_gradient_sq(phi)
    mu = chart.normals[..., 2]
    expected = (1.0 - mu**2) / 0.25**2
    assert np.max(np.abs(grad_sq - expected)) < 1e-9


def test_el_residual_lamella_critical_for_all_gamma():
    spec = GridSpec((128, 128))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    for gamma in (0.0, 1.0, 10.0):
        rep = el_residual(shape, gamma, spec, resolution=32)
        assert rep.residual_sup <= 1e-8
        assert rep.grad_h_sup <= 1e-8
        if gamma == 0.0:
            assert rep.lambda_ == pytest.approx(0.0, abs=1e-12)


def test_el_residual_ball_area_functional():
    spec = GridSpec((64, 64))
    rep = el_residual(Ball((0.5, 0.5), 0.25), 0.0, spec, resolution=32)
    assert rep.residual_sup <= 1e-10
    assert rep.lambda_ == pytest.approx(4.0, abs=1e-8)  # constant curvature 1/r
    spec3 = GridSpec((32, 32, 32))
    rep3 = el_residual(Ball((0.5, 0.5, 0.5), 0.25), 0.0, spec3, resolution=12)
    assert rep3.residual_sup <= 1e-10
    assert rep3.lambda_ == pytest.approx(8.0, abs=1e-8)


def test_el_residual_invariant_under_grid_translation():
    spec = GridSpec((64, 64))
    gamma = 2.0
    rep1 = el_residual(Ball((0.5, 0.5), 0.3), gamma, spec, resolution=48)
    rep2 = el_residual(Ball((0.25, 0.75), 0.3), gamma, spec, resolution=48)
    assert rep1.lambda_ == pytest.approx(rep2.lambda_, rel=1e-10)
    assert rep1.residual_sup == pytest.approx(rep2.residual_sup, rel=1e-6, abs=1e-12)


def test_el_residual_tiled_lamella_grad_bound():
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    gamma_bar = 1.0
    # gamma_k = gamma_bar k^-3 on the tiled set; flat interfaces keep the
    # tangential gradient of H + 4 gamma v at zero
    sups = []
    for k in (1, 2, 4):
        rep = el_residual(TiledShape(shape, k), gamma_bar / k**3, spec, resolution=16)
        assert rep.k == k
        sups.append(rep.grad_h_sup)
    assert max(k * s for k, s in zip((1, 2, 4), sups)) <= 1e-8


def test_mesh_weight_total_for_tiled_shape():
    mesh = interface_mesh(TiledShape(Lamella(axis=0, center=0.5, halfwidth=0.25), 2), 8, dim=2)
    assert mesh.total_weight == pytest.approx(4.0, abs=1e-12)


def test_fit_lamella_and_ball_round_trip():
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.375, halfwidth=0.25)
    fitted = fit_lamella(rasterize(shape, spec), axis=0)
    assert fitted.center == pytest.approx(0.375, abs=1e-9)
    assert fitted.halfwidth == pytest.approx(0.25, abs=1e-9)

    ball = Ball((0.5, 0.5), 0.3)
    fitted_ball = fit_ball(rasterize(ball, spec))
    assert fitted_ball.center[0] == pytest.approx(0.5, abs=1e-6)
    assert fitted_ball.center[1] == pytest.approx(0.5, abs=1e-6)
    assert fitted_ball.radius == pytest.approx(0.3, abs=5e-3)


def test_fit_cylinder_recovers_off_centre_raster():
    # centres on cell edges make the raster mirror-symmetric, so the circular
    # centroid is exact; the last one straddles the torus seam
    spec = GridSpec((32, 32, 32))
    for axis, center in ((0, (0.3125, 0.6875)), (2, (0.3125, 0.6875)), (1, (0.96875, 0.0))):
        fitted = fit_cylinder(rasterize(Cylinder(axis, center, 0.2), spec), axis)
        assert fitted.axis == axis
        offset = np.mod(np.array(fitted.center) - center + 0.5, 1.0) - 0.5
        assert np.max(np.abs(offset)) <= 1e-9
        assert fitted.radius == pytest.approx(0.2, abs=5e-3)
    with pytest.raises(ValueError):
        fit_cylinder(ScalarField(spec, -np.ones(spec.sizes), "indicator"), 2)


def per_chart_el_residual(shape, gamma, spec, resolution):
    """Oracle: the criticality residual with two potential samples per chart
    and the sums and maxima accumulated chart by chart."""
    mesh = interface_mesh(shape, resolution, spec.dim)
    u = rasterize(shape, spec)
    weighted_sum = weight = grad_sup = 0.0
    per_chart = []
    for chart in mesh.charts:
        pts = chart.points.reshape(-1, spec.dim)
        g = chart.mean_curv + 4.0 * gamma * sample_potential(u, pts).reshape(chart.grid_shape)
        per_chart.append(g)
        weighted_sum += float(np.sum(chart.weights * g))
        weight += float(np.sum(chart.weights))
        gv = sample_potential(u, pts, gradient=True).reshape(chart.points.shape)
        tang = gv - np.sum(gv * chart.normals, axis=-1)[..., None] * chart.normals
        grad_sup = max(grad_sup, 4.0 * gamma * float(np.max(np.linalg.norm(tang, axis=-1))))
    lam = weighted_sum / weight
    return lam, max(float(np.max(np.abs(g - lam))) for g in per_chart), grad_sup


@pytest.mark.parametrize(
    "shape, sizes, gamma",
    [
        # off-centre so that the two faces see different potentials
        (TiledShape(Lamella(axis=0, center=0.3, halfwidth=0.2), 4), (64, 64), 1.0),
        (Ball((0.43, 0.61), 0.27), (64, 64), 3.0),
        (Cylinder(axis=2, center=(0.41, 0.5), radius=0.25), (32, 32, 32), 1.0),
    ],
    ids=["tiled-lamella", "disk", "cylinder"],
)
def test_batched_el_residual_matches_per_chart_sampling(shape, sizes, gamma):
    spec = GridSpec(sizes)
    rep = el_residual(shape, gamma, spec, resolution=16)
    lam, residual, grad_sup = per_chart_el_residual(shape, gamma, spec, 16)
    assert residual > 1e-6
    for got, want in ((rep.lambda_, lam), (rep.residual_sup, residual), (rep.grad_h_sup, grad_sup)):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_criticality_report_csv():
    spec = GridSpec((32, 32))
    rep = el_residual(Lamella(axis=0, center=0.5, halfwidth=0.25), 1.0, spec, resolution=8)
    assert len(rep.csv_row().split(",")) == len(rep.CSV_HEADER.split(","))


def test_lamella_mesh_dim3():
    mesh = interface_mesh(Lamella(axis=1, center=0.5, halfwidth=0.2), 8, dim=3)
    assert mesh.total_weight == pytest.approx(2.0, abs=1e-12)
    assert all(c.points.shape == (8, 8, 3) for c in mesh.charts)


def test_mean_curvature_tiled_shape():
    # every copy of the radius-1/8 disk carries twice the parent's curvature
    assert chart_mean_curvatures(TiledShape(Ball((0.5, 0.5), 0.25), 2), 2) == pytest.approx([8.0])
