"""Quadratic form, mode matrix, pencil, restriction and threshold tests.

Kernel closed forms are validated against direct lattice-sum oracles here;
the full 27-combination mode-vs-grid equivalence sweep lives in the
acceptance module.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from okpattern.geometry import interface_mesh
from okpattern.spectral import get_workspace, sample_potential
from okpattern.stability import (
    SurfaceFunction,
    _chart_stiffness,
    _constraint_reflectors,
    _green_matrix,
    _normal_potential_slope,
    _pencil_blocks,
    _pencil_min,
    _restrict,
    _splat_geometry,
    _symmetry_order,
    lamella_mode_matrix,
    lamella_potential_slope,
    lamella_threshold,
    lamella_wave_mode,
    min_eigenvalue,
    mode_scan_min_eigenvalue,
    quad_form,
    screened_green_coupling,
    translation_mode,
    zero_mean_green_kernel,
)
from okpattern.torus_field import Ball, Cylinder, GridSpec, Lamella, TiledShape, rasterize

FOUR_PI_SQ = 4 * np.pi**2


def lattice_sum_oracle(q_sq: float, d: float, cutoff: int = 3_000_000) -> float:
    """Direct evaluation of sum_xi e^{2 pi i xi d} / (4 pi^2 (xi^2 + q_sq)).

    Truncation leaves an O(1/cutoff) tail, about 2e-8 absolute here.
    """
    xi = np.arange(1, cutoff + 1, dtype=float)
    total = 2.0 * np.sum(np.cos(2 * np.pi * xi * d) / (FOUR_PI_SQ * (xi**2 + q_sq)))
    if q_sq > 0:
        total += 1.0 / (FOUR_PI_SQ * q_sq)
    return total


def test_screened_kernel_against_lattice_sum():
    for q_sq, d in [(1.0, 0.0), (1.0, 0.5), (4.0, 0.3), (9.0, 0.1), (2.0, 0.45)]:
        assert screened_green_coupling(q_sq, d) == pytest.approx(
            lattice_sum_oracle(q_sq, d), abs=5e-8
        )
    # array inputs, past |q| = 226 where cosh(2 pi |q| / 2) overflows a float
    q_sq = np.array([[1.0], [9.0], [230.0**2]])
    d = np.array([0.0, 0.1, 0.5, 0.9])
    got = screened_green_coupling(q_sq, d)
    assert got.shape == (3, 4)
    for i, j in np.ndindex(*got.shape):
        assert got[i, j] == pytest.approx(lattice_sum_oracle(q_sq[i, 0], d[j]), abs=5e-8)


def test_zero_mean_kernel_against_lattice_sum():
    for d in (0.0, 0.2, 0.5, 0.77):
        assert zero_mean_green_kernel(d) == pytest.approx(
            lattice_sum_oracle(0.0, d), abs=5e-8
        )


def test_potential_slope_is_kernel_difference():
    # d_nu v = 2 [G0(2w) - G0(0)], the identity behind translation nullity
    for w in (0.15, 0.25, 0.35):
        assert lamella_potential_slope(w) == pytest.approx(
            2 * (zero_mean_green_kernel(2 * w) - zero_mean_green_kernel(0.0)), abs=1e-14
        )


def test_mode_matrix_structure():
    m0 = lamella_mode_matrix(2, 0.0, 0.25)
    assert np.allclose(m0.matrix, np.diag([FOUR_PI_SQ * 4] * 2))
    m = lamella_mode_matrix(1, 3.0, 0.25).matrix
    assert m[0, 1] == m[1, 0]
    assert m[0, 0] == m[1, 1]
    with pytest.raises(ValueError, match="translation"):
        lamella_mode_matrix(0, 1.0, 0.25)
    z = lamella_mode_matrix(0, 1.0, 0.25, allow_zero_mode=True)
    vec = np.array([1.0, -1.0])
    assert abs(vec @ z.matrix @ vec) <= 1e-12  # translation direction


def test_translation_degeneracy_mode_route():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    mesh = interface_mesh(shape, 64, dim=2)
    phi = translation_mode(mesh, 0)
    for gamma in (0.0, 1.0, 10.0):
        rep = quad_form(shape, gamma, phi)
        assert abs(rep.total) <= 1e-6 * max(rep.magnitude_scale, 1e-12)
    # and in absolute terms on the coarser mesh
    phi = translation_mode(interface_mesh(shape, 32, dim=2), 0)
    assert abs(quad_form(shape, 1.0, phi).total) <= 1e-9


def test_translation_degeneracy_ball_area_functional():
    mesh = interface_mesh(Ball((0.5, 0.5), 0.3), 64)
    spec = GridSpec((64, 64))
    phi = translation_mode(mesh, 0)
    rep = quad_form(Ball((0.5, 0.5), 0.3), 0.0, phi, spec, method="grid")
    assert abs(rep.total) <= 1e-10 * max(rep.magnitude_scale, 1.0)


def test_flat_interface_dirichlet_value():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    mesh = interface_mesh(shape, 32, dim=2)
    rep = quad_form(shape, 0.0, lamella_wave_mode(mesh, 1))
    assert rep.total == pytest.approx(FOUR_PI_SQ, rel=1e-12)


def test_green_term_nonnegative():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    mesh = interface_mesh(shape, 32, dim=2)
    spec = GridSpec((64, 64))
    rng = np.random.default_rng(5)
    for _ in range(4):
        raw = [rng.standard_normal(c.grid_shape) for c in mesh.charts]
        shift = sum(np.sum(c.weights * v) for c, v in zip(mesh.charts, raw)) / mesh.total_weight
        phi = SurfaceFunction(mesh, [v - shift for v in raw])
        assert quad_form(shape, 3.0, phi, spec, method="grid").term_green >= 0.0
        assert quad_form(shape, 3.0, phi, method="mode").term_green >= 0.0


@pytest.mark.parametrize(
    "shape, spec, res",
    [
        (Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), GridSpec((32, 32, 32)), 16),
        (Ball((0.4, 0.55), 0.3), GridSpec((64, 64)), 48),
    ],
    ids=["cylinder", "disk"],
)
def test_grid_quad_form_is_the_assembled_pencil(shape, spec, res, monkeypatch):
    # phi^T A phi with A as min_eigenvalue assembles it: its Bloch blocks are
    # caught on their way out of _pencil_blocks and expanded back to the
    # dense A (the cylinder takes the Bloch route, the disk the dense one);
    # the grid route takes its tangential term from tangential_energy(), the
    # pencil from the chart stiffness
    assembled = []

    def spy(*args):
        a_blocks, b_blocks, rows = _pencil_blocks(*args)
        assembled.append([a.copy() for a in a_blocks])
        return a_blocks, b_blocks, rows

    monkeypatch.setattr("okpattern.stability._pencil_blocks", spy)
    mesh = interface_mesh(shape, res, spec.dim)
    order = _symmetry_order(mesh, spec)
    assert order == (16 if isinstance(shape, Cylinder) else 1)
    w = mesh.all_weights()
    sizes = np.cumsum([c.weights.size for c in mesh.charts])[:-1]
    rng = np.random.default_rng(11)
    for gamma in (0.0, 2.5):
        assembled.clear()
        min_eigenvalue(shape, gamma, spec, resolution=res)
        a_mat = dense_from_bloch_blocks(assembled[0], order)
        assert a_mat.shape == (w.size, w.size)
        raw = rng.standard_normal(w.size)
        flat = raw - (w @ raw) / w.sum()
        phi = SurfaceFunction(mesh, np.split(flat, sizes))
        got = quad_form(shape, gamma, phi, spec, method="grid").total
        assert got == pytest.approx(flat @ a_mat @ flat, rel=1e-12)


def dense_from_bloch_blocks(blocks, order):
    """The dense matrix of the Bloch blocks q = 0 .. order // 2 that
    _pencil_blocks returns: their inverse real FFT is the block row
    R[d][r, r'], and entry (r * order + i2, r' * order + j2) is
    R[(j2 - i2) mod order][r, r']."""
    row = np.fft.irfft(np.stack(blocks), n=order, axis=0)
    m = row.shape[1]
    i2 = np.arange(order)
    dense = row[(i2[None, :] - i2[:, None]) % order]  # [i2, j2, r, r']
    return dense.transpose(2, 0, 3, 1).reshape(m * order, m * order)


def green_matrix_corner_pair_reference(mesh, spec):
    """G_ij = (1/cells) sum_{a,b} w_ia w_jb kern[idx_ia - idx_jb] over every
    pair of splat corners a of node i and b of node j: 4^dim full p x p
    gathers, the direct form of the matrix.  kern = ifftn(sinc^-4 / (4 pi^2
    |xi|^2)) over the full lattice, the multiplier built from np.fft.fftfreq."""
    base, frac = _splat_geometry(mesh, spec)
    corners = np.array(list(np.ndindex(*(2,) * spec.dim)))
    pos = tuple(np.moveaxis((base[:, None, :] + corners) % spec.sizes, -1, 0))
    tent = np.prod(np.where(corners == 1, frac[:, None, :], 1.0 - frac[:, None, :]), axis=-1)
    weight = (mesh.all_weights() * spec.cells)[:, None] * tent
    freqs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in spec.sizes], indexing="ij")
    lap = sum(4 * np.pi**2 * f**2 for f in freqs)
    sinc = np.prod([np.sinc(f / n) for f, n in zip(freqs, spec.sizes)], axis=0)
    kern = np.fft.ifftn(np.where(lap > 0, 1.0 / np.where(lap > 0, lap, 1.0), 0.0) / sinc**4).real
    p = len(base)
    g = np.zeros((p, p))
    for a in range(len(corners)):
        for b in range(len(corners)):
            shift = tuple((x[:, a, None] - x[None, :, b]) % n for x, n in zip(pos, spec.sizes))
            g += np.outer(weight[:, a], weight[:, b]) * kern[shift]
    g /= spec.cells
    return 0.5 * (g + g.T)


CUBE = GridSpec((32, 32, 32))
LAMELLA = Lamella(axis=0, center=0.5, halfwidth=0.25)
CYLINDER = Cylinder(axis=2, center=(0.5, 0.5), radius=0.25)


@pytest.mark.parametrize(
    "shape, spec, res",
    [
        (Lamella(axis=0, center=0.5, halfwidth=0.25), CUBE, 16),
        (Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), CUBE, 16),
        (Ball((0.41, 0.57, 0.33), 0.25), CUBE, 16),
        (Ball((0.4, 0.55), 0.3), GridSpec((48, 40)), 48),
        (Cylinder(axis=1, center=(0.45, 0.52), radius=0.25), CUBE, 24),
    ],
    ids=["lamella", "cylinder", "ball-off-centre", "disk-48x40", "cylinder-res24"],
)
def test_green_matrix_matches_corner_pair_reference(shape, spec, res):
    mesh = interface_mesh(shape, res, spec.dim)
    green = _green_matrix(mesh, spec, get_workspace(spec))
    ref = green_matrix_corner_pair_reference(mesh, spec)
    assert np.max(np.abs(green - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(green, green.T)


def test_green_matrix_memory_stays_within_three_p_squared():
    # the output plus cache-sized row blocks: no p x p work array
    mesh = interface_mesh(LAMELLA, 16, 3)
    p = len(mesh.all_weights())
    assert p == 512
    ws = get_workspace(CUBE)
    tracemalloc.start()
    try:
        _green_matrix(mesh, CUBE, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * p * p * 8


def chart_stiffness_identity_stack_reference(chart):
    """Re(T^H W T) from one tangent_fn call on the m x m identity stack:
    column j of each component is the derivative of nodal basis vector j."""
    m = chart.weights.size
    w = chart.weights.ravel()
    comps = chart.tangent_fn(np.eye(m).reshape(chart.grid_shape + (m,)))
    block = sum((t.conj().T @ (w[:, None] * t)).real for t in (c.reshape(m, m) for c in comps))
    return 0.5 * (block + block.T)


# (shape, ambient dim, chart resolution): every chart kind and two tilings
CHART_CASES = [
    (Lamella(axis=0, center=0.5, halfwidth=0.25), 2, 16),
    (Lamella(axis=1, center=0.5, halfwidth=0.25), 3, 16),
    (Ball((0.4, 0.55), 0.3), 2, 24),
    (Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), 3, 16),
    (Cylinder(axis=1, center=(0.45, 0.52), radius=0.25), 3, 24),
    (Ball((0.5, 0.5, 0.5), 0.25), 3, 16),
    (TiledShape(Ball((0.5, 0.5), 0.3), 2), 2, 16),
    (TiledShape(Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), 2), 3, 16),
]
CHART_IDS = [
    "lamella-2d",
    "lamella-3d",
    "circle",
    "cylinder",
    "cylinder-res24",
    "sphere",
    "tiled-disk-k2",
    "tiled-cylinder-k2",
]


@pytest.mark.parametrize("shape, dim, res", CHART_CASES, ids=CHART_IDS)
def test_chart_stiffness_matches_identity_stack_reference(shape, dim, res):
    for chart in interface_mesh(shape, res, dim).charts[:2]:
        got = _chart_stiffness(chart, 1)
        ref = chart_stiffness_identity_stack_reference(chart)
        assert got.shape == ref.shape == (chart.weights.size,) * 2
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("shape, dim, res", CHART_CASES, ids=CHART_IDS)
def test_chart_is_shift_invariant_along_its_last_axis(shape, dim, res):
    # the block-circulant stiffness rests on this contract
    rng = np.random.default_rng(3)
    for chart in interface_mesh(shape, res, dim).charts:
        w = chart.weights
        assert np.array_equal(w, np.broadcast_to(w[..., :1], w.shape))
        v = rng.standard_normal(chart.grid_shape)
        for whole, rolled in zip(chart.tangent_fn(v), chart.tangent_fn(np.roll(v, 1, -1))):
            assert np.max(np.abs(rolled - np.roll(whole, 1, -1))) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("shape, dim, res", CHART_CASES, ids=CHART_IDS)
def test_chart_axis_is_a_translation_of_the_last_axis(shape, dim, res):
    # with Chart.axis set, one node step along the last chart axis is the
    # torus translation by 1 / n2 along axis, normals and weights unchanged
    if isinstance(shape, Cylinder):
        expected = shape.axis
    elif isinstance(shape, Lamella):
        expected = [a for a in range(dim) if a != shape.axis][-1]
    else:
        expected = None  # rotations and tiled copies
    for chart in interface_mesh(shape, res, dim).charts:
        assert chart.axis == expected
        if expected is None:
            continue
        n2 = chart.grid_shape[-1]
        step = np.zeros(dim)
        step[chart.axis] = 1.0 / n2
        moved = np.roll(chart.points, -1, axis=-2)
        gap = (moved - (chart.points + step)) % 1.0
        assert np.max(np.minimum(gap, 1.0 - gap)) <= 1e-15
        assert np.array_equal(np.roll(chart.normals, -1, axis=-2), chart.normals)
        assert np.array_equal(np.roll(chart.weights, -1, axis=-1), chart.weights)


def test_chart_stiffness_rejects_weights_varying_along_last_axis():
    chart = interface_mesh(CYLINDER, 16, 3).charts[0]
    tilted = chart.weights * (1.0 + 0.1 * np.arange(16) / 16)
    with pytest.raises(ValueError, match="last chart axis"):
        _chart_stiffness(dataclasses.replace(chart, weights=tilted), 1)


def test_chart_stiffness_memory_stays_within_three_m_squared():
    # one block column through tangent_fn, not the m x m identity stack
    chart = interface_mesh(CYLINDER, 32, 3).charts[0]
    m = chart.weights.size
    assert m == 1024
    tracemalloc.start()
    try:
        _chart_stiffness(chart, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m * m * 8


@pytest.mark.parametrize(
    "shape, spec, res",
    [
        (LAMELLA, GridSpec((64, 64)), 32),
        (TiledShape(Ball((0.5, 0.5), 0.3), 2), GridSpec((64, 64)), 32),
        (LAMELLA, CUBE, 16),
    ],
    ids=["lamella-2d", "tiled-disk-k2", "lamella-3d"],
)
def test_normal_potential_slope_matches_per_chart_sampling(shape, spec, res):
    # the pencil and the grid route sample d_nu v once over every node; the
    # oracle samples it chart by chart
    mesh = interface_mesh(shape, res, spec.dim)
    u = rasterize(shape, spec)
    per_chart = [
        np.sum(
            sample_potential(u, c.points.reshape(-1, spec.dim), gradient=True)
            * c.normals.reshape(-1, spec.dim),
            axis=-1,
        )
        for c in mesh.charts
    ]
    want = np.concatenate(per_chart)
    got = _normal_potential_slope(shape, mesh, spec)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rng = np.random.default_rng(5)
    w = mesh.all_weights()
    raw = rng.standard_normal(w.size)
    splits = np.cumsum([d.size for d in per_chart])[:-1]
    phi = SurfaceFunction(mesh, np.split(raw - (w @ raw) / w.sum(), splits))
    gamma = 2.5
    term = sum(
        4.0 * gamma * np.sum(c.weights.ravel() * d * v.ravel() ** 2)
        for c, d, v in zip(mesh.charts, per_chart, phi.values)
    )
    got_term = quad_form(shape, gamma, phi, spec, method="grid").term_potential
    assert got_term == pytest.approx(term, rel=1e-13)


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize(
    "shape, dim, res",
    [
        (Lamella(axis=0, center=0.5, halfwidth=0.25), 2, 16),
        (Lamella(axis=1, center=0.5, halfwidth=0.25), 3, 16),
        (Ball((0.4, 0.55), 0.3), 2, 24),
        (Ball((0.5, 0.5, 0.5), 0.25), 3, 16),
        (Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), 3, 16),
        (TiledShape(Ball((0.5, 0.5), 0.3), 2), 2, 16),
    ],
    ids=["lamella-2d", "lamella-3d", "circle", "sphere", "cylinder", "tiled-disk"],
)
def test_batched_tangent_fn_matches_per_column_calls(shape, dim, res, strided):
    # _chart_stiffness calls tangent_fn once on a batch of basis vectors, and
    # its test oracle once on the identity stack; every column must be the
    # single-vector derivative, whether the stack is C-contiguous or a
    # strided view with the batch axis moved last (then each column is a
    # non-contiguous view too)
    chart = interface_mesh(shape, res, dim).charts[0]
    m = chart.weights.size
    if strided:
        stack = np.moveaxis(np.eye(m).reshape((m,) + chart.grid_shape), 0, -1)
        assert not stack.flags.c_contiguous
    else:
        stack = np.eye(m).reshape(chart.grid_shape + (m,))
    batch = chart.tangent_fn(stack)
    for j in range(m):
        cols = chart.tangent_fn(stack[..., j])
        assert len(cols) == len(batch)
        for whole, col in zip(batch, cols):
            assert whole[..., j].shape == col.shape
            assert np.max(np.abs(whole[..., j] - col)) <= 1e-15 * max(1.0, np.max(np.abs(col)))


def random_constraints(rng, p):
    """Weights, a random column, a zero column and a column dependent on
    the first two: rank 2."""
    weights = rng.uniform(0.5, 1.5, p)
    other = rng.standard_normal(p)
    return np.column_stack([weights, other, np.zeros(p), 2.0 * weights - 3.0 * other])


def test_constraint_restriction_matches_svd_basis():
    rng = np.random.default_rng(21)
    p = 40
    q_a = np.linalg.qr(rng.standard_normal((p, p)))[0]
    q_b = np.linalg.qr(rng.standard_normal((p, p)))[0]
    a_mat = q_a @ np.diag(rng.choice([-1.0, 1.0], p) * rng.uniform(1.0, 2.0, p)) @ q_a.T
    b_mat = q_b @ np.diag(rng.uniform(1.0, 2.0, p)) @ q_b.T
    a_mat, b_mat = 0.5 * (a_mat + a_mat.T), 0.5 * (b_mat + b_mat.T)
    constraints = random_constraints(rng, p)
    u_svd, svals, _ = np.linalg.svd(constraints)
    z = u_svd[:, int(np.sum(svals > 1e-10 * svals[0])) :]
    assert z.shape == (p, p - 2)
    ref = scipy.linalg.eigh(z.T @ a_mat @ z, z.T @ b_mat @ z, eigvals_only=True)
    v, t = _constraint_reflectors(constraints)
    vals = scipy.linalg.eigh(_restrict(a_mat, v, t), _restrict(b_mat, v, t), eigvals_only=True)
    assert vals.shape == (p - 2,)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def pencil_constraints(mesh):
    w = mesh.all_weights()
    return np.column_stack([w, w[:, None] * mesh.all_normals()])


@pytest.mark.parametrize(
    "constraints, rank",
    [
        (random_constraints(np.random.default_rng(5), 40), 2),
        (pencil_constraints(interface_mesh(LAMELLA, 16, 3)), 2),
        (pencil_constraints(interface_mesh(CYLINDER, 16, 3)), 3),
        (pencil_constraints(interface_mesh(Ball((0.5, 0.5, 0.5), 0.25), 16, 3)), 4),
    ],
    ids=["random", "lamella", "cylinder", "ball"],
)
def test_constraint_restriction_is_orthonormal_and_annihilates_constraints(constraints, rank):
    # Z^T I Z = I says Z is orthonormal; Z^T C C^T Z = 0 says C^T Z = 0
    p = constraints.shape[0]
    v, t = _constraint_reflectors(constraints)
    assert v.shape == (p, rank)
    eye = _restrict(np.eye(p), v, t)
    assert np.max(np.abs(eye - np.eye(p - rank))) <= 1e-14
    gram = constraints @ constraints.T
    assert np.max(np.abs(_restrict(gram, v, t))) <= 1e-14 * np.max(np.abs(gram))


def test_surface_function_zero_mean_validation():
    mesh = interface_mesh(Lamella(axis=0, center=0.5, halfwidth=0.25), 16, dim=2)
    with pytest.raises(ValueError, match="zero-mean"):
        SurfaceFunction(mesh, [np.ones(c.grid_shape) for c in mesh.charts])
    phi = SurfaceFunction(mesh, [np.ones(16), -np.ones(16)])
    assert phi.weighted_integral() == pytest.approx(0.0, abs=1e-15)
    assert phi.tangential_energy() == pytest.approx(0.0, abs=1e-12)


def test_splat_mean_guard():
    # the grid form is defined on zero-mean phi only
    mesh = interface_mesh(Lamella(axis=0, center=0.5, halfwidth=0.25), 16, dim=2)
    phi = SurfaceFunction(mesh, [np.ones(16), np.ones(16)], zero_mean=False)
    with pytest.raises(ValueError, match="zero-mean"):
        quad_form(LAMELLA, 1.0, phi, GridSpec((32, 32)), method="grid")


def test_mode_vs_grid_oracle_equivalence_sample():
    # the full 27-combination sweep runs in the acceptance suite
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    spec = GridSpec((320, 320))
    mesh = interface_mesh(shape, 160, dim=2)
    q, gamma = 1, 10.0
    analytic = lamella_mode_matrix(q, gamma, 0.25).matrix
    vals = {}
    for amps in ((1, 0), (0, 1), (1, 1)):
        phi = lamella_wave_mode(mesh, q, amps)
        vals[amps] = quad_form(shape, gamma, phi, spec, method="grid").total
    m11 = 2 * vals[(1, 0)]
    m12 = vals[(1, 1)] - vals[(1, 0)] - vals[(0, 1)]
    scale = np.max(np.abs(analytic))
    assert abs(m11 - analytic[0, 0]) / scale <= 1e-3
    assert abs(m12 - analytic[0, 1]) / scale <= 1e-3


def test_min_eigenvalue_matches_mode_scan_at_gamma_zero():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    spec = GridSpec((128, 128))
    pencil = min_eigenvalue(shape, 0.0, spec, resolution=32)
    scan = mode_scan_min_eigenvalue(0.25, 0.0, q_max=8, h1_normalized=True)
    assert pencil == pytest.approx(scan, rel=1e-3)
    with pytest.raises(ValueError):
        min_eigenvalue(shape, 0.0, spec, resolution=8)


def test_min_eigenvalue_sign_tracks_threshold():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    spec = GridSpec((128, 128))
    gamma_star = lamella_threshold(0.25).gamma_star
    assert min_eigenvalue(shape, 0.9 * gamma_star, spec, resolution=32) > 0
    assert min_eigenvalue(shape, 1.2 * gamma_star, spec, resolution=32) < 0


def test_strict_stability_at_small_gamma():
    spec = GridSpec((128, 128))
    lam = Lamella(axis=0, center=0.5, halfwidth=0.25)
    gamma_star = lamella_threshold(0.25).gamma_star
    for gamma in np.linspace(0.0, gamma_star / 2, 8):
        assert min_eigenvalue(lam, float(gamma), spec, resolution=32) > 0
    ball = Ball((0.5, 0.5), 0.3)
    # artifact-derived disk threshold: bisect the pencil itself
    lo, hi = 0.0, 400.0
    assert min_eigenvalue(ball, hi, spec, resolution=32) < 0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if min_eigenvalue(ball, mid, spec, resolution=32) > 0:
            lo = mid
        else:
            hi = mid
    ball_star = 0.5 * (lo + hi)
    assert ball_star > 0
    for gamma in np.linspace(0.0, ball_star / 2, 8):
        assert min_eigenvalue(ball, float(gamma), spec, resolution=32) > 0


def test_min_eigenvalue_3d_cylinder_area_form():
    # gamma = 0 leaves -Delta - |B|^2 on the r = 1/4 cylinder; translations
    # (m = 1, q = 0) are restricted away exactly, so the least H^1-normalized
    # mode is q = 1 along the axis: (4 pi^2 - 16) / (4 pi^2 + 1), which the
    # chart's trigonometric interpolant represents exactly
    cyl = Cylinder(axis=2, center=(0.5, 0.5), radius=0.25)
    pencil = min_eigenvalue(cyl, 0.0, CUBE, resolution=16)
    assert pencil == pytest.approx((FOUR_PI_SQ - 16) / (FOUR_PI_SQ + 1), rel=1e-12)


@pytest.mark.parametrize(
    "center", [(0.5, 0.5, 0.5), (0.515625, 0.5, 0.5)], ids=["cell-edge", "half-cell-shift"]
)
def test_min_eigenvalue_3d_ball_area_form(center):
    # gamma = 0 leaves -Delta - 2/r^2 on the sphere; past the l = 1
    # translations the least H^1-normalized mode is l = 2:
    # (6 - 2) / r^2 / (6 / r^2 + 1) = 4 / (6 + r^2)
    r = 0.25
    ball = Ball(center, r)
    value = min_eigenvalue(ball, 0.0, CUBE, resolution=16)
    assert value == pytest.approx(4.0 / (6.0 + r * r), rel=1e-4)
    assert min_eigenvalue(ball, 0.1, CUBE, resolution=16) > 0


def test_sphere_pencil_converges_to_the_l2_closed_form():
    # the gamma = 0 ball pencil against 4 / (6 + r^2) (see above), refined
    r = 0.25
    ball = Ball((0.5, 0.5, 0.5), r)
    exact = 4.0 / (6.0 + r * r)
    errors = [abs(min_eigenvalue(ball, 0.0, CUBE, resolution=res) - exact) for res in (16, 24, 32)]
    assert max(errors) <= 1e-4
    assert errors[0] > errors[1] > errors[2]


PENCIL_SCRIPT = """
from okpattern import Ball, Cylinder, GridSpec, Lamella, lamella_threshold, min_eigenvalue
cube = GridSpec((32, 32, 32))
lam = Lamella(axis=0, center=0.5, halfwidth=0.25)
cyl = Cylinder(axis=2, center=(0.5, 0.5), radius=0.25)
ball = Ball((0.5, 0.5, 0.5), 0.25)
g_star = lamella_threshold(0.25, tangential_dim=2).gamma_star
for shape, gamma in ((lam, 0.9 * g_star), (lam, 1.2 * g_star), (cyl, 0.1), (ball, 0.0), (ball, 0.1)):
    print(repr(min_eigenvalue(shape, gamma, cube, resolution=16)))
"""


def test_min_eigenvalue_same_with_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", PENCIL_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        values.append([float(line) for line in run.stdout.split()])
    one, two = np.array(values)
    assert one.shape == (5,)
    assert np.all(np.abs(one - two) <= 1e-12 * np.abs(one))


@pytest.mark.parametrize(
    "shape, gamma",
    [(LAMELLA, 80.0), (CYLINDER, 0.1)],
    ids=["lamella", "cylinder"],
)
def test_one_eigenvalue_solve_matches_full_eigh(shape, gamma, monkeypatch):
    # every Bloch block solve asks for one eigenvalue, and their minimum is
    # the least eigenvalue of a full eigh of the dense (order 1) pencil
    full = []
    eigh = scipy.linalg.eigh

    def spy(a, b, **kwargs):
        assert kwargs.get("subset_by_index") == [0, 0]
        full.append(eigh(a, b, eigvals_only=True)[0])
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    value = min_eigenvalue(shape, gamma, CUBE, resolution=16)
    assert len(full) == 16 // 2 + 1  # blocks q = 0 .. 8
    assert value == pytest.approx(min(full), rel=1e-12)
    full.clear()
    dense = _pencil_min(shape, interface_mesh(shape, 16, 3), gamma, CUBE, 1)
    assert len(full) == 1
    assert dense == pytest.approx(full[0], rel=1e-12)
    assert value == pytest.approx(full[0], rel=1e-12)


GAMMA_STAR_3D = lamella_threshold(0.25, tangential_dim=2).gamma_star
GAMMA_STAR_2D = lamella_threshold(0.25).gamma_star


@pytest.mark.parametrize(
    "shape, gamma, spec, res, order, solves",
    [
        (LAMELLA, 0.9 * GAMMA_STAR_3D, CUBE, 16, 16, 9),
        (LAMELLA, 1.2 * GAMMA_STAR_3D, CUBE, 16, 16, 9),
        # two one-node rows, both constrained away: q = 0 is empty
        (LAMELLA, 0.9 * GAMMA_STAR_2D, GridSpec((128, 128)), 32, 32, 16),
        (CYLINDER, 0.1, CUBE, 16, 16, 9),
        (Cylinder(axis=1, center=(0.45, 0.52), radius=0.25), 0.7, CUBE, 16, 16, 9),
        # 24 nodes along the axis do not divide 32 cells: the dense pencil
        (Cylinder(axis=1, center=(0.45, 0.52), radius=0.25), 0.7, CUBE, 24, 1, 1),
    ],
    ids=[
        "lamella-3d-0.9",
        "lamella-3d-1.2",
        "lamella-2d",
        "cylinder",
        "cylinder-axis1",
        "cylinder-axis1-res24",
    ],
)
def test_bloch_pencil_matches_dense_pencil(shape, gamma, spec, res, order, solves, monkeypatch):
    mesh = interface_mesh(shape, res, spec.dim)
    assert _symmetry_order(mesh, spec) == order
    dense = _pencil_min(shape, mesh, gamma, spec, 1)
    calls = []
    eigh = scipy.linalg.eigh

    def spy(a, b, **kwargs):
        calls.append(a.shape)
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    value = min_eigenvalue(shape, gamma, spec, resolution=res)
    assert len(calls) == solves
    assert value == pytest.approx(dense, rel=1e-12)


def test_min_eigenvalue_rejects_negative_gamma():
    with pytest.raises(ValueError, match="gamma"):
        min_eigenvalue(Lamella(0, 0.5, 0.25), -5.0, GridSpec((64, 64)), resolution=16)


def test_mode_scan_and_threshold_reject_impossible_lamellae():
    with pytest.raises(ValueError, match="gamma"):
        mode_scan_min_eigenvalue(0.25, -5.0)
    for w in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError, match="halfwidth"):
            mode_scan_min_eigenvalue(w, 1.0)
        with pytest.raises(ValueError, match="halfwidth"):
            lamella_threshold(w)


def test_min_eigenvalue_3d_lamella_sign_tracks_threshold():
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    gamma_star = lamella_threshold(0.25, tangential_dim=2).gamma_star
    assert min_eigenvalue(shape, 0.9 * gamma_star, CUBE, resolution=16) > 0
    assert min_eigenvalue(shape, 1.2 * gamma_star, CUBE, resolution=16) < 0


def test_threshold_positive_crossing_and_formula():
    res = lamella_threshold(0.25)
    assert res.status == "crossed"
    assert res.gamma_star > 0
    # independent crossing formula: the least block is linear in gamma
    best = np.inf
    for q in range(1, 9):
        m0 = lamella_mode_matrix(q, 0.0, 0.25).matrix
        m1 = lamella_mode_matrix(q, 1.0, 0.25).matrix
        slope = np.linalg.eigvalsh(m1 - m0)[0]
        if slope < 0:
            best = min(best, -m0[0, 0] / slope)
    assert res.gamma_star == pytest.approx(best, rel=1e-12)


def test_threshold_continuous_in_halfwidth():
    # step chosen to resolve the curve's logarithmic slope; the threshold is
    # symmetric about w = 1/4 (set/complement symmetry) with minimum there
    widths = np.round(np.arange(0.18, 0.3201, 0.01), 4)
    stars = [lamella_threshold(float(w)).gamma_star for w in widths]
    assert all(s > 0 for s in stars)
    for a, b in zip(stars, stars[1:]):
        assert abs(b - a) / a <= 0.05
    mid = len(stars) // 2
    assert stars[mid] == min(stars)
    assert stars[0] == pytest.approx(stars[-1], rel=1e-6)


def test_sphere_translation_mode_area_functional():
    # degree-1 harmonic on the sphere: the area form's exact null direction
    ball = Ball((0.5, 0.5, 0.5), 0.25)
    mesh = interface_mesh(ball, 16)
    spec = GridSpec((32, 32, 32))
    for axis in (0, 2):
        phi = translation_mode(mesh, axis)
        rep = quad_form(ball, 0.0, phi, spec, method="grid")
        assert abs(rep.total) <= 1e-8 * max(rep.magnitude_scale, 1.0)
    # the pencil's chart stiffness carries the same tangential energy
    stiffness = _chart_stiffness(mesh.charts[0], 1)
    for axis in range(3):
        phi = translation_mode(mesh, axis)
        x = phi.values[0].ravel()
        assert x @ stiffness @ x == pytest.approx(phi.tangential_energy(), rel=1e-12)


def test_mode_route_on_a_512_node_mesh():
    # chart frequencies reach |q| = 256; the mode route sums the closed-form
    # 2x2 block over the two coefficients (1/2, 1/2) of cos(2 pi t) at q = +-1
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    mesh = interface_mesh(shape, 512, dim=2)
    got = quad_form(shape, 1.0, lamella_wave_mode(mesh, 1)).total
    coeffs = np.array([0.5, 0.5])
    want = 2 * coeffs @ lamella_mode_matrix(1, 1.0, 0.25).matrix @ coeffs
    assert got == pytest.approx(want, rel=1e-12)


def test_grid_route_keeps_the_chart_nyquist_mode():
    # the grid route and the pencil share one full-symbol derivative: the
    # alternating vector (-1)^j on each 32-node chart has |D phi|^2 = (32 pi)^2
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    mesh = interface_mesh(shape, 32, dim=2)
    alternating = (-1.0) ** np.arange(32)
    phi = SurfaceFunction(mesh, [alternating, alternating])
    got = quad_form(shape, 0.0, phi, GridSpec((64, 64)), method="grid").total
    assert got == pytest.approx(2 * (32 * np.pi) ** 2, rel=1e-12)


@pytest.mark.parametrize("tangential_dim", [1, 2])
@pytest.mark.parametrize("h1_normalized", [False, True])
def test_mode_scan_matches_eigvalsh_of_every_block(tangential_dim, h1_normalized):
    q_max = 8
    box = itertools.product(range(-q_max, q_max + 1), repeat=tangential_dim)
    wave_vectors = [q for q in box if any(q)]
    for gamma in (0.0, 1.0, 50.0, 200.0):
        for w in (0.18, 0.25, 0.3):
            want = np.inf
            for q in wave_vectors:
                block = lamella_mode_matrix(q, gamma, w)
                val = np.linalg.eigvalsh(block.matrix)[0]
                if h1_normalized:
                    val /= FOUR_PI_SQ * block.q_sq + 1.0
                want = min(want, val)
            got = mode_scan_min_eigenvalue(
                w, gamma, q_max, tangential_dim=tangential_dim, h1_normalized=h1_normalized
            )
            assert got == pytest.approx(want, rel=1e-13)


def test_mode_matrix_vector_wave_number():
    # dim-3 lamella: tangential wave vectors are integer pairs
    m = lamella_mode_matrix((1, 2), 0.0, 0.25)
    assert m.q_sq == 5.0
    assert np.allclose(m.matrix, np.diag([FOUR_PI_SQ * 5.0] * 2))
    scan3 = mode_scan_min_eigenvalue(0.25, 0.0, q_max=2, tangential_dim=2)
    assert scan3 == pytest.approx(FOUR_PI_SQ, rel=1e-12)


def test_penalty_vanishes_on_t_perp():
    # wave modes with q >= 1 have zero normal moment int phi nu on the
    # lamella: they lie in T-perp, where a translation penalty vanishes
    mesh = interface_mesh(Lamella(axis=0, center=0.5, halfwidth=0.25), 32, dim=2)
    phi = lamella_wave_mode(mesh, 2, (1.0, -0.5))
    flat = np.concatenate([v.ravel() for v in phi.values])
    assert np.max(np.abs((mesh.all_weights() * flat) @ mesh.all_normals())) <= 1e-13
