"""Poisson solve, spectral derivatives, Parseval energies, and tiling laws.

Derived expected values are frozen from independent oracles implemented here:
a cumulative-integration solve of -v'' = u - m on the circle for the lamella
potential, and direct trapezoid quadrature for its Dirichlet energy.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okpattern import spectral
from okpattern.diffuse_ok import ok_energy
from okpattern.geometry import interface_mesh
from okpattern.spectral import (
    _PHASE_BLOCK_BYTES,
    _potential_and_gradient,
    cell_average_potential,
    from_half_spectrum,
    get_workspace,
    gradient,
    half_spectrum,
    kernel_table,
    laplacian,
    nonlocal_energy,
    poisson_zero_mean,
    real_space_kernel,
    sample_field,
    sample_potential,
    sample_potential_on_planes,
)
from okpattern.torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    periodize,
    rasterize,
    subsample,
    tanh_profile,
    tile,
)


def brute_force_circle_potential(u_values: np.ndarray) -> np.ndarray:
    """Oracle: solve -v'' = u - mean(u), int v = 0 on the circle by integration.

    Works on the cell-center grid; exact for piecewise-constant u up to
    quadrature of the piecewise-linear/quadratic antiderivatives, refined by
    evaluating on a subdivided midpoint mesh.
    """
    n = u_values.size
    sub = 64  # subdivide each cell for accurate quadrature
    fine = np.repeat(u_values, sub)
    m = fine.mean()
    rhs = -(fine - m)
    h = 1.0 / (n * sub)
    # v'' = rhs; integrate twice with periodic zero-mean normalization
    vp = np.cumsum(rhs) * h
    vp -= vp.mean()  # v' must be periodic and mean-free (v periodic)
    v = np.cumsum(vp) * h
    v -= v.mean()
    return v[sub // 2 :: sub]  # samples at original cell centers


def test_poisson_constant_rhs_gives_zero():
    spec = GridSpec((32, 32))
    rhs = ScalarField(spec, 3.7 * np.ones(spec.sizes))
    v = poisson_zero_mean(rhs)
    assert np.max(np.abs(v.values)) == 0.0


def test_poisson_single_mode_exact():
    spec = GridSpec((256, 256))
    x = spec.center_mesh()[0]
    u = ScalarField(spec, np.broadcast_to(np.cos(2 * np.pi * x), spec.sizes).copy())
    v = poisson_zero_mean(u)
    expected = u.values / (4 * np.pi**2)
    assert np.max(np.abs(v.values - expected)) <= 1e-12
    assert abs(v.mean) <= 1e-12


def test_poisson_lamella_range_is_one_sixteenth():
    spec = GridSpec((512,))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    v = poisson_zero_mean(u)
    spread = float(v.values.max() - v.values.min())
    # oracle: piecewise-quadratic closed form gives exactly 1/16
    oracle = brute_force_circle_potential(u.values)
    assert abs((oracle.max() - oracle.min()) - 1.0 / 16) < 1e-4
    assert abs(spread - 1.0 / 16) < 1e-6


def test_spectral_laplacian_inverts_solve():
    rng = np.random.default_rng(2)
    spec = GridSpec((32, 16, 8))
    for _ in range(20):
        rhs = ScalarField(spec, rng.standard_normal(spec.sizes))
        v = poisson_zero_mean(rhs)
        target = rhs.values - rhs.mean
        resid = laplacian(v).values + target
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(target)
        assert abs(v.mean) <= 1e-12


def test_nonlocal_energy_constant_is_zero():
    spec = GridSpec((16, 16))
    assert nonlocal_energy(ScalarField(spec, np.full(spec.sizes, 2.0))) == 0.0


def test_nonlocal_energy_single_mode():
    spec = GridSpec((256, 256))
    x = spec.center_mesh()[0]
    u = ScalarField(spec, np.broadcast_to(np.cos(2 * np.pi * x), spec.sizes).copy())
    # voxel weighting multiplies the mode by sinc(1/n): an O(h^2) reweighting
    assert nonlocal_energy(u) == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-4)
    # the diffuse energy's term reads the samples as collocation values: exact
    nl_plain = ok_energy(u, 1.0, 1.0) - ok_energy(u, 1.0, 0.0)
    assert nl_plain == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-12)


def test_nonlocal_energy_lamella_closed_form():
    # oracle: v' = +-(x - const) piecewise, two intervals each contributing 1/96
    spec1 = GridSpec((512,))
    u1 = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec1)
    oracle_v = brute_force_circle_potential(u1.values)
    oracle_nl = float(np.mean(u1.values * oracle_v))
    assert abs(oracle_nl - 1.0 / 48) < 1e-4
    assert abs(nonlocal_energy(u1) - 1.0 / 48) <= 1e-8

    spec2 = GridSpec((256, 256))
    u2 = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec2)
    assert abs(nonlocal_energy(u2) - 1.0 / 48) <= 1e-6


def test_gradient_analytic_mode():
    spec = GridSpec((64, 64))
    y = spec.center_mesh()[1]
    u = ScalarField(spec, np.broadcast_to(np.sin(2 * np.pi * y), spec.sizes).copy())
    g = gradient(u)
    assert np.max(np.abs(g[0].values)) <= 1e-12
    expected = 2 * np.pi * np.cos(2 * np.pi * y)
    assert np.max(np.abs(g[1].values - np.broadcast_to(expected, spec.sizes))) < 1e-10
    c = ScalarField(spec, np.full(spec.sizes, 1.5))
    assert all(np.max(np.abs(gi.values)) == 0.0 for gi in gradient(c))


def test_parseval_cross_check_dirichlet_vs_nonlocal():
    rng = np.random.default_rng(4)
    spec = GridSpec((64, 64))
    for kind in ("smooth", "indicator"):
        if kind == "smooth":
            x, y = spec.center_mesh()
            vals = sum(
                rng.standard_normal()
                * np.cos(2 * np.pi * (kx * x + ky * y) + rng.random())
                for kx in range(4)
                for ky in range(4)
            )
            u = ScalarField(spec, np.broadcast_to(vals, spec.sizes).copy())
        else:
            u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
        # the voxel Green pairing (1/M) <u, w(u)> is the same Parseval sum
        pairing = np.mean(u.values * cell_average_potential(u).values)
        assert pairing == pytest.approx(nonlocal_energy(u), rel=1e-10)
        # collocation weighting: the Dirichlet energy of the potential, from
        # its gradient fields, is the diffuse energy's nonlocal term
        grad_sq = sum(np.mean(g.values**2) for g in gradient(poisson_zero_mean(u)))
        nl_plain = ok_energy(u, 1.0, 1.0) - ok_energy(u, 1.0, 0.0)
        assert grad_sq == pytest.approx(nl_plain, rel=1e-6)


def test_tiling_law_exact_for_any_field():
    # NL_n(tile(u,k)) = k^-2 NL_{n/k}(subsample(u,k)) is pure frequency
    # bookkeeping (xi -> k xi), exact to rounding for arbitrary fields.
    rng = np.random.default_rng(9)
    spec = GridSpec((48, 48))
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    for k in (2, 4):
        lhs = nonlocal_energy(tile(u, k))
        rhs = nonlocal_energy(subsample(u, k)) / k**2
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tiling_law_for_shapes_via_one_grid_family():
    spec = GridSpec((64, 64))
    for shape in (Lamella(axis=0, center=0.5, halfwidth=0.25), Ball((0.5, 0.5), 0.3)):
        for k in (1, 2, 4):
            coarse = rasterize(shape, spec.coarsen(k))
            fine = periodize(coarse, k)
            lhs = nonlocal_energy(fine)
            rhs = nonlocal_energy(coarse) / k**2
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lipschitz_bound_exact_form():
    # |NL(E)-NL(F)| <= 2 (||vE||_inf + ||vF||_inf) |E^F| with the cell-average
    # potentials; follows from Delta NL = <uE-uF, vE+vF>.
    spec = GridSpec((128,))
    pairs = [(0.25, 0.20), (0.25, 0.24), (0.3, 0.1)]
    for w1, w2 in pairs:
        e = rasterize(Lamella(axis=0, center=0.5, halfwidth=w1), spec)
        f = rasterize(Lamella(axis=0, center=0.5, halfwidth=w2), spec)
        dnl = abs(nonlocal_energy(e) - nonlocal_energy(f))
        ve = np.max(np.abs(cell_average_potential(e).values))
        vf = np.max(np.abs(cell_average_potential(f).values))
        sym_diff = float(np.mean(e.values != f.values))
        assert dnl <= 2.0 * (ve + vf) * sym_diff + 1e-15
        # the underlying identity itself, to machine precision
        ident = float(
            np.mean(
                (e.values - f.values)
                * (cell_average_potential(e).values + cell_average_potential(f).values)
            )
        )
        assert dnl == pytest.approx(abs(ident), abs=1e-14)


def test_multiplier_symmetry_and_positivity():
    # the full-lattice multiplier, from np.fft.fftfreq, is even and
    # nonnegative; the workspace keeps its first n/2 + 1 columns, the last
    # one the -n/2 column
    freqs = np.meshgrid(*[np.fft.fftfreq(16, d=1.0 / 16)] * 2, indexing="ij")
    lap = sum(4 * np.pi**2 * f**2 for f in freqs)
    inv = np.where(lap > 0, 1.0 / np.where(lap > 0, lap, 1.0), 0.0)
    flipped = inv[np.ix_(*[(-np.arange(n)) % n for n in (16, 16)])]
    assert np.array_equal(inv, flipped)
    assert inv[0, 0] == 0.0
    assert np.all(inv[1:, :] >= 0)
    ws = get_workspace(GridSpec((16, 16)))
    assert np.array_equal(ws.inv_lap, inv[:, :9])
    assert np.array_equal(ws.lap_symbol, lap[:, :9])
    rng = np.random.default_rng(1)
    u = ScalarField(GridSpec((16, 16)), rng.standard_normal((16, 16)))
    assert nonlocal_energy(u) > 0


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_per_axis_transforms_are_bitwise_rfftn_and_irfftn(sizes, seed):
    # the transform path runs rfftn's and irfftn's own per-axis passes, so
    # it agrees to the bit, on any axis lengths, and leaves its input alone
    sizes = tuple(sizes)
    axes = range(len(sizes))
    values = np.random.default_rng(seed).standard_normal(sizes)
    uhat = half_spectrum(values)
    assert uhat.tobytes() == np.fft.rfftn(values, axes=axes, norm="forward").tobytes()
    uhat.flags.writeable = False
    before = uhat.tobytes()
    back = from_half_spectrum(uhat, sizes)
    assert back.shape == sizes
    assert back.tobytes() == np.fft.irfftn(uhat, s=sizes, axes=axes, norm="forward").tobytes()
    assert uhat.tobytes() == before


@settings(max_examples=60, deadline=None)
@given(
    half_sizes=st.lists(st.integers(2, 20), min_size=1, max_size=3),
    p=st.sampled_from([-4, 0, 2]),
)
@example(half_sizes=[24, 2], p=-4)
@example(half_sizes=[2, 20, 3], p=2)
def test_real_space_kernel_matches_full_lattice_ifftn(half_sizes, p):
    # oracle: ifftn of the full-lattice multiplier, built from np.fft.fftfreq
    sizes = tuple(2 * h for h in half_sizes)
    freqs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    lap = sum(4 * np.pi**2 * f**2 for f in freqs)
    sinc = np.prod([np.sinc(f / n) for f, n in zip(freqs, sizes)], axis=0)
    want = np.fft.ifftn(np.where(lap > 0, 1.0 / np.where(lap > 0, lap, 1.0), 0.0) * sinc**p).real
    ws = get_workspace(GridSpec(sizes))
    got = real_space_kernel(ws, p)
    tol = 1e-14 * np.max(np.abs(want))
    assert got.shape == sizes
    assert np.max(np.abs(got - want)) <= tol
    # the table holds the offsets -1..n/2+1 of every axis; its guard entries
    # repeat the offsets they fold to: -1 is 1, and n/2 + 1 is n/2 - 1
    table = kernel_table(ws, p)
    assert table.shape == tuple(n // 2 + 3 for n in sizes)
    for a, n in enumerate(sizes):
        rows = np.moveaxis(table, a, 0)
        assert np.max(np.abs(rows[0] - rows[2])) <= tol
        assert np.max(np.abs(rows[n // 2 + 2] - rows[n // 2])) <= tol


def test_sample_potential_matches_grid_and_plane_path():
    spec = GridSpec((64, 64))
    u = rasterize(Ball((0.5, 0.5), 0.3), spec)
    ws = get_workspace(spec)
    # dense sampler at cell centers agrees with a direct coefficient sum
    pts = np.array([[0.5, 0.5], [0.1, 0.7], [0.25, 0.25]])
    dense = sample_potential(u, pts, ws)
    # plane sampler on x0 = 0.5 against dense sampling of the same points
    res = 16
    plane = sample_potential_on_planes(u, 0, [0.5], (res,), ws)
    tpts = np.stack([np.full(res, 0.5), np.arange(res) / res], axis=1)
    assert np.allclose(plane[0], sample_potential(u, tpts, ws), atol=1e-12)
    grad_plane = sample_potential_on_planes(u, 0, [0.5], (res,), ws, gradient=True)
    grad_dense = sample_potential(u, tpts, ws, gradient=True)
    assert np.allclose(grad_plane[0], grad_dense, atol=1e-10)
    assert dense.shape == (3,)


def test_dense_sampler_memory_stays_within_phase_budget():
    spec = GridSpec((32, 32, 32))
    u = rasterize(Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), spec)
    ws = get_workspace(spec)
    pts = np.random.default_rng(3).random((300, 3))
    tracemalloc.start()
    try:
        grad = sample_potential(u, pts, ws, gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (300, 3)
    assert peak < 2 * _PHASE_BLOCK_BYTES


@pytest.mark.parametrize("query", ["sphere-nodes", "lamella-lines", "ball-lines"])
def test_prefix_sampler_memory_stays_within_phase_budget(query):
    # the sphere chart and the C0 proxy's 41,472-point lamella-line and
    # 20,736-point oblique ball-line sets at 32^3: the (points x 3) result
    # and the per-point sort keys count too
    if query == "sphere-nodes":
        pts = interface_mesh(Ball((0.5, 0.5, 0.5), 0.25), 16, 3).all_points()
    elif query == "lamella-lines":
        pts = normal_lines(Lamella(axis=0, center=0.5, halfwidth=0.25), 3, 16)
    else:
        pts = normal_lines(Ball((0.5, 0.5, 0.5), 0.25), 3, 16)
    spec = GridSpec((32, 32, 32))
    u = rasterize(Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), spec)
    ws = get_workspace(spec)
    tracemalloc.start()
    try:
        grad = sample_potential(u, pts, ws, gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (len(pts), 3)
    assert peak < 2 * _PHASE_BLOCK_BYTES


def test_pencil_row_node_sampling_holds_no_full_lattice():
    # the 16 row nodes of the 32^3 cylinder pencil: the sampler contracts
    # the half spectrum itself, so no full-lattice coefficient array (16
    # B/cell, 0.5 MiB here) is built on the way
    spec = GridSpec((32, 32, 32))
    shape = Cylinder(axis=2, center=(0.5, 0.5), radius=0.25)
    pts = interface_mesh(shape, 16, 3).all_points()[::16]
    assert len(pts) == 16
    u = rasterize(shape, spec)
    ws = get_workspace(spec)
    tracemalloc.start()
    try:
        grad = sample_potential(u, pts, ws, gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (16, 3)
    assert peak < 0.8 * 2**20


def test_c0_proxy_lines_contract_in_one_chunk(monkeypatch):
    # the 2,592 C0 line points of the 64^2 lamella: one chunk, so each of
    # the two levels makes its factor rows once, within the phase budget
    spec = GridSpec((64, 64))
    seed = Lamella(axis=0, center=0.5, halfwidth=0.25)
    u = tanh_profile(seed, spec, 0.06)
    pts = normal_lines(seed, 2, 16)
    ws = get_workspace(spec)
    calls = []
    factor_rows = spectral._factor_rows
    monkeypatch.setattr(spectral, "_factor_rows", lambda x, n: calls.append(n) or factor_rows(x, n))
    tracemalloc.start()
    try:
        sample_field(u, pts, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 2
    assert peak < _PHASE_BLOCK_BYTES


def dense_mode_sum(coeffs: np.ndarray, points: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Oracle: Re sum_xi c(xi) e^{2 pi i xi . x}, or its d/dx_axis, term by term."""
    xi = np.stack(
        np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in coeffs.shape], indexing="ij"), -1
    ).reshape(-1, coeffs.ndim)
    c = coeffs.ravel()
    if axis is not None:
        c = c * (2j * np.pi * xi[:, axis])
    out = np.empty(len(points))
    for lo in range(0, len(points), 16):
        phase = np.exp(2j * np.pi * (points[lo : lo + 16] @ xi.T))
        out[lo : lo + 16] = (phase @ c).real
    return out


@pytest.mark.parametrize("sizes", [(64, 64), (32, 32, 32), (16, 24, 20), (6, 10, 4)])
def test_samplers_match_dense_mode_sum(sizes, monkeypatch):
    spec = GridSpec(sizes)
    rng = np.random.default_rng(11)
    u = ScalarField(spec, rng.standard_normal(sizes))
    # scattered points, then points with three distinct values on the first
    # axis and on the last (the rfft axis): the axis with the fewest
    # distinct values is contracted first, so level 0 lands off the rfft
    # axis and on it
    sets = [rng.random((300, spec.dim))]
    for axis in (0, spec.dim - 1):
        few = rng.random((100, spec.dim))
        few[:, axis] = rng.choice(rng.random(3), len(few))
        sets.append(few)
    lasts = []
    first_level = spectral._first_level

    def spy(rows, head, last):
        lasts.append(last)
        return first_level(rows, head, last)

    monkeypatch.setattr(spectral, "_first_level", spy)
    for pts in sets:
        assert_samplers_match_oracle(u, pts)
    # last is the place of the rfft axis in the contraction order
    assert {0} < set(lasts)


def dense_coeffs(u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Oracle coefficients of the interpolant and of the potential of u, on
    the full lattice in fftfreq layout."""
    sizes = u.spec.sizes
    freqs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    interp = np.fft.fftn(u.values) / u.spec.cells
    sinc = np.ones(sizes)
    for f, n in zip(freqs, sizes):
        interp = interp * np.exp(-1j * np.pi * f / n)
        sinc = sinc * np.sinc(f / n)
    lap = sum(4 * np.pi**2 * f**2 for f in freqs)
    return interp, np.where(lap > 0, interp * sinc / np.where(lap > 0, lap, 1.0), 0.0)


def assert_samplers_match_oracle(u: ScalarField, pts: np.ndarray, gradient: bool = True):
    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    interp, pot = dense_coeffs(u)
    close(sample_field(u, pts), dense_mode_sum(interp, pts))
    value = sample_potential(u, pts)
    close(value, dense_mode_sum(pot, pts))
    if gradient:
        grad = sample_potential(u, pts, gradient=True)
        assert grad.shape == (len(pts), u.spec.dim)
        for a in range(u.spec.dim):
            close(grad[:, a], dense_mode_sum(pot, pts, axis=a))
        both = _potential_and_gradient(u, pts, get_workspace(u.spec))
        close(both[0], value)
        close(both[1], grad)


def normal_lines(shape, dim: int, resolution: int, samples: int = 81) -> np.ndarray:
    """The C0 proxy's query set: samples along every seed-mesh normal."""
    mesh = interface_mesh(shape, resolution, dim)
    ts = np.linspace(-0.08, 0.08, samples)
    lines = mesh.all_points()[:, None, :] + ts[None, :, None] * mesh.all_normals()[:, None, :]
    return np.mod(lines, 1.0).reshape(-1, dim)


def test_prefix_sampler_on_normal_lines():
    # 16 distinct x1 times 162 distinct x0: a tensor grid of 2,592 points
    spec = GridSpec((64, 64))
    u = ScalarField(spec, np.random.default_rng(2).standard_normal(spec.sizes))
    pts = normal_lines(Lamella(axis=0, center=0.5, halfwidth=0.25), 2, 16)
    assert len(pts) == 2592 and len(np.unique(pts[:, 1])) == 16
    assert_samplers_match_oracle(u, pts, gradient=False)
    assert_samplers_match_oracle(u, normal_lines(Lamella(axis=1, center=0.3, halfwidth=0.2), 2, 8, 9))
    # oblique lines: nearly every point is its own prefix, but the lines
    # along the axes share a coordinate
    assert_samplers_match_oracle(u, normal_lines(Ball((0.43, 0.52), 0.3), 2, 8, 9))


@pytest.mark.parametrize(
    "shape",
    [
        Lamella(axis=0, center=0.5, halfwidth=0.25),
        Cylinder(axis=2, center=(0.5, 0.5), radius=0.25),
        Ball((0.45, 0.5, 0.55), 0.3),
    ],
    ids=["lamella", "cylinder", "sphere"],
)
def test_prefix_sampler_on_3d_chart_nodes(shape):
    spec = GridSpec((12, 16, 10))
    u = ScalarField(spec, np.random.default_rng(3).standard_normal(spec.sizes))
    assert_samplers_match_oracle(u, interface_mesh(shape, 8, 3).all_points())


def test_prefix_sampler_on_repeated_coordinates_and_torus_ends():
    spec = GridSpec((6, 10, 4))
    rng = np.random.default_rng(6)
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    values = np.array([0.0, 1.0, 0.5, 0.25, 0.7])
    pts = values[rng.integers(0, len(values), (150, 3))]
    pts = np.concatenate([pts, pts[:20], rng.random((30, 3))])
    assert_samplers_match_oracle(u, pts)
    # 0.0 and 1.0 are the same torus point
    ends = sample_potential(u, np.array([[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]]), gradient=True)
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-12 * np.max(np.abs(ends))


def test_prefix_sampler_on_1d_grids():
    spec = GridSpec((32,))
    rng = np.random.default_rng(7)
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    pts = np.concatenate([rng.random(40), [0.0, 1.0, 0.5, 0.5, 0.0]])[:, None]
    assert_samplers_match_oracle(u, pts)


def test_prefix_sampler_across_chunk_boundaries(monkeypatch):
    # a budget of a few points per chunk cuts prefix runs at chunk ends
    spec = GridSpec((16, 12, 10))
    u = ScalarField(spec, np.random.default_rng(8).standard_normal(spec.sizes))
    pts = np.concatenate(
        [
            interface_mesh(Cylinder(axis=2, center=(0.5, 0.5), radius=0.25), 8, 3).all_points(),
            normal_lines(Lamella(axis=1, center=0.5, halfwidth=0.25), 3, 8, 5),
        ]
    )
    calls = []
    factor_rows = spectral._factor_rows
    monkeypatch.setattr(spectral, "_factor_rows", lambda x, n: calls.append(n) or factor_rows(x, n))
    monkeypatch.setattr(spectral, "_PHASE_BLOCK_BYTES", 40_000)
    assert_samplers_match_oracle(u, pts)
    assert len(calls) > 100  # three levels per chunk: many chunks


@pytest.mark.parametrize(
    "sizes, pts",
    [((32,), np.linspace(0.0, 0.9, 10)), ((8, 8), np.full((4, 3), 0.3)), ((8, 8), np.full((4, 1), 0.3))],
    ids=["flat-on-1d", "three-coordinates-on-2d", "one-coordinate-on-2d"],
)
def test_samplers_reject_points_of_the_wrong_shape(sizes, pts):
    u = ScalarField(GridSpec(sizes), np.random.default_rng(9).standard_normal(sizes))
    with pytest.raises(ValueError, match="points must have shape"):
        sample_field(u, pts)
    with pytest.raises(ValueError, match="points must have shape"):
        sample_potential(u, pts, gradient=True)


@settings(max_examples=30, deadline=None)
@given(
    half_sizes=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    distinct=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_sampler_on_few_distinct_values_per_axis(half_sizes, distinct, seed):
    spec = GridSpec(tuple(2 * h for h in half_sizes))
    rng = np.random.default_rng(seed)
    u = ScalarField(spec, rng.standard_normal(spec.sizes))
    axes = [rng.choice([0.0, 1.0, *rng.random(4)], size=k, replace=False) for k in distinct]
    pts = np.stack([axes[a][rng.integers(0, len(axes[a]), 60)] for a in range(spec.dim)], -1)
    assert_samplers_match_oracle(u, pts)


@settings(max_examples=40, deadline=None)
@given(
    half_sizes=st.lists(st.integers(2, 12), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_field_reproduces_samples_at_cell_centres(half_sizes, seed):
    # trigonometric interpolation is exact at the nodes
    spec = GridSpec(tuple(2 * h for h in half_sizes))
    u = ScalarField(spec, np.random.default_rng(seed).standard_normal(spec.sizes))
    centres = np.stack(np.broadcast_arrays(*spec.center_mesh()), -1).reshape(-1, spec.dim)
    got = sample_field(u, centres).reshape(spec.sizes)
    assert np.max(np.abs(got - u.values)) <= 1e-12 * max(1.0, np.max(np.abs(u.values)))


def workspace_bytes(ws) -> int:
    """ndarray bytes of the workspace attributes, lists included."""
    total = 0
    for value in vars(ws).values():
        for arr in value if isinstance(value, list) else [value]:
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


def test_workspace_holds_no_full_grid_array():
    # two half-spectrum float arrays (about 8.25 B/cell at 64^3) and per-axis
    # factors; one full-grid float array alone would be 8 B/cell more
    spec = GridSpec((64, 64, 64))
    ws = get_workspace(spec)
    assert workspace_bytes(ws) <= 9 * spec.cells
    assert all(v.size < spec.cells for v in vars(ws).values() if isinstance(v, np.ndarray))


def test_spectral_fft_budget(monkeypatch):
    # grid operations run on the real-FFT half spectrum; an off-grid sampler
    # contracts it directly, so a call is one real transform.  On a 3D grid
    # a forward transform is one rfft and two fft, an inverse two ifft and
    # one irfft
    calls = {}
    for name in ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    spec = GridSpec((16, 24, 20))
    u = rasterize(Ball((0.4, 0.5, 0.6), 0.3), spec)
    ws = get_workspace(spec)
    forward = {"rfft": 1, "fft": 2}
    nonlocal_energy(u, ws)
    assert calls == forward
    calls.clear()
    poisson_zero_mean(u, ws)
    assert calls == {**forward, "ifft": 2, "irfft": 1}
    calls.clear()
    pts = np.random.default_rng(0).random((50, 3))
    sample_field(u, pts, ws)
    assert calls == forward
    calls.clear()
    sample_potential(u, pts, ws, gradient=True)
    assert calls == forward
