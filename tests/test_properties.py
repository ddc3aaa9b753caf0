"""Property tests of the exact identities the pipeline rests on.

Each law holds to rounding (or exactly) for every input, so hypothesis draws
the grids, sets and parameters: the 1/k tiling laws of the energy and of the
criticality residual, the potential of a raster from the grid of the axes
its shape varies along, mass conservation and energy descent of one flow step,
the alpha pseudometric, and the OKF byte round trip.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okpattern.diffuse_ok import FlowConfig, flow_state, flow_step
from okpattern.geometry import el_residual
from okpattern.sharp_energy import total_variation_perimeter
from okpattern.spectral import _potential_and_gradient, get_workspace, nonlocal_energy
from okpattern.torus_field import (
    FIELD_KINDS,
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    TiledShape,
    alpha_distance,
    periodize,
    rasterize,
    read_field,
    reduced_raster,
    subsample,
    tile,
    write_field,
)

SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0, exclude_max=True)
RADII = st.floats(0.1, 0.4)
# (candidate, grid sizes) pairs; every size is divisible by k = 2, 3 and 4
CANDIDATES = st.one_of(
    st.tuples(st.builds(Lamella, st.integers(0, 1), UNIT, st.floats(0.05, 0.45)), st.just((48, 48))),
    st.tuples(st.builds(Ball, st.tuples(UNIT, UNIT), RADII), st.just((48, 48))),
    st.tuples(st.builds(Cylinder, st.integers(0, 2), st.tuples(UNIT, UNIT), RADII), st.just((24,) * 3)),
    st.tuples(st.builds(Ball, st.tuples(UNIT, UNIT, UNIT), RADII), st.just((24,) * 3)),
)


def random_set(spec: GridSpec, rng) -> ScalarField:
    """A two-phase indicator on spec with both phases present."""
    values = np.where(rng.random(spec.sizes) < 0.5, 1.0, -1.0)
    values.flat[0], values.flat[-1] = 1.0, -1.0
    return ScalarField(spec, values, "indicator")


def assert_rel_close(got: float, want: float, rel: float = 1e-12) -> None:
    assert abs(got - want) <= rel * abs(want)


@settings(max_examples=40, deadline=None)
@given(half=st.lists(st.integers(2, 4), min_size=1, max_size=3), k=st.integers(1, 3), seed=SEEDS)
def test_tiling_laws(half, k, seed):
    # tile(E, k) is the parent E' = subsample(E, k) repeated k times per axis:
    # its TV perimeter is k P(E') and its nonlocal energy k^-2 NL(E')
    spec = GridSpec(tuple(2 * h * k for h in half))
    e = random_set(spec, np.random.default_rng(seed))
    tiled, parent = tile(e, k), subsample(e, k)
    assert np.array_equal(tiled.values, periodize(parent, k).values)
    assert_rel_close(total_variation_perimeter(tiled), k * total_variation_perimeter(parent))
    assert_rel_close(nonlocal_energy(tiled), nonlocal_energy(parent) / k**2)


@settings(max_examples=30, deadline=None)
@given(candidate=CANDIDATES, k=st.integers(2, 4), gamma_bar=st.floats(0.0, 20.0))
def test_criticality_tiling_law(candidate, k, gamma_bar):
    # the tiled seed's EL residual at gamma_bar is the seed's at
    # gamma_bar / k^3 on the n/k grid, times k (lambda and the residual) and
    # k^2 (the tangential bound)
    seed, sizes = candidate
    spec = GridSpec(sizes)
    tiled = el_residual(TiledShape(seed, k), gamma_bar, spec, 16)
    parent = el_residual(seed, gamma_bar / k**3, spec.coarsen(k), 16)
    tol = 1e-12 * max(1.0, abs(tiled.lambda_))
    assert abs(tiled.lambda_ - k * parent.lambda_) <= tol
    assert abs(tiled.residual_sup - k * parent.residual_sup) <= tol
    assert abs(tiled.grad_h_sup - k**2 * parent.grad_h_sup) <= tol


# (candidate, grid sizes) pairs; every size is divisible by k = 1, 2 and 4,
# and the k = 4 coarse grid keeps at least 4 cells per axis
SIZES_2D = st.sampled_from([(16, 16), (16, 32), (32, 24)])
SIZES_3D = st.sampled_from([(16, 16, 16), (16, 24, 16)])
TILEABLE = st.one_of(
    st.tuples(st.builds(Lamella, st.integers(0, 1), UNIT, st.floats(0.05, 0.45)), SIZES_2D),
    st.tuples(st.builds(Ball, st.tuples(UNIT, UNIT), RADII), SIZES_2D),
    st.tuples(st.builds(Lamella, st.integers(0, 2), UNIT, st.floats(0.05, 0.45)), SIZES_3D),
    st.tuples(st.builds(Cylinder, st.integers(0, 2), st.tuples(UNIT, UNIT), RADII), SIZES_3D),
    st.tuples(st.builds(Ball, st.tuples(UNIT, UNIT, UNIT), RADII), SIZES_3D),
)


@settings(max_examples=60, deadline=None)
@given(candidate=TILEABLE, k=st.sampled_from([1, 2, 4]), seed=SEEDS)
def test_reduced_raster_carries_the_potential_of_the_full_raster(candidate, k, seed):
    # the raster is constant along the axes its shape does not vary along, so
    # its spectrum is zero off xi_a = 0 there: the potential and gradient at
    # x are the reduced raster's at x's varying coordinates, and the gradient
    # along the other axes is 0
    shape, sizes = candidate
    spec = GridSpec(sizes)
    tiled = TiledShape(shape, k)
    axes, reduced = reduced_raster(tiled, spec)
    if isinstance(shape, Lamella):
        assert axes == (shape.axis,)
    elif isinstance(shape, Cylinder):
        assert axes == shape.cross_axes()
    else:
        assert axes == tuple(range(spec.dim))
    assert reduced.kind == "indicator" and reduced.spec.sizes == tuple(sizes[a] for a in axes)
    full = rasterize(tiled, spec)
    keep = [n if a in axes else 1 for a, n in enumerate(sizes)]
    assert full.values.tobytes() == np.broadcast_to(reduced.values.reshape(keep), sizes).tobytes()
    cols = list(axes)
    pts = np.random.default_rng(seed).random((16, spec.dim))
    v_full, g_full = _potential_and_gradient(full, pts, get_workspace(spec))
    v, g = _potential_and_gradient(reduced, pts[:, cols], get_workspace(reduced.spec))
    if len(axes) == spec.dim:
        # a ball keeps every axis: the same arithmetic, bit for bit
        assert v.tobytes() == v_full.tobytes() and g.tobytes() == g_full.tobytes()
    assert np.all(g_full[:, [a for a in range(spec.dim) if a not in axes]] == 0.0)
    assert np.max(np.abs(v - v_full)) <= 1e-13 * np.max(np.abs(v_full))
    assert np.max(np.abs(g - g_full[:, cols])) <= 1e-13 * np.max(np.abs(g_full))


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([16, 24, 32]), min_size=1, max_size=2),
    eps_cells=st.floats(2.0, 4.0),
    gamma=st.floats(0.0, 50.0),
    dt=st.floats(1e-4, 0.1),
    seed=SEEDS,
)
def test_flow_step_conserves_mass_and_never_raises_the_energy(sizes, eps_cells, gamma, dt, seed):
    spec = GridSpec(tuple(sizes))
    rng = np.random.default_rng(seed)
    u0 = ScalarField(spec, rng.uniform(-1.0, 1.0, spec.sizes), "phase")
    config = FlowConfig(eps=eps_cells * spec.max_spacing, gamma=gamma, dt=dt)
    state = flow_state(u0, config)
    for _ in range(3):
        new = flow_step(state, config)
        assert abs(new.u.mean - u0.mean) <= 1e-12
        assert new.energy <= state.energy
        state = new


@settings(max_examples=40, deadline=None)
@given(
    half=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    shift=st.lists(st.integers(-10, 10), min_size=3, max_size=3),
    seed=SEEDS,
)
def test_alpha_distance_is_a_translation_invariant_pseudometric(half, shift, seed):
    spec = GridSpec(tuple(2 * h for h in half))
    rng = np.random.default_rng(seed)
    e, f, g = (random_set(spec, rng) for _ in range(3))

    def cells(a, b):
        # the distance counts mismatched cells: compare the counts exactly
        return round(alpha_distance(a, b) / spec.cell_volume)

    moved = ScalarField(spec, np.roll(e.values, shift[: spec.dim], range(spec.dim)), "indicator")
    assert cells(e, f) == cells(f, e)
    assert cells(e, g) <= cells(e, f) + cells(f, g)
    assert cells(moved, f) == cells(e, f)
    assert cells(moved, e) == 0


@settings(max_examples=40, deadline=None)
@given(
    half=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    flips=st.lists(st.integers(0, 2**32 - 1), max_size=2),
    seed=SEEDS,
)
def test_alpha_distance_of_equal_sets_agrees_with_the_fft_path(half, flips, seed):
    # a set against its copy with up to two cells flipped: equal pairs take
    # the no-FFT shortcut, the others the cross-correlation, and both read
    # the complex-FFT cross-correlation's minimum
    spec = GridSpec(tuple(2 * h for h in half))
    e = random_set(spec, np.random.default_rng(seed))
    values = e.values.copy()
    values.flat[[i % spec.cells for i in flips]] *= -1.0
    f = ScalarField(spec, values, "indicator")
    corr = np.fft.ifftn(np.fft.fftn(e.values) * np.conj(np.fft.fftn(f.values))).real
    want = float(np.rint((spec.cells - corr) / 2.0).min()) * spec.cell_volume
    assert alpha_distance(e, f) == want


KIND_VALUES = {
    "generic": st.floats(allow_nan=False, width=64),
    "indicator": st.sampled_from([-1.0, 1.0]),
    "phase": st.floats(-1.1, 1.1),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", FIELD_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_field_file_write_read_write_is_byte_identical(kind, dim, data):
    sizes = tuple(data.draw(st.lists(st.sampled_from([4, 6]), min_size=dim, max_size=dim)))
    count = int(np.prod(sizes))
    values = data.draw(st.lists(KIND_VALUES[kind], min_size=count, max_size=count))
    u = ScalarField(GridSpec(sizes), np.reshape(values, sizes), kind)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.okf", Path(tmp) / "b.okf"
        write_field(u, first)
        back = read_field(first)
        write_field(back, second)
        assert back.kind == kind and back.spec == u.spec
        assert back.values.tobytes() == u.values.tobytes()
        assert first.read_bytes() == second.read_bytes()
