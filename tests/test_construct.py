"""Continuation, sharpening, certification, and minimality probe tests."""

import numpy as np
import pytest

from okpattern.construct import (
    ConstructConfig,
    build_periodic,
    continue_family,
    enumerate_swap_pairs,
    fitted_growth_exponent,
    graph_probe_study,
    interface_wobble,
    local_minimality_probe,
    nl_tiling_identity_error,
    probe_energy_gap,
    sharpen_to_volume,
    zero_level_displacement,
)
from okpattern.diffuse_ok import FlowConfig
from okpattern.torus_field import (
    Ball,
    GridSpec,
    Lamella,
    ScalarField,
    alpha_distance,
    rasterize,
    tanh_profile,
    tile,
)

SEED = Lamella(axis=0, center=0.5, halfwidth=0.25)


def default_flow(**kw):
    base = dict(eps=0.06, dt=5e-3, max_steps=300, energy_tolerance=1e-11)
    base.update(kw)
    return FlowConfig(**base)


def test_sharpen_restores_volume():
    spec = GridSpec((64, 64))
    u = tanh_profile(SEED, spec, 0.06)
    target = int(np.sum(rasterize(SEED, spec).values > 0))
    sharp = sharpen_to_volume(u, target)
    assert sharp.kind == "indicator"
    assert int(np.sum(sharp.values > 0)) == target
    with pytest.raises(ValueError):
        sharpen_to_volume(u, 0)


def test_sharpen_exact_under_value_ties():
    # symmetric profiles carry exact value orbits; tie-break by index keeps
    # the volume exact and the result deterministic
    spec = GridSpec((64, 64))
    ball = Ball((0.5, 0.5), 0.3)
    u = tanh_profile(ball, spec, 0.06)
    for target in (1000, 1003):
        sharp = sharpen_to_volume(u, target)
        again = sharpen_to_volume(u, target)
        assert int(np.sum(sharp.values > 0)) == target
        assert np.array_equal(sharp.values, again.values)


def test_interface_wobble_preserves_mass():
    spec = GridSpec((64, 64))
    u = tanh_profile(SEED, spec, 0.06)
    wob = interface_wobble(u, 0, 2.0 / 64, 1)
    assert wob.mean == pytest.approx(u.mean, abs=1e-13)
    assert np.max(np.abs(wob.values - u.values)) > 1e-3


def test_continue_family_recovers_seed_at_gamma_zero():
    spec = GridSpec((64, 64))
    fam = continue_family(SEED, [0.0], default_flow(), spec)
    assert fam.status == "complete"
    member = fam.members[0]
    assert member.alpha_step <= 10.0 / 64
    assert alpha_distance(member.sharp, rasterize(SEED, spec)) <= 10.0 / 64


def test_continue_family_steps_shrink_with_gamma_refinement():
    # a disk genuinely deforms with gamma, so the per-step alpha must shrink
    # roughly in proportion to the gamma increment
    spec = GridSpec((64, 64))
    ball = Ball((0.5, 0.5), 0.3)
    flow = default_flow(max_steps=400)
    coarse = continue_family(ball, [0.0, 6.0], flow, spec)
    fine = continue_family(ball, [0.0, 3.0, 6.0], flow, spec)
    assert coarse.status == "complete" and fine.status == "complete"
    step_coarse = coarse.members[-1].alpha_step
    steps_fine = [m.alpha_step for m in fine.members[1:]]
    assert max(steps_fine) <= step_coarse + 1e-12


def test_continue_family_truncates_beyond_threshold():
    spec = GridSpec((96, 96))
    flow = FlowConfig(eps=0.05, dt=2e-3, max_steps=1500, energy_tolerance=1e-13)
    fam = continue_family(
        SEED, [0.0, 40.0, 150.0], flow, spec, perturb_amplitude=3.0 / 96
    )
    assert fam.status == "truncated"
    below = continue_family(
        SEED, [0.0, 40.0], flow, spec, perturb_amplitude=3.0 / 96
    )
    assert below.status == "complete"
    assert all(m.alpha_step <= 2.0 / 96 for m in below.members)


def test_continue_family_rejects_bad_gammas():
    spec = GridSpec((32, 32))
    with pytest.raises(ValueError):
        continue_family(SEED, [1.0, 0.5], default_flow(), spec)


def test_build_periodic_certificates():
    spec = GridSpec((64, 64))
    cfg = ConstructConfig(
        seed=SEED, gamma_bar=1.0, k_list=(1, 2, 4), spec=spec, flow=default_flow()
    )
    certs = build_periodic(cfg)
    assert [c.k for c, _ in certs] == [1, 2, 4]
    for cert, tiled in certs:
        assert cert.status == "ok"
        assert cert.energy_rel_err <= 1e-3
        assert cert.residual_sup <= 1e-8
        assert tiled is not None
    c0s = [c.c0_proxy for c, _ in certs]
    assert all(b <= a + 1e-9 for a, b in zip(c0s, c0s[1:]))
    # k=1: tiled field equals the parent, certificate identity is trivial
    assert certs[0][0].energy_lhs == pytest.approx(certs[0][0].energy_rhs, rel=1e-12)


def test_build_periodic_gamma_k_scaling_and_nl_identity():
    spec = GridSpec((64, 64))
    cfg = ConstructConfig(
        seed=SEED, gamma_bar=2.0, k_list=(2,), spec=spec, flow=default_flow()
    )
    (cert, tiled), = build_periodic(cfg)
    assert cert.gamma_k == pytest.approx(2.0 / 8)
    # NL(tile(E,k)) = k^-2 NL(E) with the parent on the n/k grid: rounding-exact
    fam = continue_family(SEED, [0.0, cert.gamma_k], default_flow(), spec)
    err = nl_tiling_identity_error(fam.members[-1].sharp, 2)
    assert err <= 1e-12


def test_build_periodic_config_validation():
    spec = GridSpec((64, 64))
    with pytest.raises(ValueError):
        ConstructConfig(seed=SEED, gamma_bar=1.0, k_list=(3,), spec=spec, flow=default_flow())
    with pytest.raises(ValueError):
        ConstructConfig(seed=SEED, gamma_bar=-1.0, k_list=(2,), spec=spec, flow=default_flow())


def test_zero_level_displacement_detects_shift():
    spec = GridSpec((128, 128))
    shifted = Lamella(axis=0, center=0.5 + 2.0 / 128, halfwidth=0.25)
    u = tanh_profile(shifted, spec, 0.05)
    d = zero_level_displacement(u, SEED, resolution=8)
    assert d == pytest.approx(2.0 / 128, abs=2e-4)


def test_zero_level_displacement_on_curved_normals():
    # disk seed: every normal line is oblique to the grid axes
    spec = GridSpec((128, 128))
    seed = Ball((0.5, 0.5), 0.25)
    u = tanh_profile(Ball((0.5, 0.5), 0.25 + 2.0 / 128), spec, 0.05)
    d = zero_level_displacement(u, seed, resolution=16)
    assert d == pytest.approx(2.0 / 128, abs=2e-4)


def test_local_minimality_probe_gaps():
    spec = GridSpec((64, 64))
    f2 = tile(rasterize(SEED, spec), 2)
    rep = local_minimality_probe(f2, 1.0, 2, 60, 3, seed=5)
    assert rep.skipped == 0
    assert rep.min_gap >= -1e-12
    zero = local_minimality_probe(f2, 1.0, 2, 10, 0)
    assert np.all(zero.gaps == 0.0)
    with pytest.raises(ValueError):
        local_minimality_probe(f2, 1.0, 2, 5, 4)
    not_periodic = ScalarField(
        spec, np.where(np.broadcast_to(spec.center_mesh()[0] > 0.43, spec.sizes), 1.0, -1.0), "indicator"
    )
    with pytest.raises(ValueError, match="periodic"):
        local_minimality_probe(not_periodic, 1.0, 2, 5, 1)


def test_exhaustive_small_probe_scan_coarse():
    spec = GridSpec((32, 32))
    f2 = tile(rasterize(SEED, spec), 2)
    worst = 0.0
    count = 0
    for pair in enumerate_swap_pairs(f2, 2, amplitude=1):
        gap = probe_energy_gap(f2, 1.0, 2, pair)
        worst = min(worst, gap) if count else gap
        count += 1
        assert gap >= -1e-12
    assert count > 0


def test_graph_probe_quadratic_growth():
    spec = GridSpec((256, 256))
    alphas, gaps = graph_probe_study(0.25, [2, 3, 4, 6, 8], spec, 1.0)
    assert np.all(gaps > 0)
    exponent = fitted_growth_exponent(alphas, gaps)
    assert abs(exponent - 2.0) <= 0.3
