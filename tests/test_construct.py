"""Continuation, sharpening, certification, and minimality probe tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okpattern import construct
from okpattern.construct import (
    MESH_RESOLUTION,
    ConstructConfig,
    FamilyMember,
    StabilityGateError,
    _max_crossing_offset,
    _swap_gaps,
    _swap_pairs,
    build_periodic,
    continue_family,
    fitted_growth_exponent,
    graph_probe_study,
    local_minimality_probe,
    sharpen_to_volume,
    zero_level_displacement,
)
from okpattern.cli import run
from okpattern.diffuse_ok import FlowConfig, minimize, sharp_to_diffuse_gamma
from okpattern.geometry import interface_mesh
from okpattern.sharp_energy import total_variation_perimeter
from okpattern.spectral import _trig_shift, nonlocal_energy, sample_field
from okpattern.torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    alpha_distance,
    _broadcast,
    _reduced_profile,
    periodize,
    rasterize,
    reduced_raster,
    subsample,
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


def test_continue_family_recovers_seed_at_gamma_zero():
    # the lamella's stage runs on its line grid
    spec = GridSpec((64, 64))
    member = continue_family(SEED, 0.0, default_flow(), spec)
    assert member.status == "complete"
    assert member.sharp.spec == member.phase.spec == GridSpec((64,))
    assert member.alpha_step <= 10.0 / 64
    assert alpha_distance(member.sharp, reduced_raster(SEED, spec)[1]) <= 10.0 / 64


def test_continued_family_matches_one_family_without_a_raster(monkeypatch):
    # a chain of stages, each started from the last member, is bitwise the
    # family flowed in one loop: each flow warm-starts from the previous
    # phase field, sharpens to the seed raster's volume and steps from the
    # previous sharpened set
    spec = GridSpec((32, 32))
    ball = Ball((0.5, 0.5), 0.3)
    flow = default_flow(eps=0.1, max_steps=60)
    gammas = (0.0, 2.0, 4.0)
    u, prev = tanh_profile(ball, spec, flow.eps), rasterize(ball, spec)
    volume = int(np.sum(prev.values > 0))
    whole = []
    for gamma in gammas:
        trace = minimize(u, replace(flow, gamma=sharp_to_diffuse_gamma(gamma)))
        u, sharp = trace.final, sharpen_to_volume(trace.final, volume)
        whole.append(FamilyMember(gamma, u, sharp, alpha_distance(sharp, prev), trace.status))
        prev = sharp
    chain = [continue_family(ball, gammas[0], flow, spec)]
    # a stage given `start` does not rasterize the seed again
    rasterized = []
    monkeypatch.setattr(construct, "reduced_raster", lambda *a: rasterized.append(a))
    for gamma in gammas[1:]:
        chain.append(continue_family(ball, gamma, flow, spec, start=chain[-1]))
    assert rasterized == []
    for a, b in zip(chain, whole, strict=True):
        assert a.status == "complete"
        assert (a.gamma, a.alpha_step, a.flow_status) == (b.gamma, b.alpha_step, b.flow_status)
        assert a.phase.values.tobytes() == b.phase.values.tobytes()
        assert a.sharp.values.tobytes() == b.sharp.values.tobytes()
    # ... and takes its volume from start.sharp, not from the seed
    smaller = replace(chain[0], sharp=sharpen_to_volume(chain[0].phase, volume - 5))
    member = continue_family(ball, 2.0, flow, spec, start=smaller)
    assert int(np.sum(member.sharp.values > 0)) == volume - 5
    assert member.alpha_step == alpha_distance(member.sharp, smaller.sharp)


def test_continue_family_steps_shrink_with_gamma_refinement():
    # a disk genuinely deforms with gamma, so the per-step alpha must shrink
    # roughly in proportion to the gamma increment
    spec = GridSpec((64, 64))
    ball = Ball((0.5, 0.5), 0.3)
    flow = default_flow(max_steps=400)
    base = continue_family(ball, 0.0, flow, spec)
    coarse = continue_family(ball, 6.0, flow, spec, start=base)
    fine = [base]
    for gamma in (3.0, 6.0):
        fine.append(continue_family(ball, gamma, flow, spec, start=fine[-1]))
    assert all(m.status == "complete" for m in [coarse, *fine])
    steps_fine = [m.alpha_step for m in fine[1:]]
    assert max(steps_fine) <= coarse.alpha_step + 1e-12


def test_continue_family_truncates_beyond_threshold():
    # before each stage the interfaces are displaced by 3 cells times
    # cos(2 pi y), so that tangential instabilities can express themselves;
    # one stage per gamma, each from the wobbled member
    spec = GridSpec((96, 96))
    flow = FlowConfig(eps=0.05, dt=2e-3, max_steps=1500, energy_tolerance=1e-13)
    disp = (3.0 / 96) * np.cos(2 * np.pi * spec.centers(1))[None, :]

    def wobbled_family(gammas):
        u = tanh_profile(SEED, spec, flow.eps)
        last = FamilyMember(0.0, u, rasterize(SEED, spec), 0.0, "converged")
        members, status = [], "complete"
        for gamma in gammas:
            wobbled = np.clip(_trig_shift(last.phase.values, 0, disp), -1.1, 1.1)
            start = replace(last, phase=ScalarField(spec, wobbled, "phase"))
            last = continue_family(SEED, gamma, flow, spec, start=start)
            members.append(last)
            if last.status != "complete":
                status = last.status
                break
        return members, status

    assert wobbled_family([0.0, 40.0, 150.0])[1] == "truncated"
    members, status = wobbled_family([0.0, 40.0])
    assert status == "complete"
    assert all(m.alpha_step <= 2.0 / 96 for m in members)


def test_family_member_status():
    # a stalled flow outranks the step; a step past 0.02 truncates the family
    spec = GridSpec((8, 8))
    sharp = rasterize(SEED, spec)
    member = FamilyMember(1.0, sharp, sharp, 0.02, "converged")
    assert member.status == "complete"
    assert replace(member, alpha_step=0.0201).status == "truncated"
    assert replace(member, alpha_step=0.5, flow_status="stalled").status == "stalled"
    assert replace(member, flow_status="max_steps").status == "complete"


def test_continue_family_rejects_bad_gammas():
    spec = GridSpec((32, 32))
    with pytest.raises(ValueError):
        continue_family(SEED, -0.5, default_flow(), spec)
    flow = default_flow(eps=0.07)
    start = continue_family(SEED, 1.0, flow, spec, start=continue_family(SEED, 0.0, flow, spec))
    with pytest.raises(ValueError):
        continue_family(SEED, 0.5, flow, spec, start=start)


@pytest.mark.parametrize(
    "seed, sizes, eps",
    [
        (Lamella(1, 0.5, 0.2), (64, 64), 0.06),
        (Lamella(1, 0.45, 0.25), (32, 24, 32), 0.09),
        (Cylinder(2, (0.5, 0.5), 0.25), (32, 32, 32), 0.07),
        (Ball((0.5, 0.5), 0.2), (64, 64), 0.06),
    ],
    ids=["lamella-axis1", "lamella-3d", "cylinder32", "disk64"],
)
def test_stages_on_the_reduced_grid_match_full_grid_stages(seed, sizes, eps):
    # oracle: the gamma = 0 and gamma = 1 stages flowed on the full grid, a
    # loop of minimize and sharpen_to_volume from the full tanh profile and
    # raster.  The flow keeps the seed's invariance, so each member broadcast
    # is the full grid's: the sharpened set bitwise, the phase field to
    # rounding (16 ulp of 1; the 3D lamella's 300 steps reach 1.7e-15); a
    # disk keeps every axis, and its phase field is bitwise too
    spec = GridSpec(sizes)
    flow = default_flow(eps=eps)
    axes = reduced_raster(seed, spec)[0]
    u, prev = tanh_profile(seed, spec, eps), rasterize(seed, spec)
    volume = int(np.sum(prev.values > 0))
    member = None
    for gamma in (0.0, 1.0):
        trace = minimize(u, replace(flow, gamma=sharp_to_diffuse_gamma(gamma)))
        u, sharp = trace.final, sharpen_to_volume(trace.final, volume)
        alpha, prev = alpha_distance(sharp, prev), sharp
        member = continue_family(seed, gamma, flow, spec, start=member)
        assert member.phase.spec.sizes == tuple(sizes[a] for a in axes)
        assert member.flow_status == trace.status
        assert member.alpha_step == pytest.approx(alpha, rel=1e-15, abs=0.0)
        assert _broadcast(axes, member.sharp, spec).values.tobytes() == sharp.values.tobytes()
        phase = _broadcast(axes, member.phase, spec).values
        if len(axes) == spec.dim:
            assert phase.tobytes() == u.values.tobytes()
        else:
            assert np.max(np.abs(phase - u.values)) <= 16 * np.finfo(float).eps


def construct_flow_dims(monkeypatch, argv, *, full_grid):
    """Run construct; return the exit code and the dimension of every
    flow's grid.  With full_grid, the oracle: the stages start from the full
    grid's tanh profile and raster, so they flow on the full grid."""
    dims = []
    real_minimize = construct.minimize
    with monkeypatch.context() as m:
        if full_grid:
            m.setattr(construct, "reduced_raster", lambda seed, spec: (tuple(range(spec.dim)), rasterize(seed, spec)))
            m.setattr(
                construct,
                "_reduced_profile",
                lambda seed, spec, eps: (tuple(range(spec.dim)), tanh_profile(seed, spec, eps)),
            )
        m.setattr(construct, "minimize", lambda u, flow: dims.append(u.spec.dim) or real_minimize(u, flow))
        return run(argv), dims


@pytest.mark.parametrize(
    "argv, flow_dim",
    [
        (["--grid", "64,64", "--shape", "lamella", "--w", "0.25", "--k", "1,2,4"], 1),
        (["--grid", "64,64", "--shape", "lamella", "--axis", "1", "--w", "0.2", "--k", "1,2,4"], 1),
        (["--grid", "32,24,32", "--shape", "lamella", "--axis", "1", "--w", "0.25", "--eps", "0.09"], 1),
        (["--grid", "32,32,32", "--shape", "cylinder", "--center", "0.5,0.5", "--eps", "0.07"], 2),
        (["--grid", "64,64", "--shape", "ball", "--center", "0.5,0.5", "--radius", "0.2"], 2),
    ],
    ids=["construct-64", "lamella-axis1", "lamella-3d", "cylinder32", "disk64"],
)
def test_construct_on_the_reduced_grid_writes_the_full_grid_bytes(tmp_path, monkeypatch, argv, flow_dim):
    # every field and every report column but c0_proxy are the full-grid
    # run's bytes; c0_proxy samples the same lines of another field to
    # rounding.  A disk keeps every axis, so its whole report is bitwise
    dim = len(argv[1].split(","))
    argv = ["construct", *argv, "--gamma", "1"]
    full_run = construct_flow_dims(monkeypatch, [*argv, "--out", str(tmp_path / "full")], full_grid=True)
    reduced_run = construct_flow_dims(monkeypatch, [*argv, "--out", str(tmp_path / "reduced")], full_grid=False)
    assert full_run == (0, [dim] * len(full_run[1])) and reduced_run == (0, [flow_dim] * len(full_run[1]))
    full, reduced = ((tmp_path / n / "report.csv").read_text().splitlines() for n in ("full", "reduced"))
    assert len(full) == len(reduced)
    c0_col = full[0].split(",").index("c0_proxy")
    for a, b in zip(full, reduced):
        a, b = a.split(","), b.split(",")
        if flow_dim == dim:
            assert a == b
        c0 = (a.pop(c0_col), b.pop(c0_col))
        assert a == b
        if c0[0] != "c0_proxy":
            assert abs(float(c0[0]) - float(c0[1])) <= 1e-15
    names = sorted(p.name for p in (tmp_path / "full" / "fields").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "reduced" / "fields").iterdir())
    for name in names:
        assert (tmp_path / "full" / "fields" / name).read_bytes() == (tmp_path / "reduced" / "fields" / name).read_bytes()


def test_construct_checks_eps_against_the_full_grid(tmp_path, capsys):
    # eps = 0.04 resolves the lamella's 64-point line (2/64) but not the
    # 64 x 32 grid (2/32): the stages flow on the line, and eps is still
    # checked against the full grid's spacing
    line = tanh_profile(SEED, GridSpec((64,)), 0.04)
    assert minimize(line, default_flow(eps=0.04, max_steps=1)).status == "max_steps"
    out = tmp_path / "r"
    argv = ["construct", "--grid", "64,32", "--shape", "lamella", "--eps", "0.04", "--k", "1"]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: eps=0.04 below resolvability bound 2/min(n)=0.0625")
    assert not out.exists()


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


def test_build_periodic_runs_the_gamma_zero_stage_once(monkeypatch):
    spec = GridSpec((64, 64))
    cfg = ConstructConfig(seed=SEED, gamma_bar=1.0, k_list=(1, 2, 4), spec=spec, flow=default_flow())
    real_minimize, real_continue = construct.minimize, construct.continue_family
    gammas = []
    monkeypatch.setattr(
        construct, "minimize", lambda u, flow: gammas.append(flow.gamma) or real_minimize(u, flow)
    )
    shared = build_periodic(cfg)
    # one shared gamma = 0 flow, then one flow at gamma_k per k
    assert gammas == [0.0] + [sharp_to_diffuse_gamma(1.0 / k**3) for k in cfg.k_list]

    def per_k(seed, gamma, flow, spec, *, start=None):
        # the reference: each k chains a fresh gamma = 0 stage into gamma_k
        if start is not None:
            start = real_continue(seed, 0.0, flow, spec)
        return real_continue(seed, gamma, flow, spec, start=start)

    monkeypatch.setattr(construct, "continue_family", per_k)
    reference = build_periodic(cfg)
    for (cert, tiled), (want, want_tiled) in zip(shared, reference, strict=True):
        assert cert.status == "ok" and cert == want
        assert np.array_equal(tiled.values, want_tiled.values)


def test_build_periodic_gives_every_k_a_stalled_gamma_zero_stage(monkeypatch):
    real_minimize = construct.minimize

    def stall_at_zero(u, flow):
        trace = real_minimize(u, flow)
        if flow.gamma == 0:
            trace.status = "stalled"
        return trace

    monkeypatch.setattr(construct, "minimize", stall_at_zero)
    cfg = ConstructConfig(
        seed=SEED, gamma_bar=1.0, k_list=(1, 2), spec=GridSpec((32, 32)), flow=default_flow(eps=0.07)
    )
    results = build_periodic(cfg)
    assert [(c.status, f) for c, f in results] == [("stalled", None)] * 2


def test_build_periodic_truncates_only_the_k_whose_flow_jumps(monkeypatch, tmp_path):
    # k = 2's gamma_k flow returns two stripes of half the lamella's width,
    # at the lamella's volume but half the unit volume away from the gamma = 0
    # member: that k truncates, k = 1 does not, and construct exits 3.  The
    # lamella's stages run on its line grid, so the stripes live there
    spec = GridSpec((32, 32))
    flow = default_flow(eps=0.08, max_steps=150)
    stripes = ScalarField(GridSpec((32,)), -np.cos(4 * np.pi * spec.centers(0)), "phase")
    real_minimize = construct.minimize

    def jump_at_k2(u, cfg):
        trace = real_minimize(u, cfg)
        if cfg.gamma == sharp_to_diffuse_gamma(1.0 / 2**3):
            trace.final = stripes
        return trace

    monkeypatch.setattr(construct, "minimize", jump_at_k2)
    cfg = ConstructConfig(seed=SEED, gamma_bar=1.0, k_list=(1, 2), spec=spec, flow=flow)
    (ok, ok_field), (cut, cut_field) = build_periodic(cfg)
    assert (ok.status, cut.status) == ("ok", "truncated")
    assert ok_field is not None and cut_field is None
    assert np.isnan([cut.alpha_to_seed, cut.c0_proxy, cut.energy_lhs, cut.energy_rhs]).all()
    out = tmp_path / "c"
    argv = ["construct", "--grid", "32,32", "--k", "1,2", "--gamma", "1", "--eps", "0.08"]
    assert run([*argv, "--steps", "150", "--out", str(out)]) == 3
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["ok", "truncated"]
    assert sorted(p.name for p in (out / "fields").iterdir()) == ["tiled_k1.okf"]


def nl_tiling_identity_error(e_field, k):
    """Relative error of NL(tile(E, k)) = k^-2 NL(E), the parent on the n/k grid."""
    rhs = nonlocal_energy(subsample(e_field, k)) / k**2
    return abs(nonlocal_energy(tile(e_field, k)) - rhs) / abs(rhs)


def test_build_periodic_gamma_k_scaling_and_nl_identity():
    spec = GridSpec((64, 64))
    cfg = ConstructConfig(
        seed=SEED, gamma_bar=2.0, k_list=(2,), spec=spec, flow=default_flow()
    )
    (cert, tiled), = build_periodic(cfg)
    assert cert.gamma_k == pytest.approx(2.0 / 8)
    # NL(tile(E,k)) = k^-2 NL(E) with the parent on the n/k grid: rounding-exact
    base = continue_family(SEED, 0.0, default_flow(), spec)
    member = continue_family(SEED, cert.gamma_k, default_flow(), spec, start=base)
    err = nl_tiling_identity_error(member.sharp, 2)
    assert err <= 1e-12


def test_build_periodic_3d_cylinder():
    spec = GridSpec((32, 32, 32))
    cfg = ConstructConfig(
        seed=Cylinder(axis=2, center=(0.5, 0.5), radius=0.25),
        gamma_bar=1.0,
        k_list=(1, 2),
        spec=spec,
        flow=default_flow(eps=0.07),
    )
    results = build_periodic(cfg)
    assert [c.k for c, _ in results] == [1, 2]
    for cert, tiled in results:
        assert cert.status == "ok"
        assert cert.energy_rel_err <= 1e-3
        assert cert.alpha_to_seed <= 1.0 / 32
        # the tiled seed's residual is voxel-level (4.8e-4 and 5.9e-4 here)
        assert cert.residual_sup <= 5e-3
        # exhaustive amplitude-2 swap scan of the tiled field
        a, b = _swap_pairs(tiled, cert.k, 2)
        assert len(a) > 0
        assert _swap_gaps(tiled, cfg.gamma_bar, cert.k, a, b).min() >= -1e-12
    # the k = 1 field is the constructed parent itself
    assert nl_tiling_identity_error(results[0][1], 2) <= 1e-12


def test_build_periodic_records_a_lost_interface():
    # the gamma = 0 stage dissolves this ball: seed normal lines find no zero
    cfg = ConstructConfig(
        seed=Ball((0.5, 0.5, 0.5), 0.25),
        gamma_bar=1.0,
        k_list=(1,),
        spec=GridSpec((32, 32, 32)),
        flow=default_flow(eps=0.07),
    )
    (cert, tiled), = build_periodic(cfg)
    assert cert.status == "lost_interface"
    assert tiled is None
    assert np.isnan(cert.c0_proxy) and np.isnan(cert.residual_sup)


def test_failed_stability_gate_exits_3(tmp_path, monkeypatch):
    import okpattern.construct
    from okpattern.cli import run

    monkeypatch.setattr(okpattern.construct, "min_eigenvalue", lambda *args, **kwargs: -1.0)
    cfg = ConstructConfig(
        seed=SEED, gamma_bar=1.0, k_list=(1,), spec=GridSpec((32, 32)), flow=default_flow()
    )
    with pytest.raises(StabilityGateError, match="strict-stability"):
        build_periodic(cfg)
    assert issubclass(StabilityGateError, RuntimeError)
    assert run(["construct", "--grid", "32,32", "--k", "1", "--out", str(tmp_path / "c")]) == 3


def test_build_periodic_config_validation():
    spec = GridSpec((64, 64))
    with pytest.raises(ValueError):
        ConstructConfig(seed=SEED, gamma_bar=1.0, k_list=(3,), spec=spec, flow=default_flow())
    with pytest.raises(ValueError):
        ConstructConfig(seed=SEED, gamma_bar=-1.0, k_list=(2,), spec=spec, flow=default_flow())


def test_tiling_factor_below_one_rejected():
    spec = GridSpec((32, 32))
    for k in (0, -2):
        with pytest.raises(ValueError, match=">= 1"):
            spec.coarsen(k)
        with pytest.raises(ValueError, match=">= 1"):
            ConstructConfig(seed=SEED, gamma_bar=1.0, k_list=(k,), spec=spec, flow=default_flow())


def test_zero_level_displacement_detects_shift():
    spec = GridSpec((128, 128))
    shifted = Lamella(axis=0, center=0.5 + 2.0 / 128, halfwidth=0.25)
    u = _reduced_profile(shifted, spec, 0.05)[1]
    d = zero_level_displacement(u, SEED, spec, resolution=8)
    assert d == pytest.approx(2.0 / 128, abs=2e-4)


def test_zero_level_displacement_on_curved_normals():
    # disk seed: every normal line is oblique to the grid axes
    spec = GridSpec((128, 128))
    seed = Ball((0.5, 0.5), 0.25)
    u = tanh_profile(Ball((0.5, 0.5), 0.25 + 2.0 / 128), spec, 0.05)
    d = zero_level_displacement(u, seed, spec, resolution=16)
    assert d == pytest.approx(2.0 / 128, abs=2e-4)


def full_lines_displacement(phase, seed, resolution=MESH_RESOLUTION):
    """Oracle: every mesh node's normal line in the full torus, through one
    sample_field call on the full grid."""
    mesh = interface_mesh(seed, resolution, phase.spec.dim)
    ts = np.linspace(-0.08, 0.08, 81)
    lines = mesh.all_points()[:, None, :] + ts[None, :, None] * mesh.all_normals()[:, None, :]
    vals = sample_field(phase, np.mod(lines, 1.0).reshape(-1, phase.spec.dim)).reshape(len(lines), len(ts))
    return _max_crossing_offset(vals, ts)


def assert_c0_matches_full_lines(phase, seed, spec):
    """phase lies on the grid of the axes the seed varies along; the oracle
    samples it broadcast onto spec."""
    full = _broadcast(reduced_raster(seed, spec)[0], phase, spec)
    got, want = zero_level_displacement(phase, seed, spec), full_lines_displacement(full, seed)
    assert want < 0.08
    assert abs(got - want) <= 1e-15


def profile_with_ripples(seed, spec, ripples, rng, eps=0.08):
    """tanh of the seed's signed distance plus one small cosine along each
    axis the seed varies along that ripples flags, on the grid of those
    axes: a generic field where a member's phase field lies."""
    axes, raster = reduced_raster(seed, spec)
    coords = spec.center_mesh()
    values = np.tanh(seed.signed_distance(coords) / eps)
    for a in axes:
        if ripples[a]:
            amp, phase = rng.uniform(0.02, 0.1), rng.uniform(0.0, 1.0)
            values = values + amp * np.cos(2 * np.pi * (int(rng.integers(1, 3)) * coords[a] + phase))
    return ScalarField(raster.spec, values.reshape(raster.spec.sizes))


@settings(max_examples=30, deadline=None)
@given(
    half_sizes=st.lists(st.sampled_from([8, 12, 16]), min_size=2, max_size=3),
    cylinder=st.booleans(),
    axis=st.integers(0, 2),
    ripples=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_c0_matches_full_lines_on_partly_constant_fields(half_sizes, cylinder, axis, ripples, seed):
    # the field lies on the grid of the axes the seed varies along, and is
    # rippled along a random subset of them
    spec = GridSpec(tuple(2 * h for h in half_sizes))
    rng = np.random.default_rng(seed)
    axis %= spec.dim
    if cylinder and spec.dim == 3:
        shape = Cylinder(axis, tuple(rng.uniform(0.4, 0.6, 2)), float(rng.uniform(0.2, 0.3)))
    else:
        shape = Lamella(axis, float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.2, 0.3)))
    assert_c0_matches_full_lines(profile_with_ripples(shape, spec, ripples, rng), shape, spec)


@pytest.mark.parametrize("sizes, axis", [((64, 64), a) for a in (0, 1)] + [((32, 24, 32), a) for a in (0, 1, 2)])
def test_reduced_c0_matches_full_lines_on_lamella_seeds(sizes, axis):
    spec = GridSpec(sizes)
    seed = Lamella(axis, 0.5, 0.25)
    assert_c0_matches_full_lines(_reduced_profile(Lamella(axis, 0.51, 0.24), spec, 0.09)[1], seed, spec)


def test_c0_proxy_rejects_a_phase_field_off_the_seeds_grid():
    # a lamella's member phase field lies on its 64-point line; the full
    # 64^2 profile, a 32-point line or the line under a disk seed is refused
    spec = GridSpec((64, 64))
    with pytest.raises(ValueError, match="not the seed's grid"):
        zero_level_displacement(tanh_profile(SEED, spec, 0.06), SEED, spec)
    with pytest.raises(ValueError, match="not the seed's grid"):
        zero_level_displacement(_reduced_profile(SEED, GridSpec((32, 32)), 0.07)[1], SEED, spec)
    with pytest.raises(ValueError, match="not the seed's grid"):
        zero_level_displacement(_reduced_profile(SEED, spec, 0.06)[1], Ball((0.5, 0.5), 0.2), spec)


@pytest.mark.parametrize(
    "seed, sizes, eps, points, dim",
    [
        (SEED, (64, 64), 0.06, 162, 1),
        (Cylinder(2, (0.5, 0.5), 0.25), (32, 32, 32), 0.07, 1296, 2),
        (Ball((0.5, 0.5), 0.2), (64, 64), 0.06, 1296, 2),
    ],
    ids=["lamella64", "cylinder32", "disk64"],
)
def test_c0_proxy_samples_one_line_per_distinct_node(monkeypatch, seed, sizes, eps, points, dim):
    # the lamella's 32 nodes give 2 lines on the line grid, the cylinder's
    # 256 give 16 in the cross-section plane; the disk keeps its 16 oblique
    # lines in the full plane
    calls = []
    sample = construct.sample_field
    monkeypatch.setattr(
        construct, "sample_field", lambda u, pts: calls.append((u.spec.dim, pts.shape)) or sample(u, pts)
    )
    spec = GridSpec(sizes)
    zero_level_displacement(_reduced_profile(seed, spec, eps)[1], seed, spec)
    assert calls == [(dim, (points, dim))]


def loop_crossing_offset(line_vals, ts):
    """Reference: the per-line crossing search, one line at a time."""
    worst = 0.0
    for vals in line_vals:
        sgn = np.sign(vals)
        crossings = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if len(crossings) == 0:
            worst = np.inf
            continue
        mid = (len(ts) - 1) / 2.0
        j = crossings[np.argmin(np.abs(crossings + 0.5 - mid))]
        t_cross = ts[j] + (ts[j + 1] - ts[j]) * vals[j] / (vals[j] - vals[j + 1])
        worst = max(worst, abs(float(t_cross)))
    return worst


def test_crossing_search_matches_per_line_loop():
    window, samples = 0.08, 9
    ts = np.linspace(-window, window, samples)
    lines = {
        "none": [1.0, 2.0, 0.5, 3.0, 1.0, 2.0, 4.0, 1.0, 0.25],
        "zeros only touch": [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 1.0, 1.0],
        "one": [-2.0, -1.5, -1.0, -0.5, 0.25, 1.0, 1.5, 2.0, 2.5],
        "several": [1.0, -1.0, -2.0, 1.0, -1.0, -1.0, 2.0, -3.0, 1.0],
        # crossings at j = 2 and j = 5 are equally near the middle (3.5 and
        # 4.5 against mid = 4): the first wins
        "equidistant": [1.0, 1.0, 1.0, -0.3, -1.0, -1.0, 0.7, 1.0, 1.0],
        "far left": [1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0],
    }
    rng = np.random.default_rng(4)
    for name, vals in lines.items():
        vals = np.array([vals])
        got = _max_crossing_offset(vals, ts)
        assert got == loop_crossing_offset(vals, ts), name
    # the first of the equidistant crossings, not the second (0.02 + 0.02 / 1.7)
    tie = _max_crossing_offset(np.array([lines["equidistant"]]), ts)
    assert tie == pytest.approx(0.04 - 0.02 / 1.3, rel=1e-12)
    # one line without a crossing: the field has lost its interface
    stacked = np.array(list(lines.values()))
    assert _max_crossing_offset(stacked, ts) == np.inf
    crossing_only = np.array([lines[k] for k in ("one", "several", "equidistant", "far left")])
    got = _max_crossing_offset(crossing_only, ts)
    assert got == loop_crossing_offset(crossing_only, ts) < window
    noisy = np.sin(rng.uniform(0, 6, (40, 1)) + np.linspace(0, 3, 81)) + rng.normal(0, 0.3, (40, 81))
    ts81 = np.linspace(-window, window, 81)
    assert _max_crossing_offset(noisy, ts81) == loop_crossing_offset(noisy, ts81)
    assert _max_crossing_offset(noisy[:, :1] ** 2 + 1.0 + 0 * noisy, ts81) == np.inf


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


def _full_recompute_gaps(f_field, gamma, k, a, b):
    """Oracle: swap a and b in every periodicity cell of a copy of F and
    difference the full TV perimeter plus gamma times the FFT nonlocal energy."""
    spec = f_field.spec
    block = [n // k for n in spec.sizes]
    base = total_variation_perimeter(f_field) + gamma * nonlocal_energy(f_field)
    gaps = []
    for pa, pb in zip(a, b):
        values = f_field.values.copy()
        for offs in np.ndindex(*(k,) * spec.dim):
            values[tuple(pa[d] % block[d] + offs[d] * block[d] for d in range(spec.dim))] = -1.0
            values[tuple(pb[d] % block[d] + offs[d] * block[d] for d in range(spec.dim))] = 1.0
        g_field = ScalarField(spec, values, "indicator")
        gaps.append(total_variation_perimeter(g_field) + gamma * nonlocal_energy(g_field) - base)
    return np.array(gaps)


ORACLE_CASES = (
    [pytest.param((64, 64), SEED, k, id=f"lamella64-k{k}") for k in (1, 2, 4)]
    + [pytest.param((64, 64), Ball((0.43, 0.57), 0.2), k, id=f"disk64-k{k}") for k in (1, 2)]
    # at k = 8 the 6 x 4 block makes neighbours wrap through the block torus
    + [pytest.param((48, 32), Ball((0.5, 0.5), 0.3), k, id=f"disk48x32-k{k}") for k in (1, 2, 4, 8)]
    + [pytest.param((16, 24, 20), Ball((0.5, 0.45, 0.55), 0.3), k, id=f"ball3d-k{k}") for k in (1, 2)]
)


@pytest.mark.parametrize("sizes,shape,k", ORACLE_CASES)
def test_swap_gaps_match_full_recompute(sizes, shape, k):
    spec = GridSpec(sizes)
    f = periodize(rasterize(shape, spec.coarsen(k)), k)
    rng = np.random.default_rng(3)
    for amplitude in (1, 2, 3):
        a, b = _swap_pairs(f, k, amplitude)
        pick = rng.choice(len(a), size=min(len(a), 40), replace=False)
        closed = _swap_gaps(f, 3.0, k, a[pick], b[pick])
        oracle = _full_recompute_gaps(f, 3.0, k, a[pick], b[pick])
        assert np.max(np.abs(closed - oracle)) <= 1e-12
        assert _swap_gaps(f, 3.0, k, a[pick[:1]], b[pick[:1]])[0] == closed[0]


@settings(max_examples=40, deadline=None)
@given(
    half_sizes=st.lists(st.integers(2, 6), min_size=2, max_size=3),
    k=st.sampled_from([1, 2]),
    amplitude=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_swap_gaps_match_full_recompute_on_random_sets(half_sizes, k, amplitude, seed):
    # random two-phase sets on even grids 4-12, 1/k-periodic; a block side of
    # 2 puts two distinct faces between a cell and its axis neighbour
    spec = GridSpec(tuple(2 * h for h in half_sizes))
    rng = np.random.default_rng(seed)
    block = np.where(rng.random([n // k for n in spec.sizes]) < 0.5, 1.0, -1.0)
    block.flat[0], block.flat[-1] = 1.0, -1.0
    f = ScalarField(spec, np.tile(block, (k,) * spec.dim), "indicator")
    a, b = _swap_pairs(f, k, amplitude)
    pick = rng.choice(len(a), size=min(len(a), 30), replace=False)
    gamma = float(rng.uniform(0.0, 50.0))
    closed = _swap_gaps(f, gamma, k, a[pick], b[pick])
    oracle = _full_recompute_gaps(f, gamma, k, a[pick], b[pick])
    assert np.max(np.abs(closed - oracle)) <= 1e-12


def _loop_swap_pairs(f_field, k, amplitude):
    """Oracle: every inside cell of the block against every displacement,
    one modular gather per displacement."""
    spec = f_field.spec
    sizes = np.array(spec.sizes)
    inside = np.argwhere(f_field.values[tuple(slice(0, n // k) for n in spec.sizes)] > 0)
    deltas = np.array(list(np.ndindex(*(2 * amplitude + 1,) * spec.dim))) - amplitude
    deltas = deltas[np.any(deltas, axis=1)]
    outside = np.empty((len(inside), len(deltas)), dtype=bool)
    for j, d in enumerate(deltas):
        outside[:, j] = f_field.values[tuple(((inside + d) % sizes).T)] < 0
    ia, jd = np.nonzero(outside)
    return inside[ia], (inside[ia] + deltas[jd]) % sizes


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.sampled_from([1, 2, 4]),
    sides=st.lists(st.integers(0, 4), min_size=3, max_size=3),
    amplitude=st.integers(0, 3),
    fill=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=2, k=2, sides=[1, 2, 0], amplitude=2, fill=0.0, seed=0)
@example(dim=3, k=4, sides=[0, 1, 2], amplitude=3, fill=1.0, seed=0)
@example(dim=2, k=1, sides=[0, 0, 0], amplitude=0, fill=0.5, seed=0)
def test_swap_pairs_match_the_per_displacement_loop(dim, k, sides, amplitude, fill, seed):
    # block sides from 1 cell, on grid sides that are even and >= 4; an
    # amplitude above a block side wraps the box round the torus more than once
    valid = [m for m in range(1, 13) if m * k % 2 == 0 and m * k >= 4]
    block = [valid[s % len(valid)] for s in sides[:dim]]
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random(block) < fill, 1.0, -1.0)
    f = ScalarField(GridSpec(tuple(m * k for m in block)), np.tile(cells, (k,) * dim), "indicator")
    for got, want in zip(_swap_pairs(f, k, amplitude), _loop_swap_pairs(f, k, amplitude)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_exhaustive_small_probe_scan_coarse():
    spec = GridSpec((32, 32))
    f2 = tile(rasterize(SEED, spec), 2)
    a, b = _swap_pairs(f2, 2, 1)
    assert len(a) == len(b) > 0
    assert np.min(_swap_gaps(f2, 1.0, 2, a, b)) >= -1e-12


@pytest.mark.parametrize("k,count", [(1, 5376), (2, 2688), (4, 1344)])
def test_exhaustive_amplitude_three_scan_of_tiled_lamella(k, count):
    spec = GridSpec((64, 64))
    f = tile(rasterize(SEED, spec), k)
    a, b = _swap_pairs(f, k, 3)
    assert len(a) == count
    assert np.min(_swap_gaps(f, 1.0, k, a, b)) >= -1e-12


def test_probe_draws_from_valid_pairs_only():
    spec = GridSpec((64, 64))
    f = rasterize(SEED, spec)
    rep = local_minimality_probe(f, 1.0, 1, 500, 2, seed=1)
    assert rep.skipped == 0 and len(rep.gaps) == 500
    # a full set has inside cells but no outside cell within reach
    full = ScalarField(spec, np.ones(spec.sizes), "indicator")
    rep = local_minimality_probe(full, 1.0, 1, 20, 2)
    assert rep.skipped == 20 and len(rep.gaps) == 0
    empty = ScalarField(spec, -np.ones(spec.sizes), "indicator")
    for field_, amplitude in ((empty, 2), (f, 0)):
        rep = local_minimality_probe(field_, 1.0, 1, 20, amplitude)
        assert rep.skipped == 0 and np.array_equal(rep.gaps, np.zeros(20))


def test_graph_probe_quadratic_growth():
    spec = GridSpec((256, 256))
    alphas, gaps = graph_probe_study(0.25, [2, 3, 4, 6, 8], spec, 1.0)
    assert np.all(gaps > 0)
    exponent = fitted_growth_exponent(alphas, gaps)
    assert abs(exponent - 2.0) <= 0.3
