"""Diffuse energy, flow audit, and sharp-limit tests.

The surface-tension constant is pinned by a quadrature oracle here:
sigma = 2 * int_{-1}^{1} sqrt(W(s)) ds with W(s) = (s^2 - 1)^2.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from okpattern import diffuse_ok
from okpattern.diffuse_ok import (
    MODICA_MORTOLA_SIGMA,
    FlowConfig,
    FlowStallError,
    fitted_order,
    flow_state,
    flow_step,
    gamma_limit_sweep,
    minimize,
    ok_energy,
    sharp_to_diffuse_gamma,
)
from okpattern.spectral import from_half_spectrum, get_workspace, half_spectrum
from okpattern.torus_field import (
    Ball,
    GridSpec,
    Lamella,
    ScalarField,
    alpha_distance,
    rasterize,
    tanh_profile,
)


def test_sigma_quadrature_oracle():
    s = np.linspace(-1.0, 1.0, 20001)
    sigma = 2.0 * np.trapezoid(np.abs(s**2 - 1.0), s)
    assert sigma == pytest.approx(8.0 / 3.0, abs=1e-8)
    assert MODICA_MORTOLA_SIGMA == 8.0 / 3.0
    assert sharp_to_diffuse_gamma(3.0) == 8.0


def test_ok_energy_pure_phase_and_uniform_zero():
    spec = GridSpec((32, 32))
    ones = ScalarField(spec, np.ones(spec.sizes), "phase")
    assert ok_energy(ones, 0.05, 2.0) == pytest.approx(0.0, abs=1e-13)
    zero = ScalarField(spec, np.zeros(spec.sizes), "phase")
    assert ok_energy(zero, 0.05, 0.0) == pytest.approx(1.0 / 0.05, rel=1e-12)


def test_ok_energy_tanh_lamella_approaches_sigma_times_perimeter():
    spec = GridSpec((2048,))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    target = MODICA_MORTOLA_SIGMA * 2.0  # 16/3
    errors = []
    for eps in (0.08, 0.04, 0.02):
        u = tanh_profile(shape, spec, eps)
        errors.append(abs(ok_energy(u, eps, 0.0) - target))
    assert errors[0] < 0.1 * target
    assert errors[0] > errors[1] > errors[2]


def test_flow_step_mass_frozen_and_energy_monotone():
    rng = np.random.default_rng(12)
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    base = tanh_profile(shape, spec, 0.08).values
    u0 = ScalarField(spec, np.clip(base + 0.05 * rng.standard_normal(spec.sizes), -1.1, 1.1), "phase")
    cfg = FlowConfig(eps=0.08, gamma=1.0, dt=5e-3, max_steps=50)
    state = flow_state(u0, cfg)
    m0 = u0.mean
    for _ in range(20):
        new = flow_step(state, cfg)
        assert new.energy <= state.energy
        assert abs(new.u.mean - m0) <= 1e-12
        state = new


def test_flow_fixed_point_at_pure_phase():
    spec = GridSpec((32, 32))
    u0 = ScalarField(spec, np.ones(spec.sizes), "phase")
    cfg = FlowConfig(eps=0.08, gamma=2.0, dt=1e-2, max_steps=5)
    state = flow_step(flow_state(u0, cfg), cfg)
    assert state.last_update_sup <= 1e-13


def test_flow_rejection_backoff_and_stall():
    # force every proposal to read as an energy increase by bookmarking an
    # unreachable energy: the step must reject, shrink dt geometrically, and
    # finally report a stall rather than accept an increase
    spec = GridSpec((32, 32))
    u0 = ScalarField(spec, np.ones(spec.sizes), "phase")
    cfg = FlowConfig(eps=0.08, gamma=0.0, dt=1e-2, max_steps=10)
    state = replace(flow_state(u0, cfg), energy=-1.0)
    with pytest.raises(FlowStallError, match="rejections"):
        flow_step(state, cfg)
    trace = minimize(u0, cfg)
    assert trace.status in ("converged", "max_steps")


def test_stalled_minimize_counts_the_rejections_of_its_last_step(monkeypatch):
    # after the start and two accepted steps every trial reads as an energy
    # increase: the third step halves dt to the stall floor, and each of its
    # rejected trials counts in the trace
    real = diffuse_ok._ok_energy_from
    evaluated = []

    def rising(*args):
        evaluated.append(len(evaluated) < 3)
        return real(*args) if evaluated[-1] else math.inf

    monkeypatch.setattr(diffuse_ok, "_ok_energy_from", rising)
    u0 = tanh_profile(Ball((0.5, 0.5), 0.3), GridSpec((32, 32)), 0.1)
    trace = minimize(u0, FlowConfig(eps=0.1, gamma=5.0, dt=5e-3, max_steps=10))
    assert trace.status == "stalled" and len(trace.records) == 2
    assert trace.rejections == evaluated.count(False) == 39


def test_minimize_zero_steps():
    spec = GridSpec((32, 32))
    u0 = tanh_profile(Lamella(), spec, 0.08)
    trace = minimize(u0, FlowConfig(eps=0.08, gamma=0.0, dt=1e-2, max_steps=0))
    assert len(trace.records) == 0
    assert np.array_equal(trace.final.values, u0.values)


def test_minimize_from_indicator_start():
    u0 = rasterize(Lamella(0, 0.5, 0.25), GridSpec((32, 32)))
    trace = minimize(u0, FlowConfig(eps=0.1, max_steps=3))
    assert len(trace.records) == 3
    assert trace.final.kind == "phase"
    assert np.max(np.abs(trace.masses() - u0.mean)) <= 1e-12


def test_minimize_keeps_stable_lamella():
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    u0 = tanh_profile(shape, spec, 0.07)
    cfg = FlowConfig(eps=0.07, gamma=sharp_to_diffuse_gamma(0.5), dt=5e-3, max_steps=300, energy_tolerance=1e-12)
    trace = minimize(u0, cfg)
    sharp0 = rasterize(shape, spec)
    final_sharp = ScalarField(spec, np.where(trace.final.values >= 0.0, 1.0, -1.0), "indicator")
    assert alpha_distance(final_sharp, sharp0) <= 10.0 / 64
    assert np.all(np.diff(trace.energies()) <= 0.0)
    assert np.max(np.abs(trace.masses() - u0.mean)) <= 1e-12


def test_minimize_spinodal_reaches_two_interface_energy():
    spec = GridSpec((256,))
    x = spec.centers(0)
    u0 = ScalarField(spec, 0.2 * np.cos(2 * np.pi * x), "phase")
    eps = 0.03
    cfg = FlowConfig(eps=eps, gamma=0.0, dt=1e-2, max_steps=4000, energy_tolerance=1e-13)
    trace = minimize(u0, cfg)
    target = MODICA_MORTOLA_SIGMA * 2.0
    assert trace.final.values.max() > 0.9 and trace.final.values.min() < -0.9
    assert ok_energy(trace.final, eps, 0.0) == pytest.approx(target, rel=0.05)


def test_flow_preserves_reflection_symmetry_to_rounding():
    # standard FFTs reorder sums for mirrored data, so symmetry survives to
    # machine precision rather than bitwise
    spec = GridSpec((64, 64))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    u0 = tanh_profile(shape, spec, 0.08)
    assert np.array_equal(u0.values, u0.values[::-1, :])
    cfg = FlowConfig(eps=0.08, gamma=1.0, dt=5e-3, max_steps=30)
    trace = minimize(u0, cfg)
    v = trace.final.values
    assert np.max(np.abs(v - v[::-1, :])) <= 1e-13


def test_gamma_limit_sweep_reference_and_order():
    spec = GridSpec((4096,))
    shape = Lamella(axis=0, center=0.5, halfwidth=0.25)
    rows0 = gamma_limit_sweep(shape, 0.0, [0.08], spec)
    assert rows0[0].reference == pytest.approx(MODICA_MORTOLA_SIGMA * 2.0, rel=1e-12)
    rows = gamma_limit_sweep(shape, 1.0, [0.08, 0.04, 0.02, 0.01], spec)
    diffs = [abs(r.difference) for r in rows]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert fitted_order(rows) >= 0.9


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(eps=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(eps=0.1, gamma=-2.0)
    spec = GridSpec((8, 8))
    u0 = ScalarField(spec, np.zeros(spec.sizes), "phase")
    with pytest.raises(ValueError):
        flow_state(u0, FlowConfig(eps=0.01))  # unresolvable interface width


# ---------------------------------------------------------------------------
# Half-spectrum flow against the full complex-FFT reference
# ---------------------------------------------------------------------------


def full_lattice_symbols(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Oracle multipliers over the full lattice, from np.fft.fftfreq:
    4 pi^2 |xi|^2 and its inverse with the zero mode zero."""
    freqs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    lap = sum(4 * np.pi**2 * f**2 for f in freqs)
    return lap, np.where(lap > 0, 1.0 / np.where(lap > 0, lap, 1.0), 0.0)


def full_fft_energy(values: np.ndarray, eps: float, gamma: float) -> float:
    """Oracle: OK_eps with Parseval sums over the full complex spectrum."""
    lap, inv_lap = full_lattice_symbols(values.shape)
    power = np.abs(np.fft.fftn(values) / values.size) ** 2
    return (
        eps * float(np.sum(power * lap))
        + float(np.mean((values**2 - 1.0) ** 2)) / eps
        + gamma * float(np.sum(power * inv_lap))
    )


def full_fft_step(values: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    """Oracle: one semi-implicit update at cfg.dt on the full complex
    spectrum, with the force potential solved back in real space."""
    lap, inv_lap = full_lattice_symbols(values.shape)
    m = values.size
    uhat = np.fft.fftn(values) / m
    v = np.fft.ifftn(uhat * inv_lap).real * m
    force = -(4.0 / cfg.eps) * values * (values**2 - 1.0) - 2.0 * cfg.gamma * v
    force_hat = np.fft.fftn(force) / m
    denom = 1.0 + cfg.dt * cfg.c_s + cfg.dt * 2.0 * cfg.eps * lap
    new_hat = ((1.0 + cfg.dt * cfg.c_s) * uhat + cfg.dt * force_hat) / denom
    new_hat.flat[0] = uhat.flat[0]
    return np.fft.ifftn(new_hat * m).real


def noisy_ball(sizes, seed: int) -> ScalarField:
    spec = GridSpec(sizes)
    base = tanh_profile(Ball((0.45,) * len(sizes), 0.3), spec, 0.2).values
    noise = 0.05 * np.random.default_rng(seed).standard_normal(sizes)
    return ScalarField(spec, np.clip(base + noise, -1.1, 1.1), "phase")


@pytest.mark.parametrize("sizes", [(64, 64), (16, 24, 20)])
def test_half_spectrum_energy_matches_full_fft(sizes):
    u = noisy_ball(sizes, 1)
    for eps, gamma in ((0.2, 0.0), (0.2, 7.5)):
        want = full_fft_energy(u.values, eps, gamma)
        assert ok_energy(u, eps, gamma) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("sizes", [(64, 64), (16, 24, 20)])
def test_flow_step_matches_full_fft_step(sizes):
    u = noisy_ball(sizes, 2)
    cfg = FlowConfig(eps=0.2, gamma=7.5, dt=5e-3)
    state = flow_step(flow_state(u, cfg), cfg)
    assert (state.step, state.rejections, state.dt) == (1, 0, cfg.dt)
    assert np.max(np.abs(state.u.values - full_fft_step(u.values, cfg))) <= 1e-13


def test_carried_half_spectrum_stays_exact():
    u = noisy_ball((64, 64), 3)
    cfg = FlowConfig(eps=0.2, gamma=7.5, dt=5e-3)
    state = flow_state(u, cfg)
    for _ in range(50):
        state = flow_step(state, cfg)
    assert state.step == 50
    fresh = np.fft.rfftn(state.u.values) / state.u.spec.cells
    assert np.max(np.abs(state.uhat - fresh)) <= 1e-13


def test_carried_well_term_is_exact():
    # each step of a chained minimize reuses the well term u^2 - 1 that the
    # energy of its start formed; restarting every step from the well term
    # flow_state builds afresh gives the same bits, rejections included.
    # The carried spectrum stays: a fresh rfftn of u is only 1e-13 close
    u0 = noisy_ball((32, 32), 5)
    cfg = FlowConfig(eps=0.1, gamma=5.0, dt=5.0, max_steps=30)
    trace = minimize(u0, cfg)
    assert trace.rejections > 0
    state = flow_state(u0, cfg)
    records = []
    for _ in range(len(trace.records)):
        state = flow_step(replace(state, well=flow_state(state.u, cfg).well), cfg)
        records.append((state.step, state.dt, state.energy, state.u.mean, state.last_update_sup))
    assert records == trace.records
    assert state.rejections == trace.rejections
    assert state.u.values.tobytes() == trace.final.values.tobytes()


def dividing_minimize(u0: ScalarField, cfg: FlowConfig):
    """Oracle: the flow with every trial dividing its update by the
    denominator built from that trial's dt.  Returns the records, the
    rejections and the final values."""
    ws = get_workspace(u0.spec)
    values, dt = u0.values, cfg.dt
    uhat = half_spectrum(values)
    energy = ok_energy(u0, cfg.eps, cfg.gamma)
    records, rejections = [], 0
    for step in range(1, cfg.max_steps + 1):
        force_hat = half_spectrum(values * (-4.0 / cfg.eps) * (values * values - 1.0))
        if cfg.gamma:
            force_hat -= uhat * ws.inv_lap * (2.0 * cfg.gamma)
        while True:
            keep = 1.0 + dt * cfg.c_s
            new_hat = (uhat * keep + dt * force_hat) / (ws.lap_symbol * (dt * 2.0 * cfg.eps) + keep)
            new_hat.flat[0] = uhat.flat[0]
            new_values = from_half_spectrum(new_hat.copy(), u0.spec.sizes)
            new_energy = diffuse_ok._ok_energy_from(
                new_hat, diffuse_ok._well(new_values), ws, cfg.eps, cfg.gamma
            )
            if new_energy <= energy:
                break
            dt *= 0.5
            rejections += 1
        update = new_values - values
        mean = ScalarField(u0.spec, new_values, "generic").mean
        records.append((step, dt, new_energy, mean, max(float(update.max()), -float(update.min()))))
        values, uhat, energy = new_values, new_hat, new_energy
    return records, rejections, values


@pytest.mark.parametrize("gamma", [0.0, 5.0])
def test_reciprocal_update_matches_dividing_flow(gamma):
    # dt = 5 is too large for this flow: some steps halve it, and each
    # halving rebuilds the carried reciprocal
    u0 = noisy_ball((32, 32), 5)
    cfg = FlowConfig(eps=0.1, gamma=gamma, dt=5.0, max_steps=30)
    trace = minimize(u0, cfg)
    records, rejections, values = dividing_minimize(u0, cfg)
    assert rejections > 0 and trace.rejections == rejections
    assert trace.records == records
    assert trace.final.values.tobytes() == values.tobytes()
    ws = get_workspace(u0.spec)
    state = flow_state(u0, cfg, ws)
    assert state.recip is None
    while state.rejections == 0:
        state = flow_step(state, cfg, ws)
    assert state.dt < cfg.dt
    want = 1.0 / (ws.lap_symbol * (state.dt * 2.0 * cfg.eps) + (1.0 + state.dt * cfg.c_s))
    assert state.recip.tobytes() == want.tobytes() and not state.recip.flags.writeable
    # a step that keeps dt reuses the reciprocal
    again = flow_step(state, cfg, ws)
    assert again.dt == state.dt and again.recip is state.recip


def test_minimize_fft_count(monkeypatch):
    # one forward FFT for the start, then per accepted step the transform of
    # the local force and the new iterate, and one inverse FFT per rejection;
    # on 32^2 a forward transform is one rfft and one fft, an inverse one
    # ifft and one irfft
    calls = {}
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    u0 = tanh_profile(Ball((0.5, 0.5), 0.3), GridSpec((32, 32)), 0.1)
    trace = minimize(u0, FlowConfig(eps=0.1, gamma=5.0, dt=5.0, max_steps=40))
    assert trace.status == "max_steps" and trace.rejections > 0
    accepted = len(trace.records)
    forward, inverse = 1 + accepted, accepted + trace.rejections
    assert calls == {"rfft": forward, "fft": forward, "ifft": inverse, "irfft": inverse}
