"""The eps-diffuse energy, its mass-conserving gradient flow, and the
sharp-interface limit harness.

Energy (collocation weights throughout, consistent with the flow):

    OK_eps(u) = eps * int |grad u|^2  +  (1/eps) int (u^2-1)^2
                + gamma * int int G (u-m)(u-m)

Flow: mass-projected L^2 gradient descent (nonlocal Allen-Cahn with a
Lagrange multiplier), stepped semi-implicitly in Fourier space,

    u_hat <- [ (1 + c_s dt) u_hat + dt N_hat ] / (1 + c_s dt + 2 eps dt |2 pi xi|^2 )

with N(u) = -(4/eps) u (u^2 - 1) - 2 gamma v_u and v_u the zero-mean potential
of u, and c_s = 2/eps.  The zero-frequency coefficient is held fixed, which
conserves mass exactly and absorbs the multiplier.  Steps that increase the
energy are rejected and retried with dt halved; accepted energies are
therefore non-increasing by construction.

The sharp limit of OK_eps is sigma * P + gamma * NL with the surface-tension
constant sigma = 2 * int_{-1}^{1} sqrt(W) = 8/3 for W(s) = (s^2-1)^2 carried by
the perimeter term only.  Minimizing OK_eps at diffuse parameter sigma*gamma
therefore tracks the sharp functional P + gamma*NL; helpers below perform that
conversion wherever a diffuse computation stands in for a sharp one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import SpectralWorkspace, _trig_shift, get_workspace
from .spectral import from_half_spectrum, half_spectrum
from .torus_field import GridSpec, Lamella, ScalarField, tanh_profile

# Surface tension of the optimal profile for W(s) = (s^2-1)^2:
# 2 * int_{-1}^{1} (1 - s^2) ds = 8/3.  Measured, not assumed: see the
# gamma-limit sweep, which reports the empirical constant.
MODICA_MORTOLA_SIGMA = 8.0 / 3.0

DT_STALL_FLOOR = 1e-14


def sharp_to_diffuse_gamma(gamma: float) -> float:
    """Diffuse parameter whose sharp limit weights NL against P like F^gamma."""
    return MODICA_MORTOLA_SIGMA * gamma


class FlowStallError(RuntimeError):
    """dt underflowed below the stall floor while rejecting steps; rejections
    counts the trials the failed step rejected."""

    def __init__(self, message: str, rejections: int):
        super().__init__(message)
        self.rejections = rejections


@dataclass(frozen=True)
class FlowConfig:
    eps: float
    gamma: float = 0.0
    dt: float = 1e-2
    max_steps: int = 1000
    energy_tolerance: float = 0.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_steps < 0 or self.energy_tolerance < 0:
            raise ValueError("max_steps and energy_tolerance must be nonnegative")

    @property
    def c_s(self) -> float:
        return 2.0 / self.eps


@dataclass(frozen=True)
class FlowState:
    """One flow iterate.  uhat carries the normalized half spectrum
    rfftn(u.values)/cells from the step that produced u, so the next step
    need not transform u again, and well carries the well term u^2 - 1 that
    the energy of u formed, which the next step's force reuses."""

    u: ScalarField
    energy: float
    dt: float
    step: int = 0
    rejections: int = 0
    last_update_sup: float = 0.0
    uhat: np.ndarray = field(repr=False, compare=False, kw_only=True)
    well: np.ndarray = field(repr=False, compare=False, kw_only=True)


@dataclass
class FlowTrace:
    """Audited history of a flow: one record per accepted step."""

    records: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    final: ScalarField | None = None
    status: str = "running"
    rejections: int = 0

    def append(self, state: FlowState) -> None:
        self.records.append(
            (state.step, state.dt, state.energy, state.u.mean, state.last_update_sup)
        )

    def energies(self) -> np.ndarray:
        return np.array([r[2] for r in self.records])

    def masses(self) -> np.ndarray:
        return np.array([r[3] for r in self.records])


def ok_energy(
    u: ScalarField, eps: float, gamma: float, ws: SpectralWorkspace | None = None
) -> float:
    """OK_eps(u); the nonlocal term subtracts the mean inside the solve."""
    if eps <= 0 or gamma < 0:
        raise ValueError("eps must be positive and gamma nonnegative")
    ws = ws or get_workspace(u.spec)
    return _ok_energy_from(half_spectrum(u.values), _well(u.values), ws, eps, gamma)


def _well(values: np.ndarray) -> np.ndarray:
    """The well term u^2 - 1, read-only."""
    well = values * values
    well -= 1.0
    well.flags.writeable = False
    return well


def _ok_energy_from(
    uhat: np.ndarray, well: np.ndarray, ws: SpectralWorkspace, eps: float, gamma: float
) -> float:
    # |c|^2 with its Parseval weights is formed once for both spectral terms
    power = np.abs(uhat) ** 2
    power *= ws.half_weights
    energy = eps * float(np.vdot(power, ws.lap_symbol))
    if gamma:
        energy += gamma * float(np.vdot(power, ws.inv_lap))
    return energy + float(np.vdot(well, well)) / (well.size * eps)


def flow_state(u0: ScalarField, config: FlowConfig, ws: SpectralWorkspace | None = None) -> FlowState:
    if config.eps < 2.0 * u0.spec.max_spacing:
        raise ValueError(
            f"eps={config.eps} is not resolvable on the grid "
            f"(needs eps >= {2.0 * u0.spec.max_spacing})"
        )
    ws = ws or get_workspace(u0.spec)
    uhat = half_spectrum(u0.values)
    uhat.flags.writeable = False
    well = _well(u0.values)
    energy = _ok_energy_from(uhat, well, ws, config.eps, config.gamma)
    return FlowState(u0, energy, config.dt, uhat=uhat, well=well)


def flow_step(state: FlowState, config: FlowConfig, ws: SpectralWorkspace | None = None) -> FlowState:
    """One semi-implicit step; rejects and shrinks dt on any energy increase.

    The explicit force N(u) = -(4/eps) u (u^2 - 1) - 2 gamma v_u is formed in
    Fourier space: the local part is transformed, the potential part is
    uhat / (4 pi^2 |xi|^2) itself (skipped at gamma = 0).  An accepted step
    costs two real FFTs (force transform, new iterate) and each rejection one
    more inverse FFT.  Around them a step makes a few elementwise passes: the
    local force, two passes that reuse the well term u^2 - 1 carried in the
    state; per trial, the update on the half spectrum, |uhat|^2 once for both
    Parseval terms, and the new well term, which an accepted iterate carries
    on; and, once accepted, one pass each for the min, max and sup of the
    update.  The accepted iterate is the inverse FFT's own output, frozen and
    handed to its ScalarField without a copy.
    """
    ws = ws or get_workspace(state.u.spec)
    spec = state.u.spec
    values = state.u.values
    local = values * (-4.0 / config.eps)
    local *= state.well
    force_hat = half_spectrum(local)
    if config.gamma:
        potential = state.uhat * ws.inv_lap
        potential *= 2.0 * config.gamma
        force_hat -= potential
    dt = state.dt
    rejections = 0
    while True:
        if dt < DT_STALL_FLOOR:
            raise FlowStallError(f"dt underflow ({dt:.3e}) after {rejections} rejections", rejections)
        keep = 1.0 + dt * config.c_s
        denom = ws.lap_symbol * (dt * 2.0 * config.eps)
        denom += keep
        new_hat = state.uhat * keep
        new_hat += dt * force_hat
        new_hat /= denom
        new_hat.flat[0] = state.uhat.flat[0]  # frozen zero mode: exact mass conservation
        new_hat.flags.writeable = False
        new_values = from_half_spectrum(new_hat, spec.sizes)
        new_values.flags.writeable = False
        well = _well(new_values)
        energy = _ok_energy_from(new_hat, well, ws, config.eps, config.gamma)
        if energy <= state.energy:
            # a smooth iterate of an indicator start is a phase field
            kind = "phase" if state.u.kind == "indicator" else state.u.kind
            try:
                u_new = ScalarField(spec, new_values, kind)
            except ValueError:  # the iterate left the phase range
                u_new = ScalarField(spec, new_values, "generic")
            np.subtract(new_values, values, out=local)
            return FlowState(
                u=u_new,
                energy=energy,
                dt=dt,
                step=state.step + 1,
                rejections=state.rejections + rejections,
                last_update_sup=max(float(local.max()), -float(local.min())),
                uhat=new_hat,
                well=well,
            )
        dt *= 0.5
        rejections += 1


def minimize(
    u0: ScalarField, config: FlowConfig, ws: SpectralWorkspace | None = None
) -> FlowTrace:
    """Iterate flow_step until the energy decrease per accepted step drops
    below energy_tolerance or max_steps accepted steps ran.  A dt stall is a
    terminal status, not an exception; its step's rejected trials count in
    trace.rejections."""
    ws = ws or get_workspace(u0.spec)
    state = flow_state(u0, config, ws)
    trace = FlowTrace()
    trace.final = u0
    if config.max_steps == 0:
        trace.status = "max_steps"
        return trace
    for _ in range(config.max_steps):
        prev_energy = state.energy
        try:
            state = flow_step(state, config, ws)
        except FlowStallError as stall:
            trace.status = "stalled"
            trace.rejections = stall.rejections
            break
        trace.append(state)
        trace.final = state.u
        if prev_energy - state.energy < config.energy_tolerance:
            trace.status = "converged"
            break
    else:
        trace.status = "max_steps"
    trace.rejections += state.rejections
    return trace


# ---------------------------------------------------------------------------
# Sharp-interface limit harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaLimitRow:
    eps: float
    diffuse: float
    reference: float

    @property
    def difference(self) -> float:
        return self.diffuse - self.reference


def gamma_limit_sweep(shape, gamma: float, eps_list, spec: GridSpec) -> list[GammaLimitRow]:
    """OK_eps of the tanh profile against sigma*P + gamma*NL for each eps."""
    from .sharp_energy import perimeter
    from .spectral import nonlocal_energy
    from .torus_field import rasterize

    reference = MODICA_MORTOLA_SIGMA * perimeter(shape) + gamma * nonlocal_energy(
        rasterize(shape, spec)
    )
    rows = []
    for eps in eps_list:
        u = tanh_profile(shape, spec, eps)
        rows.append(GammaLimitRow(float(eps), ok_energy(u, eps, gamma), reference))
    return rows


def fitted_order(rows: list[GammaLimitRow]) -> float:
    """Least-squares slope of log|difference| against log eps."""
    eps = np.log([r.eps for r in rows])
    diff = np.log([abs(r.difference) for r in rows])
    slope, _ = np.polyfit(eps, diff, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Dynamic instability oracle for the lamella
# ---------------------------------------------------------------------------


def _tangential_mode_energy(values: np.ndarray, mode: int = 1) -> float:
    # column -mode of the full spectrum is the conjugate twin of column mode
    return 2.0 * float(np.sum(np.abs(half_spectrum(values)[:, mode]) ** 2))


def lamella_flow_onset(
    halfwidth: float,
    spec: GridSpec,
    eps: float,
    gamma_lo: float,
    gamma_hi: float,
    *,
    relax_steps: int = 400,
    evolve_steps: int = 500,
    dt: float = 2e-3,
    rel_tol: float = 0.02,
) -> float:
    """Sharp gamma at which the lamella's first tangential mode starts growing.

    For each trial sharp gamma the flow runs at the diffuse parameter
    sigma*gamma: relax the flat 1d profile, displace both interfaces by
    delta*cos(2 pi x2) with delta 1.5 cells (the antiphase branch, i.e. the
    first unstable one), evolve, and compare the tangential mode-1 energy with
    its initial value: a ratio above 1.25 grows, below 0.8 decays, and in
    between its side of 1 decides.  Bisects until the bracket is rel_tol
    wide.  The finite-eps bias is O(eps).
    """
    if spec.dim != 2:
        raise ValueError("the onset oracle runs on 2d grids")
    n1, n2 = spec.sizes
    shape = Lamella(axis=0, center=0.5, halfwidth=halfwidth)
    spec1 = GridSpec((n1,))
    delta = 1.5 / n1

    def grows(sharp_gamma: float) -> bool:
        gamma_d = sharp_to_diffuse_gamma(sharp_gamma)
        cfg1 = FlowConfig(eps=eps, gamma=gamma_d, dt=dt, max_steps=relax_steps)
        flat = minimize(tanh_profile(shape, spec1, eps), cfg1).final.values
        shift = delta * np.cos(2 * np.pi * np.arange(n2) / n2)
        perturbed = _trig_shift(flat[:, None], 0, shift[None, :])
        u0 = ScalarField(spec, perturbed, "phase")
        cfg2 = FlowConfig(eps=eps, gamma=gamma_d, dt=dt, max_steps=evolve_steps)
        start = _tangential_mode_energy(u0.values)
        out = minimize(u0, cfg2)
        end = _tangential_mode_energy(out.final.values)
        ratio = end / start
        if ratio > 1.25:
            return True
        if ratio < 0.8:
            return False
        return ratio > 1.0

    lo, hi = gamma_lo, gamma_hi
    if grows(lo):
        raise ValueError("gamma_lo is already unstable; widen the bracket")
    if not grows(hi):
        raise ValueError("gamma_hi is still stable; widen the bracket")
    while hi - lo > rel_tol * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if grows(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
