"""From a strictly stable constant-mean-curvature seed to a certified
1/k-periodic near-critical local minimizer.

Pipeline per tiling factor k:

1. continuation: warm-started mass-conserving flows ramp the sharp parameter
   from 0 up to gamma_k = gamma_bar / k^3 (the flow runs at the diffuse
   parameter sigma * gamma so its sharp limit weighs the nonlocal term like
   P + gamma NL);
2. sharpening: threshold the final phase field at the level that restores the
   seed volume to within one cell;
3. tiling: the sharpened parent, measured on the full grid, is rescaled by
   1/k through the exact index map;
4. certification: translation-minimized L1 distance to the seed, a C0 proxy
   (zero-level displacement along seed normals, divided by k, the exact
   scaling of the tiled set), criticality residual and tangential-curvature
   bound of the tiled set, and the energy bookkeeping identity
   F^gamma_bar(tile(E,k)) = k [P(E) + gamma_k NL(E)].

Local minimality is probed empirically: random volume-preserving cell-pair
swaps replicated 1/k-periodically must never lower the energy, and graph-type
interface displacements must show the quadratic energy growth in the
translation-minimized L1 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diffuse_ok import FlowConfig, FlowTrace, minimize, sharp_to_diffuse_gamma
from .geometry import fit_ball, fit_lamella, interface_mesh, el_residual
from .sharp_energy import total_variation_perimeter
from .spectral import nonlocal_energy, sample_field
from .stability import min_eigenvalue
from .torus_field import (
    Ball,
    GridSpec,
    Lamella,
    ScalarField,
    ShapeCandidate,
    TiledShape,
    alpha_distance,
    rasterize,
    subsample,
    tanh_profile,
    tile,
)


# ---------------------------------------------------------------------------
# Sharpening
# ---------------------------------------------------------------------------


def sharpen_to_volume(u: ScalarField, target_cells: int) -> ScalarField:
    """Threshold a phase field into an indicator holding exactly target_cells.

    Level adjustment by order statistics (the limit of bisecting the level);
    exact value ties are broken by cell index, stably, so the volume is always
    restored exactly and the result is deterministic.
    """
    m = u.spec.cells
    if not 0 < target_cells < m:
        raise ValueError("target volume must be strictly between empty and full")
    order = np.argsort(-u.values.ravel(), kind="stable")
    values = np.full(m, -1.0)
    values[order[:target_cells]] = 1.0
    return ScalarField(u.spec, values.reshape(u.spec.sizes), "indicator")


def interface_wobble(u: ScalarField, axis: int, delta: float, tangential_axis: int) -> ScalarField:
    """Displace the field along `axis` by delta*cos(2 pi t) of the tangential
    coordinate (an exact trigonometric shift per slice)."""
    spec = u.spec
    n = spec.sizes[axis]
    xi = np.fft.fftfreq(n, d=1.0 / n)
    t = spec.centers(tangential_axis)
    disp = delta * np.cos(2 * np.pi * t)
    uhat = np.fft.fft(u.values, axis=axis)
    shape = [1] * spec.dim
    shape[axis] = n
    xi = xi.reshape(shape)
    shape_t = [1] * spec.dim
    shape_t[tangential_axis] = spec.sizes[tangential_axis]
    phase = np.exp(-2j * np.pi * xi * disp.reshape(shape_t))
    out = np.fft.ifft(uhat * phase, axis=axis).real
    return ScalarField(spec, np.clip(out, -1.1, 1.1), "phase")


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    gamma: float
    phase: ScalarField
    sharp: ScalarField
    alpha_step: float
    flow_status: str


@dataclass
class FamilyResult:
    members: list[FamilyMember] = field(default_factory=list)
    status: str = "complete"  # complete | truncated | stalled


def continue_family(
    seed: ShapeCandidate,
    gamma_list,
    template: FlowConfig,
    spec: GridSpec,
    *,
    perturb_amplitude: float = 0.0,
    escape_alpha: float = 0.02,
) -> FamilyResult:
    """Warm-started flow continuation along increasing sharp gamma values.

    Records the translation-minimized L1 step between consecutive sharpened
    members; the family truncates when a flow stalls or a step exceeds
    escape_alpha (instability escape).  perturb_amplitude > 0 wobbles the
    interfaces before each stage (dim 2 lamella seeds) so that tangential
    instabilities can express themselves.
    """
    gammas = [float(g) for g in gamma_list]
    if any(b < a for a, b in zip(gammas, gammas[1:])) or (gammas and gammas[0] < 0):
        raise ValueError("gamma_list must be nondecreasing and nonnegative")
    seed_raster = rasterize(seed, spec)
    target_cells = int(np.sum(seed_raster.values > 0))
    u = tanh_profile(seed, spec, template.eps)
    prev_sharp = seed_raster
    result = FamilyResult()
    for gamma in gammas:
        cfg = replace(template, gamma=sharp_to_diffuse_gamma(gamma))
        if perturb_amplitude > 0 and spec.dim == 2 and isinstance(seed, Lamella):
            u = interface_wobble(u, seed.axis, perturb_amplitude, 1 - seed.axis)
        trace = minimize(u, cfg)
        u = trace.final
        sharp = sharpen_to_volume(u, target_cells)
        step = alpha_distance(sharp, prev_sharp)
        result.members.append(FamilyMember(gamma, u, sharp, step, trace.status))
        prev_sharp = sharp
        if trace.status == "stalled":
            result.status = "stalled"
            break
        if step > escape_alpha:
            result.status = "truncated"
            break
    return result


# ---------------------------------------------------------------------------
# C0 proxy
# ---------------------------------------------------------------------------


def zero_level_displacement(
    phase: ScalarField,
    seed: ShapeCandidate,
    *,
    resolution: int = 16,
    window: float = 0.08,
    samples: int = 81,
) -> float:
    """Max displacement of the phase field's zero level along seed normals.

    For each mesh point of the seed boundary, the trigonometric interpolant
    of the phase field is sampled along the outward normal and the zero
    crossing nearest the seed interface located by linear interpolation.
    Returns the window value when a line never changes sign (saturated).
    """
    mesh = interface_mesh(seed, resolution, phase.spec.dim)
    ts = np.linspace(-window, window, samples)
    lines = np.mod(
        mesh.all_points()[:, None, :] + ts[None, :, None] * mesh.all_normals()[:, None, :], 1.0
    )
    line_vals = sample_field(phase, lines.reshape(-1, phase.spec.dim)).reshape(len(lines), samples)
    worst = 0.0
    for vals in line_vals:
        sgn = np.sign(vals)
        crossings = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if len(crossings) == 0:
            worst = max(worst, window)
            continue
        mid = (samples - 1) / 2.0
        j = crossings[np.argmin(np.abs(crossings + 0.5 - mid))]
        t_cross = ts[j] + (ts[j + 1] - ts[j]) * vals[j] / (vals[j] - vals[j + 1])
        worst = max(worst, abs(float(t_cross)))
    return worst


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructConfig:
    seed: ShapeCandidate
    gamma_bar: float
    k_list: tuple[int, ...]
    spec: GridSpec
    flow: FlowConfig
    continuation_steps: int = 3
    mesh_resolution: int = 16
    stability_gate: bool = True

    def __post_init__(self):
        if self.gamma_bar <= 0:
            raise ValueError("gamma_bar must be positive")
        for k in self.k_list:
            for n in self.spec.sizes:
                if n % k != 0:
                    raise ValueError(f"k={k} does not divide grid size {n}")


@dataclass(frozen=True)
class ConstructCertificate:
    k: int
    gamma_k: float
    alpha_to_seed: float
    c0_proxy: float
    residual_sup: float
    grad_h_sup: float
    energy_lhs: float
    energy_rhs: float
    status: str = "ok"

    @property
    def energy_rel_err(self) -> float:
        return abs(self.energy_lhs - self.energy_rhs) / max(abs(self.energy_rhs), 1e-300)

    CSV_HEADER = (
        "k,gamma_k,alpha,c0_proxy,residual_sup,grad_h_sup,energy_lhs,energy_rhs,rel_err,status"
    )

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.k),
                repr(self.gamma_k),
                repr(self.alpha_to_seed),
                repr(self.c0_proxy),
                repr(self.residual_sup),
                repr(self.grad_h_sup),
                repr(self.energy_lhs),
                repr(self.energy_rhs),
                repr(self.energy_rel_err),
                self.status,
            ]
        )


def fit_like(seed: ShapeCandidate, sharp: ScalarField) -> ShapeCandidate:
    if isinstance(seed, Lamella):
        return fit_lamella(sharp, seed.axis)
    if isinstance(seed, Ball):
        return fit_ball(sharp)
    raise ValueError(f"no candidate fit for seeds of type {type(seed).__name__}")


def build_periodic(config: ConstructConfig) -> list[tuple[ConstructCertificate, ScalarField | None]]:
    """Run the construction for every k; failures are recorded per k.

    Returns (certificate, tiled field) pairs; the field is None when the
    stage failed.
    """
    spec = config.spec
    if config.stability_gate:
        gate = min_eigenvalue(config.seed, 0.0, spec, resolution=16)
        if gate <= 0:
            raise ValueError(f"seed fails the strict-stability gate (min eig {gate:.3e})")
    seed_raster = rasterize(config.seed, spec)
    out = []
    for k in config.k_list:
        gamma_k = config.gamma_bar / k**3
        ramp = [gamma_k * (j + 1) / config.continuation_steps for j in range(config.continuation_steps)]
        family = continue_family(config.seed, [0.0] + ramp, config.flow, spec)
        if family.status != "complete":
            out.append(
                (
                    ConstructCertificate(k, gamma_k, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, family.status),
                    None,
                )
            )
            continue
        last = family.members[-1]
        e_field = last.sharp
        alpha_seed = alpha_distance(e_field, seed_raster)
        c0 = zero_level_displacement(last.phase, config.seed, resolution=config.mesh_resolution) / k
        fitted = fit_like(config.seed, e_field)
        rep = el_residual(TiledShape(fitted, k), config.gamma_bar, spec, resolution=config.mesh_resolution)
        tiled = tile(e_field, k)
        energy_lhs = total_variation_perimeter(tiled) + config.gamma_bar * nonlocal_energy(tiled)
        energy_rhs = k * (
            total_variation_perimeter(e_field) + gamma_k * nonlocal_energy(e_field)
        )
        cert = ConstructCertificate(
            k,
            gamma_k,
            alpha_seed,
            c0,
            rep.residual_sup,
            rep.grad_h_sup,
            energy_lhs,
            energy_rhs,
        )
        out.append((cert, tiled))
    return out


def nl_tiling_identity_error(e_field: ScalarField, k: int) -> float:
    """Relative error of NL(tile(E,k)) = k^-2 NL(E) with the parent measured
    on the n/k grid (exact frequency bookkeeping; rounding-level)."""
    lhs = nonlocal_energy(tile(e_field, k))
    rhs = nonlocal_energy(subsample(e_field, k)) / k**2
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Minimality probes
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    gaps: np.ndarray
    skipped: int
    n_probes: int

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min()) if len(self.gaps) else 0.0


def _is_k_periodic(u: ScalarField, k: int) -> bool:
    block = [slice(0, n // k) for n in u.spec.sizes]
    return bool(
        np.array_equal(u.values, np.tile(u.values[tuple(block)], (k,) * u.spec.dim))
    )


def local_minimality_probe(
    f_field: ScalarField,
    gamma_bar: float,
    k: int,
    n_probes: int,
    amplitude: int,
    *,
    seed: int = 0,
) -> ProbeReport:
    """Random volume-preserving 1/k-periodic cell-pair swaps of F.

    Each probe moves one inside cell of the fundamental cell onto a nearby
    outside cell (displacement at most `amplitude` cells in sup distance),
    replicated over all k^dim periodicity cells, and evaluates the sharp
    energy difference.  Probes that cannot find a valid pair are skipped and
    counted.
    """
    if f_field.kind != "indicator":
        raise ValueError("probes require an indicator field")
    if not _is_k_periodic(f_field, k):
        raise ValueError("field is not 1/k-periodic")
    if amplitude < 0 or amplitude > 3:
        raise ValueError("probe amplitude is limited to 3 cells")
    spec = f_field.spec
    block_sizes = tuple(n // k for n in spec.sizes)
    rng = np.random.default_rng(seed)
    base_energy = total_variation_perimeter(f_field) + gamma_bar * nonlocal_energy(f_field)
    gaps = []
    skipped = 0
    inside = np.argwhere(f_field.values[tuple(slice(0, b) for b in block_sizes)] > 0)
    if amplitude == 0 or len(inside) == 0:
        return ProbeReport(np.zeros(n_probes), 0, n_probes)
    for _ in range(n_probes):
        pair = _find_swap_pair(f_field, block_sizes, inside, amplitude, rng)
        if pair is None:
            skipped += 1
            continue
        g_field = _replicated_swap(f_field, k, pair)
        energy = total_variation_perimeter(g_field) + gamma_bar * nonlocal_energy(g_field)
        gaps.append(energy - base_energy)
    return ProbeReport(np.array(gaps), skipped, n_probes)


def _find_swap_pair(f_field, block_sizes, inside, amplitude, rng, tries: int = 64):
    dim = len(block_sizes)
    for _ in range(tries):
        a = inside[rng.integers(len(inside))]
        delta = rng.integers(-amplitude, amplitude + 1, size=dim)
        if not np.any(delta):
            continue
        b = [(int(a[d]) + int(delta[d])) % f_field.spec.sizes[d] for d in range(dim)]
        if f_field.values[tuple(b)] < 0:
            return tuple(int(x) for x in a), tuple(b)
    return None


def enumerate_swap_pairs(f_field: ScalarField, k: int, amplitude: int = 1):
    """Every (inside, outside) cell pair of the fundamental cell within the
    given sup-distance; the exhaustive companion of the random probe."""
    spec = f_field.spec
    block_sizes = tuple(n // k for n in spec.sizes)
    inside = np.argwhere(f_field.values[tuple(slice(0, b) for b in block_sizes)] > 0)
    for a in inside:
        for delta in np.ndindex(*(2 * amplitude + 1,) * spec.dim):
            d = tuple(int(x) - amplitude for x in delta)
            if not any(d):
                continue
            b = tuple((int(a[i]) + d[i]) % spec.sizes[i] for i in range(spec.dim))
            if f_field.values[b] < 0:
                yield tuple(int(x) for x in a), b


def _replicated_swap(f_field: ScalarField, k: int, pair) -> ScalarField:
    """F with inside cell a and outside cell b of the fundamental cell swapped
    in every one of the k^dim periodicity cells."""
    spec = f_field.spec
    block_sizes = tuple(n // k for n in spec.sizes)
    a, b = pair
    values = f_field.values.copy()
    for offs in np.ndindex(*(k,) * spec.dim):
        ia = tuple(a[d] + offs[d] * block_sizes[d] for d in range(spec.dim))
        ib = tuple(b[d] % block_sizes[d] + offs[d] * block_sizes[d] for d in range(spec.dim))
        values[ia] = -1.0
        values[ib] = 1.0
    return ScalarField(spec, values, "indicator")


def probe_energy_gap(f_field: ScalarField, gamma_bar: float, k: int, pair) -> float:
    """Energy change of one replicated cell-pair swap."""
    base = total_variation_perimeter(f_field) + gamma_bar * nonlocal_energy(f_field)
    g_field = _replicated_swap(f_field, k, pair)
    return total_variation_perimeter(g_field) + gamma_bar * nonlocal_energy(g_field) - base


# ---------------------------------------------------------------------------
# Quadratic growth via graph probes
# ---------------------------------------------------------------------------


def graph_probe_study(
    halfwidth: float,
    amplitudes_cells,
    spec: GridSpec,
    gamma: float,
    *,
    q: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Energy gaps of graph-displaced lamellae against their L1 distance.

    One interface is displaced by psi(t) = a cos(2 pi q t) (zero mean, so the
    volume is preserved exactly).  The perimeter of the displaced graph is
    evaluated by quadrature of sqrt(1 + psi'^2) -- the voxel TV would impose
    the l1 graph length, which grows linearly instead of quadratically -- and
    the nonlocal change on the rasterized sets.  Returns (alphas, gaps) for a
    log-log growth fit.
    """
    if spec.dim != 2:
        raise ValueError("graph probes run on 2d grids")
    c = 0.5
    base = rasterize(Lamella(axis=0, center=c, halfwidth=halfwidth), spec)
    nl0 = nonlocal_energy(base)
    h = 1.0 / spec.sizes[0]
    x0, x1 = spec.center_mesh()
    tq = np.linspace(0.0, 1.0, 4097)
    alphas, gaps = [], []
    for a_cells in amplitudes_cells:
        a = a_cells * h
        psi = a * np.cos(2 * np.pi * q * x1)
        t = np.mod(x0 - c + 0.5, 1.0) - 0.5
        inside = (t >= -halfwidth) & (t <= halfwidth + psi)
        u = ScalarField(spec, np.where(inside, 1.0, -1.0), "indicator")
        psi_q = a * np.cos(2 * np.pi * q * tq)
        dpsi = -2 * np.pi * q * a * np.sin(2 * np.pi * q * tq)
        length = np.trapezoid(np.sqrt(1.0 + dpsi**2), tq)
        gap = (1.0 + length - 2.0) + gamma * (nonlocal_energy(u) - nl0)
        alphas.append(alpha_distance(u, base))
        gaps.append(gap)
    return np.array(alphas), np.array(gaps)


def fitted_growth_exponent(alphas: np.ndarray, gaps: np.ndarray) -> float:
    mask = (alphas > 0) & (gaps > 0)
    slope, _ = np.polyfit(np.log(alphas[mask]), np.log(gaps[mask]), 1)
    return float(slope)
