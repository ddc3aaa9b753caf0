"""From a strictly stable constant-mean-curvature seed to a certified
1/k-periodic near-critical local minimizer.

Pipeline per tiling factor k:

1. continuation: warm-started mass-conserving flows ramp the sharp parameter
   from 0 up to gamma_k = gamma_bar / k^3 (the flow runs at the diffuse
   parameter sigma * gamma so its sharp limit weighs the nonlocal term like
   P + gamma NL); the gamma = 0 stage is the same for every k, so it runs
   once and every k continues from it;
2. sharpening: threshold the final phase field at the level that restores the
   seed volume to within one cell;
3. tiling: the sharpened parent, measured on the full grid, is rescaled by
   1/k through the exact index map;
4. certification: translation-minimized L1 distance to the seed, a C0 proxy
   (zero-level displacement along seed normals, divided by k, the exact
   scaling of the tiled set), criticality residual and tangential-curvature
   bound of the tiled seed, and the energy bookkeeping identity
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
from .geometry import interface_mesh, el_residual
from .sharp_energy import total_variation_perimeter
from .spectral import cell_average_potential, get_workspace
from .spectral import nonlocal_energy, real_space_kernel, sample_field
from .stability import min_eigenvalue
from .torus_field import (
    GridSpec,
    Lamella,
    ScalarField,
    ShapeCandidate,
    TiledShape,
    alpha_distance,
    rasterize,
    tanh_profile,
    tile,
)

# Largest swap displacement, in cells per axis, of local_minimality_probe.
MAX_PROBE_AMPLITUDE = 3
# Flow stages that ramp gamma from 0 up to gamma_k, after the gamma = 0 stage.
CONTINUATION_STEPS = 3
# Nodes per chart axis of the seed meshes: the stability gate, the C0
# proxy's normal lines and the criticality residual.
MESH_RESOLUTION = 16


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
    start: FamilyMember | None = None,
) -> FamilyResult:
    """Warm-started flow continuation along increasing sharp gamma values.

    Records the translation-minimized L1 step between consecutive sharpened
    members; the family truncates when a flow stalls or a step exceeds
    0.02 (instability escape).  The first stage starts from the seed's
    tanh profile and raster or, given the last member `start` of a
    family of this seed, from start's phase field and sharpened set; the
    result then leads with `start`, so it continues that family exactly.
    """
    gammas = [float(g) for g in gamma_list]
    floor = 0.0 if start is None else start.gamma
    if any(b < a for a, b in zip([floor] + gammas, gammas)):
        raise ValueError("gamma_list must be nondecreasing from 0 (or from start.gamma)")
    if start is None:
        u, prev_sharp = tanh_profile(seed, spec, template.eps), rasterize(seed, spec)
        result = FamilyResult()
    else:
        # start.sharp was sharpened to the seed raster's volume exactly
        u, prev_sharp = start.phase, start.sharp
        result = FamilyResult([start])
    target_cells = int(np.sum(prev_sharp.values > 0))
    for gamma in gammas:
        cfg = replace(template, gamma=sharp_to_diffuse_gamma(gamma))
        trace = minimize(u, cfg)
        u = trace.final
        sharp = sharpen_to_volume(u, target_cells)
        step = alpha_distance(sharp, prev_sharp)
        result.members.append(FamilyMember(gamma, u, sharp, step, trace.status))
        prev_sharp = sharp
        if trace.status == "stalled":
            result.status = "stalled"
            break
        if step > 0.02:
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
    resolution: int = MESH_RESOLUTION,
) -> float:
    """Max displacement of the phase field's zero level along seed normals.

    For each mesh point of the seed boundary, the trigonometric interpolant
    of the phase field is sampled along the outward normal and the zero
    crossing nearest the seed interface located by linear interpolation.
    The lines span offsets in [-0.08, 0.08] at 81 samples; returns inf when
    a line never changes sign: the field has lost its interface there.
    """
    mesh = interface_mesh(seed, resolution, phase.spec.dim)
    ts = np.linspace(-0.08, 0.08, 81)
    lines = np.mod(
        mesh.all_points()[:, None, :] + ts[None, :, None] * mesh.all_normals()[:, None, :], 1.0
    )
    line_vals = sample_field(phase, lines.reshape(-1, phase.spec.dim)).reshape(len(lines), len(ts))
    return _max_crossing_offset(line_vals, ts)


def _max_crossing_offset(line_vals: np.ndarray, ts: np.ndarray) -> float:
    """Max over lines of |t| at the sign change nearest the middle sample.

    line_vals: (lines, samples) at offsets ts.  A crossing is a strict sign
    change between neighbouring samples, located by linear interpolation; of
    equally near crossings the first wins, and a line with none counts as
    inf.
    """
    sgn = np.sign(line_vals)
    crossing = sgn[:, :-1] * sgn[:, 1:] < 0
    if not crossing.any(axis=1).all():
        return math.inf
    mid = (len(ts) - 1) / 2.0
    j = np.argmin(np.where(crossing, np.abs(np.arange(len(ts) - 1) + 0.5 - mid), np.inf), axis=1)
    lines = np.arange(len(line_vals))
    v0, v1 = line_vals[lines, j], line_vals[lines, j + 1]
    t_cross = ts[j] + (ts[j + 1] - ts[j]) * v0 / (v0 - v1)
    return float(np.max(np.abs(t_cross), initial=0.0))


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

    def __post_init__(self):
        if self.gamma_bar <= 0:
            raise ValueError("gamma_bar must be positive")
        for k in self.k_list:
            self.spec.coarsen(k)  # raises unless k >= 1 divides every grid size


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


class StabilityGateError(RuntimeError):
    """The seed's least pencil eigenvalue is not positive (a numerical
    failure status of the construction, not a configuration error)."""


def build_periodic(config: ConstructConfig) -> list[tuple[ConstructCertificate, ScalarField | None]]:
    """Run the construction for every k; failures are recorded per k.

    The gamma = 0 continuation stage runs once, and every k continues its
    ramp gamma_k (1/3, 2/3, 1) from that stage's phase field and sharpened
    set; a stalled or truncated gamma = 0 stage gives every k that status.
    Returns (certificate, tiled field) pairs.  A k whose continuation
    truncates or stalls, or whose phase field has no zero crossing on some
    seed normal line (lost_interface), gets nan columns and no field.  The
    criticality columns are the EL residual of the tiled seed, which is k
    (residual) and k^2 (tangential bound) times the seed's at gamma_k on the
    n/k grid.
    """
    spec = config.spec
    gate = min_eigenvalue(config.seed, 0.0, spec, resolution=MESH_RESOLUTION)
    if gate <= 0:
        raise StabilityGateError(f"seed fails the strict-stability gate (min eig {gate:.3e})")
    seed_raster = rasterize(config.seed, spec)
    # the gamma = 0 stage does not depend on k: it runs once
    base = continue_family(config.seed, [0.0], config.flow, spec)
    out = []
    for k in config.k_list:
        gamma_k = config.gamma_bar / k**3
        ramp = [gamma_k * (j + 1) / CONTINUATION_STEPS for j in range(CONTINUATION_STEPS)]
        family = base
        if base.status == "complete":
            family = continue_family(config.seed, ramp, config.flow, spec, start=base.members[-1])
        if family.status != "complete":
            out.append((ConstructCertificate(k, gamma_k, *[math.nan] * 6, family.status), None))
            continue
        last = family.members[-1]
        c0 = zero_level_displacement(last.phase, config.seed) / k
        if c0 == math.inf:
            out.append((ConstructCertificate(k, gamma_k, *[math.nan] * 6, "lost_interface"), None))
            continue
        e_field = last.sharp
        alpha_seed = alpha_distance(e_field, seed_raster)
        rep = el_residual(TiledShape(config.seed, k), config.gamma_bar, spec, MESH_RESOLUTION)
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


def _check_probe_field(f_field: ScalarField, k: int) -> None:
    if f_field.kind != "indicator":
        raise ValueError("probes require an indicator field")
    block = f_field.values[tuple(slice(0, n // k) for n in f_field.spec.sizes)]
    if not np.array_equal(f_field.values, np.tile(block, (k,) * f_field.spec.dim)):
        raise ValueError("field is not 1/k-periodic")


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

    Each probe moves one inside cell a of the fundamental cell onto a nearby
    outside cell b (displacement at most `amplitude` cells in sup distance),
    replicated over all R = k^dim periodicity cells.  The probes are drawn
    uniformly, in one batch, from every valid (a, displacement) pair, and the
    exact sharp energy change of each swap is

        dF = R dP_B + gamma_bar (4R/M) [(w_b - w_a) + 2 (K_B(0) - K_B(b - a))]

    (see _swap_gaps).  All probes are skipped and counted only when no valid
    pair exists; amplitude 0 or an empty set gives all-zero gaps.
    """
    _check_probe_field(f_field, k)
    if not 0 <= amplitude <= MAX_PROBE_AMPLITUDE:
        raise ValueError(f"probe amplitude is limited to {MAX_PROBE_AMPLITUDE} cells")
    if amplitude == 0 or not np.any(f_field.values > 0):
        return ProbeReport(np.zeros(n_probes), 0, n_probes)
    a, b = _swap_pairs(f_field, k, amplitude)
    if len(a) == 0:
        return ProbeReport(np.zeros(0), n_probes, n_probes)
    pick = np.random.default_rng(seed).integers(len(a), size=n_probes)
    return ProbeReport(_swap_gaps(f_field, gamma_bar, k, a[pick], b[pick]), 0, n_probes)


def _swap_pairs(f_field: ScalarField, k: int, amplitude: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (inside, outside) cell pair of the fundamental cell within the
    given sup-distance, as (P, dim) index arrays a and b = (a + delta) mod n:
    inside cells in index order, nonzero displacements in index order."""
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


def _swap_gaps(
    f_field: ScalarField, gamma_bar: float, k: int, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Exact energy change of each replicated swap of inside cell a with
    outside cell b ((P, dim) arrays, read modulo the block B = n/k).

    The swap adds du = 2 (e_b - e_a) to each of the R = k^dim blocks.  dP is R
    times the face-jump change on the block torus; since (1/M) <u, w(v)> is
    the voxel Green pairing (w = cell_average_potential), dNL = (2/M) <du, w(F)>
    + (1/M) <du, w(du)>, the second term from the kernel K_B of w folded onto
    the block."""
    spec = f_field.spec
    block = np.array(spec.sizes) // k
    reps = k**spec.dim
    a, b = np.asarray(a) % block, np.asarray(b) % block
    u = f_field.values[tuple(slice(0, n) for n in block)]
    # flipping a (+1 -> -1) changes each face by weight * u_nb, flipping b
    # afterwards by -weight * u_nb with a now -1; a block side of 1 has no faces
    d_perim = np.zeros(len(a))
    for ax in np.flatnonzero(block > 1):
        n = block[ax]
        for step in (-1, 1):
            na, nb = a.copy(), b.copy()
            na[:, ax] = (na[:, ax] + step) % n
            nb[:, ax] = (nb[:, ax] + step) % n
            adjacent = np.all(nb == a, axis=1)
            d_perim += spec.sizes[ax] / spec.cells * (u[tuple(na.T)] - u[tuple(nb.T)] + 2 * adjacent)
    ws = get_workspace(spec)
    w = cell_average_potential(f_field, ws).values
    kern = real_space_kernel(ws, 2)
    kern_b = kern.reshape([m for n in block for m in (k, n)]).sum(axis=tuple(range(0, 2 * spec.dim, 2)))
    d_nl = (4 * reps / spec.cells) * (
        w[tuple(b.T)] - w[tuple(a.T)] + 2 * (kern_b.flat[0] - kern_b[tuple(((b - a) % block).T)])
    )
    return reps * d_perim + gamma_bar * d_nl


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
