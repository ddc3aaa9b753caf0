"""Second-variation quadratic forms, penalization, mode analysis, thresholds.

The quadratic form on zero-mean surface functions phi is

    Q[phi] = int |D_tau phi|^2 - |B|^2 phi^2
           + 4 gamma int (d_nu v) phi^2
           + 8 gamma int int G(x,y) phi(x) phi(y),

with the Green term nonnegative (it is the Dirichlet energy of the potential
of the surface measure phi dH).  Translations phi = nu . e_i are exact null
directions; the penalization 2 |int phi nu|^2 (the same device the penalized
functional uses) removes them without deflation.

Two evaluation routes are kept deliberately distinct:

* mode route (flat interfaces): expand phi in tangential Fourier modes; each
  wave vector q couples the two interfaces through the periodic screened
  Green function of -d^2/dx^2 + 4 pi^2 |q|^2 on the circle, whose closed form
  is hyperbolic-cosine (see screened_green_coupling).  Kernels are exact, so
  the translation null space is reproduced to rounding.
* grid route: tangential terms from the mesh chart operators, d_nu v sampled
  spectrally from the rasterized set, and the Green term by multilinear
  splatting of phi dH onto the grid, kernel deconvolution, a Poisson solve,
  and the Dirichlet pairing (the pencil's Green matrix applies the same
  splat stencil to one real-space kernel).  Fully generic; agrees with the
  mode route to about a part in 10^3 at production resolutions, which is
  exactly the oracle-equivalence check the test suite runs.

The dense pencil (min_eigenvalue) is assembled in O(p^2) memory, with no
per-node loop before its final generalized eigensolve: the Green matrix from
the 3^dim distinct splat cell shifts, each chart stiffness from
one batched tangent_fn call on the identity stack, and the weighted zero-mean
restriction from one Householder reflector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import Chart, InterfaceMesh, interface_mesh
from .spectral import get_workspace
from .torus_field import GridSpec, Lamella, ScalarField, ShapeCandidate, TiledShape, rasterize

FOUR_PI_SQ = 4.0 * math.pi**2


# ---------------------------------------------------------------------------
# Closed-form interface kernels
# ---------------------------------------------------------------------------


def zero_mean_green_kernel(d: float) -> float:
    """sum_{xi != 0} e^{2 pi i xi d} / (4 pi^2 xi^2) = d^2/2 - d/2 + 1/12, d in [0,1]."""
    d = float(d) % 1.0
    return d * d / 2.0 - d / 2.0 + 1.0 / 12.0


def screened_green_coupling(q_sq: float, d: float) -> float:
    """sum_{xi in Z} e^{2 pi i xi d} / (4 pi^2 (xi^2 + q_sq)) for q_sq > 0.

    The periodic Green function of -d^2/dt^2 + (2 pi |q|)^2 on the unit
    circle: cosh(2 pi |q| (1/2 - d_per)) / (4 pi |q| sinh(pi |q|)).
    """
    if q_sq <= 0:
        raise ValueError("screened coupling requires a nonzero wave vector")
    mu = 2.0 * math.pi * math.sqrt(q_sq)
    d_per = abs(float(d) % 1.0)
    d_per = min(d_per, 1.0 - d_per)
    return math.cosh(mu * (0.5 - d_per)) / (2.0 * mu * math.sinh(mu / 2.0))


def lamella_potential_slope(halfwidth: float) -> float:
    """d_nu v on both interfaces of the lamella: -2 w (1 - 2 w).

    Equals 2 [G0(2w) - G0(0)] with the zero-mean circle Green function, the
    identity that makes the translation mode an exact null direction.
    """
    w = halfwidth
    return -2.0 * w * (1.0 - 2.0 * w)


# ---------------------------------------------------------------------------
# Surface functions
# ---------------------------------------------------------------------------


@dataclass
class SurfaceFunction:
    """Values of phi at the points of an InterfaceMesh, one array per chart."""

    mesh: InterfaceMesh
    values: list[np.ndarray]
    zero_mean: bool = True

    def __post_init__(self):
        if len(self.values) != len(self.mesh.charts):
            raise ValueError("one value array per chart required")
        self.values = [
            np.asarray(v, dtype=np.float64).reshape(c.grid_shape)
            for v, c in zip(self.values, self.mesh.charts)
        ]
        if self.zero_mean:
            total = self.weighted_integral()
            area = self.mesh.total_weight
            if abs(total) > 1e-10 * area:
                raise ValueError(
                    f"phi flagged zero-mean but int phi = {total:.3e} (area {area:.3e})"
                )

    def weighted_integral(self) -> float:
        return float(
            sum(np.sum(c.weights * v) for c, v in zip(self.mesh.charts, self.values))
        )

    def l2_sq(self) -> float:
        return float(
            sum(np.sum(c.weights * v**2) for c, v in zip(self.mesh.charts, self.values))
        )

    def tangential_energy(self) -> float:
        return float(
            sum(
                np.sum(c.weights * c.tangential_gradient_sq(v))
                for c, v in zip(self.mesh.charts, self.values)
            )
        )

    def h1_sq(self) -> float:
        """Full H^1 norm squared (gradient plus L^2); the gradient-only
        seminorm is tangential_energy()."""
        return self.tangential_energy() + self.l2_sq()

    def normal_moment(self) -> np.ndarray:
        """int phi nu dH, the vector whose vanishing defines T-perp."""
        dim = self.mesh.charts[0].points.shape[-1]
        out = np.zeros(dim)
        for c, v in zip(self.mesh.charts, self.values):
            out += np.sum((c.weights * v)[..., None] * c.normals, axis=tuple(range(v.ndim)))
        return out


def translation_mode(mesh: InterfaceMesh, axis: int) -> SurfaceFunction:
    """phi = nu . e_axis, the translation null direction."""
    values = [c.normals[..., axis].copy() for c in mesh.charts]
    return SurfaceFunction(mesh, values, zero_mean=True)


def lamella_wave_mode(
    mesh: InterfaceMesh, q: int, amplitudes=(1.0, 1.0), chart_axis: int = 0
) -> SurfaceFunction:
    """cos(2 pi q t) on each lamella interface with per-interface amplitudes."""
    values = []
    for c, amp in zip(mesh.charts, amplitudes):
        res = c.grid_shape[chart_axis]
        t = np.arange(res) / res
        vec = amp * np.cos(2 * np.pi * q * t)
        shape_vec = [1] * len(c.grid_shape)
        shape_vec[chart_axis] = res
        values.append(np.broadcast_to(vec.reshape(shape_vec), c.grid_shape).copy())
    return SurfaceFunction(mesh, values, zero_mean=(q != 0 or abs(sum(amplitudes)) < 1e-12))


# ---------------------------------------------------------------------------
# Quadratic form reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadFormReport:
    term_perimeter: float
    term_potential: float
    term_green: float
    penalty: float = 0.0

    @property
    def total(self) -> float:
        return self.term_perimeter + self.term_potential + self.term_green + self.penalty

    @property
    def magnitude_scale(self) -> float:
        return (
            abs(self.term_perimeter)
            + abs(self.term_potential)
            + abs(self.term_green)
            + abs(self.penalty)
            + 1e-300
        )


def _lamella_of(shape) -> tuple[Lamella, int] | None:
    if isinstance(shape, Lamella):
        return shape, 1
    if isinstance(shape, TiledShape) and isinstance(shape.shape, Lamella):
        return shape.shape, shape.k
    return None


def quad_form(
    shape,
    gamma: float,
    phi: SurfaceFunction,
    spec: GridSpec | None = None,
    *,
    method: str = "auto",
) -> QuadFormReport:
    """Evaluate the second-variation quadratic form at a candidate shape.

    method="mode" uses the exact flat-interface kernels (lamellae only);
    method="grid" runs the generic splat/solve route and needs a GridSpec;
    "auto" picks mode for plain lamellae and grid otherwise.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if not phi.zero_mean:
        raise ValueError("the quadratic form is defined on zero-mean phi")
    lam = _lamella_of(shape)
    if method == "auto":
        method = "mode" if (lam is not None and lam[1] == 1) else "grid"
    if method == "mode":
        if lam is None or lam[1] != 1:
            raise ValueError("the mode route handles plain lamellae only")
        return _quad_form_lamella_modes(lam[0], gamma, phi)
    if method == "grid":
        if spec is None:
            raise ValueError("the grid route needs a GridSpec")
        return _quad_form_grid(shape, gamma, phi, spec)
    raise ValueError(f"unknown method {method!r}")


def penalized_quad_form(shape, gamma, phi, spec=None, *, method="auto") -> QuadFormReport:
    """quad_form plus the translation penalty 2 |int phi nu|^2."""
    base = quad_form(shape, gamma, phi, spec, method=method)
    moment = phi.normal_moment()
    return QuadFormReport(
        base.term_perimeter, base.term_potential, base.term_green, 2.0 * float(moment @ moment)
    )


def _quad_form_lamella_modes(shape: Lamella, gamma: float, phi: SurfaceFunction) -> QuadFormReport:
    if len(phi.mesh.charts) != 2:
        raise ValueError("lamella meshes carry exactly two charts")
    dv = lamella_potential_slope(shape.halfwidth)
    sep = 2.0 * shape.halfwidth
    hats = [np.fft.fftn(v) / v.size for v in phi.values]
    grid_shape = phi.values[0].shape
    q_axes = [np.fft.fftfreq(n, d=1.0 / n) for n in grid_shape]
    q_sq = np.zeros(grid_shape)
    for pos, qs in enumerate(q_axes):
        shape_vec = [1] * len(grid_shape)
        shape_vec[pos] = len(qs)
        q_sq = q_sq + qs.reshape(shape_vec) ** 2

    power = np.abs(hats[0]) ** 2 + np.abs(hats[1]) ** 2
    cross = 2.0 * np.real(hats[0] * np.conj(hats[1]))

    term_perimeter = float(np.sum(FOUR_PI_SQ * q_sq * power))  # |B|^2 = 0
    term_potential = 4.0 * gamma * dv * float(np.sum(power))
    green = 0.0
    for idx in np.ndindex(*grid_shape):
        qq = q_sq[idx]
        if qq > 0:
            k_self = screened_green_coupling(qq, 0.0)
            k_cross = screened_green_coupling(qq, sep)
        else:
            k_self = zero_mean_green_kernel(0.0)
            k_cross = zero_mean_green_kernel(sep)
        green += k_self * power[idx] + k_cross * cross[idx]
    term_green = 8.0 * gamma * float(green)
    return QuadFormReport(term_perimeter, term_potential, term_green)


def _splat_geometry(mesh: InterfaceMesh, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lower splat corner (a cell index per axis, wrapped into the grid) and
    per-axis tent fraction of every mesh node, both shaped (p, dim)."""
    sizes = np.asarray(spec.sizes)
    ucoord = mesh.all_points() * sizes - 0.5
    base = np.floor(ucoord)
    return base.astype(np.int64) % sizes, ucoord - base


def _splat_stencil(mesh: InterfaceMesh, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear splat of every mesh node onto its 2^dim surrounding cells.

    Returns the flat cell index and the weight (node weight x cells x tent
    factor, a density normalization) of each corner, both shaped (p, 2^dim).
    """
    base, frac = _splat_geometry(mesh, spec)
    corners = np.array(list(np.ndindex(*(2,) * spec.dim)))
    pos = (base[:, None, :] + corners) % spec.sizes
    idx = np.ravel_multi_index(tuple(np.moveaxis(pos, -1, 0)), spec.sizes)
    tent = np.prod(np.where(corners == 1, frac[:, None, :], 1.0 - frac[:, None, :]), axis=-1)
    return idx, (mesh.all_weights() * spec.cells)[:, None] * tent


def splat_surface_density(phi: SurfaceFunction, spec: GridSpec) -> np.ndarray:
    """Deposit the weighted surface measure phi dH onto the grid (multilinear).

    Returns a density (mass per unit volume).  The weighted mean must already
    vanish to 1e-10 of the surface area; it is subtracted exactly afterwards.
    """
    total = phi.weighted_integral()
    if abs(total) > 1e-10 * phi.mesh.total_weight:
        raise ValueError(f"surface measure has mean {total:.3e}; zero-mean phi required")
    idx, weight = _splat_stencil(phi.mesh, spec)
    vals = np.concatenate([v.ravel() for v in phi.values])
    s = np.bincount(idx.ravel(), (weight * vals[:, None]).ravel(), minlength=spec.cells)
    s = s.reshape(spec.sizes)
    s -= s.mean()
    return s


def _deconvolved_coeffs(s: np.ndarray, ws) -> np.ndarray:
    """Normalized DFT of a splatted density with the tent kernel divided out."""
    coeffs = np.fft.fftn(s) / s.size
    return coeffs / ws.cell_factor**2


def _quad_form_grid(shape, gamma: float, phi: SurfaceFunction, spec: GridSpec) -> QuadFormReport:
    mesh = phi.mesh
    term_perimeter = 0.0
    for chart, vals in zip(mesh.charts, phi.values):
        term_perimeter += float(
            np.sum(
                chart.weights
                * (chart.tangential_gradient_sq(vals) - chart.second_fundamental_sq * vals**2)
            )
        )

    ws = get_workspace(spec)
    term_potential = 0.0
    if gamma > 0:
        u = rasterize(shape, spec)
        for chart, vals in zip(mesh.charts, phi.values):
            grad_v = _chart_potential_gradient(u, chart, ws)
            dnu = np.sum(grad_v * chart.normals, axis=-1)
            term_potential += 4.0 * gamma * float(np.sum(chart.weights * dnu * vals**2))

    term_green = 0.0
    if gamma > 0:
        s = splat_surface_density(phi, spec)
        coeffs = _deconvolved_coeffs(s, ws)
        term_green = 8.0 * gamma * float(np.sum(np.abs(coeffs) ** 2 * ws.inv_lap))
    return QuadFormReport(term_perimeter, term_potential, term_green)


def _chart_potential_gradient(u: ScalarField, chart: Chart, ws) -> np.ndarray:
    from .geometry import _sample_v_on_chart

    return _sample_v_on_chart(u, chart, ws, gradient=True)


# ---------------------------------------------------------------------------
# Lamella mode matrices, scans, thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeMatrix:
    """2x2 quadratic-form block on the interface pair at one wave vector."""

    q_sq: float
    gamma: float
    halfwidth: float
    matrix: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def lamella_mode_matrix(q, gamma: float, halfwidth: float, *, allow_zero_mode=False) -> ModeMatrix:
    """Closed-form 2x2 block: diagonal 4 pi^2 |q|^2 + 4 gamma d_nu v + 8 gamma K_q(0),
    off-diagonal 8 gamma K_q(2w).

    q is an integer or tangential integer vector.  q = 0 is the volume /
    translation sector and must be requested explicitly; its (1,-1) direction
    is the exact translation null mode.
    """
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    q_sq = float(np.sum(q_arr**2))
    if q_sq == 0 and not allow_zero_mode:
        raise ValueError("q = 0 is the translation/volume sector; pass allow_zero_mode=True")
    w = halfwidth
    dv = lamella_potential_slope(w)
    if q_sq > 0:
        k_self = screened_green_coupling(q_sq, 0.0)
        k_cross = screened_green_coupling(q_sq, 2.0 * w)
    else:
        k_self = zero_mean_green_kernel(0.0)
        k_cross = zero_mean_green_kernel(2.0 * w)
    local = FOUR_PI_SQ * q_sq
    m = np.array(
        [
            [local + 4 * gamma * dv + 8 * gamma * k_self, 8 * gamma * k_cross],
            [8 * gamma * k_cross, local + 4 * gamma * dv + 8 * gamma * k_self],
        ]
    )
    return ModeMatrix(q_sq, gamma, w, m)


def _tangential_wave_vectors(q_max: int, tangential_dim: int):
    if tangential_dim == 1:
        for q in range(1, q_max + 1):
            yield (q,)
    else:
        for idx in np.ndindex(*(2 * q_max + 1,) * tangential_dim):
            q = tuple(i - q_max for i in idx)
            if any(q) and all(abs(c) <= q_max for c in q):
                yield q


def mode_scan_min_eigenvalue(
    halfwidth: float,
    gamma: float,
    q_max: int = 8,
    *,
    tangential_dim: int = 1,
    h1_normalized: bool = False,
) -> float:
    """min over nonzero wave vectors of the least ModeMatrix eigenvalue.

    With h1_normalized=True each block is divided by the H^1 weight
    4 pi^2 |q|^2 + 1 of its mode, matching the generalized pencil
    normalization of min_eigenvalue.
    """
    best = math.inf
    for q in _tangential_wave_vectors(q_max, tangential_dim):
        block = lamella_mode_matrix(q, gamma, halfwidth)
        val = block.min_eigenvalue()
        if h1_normalized:
            val = val / (FOUR_PI_SQ * block.q_sq + 1.0)
        best = min(best, val)
    return best


@dataclass(frozen=True)
class ThresholdResult:
    gamma_star: float
    status: str  # "crossed" or "open"
    q_max: int


def lamella_threshold(
    halfwidth: float,
    *,
    q_max: int = 8,
    gamma_max: float = 1e4,
    tangential_dim: int = 1,
) -> ThresholdResult:
    """Smallest gamma at which the lamella mode spectrum touches zero.

    Scans wave vectors q in {1..q_max} (in each tangential direction).  The
    q = 0 antisymmetric sector is the translation null mode for every gamma
    and so never drives the threshold; it is excluded along with the rest of
    the translation space.  The least eigenvalue of each block is linear in
    gamma, 4 pi^2 |q|^2 + gamma c_q with c_q = 4 d_nu v + 8 K_q(0) - 8 |K_q(2w)|,
    so the threshold is min over c_q < 0 of 4 pi^2 |q|^2 / (-c_q); the status
    is open when no crossing exists up to gamma_max.
    """
    dv = lamella_potential_slope(halfwidth)
    gamma_star = math.inf
    for q in _tangential_wave_vectors(q_max, tangential_dim):
        q_sq = float(sum(c * c for c in q))
        slope = (
            4.0 * dv
            + 8.0 * screened_green_coupling(q_sq, 0.0)
            - 8.0 * abs(screened_green_coupling(q_sq, 2.0 * halfwidth))
        )
        if slope < 0:
            gamma_star = min(gamma_star, FOUR_PI_SQ * q_sq / -slope)
    if gamma_star > gamma_max:
        return ThresholdResult(math.inf, "open", q_max)
    return ThresholdResult(gamma_star, "crossed", q_max)


# ---------------------------------------------------------------------------
# Dense generalized eigenvalue pencil on the mesh basis
# ---------------------------------------------------------------------------


def min_eigenvalue(
    shape,
    gamma: float,
    spec: GridSpec,
    resolution: int = 32,
    *,
    penalty_weight: float | None = None,
) -> float:
    """Discrete inf of the form over T-perp with ||phi||_{H^1} = 1.

    Assembles the dense symmetric pencil A (grid-route quadratic form plus a
    translation penalty large enough to push the null modes above the
    spectrum) against B (the H^1 inner product), restricted to weighted
    zero-mean nodal vectors, and returns the smallest generalized eigenvalue.
    """
    if resolution < 16:
        raise ValueError("min_eigenvalue needs resolution >= 16")
    mesh = interface_mesh(shape, resolution, spec.dim)
    charts = mesh.charts
    sizes = [int(np.prod(c.grid_shape)) for c in charts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    p = int(offsets[-1])
    weights = mesh.all_weights()
    normals = mesh.all_normals()
    dim = normals.shape[1]

    # per-chart tangential operators and H^1 blocks
    a_mat = np.zeros((p, p))
    b_mat = np.zeros((p, p))
    for ci, chart in enumerate(charts):
        m = sizes[ci]
        sl = slice(offsets[ci], offsets[ci] + m)
        w = chart.weights.ravel()
        # one batched call on the identity stack: column j of each component
        # is the derivative of nodal basis vector j
        comps = chart.tangent_fn(np.eye(m).reshape(chart.grid_shape + (m,)), full=True)
        # full-symbol stiffness: Re(T^H W T) is the exact Dirichlet form of
        # the chart trigonometric interpolant, Nyquist mode included
        tangents = (c.reshape(m, m) for c in comps)
        grad_block = sum((t.conj().T @ (w[:, None] * t)).real for t in tangents)
        a_mat[sl, sl] += grad_block - chart.second_fundamental_sq * np.diag(w)
        b_mat[sl, sl] += grad_block + np.diag(w)

    ws = get_workspace(spec)
    if gamma > 0:
        u = rasterize(shape, spec)
        # potential term
        col = 0
        for chart in charts:
            m = int(np.prod(chart.grid_shape))
            grad_v = _chart_potential_gradient(u, chart, ws)
            dnu = np.sum(grad_v * chart.normals, axis=-1).ravel()
            sl = slice(col, col + m)
            a_mat[sl, sl] += 4.0 * gamma * np.diag(chart.weights.ravel() * dnu)
            col += m
        # Green term: one real-space kernel against the splat stencils
        green = _green_matrix(mesh, spec, ws)
        a_mat += 8.0 * gamma * green

    a_mat = 0.5 * (a_mat + a_mat.T)
    b_mat = 0.5 * (b_mat + b_mat.T)

    # translation penalty
    moments = weights[:, None] * normals  # columns int e_j . nu phi
    if penalty_weight is None:
        scale = np.linalg.norm(a_mat, ord="fro") + 1.0
        penalty_weight = 1e4 * scale / max(float(np.sum(moments**2)), 1e-12)
    for j in range(dim):
        v = moments[:, j]
        a_mat += penalty_weight * np.outer(v, v)

    vals = scipy.linalg.eigh(
        _restrict_zero_mean(a_mat, weights),
        _restrict_zero_mean(b_mat, weights),
        eigvals_only=True,
    )
    return float(vals[0])


def _restrict_zero_mean(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Z^T M Z for an orthonormal basis Z of {weights . phi = 0}, M symmetric.

    The Householder reflector H = I - 2 v v^T with v along
    weights/|weights| + sign(weights_0) e_0 maps weights onto the e_0 axis,
    so Z = H[:, 1:].  H M H = M - v y^T - y v^T with y = 2 (M v - (v^T M v) v),
    two rank-1 updates in place of an SVD and two dense products.
    """
    v = weights / np.linalg.norm(weights)
    v[0] += math.copysign(1.0, v[0])
    v /= np.linalg.norm(v)
    mv = mat @ v
    y = 2.0 * (mv - (v @ mv) * v)
    out = mat[1:, 1:] - np.outer(v[1:], y[1:])
    out -= np.outer(y[1:], v[1:])
    return out


def _green_matrix(mesh: InterfaceMesh, spec: GridSpec, ws) -> np.ndarray:
    """G_ij = int int G b_i b_j over the splatted nodal surface measures.

    Splat, solve (both tent kernels divided out) and pairing are circular
    convolutions with kern = ifftn(inv_lap / cell_factor^4).real.  Corner a
    of node i minus corner b of node j is (base_i - base_j) + s with
    s = a - b in {-1, 0, 1}^dim, and the tent weights summed over the corner
    pairs of one s factor per axis into T(+1) = f_i (1 - f_j),
    T(-1) = (1 - f_i) f_j and T(0) = (1 - f_i)(1 - f_j) + f_i f_j, so

        G_ij = cells W_i W_j sum_s kern[base_i - base_j + s] prod_a T_a(s_a)

    with W the node weights and f the tent fractions: 3^dim gathers from the
    kernel padded by one wrapped cell into three reused p x p work arrays.
    """
    base, frac = _splat_geometry(mesh, spec)
    p, dim = base.shape
    kern = np.fft.ifftn(ws.inv_lap / ws.cell_factor**4).real
    padded = np.pad(kern, 1, mode="wrap").ravel()
    strides = [int(np.prod([n + 2 for n in spec.sizes[a + 1 :]])) for a in range(dim)]
    centre = sum(strides)  # flat offset of the unpadded origin
    # T(0) = (1 + g_i g_j) / 2 with g = 1 - 2 f: the 1/2 joins the rank-1 part
    g_axes = 1.0 - 2.0 * frac
    col_of = {1: frac, -1: 1.0 - frac, 0: np.full_like(frac, 0.5)}
    row_of = {1: 1.0 - frac, -1: frac, 0: np.ones_like(frac)}
    weights = mesh.all_weights()

    flat = np.zeros((p, p), dtype=np.intp)
    for a, n in enumerate(spec.sizes):
        flat += (base[:, a, None] - base[None, :, a]) % n * strides[a]
    out = np.zeros((p, p))
    term = np.empty((p, p))
    spare = np.empty((p, p))
    for s in itertools.product((-1, 0, 1), repeat=dim):
        # indices are in range by construction; "clip" lets take write
        # straight into term instead of through a buffer
        np.take(padded[centre + int(np.dot(s, strides)) :], flat, out=term, mode="clip")
        col = spec.cells * weights
        row = weights.copy()
        for a, sa in enumerate(s):
            col *= col_of[sa][:, a]
            row *= row_of[sa][:, a]
        term *= col[:, None]
        term *= row
        for a in (a for a, sa in enumerate(s) if sa == 0):
            np.multiply(term, g_axes[:, a, None], out=spare)
            spare *= g_axes[:, a]
            term += spare
        out += term
    out += out.T
    out *= 0.5
    return out
