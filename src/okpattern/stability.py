"""Second-variation quadratic forms, penalization, mode analysis, thresholds.

The quadratic form on zero-mean surface functions phi is

    Q[phi] = int |D_tau phi|^2 - |B|^2 phi^2
           + 4 gamma int (d_nu v) phi^2
           + 8 gamma int int G(x,y) phi(x) phi(y),

with the Green term nonnegative (it is the Dirichlet energy of the potential
of the surface measure phi dH).  Translations phi = nu . e_i are exact null
directions.  penalized_quad_form adds 2 |int phi nu|^2 (the same device the
penalized functional uses); the pencil instead restricts to T-perp exactly.

Two evaluation routes are kept deliberately distinct:

* mode route (flat interfaces): expand phi in tangential Fourier modes; each
  wave vector q couples the two interfaces through the periodic screened
  Green function of -d^2/dx^2 + 4 pi^2 |q|^2 on the circle, whose closed form
  is hyperbolic-cosine (see lamella_couplings).  Kernels are exact, so the
  translation null space is reproduced to rounding.  A block's least
  eigenvalue a - |b| is linear in gamma, so scans and thresholds are closed form.
* grid route: tangential terms from the one full-symbol chart derivative the
  pencil's stiffness also uses (so both evaluate one form), d_nu v sampled
  spectrally from the rasterized set, and the Green term by multilinear
  splatting of phi dH onto the grid, kernel deconvolution, a Poisson solve,
  and the Dirichlet pairing (the pencil's Green matrix applies the same
  splat stencil to one real-space kernel).  Fully generic; agrees with the
  mode route to about a part in 10^3 at production resolutions, which is
  exactly the oracle-equivalence check the test suite runs.

The dense pencil (min_eigenvalue) is assembled in O(p^2) memory, with no
per-node loop before its final generalized eigensolve: the Green matrix from
the 3^dim distinct splat cell shifts in cache-sized row blocks of its upper
triangle, each chart stiffness from one batched tangent_fn call on the
identity stack, and the exact T-perp restriction (weighted zero mean, no
normal moment) from at most dim + 1 Householder reflectors in compact-WY
form, applied by rank updates.  No translation penalty enters, and one
eigenvalue is solved for, not the whole spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import InterfaceMesh, interface_mesh
from .spectral import get_workspace, half_spectrum, parseval_sum, real_space_kernel, sample_potential
from .torus_field import GridSpec, Lamella, ShapeCandidate, TiledShape, rasterize

FOUR_PI_SQ = 4.0 * math.pi**2


# ---------------------------------------------------------------------------
# Closed-form interface kernels
# ---------------------------------------------------------------------------


def zero_mean_green_kernel(d: float) -> float:
    """sum_{xi != 0} e^{2 pi i xi d} / (4 pi^2 xi^2) = d^2/2 - d/2 + 1/12, d in [0,1]."""
    d = float(d) % 1.0
    return d * d / 2.0 - d / 2.0 + 1.0 / 12.0


def screened_green_coupling(q_sq, d) -> np.ndarray:
    """sum_{xi in Z} e^{2 pi i xi d} / (4 pi^2 (xi^2 + q_sq)) for q_sq > 0.

    The periodic Green function of -d^2/dt^2 + mu^2, mu = 2 pi |q|, on the
    unit circle: cosh(mu (1/2 - d)) / (2 mu sinh(mu/2)) for d in [0, 1),
    evaluated as (e^{-mu d} + e^{-mu (1-d)}) / (2 mu (1 - e^{-mu})), which
    cannot overflow.  q_sq and d broadcast as arrays.
    """
    q_sq = np.asarray(q_sq, dtype=float)
    if np.any(q_sq <= 0):
        raise ValueError("screened coupling requires a nonzero wave vector")
    mu = 2.0 * math.pi * np.sqrt(q_sq)
    d = np.asarray(d, dtype=float) % 1.0
    return (np.exp(-mu * d) + np.exp(-mu * (1.0 - d))) / (-2.0 * mu * np.expm1(-mu))


def lamella_couplings(q_sq, halfwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """(K_q(0), K_q(2w)) for every |q|^2 in q_sq: the self and cross couplings
    of the two lamella interfaces, with the zero-mean circle kernel at q = 0."""
    wave = np.asarray(q_sq) > 0
    safe = np.where(wave, q_sq, 1.0)
    return tuple(
        np.where(wave, screened_green_coupling(safe, d), zero_mean_green_kernel(d))
        for d in (0.0, 2.0 * halfwidth)
    )


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
    hats = [np.fft.fftn(v) / v.size for v in phi.values]
    q_sq = sum(np.ix_(*[np.fft.fftfreq(n, d=1.0 / n) ** 2 for n in hats[0].shape]))

    power = np.abs(hats[0]) ** 2 + np.abs(hats[1]) ** 2
    cross = 2.0 * np.real(hats[0] * np.conj(hats[1]))

    term_perimeter = float(np.sum(FOUR_PI_SQ * q_sq * power))  # |B|^2 = 0
    term_potential = 4.0 * gamma * dv * float(np.sum(power))
    k_self, k_cross = lamella_couplings(q_sq, shape.halfwidth)
    term_green = 8.0 * gamma * float(np.sum(k_self * power + k_cross * cross))
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


def _quad_form_grid(shape, gamma: float, phi: SurfaceFunction, spec: GridSpec) -> QuadFormReport:
    mesh = phi.mesh
    pairs = zip(mesh.charts, phi.values)
    curvature = sum(c.second_fundamental_sq * np.sum(c.weights * v**2) for c, v in pairs)
    term_perimeter = phi.tangential_energy() - float(curvature)

    term_potential = term_green = 0.0
    if gamma > 0:
        vals = np.concatenate([v.ravel() for v in phi.values])
        dnu = _normal_potential_slope(shape, mesh, spec)
        term_potential = 4.0 * gamma * float(np.sum(mesh.all_weights() * dnu * vals**2))
        # Green term: the splatted density with both tent kernels divided out
        ws = get_workspace(spec)
        s = half_spectrum(splat_surface_density(phi, spec))
        term_green = 8.0 * gamma * parseval_sum(s, ws.inv_lap * ws.sinc_power(-4), ws)
    return QuadFormReport(term_perimeter, term_potential, term_green)


def _normal_potential_slope(shape, mesh: InterfaceMesh, spec: GridSpec) -> np.ndarray:
    """d_nu v of the rasterized shape at every mesh node, charts concatenated
    as in mesh.all_points(), from one sampling call."""
    u = rasterize(shape, spec)
    grad_v = sample_potential(u, mesh.all_points(), get_workspace(spec), gradient=True)
    return np.sum(grad_v * mesh.all_normals(), axis=-1)


# ---------------------------------------------------------------------------
# Lamella mode matrices, scans, thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeMatrix:
    """2x2 block [[a, b], [b, a]] of the form on the interface pair at one wave vector."""

    q_sq: float
    gamma: float
    halfwidth: float
    matrix: np.ndarray

    def min_eigenvalue(self) -> float:
        """a - |b|, the eigenvalue of the (1, -sign b) direction."""
        return float(self.matrix[0, 0] - abs(self.matrix[0, 1]))


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
    k_self, k_cross = (float(k) for k in lamella_couplings(q_sq, halfwidth))
    diag = FOUR_PI_SQ * q_sq + 4 * gamma * lamella_potential_slope(halfwidth) + 8 * gamma * k_self
    off = 8 * gamma * k_cross
    return ModeMatrix(q_sq, gamma, halfwidth, np.array([[diag, off], [off, diag]]))


def _mode_lines(halfwidth: float, q_max: int, tangential_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |q|^2 over nonzero integer wave vectors with components in
    [-q_max, q_max], and the slope c_q = 4 d_nu v + 8 K_q(0) - 8 |K_q(2w)| of
    each block's least eigenvalue, which is the line 4 pi^2 |q|^2 + gamma c_q."""
    squares = np.arange(q_max + 1) ** 2
    q_sq = np.unique(sum(np.ix_(*[squares] * tangential_dim)))[1:].astype(float)
    k_self, k_cross = lamella_couplings(q_sq, halfwidth)
    return q_sq, 4.0 * lamella_potential_slope(halfwidth) + 8.0 * k_self - 8.0 * np.abs(k_cross)


def mode_scan_min_eigenvalue(
    halfwidth: float,
    gamma: float,
    q_max: int = 8,
    *,
    tangential_dim: int = 1,
    h1_normalized: bool = False,
) -> float:
    """min over nonzero wave vectors of the least ModeMatrix eigenvalue,
    4 pi^2 |q|^2 + gamma c_q (see _mode_lines).

    With h1_normalized=True each block is divided by the H^1 weight
    4 pi^2 |q|^2 + 1 of its mode, matching the generalized pencil
    normalization of min_eigenvalue.
    """
    q_sq, slope = _mode_lines(halfwidth, q_max, tangential_dim)
    vals = FOUR_PI_SQ * q_sq + gamma * slope
    if h1_normalized:
        vals = vals / (FOUR_PI_SQ * q_sq + 1.0)
    return float(np.min(vals, initial=math.inf))


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
    q_sq, slope = _mode_lines(halfwidth, q_max, tangential_dim)
    crossing = slope < 0
    gamma_star = float(np.min(FOUR_PI_SQ * q_sq[crossing] / -slope[crossing], initial=math.inf))
    if gamma_star > gamma_max:
        return ThresholdResult(math.inf, "open", q_max)
    return ThresholdResult(gamma_star, "crossed", q_max)


# ---------------------------------------------------------------------------
# Dense generalized eigenvalue pencil on the mesh basis
# ---------------------------------------------------------------------------

# entries per Green-matrix row block: 256 KiB of float64, so a block's index,
# term and accumulator arrays stay in cache across the 3^dim shift gathers
_GREEN_BLOCK = 1 << 15


def min_eigenvalue(shape, gamma: float, spec: GridSpec, resolution: int = 32) -> float:
    """Discrete inf of the form over T-perp with ||phi||_{H^1} = 1.

    Assembles the dense symmetric pencil A (the grid-route quadratic form)
    against B (the H^1 inner product) on the nodal basis, restricts both
    exactly to T-perp, the null space of C = [w, W nu_1, ..., W nu_d]
    (weighted zero mean and no normal moment, so translations are excluded
    rather than penalized), and returns the smallest generalized eigenvalue
    from a one-eigenvalue solve.
    """
    if resolution < 16:
        raise ValueError("min_eigenvalue needs resolution >= 16")
    mesh = interface_mesh(shape, resolution, spec.dim)
    charts = mesh.charts
    sizes = [int(np.prod(c.grid_shape)) for c in charts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    p = int(offsets[-1])
    weights = mesh.all_weights()

    if gamma > 0:
        # Green term: one real-space kernel against the splat stencils
        a_mat = _green_matrix(mesh, spec, get_workspace(spec))
        a_mat *= 8.0 * gamma
        dnu = _normal_potential_slope(shape, mesh, spec)
    else:
        a_mat = np.zeros((p, p))
    b_mat = np.zeros((p, p))
    for ci, chart in enumerate(charts):
        m = sizes[ci]
        sl = slice(offsets[ci], offsets[ci] + m)
        w = chart.weights.ravel()
        # one batched call on the identity stack: column j of each component
        # is the derivative of nodal basis vector j
        comps = chart.tangent_fn(np.eye(m).reshape(chart.grid_shape + (m,)))
        # Re(T^H W T) is the exact Dirichlet form of the chart trigonometric
        # interpolant, Nyquist mode included
        tangents = (c.reshape(m, m) for c in comps)
        grad_block = sum((t.conj().T @ (w[:, None] * t)).real for t in tangents)
        # exactly symmetric: the restriction reads the whole matrix, eigh one triangle
        grad_block = 0.5 * (grad_block + grad_block.T)
        diag = -chart.second_fundamental_sq * w
        if gamma > 0:
            diag += 4.0 * gamma * w * dnu[sl]
        a_mat[sl, sl] += grad_block + np.diag(diag)
        b_mat[sl, sl] += grad_block + np.diag(w)

    v, t = _constraint_reflectors(np.column_stack([weights, weights[:, None] * mesh.all_normals()]))
    # free each full matrix once it is restricted
    a_r = _restrict(a_mat, v, t)
    del a_mat
    b_r = _restrict(b_mat, v, t)
    del b_mat
    vals = scipy.linalg.eigh(a_r, b_r, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])


def _constraint_reflectors(constraints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact-WY Householder factors of the constraint columns.

    Returns V (p x k) and upper-triangular T (k x k) with
    Q = H_1 ... H_k = I - V T V^T orthogonal and Q^T C upper triangular, so
    Z = Q[:, k:] is an orthonormal basis of {x : C^T x = 0}; k is the rank of
    C.  Column v_i is zero above row i.  A column that the earlier reflectors
    leave at rounding level (a zero column, or one in the span of earlier
    ones) adds no reflector.
    """
    p, ncols = constraints.shape
    tol = 1e-10 * np.max(np.linalg.norm(constraints, axis=0))
    v = np.zeros((p, 0))
    t = np.zeros((0, 0))
    for j in range(ncols):
        k = v.shape[1]
        x = constraints[:, j] - v @ (t.T @ (v.T @ constraints[:, j]))  # Q^T c_j
        x[:k] = 0.0
        norm = np.linalg.norm(x)
        if norm <= tol:
            continue
        x[k] += math.copysign(norm, x[k])
        tau = 2.0 / (x @ x)
        # H_1 ... H_{k+1} = I - [V x] [[T, -tau T V^T x], [0, tau]] [V x]^T
        t = np.block([[t, -tau * (t @ (v.T @ x))[:, None]], [np.zeros((1, k)), tau]])
        v = np.column_stack([v, x])
    return v, t


def _restrict(mat: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Z^T M Z for Z = Q[:, k:], Q = I - V T V^T, M symmetric.

    With X = M V T and S = T^T V^T X, Q^T M Q = M - Y V^T - V Y^T for
    Y = X - V S / 2: one p x k product and a rank-2k update, O(k p^2), in
    place of forming Z and two dense products.
    """
    k = v.shape[1]
    x = mat @ v @ t
    y = x - 0.5 * v @ (t.T @ (v.T @ x))
    out = np.column_stack([y, v])[k:] @ np.column_stack([v, y])[k:].T
    np.subtract(mat[k:, k:], out, out=out)
    return out


def _green_matrix(mesh: InterfaceMesh, spec: GridSpec, ws) -> np.ndarray:
    """G_ij = int int G b_i b_j over the splatted nodal surface measures.

    Splat, solve (both tent kernels divided out) and pairing are circular
    convolutions with kern = real_space_kernel(ws, -4).  Corner a of node i
    minus corner b of node j is (base_i - base_j) + s with s = a - b in
    {-1, 0, 1}^dim, and the tent weights summed over the corner pairs of one
    s factor per axis into T(+1) = f_i (1 - f_j), T(-1) = (1 - f_i) f_j and
    T(0) = (1 - f_i)(1 - f_j) + f_i f_j, so

        G_ij = cells W_i W_j sum_s kern[base_i - base_j + s] prod_a T_a(s_a)

    with W the node weights and f the tent fractions: 3^dim gathers from the
    kernel padded by one wrapped cell.  Each row block of about _GREEN_BLOCK
    entries is computed from its first row's diagonal on and mirrored into
    the lower triangle, so the matrix is exactly symmetric.
    """
    base, frac = _splat_geometry(mesh, spec)
    p, dim = base.shape
    padded = np.pad(real_space_kernel(ws, -4), 1, mode="wrap").ravel()
    strides = [int(np.prod([n + 2 for n in spec.sizes[a + 1 :]])) for a in range(dim)]
    centre = sum(strides)  # flat offset of the unpadded origin
    # T(0) = (1 + g_i g_j) / 2 with g = 1 - 2 f: the 1/2 joins the i factor
    g_axes = 1.0 - 2.0 * frac
    i_of = {1: frac, -1: 1.0 - frac, 0: np.full_like(frac, 0.5)}
    j_of = {1: 1.0 - frac, -1: frac, 0: np.ones_like(frac)}
    weights = mesh.all_weights()
    # per shift: kernel offset, the factors over i and over j, the s_a = 0 axes
    shifts = []
    for s in itertools.product((-1, 0, 1), repeat=dim):
        fac_i = spec.cells * weights
        fac_j = weights.copy()
        for a, sa in enumerate(s):
            fac_i *= i_of[sa][:, a]
            fac_j *= j_of[sa][:, a]
        zero_axes = [a for a, sa in enumerate(s) if sa == 0]
        shifts.append((centre + int(np.dot(s, strides)), fac_i, fac_j, zero_axes))

    out = np.empty((p, p))
    r0 = 0
    while r0 < p:
        m = p - r0
        h = min(m, max(1, _GREEN_BLOCK // m))
        r1 = r0 + h
        flat = np.zeros((h, m), dtype=np.intp)
        t0 = np.empty((dim, h, m))
        for a, n in enumerate(spec.sizes):
            flat += (base[r0:r1, a, None] - base[None, r0:, a]) % n * strides[a]
            # 2 T(0) along axis a, shared by every shift with s_a = 0
            np.multiply(g_axes[r0:r1, a, None], g_axes[None, r0:, a], out=t0[a])
            t0[a] += 1.0
        term = np.empty((h, m))
        acc = np.zeros((h, m))
        for offset, fac_i, fac_j, zero_axes in shifts:
            # indices are in range by construction; "clip" lets take write
            # straight into term instead of through a buffer
            np.take(padded[offset:], flat, out=term, mode="clip")
            term *= fac_i[r0:r1, None]
            term *= fac_j[r0:]
            for a in zero_axes:
                term *= t0[a]
            acc += term
        square = acc[:, :h]
        out[r0:r1, r0:r1] = np.triu(square) + np.triu(square, 1).T
        out[r0:r1, r1:] = acc[:, h:]
        out[r1:, r0:r1] = acc[:, h:].T
        r0 = r1
    return out
