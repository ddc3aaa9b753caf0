"""Second-variation quadratic forms, mode analysis, thresholds, pencils.

The quadratic form on zero-mean surface functions phi is

    Q[phi] = int |D_tau phi|^2 - |B|^2 phi^2
           + 4 gamma int (d_nu v) phi^2
           + 8 gamma int int G(x,y) phi(x) phi(y),

with the Green term nonnegative (it is the Dirichlet energy of the potential
of the surface measure phi dH).  Translations phi = nu . e_i are exact null
directions; the pencil restricts to T-perp, their complement, exactly.

Two evaluation routes are kept deliberately distinct:

* mode route (flat interfaces): expand phi in tangential Fourier modes; each
  wave vector q couples the two interfaces through the periodic screened
  Green function of -d^2/dx^2 + 4 pi^2 |q|^2 on the circle, whose closed form
  is hyperbolic-cosine (see lamella_couplings).  Kernels are exact, so the
  translation null space is reproduced to rounding.  A block's least
  eigenvalue a - |b| is linear in gamma, so scans and thresholds are closed form.
* grid route: the pencil's own assembly applied to phi.  The curvature and
  potential node weights (d_nu v sampled spectrally from the rasterized set)
  and the Green matrix of the multilinear splat come from the one function
  the pencil also calls, so those terms are phi . weights . phi and
  phi^T G phi.  The tangential term is summed directly from the chart
  derivative (tangential_energy()), the same full-symbol derivative the
  pencil's stiffness K is built from.  Fully generic; agrees with
  the mode route to about a part in 10^3 at production resolutions, which is
  exactly the oracle-equivalence check the test suite runs.

The pencil (min_eigenvalue) has no per-node loop before its generalized
eigensolves: the Green matrix from the 3^dim distinct splat cell shifts,
summed axis by axis in cache-sized row blocks; each chart stiffness, block
circulant along the chart's last axis, from one tangent_fn call on one block
column; and the exact T-perp restriction (weighted zero mean, no normal
moment) from at most dim + 1 Householder reflectors in compact-WY form,
applied by rank updates.  No translation penalty enters, and each solve asks
for one eigenvalue, not the whole spectrum.  When every chart steps along one
torus translation whose step is whole cells (lamellae, cylinders: Chart.axis),
the pencil is block circulant with order s = nodes per step axis: only the
block row (p^2 / s entries) is assembled, and its FFT splits the pencil into
s / 2 + 1 Hermitian blocks of size p / s (Floquet-Bloch along one axis).
Otherwise (balls, tilings) it is dense, O(p^2) memory and one p x p solve,
with its upper-triangle Green fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import InterfaceMesh, interface_mesh
from .spectral import get_workspace, real_space_kernel, sample_potential
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

    def tangential_energy(self) -> float:
        return float(
            sum(
                np.sum(c.weights * c.tangential_gradient_sq(v))
                for c, v in zip(self.mesh.charts, self.values)
            )
        )


def translation_mode(mesh: InterfaceMesh, axis: int) -> SurfaceFunction:
    """phi = nu . e_axis, the translation null direction."""
    values = [c.normals[..., axis].copy() for c in mesh.charts]
    return SurfaceFunction(mesh, values, zero_mean=True)


def lamella_wave_mode(mesh: InterfaceMesh, q: int, amplitudes=(1.0, 1.0)) -> SurfaceFunction:
    """cos(2 pi q t) along the first chart axis of each lamella interface,
    with per-interface amplitudes."""
    values = []
    for c, amp in zip(mesh.charts, amplitudes):
        res = c.grid_shape[0]
        t = np.arange(res) / res
        vec = amp * np.cos(2 * np.pi * q * t)
        shape_vec = [res] + [1] * (len(c.grid_shape) - 1)
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

    @property
    def total(self) -> float:
        return self.term_perimeter + self.term_potential + self.term_green

    @property
    def magnitude_scale(self) -> float:
        return (
            abs(self.term_perimeter)
            + abs(self.term_potential)
            + abs(self.term_green)
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
    method="grid" evaluates the pencil's assembled form and needs a GridSpec;
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


def _quad_form_grid(shape, gamma: float, phi: SurfaceFunction, spec: GridSpec) -> QuadFormReport:
    vals = np.concatenate([v.ravel() for v in phi.values])
    curv, pot, green = _second_variation_parts(shape, phi.mesh, gamma, spec)
    sq = vals**2
    term_perimeter = phi.tangential_energy() - float(curv @ sq)
    term_green = 0.0 if green is None else float(vals @ green @ vals)
    return QuadFormReport(term_perimeter, float(pot @ sq), term_green)


def _second_variation_parts(shape, mesh: InterfaceMesh, gamma: float, spec: GridSpec, rows=None):
    """The nodal pieces of the form on mesh besides the tangential term: the
    curvature weight |B|^2 w, the potential weight 4 gamma w d_nu v (zero at
    gamma = 0) and the Green matrix scaled by 8 gamma (None at gamma = 0).
    With rows (node indices) given, the weights at those nodes and the Green
    rows G[rows, :] only."""
    curv = np.concatenate([c.second_fundamental_sq * c.weights.ravel() for c in mesh.charts])
    weights = mesh.all_weights()
    if rows is not None:
        curv, weights = curv[rows], weights[rows]
    if gamma <= 0:
        return curv, np.zeros_like(curv), None
    green = _green_matrix(mesh, spec, get_workspace(spec), rows)
    green *= 8.0 * gamma
    pot = 4.0 * gamma * weights * _normal_potential_slope(shape, mesh, spec, rows)
    return curv, pot, green


def _normal_potential_slope(shape, mesh: InterfaceMesh, spec: GridSpec, rows=None) -> np.ndarray:
    """d_nu v of the rasterized shape at every mesh node (or at the nodes
    rows), charts concatenated as in mesh.all_points(), from one sampling
    call."""
    points, normals = mesh.all_points(), mesh.all_normals()
    if rows is not None:
        points, normals = points[rows], normals[rows]
    u = rasterize(shape, spec)
    grad_v = sample_potential(u, points, get_workspace(spec), gradient=True)
    return np.sum(grad_v * normals, axis=-1)


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
    if not 0.0 < halfwidth < 0.5:
        raise ValueError("lamella halfwidth must lie in (0, 1/2)")
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
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
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
    tangential_dim: int = 1,
) -> ThresholdResult:
    """Smallest gamma at which the lamella mode spectrum touches zero.

    Scans wave vectors q in {1..q_max} (in each tangential direction).  The
    q = 0 antisymmetric sector is the translation null mode for every gamma
    and so never drives the threshold; it is excluded along with the rest of
    the translation space.  The least eigenvalue of each block is linear in
    gamma, 4 pi^2 |q|^2 + gamma c_q with c_q = 4 d_nu v + 8 K_q(0) - 8 |K_q(2w)|,
    so the threshold is min over c_q < 0 of 4 pi^2 |q|^2 / (-c_q); the status
    is open when no crossing exists up to gamma = 1e4.
    """
    q_sq, slope = _mode_lines(halfwidth, q_max, tangential_dim)
    crossing = slope < 0
    gamma_star = float(np.min(FOUR_PI_SQ * q_sq[crossing] / -slope[crossing], initial=math.inf))
    if gamma_star > 1e4:
        return ThresholdResult(math.inf, "open", q_max)
    return ThresholdResult(gamma_star, "crossed", q_max)


# ---------------------------------------------------------------------------
# Generalized eigenvalue pencil on the mesh basis, dense or in Bloch blocks
# ---------------------------------------------------------------------------

# entries per Green-matrix row block: 128 KiB of float64, so a block's index
# array, its 3 dim tent tables and the partial sums of _shift_sum stay in
# cache across the 3^dim shift gathers
_GREEN_BLOCK = 1 << 14


def min_eigenvalue(shape, gamma: float, spec: GridSpec, resolution: int = 32) -> float:
    """Discrete inf of the form over T-perp with ||phi||_{H^1} = 1.

    Assembles the symmetric pencil A (the grid-route quadratic form) against
    B (the H^1 inner product) on the nodal basis, restricts both exactly to
    T-perp, the null space of C = [w, W nu_1, ..., W nu_d] (weighted zero
    mean and no normal moment, so translations are excluded rather than
    penalized), and returns the smallest generalized eigenvalue.  When the
    mesh is invariant under a translation of order s > 1 (_symmetry_order),
    the pencil is block circulant and splits into s Bloch blocks; each block
    gets a one-eigenvalue solve and the least value is returned.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if resolution < 16:
        raise ValueError("min_eigenvalue needs resolution >= 16")
    mesh = interface_mesh(shape, resolution, spec.dim)
    return _pencil_min(shape, mesh, gamma, spec, _symmetry_order(mesh, spec))


def _symmetry_order(mesh: InterfaceMesh, spec: GridSpec) -> int:
    """n2 when every chart steps 1/n2 per last-axis node along one torus axis
    a (Chart.axis) and n2 divides the grid size along a, so that the step is
    a whole number of cells and the splat stencils shift exactly; else 1."""
    axes = {c.axis for c in mesh.charts}
    n2s = {c.grid_shape[-1] for c in mesh.charts}
    if len(axes) == len(n2s) == 1 and None not in axes:
        (axis,), (n2,) = axes, n2s
        if spec.sizes[axis] % n2 == 0:
            return n2
    return 1


def _pencil_min(shape, mesh: InterfaceMesh, gamma: float, spec: GridSpec, order: int) -> float:
    """Least eigenvalue of the T-perp restricted pencil, solved block by block.

    The constraint columns are constant along the translation, so they live
    in the q = 0 block alone, which is restricted there; a block the
    restriction leaves empty is skipped.  Blocks q and order - q are complex
    conjugates with the same eigenvalues, so q runs over 0 .. order // 2.
    """
    a_blocks, b_blocks, rows = _pencil_blocks(shape, mesh, gamma, spec, order)
    weights = mesh.all_weights()[rows]
    v, t = _constraint_reflectors(
        np.column_stack([weights, weights[:, None] * mesh.all_normals()[rows]])
    )
    # free each full block once it is restricted
    a_blocks[0] = _restrict(a_blocks[0], v, t)
    b_blocks[0] = _restrict(b_blocks[0], v, t)
    least = math.inf
    for a_q, b_q in zip(a_blocks, b_blocks):
        if a_q.size:
            vals = scipy.linalg.eigh(a_q, b_q, eigvals_only=True, subset_by_index=[0, 0])
            least = min(least, float(vals[0]))
    return least


def _pencil_blocks(shape, mesh: InterfaceMesh, gamma: float, spec: GridSpec, order: int):
    """Bloch blocks (A_q, B_q), q = 0 .. order // 2, and the row nodes.

    Nodes are numbered chart by chart in C order, so with every chart
    sharing n2 = order last-axis nodes, node r * order + i2 is row node r
    (the node with i2 = 0) shifted i2 steps.  A and B are block circulant:
    A[(r, i2), (r', j2)] = R[r, r', (j2 - i2) mod order] for the block row R
    of the m = p / order row nodes, so only R is assembled (Green rows,
    curvature and potential weights at the row nodes, the chart stiffness
    blocks) and its real FFT along the last axis gives the Hermitian blocks
    (the conjugates of the blocks of the plane waves e^{2 pi i q j2 / order},
    with the same eigenvalues); the q = 0 block is real.  The stiffness
    enters in real space because it is the real part of T^H W T with complex
    components T (the chart Nyquist mode is kept), and the Fourier blocks of
    T^H W T are not those of its real part.  With order 1 every node is a
    row node and the one block is the dense real pencil, with no FFT.
    """
    weights = mesh.all_weights()
    rows = np.arange(0, weights.size, order)
    m = rows.size
    # at order 1 the full Green matrix, from its exactly symmetric
    # upper-triangle fill
    curv, pot, green = _second_variation_parts(shape, mesh, gamma, spec, rows if order > 1 else None)
    a_row = np.zeros((m, m, order)) if green is None else green.reshape(m, m, order)
    b_row = np.zeros((m, m, order))
    offsets = np.cumsum([0] + [c.weights.size // order for c in mesh.charts])
    for chart, lo, hi in zip(mesh.charts, offsets, offsets[1:]):
        grad_row = _chart_stiffness(chart, order).reshape(hi - lo, hi - lo, order)
        a_row[lo:hi, lo:hi] += grad_row
        b_row[lo:hi, lo:hi] += grad_row
    diag = np.arange(m)
    a_row[diag, diag, 0] += pot - curv
    b_row[diag, diag, 0] += weights[rows]
    if order == 1:
        return [a_row[..., 0]], [b_row[..., 0]], rows
    blocks = []
    for row in (a_row, b_row):
        hat = list(np.fft.rfft(row, axis=-1).transpose(2, 0, 1))
        # R[., ., d] and R[., ., -d]^T agree in exact arithmetic: make the
        # real q = 0 block exactly symmetric, since the restriction reads all of it
        hat[0] = 0.5 * (hat[0].real + hat[0].real.T)
        blocks.append(hat)
    return blocks[0], blocks[1], rows


def _stiffness_blocks(chart) -> np.ndarray:
    """The blocks C[d], d = 0 .. n2 - 1, of the chart stiffness Re(T^H W T)
    (see _chart_stiffness), each n1 x n1, with C[d] = C[-d]^T exactly.

    The last chart axis (n2 nodes) is periodic, the weights are constant
    along it and tangent_fn commutes with shifts along it, so the stiffness
    is block circulant along that axis: entry ((i1, i2), (j1, j2)) is
    C[(i2 - j2) mod n2][i1, j1].  tangent_fn is applied to the n1 = m / n2
    basis vectors of one block column only, and the blocks C come from one
    Fourier block per last-axis mode.
    """
    n2 = chart.grid_shape[-1]
    n1 = chart.weights.size // n2
    w = chart.weights.reshape(n1, n2)
    if np.any(w != w[:, :1]):
        raise ValueError("chart weights must be constant along the last chart axis")
    column = np.zeros((n1, n2, n1))
    column[np.arange(n1), 0, np.arange(n1)] = 1.0
    comps = chart.tangent_fn(column.reshape(chart.grid_shape + (n1,)))
    # hat[c, x1, q, i1]: component c of basis vector (i1, 0) at x1, mode q
    hat = np.fft.fft(np.stack([c.reshape(n1, n2, n1) for c in comps]), axis=2)
    blocks = np.einsum("cxqi,x,cxqj->qij", hat.conj(), w[:, 0], hat, optimize=True)
    blocks = np.fft.ifft(blocks, axis=0).real
    # C[d] and C[-d]^T agree in exact arithmetic; their mean makes the filled
    # matrix exactly symmetric (the restriction reads all of it, eigh one triangle)
    return 0.5 * (blocks + np.roll(blocks[::-1], 1, axis=0).transpose(0, 2, 1))


def _chart_stiffness(chart, order: int) -> np.ndarray:
    """Rows i2 = 0, order, 2 order, ... of Re(T^H W T) for the chart's tangent
    components T on the nodal basis: the exact Dirichlet form of the chart
    trigonometric interpolant, Nyquist mode included, exactly symmetric.
    Row (i1, i2) against column (j1, j2) is C[(i2 - j2) mod n2][i1, j1] from
    _stiffness_blocks, in one gather; with order 1 the whole matrix."""
    blocks = _stiffness_blocks(chart)
    n2, n1 = blocks.shape[:2]
    shift = (np.arange(0, n2, order)[:, None] - np.arange(n2)) % n2
    i1 = np.arange(n1)
    out = blocks[shift[None, :, None, :], i1[:, None, None, None], i1[None, None, :, None]]
    return out.reshape(n1 * n2 // order, n1 * n2)


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


def _green_matrix(mesh: InterfaceMesh, spec: GridSpec, ws, rows=None) -> np.ndarray:
    """G_ij = int int G b_i b_j over the splatted nodal surface measures.

    Splat, solve (both tent kernels divided out) and pairing are circular
    convolutions with kern = real_space_kernel(ws, -4).  Corner a of node i
    minus corner b of node j is (base_i - base_j) + s with s = a - b in
    {-1, 0, 1}^dim, and the tent weights summed over the corner pairs of one
    s factor per axis into T(+1) = f_i (1 - f_j), T(-1) = (1 - f_i) f_j and
    T(0) = (1 - f_i)(1 - f_j) + f_i f_j, so

        G_ij = cells W_i W_j sum_s kern[base_i - base_j + s] prod_a T_a(s_a)

    with W the node weights and f the tent fractions: 3^dim gathers from the
    kernel padded by one wrapped cell, summed axis by axis (_shift_sum).
    Each row block of about _GREEN_BLOCK entries is computed from its first
    row's diagonal on and mirrored into the lower triangle, so the matrix is
    exactly symmetric.  With rows (node indices) given, only G[rows, :] is
    computed, in row blocks against every column.
    """
    base, frac = _splat_geometry(mesh, spec)
    p, dim = base.shape
    padded = np.pad(real_space_kernel(ws, -4), 1, mode="wrap").ravel()
    strides = [int(np.prod([n + 2 for n in spec.sizes[a + 1 :]])) for a in range(dim)]
    weights = mesh.all_weights()
    # per node: corner, f, and for T(0) = (1 + g_i g_j) / 2 with g = 1 - 2 f
    # the factors 1/2 - f and g, then 1 - f and the row and column weights
    nodes = (base, frac, 0.5 - frac, 1.0 - 2.0 * frac, 1.0 - frac, spec.cells * weights, weights)
    args = (padded, strides, spec.sizes, nodes)
    if rows is not None:
        h = max(1, _GREEN_BLOCK // p)
        blocks = [_green_entries(*args, rows[i : i + h], slice(None)) for i in range(0, len(rows), h)]
        return np.concatenate(blocks)
    out = np.empty((p, p))
    r0 = 0
    while r0 < p:
        m = p - r0
        h = min(m, max(1, _GREEN_BLOCK // m))
        r1 = r0 + h
        acc = _green_entries(*args, slice(r0, r1), slice(r0, None))
        square = acc[:, :h]
        out[r0:r1, r0:r1] = np.triu(square) + np.triu(square, 1).T
        out[r0:r1, r1:] = acc[:, h:]
        out[r1:, r0:r1] = acc[:, h:].T
        r0 = r1
    return out


def _green_entries(padded, strides, sizes, nodes, r, c) -> np.ndarray:
    """G[r, c] for the row nodes r against the column nodes c (slices or
    index arrays), from the per-node tables of _green_matrix."""
    base, frac, half_g, g, co, row_w, weights = nodes
    flat = 0
    tents = []
    for a, n in enumerate(sizes):
        flat = flat + (base[r, a, None] - base[None, c, a]) % n * strides[a]
        zero = half_g[r, a, None] * g[None, c, a]
        zero += 0.5
        minus = co[r, a, None] * frac[None, c, a]
        plus = frac[r, a, None] * co[None, c, a]
        tents.append((minus, zero, plus))
    # sum(strides) is the flat offset of the unpadded origin
    acc = _shift_sum(padded, flat, tents, strides, sum(strides))
    acc *= row_w[r, None]
    acc *= weights[c]
    return acc


def _shift_sum(padded, flat, tents, strides, offset) -> np.ndarray:
    """sum over s in {-1, 0, 1}^len(tents) of padded[flat + offset + s . strides]
    times prod_a tents[a][s_a + 1], one axis per level: each level scales a
    partial sum by its axis factor once.  A module-level function, not a
    closure, so every level's buffers are freed as soon as it returns."""
    if not tents:
        return np.take(padded[offset:], flat)
    total = None
    for s, tent in zip((-1, 0, 1), tents[0]):
        part = _shift_sum(padded, flat, tents[1:], strides[1:], offset + s * strides[0])
        part *= tent
        total = part if total is None else np.add(total, part, out=total)
    return total
