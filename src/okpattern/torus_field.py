"""Periodic grids, scalar fields, and analytic candidate shapes on the unit torus.

Everything in the package lives on the flat torus [0,1)^dim sampled on a
uniform grid.  Samples sit at cell centers (j + 1/2)/n, so that an axis-aligned
slab occupying half the volume rasterizes to a field of mean exactly zero and
the map x -> kx sends fine-grid centers onto coarse-grid centers (the fact that
makes the 1/k tiling laws exact, see :mod:`okpattern.spectral`).

Fields are plain float64 arrays, C-order with the last axis fastest, wrapped
with their grid and a kind tag (generic / indicator / phase).  Arrays are
frozen after construction; all operations return new fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Union

import numpy as np

# Default cap on the total number of samples a GridSpec may address.
DEFAULT_CELL_BUDGET = 1 << 26

# Allowed overshoot for phase fields beyond [-1, 1].
PHASE_OVERSHOOT = 0.1

FIELD_KINDS = ("generic", "indicator", "phase")


class FieldFormatError(ValueError):
    """Raised for malformed field files (bad magic, truncation, bad header)."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic sampling of the unit torus [0,1)^dim.

    sizes[i] is the sample count along axis i; spacing is 1/sizes[i].  All
    sizes must be even and at least 4 (even counts keep the Nyquist mode
    handling in the spectral module unambiguous).
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not 1 <= len(sizes) <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {len(sizes)}")
        for n in sizes:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"grid sizes must be even and >= 4, got {sizes}")
        if int(np.prod(sizes)) > DEFAULT_CELL_BUDGET:
            raise ValueError(
                f"grid with {int(np.prod(sizes))} cells exceeds the "
                f"{DEFAULT_CELL_BUDGET}-cell memory budget"
            )

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def cells(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def max_spacing(self) -> float:
        return 1.0 / min(self.sizes)

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.cells

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis: (j + 1/2)/n."""
        n = self.sizes[axis]
        return (np.arange(n) + 0.5) / n

    def center_mesh(self) -> list[np.ndarray]:
        """Broadcastable center coordinate arrays, one per axis."""
        out = []
        for a in range(self.dim):
            shape = [1] * self.dim
            shape[a] = self.sizes[a]
            out.append(self.centers(a).reshape(shape))
        return out

    def coarsen(self, k: int) -> "GridSpec":
        """The grid with every size divided by k (k >= 1 must divide all sizes)."""
        if k < 1:
            raise ValueError(f"k={k} must be >= 1")
        for n in self.sizes:
            if n % k != 0:
                raise ValueError(f"k={k} does not divide grid size {n}")
        return GridSpec(tuple(n // k for n in self.sizes))


@dataclass(frozen=True)
class ScalarField:
    """Double-precision samples on a GridSpec, tagged generic/indicator/phase.

    The values are frozen: a read-only array that owns its memory is taken
    as it is, any other (writeable, or a view whose base may be written) is
    copied first."""

    spec: GridSpec
    values: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != self.spec.sizes:
            raise ValueError(
                f"value shape {vals.shape} does not match grid {self.spec.sizes}"
            )
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "indicator":
            if not np.all(np.abs(vals) == 1.0):
                raise ValueError("indicator fields must take values in {-1,+1}")
        elif self.kind == "phase":
            lim = 1.0 + PHASE_OVERSHOOT
            # written so that NaN fails it
            if not (vals.min() >= -lim and vals.max() <= lim):
                raise ValueError(
                    f"phase field values escape [-{lim},{lim}]: "
                    f"[{vals.min()}, {vals.max()}]"
                )
        if vals.flags.writeable or not vals.flags.owndata:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def mean(self) -> float:
        # np.mean's own sum and division, without its dispatch
        return float(np.add.reduce(self.values, axis=None) / self.values.size)

    def with_values(self, values: np.ndarray, kind: str | None = None) -> "ScalarField":
        return ScalarField(self.spec, values, kind if kind is not None else self.kind)


# ---------------------------------------------------------------------------
# Candidate shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lamella:
    """Axis-aligned slab |x_axis - center|_per <= halfwidth (volume 2*halfwidth)."""

    axis: int = 0
    center: float = 0.5
    halfwidth: float = 0.25

    def __post_init__(self):
        if self.axis < 0:
            raise ValueError(f"lamella axis must be nonnegative, got {self.axis}")
        if not 0 <= self.center < 1:
            raise ValueError("lamella center must lie in [0,1)")
        if not 0 < self.halfwidth < 0.5:
            raise ValueError("lamella halfwidth must lie in (0, 1/2)")

    def signed_distance(self, coords: list[np.ndarray]) -> np.ndarray:
        t = wrap_half(coords[self.axis] - self.center)
        return self.halfwidth - np.abs(t)


@dataclass(frozen=True)
class Ball:
    """Periodic ball of radius r around a center; 2r < 1 so it never self-overlaps."""

    center: tuple[float, ...] = (0.5, 0.5)
    radius: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(0 <= c < 1 for c in self.center):
            raise ValueError("ball center must lie in [0,1)^dim")
        if not 0 < self.radius < 0.5:
            raise ValueError("ball radius must lie in (0, 1/2)")

    def signed_distance(self, coords: list[np.ndarray]) -> np.ndarray:
        sq = 0.0
        for a, c in enumerate(self.center):
            d = wrap_half(coords[a] - c)
            sq = sq + d * d
        return self.radius - np.sqrt(sq)


@dataclass(frozen=True)
class Cylinder:
    """Solid cylinder along one axis of a 3-torus with circular cross-section."""

    axis: int = 2
    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.axis not in (0, 1, 2):
            raise ValueError(f"cylinder axis must be 0, 1 or 2, got {self.axis}")
        if len(self.center) != 2:
            raise ValueError("cylinder cross-section center must be 2d")
        if not all(0 <= c < 1 for c in self.center):
            raise ValueError("cylinder center must lie in [0,1)^2")
        if not 0 < self.radius < 0.5:
            raise ValueError("cylinder radius must lie in (0, 1/2)")

    def cross_axes(self) -> tuple[int, int]:
        return tuple(a for a in range(3) if a != self.axis)  # type: ignore[return-value]

    def signed_distance(self, coords: list[np.ndarray]) -> np.ndarray:
        (a1, a2) = self.cross_axes()
        d1 = wrap_half(coords[a1] - self.center[0])
        d2 = wrap_half(coords[a2] - self.center[1])
        return self.radius - np.sqrt(d1 * d1 + d2 * d2)


ShapeCandidate = Union[Lamella, Ball, Cylinder]


@dataclass(frozen=True)
class TiledShape:
    """The 1/k-rescaled, 1/k-periodic copy of a candidate: {x : kx in shape}."""

    shape: ShapeCandidate
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tiling factor k must be >= 1")


def wrap_half(t: np.ndarray | float) -> np.ndarray:
    """Wrap displacements into [-1/2, 1/2) (minimum-image convention)."""
    return np.mod(np.asarray(t, dtype=np.float64) + 0.5, 1.0) - 0.5


def _check_shape_dim(shape, dim: int) -> None:
    if isinstance(shape, Lamella):
        if shape.axis >= dim:
            raise ValueError(f"lamella axis {shape.axis} invalid for dim {dim}")
    elif isinstance(shape, Ball):
        if len(shape.center) != dim:
            raise ValueError(f"ball center dim {len(shape.center)} does not match grid dim {dim}")
    elif isinstance(shape, Cylinder):
        if dim != 3:
            raise ValueError("cylinders require a 3d grid")
    else:
        raise TypeError(f"not a shape candidate: {shape!r}")


# ---------------------------------------------------------------------------
# Rasterization and profiles
# ---------------------------------------------------------------------------


def rasterize(shape: ShapeCandidate | TiledShape, spec: GridSpec) -> ScalarField:
    """Sample the +-1 density of a shape at cell centers.

    Boundary-exact centers (signed distance 0) count as inside.  The
    density is constant along the axes a shape does not vary along, so it
    is the raster of reduced_raster broadcast back onto the full grid.
    """
    axes, reduced = reduced_raster(shape, spec)
    full = [n if a in axes else 1 for a, n in enumerate(spec.sizes)]
    values = np.broadcast_to(reduced.values.reshape(full), spec.sizes)
    return ScalarField(spec, np.ascontiguousarray(values), "indicator")


def reduced_raster(shape: ShapeCandidate | TiledShape, spec: GridSpec) -> tuple[tuple[int, ...], ScalarField]:
    """The raster of a shape on the grid of the axes it varies along.

    Returns (axes, field): the axes, ascending, along which the shape's
    broadcast signed distance has length > 1 (a lamella's axis, a
    cylinder's cross-section, every axis of a ball), and the +-1 density
    on the GridSpec of their sizes.  For a TiledShape the parent is
    rasterized on the k-times-coarser grid and periodized, which reproduces
    the exact cell-center samples of the rescaled set because kx maps fine
    centers onto coarse centers.
    """
    if isinstance(shape, TiledShape):
        axes, coarse = reduced_raster(shape.shape, spec.coarsen(shape.k))
        return axes, periodize(coarse, shape.k)
    _check_shape_dim(shape, spec.dim)
    d = shape.signed_distance(spec.center_mesh())
    axes = tuple(a for a, n in enumerate(d.shape) if n > 1)
    sizes = tuple(spec.sizes[a] for a in axes)
    values = np.where(d >= 0.0, 1.0, -1.0).reshape(sizes)
    return axes, ScalarField(GridSpec(sizes), values, "indicator")


def _reduced_field(u: ScalarField, shape: ShapeCandidate) -> tuple[tuple[int, ...], ScalarField]:
    """A field on the grid of the axes it varies along, as reduced_raster
    gives a shape's raster.

    The axes the shape does not vary along (a lamella's tangential axes, a
    cylinder's axis, none of a ball's) are the candidates, and one is
    dropped only if u equals its first slice along it.  u's spectrum then
    lives on xi_a = 0 along a dropped axis a, so the trigonometric
    interpolant of the result at a point's kept coordinates is u's at the
    point.  Returns (kept axes, ascending; u's first slice along the dropped
    ones, on the GridSpec of the kept sizes), or u itself when none drops.
    """
    _check_shape_dim(shape, u.spec.dim)
    # the broadcast shape of the signed distance names the varying axes
    varying = np.shape(shape.signed_distance(GridSpec((4,) * u.spec.dim).center_mesh()))
    vals = u.values
    kept = tuple(
        a
        for a, n in enumerate(varying)
        if n > 1 or not np.all(vals == vals[(slice(None),) * a + (slice(0, 1),)])
    )
    if len(kept) == u.spec.dim:
        return kept, u
    first = vals[tuple(slice(None) if a in kept else 0 for a in range(u.spec.dim))]
    return kept, ScalarField(GridSpec(tuple(u.spec.sizes[a] for a in kept)), first, u.kind)


def tanh_profile(shape: ShapeCandidate, spec: GridSpec, eps: float) -> ScalarField:
    """Diffuse profile tanh(d/eps) of the periodic signed distance to the boundary.

    Positive inside.  Requires eps >= 2*max spacing so the interface is
    resolved on the grid.
    """
    if eps < 2.0 * spec.max_spacing:
        raise ValueError(
            f"eps={eps} below resolvability bound 2/min(n)={2.0 * spec.max_spacing}"
        )
    _check_shape_dim(shape, spec.dim)
    d = shape.signed_distance(spec.center_mesh())
    values = np.tanh(np.broadcast_to(d, spec.sizes) / eps)
    return ScalarField(spec, np.ascontiguousarray(values), "phase")


# ---------------------------------------------------------------------------
# Translation-minimized L1 distance
# ---------------------------------------------------------------------------


def alpha_distance(e: ScalarField, f: ScalarField) -> float:
    """min over grid translations t of |E symmetric-difference (t+F)|, as volume.

    The minimization runs over grid translations only (continuum translations
    would change the answer by at most one cell's worth of volume, which
    vanishes under refinement).  Computed exactly via real-FFT
    cross-correlation of the +-1 indicators.
    """
    if e.spec != f.spec:
        raise ValueError("alpha_distance requires fields on the same grid")
    for g in (e, f):
        if g.kind != "indicator":
            raise ValueError("alpha_distance is defined for indicator fields")
    if np.array_equal(e.values, f.values):
        # the zero translation matches every cell: the cross-correlation's
        # exact 0, without its three FFTs
        return 0.0
    m = e.spec.cells
    axes = range(e.spec.dim)
    spectrum = np.fft.rfftn(e.values, axes=axes) * np.conj(np.fft.rfftn(f.values, axes=axes))
    corr = np.fft.irfftn(spectrum, s=e.spec.sizes, axes=axes)
    # u,v in {-1,+1}: matching count = (M + corr)/2, mismatches = (M - corr)/2
    mismatch = np.rint((m - corr) / 2.0)
    return float(mismatch.min()) * e.spec.cell_volume


# ---------------------------------------------------------------------------
# 1/k tiling
# ---------------------------------------------------------------------------


def tile(u: ScalarField, k: int) -> ScalarField:
    """Sample the 1/k-rescaled set on the same grid: out[i] = in[(k*i) mod n].

    The output is 1/k-periodic by construction.  k must divide every grid size.
    """
    return periodize(subsample(u, k), k)


def subsample(u: ScalarField, k: int) -> ScalarField:
    """Every k-th sample along each axis, on the k-times-coarser grid."""
    coarse = u.spec.coarsen(k)
    sl = tuple(slice(None, None, k) for _ in range(u.spec.dim))
    return ScalarField(coarse, np.ascontiguousarray(u.values[sl]), u.kind)


def periodize(coarse: ScalarField, k: int) -> ScalarField:
    """Repeat a coarse field k times per axis onto the k-times-finer grid.

    out[i] = coarse[i mod m].  This is the exact fine-grid rasterization of
    the 1/k-rescaled set when `coarse` rasterizes the parent, since fine
    centers map onto coarse centers under x -> kx.
    """
    spec = GridSpec(tuple(n * k for n in coarse.spec.sizes))
    values = np.tile(coarse.values, (k,) * coarse.spec.dim)
    return ScalarField(spec, values, coarse.kind)


# ---------------------------------------------------------------------------
# OKF1 field files
# ---------------------------------------------------------------------------

_MAGIC = b"OKF1"
_KIND_CODES = {"generic": 0, "indicator": 1, "phase": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def write_field(u: ScalarField, path) -> None:
    """Write the bit-exact OKF1 encoding: magic, kind, dim, sizes, f64 payload."""
    header = bytearray(_MAGIC)
    header.append(_KIND_CODES[u.kind])
    header.append(u.spec.dim)
    header.extend(b"\x00\x00")
    for n in u.spec.sizes:
        header.extend(int(n).to_bytes(4, "little"))
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(u.values.astype("<f8", copy=False).tobytes(order="C"))


def read_field(path) -> ScalarField:
    """Read an OKF1 file; validates magic, kind byte, sizes, payload length
    and the values the kind allows, raising FieldFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _MAGIC:
        raise FieldFormatError("bad magic")
    kind_code, dim = data[4], data[5]
    if kind_code not in _KIND_NAMES:
        raise FieldFormatError(f"unknown kind byte {kind_code}")
    if data[6:8] != b"\x00\x00":
        raise FieldFormatError("nonzero reserved header bytes")
    if not 1 <= dim <= 3:
        raise FieldFormatError(f"unsupported dim {dim}")
    off = 8
    if len(data) < off + 4 * dim:
        raise FieldFormatError("truncated header")
    sizes = tuple(
        int.from_bytes(data[off + 4 * a : off + 4 * a + 4], "little") for a in range(dim)
    )
    off += 4 * dim
    count = 1
    for n in sizes:
        count *= n
    if count > DEFAULT_CELL_BUDGET:
        raise FieldFormatError(f"size overflow: {count} cells")
    if len(data) != off + 8 * count:
        raise FieldFormatError(
            f"truncated payload: header promises {count} values, "
            f"file holds {(len(data) - off) // 8}"
        )
    values = np.frombuffer(data[off:], dtype="<f8").reshape(sizes)
    try:
        return ScalarField(GridSpec(sizes), values, _KIND_NAMES[kind_code])
    except ValueError as exc:  # grid sizes or values the kind does not allow
        raise FieldFormatError(str(exc)) from exc
