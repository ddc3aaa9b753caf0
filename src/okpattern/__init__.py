"""Sharp-interface and diffuse Ohta-Kawasaki energies on the flat torus.

Modules
-------
torus_field   grids, fields, candidate shapes, tiling, field files
spectral      zero-mean Poisson solves, Parseval energies, off-grid sampling
sharp_energy  perimeter, P + gamma NL, exact 1/k rescaling identities
diffuse_ok    the eps-diffuse energy and its mass-conserving gradient flow
geometry      interface meshes, curvature, criticality residuals
stability     second-variation forms, mode analysis, thresholds, pencils
construct     seed-to-periodic-pattern pipeline with certificates and probes
cli           subcommands, reproducible run directories, pixmap rendering
"""

__version__ = "0.1.0"

from .construct import (
    ConstructCertificate,
    ConstructConfig,
    build_periodic,
    continue_family,
    local_minimality_probe,
)
from .diffuse_ok import (
    MODICA_MORTOLA_SIGMA,
    FlowConfig,
    FlowTrace,
    flow_step,
    gamma_limit_sweep,
    minimize,
    ok_energy,
    sharp_to_diffuse_gamma,
)
from .geometry import (
    CriticalityReport,
    InterfaceMesh,
    el_residual,
    interface_mesh,
)
from .sharp_energy import (
    EnergyBreakdown,
    ScalingReport,
    perimeter,
    scaling_check,
    sharp_energy,
)
from .spectral import (
    SpectralWorkspace,
    get_workspace,
    gradient,
    laplacian,
    nonlocal_energy,
    poisson_zero_mean,
    sample_field,
    sample_potential,
)
from .stability import (
    ModeMatrix,
    QuadFormReport,
    SurfaceFunction,
    lamella_mode_matrix,
    lamella_threshold,
    min_eigenvalue,
    quad_form,
    translation_mode,
)
from .torus_field import (
    Ball,
    Cylinder,
    FieldFormatError,
    GridSpec,
    Lamella,
    ScalarField,
    ShapeCandidate,
    TiledShape,
    alpha_distance,
    periodize,
    rasterize,
    read_field,
    subsample,
    tanh_profile,
    tile,
    write_field,
)

__all__ = [
    "__version__",
    "Ball",
    "ConstructCertificate",
    "ConstructConfig",
    "CriticalityReport",
    "Cylinder",
    "EnergyBreakdown",
    "FieldFormatError",
    "FlowConfig",
    "FlowTrace",
    "GridSpec",
    "InterfaceMesh",
    "Lamella",
    "MODICA_MORTOLA_SIGMA",
    "ModeMatrix",
    "QuadFormReport",
    "ScalarField",
    "ScalingReport",
    "ShapeCandidate",
    "SpectralWorkspace",
    "SurfaceFunction",
    "TiledShape",
    "alpha_distance",
    "build_periodic",
    "continue_family",
    "el_residual",
    "flow_step",
    "gamma_limit_sweep",
    "get_workspace",
    "gradient",
    "interface_mesh",
    "lamella_mode_matrix",
    "lamella_threshold",
    "laplacian",
    "local_minimality_probe",
    "min_eigenvalue",
    "minimize",
    "nonlocal_energy",
    "ok_energy",
    "perimeter",
    "periodize",
    "poisson_zero_mean",
    "quad_form",
    "rasterize",
    "read_field",
    "sample_field",
    "sample_potential",
    "scaling_check",
    "sharp_energy",
    "sharp_to_diffuse_gamma",
    "subsample",
    "tanh_profile",
    "tile",
    "translation_mode",
    "write_field",
]
