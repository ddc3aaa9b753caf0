"""Command-line surface: config parsing, run directories, CSV reports, pixmaps.

Every subcommand but render is a function from the resolved RunConfig to
(report header, report rows of plain values, {field name: ScalarField},
exit code); _run_dir writes what it returns to the run directory as
fields/<name>.okf, report.csv and meta.txt, and _text alone turns a report
cell or a meta.txt value into text.  meta.txt contains the fully resolved
configuration as a valid config file (comment lines carry versions and the
BLAS thread settings), so re-running with --config meta.txt reproduces the
run byte for byte at a fixed thread count.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure status.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .construct import MAX_PROBE_AMPLITUDE, ConstructConfig, build_periodic, local_minimality_probe
from .diffuse_ok import FlowConfig, gamma_limit_sweep, minimize
from .sharp_energy import scaling_check, sharp_energy
from .spectral import laplacian, poisson_zero_mean
from .stability import lamella_threshold, mode_scan_min_eigenvalue
from .torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    rasterize,
    read_field,
    tanh_profile,
    write_field,
)


class ConfigError(ValueError):
    pass


def _parse_list(cast):
    def parse(raw) -> list:
        items = [cast(x) for x in str(raw).split(",") if x.strip()]
        if not items:
            raise ValueError("empty list")
        return items

    return parse


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


_parse_floats = _parse_list(_finite)
_parse_ints = _parse_list(int)


# schema: section -> key -> (parser, validator, default)
def _positive(path):
    return lambda v: v > 0 or _fail(f"{path} must be positive")


def _nonnegative(path):
    return lambda v: v >= 0 or _fail(f"{path} must be nonnegative")


def _fail(msg):
    raise ConfigError(msg)


SCHEMA = {
    "grid": {
        "sizes": (_parse_ints, None, [64, 64]),
    },
    "shape": {
        "kind": (str, None, "lamella"),
        "axis": (int, None, 0),
        "center": (_parse_floats, None, [0.5]),
        "halfwidth": (_finite, None, 0.25),
        "radius": (_finite, None, 0.25),
    },
    # the sharp gamma (energy, scaling, gamma-limit, construct) and the
    # tiling factors k (scaling, construct)
    "energy": {
        "gamma": (_finite, _nonnegative("energy.gamma"), 1.0),
        "k_list": (_parse_ints, None, [1, 2, 4]),
    },
    "flow": {
        "eps": (_finite, _positive("flow.eps"), 0.06),
        "gamma": (_finite, _nonnegative("flow.gamma"), 0.0),
        "dt": (_finite, _positive("flow.dt"), 5e-3),
        "max_steps": (int, _nonnegative("flow.max_steps"), 500),
        "energy_tolerance": (_finite, _nonnegative("flow.energy_tolerance"), 1e-11),
    },
    "construct": {
        "probes": (int, _nonnegative("construct.probes"), 0),
        "probe_amplitude": (
            int,
            lambda v: 0 <= v <= MAX_PROBE_AMPLITUDE
            or _fail(f"construct.probe_amplitude must be 0 to {MAX_PROBE_AMPLITUDE}"),
            2,
        ),
        "probe_seed": (int, _nonnegative("construct.probe_seed"), 0),
    },
    "stability": {
        "w_list": (_parse_floats, None, [0.2, 0.25, 0.3]),
        "gamma_list": (_parse_floats, None, [0.0, 1.0, 10.0]),
        "q_max": (int, _positive("stability.q_max"), 8),
    },
    "gamma_limit": {
        "eps_list": (_parse_floats, None, [0.08, 0.04, 0.02, 0.01]),
    },
    "render": {
        "axis": (int, None, 2),
        "index": (int, None, 0),
    },
    "run": {
        "out_dir": (str, None, "okrun"),
    },
}


def _text(value) -> str:
    """The text of a report cell or meta.txt value: a float by repr (which
    round-trips), a list or report row joined by commas, anything else by str."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


class RunConfig:
    """Fully resolved configuration; values live in a nested dict."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(
            {s: {k: spec[2] for k, spec in keys.items()} for s, keys in SCHEMA.items()}
        )

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, raw) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown configuration key {section}.{key}")
        parser, validator, _ = SCHEMA[section][key]
        try:
            value = parser(raw)
        except Exception as exc:
            raise ConfigError(f"cannot parse {section}.{key}: {exc}") from exc
        if validator is not None:
            validator(value)
        self.values[section][key] = value

    def update_from_file(self, path) -> None:
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in cp.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown configuration section [{section}]")
            for key, raw in cp[section].items():
                self.set(section, key, raw)

    def serialize(self) -> str:
        out = io.StringIO()
        for section in sorted(self.values):
            out.write(f"[{section}]\n")
            for key in sorted(self.values[section]):
                out.write(f"{key} = {_text(self.values[section][key])}\n")
            out.write("\n")
        return out.getvalue()

    # -- typed views ------------------------------------------------------

    def grid(self) -> GridSpec:
        try:
            return GridSpec(tuple(self.get("grid", "sizes")))
        except ValueError as exc:
            raise ConfigError(f"grid.sizes: {exc}") from exc

    def shape(self):
        kind = self.get("shape", "kind")
        center = self.get("shape", "center")
        try:
            if kind == "lamella":
                if len(center) != 1:
                    raise ValueError(f"a lamella center is one coordinate, got {len(center)}")
                return Lamella(
                    axis=self.get("shape", "axis"),
                    center=center[0],
                    halfwidth=self.get("shape", "halfwidth"),
                )
            if kind == "ball":
                return Ball(tuple(center), self.get("shape", "radius"))
            if kind == "cylinder":
                return Cylinder(
                    axis=self.get("shape", "axis"),
                    center=tuple(center),
                    radius=self.get("shape", "radius"),
                )
        except ValueError as exc:
            raise ConfigError(f"shape: {exc}") from exc
        raise ConfigError(f"shape.kind must be lamella, ball or cylinder, got {kind!r}")

    def flow(self) -> FlowConfig:
        try:
            return FlowConfig(
                eps=self.get("flow", "eps"),
                gamma=self.get("flow", "gamma"),
                dt=self.get("flow", "dt"),
                max_steps=self.get("flow", "max_steps"),
                energy_tolerance=self.get("flow", "energy_tolerance"),
            )
        except ValueError as exc:
            raise ConfigError(f"flow: {exc}") from exc


# ---------------------------------------------------------------------------
# Run-directory subcommands: RunConfig -> (header, rows, fields, exit code)
# Each row is a tuple of plain values, one per header name.
# ---------------------------------------------------------------------------


def _cmd_energy(cfg: RunConfig):
    spec = cfg.grid()
    shape = cfg.shape()
    gamma = cfg.get("energy", "gamma")
    b = sharp_energy(shape, gamma, spec)
    row = (*astuple(b), b.total)
    return "perimeter,nonlocal,gamma,total", [row], {"indicator": rasterize(shape, spec)}, 0


def _cmd_green(cfg: RunConfig):
    spec = cfg.grid()
    u = rasterize(cfg.shape(), spec)
    v = poisson_zero_mean(u)
    target = u.values - u.mean
    resid = float(
        np.linalg.norm(laplacian(v).values + target) / max(np.linalg.norm(target), 1e-300)
    )
    row = (v.mean, resid, float(v.values.min()), float(v.values.max()))
    return "mean_v,laplacian_residual,v_min,v_max", [row], {"u": u, "v": v}, 0


def _cmd_flow(cfg: RunConfig):
    spec = cfg.grid()
    flow = cfg.flow()
    trace = minimize(tanh_profile(cfg.shape(), spec, flow.eps), flow)
    code = 3 if trace.status == "stalled" else 0
    return "step,dt,energy,mass,sup_update", trace.records, {"final": trace.final}, code


def _cmd_construct(cfg: RunConfig):
    spec, seed, flow = cfg.grid(), cfg.shape(), cfg.flow()
    k_list = tuple(cfg.get("energy", "k_list"))
    try:
        ccfg = ConstructConfig(seed, cfg.get("energy", "gamma"), k_list, spec, flow)
    except ValueError as exc:
        raise ConfigError(f"energy: {exc}") from exc
    n_probes = cfg.get("construct", "probes")
    rows, fields, failed = [], {}, False
    for cert, tiled in build_periodic(ccfg):
        rows.append((*astuple(cert)[:-1], cert.energy_rel_err, cert.status))
        if tiled is None:
            failed = True
            continue
        fields[f"tiled_k{cert.k}"] = tiled
        if n_probes > 0:
            rep = local_minimality_probe(
                tiled,
                ccfg.gamma_bar,
                cert.k,
                n_probes,
                cfg.get("construct", "probe_amplitude"),
                seed=cfg.get("construct", "probe_seed"),
            )
            if rep.min_gap < -1e-12:
                print(f"k={cert.k}: probe gate failed: min gap {rep.min_gap:.3e} < -1e-12", file=sys.stderr)
                failed = True
    header = "k,gamma_k,alpha,c0_proxy,residual_sup,grad_h_sup,energy_lhs,energy_rhs,rel_err,status"
    return header, rows, fields, 3 if failed else 0


def _cmd_stability(cfg: RunConfig):
    rows = []
    q_max = cfg.get("stability", "q_max")
    for w in cfg.get("stability", "w_list"):
        gamma_star = lamella_threshold(w, q_max=q_max).gamma_star
        for gamma in cfg.get("stability", "gamma_list"):
            rows.append((w, gamma, mode_scan_min_eigenvalue(w, gamma, q_max), gamma_star))
    return "w,gamma,min_eig,gamma_star", rows, {}, 0


def _cmd_scaling(cfg: RunConfig):
    spec = cfg.grid()
    shape = cfg.shape()
    gamma = cfg.get("energy", "gamma")
    try:
        reports = [scaling_check(shape, gamma, k, spec) for k in cfg.get("energy", "k_list")]
    except ValueError as exc:
        raise ConfigError(f"energy.k_list: {exc}") from exc
    header = (
        "k,perimeter_lhs,nonlocal_lhs,total_lhs,perimeter_rhs,nonlocal_rhs,total_rhs,"
        "perimeter_err,nonlocal_err,total_err"
    )
    rows = [(*astuple(r), r.perimeter_error, r.nonlocal_error, r.total_error) for r in reports]
    return header, rows, {}, 0


def _cmd_gamma_limit(cfg: RunConfig):
    spec = cfg.grid()
    gamma = cfg.get("energy", "gamma")
    try:
        rows = gamma_limit_sweep(cfg.shape(), gamma, cfg.get("gamma_limit", "eps_list"), spec)
    except ValueError as exc:
        raise ConfigError(f"gamma_limit: {exc}") from exc
    rows = [(*astuple(r), r.difference) for r in rows]
    return "eps,ok_energy,sharp_reference,difference", rows, {}, 0


_COMMANDS = {
    "energy": _cmd_energy,
    "green": _cmd_green,
    "flow": _cmd_flow,
    "construct": _cmd_construct,
    "stability": _cmd_stability,
    "scaling": _cmd_scaling,
    "gamma-limit": _cmd_gamma_limit,
}


# the environment settings that move the dense pencil's last bits, recorded
# in meta.txt's comment lines
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _run_dir(cfg: RunConfig, command) -> int:
    """Create the run directory, run the subcommand, write what it returned.

    The files a run writes are removed first, so a failed run never leaves
    an earlier run's report, meta or fields behind as if they were its own."""
    out = Path(cfg.get("run", "out_dir"))
    (out / "fields").mkdir(parents=True, exist_ok=True)
    for owned in [out / "report.csv", out / "meta.txt", *(out / "fields").glob("*.okf")]:
        owned.unlink(missing_ok=True)
    header, rows, fields, code = command(cfg)
    for name, field in fields.items():
        write_field(field, out / "fields" / f"{name}.okf")
    (out / "report.csv").write_text("\n".join([header, *map(_text, rows)]) + "\n")
    meta = [
        "# okpattern resolved configuration (feed back via --config to reproduce)",
        f"# version: okpattern {__version__}, numpy {np.__version__}, python {sys.version.split()[0]}",
        "# blas threads: " + ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in _BLAS_THREAD_VARS),
        "",
        cfg.serialize(),
    ]
    (out / "meta.txt").write_text("\n".join(meta))
    return code


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_heatmap(field: ScalarField, path, axis: int | None = None, index: int | None = None) -> None:
    """Binary P6 grayscale pixmap of a 2d field (or a slice of a 3d one).

    Row 0 is y = 0 (second axis index 0); a constant field maps to mid-gray.
    Deterministic bytes for a given field.
    """
    values = field.values
    if field.spec.dim == 3:
        if axis is None or index is None:
            raise ValueError("3d fields need a slice axis and index")
        if not 0 <= axis < 3:
            raise ValueError(f"bad slice axis {axis}")
        if not 0 <= index < field.spec.sizes[axis]:
            raise ValueError(f"slice index {index} out of range")
        values = np.take(values, index, axis=axis)
    elif field.spec.dim != 2:
        raise ValueError("render expects a 2d field or a 3d slice")
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        gray = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        gray = np.full(values.shape, 128, dtype=np.uint8)
    # image rows run over the second axis (row 0 at y=0), columns over the first
    img = gray.T
    h, w = img.shape
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.tobytes())


def _cmd_render(cfg: RunConfig, args) -> int:
    field = read_field(args.input)
    axis = cfg.get("render", "axis") if field.spec.dim == 3 else None
    index = cfg.get("render", "index") if field.spec.dim == 3 else None
    render_heatmap(field, args.output, axis, index)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: every parse_args fills a fresh namespace from
    # the defaults, so no flag carries over from one run to the next
    parser = argparse.ArgumentParser(
        prog="okpattern",
        description="Sharp and diffuse Ohta-Kawasaki energies on the flat torus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE")
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--grid", default=None, metavar="N1,N2[,N3]")
    common.add_argument("--shape", default=None, choices=("lamella", "ball", "cylinder"))
    common.add_argument("--axis", default=None, type=int)
    common.add_argument("--center", default=None, metavar="C[,C2[,C3]]")
    common.add_argument("--w", default=None, type=float, help="lamella halfwidth")
    common.add_argument("--radius", default=None, type=float)
    common.add_argument("--gamma", default=None, type=float)
    common.add_argument("--k", default=None, metavar="K1,K2,...")
    common.add_argument("--eps", default=None, type=float)
    common.add_argument("--eps-list", default=None, metavar="E1,E2,...")
    common.add_argument("--steps", default=None, type=int, help="flow max steps")
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    p = sub.add_parser("render", parents=[common])
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--slice-axis", type=int, default=None)
    p.add_argument("--slice-index", type=int, default=None)
    return parser


# the subcommands whose --gamma sets a key other than the sharp energy.gamma
_GAMMA_TARGET = {
    "flow": ("flow", "gamma"),
    "stability": ("stability", "gamma_list"),
}

# the config keys each subcommand reads: whole sections, or section.key
_READS = {
    "energy": ("grid", "shape", "energy.gamma", "run"),
    "green": ("grid", "shape", "run"),
    "flow": ("grid", "shape", "flow", "run"),
    "construct": ("grid", "shape", "energy", "flow", "construct", "run"),
    "stability": ("stability", "run"),
    "scaling": ("grid", "shape", "energy", "run"),
    "gamma-limit": ("grid", "shape", "energy.gamma", "gamma_limit", "run"),
    "render": ("render",),
}

# flag (argparse dest) -> the config keys it sets, in the order they are set;
# --gamma sets the one key _GAMMA_TARGET names for the subcommand, else
# energy.gamma.  A flag none of whose keys the subcommand reads (_READS) is
# an error, e.g. --gamma for green and render
_FLAG_KEYS = {
    "grid": [("grid", "sizes")],
    "shape": [("shape", "kind")],
    "axis": [("shape", "axis")],
    "center": [("shape", "center")],
    "w": [("shape", "halfwidth"), ("stability", "w_list")],
    "radius": [("shape", "radius")],
    "gamma": None,
    "k": [("energy", "k_list")],
    "eps": [("flow", "eps")],
    "eps_list": [("gamma_limit", "eps_list")],
    "steps": [("flow", "max_steps")],
    "out": [("run", "out_dir")],
    "slice_axis": [("render", "axis")],
    "slice_index": [("render", "index")],
}


def _apply_cli_overrides(cfg: RunConfig, args) -> None:
    reads = _READS[args.command]
    for flag, keys in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        keys = keys or [_GAMMA_TARGET.get(args.command, ("energy", "gamma"))]
        if not any(section in reads or f"{section}.{key}" in reads for section, key in keys):
            raise ConfigError(f"--{flag.replace('_', '-')} does not apply to {args.command}")
        for section, key in keys:
            cfg.set(section, key, value)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    cfg = RunConfig.defaults()
    try:
        if args.config:
            cfg.update_from_file(args.config)
        _apply_cli_overrides(cfg, args)
        if args.command == "render":
            return _cmd_render(cfg, args)
        return _run_dir(cfg, _COMMANDS[args.command])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
