"""In-memory span recorder and FFT counter for the traced benchmark run.

A span is (name, start, end, parent) for one call of a library function.  The
recorder wraps each target function at every binding a caller can look it up
through (``okpattern.construct.sample_field``, ``okpattern.geometry.
sample_potential``, ``okpattern.sample_field``, ...), so calls are seen no
matter which module makes them.  ``numpy.fft.{fftn,ifftn,fft,ifft}`` are
wrapped as counters, not spans: each transform adds one call and its time to
the innermost open span.  A recursive call of a function that already has an
open span runs unwrapped, so a span name never nests in itself.

Spans stay in memory; the benchmark turns them into per-layer metrics when
the run ends.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

_FFT_NAMES = ("fftn", "ifftn", "fft", "ifft")


def _points(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return int(np.atleast_2d(np.asarray(pts)).shape[0])


def _rejections(args, kwargs, result):
    return result.rejections


def _probes(args, kwargs, result):
    return (len(result.gaps), result.n_probes)


def _mesh_nodes(args, kwargs, result):
    return int(result.all_weights().size)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _workspace(args, kwargs, result):
    return result


# (defining module, function name) -> hook that extracts a count from the call
TARGETS = {
    ("okpattern.cli", "run"): None,
    ("okpattern.construct", "build_periodic"): None,
    ("okpattern.construct", "continue_family"): None,
    ("okpattern.construct", "zero_level_displacement"): None,
    ("okpattern.construct", "local_minimality_probe"): _probes,
    ("okpattern.diffuse_ok", "minimize"): _rejections,
    ("okpattern.diffuse_ok", "flow_step"): None,
    ("okpattern.geometry", "el_residual"): None,
    ("okpattern.geometry", "interface_mesh"): _mesh_nodes,
    ("okpattern.stability", "min_eigenvalue"): None,
    ("okpattern.stability", "_green_matrix"): None,
    ("okpattern.stability", "lamella_threshold"): None,
    ("okpattern.spectral", "sample_field"): _points,
    ("okpattern.spectral", "sample_potential"): _points,
    ("okpattern.spectral", "sample_potential_on_planes"): None,
    ("okpattern.spectral", "nonlocal_energy"): None,
    ("okpattern.spectral", "get_workspace"): _workspace,
    ("okpattern.sharp_energy", "total_variation_perimeter"): None,
    ("okpattern.torus_field", "alpha_distance"): None,
    ("okpattern.torus_field", "write_field"): _file_bytes,
}


class Span:
    """One call; ``parent`` indexes the task's span list, ``n`` holds what
    the target's hook extracted from the call (a count, or the workspace)."""

    __slots__ = ("name", "start", "end", "parent", "fft_calls", "fft_s", "n")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.fft_calls = 0
        self.fft_s = 0.0
        self.n = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one task at a time; ``tasks`` holds the finished ones."""

    def __init__(self):
        self.tasks: list[list[Span]] = []
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self._spans))
        self._spans.append(sp)
        self._open.add(name)
        return sp

    def _exit(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        self._open.discard(sp.name)

    @contextmanager
    def span(self, name: str):
        sp = self._enter(name)
        try:
            yield sp
        finally:
            self._exit(sp)

    @contextmanager
    def task(self, name: str = "task"):
        """Root span of one task; its spans go to ``tasks`` when it closes."""
        self._spans, self._stack, self._open = [], [], set()
        try:
            with self.span(name):
                yield
        finally:
            self.tasks.append(self._spans)

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in rec._open:
                return fn(*args, **kwargs)
            sp = rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(sp)
            if hook is not None:
                sp.n = hook(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fft(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            if rec._stack:
                sp = rec._spans[rec._stack[-1]]
                sp.fft_calls += 1
                sp.fft_s += dt
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded okpattern modules."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "okpattern" or modname.startswith("okpattern.")):
                continue
            for attr, value in list(vars(module).items()):
                key = (getattr(value, "__module__", None), getattr(value, "__name__", None))
                if not callable(value) or key not in TARGETS:
                    continue
                if key not in wrappers:
                    name = f"{key[0].rsplit('.', 1)[-1]}.{key[1]}"
                    wrappers[key] = self._wrap(name, value, TARGETS[key])
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[key])
        # a target of a loaded module that was not found has been renamed
        missing = {key for key in TARGETS if key[0] in sys.modules} - set(wrappers)
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace targets not found: {sorted(missing)}")
        for attr in _FFT_NAMES:
            fn = getattr(np.fft, attr)
            self._patched.append((np.fft, attr, fn))
            setattr(np.fft, attr, self._wrap_fft(fn))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
LAYER_UNITS = {
    "spectral.sample_field_s": "s/task",
    "spectral.sample_field_points": "count/task",
    "spectral.sample_potential_s": "s/task",
    "spectral.sample_potential_points": "count/task",
    "spectral.sample_planes_s": "s/task",
    "spectral.nonlocal_energy_calls": "count/task",
    "spectral.nonlocal_energy_s": "s/task",
    "spectral.fft_calls": "count/task",
    "spectral.fft_s": "s/task",
    "spectral.workspace_mb": "MB",
    "diffuse_ok.minimize_s": "s/task",
    "diffuse_ok.flow_step_p50_ms": "ms",
    "diffuse_ok.flow_step_p99_ms": "ms",
    "diffuse_ok.steps_accepted": "count/task",
    "diffuse_ok.rejections": "count/task",
    "diffuse_ok.accept_ratio": "ratio",
    "diffuse_ok.fft_per_step": "count",
    "construct.build_periodic_s": "s/task",
    "construct.continue_family_s": "s/task",
    "construct.c0_proxy_s": "s/task",
    "construct.probe_s": "s/task",
    "construct.probes_evaluated": "count/task",
    "construct.probe_yield": "ratio",
    "geometry.el_residual_s": "s/task",
    "geometry.interface_mesh_s": "s/task",
    "stability.min_eigenvalue_s": "s/task",
    "stability.min_eigenvalue_self_s": "s/task",
    "stability.green_matrix_s": "s/task",
    "stability.fft_calls": "count/task",
    "stability.pencil_nodes": "count/task",
    "stability.lamella_threshold_s": "s/task",
    "sharp_energy.tv_perimeter_s": "s/task",
    "torus_field.alpha_distance_s": "s/task",
    "torus_field.write_field_s": "s/task",
    "torus_field.bytes_written": "bytes/task",
    "cli.run_s": "s/task",
    "trace.overhead_frac": "ratio",
}


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, covered)]


def _workspace_bytes(ws) -> int:
    total = 0
    for value in vars(ws).values():
        for arr in value if isinstance(value, list) else [value]:
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_time_table(tasks: list[list[Span]]) -> list[dict]:
    """Per span name: calls, inclusive and self seconds, FFTs; per task means."""
    rows: dict[str, dict] = {}
    for task in tasks:
        for sp, s in zip(task, self_times(task)):
            row = rows.setdefault(sp.name, {"name": sp.name, "calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                            "fft_calls": 0, "fft_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += sp.duration
            row["self_s"] += s
            row["fft_calls"] += sp.fft_calls
            row["fft_s"] += sp.fft_s
    out = [{k: (v if k == "name" else v / len(tasks)) for k, v in row.items()} for row in rows.values()]
    return sorted(out, key=lambda r: -r["self_s"])


def layer_metrics(tasks: list[list[Span]], traced_p50: float, untraced_p50: float) -> dict:
    """Every per-layer metric over the traced tasks (per-task means unless
    the unit says otherwise)."""
    n_tasks = len(tasks)
    rows = {r["name"]: r for r in self_time_table(tasks)}
    spans = [sp for task in tasks for sp in task]

    def row(name, key) -> float:
        return rows[name][key] if name in rows else 0.0

    def hooked(name) -> list:
        return [sp.n for sp in spans if sp.name == name]

    flow_ms = [1e3 * sp.duration for sp in spans if sp.name == "diffuse_ok.flow_step"]
    steps = row("diffuse_ok.flow_step", "calls")
    rejections = sum(hooked("diffuse_ok.minimize")) / n_tasks
    probes = hooked("construct.local_minimality_probe")
    evaluated = sum(n for n, _ in probes)
    requested = sum(n for _, n in probes)
    workspaces = {id(ws): ws for ws in hooked("spectral.get_workspace")}
    # a pencil's p is the node count of the mesh that min_eigenvalue builds
    pencil_nodes = sum(
        sp.n
        for task in tasks
        for sp in task
        if sp.name == "geometry.interface_mesh"
        and sp.parent is not None
        and task[sp.parent].name == "stability.min_eigenvalue"
    )
    metrics = {
        "spectral.sample_field_s": row("spectral.sample_field", "incl_s"),
        "spectral.sample_field_points": sum(hooked("spectral.sample_field")) / n_tasks,
        "spectral.sample_potential_s": row("spectral.sample_potential", "incl_s"),
        "spectral.sample_potential_points": sum(hooked("spectral.sample_potential")) / n_tasks,
        "spectral.sample_planes_s": row("spectral.sample_potential_on_planes", "incl_s"),
        "spectral.nonlocal_energy_calls": row("spectral.nonlocal_energy", "calls"),
        "spectral.nonlocal_energy_s": row("spectral.nonlocal_energy", "incl_s"),
        "spectral.fft_calls": sum(r["fft_calls"] for r in rows.values()),
        "spectral.fft_s": sum(r["fft_s"] for r in rows.values()),
        "spectral.workspace_mb": sum(_workspace_bytes(ws) for ws in workspaces.values()) / 2**20,
        "diffuse_ok.minimize_s": row("diffuse_ok.minimize", "incl_s"),
        "diffuse_ok.flow_step_p50_ms": float(np.percentile(flow_ms, 50)) if flow_ms else 0.0,
        "diffuse_ok.flow_step_p99_ms": float(np.percentile(flow_ms, 99)) if flow_ms else 0.0,
        "diffuse_ok.steps_accepted": steps,
        "diffuse_ok.rejections": rejections,
        "diffuse_ok.accept_ratio": _ratio(steps, steps + rejections),
        "diffuse_ok.fft_per_step": _ratio(row("diffuse_ok.flow_step", "fft_calls"), steps),
        "construct.build_periodic_s": row("construct.build_periodic", "incl_s"),
        "construct.continue_family_s": row("construct.continue_family", "incl_s"),
        "construct.c0_proxy_s": row("construct.zero_level_displacement", "incl_s"),
        "construct.probe_s": row("construct.local_minimality_probe", "incl_s"),
        "construct.probes_evaluated": evaluated / n_tasks,
        "construct.probe_yield": _ratio(evaluated, requested),
        "geometry.el_residual_s": row("geometry.el_residual", "incl_s"),
        "geometry.interface_mesh_s": row("geometry.interface_mesh", "incl_s"),
        "stability.min_eigenvalue_s": row("stability.min_eigenvalue", "incl_s"),
        "stability.min_eigenvalue_self_s": row("stability.min_eigenvalue", "self_s"),
        "stability.green_matrix_s": row("stability._green_matrix", "incl_s"),
        "stability.fft_calls": sum(r["fft_calls"] for name, r in rows.items() if name.startswith("stability.")),
        "stability.pencil_nodes": pencil_nodes / n_tasks,
        "stability.lamella_threshold_s": row("stability.lamella_threshold", "incl_s"),
        "sharp_energy.tv_perimeter_s": row("sharp_energy.total_variation_perimeter", "incl_s"),
        "torus_field.alpha_distance_s": row("torus_field.alpha_distance", "incl_s"),
        "torus_field.write_field_s": row("torus_field.write_field", "incl_s"),
        "torus_field.bytes_written": sum(hooked("torus_field.write_field")) / n_tasks,
        "cli.run_s": row("cli.run", "incl_s"),
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0,
    }
    assert list(metrics) == list(LAYER_UNITS)
    return metrics


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
