"""The benchmark workloads: inputs from a seed, one task, its output check.

Each workload imports okpattern in ``setup`` so that a fresh process pays the
import there, the cost ``setup_s`` measures.  ``task`` is what the timed loop
repeats; ``check`` returns the list of problems with one task's output (empty
when it is correct); ``tamper`` damages an output the way the self-test needs
it to be caught.  Why each workload exists, and what it loads and bypasses,
is written up in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import copy
import csv
import math
import shutil
from contextlib import nullcontext
from pathlib import Path

import numpy as np


def _no_span(name):
    return nullcontext()


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cleanup(self, output) -> None:
        pass


class Construct64(Workload):
    """``okpattern construct`` through ``cli.run``: lamella w=0.25 on 64^2,
    gamma_bar=1, k=1,2,4, default flow, 500 probes per k at amplitude 2."""

    name = "construct-64"
    K_LIST = (1, 2, 4)
    runs = 0

    def setup(self) -> None:
        import okpattern
        import okpattern.cli

        self.ok = okpattern
        self.config = self.workdir / "construct.ini"
        self.config.write_text(
            "[construct]\nprobes = 500\nprobe_amplitude = 2\n"
            f"probe_seed = {self.seed}\n"
        )
        okpattern.get_workspace(okpattern.GridSpec((64, 64)))

    def task(self, span=_no_span):
        self.runs += 1
        out = self.workdir / f"run{self.runs}"
        argv = [
            "construct", "--config", str(self.config), "--grid", "64,64",
            "--shape", "lamella", "--w", "0.25", "--gamma", "1",
            "--k", ",".join(str(k) for k in self.K_LIST), "--out", str(out),
        ]
        return {"rc": self.ok.cli.run(argv), "out": out}

    def check(self, output) -> list[str]:
        problems = []
        if output["rc"] != 0:
            # exit 3 also covers a probe gap below -1e-12
            problems.append(f"exit code {output['rc']}")
        out = output["out"]
        try:
            with open(out / "report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return problems + [f"report.csv unreadable: {exc}"]
        if [int(r["k"]) for r in rows] != list(self.K_LIST):
            problems.append(f"report rows for k={[r['k'] for r in rows]}")
        c0 = []
        for r in rows:
            if r["status"] != "ok":
                problems.append(f"k={r['k']} status {r['status']}")
            if not float(r["rel_err"]) <= 1e-3:
                problems.append(f"k={r['k']} rel_err {r['rel_err']}")
            c0.append(float(r["c0_proxy"]))
        if any(not b <= a for a, b in zip(c0, c0[1:])):
            problems.append(f"c0 proxy increases with k: {c0}")
        for k in self.K_LIST:
            try:
                field = self.ok.read_field(out / "fields" / f"tiled_k{k}.okf")
            except (OSError, ValueError) as exc:
                problems.append(f"tiled_k{k}.okf: {exc}")
                continue
            if field.spec.sizes != (64, 64) or field.kind != "indicator":
                problems.append(f"tiled_k{k}.okf holds {field.kind} {field.spec.sizes}")
        return problems

    def tamper(self, output):
        return dict(output, rc=3)

    def cleanup(self, output) -> None:
        shutil.rmtree(output["out"], ignore_errors=True)


class Coarsen256(Workload):
    """``minimize`` from seeded noise at 256^2, a fixed 300 steps."""

    name = "coarsen-256"
    STEPS = 300

    def setup(self) -> None:
        import okpattern

        self.ok = okpattern
        spec = okpattern.GridSpec((256, 256))
        rng = np.random.default_rng(self.seed)
        noise = np.clip(-0.2 + 0.3 * rng.standard_normal(spec.sizes), -1.0, 1.0)
        self.u0 = okpattern.ScalarField(spec, noise, "phase")
        self.flow = okpattern.FlowConfig(
            eps=0.02, gamma=2000.0, dt=2e-2, max_steps=self.STEPS, energy_tolerance=0.0
        )
        ws = okpattern.get_workspace(spec)
        self.e0 = okpattern.ok_energy(self.u0, self.flow.eps, self.flow.gamma, ws)

    def task(self, span=_no_span):
        return self.ok.minimize(self.u0, self.flow)

    def check(self, trace) -> list[str]:
        problems = []
        if trace.status != "max_steps" or len(trace.records) != self.STEPS:
            problems.append(f"status {trace.status} after {len(trace.records)} steps")
        m0 = self.u0.mean
        masses = np.append(trace.masses(), trace.final.mean)
        drift = float(np.max(np.abs(masses - m0)))
        if not drift <= 1e-12:
            problems.append(f"mass drift {drift:.3e}")
        energies = np.concatenate([[self.e0], trace.energies()])
        if not np.all(np.diff(energies) <= 0.0):
            problems.append("energy increased")
        return problems

    def tamper(self, trace):
        bad = copy.copy(trace)
        bad.final = trace.final.with_values(trace.final.values + 1e-9)
        return bad


class Pencil3d(Workload):
    """``min_eigenvalue`` on 32^3 at resolution 16, two pencils per task.

    Every task runs the cylinder pencil and one lamella pencil; the lamella's
    gamma alternates between 0.9 and 1.2 gamma* from task to task, so every
    run that completes two tasks has checked all three pencils.  Inputs are
    fixed and cell-edge aligned, whatever the seed.  The cylinder stands in
    for the ball the benchmark was first specified with: the ball pencil
    reads negative at gamma=0.1 (see WORKLOADS.md).
    """

    name = "pencil-3d"
    HALFWIDTH = 0.25
    # (label, factor of gamma*, expected sign) of the lamella pencils, in turn
    LAMELLAE = (("lamella@0.9g*", 0.9, 1), ("lamella@1.2g*", 1.2, -1))
    runs = 0

    def setup(self) -> None:
        import okpattern

        self.ok = okpattern
        self.spec = okpattern.GridSpec((32, 32, 32))
        self.lamella = okpattern.Lamella(axis=0, center=0.5, halfwidth=self.HALFWIDTH)
        self.cylinder = okpattern.Cylinder(axis=2, center=(0.5, 0.5), radius=0.25)
        self.ball = okpattern.Ball((0.5, 0.5, 0.5), 0.25)
        okpattern.get_workspace(self.spec)

    def task(self, span=_no_span):
        """[(label, expected sign, min eig)] of the task's two pencils."""
        ok = self.ok
        lamella_label, factor, lamella_sign = self.LAMELLAE[self.runs % 2]
        self.runs += 1
        g_star = ok.lamella_threshold(self.HALFWIDTH, tangential_dim=2).gamma_star
        pencils = (
            (lamella_label, lamella_sign, self.lamella, factor * g_star),
            ("cylinder@0.1", 1, self.cylinder, 0.1),
        )
        out = []
        for label, sign, shape, gamma in pencils:
            with span(f"bench.pencil:{label}"):
                out.append((label, sign, ok.min_eigenvalue(shape, gamma, self.spec, resolution=16)))
        return out

    def check(self, values) -> list[str]:
        problems = []
        for label, sign, v in values:
            if not math.isfinite(v):
                problems.append(f"{label}: {v}")
            elif (v > 0) != (sign > 0) or v == 0:
                problems.append(f"{label}: min eig {v:.4g}, expected sign {'+' if sign > 0 else '-'}")
        return problems

    def tamper(self, values):
        (label, sign, v), *rest = values
        return [(label, sign, -v)] + rest

    def ball_finding(self) -> float:
        """The ball pencil left out of the task: r=0.25, centre on a cell
        edge, gamma=0.1.  The continuum form is positive there."""
        return self.ok.min_eigenvalue(self.ball, 0.1, self.spec, resolution=16)


WORKLOADS = {w.name: w for w in (Construct64, Coarsen256, Pencil3d)}
# coarsen-256 runs by hand only: BENCHMARK.json lists the other two, so that
# each of them can measure longer within the time a full benchmark pass has

