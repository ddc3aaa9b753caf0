"""okpattern benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 okbench/run.py --workload construct-64 --seed 1 --seconds 36 --trace 0
    python3 okbench/run.py --selftest

The library is imported from ``src/`` of the checkout the script sits in; the
run refuses to start (exit 2) when that tree is missing.  Every run pins BLAS
and OpenMP to one thread and runs its tasks one after another, so a workload
never uses more than one core for its tasks.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh processes that import okpattern, build the workload's inputs and
fetch its spectral workspaces; the other metrics come from the timed loop,
which follows one untimed warm-up task, repeats the workload's task until
``--seconds`` have passed and at least ``MIN_TASKS`` tasks ran, and checks
every output.  Every time that goes into an end-to-end metric is divided by
the host's slowdown, read by reference kernels right before and after it
(hostspeed.py): the times are seconds at nominal host speed, and the raw ones
are in the run's record.  ``--trace 1`` alternates untraced and traced tasks over the
same span of time and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  The last line of stdout is the result object; the lines
before it describe the run, and the same record, with the environment, goes
to ``.okbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS/OpenMP thread, so wall time is not bought with
# the second core of a two-core machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".okbench"

DEFAULT_SEED = 1
VALIDATION_SEED = 2  # a second seed for checking a claimed gain
SETUP_PROBES = 9
MIN_TASKS = 5  # a floor for a slow host; at --seconds 36 a run completes 5 or more
MIN_TASKS_TRACED = 2  # of each kind, traced and untraced
SETUP_TIMEOUT_S = 30

E2E_UNITS = {
    "setup_s": "s",
    "task_p50_s": "s",
    "tasks_per_s": "1/s",
    "cpu_s_per_task": "s",
    "peak_rss_mb": "MB",
}

# ROADMAP re-anchor figures (single runs on a 2-vCPU machine) the traced run can
# reproduce; a figure "differs" outside a factor 1.25 either way
REANCHOR = {
    "build_periodic_64_s": 2.4,
    "build_periodic_c0_share": 0.81,
    "build_periodic_el_share": 0.14,
    "build_periodic_flow_share": 0.05,
    "probe_ms_64": 0.6,
    "green_matrix_p256_32cubed_s": 1.0,
}


def _bootstrap() -> None:
    if not (SRC / "okpattern" / "__init__.py").is_file():
        print(f"okbench: no okpattern source tree at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _workdir() -> Path:
    path = STATE / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _environment() -> dict:
    import numpy
    import scipy

    import okpattern

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "okpattern": okpattern.__version__,
        "okpattern_file": str(Path(okpattern.__file__).relative_to(ROOT)),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "OKPATTERN_THREADS": os.environ.get("OKPATTERN_THREADS"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Tasks and their checks
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed tasks; a task fails if it raises, exits nonzero
    or fails its output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"task {self.attempted}: " + "; ".join(problems))
        return not problems


def run_task(wl, span=None):
    """(seconds, output) of one task; the output is the exception if it raised."""
    t0 = time.perf_counter()
    try:
        out = wl.task(span) if span is not None else wl.task()
    except Exception as exc:  # counted as a failed task, never fatal
        out = exc
    return time.perf_counter() - t0, out


def judge(wl, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    return wl.check(out)


def _finish(wl, out) -> None:
    if not isinstance(out, Exception):
        wl.cleanup(out)


# ---------------------------------------------------------------------------
# Set-up in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: time the import, the inputs and the workspaces, print it."""
    t0 = time.perf_counter()
    _bootstrap()
    from workloads import WORKLOADS

    workdir = _workdir()
    try:
        WORKLOADS[workload](seed, workdir).setup()
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, each divided by the host's slowdown
    the reference kernels read around it."""
    from hostspeed import Speed

    samples = []
    with Speed() as speed:
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
            elapsed = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            samples.append(elapsed / speed.factor())
    return samples


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def warm_up(wl, tally: Tally) -> None:
    """One checked, untimed task, so that first-call costs stay out of the timing."""
    _, out = run_task(wl)
    tally.add(judge(wl, out))
    _finish(wl, out)


def untraced_run(wl, seconds: float, tally: Tally) -> dict:
    """Time the task over the run.  Each task's wall and CPU time is divided
    by the host's slowdown the reference kernels read around it (see
    hostspeed.py), so the metrics are in seconds at nominal host speed."""
    from hostspeed import Speed
    from spans import median

    ok_times, all_times, raw_times, cpu_times, factors = [], [], [], [], []
    with Speed() as speed:
        start = time.perf_counter()
        while True:
            cpu0 = _cpu_s()
            elapsed, out = run_task(wl)
            cpu = _cpu_s() - cpu0
            factor = speed.factor()
            passed = tally.add(judge(wl, out))
            _finish(wl, out)
            raw_times.append(elapsed)
            factors.append(factor)
            all_times.append(elapsed / factor)
            cpu_times.append(cpu / factor)
            if passed:
                ok_times.append(elapsed / factor)
            if time.perf_counter() - start >= seconds and len(all_times) >= MIN_TASKS:
                break
    return {
        "task_times_s": all_times,
        "raw_task_times_s": raw_times,
        "host_factors": factors,
        "metrics": {
            "task_p50_s": median(ok_times or all_times),
            "tasks_per_s": len(ok_times) / sum(all_times),
            "cpu_s_per_task": median(cpu_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def traced_run(wl, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced tasks in the pattern U T T U, so that a
    workload whose tasks take turns between two inputs (pencil-3d) gives
    each input to both kinds; layer metrics come from the traced tasks."""
    from spans import Recorder, layer_metrics, median, self_time_table

    rec = Recorder()
    untraced, traced = [], []
    start = time.perf_counter()
    for i in itertools.count():
        if i % 4 in (0, 3):
            elapsed, out = run_task(wl)
            times = untraced
        else:
            rec.install()
            try:
                t0 = time.perf_counter()
                with rec.task():
                    _, out = run_task(wl, rec.span)
                elapsed = time.perf_counter() - t0
            finally:
                rec.uninstall()
            times = traced
        if tally.add(judge(wl, out)):
            times.append(elapsed)
        _finish(wl, out)
        if time.perf_counter() - start >= seconds and i + 1 >= 2 * MIN_TASKS_TRACED:
            break
    return {
        "untraced_times_s": untraced,
        "traced_times_s": traced,
        "metrics": layer_metrics(rec.tasks, median(traced), median(untraced)),
        "self_time_table": self_time_table(rec.tasks),
        "tasks": rec.tasks,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _compare(label: str, measured: float, reference: float, unit: str) -> str:
    ratio = measured / reference if reference else float("nan")
    verdict = "matches" if 0.8 <= ratio <= 1.25 else "DIFFERS"
    return f"re-anchor {label}: {measured:.4g} {unit} vs ROADMAP {reference:.4g} {unit} (x{ratio:.2f}, {verdict})"


def _time_under(tasks, name: str, ancestor_prefix: str) -> float:
    """Per-task seconds in spans `name` below a span whose name starts with the prefix."""
    total = 0.0
    for task in tasks:
        for sp in task:
            if sp.name != name:
                continue
            p = sp.parent
            while p is not None and not task[p].name.startswith(ancestor_prefix):
                p = task[p].parent
            if p is not None:
                total += sp.duration
    return total / max(len(tasks), 1)


def reanchor_lines(workload: str, traced: dict, finding: dict | None) -> list[str]:
    m = traced["metrics"]
    lines = []
    if workload == "construct-64":
        bp = m["construct.build_periodic_s"]
        lines.append(_compare("build_periodic 64^2 k=1,2,4", bp, REANCHOR["build_periodic_64_s"], "s"))
        for key, metric in (("c0", "construct.c0_proxy_s"), ("el", "geometry.el_residual_s"),
                            ("flow", "construct.continue_family_s")):
            lines.append(_compare(f"build_periodic share {key}", m[metric] / bp,
                                  REANCHOR[f"build_periodic_{key}_share"], "of build_periodic"))
        probes = m["construct.probes_evaluated"]
        if probes:
            lines.append(_compare("one probe at 64^2", 1e3 * m["construct.probe_s"] / probes,
                                  REANCHOR["probe_ms_64"], "ms"))
    if workload == "pencil-3d":
        lines.append(_compare("Green matrix p=256 on 32^3 (cylinder, in task)",
                              _time_under(traced["tasks"], "stability._green_matrix", "bench.pencil:cylinder"),
                              REANCHOR["green_matrix_p256_32cubed_s"], "s"))
        if finding is not None:
            lines.append(_compare("Green matrix p=256 on 32^3 (sphere, finding run)",
                                  finding["green_matrix_s"], REANCHOR["green_matrix_p256_32cubed_s"], "s"))
    return lines


def ball_finding(wl) -> dict:
    """Run the ball pencil once, traced, to keep its sign defect in view."""
    from spans import Recorder

    rec = Recorder()
    rec.install()
    try:
        with rec.task("finding.ball"):
            value = wl.ball_finding()
    finally:
        rec.uninstall()
    green = sum(sp.duration for sp in rec.tasks[0] if sp.name == "stability._green_matrix")
    return {"ball_min_eig": value, "green_matrix_s": green}


def _pin_to_one_cpu() -> None:
    """Keep this process, the processes it starts and so the reference
    kernel's helper on one CPU, so that the kernel reads the host's speed on
    the CPU the tasks run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args) -> int:
    _bootstrap()
    _pin_to_one_cpu()
    from spans import LAYER_UNITS, median
    from workloads import WORKLOADS

    workdir = _workdir()
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        env = _environment()
        print("env " + json.dumps(env, sort_keys=True))
        tally = Tally()
        warm_up(wl, tally)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "setup_samples_s": setup_samples}
        if args.trace:
            result = traced_run(wl, args.seconds, tally)
            finding = ball_finding(wl) if args.workload == "pencil-3d" else None
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in result["metrics"].items()}
            table = result["self_time_table"]
            print(f"traced {len(result['traced_times_s'])} / untraced {len(result['untraced_times_s'])} tasks; "
                  f"p50 traced {median(result['traced_times_s']):.4f} s, untraced {median(result['untraced_times_s']):.4f} s")
            print(f"{'span':42s} {'calls':>9s} {'incl_s':>9s} {'self_s':>9s} {'fft':>8s}   (per traced task)")
            for row in table[:16]:
                print(f"{row['name']:42s} {row['calls']:9.1f} {row['incl_s']:9.4f} {row['self_s']:9.4f} {row['fft_calls']:8.1f}")
            untraced_p50 = median(result["untraced_times_s"])
            if table and untraced_p50:
                self_sum = sum(r["self_s"] for r in table)
                print(f"blocking path: self times sum to {self_sum:.4f} s per traced task = untraced p50 "
                      f"{untraced_p50:.4f} s x (1 {self_sum / untraced_p50 - 1:+.4f}); "
                      f"trace.overhead_frac {result['metrics']['trace.overhead_frac']:+.4f}")
                for line in reanchor_lines(args.workload, result, finding):
                    print(line)
            if finding is not None:
                print(f"finding: ball r=0.25 centre (0.5,0.5,0.5) gamma=0.1 pencil min eig "
                      f"{finding['ball_min_eig']:+.4f} (continuum sign +; left out of the checked task)")
            record.update(untraced_times_s=result["untraced_times_s"],
                          traced_times_s=result["traced_times_s"], self_time_table=table, finding=finding)
        else:
            result = untraced_run(wl, args.seconds, tally)
            values = dict(result["metrics"], setup_s=median(setup_samples))
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
            times = result["task_times_s"]
            print(f"{args.workload} seed {args.seed}: {len(times)} tasks, fail_frac "
                  f"{tally.failed / tally.attempted:.4f}, raw task median "
                  f"{median(result['raw_task_times_s']):.6g} s, host slowdown median "
                  f"{median(result['host_factors']):.4f}; " +
                  ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
            record.update(task_times_s=times, raw_task_times_s=result["raw_task_times_s"],
                          host_factors=result["host_factors"])
        for line in tally.problems:
            print("FAILED " + line)
        record.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                      metrics=metrics)
        STATE.mkdir(exist_ok=True)
        (STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def selftest() -> int:
    """One real task per workload must pass its check and, once tampered with
    (a nonzero exit code, a mass drift, a flipped pencil sign), count as
    failed.  Also checks BENCHMARK.json against the metrics the code emits."""
    _bootstrap()
    from spans import LAYER_UNITS
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != E2E_UNITS:
        errors.append(f"end_to_end in BENCHMARK.json {declared} != {E2E_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != LAYER_UNITS:
        errors.append("per_layer in BENCHMARK.json differs from spans.LAYER_UNITS")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        errors.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    workdir = _workdir()
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(DEFAULT_SEED, workdir)
            wl.setup()
            tally = Tally()
            _, out = run_task(wl)
            clean = tally.add(judge(wl, out))
            tampered = tally.add(judge(wl, wl.tamper(out)))
            raised = tally.add(judge(wl, RuntimeError("injected")))
            _finish(wl, out)
            status = "ok" if (clean, tampered, raised, tally.failed) == (True, False, False, 2) else "BROKEN"
            print(f"selftest {name}: clean output passes={clean}, tampered counted failed={not tampered}, "
                  f"raised counted failed={not raised} -> {status}")
            for line in tally.problems:
                print(f"  {line}")
            if status != "ok":
                errors.append(f"{name}: check does not separate good from tampered output")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print("selftest error: " + e)
    print("selftest " + ("passed" if not errors else "FAILED"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("construct-64", "coarsen-256", "pencil-3d"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; validate a claimed gain "
                             f"on seed {VALIDATION_SEED} as well)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
