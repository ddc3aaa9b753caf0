"""CLI dispatch, config handling, run-directory layout, and pixmap tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from okpattern.cli import _COMMANDS, _READS, RunConfig, render_heatmap, run
from okpattern.construct import local_minimality_probe
from okpattern.torus_field import GridSpec, Lamella, ScalarField, rasterize, read_field


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_subcommand_exits_2():
    assert run([]) == 2


def test_energy_subcommand_closed_form(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "energy",
            "--shape", "lamella",
            "--w", "0.25",
            "--gamma", "48",
            "--grid", "256,256",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, row = (out / "report.csv").read_text().strip().split("\n")
    assert header == "perimeter,nonlocal,gamma,total"
    total = float(row.split(",")[-1])
    assert total == pytest.approx(3.0, abs=1e-4)
    assert (out / "meta.txt").exists()
    assert (out / "fields" / "indicator.okf").exists()


def test_scaling_subcommand_k1_errors_zero(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "scaling",
            "--shape", "lamella",
            "--w", "0.25",
            "--gamma", "1",
            "--k", "1,2,4",
            "--grid", "64,64",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "report.csv").read_text().strip().split("\n")
    k1 = lines[1].split(",")
    assert k1[0] == "1"
    assert float(k1[-3]) == 0.0 and float(k1[-2]) == 0.0 and float(k1[-1]) == 0.0


def test_green_flow_stability_gamma_limit(tmp_path):
    assert run(["green", "--grid", "64,64", "--out", str(tmp_path / "g")]) == 0
    assert (
        run(
            [
                "flow",
                "--grid", "32,32",
                "--eps", "0.08",
                "--steps", "20",
                "--out", str(tmp_path / "f"),
            ]
        )
        == 0
    )
    trace = (tmp_path / "f" / "report.csv").read_text().strip().split("\n")
    assert trace[0] == "step,dt,energy,mass,sup_update"
    assert len(trace) > 1
    assert run(["stability", "--out", str(tmp_path / "s")]) == 0
    assert (
        run(
            [
                "gamma-limit",
                "--grid", "1024",
                "--eps-list", "0.08,0.04",
                "--out", str(tmp_path / "gl"),
            ]
        )
        == 0
    )
    rows = (tmp_path / "gl" / "report.csv").read_text().strip().split("\n")
    assert len(rows) == 3


def test_construct_subcommand(tmp_path):
    out = tmp_path / "c"
    code = run(
        [
            "construct",
            "--grid", "32,32",
            "--k", "1,2",
            "--gamma", "1.0",
            "--eps", "0.08",
            "--steps", "150",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert (out / "fields" / "tiled_k2.okf").exists()


def test_construct_with_a_dissolved_seed_exits_3(tmp_path):
    out = tmp_path / "c"
    argv = ["construct", "--grid", "32,32,32", "--shape", "ball", "--center", "0.5,0.5,0.5"]
    argv += ["--radius", "0.25", "--eps", "0.07", "--k", "1", "--out", str(out)]
    assert run(argv) == 3
    _, row = (out / "report.csv").read_text().strip().split("\n")
    assert row.endswith(",lost_interface")
    assert not any((out / "fields").iterdir())


def test_config_file_and_unknown_key(tmp_path):
    good = tmp_path / "ok.ini"
    good.write_text("[energy]\ngamma = 2.5\n\n[grid]\nsizes = 32,32\n")
    out = tmp_path / "r"
    assert run(["energy", "--config", str(good), "--out", str(out)]) == 0
    meta = (out / "meta.txt").read_text()
    assert "gamma = 2.5" in meta

    bad = tmp_path / "bad.ini"
    bad.write_text("[energy]\ngamsma = 2.5\n")
    assert run(["energy", "--config", str(bad), "--out", str(out)]) == 2

    badval = tmp_path / "badval.ini"
    badval.write_text("[energy]\ngamma = -3\n")
    assert run(["energy", "--config", str(badval), "--out", str(out)]) == 2


def test_config_round_trip_fixed_point(tmp_path):
    cfg = RunConfig.defaults()
    cfg.set("energy", "gamma", "12.5")
    cfg.set("grid", "sizes", "32,64")
    text = cfg.serialize()
    path = tmp_path / "c.ini"
    path.write_text(text)
    cfg2 = RunConfig.defaults()
    cfg2.update_from_file(path)
    assert cfg2.serialize() == text
    assert cfg2.values == cfg.values


# (argv, field names, report header) of one run of every run-directory subcommand
RUNS = {
    "energy": (
        ["energy", "--grid", "32,32", "--gamma", "7"],
        {"indicator"},
        "perimeter,nonlocal,gamma,total",
    ),
    "green": (["green", "--grid", "32,32"], {"u", "v"}, "mean_v,laplacian_residual,v_min,v_max"),
    "flow": (
        ["flow", "--grid", "32,32", "--eps", "0.08", "--steps", "5"],
        {"final"},
        "step,dt,energy,mass,sup_update",
    ),
    "construct": (
        ["construct", "--grid", "32,32", "--k", "1,2", "--eps", "0.08", "--steps", "150"],
        {"tiled_k1", "tiled_k2"},
        "k,gamma_k,alpha,c0_proxy,residual_sup,grad_h_sup,energy_lhs,energy_rhs,rel_err,status",
    ),
    "stability": (["stability"], set(), "w,gamma,min_eig,gamma_star"),
    "scaling": (
        ["scaling", "--grid", "32,32", "--k", "1,2"],
        set(),
        "k,perimeter_lhs,nonlocal_lhs,total_lhs,perimeter_rhs,nonlocal_rhs,total_rhs,"
        "perimeter_err,nonlocal_err,total_err",
    ),
    "gamma-limit": (
        ["gamma-limit", "--grid", "64", "--eps-list", "0.08,0.04"],
        set(),
        "eps,ok_energy,sharp_reference,difference",
    ),
}


@pytest.mark.parametrize("command", RUNS)
def test_meta_is_reusable_config(tmp_path, command):
    out1 = tmp_path / "a"
    assert run(RUNS[command][0] + ["--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert run([command, "--config", str(out1 / "meta.txt"), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


@pytest.mark.parametrize(
    "command, config",
    [
        ("scaling", "[scaling]\ngamma = 1\n"),
        ("construct", "[construct]\ngamma_bar = 1\n"),
        ("stability", "[stability]\nthresholds = 1\n"),
    ],
    ids=["scaling-gamma", "construct-gamma-bar", "stability-thresholds"],
)
def test_deleted_keys_exit_2(tmp_path, capsys, command, config):
    # gamma and the k list are [energy] gamma and k_list alone; stability
    # always reports the threshold
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    out = tmp_path / "r"
    assert run([command, "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "unknown configuration" in err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--gamma", "inf"],
        ["stability", "--gamma", "inf"],
        ["gamma-limit", "--grid", "32", "--eps-list", "inf"],
        ["construct", "--gamma", "inf"],
        ["flow", "--eps", "inf"],
        ["energy", "--w", "nan"],
    ],
    ids=[
        "energy-gamma", "stability-gamma", "eps-list", "construct-gamma", "flow-eps", "halfwidth-nan"
    ],
)
def test_non_finite_setting_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "not finite" in err
    assert not (out / "report.csv").exists()


def test_render_2d_and_determinism(tmp_path):
    spec = GridSpec((16, 8))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    render_heatmap(u, p1)
    render_heatmap(u, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"P6\n16 8\n255\n")
    # two-band image: bands of width w*n pixels along axis 0 (image columns)
    img = np.frombuffer(b1[len(b"P6\n16 8\n255\n"):], dtype=np.uint8).reshape(8, 16, 3)
    cols_inside = (img[0, :, 0] == 255).sum()
    assert cols_inside == 8  # 2*0.25*16


def test_render_constant_field_mid_gray(tmp_path):
    spec = GridSpec((8, 8))
    u = ScalarField(spec, np.zeros(spec.sizes))
    path = tmp_path / "c.ppm"
    render_heatmap(u, path)
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert set(body) == {128}


def test_render_3d_slice_and_errors(tmp_path):
    spec = GridSpec((8, 8, 8))
    vals = np.zeros(spec.sizes)
    vals[:, :, 3] = 1.0
    u = ScalarField(spec, vals)
    path = tmp_path / "s.ppm"
    render_heatmap(u, path, axis=2, index=3)
    assert path.read_bytes().startswith(b"P6\n8 8\n255\n")
    with pytest.raises(ValueError, match="index"):
        render_heatmap(u, path, axis=2, index=99)
    with pytest.raises(ValueError):
        render_heatmap(u, path)


def test_render_cli_round_trip(tmp_path):
    spec = GridSpec((32, 32))
    u = rasterize(Lamella(axis=0, center=0.5, halfwidth=0.25), spec)
    from okpattern.torus_field import write_field

    fpath = tmp_path / "f.okf"
    write_field(u, fpath)
    out = tmp_path / "o.ppm"
    assert run(["render", str(fpath), str(out)]) == 0
    assert out.exists()
    assert run(["render", str(tmp_path / "missing.okf"), str(out)]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_render_rejects_non_finite_fields(tmp_path, capsys, bad):
    # nan makes min and max nan, which the hi > lo test would paint
    # mid-gray; inf leaves the gray scale undefined
    from okpattern.torus_field import write_field

    spec = GridSpec((8, 8))
    values = np.zeros(spec.sizes)
    values[2, 5] = bad
    u = ScalarField(spec, values)
    with pytest.raises(ValueError, match="finite"):
        render_heatmap(u, tmp_path / "direct.ppm")
    fpath, out = tmp_path / "f.okf", tmp_path / "o.ppm"
    write_field(u, fpath)
    assert run(["render", str(fpath), str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists() and not (tmp_path / "direct.ppm").exists()


def test_threads_env_recorded(tmp_path, monkeypatch):
    # the BLAS thread settings are one comment line of meta.txt, not a key
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "t"
    assert run(["energy", "--grid", "32,32", "--out", str(out)]) == 0
    lines = (out / "meta.txt").read_text().splitlines()
    blas = [line for line in lines if "NUM_THREADS" in line]
    assert blas == ["# blas threads: OPENBLAS_NUM_THREADS=2, OMP_NUM_THREADS=unset"]
    assert not any("threads =" in line for line in lines)


def test_stability_thresholds_mode(tmp_path):
    # every row of a default run carries its halfwidth's threshold
    out = tmp_path / "thr"
    assert run(["stability", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    stars = {float(row[3]) for row in rows if row[0] == "0.25"}
    assert len(stars) == 1 and abs(stars.pop() - 94.872) < 0.01


def test_stability_flags_set_the_scanned_lists(tmp_path):
    out = tmp_path / "s"
    assert run(["stability", "--gamma", "5", "--w", "0.3", "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 1
    assert rows[0].startswith("0.3,5.0,")


@pytest.mark.parametrize("command", ["green", "render"])
def test_gamma_flag_is_an_error_where_no_gamma_is_read(tmp_path, capsys, command):
    files = [str(tmp_path / "in.okf"), str(tmp_path / "out.ppm")] if command == "render" else []
    assert run([command, *files, "--gamma", "5", "--out", str(tmp_path / "r")]) == 2
    assert "--gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["green", "--grid", "32,32", "--k", "0", "--eps", "5"], "--k"),
        (["energy", "--eps", "0.05"], "--eps"),
        (["flow", "--k", "1,2"], "--k"),
        (["construct", "--eps-list", "0.08"], "--eps-list"),
        (["stability", "--grid", "32,32"], "--grid"),
        (["scaling", "--steps", "5"], "--steps"),
        (["gamma-limit", "--k", "1,2"], "--k"),
        (["render", "in.okf", "out.ppm", "--out", "r"], "--out"),
    ],
    ids=["green", "energy", "flow", "construct", "stability", "scaling", "gamma-limit", "render"],
)
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    # the flag would change nothing but meta.txt, whose rerun by a
    # subcommand that reads the key could then fail on it
    out = tmp_path / "r"
    extra = [] if argv[0] == "render" else ["--out", str(out)]
    assert run(argv + extra) == 2
    message = f"configuration error: {flag} does not apply to {argv[0]}"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (out / "meta.txt").exists()


@pytest.mark.parametrize("command", RUNS)
def test_every_key_a_subcommand_reads_is_declared(tmp_path, monkeypatch, command):
    # a flag is rejected unless the subcommand reads one of its keys
    # (_READS), so _READS names every key the run reads
    seen = set()
    get = RunConfig.get

    def spy(self, section, key):
        seen.add((section, key))
        return get(self, section, key)

    monkeypatch.setattr(RunConfig, "get", spy)
    assert run(RUNS[command][0] + ["--out", str(tmp_path / "r")]) == 0
    reads = _READS[command]
    assert seen and all(s in reads or f"{s}.{k}" in reads for s, k in seen)


@pytest.mark.parametrize(
    "config",
    [
        "[stability]\nw_list = 0.7,-0.1\n",
        "[stability]\ngamma_list = -5\n",
    ],
    ids=["halfwidth-outside-range", "negative-gamma"],
)
def test_stability_rejects_lamellae_that_cannot_exist(tmp_path, capsys, config):
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    out = tmp_path / "r"
    assert run(["stability", "--config", str(ini), "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "report.csv").exists()


def test_construct_with_probes(tmp_path):
    out = tmp_path / "cp"
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[construct]\nprobes = 20\nprobe_amplitude = 2\n\n[energy]\nk_list = 2\n\n"
        "[grid]\nsizes = 32,32\n\n[flow]\neps = 0.08\nmax_steps = 150\n"
    )
    assert run(["construct", "--config", str(cfg), "--out", str(out)]) == 0


def test_construct_names_each_k_that_fails_the_probe_gate(tmp_path, capsys):
    # the 64^2 disk's tiled fields fail the swap probes at both k (min gaps
    # about -1e-6): exit 3 with one stderr line per k, naming its min gap,
    # and status probe_failed in its row; construct-64 passes them, its rows
    # read ok and it writes nothing to stderr
    ini = tmp_path / "probes.ini"
    ini.write_text("[construct]\nprobes = 500\nprobe_amplitude = 2\nprobe_seed = 1\n")
    common = ["construct", "--config", str(ini), "--grid", "64,64", "--gamma", "1"]
    disk = tmp_path / "disk"
    argv = [*common, "--shape", "ball", "--center", "0.5,0.5", "--radius", "0.2", "--k", "1,2"]
    assert run([*argv, "--out", str(disk)]) == 3
    want = []
    for k in (1, 2):
        tiled = read_field(disk / "fields" / f"tiled_k{k}.okf")
        gap = local_minimality_probe(tiled, 1.0, k, 500, 2, seed=1).min_gap
        assert gap < -1e-12
        want.append(f"k={k}: probe gate failed: min gap {gap:.3e} < -1e-12")
    assert capsys.readouterr().err.splitlines() == want
    assert statuses(disk) == ["probe_failed"] * 2
    lamella = tmp_path / "construct-64"
    assert run([*common, "--shape", "lamella", "--w", "0.25", "--out", str(lamella)]) == 0
    assert capsys.readouterr().err == ""
    assert statuses(lamella) == ["ok"] * 3


def statuses(out):
    """The status column of a construct report, row by row."""
    header, *rows = (out / "report.csv").read_text().splitlines()
    col = header.split(",").index("status")
    return [row.split(",")[col] for row in rows]


@pytest.mark.parametrize("command", RUNS)
def test_run_directory_contract(tmp_path, command):
    # the file layout and the exact report header of every subcommand, with
    # one cell per header name in every row
    argv, fields, header = RUNS[command]
    out = tmp_path / "run"
    assert run(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fields", "meta.txt", "report.csv"]
    assert sorted(p.name for p in (out / "fields").iterdir()) == sorted(f"{f}.okf" for f in fields)
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    assert all(len(row.split(",")) == len(header.split(",")) for row in lines[1:])


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_subcommand_exits_0_on_defaults(tmp_path, monkeypatch, command):
    # no flag at all: every run-directory subcommand runs on the default
    # config (render reads an input field, so it has no such run)
    monkeypatch.chdir(tmp_path)
    assert run([command]) == 0
    assert (tmp_path / "okrun" / "report.csv").is_file()


def test_failed_run_leaves_no_earlier_results(tmp_path):
    out = str(tmp_path / "d")
    assert run(["energy", "--grid", "32,32", "--out", out]) == 0
    assert run(["flow", "--grid", "32,32", "--eps", "0.01", "--out", out]) == 2
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["fields"]
    assert list((tmp_path / "d" / "fields").iterdir()) == []


def test_configuration_error_makes_no_run_directory(tmp_path, capsys):
    # the grid is checked before anything is written: no directory at all,
    # and a failed rerun into an existing run directory removes its report
    huge = tmp_path / "huge"
    assert run(["energy", "--grid", "4294967296,4294967296", "--out", str(huge)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: grid.sizes")
    assert not huge.exists()
    out = tmp_path / "d"
    assert run(["energy", "--grid", "32,32", "--out", str(out)]) == 0
    assert run(["energy", "--grid", "4294967296,4294967296", "--out", str(out)]) == 2
    assert not (out / "report.csv").exists() and not (out / "meta.txt").exists()
    assert list((out / "fields").iterdir()) == []


def test_rerun_with_fewer_k_drops_stale_tiled_fields(tmp_path):
    out = str(tmp_path / "d")
    argv = ["construct", "--grid", "32,32", "--eps", "0.08", "--steps", "150", "--out", out]
    assert run(argv + ["--k", "1,2"]) == 0
    assert run(argv + ["--k", "1"]) == 0
    assert [p.name for p in (tmp_path / "d" / "fields").iterdir()] == ["tiled_k1.okf"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["scaling", "--k", "0"], ""),
        (["construct", "--k", "0"], ""),
        (["gamma-limit", "--eps-list", ","], ""),
        (["stability"], "[stability]\nw_list =\n"),
    ],
    ids=["scaling-k0", "construct-k0", "empty-eps-list", "empty-w-list"],
)
def test_bad_tiling_factor_or_empty_list_exits_2(tmp_path, capsys, argv, config):
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    assert run(argv + ["--grid", "32,32", "--config", str(ini), "--out", str(tmp_path / "r")]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["construct", "scaling"])
def test_repeated_tiling_factor_exits_2(tmp_path, capsys, command):
    # a repeated k would run the flow and the probes twice, for two
    # identical rows and one tiled_k1.okf
    out = tmp_path / "r"
    assert run([command, "--grid", "32,32", "--k", "1,2,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: energy.k_list") and len(err.strip().splitlines()) == 1
    assert not out.exists()
    ini = tmp_path / "c.ini"
    ini.write_text("[energy]\nk_list = 2,2\n")
    assert run([command, "--grid", "32,32", "--config", str(ini), "--out", str(out)]) == 2
    assert not out.exists()


def test_lamella_center_with_extra_coordinates_exits_2(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["energy", "--shape", "lamella", "--center", "0.3,0.4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: shape: a lamella center")
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "32,32", "--shape", "lamella"],
        ["--grid", "32,32,32", "--shape", "cylinder", "--center", "0.5,0.5"],
    ],
    ids=["lamella", "cylinder"],
)
def test_negative_axis_exits_2(tmp_path, capsys, argv):
    # a lamella at axis -1 once certified c0_proxy at the saturated window
    # with status ok; a cylinder at axis -1 crashed while unpacking its chart
    out = tmp_path / "r"
    argv = ["construct", *argv, "--axis", "-1", "--k", "1", "--eps", "0.08", "--steps", "50"]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: shape: ")
    assert not (out / "report.csv").exists()


def test_construct_on_a_1d_grid_exits_2(tmp_path, capsys):
    # the lamella's interfaces are points in dim 1: no chart, no stability gate
    out = tmp_path / "r"
    assert run(["construct", "--grid", "64", "--k", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "dim 1" in err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "setting",
    ["probe_amplitude = 4", "probe_amplitude = -1", "probe_seed = -1"],
    ids=["amplitude-above-3", "negative-amplitude", "negative-seed"],
)
def test_construct_settings_rejected_when_read(tmp_path, capsys, setting):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[energy]\nk_list = 1,2\n\n[construct]\nprobes = 10\n{setting}\n")
    out = tmp_path / "r"
    argv = ["construct", "--grid", "32,32", "--eps", "0.08", "--steps", "150"]
    assert run(argv + ["--config", str(ini), "--out", str(out)]) == 2
    key = setting.split()[0]
    assert capsys.readouterr().err.startswith(f"configuration error: construct.{key}")
    assert not (out / "report.csv").exists()


def test_construct_same_with_one_and_two_blas_threads(tmp_path):
    # the 64^2 ball seed's stability gate takes the dense pencil, whose
    # matrix products and eigensolve follow the BLAS thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["construct", "--grid", "64,64", "--shape", "ball", "--center", "0.5,0.5"]
    argv += ["--radius", "0.25", "--k", "1,2"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", "from okpattern.cli import main; main()", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    one, two = outs
    assert (one / "report.csv").read_bytes() == (two / "report.csv").read_bytes()
    names = sorted(p.name for p in (one / "fields").iterdir())
    assert names == ["tiled_k1.okf", "tiled_k2.okf"]
    assert names == sorted(p.name for p in (two / "fields").iterdir())
    for name in names:
        assert (one / "fields" / name).read_bytes() == (two / "fields" / name).read_bytes()


def test_runs_in_one_process_match_separate_processes(tmp_path, capsys):
    # the parser is built once per process: a run after another subcommand
    # and after a bad flag writes what a fresh process writes, and none of
    # the first run's flags carries over
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    energy = ["energy", "--grid", "16,16", "--shape", "ball", "--center", "0.5,0.5"]
    runs = [
        (energy + ["--radius", "0.3", "--gamma", "2"], 0),
        (["green", "--grid", "16,16", "--bogus", "1"], 2),
        (["green"], 0),
        (["energy"], 0),
    ]
    for i, (argv, code) in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert run(argv + ["--out", str(here)]) == code
        proc = subprocess.run(
            [sys.executable, "-c", "from okpattern.cli import main; main()", *argv, "--out", str(fresh)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert capsys.readouterr().err == proc.stderr
        if code == 0:
            for name in ("report.csv", "meta.txt"):
                want = (fresh / name).read_text().replace(str(fresh), str(here))
                assert (here / name).read_text() == want
        else:
            assert not here.exists() and not fresh.exists()
