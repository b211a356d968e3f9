"""Configuration round-trips, command-line entry points, the package's
numpy-free import and the names the benchmark traces."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ldglimit
from ldglimit.cli import main
from ldglimit.config import ExperimentConfig, load_config, parse_config
from ldglimit.fields import format_value
from ldglimit.solvers import SolveConfig

from conftest import tiny_config


def test_serialize_parse_round_trip():
    for cfg in (
        ExperimentConfig(),
        tiny_config(a2=0.3, b2=1.7, c2=2.0, seed=9, output_dir="elsewhere",
                    residual_tol=3.5e-8, boundary="hedgehog"),
        # lists, as an API caller may pass them, are stored as tuples
        tiny_config(l_ladder=[0.16, 0.08, 0.04], dims=[6, 7, 8]),
    ):
        assert parse_config(cfg.serialize()) == cfg
        assert isinstance(cfg.l_ladder, tuple) and isinstance(cfg.dims, tuple)
        assert hash(cfg) == hash(parse_config(cfg.serialize()))


def test_solver_keys_written_first_and_old_order_parses():
    """The solver settings ExperimentConfig inherits from SolveConfig are
    serialized first; a file in the earlier order, solver keys after
    pattern, still parses to the same config."""
    cfg = ExperimentConfig()
    keys = [line.split("=")[0] for line in cfg.serialize().splitlines()]
    assert keys[:5] == [f.name for f in dataclasses.fields(SolveConfig)]
    old_order = (
        "a2=1\nb2=1\nc2=1\n"
        "l_ladder=0.16,0.080000000000000002,0.040000000000000001,0.02\n"
        "dims=16,16,16\nbox_lo=0\nbox_hi=8\nboundary=near_constant\n"
        "eps=0.20000000000000001\npattern=tilt_x\n"
        "dt_safety=0.90000000000000002\nmax_iters=50000\n"
        "rel_energy_tol=1e-13\nresidual_tol=9.9999999999999995e-08\n"
        "log_every=0\nmargin=2\noutput_dir=out\nseed=0\n"
    )
    assert parse_config(old_order) == cfg


def test_save_and_load(tmp_path):
    cfg = tiny_config(seed=4)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    assert load_config(path) == cfg


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\na2=2.0\n  # indented comment\nb2=0.5\n"
    cfg = parse_config(text)
    assert cfg.a2 == 2.0 and cfg.b2 == 0.5
    # unspecified keys keep defaults
    assert cfg.dims == (16, 16, 16)


@pytest.mark.parametrize(
    "text",
    [
        "voltage=3\n",            # unknown key
        "a2=1.0\na2=2.0\n",       # duplicate key
        "a2 1.0\n",               # missing separator
        "max_iters=1.5\n",        # not an integer
        "dims=8,8,x\n",           # tuple entry of the wrong type
    ],
)
def test_parse_rejects_bad_lines(text):
    with pytest.raises(ValueError):
        parse_config(text)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(a2=0.0),
        dict(l_ladder=()),
        dict(l_ladder=(0.1, 0.2)),          # not decreasing
        dict(l_ladder=(0.1, 0.1)),          # not strictly decreasing
        dict(l_ladder=(0.1, -0.05)),
        dict(dims=(2, 6, 6)),
        dict(box_hi=-1.0),
        dict(boundary="twisted"),
        dict(eps=-0.1),
        dict(seed=-1),
        dict(margin=-1.0),
        dict(margin=10.0),                  # >= half box width (default box 8)
        dict(margin=0.1),                   # positive but below 2h
        dict(dt_safety=1.5),
        dict(max_iters=0),
        dict(box_hi=float("nan")),
        dict(box_lo=float("-inf")),
        dict(a2=float("nan")),
        dict(eps=float("nan")),
        dict(l_ladder=(0.1, float("nan"))),
        dict(margin=float("nan")),
        dict(residual_tol=float("inf")),
        dict(dims=(4, 4, 4), margin=3.9),   # below half width, no node inside
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ValueError):
        ExperimentConfig(**overrides)


def test_cli_check_geometry_pass_and_fail(capsys):
    assert main(["check-geometry", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # an absurd tolerance makes the algebraic checks fail -> exit code 1
    assert main(["check-geometry", "--trials", "300", "--tol", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_threads_validation(capsys):
    assert main(["--threads", "0", "check-geometry"]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "a2=0",
        "dt_safety=1.5",
        "dims=8,8",
        # non-finite values; box_hi=nan used to make solve-ldg loop forever
        "box_hi=nan\ndims=4,4,4\nmargin=0",
        "a2=nan",
        "eps=nan",
        "l_ladder=nan",
        # every interior node of the default box lies within the margin
        "dims=4,4,4\nmargin=3.9",
        # a boundary pattern fields.boundary_near_constant does not draw
        "pattern=tilt_y",
        # abspath("") is the working directory, so an empty output_dir
        # used to pass the output check and fail after the solves
        "output_dir=",
        # np.random.default_rng refuses a negative seed with a traceback
        "seed=-2",
        # only N > 0 (log every N-th step) and 0 (off) mean something
        "log_every=-3",
    ],
)
def test_cli_rejects_bad_config(tmp_path, capsys, line):
    """A config file the types reject is a bad argument: exit 2 with a
    one-line error, before any output directory is made."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    out = tmp_path / "out"
    for command in ("check-geometry", "solve-ldg"):
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert main(["check-geometry", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["check-geometry", "--trials", "0"],
        ["check-geometry", "--trials", "-3"],
        ["check-geometry", "--tol", "-0.5"],
        ["check-geometry", "--tol", "nan"],
        ["check-geometry", "--tol", "inf"],
        ["check-geometry", "--seed", "-1"],
        ["corrector", "--center-exclusion", "-1"],
        ["corrector", "--center-exclusion", "nan"],
        # no interior node of the [-1,1]^3 box lies this far from its center
        ["corrector", "--center-exclusion", "100"],
        # the near-constant boundary has no center to exclude
        ["corrector", "--center-exclusion", "0.5", "--config", "near_constant.cfg"],
        # an empty --out is an empty output_dir, not the default one
        ["check-geometry", "--out", ""],
    ],
)
def test_cli_rejects_bad_arguments(tmp_path, capsys, monkeypatch, args):
    """An out-of-range number, or a flag the configured boundary cannot
    use, is a bad argument: exit 2 with one error line and no other output.
    Cases without their own --config run on a hedgehog config."""
    monkeypatch.chdir(tmp_path)
    tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0).save("hedgehog.cfg")
    tiny_config().save("near_constant.cfg")
    if "--config" not in args:
        args = args + ["--config", "hedgehog.cfg"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "solve-ldg"])
@pytest.mark.parametrize("under_file", [False, True])
def test_cli_reports_unwritable_out(tmp_path, capsys, monkeypatch, command,
                                    under_file):
    """An --out that is an existing file, or a path under one, is a bad
    argument: one error line and exit 2 before any solve, not a traceback."""
    import ldglimit.runner as runner

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(runner, "solve_harmonic", no_solve)
    monkeypatch.setattr(runner, "solve_ldg", no_solve)
    cfg_path = tmp_path / "run.cfg"
    tiny_config(l_ladder=(0.1,)).save(cfg_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under_file else blocker
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


def test_cli_solve_harmonic_and_ldg(tmp_path, capsys):
    cfg = tiny_config()
    cfg_path = tmp_path / "run.cfg"
    cfg.save(cfg_path)
    out1 = tmp_path / "harm"
    assert main(["solve-harmonic", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert (out1 / "q_star.csv").exists()
    assert "converged=True" in capsys.readouterr().out

    out2 = tmp_path / "ldg"
    assert main(["solve-ldg", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out2 / "q_l.csv").exists()
    assert "converged=True" in capsys.readouterr().out


def test_cli_sweep_writes_artifacts(tmp_path, capsys):
    cfg = tiny_config()
    cfg_path = tmp_path / "run.cfg"
    cfg.save(cfg_path)
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("sweep.csv", "rates.csv", "q_star.csv", "q_l_0.csv",
                 "q_l_1.csv", "q_l_2.csv"):
        assert (out / name).exists(), name
    text = (out / "sweep.csv").read_text().splitlines()
    assert len(text) == 1 + len(cfg.l_ladder)
    assert "rate" in capsys.readouterr().out


def test_every_written_number_is_in_the_one_format(tmp_path, capsys):
    """Every number of the saved config, a sweep's sweep.csv, rates.csv
    and field CSVs and a solve's field CSV, every energy= of the iteration
    log, the sweep log and the solve line, and every number of a
    near-constant and a hedgehog corrector report, reads back as
    fields.format_value writes it."""
    cfg = tiny_config(log_every=1)
    cfg_path, hh_path = tmp_path / "run.cfg", tmp_path / "hedgehog.cfg"
    cfg.save(cfg_path)
    hedgehog = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0, dims=(8, 8, 8))
    hedgehog.save(hh_path)
    out, ldg = tmp_path / "sweep", tmp_path / "ldg"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["solve-ldg", "--config", str(cfg_path), "--out", str(ldg)]) == 0
    for path in (cfg_path, hh_path):
        assert main(["corrector", "--config", str(path)]) == 0
    stdout = capsys.readouterr().out
    # the corrector reports: its lists keep repr()'s brackets and separators
    listed = re.findall(r"^(?:ls|a_err_interior)=\[(.*)\]$", stdout, re.MULTILINE)
    scalars = re.findall(r"^(?:h|max_err|sup_a|nodes)=(.*)$", stdout, re.MULTILINE)
    reported = [t for line in listed for t in line.split(", ")] + scalars
    assert len(listed) == 2 and len(reported) == 2 * len(cfg.l_ladder) + 4
    energies = re.findall(r"\benergy=(\S+)", stdout)
    solve_lines = re.findall(r"^converged=.* energy=", stdout, re.MULTILINE)
    assert len(re.findall(r"^iter=", stdout, re.MULTILINE)) > 10
    assert len(solve_lines) == 1
    files = [cfg_path, *sorted(out.iterdir()), ldg / "q_l.csv"]
    assert len(files) == 1 + (3 + len(cfg.l_ladder)) + 1
    numbers = []
    for path in files:
        for token in re.split(r"[,=\s]+", path.read_text()):
            try:
                numbers.append((token, float(token)))
            except ValueError:  # a key, a word or a column name
                pass
    assert len(numbers) > 10000
    numbers += [(t, float(t)) for t in energies + reported]  # each must parse
    assert [t for t, x in numbers if format_value(x) != t] == []


def test_cli_corrector_hedgehog(tmp_path, capsys):
    cfg = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0,
                      dims=(8, 8, 8))
    cfg_path = tmp_path / "run.cfg"
    cfg.save(cfg_path)
    assert main(["corrector", "--config", str(cfg_path),
                 "--out", str(tmp_path / "corr")]) == 0
    out = capsys.readouterr().out
    assert "mode=hedgehog" in out
    assert "max_err=" in out


def test_cli_reports_domain_errors(tmp_path, capsys):
    # hedgehog boundary with a node at the center -> domain error, exit 1
    cfg = tiny_config(boundary="hedgehog", box_lo=-1.0, box_hi=1.0,
                      dims=(5, 5, 5))
    cfg_path = tmp_path / "run.cfg"
    cfg.save(cfg_path)
    for command in ("corrector", "solve-ldg"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        # a failed command leaves no output directory behind
        assert not out.exists(), command


def test_cli_import_leaves_numpy_unloaded():
    """The package and the CLI import no numerics, so --threads can pin the
    thread pools before numpy starts them; this is why the package imports
    none of its submodules and the CLI imports the rest inside main()."""
    code = "import sys, ldglimit.cli; print('numpy' in sys.modules)"
    src = str(Path(ldglimit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout == "False\n"


def _perfbench_module(monkeypatch, name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building its classes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_resolve(monkeypatch):
    """Every module.function the benchmark traces exists in the package, so
    renaming or deleting one shows here and not only in a traced run."""
    workloads = _perfbench_module(monkeypatch, "workloads")
    assert workloads.TRACED
    for name in workloads.TRACED:
        module, function = name.split(".")
        package_module = importlib.import_module(f"ldglimit.{module}")
        assert callable(getattr(package_module, function, None)), name


def test_benchmark_ldg_kernels_called_and_energy_evaluations_counted(
    monkeypatch, tmp_path
):
    """The traced ldg workloads fail unless every function of perfbench's
    _LDG_KERNELS is called, and they count the energy evaluations of a
    solve as its fields.dirichlet_energy calls (backtracks = evaluations -
    accepted steps - 1).  Both hold for solve-ldg, wrapping each kernel in
    every ldglimit module that binds it, as the benchmark's tracer does."""
    import ldglimit.runner as runner

    workloads = _perfbench_module(monkeypatch, "workloads")
    calls = dict.fromkeys(workloads._LDG_KERNELS, 0)
    solves = []  # (dirichlet_energy calls inside, result) per solve_ldg
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.split(".")[0] == "ldglimit"]
    for name in workloads._LDG_KERNELS:
        module, function = name.split(".")
        package_module = importlib.import_module(f"ldglimit.{module}")
        original = getattr(package_module, function)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            before = calls["fields.dirichlet_energy"]
            out = _fn(*args, **kwargs)
            if _name == "solvers.solve_ldg":
                solves.append((calls["fields.dirichlet_energy"] - before, out))
            return out

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)

    # the cold L = 0.02 solve backtracks (8 of its 33 steps); L = 0.16 does not
    cfg = tiny_config(dims=(8, 8, 8), box_hi=8.0, l_ladder=(0.02,),
                      output_dir=str(tmp_path))
    runner.run_solve(cfg, "solve-ldg")
    assert [name for name, n in calls.items() if n == 0] == []
    (evals, res), = solves
    accepted = len(res.energy_history) - 1
    assert accepted >= 1 and res.backtracks >= 1
    assert evals == 1 + accepted + res.backtracks


def test_benchmark_sweep_functions_called(monkeypatch, tmp_path):
    """The traced sweep_default workload fails unless every function of its
    expected list is called.  A tiny writing sweep calls them all, counted
    by the benchmark's own tracer."""
    import ldglimit.runner as runner

    workloads = _perfbench_module(monkeypatch, "workloads")
    tracer_module = _perfbench_module(monkeypatch, "tracer")
    expected = workloads.FULL["sweep_default"].expected
    tracer = tracer_module.Tracer()
    tracer.install("ldglimit", expected)
    try:
        runner.run_sweep(tiny_config(output_dir=str(tmp_path)), log=[].append)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    stats = tracer_module.aggregate(tracer.dump())
    assert [name for name in expected if stats[name]["calls"] == 0] == []
