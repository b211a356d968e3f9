"""Configuration round-trips, command-line entry points, the package's
export table and the names the benchmark traces."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import ldglimit
from ldglimit.cli import main
from ldglimit.config import ExperimentConfig, load_config, parse_config


def tiny_config(**overrides):
    base = dict(
        dims=(6, 6, 6),
        box_lo=0.0,
        box_hi=3.0,
        l_ladder=(0.1, 0.05, 0.025),
        eps=0.2,
        margin=0.0,
        max_iters=4000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_serialize_parse_round_trip():
    for cfg in (
        ExperimentConfig(),
        tiny_config(a2=0.3, b2=1.7, c2=2.0, seed=9, output_dir="elsewhere",
                    residual_tol=3.5e-8, boundary="hedgehog"),
    ):
        assert parse_config(cfg.serialize()) == cfg


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
        dict(margin=-1.0),
        dict(margin=10.0),                  # >= half box width (default box 8)
        dict(margin=0.1),                   # positive but below 2h
        dict(dt_safety=1.5),
        dict(max_iters=0),
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


@pytest.mark.parametrize("line", ["a2=0", "dt_safety=1.5", "dims=8,8"])
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
    assert main(["corrector", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_every_export_resolves():
    for name in ldglimit.__all__:
        assert getattr(ldglimit, name) is not None, name


def test_benchmark_traced_names_resolve(monkeypatch):
    """Every module.function the benchmark traces exists in the package, so
    renaming or deleting one shows here and not only in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building its classes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.TRACED
    for name in workloads.TRACED:
        module, function = name.split(".")
        assert callable(getattr(getattr(ldglimit, module), function, None)), name
