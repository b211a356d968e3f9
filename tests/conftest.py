"""Shared fixtures and helpers for the test suite."""

import time

import numpy as np
import pytest

from ldglimit.config import ExperimentConfig
from ldglimit.fields import GridSpec, TensorField
from ldglimit.geometry import MaterialParams
from ldglimit.runner import run_sweep
from ldglimit.tensor_algebra import qtensor


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_params():
    return MaterialParams(a2=1.0, b2=1.0, c2=1.0)


@pytest.fixture(scope="session")
def sweep_report():
    """The default sweep (near-constant eps=0.2 boundary, unit material
    constants, 16^3 grid, ladder 0.16/0.08/0.04/0.02), run once."""
    cfg = ExperimentConfig()
    t0 = time.monotonic()
    rep = run_sweep(cfg, write=False)
    rep.elapsed = time.monotonic() - t0
    return rep


def tiny_config(**overrides):
    """A 6^3 config with a three-rung ladder, for fast end-to-end runs."""
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


def zeros_field(grid: GridSpec) -> TensorField:
    return TensorField(grid, np.zeros(grid.shape + (3, 3)))


def random_qtensors(rng, n, scale=1.0):
    """Random symmetric traceless matrices, shape (n, 3, 3)."""
    return qtensor(rng.normal(scale=scale, size=(n, 3, 3)))


def random_directors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def prolate_head_batch(rng, n_prolate, n_tail=64):
    """n_prolate + n_tail symmetric matrices: first the zero matrix and
    prolate ones (the traceless part has a positive determinant), near
    uniaxial at s_+ = 1.5, exactly or up to perturbations of 1e-12 to 0.05,
    scaled and shifted by multiples of I; then a tail of such prolate
    matrices, their negatives (oblate) and one NaN matrix."""
    n = n_prolate + n_tail
    d = random_directors(rng, n)
    pert = rng.normal(size=(n, 3, 3))
    pert = 0.5 * (pert + np.swapaxes(pert, -1, -2))
    amp = rng.choice([0.0, 1e-12, 1e-3, 0.05], size=n)[:, None, None]
    gain = rng.choice([1.0, 1e-8, 1e8], size=n)[:, None, None]
    shift = rng.normal(size=n)[:, None, None]
    q = gain * (1.5 * (d[:, :, None] * d[:, None, :] - np.eye(3) / 3.0) + amp * pert)
    q += shift * gain * np.eye(3)
    q[0] = 0.0
    q[n_prolate::2] *= -1.0
    q[n_prolate + 1] = np.nan
    return q
