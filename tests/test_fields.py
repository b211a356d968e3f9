"""Grid fields: stencil calculus, discrete energies, boundary-data
generators, norms, and CSV round-trips."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from ldglimit.errors import CenterOnBoundary, GridMismatch
from ldglimit.fields import (
    GridSpec,
    TensorField,
    boundary_hedgehog,
    boundary_near_constant,
    bulk_energy,
    dirichlet_energy,
    edge_grad_squared,
    gradient_array,
    interior_margin_mask,
    laplacian_array,
    load_field_csv,
    node_weights,
    norms,
    save_field_csv,
)
from ldglimit.bulk import f_bulk_shifted
from ldglimit.geometry import MaterialParams, uniaxial
from ldglimit.tensor_algebra import norm, poly_min, qtensor

from conftest import zeros_field

_IN = np.s_[1:-1]


def small_grid(dims=(6, 5, 4), box=((0.0, 1.2), (0.0, 1.0), (0.0, 0.8))):
    return GridSpec(dims=dims, box=box)


def test_gridspec_layout():
    grid = small_grid()
    assert grid.shape == (8, 7, 6)
    assert np.allclose(grid.h, [1.2 / 7, 1.0 / 6, 0.8 / 5])
    x = grid.axis_coords(0)
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.2)
    c = grid.coords()
    assert c.shape == (8, 7, 6, 3)
    assert grid.cell_volume() == pytest.approx(float(np.prod(grid.h)))
    with pytest.raises(ValueError):
        GridSpec(dims=(2, 5, 5))
    with pytest.raises(ValueError):
        GridSpec(dims=(4, 4, 4), box=((0.0, 0.0), (0.0, 1.0), (0.0, 1.0)))
    for bad in ((0.0, float("nan")), (float("-inf"), 1.0), (0.0, float("inf"))):
        with pytest.raises(ValueError):
            GridSpec(dims=(4, 4, 4), box=((0.0, 1.0), bad, (0.0, 1.0)))


def test_laplacian_and_gradient_exact_on_polynomials(rng):
    grid = small_grid()
    m = qtensor(rng.normal(size=(3, 3)))
    x = grid.coords()[..., 0]

    # constant field
    f = zeros_field(grid)
    f.values[...] = m
    assert np.max(np.abs(laplacian_array(f.values, grid.h))) < 1e-12
    assert np.max(np.abs(gradient_array(f.values, grid.h))) < 1e-12

    # quadratic M * x^2: Laplacian exactly 2M, gradient exactly 2 x M
    f.values[...] = x[..., None, None] ** 2 * m
    lap = laplacian_array(f.values, grid.h)
    assert np.max(np.abs(lap - 2.0 * m)) < 1e-10
    g = gradient_array(f.values, grid.h)
    x_in = x[_IN, _IN, _IN]
    assert np.max(np.abs(g[0] - 2.0 * x_in[..., None, None] * m)) < 1e-10
    assert np.max(np.abs(g[1])) < 1e-12
    assert np.max(np.abs(g[2])) < 1e-12


def test_laplacian_second_order_on_smooth_field(rng):
    """Richardson: halving h reduces the stencil error by about 4."""
    m = qtensor(rng.normal(size=(3, 3)))

    def err(n):
        grid = GridSpec(dims=(n, n, n), box=((0.0, 1.0),) * 3)
        c = grid.coords()
        u = np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]) * np.sin(np.pi * c[..., 2])
        vals = u[..., None, None] * m
        lap = laplacian_array(vals, grid.h)
        exact = -3.0 * np.pi**2 * vals[_IN, _IN, _IN]
        return float(np.max(np.abs(lap - exact)))

    ratio = err(10) / err(21)  # h ratio 2 exactly (11 vs 22 cells)
    assert 3.2 < ratio < 4.8


def test_edge_grad_squared_exact_product_rule(rng):
    """The defining property: lap(Q^2) = Q lap(Q) + lap(Q) Q + 2 G at
    rounding level for arbitrary node data."""
    grid = small_grid()
    v = rng.normal(size=grid.shape + (3, 3))
    v = qtensor(v)
    lap_sq = laplacian_array(v @ v, grid.h)
    lap = laplacian_array(v, grid.h)
    q = v[_IN, _IN, _IN]
    g = edge_grad_squared(v, grid.h)
    res = lap_sq - (q @ lap + lap @ q + 2.0 * g)
    scale = float(np.max(np.abs(lap_sq))) + 1.0
    assert np.max(np.abs(res)) < 1e-10 * scale


def test_node_weights_integrate_constants():
    grid = small_grid()
    total = float(np.sum(node_weights(grid))) * grid.cell_volume()
    vol = np.prod([hi - lo for lo, hi in grid.box])
    assert total == pytest.approx(float(vol), rel=1e-12)


def test_dirichlet_energy_examples(rng):
    grid = small_grid()
    m = qtensor(rng.normal(size=(3, 3)))
    f = zeros_field(grid)
    f.values[...] = m
    assert dirichlet_energy(f) == pytest.approx(0.0, abs=1e-14)
    # linear field M * x1: |grad|^2 = |M|^2 over the box
    x = grid.coords()[..., 0]
    f.values[...] = x[..., None, None] * m
    vol = float(np.prod([hi - lo for lo, hi in grid.box]))
    expected = vol * float(np.sum(m * m))
    assert dirichlet_energy(f) == pytest.approx(expected, rel=1e-10)


def test_dirichlet_energy_gradient_is_stencil_laplacian(rng):
    """Perturbing one interior node changes the energy with derivative
    -2 * vol * lap at that node (the solver relies on this pairing)."""
    grid = small_grid()
    f = TensorField(grid, qtensor(rng.normal(size=grid.shape + (3, 3))))
    at = (3, 2, 2)
    e = np.zeros(grid.shape + (3, 3))
    direction = qtensor(rng.normal(size=(3, 3)))
    e[at] = direction
    step = 1e-6
    d_fd = (
        dirichlet_energy(TensorField(grid, f.values + step * e))
        - dirichlet_energy(TensorField(grid, f.values - step * e))
    ) / (2.0 * step)
    lap = laplacian_array(f.values, grid.h)[at[0] - 1, at[1] - 1, at[2] - 1]
    d_an = -2.0 * grid.cell_volume() * float(np.sum(lap * direction))
    assert d_fd == pytest.approx(d_an, rel=1e-6, abs=1e-10)


def test_bulk_and_total_energy(rng):
    grid = small_grid()
    p = MaterialParams(1.0, 1.0, 1.0, L=0.07)
    # constant non-manifold field: integral is |box| * shifted density
    q0 = qtensor(np.diag([0.4, 0.1, -0.5]))
    f = zeros_field(grid)
    f.values[...] = q0
    vol = float(np.prod([hi - lo for lo, hi in grid.box]))
    expected = vol * float(f_bulk_shifted(q0, p))
    assert bulk_energy(f, p) == pytest.approx(expected, rel=1e-12)
    # manifold-valued constant field has zero total shifted energy
    f.values[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    total = 0.5 * p.L * dirichlet_energy(f) + bulk_energy(f, p)
    assert total == pytest.approx(0.0, abs=1e-13)


def test_boundary_hedgehog(unit_params):
    p = unit_params
    s = p.s_plus
    grid = GridSpec(dims=(6, 6, 6), box=((-1.0, 1.0),) * 3)
    f = boundary_hedgehog(grid, p)
    # all nodes on the manifold
    assert np.max(norm(poly_min(f.values, s))) < 1e-12
    assert f.values.shape == grid.shape + (3, 3)
    # odd interior counts put a node at the center -> error
    with pytest.raises(CenterOnBoundary):
        boundary_hedgehog(GridSpec(dims=(5, 5, 5), box=((-1.0, 1.0),) * 3), p)


def test_boundary_hedgehog_radial_value(unit_params):
    p = unit_params
    s = p.s_plus
    grid = GridSpec(dims=(4, 4, 4), box=((-1.0, 1.0),) * 3)
    f = boundary_hedgehog(grid, p)
    center = np.zeros(3)
    coords = grid.coords()
    rel = coords - center
    nhat = rel / np.linalg.norm(rel, axis=-1, keepdims=True)
    expected = uniaxial(nhat, s)
    assert np.max(norm(f.values - expected)) < 1e-12


def test_boundary_near_constant(unit_params):
    p = unit_params
    s = p.s_plus
    grid = GridSpec(dims=(6, 6, 6), box=((0.0, 2.0),) * 3)
    f0 = boundary_near_constant(grid, p, 0.0)
    q0 = uniaxial(np.array([0.0, 0.0, 1.0]), s)
    assert np.max(norm(f0.values - q0)) < 1e-13
    eps = 0.3
    f = boundary_near_constant(grid, p, eps)
    assert np.max(norm(poly_min(f.values, s))) < 1e-12
    assert np.max(norm(f.values - q0)) <= eps * s + 1e-12
    with pytest.raises(ValueError):
        boundary_near_constant(grid, p, -0.1)


def test_interior_margin_mask():
    grid = GridSpec(dims=(6, 6, 6), box=((0.0, 7.0),) * 3)  # h = 1
    all_mask = interior_margin_mask(grid, 0.0)
    assert all_mask.shape == (6, 6, 6)
    assert np.all(all_mask)
    m2 = interior_margin_mask(grid, 2.0)
    # nodes at coordinates 1..6; margin 2 keeps 2..5 -> 4 per axis
    assert np.count_nonzero(m2) == 4**3
    with pytest.raises(ValueError):
        interior_margin_mask(grid, 3.6)
    with pytest.raises(ValueError):
        interior_margin_mask(grid, -1.0)
    # below half the width (3.5) but past every node (1..6)
    with pytest.raises(ValueError, match="no interior node"):
        interior_margin_mask(grid, 3.4)
    # a non-cubic grid, with margins just inside and just outside the 1e-12
    # slack at the first node of the shortest axis: the mask is the one the
    # node coordinates define
    grid = small_grid()
    x = grid.coords()[_IN, _IN, _IN]
    edge = float(grid.axis_coords(2)[1])
    masks = []
    for margin in (edge + 0.5e-12, edge + 2e-12, 0.3):
        expected = np.ones(grid.dims, dtype=bool)
        for axis, (lo, hi) in enumerate(grid.box):
            c = x[..., axis]
            expected &= (c - lo >= margin - 1e-12) & (hi - c >= margin - 1e-12)
        masks.append(interior_margin_mask(grid, margin))
        assert np.array_equal(masks[-1], expected)
    assert np.count_nonzero(masks[0]) > np.count_nonzero(masks[1]) > 0


def test_norms_hand_example(rng):
    grid = GridSpec(dims=(5, 5, 5), box=((0.0, 1.0),) * 3)
    base = TensorField(grid, qtensor(rng.normal(size=grid.shape + (3, 3))))
    d = qtensor(np.diag([2.0, -1.0, -1.0]))
    other = TensorField(grid, base.values + d)
    out = norms(other, base)
    n_int = 5**3
    expected_l2 = float(norm(d)) * np.sqrt(n_int * grid.cell_volume())
    assert out["l2"] == pytest.approx(expected_l2, rel=1e-12)
    assert out["h1_semi"] == pytest.approx(0.0, abs=1e-12)
    assert out["sup_interior"] == pytest.approx(float(norm(d)), rel=1e-12)
    with pytest.raises(GridMismatch):
        norms(base, TensorField(GridSpec(dims=(4, 5, 5)), np.zeros((6, 7, 7, 3, 3))))


def test_csv_round_trip(tmp_path, rng):
    grid = small_grid(dims=(4, 3, 5), box=((-0.5, 1.0), (0.0, 2.0), (1.0, 1.5)))
    f = TensorField(grid, qtensor(rng.normal(size=grid.shape + (3, 3))))
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    g = load_field_csv(path)
    assert g.grid == f.grid
    # 17 significant digits round-trip the five stored components exactly;
    # Q33 is reconstructed from tracelessness, so it matches to rounding only
    for i, j in ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2)):
        assert np.array_equal(g.values[..., i, j], f.values[..., i, j])
    assert np.max(np.abs(g.values - f.values)) < 1e-14
    # saving the loaded field reproduces the file byte for byte
    path2 = tmp_path / "field2.csv"
    save_field_csv(g, path2)
    assert path.read_bytes() == path2.read_bytes()


# each edit of a saved (4, 3, 5) field's lines (three comment/header lines,
# then 6 first-axis planes of 5 * 7 = 35 rows) and the error it must raise
_CSV_DAMAGE = {
    "last row dropped": (lambda lines: lines[:-1], "plane 5 has 34 of 35 rows"),
    "last plane cut to one row": (
        lambda lines: lines[:3 + 5 * 35 + 1], "plane 5 has 1 of 35 rows"
    ),
    "one extra row": (lambda lines: lines + lines[-1:], "follow the last plane"),
    "wrong column header": (
        lambda lines: lines[:2] + [lines[2].replace("Q12", "Q33")] + lines[3:],
        "column header",
    ),
    "empty file": (lambda lines: [], "line 1 is not '# dims='"),
    "dims line without '='": (
        lambda lines: [lines[0].replace("=", " ")] + lines[1:],
        "line 1 is not '# dims='",
    ),
    "box line with five numbers": (
        lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + "\n"] + lines[2:],
        "line 2 is not '# box=' and 6",
    ),
}


@pytest.mark.parametrize("damage", sorted(_CSV_DAMAGE))
def test_csv_reader_rejects_malformed_files(tmp_path, rng, damage):
    """A file the writer cannot have written raises a ValueError that says
    what is wrong instead of loading: an empty file or a malformed dims or
    box line, columns named other than CSV_HEADER, a short plane, or
    surplus rows."""
    grid = small_grid(dims=(4, 3, 5))
    path = tmp_path / "field.csv"
    f = TensorField(grid, qtensor(rng.normal(size=grid.shape + (3, 3))))
    save_field_csv(f, path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3 + 6 * 35
    edit, message = _CSV_DAMAGE[damage]
    path.write_text("".join(edit(lines)))
    with pytest.raises(ValueError, match=message):
        load_field_csv(path)


def test_csv_reader_memory_is_about_its_output(tmp_path, rng):
    """The reader parses one first-axis plane at a time: its traced peak
    above entry stays within 1.25x the array it returns (a whole-file parse
    beside the output measured 1.68x)."""
    grid = small_grid(dims=(30, 30, 30))
    path = tmp_path / "field.csv"
    f = TensorField(grid, qtensor(rng.normal(size=grid.shape + (3, 3))))
    save_field_csv(f, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_field_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.25 * g.values.nbytes


def test_csv_bytes_match_per_value_format(tmp_path, rng):
    """The writer prints every value exactly as f"{x:.17g}" does,
    including signed zeros, subnormals and large exponents, across many
    planes of many rows."""
    grid = small_grid(dims=(18, 17, 16))
    values = rng.normal(size=grid.shape + (3, 3))
    flat = values.reshape(-1, 3, 3)
    flat[0, 0, 0] = -0.0
    flat[1, 1, 1] = 5e-324
    flat[2, 0, 1] = 1e300
    flat[-1, 1, 2] = -0.0
    f = TensorField(grid, values)
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    coords = grid.coords().reshape(-1, 3)
    cols = np.column_stack([coords, flat[:, 0, 0], flat[:, 1, 1], flat[:, 0, 1],
                            flat[:, 0, 2], flat[:, 1, 2]])
    assert len(cols) > 4096
    box = ",".join(f"{b:.17g}" for pair in grid.box for b in pair)
    lines = ["# dims=18,17,16", f"# box={box}", "x,y,z,Q11,Q22,Q12,Q13,Q23"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in cols]
    expected = ("\n".join(lines) + "\n").encode()
    assert path.read_bytes() == expected
    assert b",-0," in expected and b"4.9406564584124654e-324" in expected
    assert b"1e+300" in expected


def test_csv_golden_bytes(tmp_path):
    """The file bytes of a non-cubic field whose first-axis planes hold 704
    rows each.  Coordinates and values are small integers over powers of
    two, so the digest pins the writer's format alone; it was taken from
    the writer that formatted blocks of 512 rows."""
    grid = GridSpec(dims=(3, 30, 20), box=((0.0, 1.0), (-2.0, 1.875), (0.5, 5.75)))
    k = np.arange(np.prod(grid.shape) * 9).reshape(grid.shape + (3, 3))
    path = tmp_path / "field.csv"
    save_field_csv(TensorField(grid, ((7 * k) % 23 - 11) / 64.0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cdcc2b0700cb3a8fb1b2809b579bc212e3b5523f1cb0932e745ec370e315eb04"
    )
