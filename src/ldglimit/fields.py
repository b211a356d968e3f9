"""Discrete Q-tensor fields on a uniform 3D grid over a box, with one layer
of Dirichlet boundary nodes, second-order finite-difference calculus,
energies, norms and boundary-data generators.

Grid layout: values has shape (n1+2, n2+2, n3+2, 3, 3), or (n1+2, n2+2,
n3+2, 5) for the S0 coordinates the LdG solver works on; indices 0 and n+1
per axis are the frozen boundary layer, nodes sit at lo + i*h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CenterOnBoundary, GridMismatch
from .geometry import MaterialParams, uniaxial
from .bulk import f_bulk_shifted
from .tensor_algebra import norm

_IN = np.s_[1:-1]
# interior nodes per slab of the field diagnostics, rounded down to whole
# first-axis planes (at least one).  projection_residual at 48^3 peaked at
# 159 MiB traced over the whole grid, 12 MiB in slabs of 8192 nodes and 25
# MiB in 16384 (warm: 261 and 251 ms, median of 12).  In a fresh process
# running the benchmark's 48^3 diagnostics, 16384-node slabs hand their
# temporaries back to the OS and fault them in again every slab (31k minor
# faults, 303 ms per call, median of 10); 8192 do not (1.3k, 231 ms).
SLAB_NODES = 8192


@dataclass(frozen=True)
class GridSpec:
    """Interior point counts per axis and the axis-aligned box."""

    dims: tuple[int, int, int]
    box: tuple[tuple[float, float], tuple[float, float], tuple[float, float]] = (
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, 1.0),
    )

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 3 for d in self.dims):
            raise ValueError("dims must be three integers >= 3")
        if not all(-np.inf < lo < hi < np.inf for lo, hi in self.box):
            raise ValueError("box bounds must be finite and increasing")

    @property
    def h(self) -> np.ndarray:
        """Node spacing per axis."""
        return np.array(
            [(hi - lo) / (d + 1) for (lo, hi), d in zip(self.box, self.dims)]
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        """Node-lattice shape including the boundary layer."""
        return tuple(d + 2 for d in self.dims)

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, _ = self.box[axis]
        return lo + self.h[axis] * np.arange(self.dims[axis] + 2)

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n1+2, n2+2, n3+2, 3)."""
        axes = [self.axis_coords(a) for a in range(3)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod(self.h))


@dataclass
class TensorField:
    """Q-tensor values on all nodes of a grid; the outer layer is Dirichlet
    data and must not be modified by solvers."""

    grid: GridSpec
    values: np.ndarray  # (n1+2, n2+2, n3+2, 3, 3) or (n1+2, n2+2, n3+2, 5)

    def copy(self) -> "TensorField":
        return TensorField(self.grid, self.values.copy())

    @property
    def interior(self) -> np.ndarray:
        """View of the interior nodes (writable)."""
        return self.values[_IN, _IN, _IN]

    def with_interior(self, interior: np.ndarray) -> "TensorField":
        out = self.copy()
        out.values[_IN, _IN, _IN] = interior
        return out

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.grid.shape, dtype=bool)
        mask[_IN, _IN, _IN] = False
        return mask


def require_same_grid(f: TensorField, g: TensorField) -> None:
    """Raise GridMismatch unless the two fields share one grid."""
    if f.grid != g.grid:
        raise GridMismatch("fields live on different grids")


def plane_slabs(grid: GridSpec):
    """Yield the diagnostics' slabs as interior first-axis plane ranges
    (lo, hi): as many whole planes as fit in SLAB_NODES interior nodes, at
    least one.  A slab's lattice planes, one halo plane on either side, are
    values[lo:hi + 2]."""
    n1, n2, n3 = grid.dims
    planes = max(1, SLAB_NODES // (n2 * n3))
    for lo in range(0, n1, planes):
        yield lo, min(lo + planes, n1)


def laplacian_array(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """7-point stencil Laplacian at the inner nodes [1:-1]^3 of any
    lattice array (a field's values, or an interior-node array)."""
    c = values[_IN, _IN, _IN]
    out = (values[2:, _IN, _IN] - 2.0 * c + values[:-2, _IN, _IN]) / h[0] ** 2
    out += (values[_IN, 2:, _IN] - 2.0 * c + values[_IN, :-2, _IN]) / h[1] ** 2
    out += (values[_IN, _IN, 2:] - 2.0 * c + values[_IN, _IN, :-2]) / h[2] ** 2
    return out


def laplacian_eigenvalues(n: int, step: float) -> np.ndarray:
    """Eigenvalues 4 sin^2(pi k / (2 (n + 1))) / step^2, k = 1..n, of the
    second difference -u'' on n nodes with zero Dirichlet data, in DST-I
    order; -lap's are their sums over the three axes."""
    k = np.arange(1, n + 1)
    return 4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2 / step**2


@lru_cache(maxsize=8)
def _sine_basis(dims: tuple, h: tuple, shift: float) -> tuple:
    """The DST-I matrices sin(pi j k / (n + 1)), j, k = 1..n, one per axis,
    and the inverse eigenvalues of -lap + shift times the DST-I's inverse
    factor prod_a 2 / (n_a + 1)."""
    mats = []
    for n in dims:
        k = np.arange(1, n + 1)
        # jk reduced mod 2(n + 1) keeps every sine argument in [0, 2 pi)
        mats.append(np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1)))
    e0, e1, e2 = (laplacian_eigenvalues(n, step) for n, step in zip(dims, h))
    lam = shift + e0[:, None, None] + e1[:, None] + e2
    return mats, float(np.prod([2.0 / (n + 1) for n in dims])) / lam


def poisson_dirichlet(rhs: np.ndarray, h: np.ndarray, shift=0.0) -> np.ndarray:
    """Solve (-lap + shift) u = rhs (7-point stencil, zero Dirichlet data)
    for u at the interior nodes; rhs is an interior-node array.

    The stencil is diagonal in the DST-I basis with eigenvalues
    sum_a laplacian_eigenvalues(n_a, h_a)[k_a - 1], and DST-I is its own
    inverse up to a factor 2 / (n_a + 1) per axis.  Each DST-I is a product
    with a dense sine matrix per axis (BLAS gemm, about 20x faster than an
    FFT at 16^3); the matrices and eigenvalues are built once per grid and
    shift.
    """
    n0, n1, n2 = dims = rhs.shape[:3]
    (s0, s1, s2), scale = _sine_basis(dims, tuple(map(float, h)), float(shift))

    def dst(x):
        x = s0 @ x.reshape(n0, -1)
        x = s1 @ x.reshape(n0, n1, -1)
        return (s2 @ x.reshape(n0 * n1, n2, -1)).reshape(rhs.shape)

    coef = dst(rhs)
    coef *= scale.reshape(dims + (1,) * (rhs.ndim - 3))
    return dst(coef)


def gradient_array(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Centered-difference gradient at the inner nodes [1:-1]^3; axis 0
    stacks the three directions."""
    out = np.empty((3,) + values[_IN, _IN, _IN].shape)
    for axis in range(3):
        fwd, bwd = [_IN] * 3, [_IN] * 3
        fwd[axis], bwd[axis] = slice(2, None), slice(None, -2)
        np.subtract(values[tuple(fwd)], values[tuple(bwd)], out=out[axis])
        out[axis] /= 2.0 * h[axis]
    return out


def edge_grad_squared(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stencil-compatible sum over directions of (grad_alpha Q)^2 at interior
    nodes: the average of squared forward and backward differences.

    This is the discrete square obeying the exact product rule
    lap(Q^2) = Q lap(Q) + lap(Q) Q + 2 * edge_grad_squared(Q), which the
    centered-difference square satisfies only to O(h^2).
    """
    out = _edge_square_mean(values, h, 0)
    out += _edge_square_mean(values, h, 1)
    out += _edge_square_mean(values, h, 2)
    return out


def _edge_square_mean(values: np.ndarray, h: np.ndarray, axis: int) -> np.ndarray:
    """Mean of the squared differences on the two edges along axis at each
    interior node, over h^2: one difference and one square per edge."""
    inner = [_IN, _IN, _IN]
    inner[axis] = slice(None)
    # rebinding drops the differences once squared: at most two edge-sized
    # arrays are alive at a time
    sq = np.diff(values[tuple(inner)], axis=axis)
    sq = sq @ sq
    fwd, bwd = [slice(None)] * 3, [slice(None)] * 3
    fwd[axis], bwd[axis] = slice(1, None), slice(None, -1)
    out = sq[tuple(fwd)] + sq[tuple(bwd)]
    out /= 2.0 * h[axis] ** 2
    return out


def _trapezoid_weights_1d(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def node_weights(grid: GridSpec) -> np.ndarray:
    """Product trapezoid quadrature weights over the full node lattice."""
    w1, w2, w3 = (_trapezoid_weights_1d(n) for n in grid.shape)
    return w1[:, None, None] * w2[None, :, None] * w3[None, None, :]


def dirichlet_energy(f: TensorField) -> float:
    """Edge-based discrete integral of |grad Q|^2 over the box.

    Per-axis forward differences on edges, weighted by transverse trapezoid
    weights; exact for linear fields, and its gradient w.r.t. interior nodes
    is the 7-point Laplacian.  The squared norm contracts every trailing
    axis, so S0-coordinate fields (..., 5) give the same energy as their
    matrices.
    """
    v = f.values
    h = f.grid.h
    total = 0.0
    for axis in range(3):
        d = np.diff(v, axis=axis)
        # the weights are 1/2 on each transverse boundary face (1/4 where two
        # meet): the full sum minus half of each face pair plus a quarter
        # of their four edges
        a, b = (other for other in range(3) if other != axis)
        faces_a = d.take([0, -1], axis=a)
        faces_b = d.take([0, -1], axis=b)
        edges = faces_a.take([0, -1], axis=b)
        weighted = (
            _sum_squares(d)
            - 0.5 * (_sum_squares(faces_a) + _sum_squares(faces_b))
            + 0.25 * _sum_squares(edges)
        )
        total += weighted / h[axis] ** 2
    return total * f.grid.cell_volume()


def _sum_squares(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def bulk_energy(f: TensorField, p: MaterialParams) -> float:
    """Trapezoid-quadrature integral of the shifted bulk density."""
    density = f_bulk_shifted(f.values, p)
    return float(np.sum(node_weights(f.grid) * density)) * f.grid.cell_volume()


def center_offsets(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each node's offset from the box center, shape (n1+2, n2+2, n3+2, 3),
    and its squared length."""
    rel = grid.coords() - np.array([(lo + hi) / 2.0 for lo, hi in grid.box])
    return rel, np.sum(rel**2, axis=-1)


def boundary_hedgehog(grid: GridSpec, p: MaterialParams) -> TensorField:
    """Radial uniaxial data s_+(r^ (x) r^ - I/3) about the box center.
    Raises CenterOnBoundary when a node lies within 1e-12 of the smallest
    node spacing from the center; with an even interior point count per
    axis the center is offset from the lattice by h/2."""
    rel, r2 = center_offsets(grid)
    if np.min(r2) < (1e-12 * np.min(grid.h)) ** 2:
        raise CenterOnBoundary("a lattice node coincides with the box center")
    return TensorField(grid, uniaxial(rel / np.sqrt(r2)[..., None], p.s_plus))


def boundary_near_constant(
    grid: GridSpec, p: MaterialParams, eps: float
) -> TensorField:
    """On-manifold data close to a constant uniaxial state, the config's
    pattern "tilt_x": the director e3 is tilted in the (e1, e3)-plane by
    angle (eps/sqrt(2)) sin(pi x1^), x1^ the normalized first coordinate.
    The sup variation of the data is then at most eps * s_+.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    lo, hi = grid.box[0]
    xhat = (grid.coords()[..., 0] - lo) / (hi - lo)
    theta = (eps / np.sqrt(2.0)) * np.sin(np.pi * xhat)
    n = np.stack(
        [np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1
    )
    return TensorField(grid, uniaxial(n, p.s_plus))


def interior_margin_mask(grid: GridSpec, margin: float) -> np.ndarray:
    """Boolean mask over interior nodes at distance >= margin from the box
    boundary.  Raises ValueError if no interior node lies that far in."""
    widths = [hi - lo for lo, hi in grid.box]
    if margin < 0 or margin >= min(widths) / 2.0:
        raise ValueError("margin must lie in [0, half box width)")
    mask = np.ones(grid.dims, dtype=bool)
    for axis, (lo, hi) in enumerate(grid.box):
        x = grid.axis_coords(axis)[_IN]
        keep = (x - lo >= margin - 1e-12) & (hi - x >= margin - 1e-12)
        mask &= keep.reshape([-1 if a == axis else 1 for a in range(3)])
    if not mask.any():
        raise ValueError(f"margin {margin:g} leaves no interior node")
    return mask


def norms(f: TensorField, g: TensorField, margin: float = 0.0) -> dict[str, float]:
    """L2, H1-seminorm and interior sup distance between two fields, over
    plane_slabs: the squared norms add up per-slab sums."""
    require_same_grid(f, g)
    l2 = h1 = 0.0
    dist = np.empty(f.grid.dims)
    for lo, hi in plane_slabs(f.grid):
        diff = f.values[lo:hi + 2] - g.values[lo:hi + 2]
        d = diff[_IN, _IN, _IN]
        l2 += np.einsum("xyzij,xyzij->", d, d)
        grads = gradient_array(diff, f.grid.h)
        h1 += np.einsum("axyzij,axyzij->", grads, grads)
        dist[lo:hi] = norm(d)
    vol = f.grid.cell_volume()
    l2, h1 = float(np.sqrt(l2 * vol)), float(np.sqrt(h1 * vol))
    sup = float(np.max(dist[interior_margin_mask(f.grid, margin)]))
    return {"l2": l2, "h1_semi": h1, "sup_interior": sup}


_FLOAT_FORMAT = "%.17g"  # 17 significant digits round-trip a float exactly


def format_value(v) -> str:
    """The artifact number format: _FLOAT_FORMAT for a float, else str."""
    return _FLOAT_FORMAT % v if isinstance(v, float) else str(v)


# the (row, column) of each Q component a field CSV stores; Q33 = -Q11 - Q22
_CSV_COMPONENTS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))
CSV_HEADER = "x,y,z," + ",".join(f"Q{i + 1}{j + 1}" for i, j in _CSV_COMPONENTS)


def save_field_csv(f: TensorField, path) -> None:
    """Write node coordinates plus the 5 independent components, C (row
    major, z fastest) node order, every number in format_value's format."""
    axes = [[format_value(c) for c in f.grid.axis_coords(a)] for a in range(3)]
    # each (y, z) pair's row after x, with the component fields to fill in
    tail = ",".join([_FLOAT_FORMAT] * len(_CSV_COMPONENTS))
    yz = [f"{y},{z},{tail}" for y in axes[1] for z in axes[2]]
    with open(path, "w", newline="") as fh:
        dims = ",".join(map(str, f.grid.dims))
        box = ",".join(format_value(b) for pair in f.grid.box for b in pair)
        fh.write(f"# dims={dims}\n# box={box}\n{CSV_HEADER}\n")
        # one format call per first-axis plane (at 48^3 as fast as 512-row blocks)
        for x, slab in zip(axes[0], f.values):
            v = slab.reshape(-1, 3, 3)
            block = np.column_stack([v[:, i, j] for i, j in _CSV_COMPONENTS])
            rows = f"{x}," + f"\n{x},".join(yz) + "\n"
            fh.write(rows % tuple(block.ravel().tolist()))


def _header_numbers(path, lineno: int, line: str, key: str, kind, count: int):
    """The count numbers of a field CSV's '# key=' comment line, or a
    ValueError naming the line."""
    head, _, text = line.rstrip("\n").partition("=")
    try:
        values = [kind(x) for x in text.split(",")]
    except ValueError:
        values = []
    if head != f"# {key}" or len(values) != count:
        raise ValueError(f"{path}: line {lineno} is not '# {key}=' and "
                         f"{count} comma-separated numbers: {line!r}")
    return values


def load_field_csv(path) -> TensorField:
    """Inverse of save_field_csv, read one first-axis plane at a time so
    that only one plane's parsed rows live beside the output.  Raises
    ValueError unless the two comment lines hold three dims and six box
    bounds, the column header is CSV_HEADER, every plane holds n2*n3 rows
    and no data row follows the last plane."""
    with open(path) as fh:
        dims = tuple(_header_numbers(path, 1, fh.readline(), "dims", int, 3))
        b = _header_numbers(path, 2, fh.readline(), "box", float, 6)
        grid = GridSpec(dims=dims, box=((b[0], b[1]), (b[2], b[3]), (b[4], b[5])))
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"{path}: column header is not {CSV_HEADER}")
        values = np.empty(grid.shape + (3, 3))
        rows = grid.shape[1] * grid.shape[2]
        for x, plane in enumerate(values.reshape(grid.shape[0], rows, 3, 3)):
            comp = np.loadtxt(fh, delimiter=",", usecols=range(3, 8),
                              max_rows=rows, ndmin=2)
            if len(comp) != rows:
                raise ValueError(f"{path}: plane {x} has {len(comp)} of {rows} rows")
            for k, (i, j) in enumerate(_CSV_COMPONENTS):
                plane[:, i, j] = plane[:, j, i] = comp[:, k]
            plane[:, 2, 2] = -comp[:, 0] - comp[:, 1]
        # loadtxt skips blank and '#' comment lines; so does this check
        if any(line.split("#", 1)[0].strip() for line in fh):
            raise ValueError(f"{path}: data rows follow the last plane")
    return TensorField(grid, values)
