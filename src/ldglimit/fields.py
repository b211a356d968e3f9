"""Discrete Q-tensor fields on a uniform 3D grid over a box, with one layer
of Dirichlet boundary nodes, second-order finite-difference calculus,
energies, norms and boundary-data generators.

Grid layout: values has shape (n1+2, n2+2, n3+2, 3, 3); indices 0 and n+1
per axis are the frozen boundary layer, nodes sit at lo + i*h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterOnBoundary, GridMismatch
from .geometry import MaterialParams, uniaxial
from .bulk import f_bulk_shifted
from .tensor_algebra import norm

_IN = np.s_[1:-1]


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
        if any(hi <= lo for lo, hi in self.box):
            raise ValueError("box bounds must be increasing")

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
    values: np.ndarray  # (n1+2, n2+2, n3+2, 3, 3)

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


def zeros_field(grid: GridSpec) -> TensorField:
    return TensorField(grid, np.zeros(grid.shape + (3, 3)))


def _require_same_grid(f: TensorField, g: TensorField) -> None:
    if f.grid != g.grid:
        raise GridMismatch("fields live on different grids")


def laplacian_array(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """7-point stencil Laplacian at the inner nodes [1:-1]^3 of any
    lattice array (a field's values, or an interior-node array)."""
    c = values[_IN, _IN, _IN]
    out = (values[2:, _IN, _IN] - 2.0 * c + values[:-2, _IN, _IN]) / h[0] ** 2
    out += (values[_IN, 2:, _IN] - 2.0 * c + values[_IN, :-2, _IN]) / h[1] ** 2
    out += (values[_IN, _IN, 2:] - 2.0 * c + values[_IN, _IN, :-2]) / h[2] ** 2
    return out


def gradient_array(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Centered-difference gradient at the inner nodes [1:-1]^3; axis 0
    stacks the three directions."""
    return np.stack(
        [
            (values[2:, _IN, _IN] - values[:-2, _IN, _IN]) / (2.0 * h[0]),
            (values[_IN, 2:, _IN] - values[_IN, :-2, _IN]) / (2.0 * h[1]),
            (values[_IN, _IN, 2:] - values[_IN, _IN, :-2]) / (2.0 * h[2]),
        ]
    )


def edge_grad_squared(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stencil-compatible sum over directions of (grad_alpha Q)^2 at interior
    nodes: the average of squared forward and backward differences.

    This is the discrete square obeying the exact product rule
    lap(Q^2) = Q lap(Q) + lap(Q) Q + 2 * edge_grad_squared(Q), which the
    centered-difference square satisfies only to O(h^2).
    """
    c = values[_IN, _IN, _IN]
    out = (
        (values[2:, _IN, _IN] - c) @ (values[2:, _IN, _IN] - c)
        + (c - values[:-2, _IN, _IN]) @ (c - values[:-2, _IN, _IN])
    ) / (2.0 * h[0] ** 2)
    out += (
        (values[_IN, 2:, _IN] - c) @ (values[_IN, 2:, _IN] - c)
        + (c - values[_IN, :-2, _IN]) @ (c - values[_IN, :-2, _IN])
    ) / (2.0 * h[1] ** 2)
    out += (
        (values[_IN, _IN, 2:] - c) @ (values[_IN, _IN, 2:] - c)
        + (c - values[_IN, _IN, :-2]) @ (c - values[_IN, _IN, :-2])
    ) / (2.0 * h[2] ** 2)
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
    is the 7-point Laplacian.
    """
    v = f.values
    h = f.grid.h
    vol = f.grid.cell_volume()
    weights = [_trapezoid_weights_1d(n) for n in f.grid.shape]
    total = 0.0
    for axis in range(3):
        d = np.diff(v, axis=axis) / h[axis]
        e2 = np.einsum("xyzij,xyzij->xyz", d, d)
        w_perp = np.ones(e2.shape)
        for other in range(3):
            if other == axis:
                continue
            shape = [1, 1, 1]
            shape[other] = -1
            w_perp = w_perp * weights[other].reshape(shape)
        total += float(np.sum(w_perp * e2)) * vol
    return total


def bulk_energy(f: TensorField, p: MaterialParams) -> float:
    """Trapezoid-quadrature integral of the shifted bulk density."""
    density = f_bulk_shifted(f.values, p)
    return float(np.sum(node_weights(f.grid) * density)) * f.grid.cell_volume()


def energy_ldg_parts(f: TensorField, p: MaterialParams) -> tuple[float, float]:
    """(Dirichlet part without the L/2 factor, bulk part)."""
    return dirichlet_energy(f), bulk_energy(f, p)


def energy_ldg(f: TensorField, p: MaterialParams) -> float:
    """Discrete shifted elastic-plus-bulk energy (L/2)|grad Q|^2 + bulk."""
    d, b = energy_ldg_parts(f, p)
    return 0.5 * p.L * d + b


def boundary_hedgehog(
    grid: GridSpec, p: MaterialParams, fill_interior: bool = True
) -> TensorField:
    """Radial uniaxial data s_+(r^ (x) r^ - I/3) about the box center.

    Raises CenterOnBoundary when any lattice node coincides with the center
    (the radial director is undefined there).  With an even interior point
    count per axis the center is offset from the lattice by h/2.
    """
    center = np.array([(lo + hi) / 2.0 for lo, hi in grid.box])
    rel = grid.coords() - center
    r = np.linalg.norm(rel, axis=-1)
    if np.min(r) < 1e-12 * np.min(grid.h):
        raise CenterOnBoundary("a lattice node coincides with the box center")
    n = rel / r[..., None]
    values = uniaxial(n, p.s_plus)
    out = TensorField(grid, values)
    if not fill_interior:
        out.interior[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    return out


def boundary_near_constant(
    grid: GridSpec,
    p: MaterialParams,
    eps: float,
    pattern: str = "tilt_x",
    fill_interior: bool = True,
) -> TensorField:
    """On-manifold data close to a constant uniaxial state.

    pattern "tilt_x": the director e3 is tilted in the (e1, e3)-plane by
    angle (eps/sqrt(2)) sin(pi x1^), x1^ the normalized first coordinate.
    The sup variation of the data is then at most eps * s_+.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if pattern != "tilt_x":
        raise ValueError(f"unknown boundary pattern {pattern!r}")
    lo, hi = grid.box[0]
    xhat = (grid.coords()[..., 0] - lo) / (hi - lo)
    theta = (eps / np.sqrt(2.0)) * np.sin(np.pi * xhat)
    n = np.stack(
        [np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1
    )
    values = uniaxial(n, p.s_plus)
    out = TensorField(grid, values)
    if not fill_interior:
        out.interior[...] = uniaxial(np.array([0.0, 0.0, 1.0]), p.s_plus)
    return out


def interior_margin_mask(grid: GridSpec, margin: float) -> np.ndarray:
    """Boolean mask over interior nodes at distance >= margin from the box
    boundary."""
    widths = [hi - lo for lo, hi in grid.box]
    if margin < 0 or margin >= min(widths) / 2.0:
        raise ValueError("margin must lie in [0, half box width)")
    coords = grid.coords()[_IN, _IN, _IN]
    mask = np.ones(coords.shape[:3], dtype=bool)
    for axis, (lo, hi) in enumerate(grid.box):
        x = coords[..., axis]
        mask &= (x - lo >= margin - 1e-12) & (hi - x >= margin - 1e-12)
    return mask


def norms(f: TensorField, g: TensorField, margin: float = 0.0) -> dict[str, float]:
    """L2, H1-seminorm and interior sup distance between two fields."""
    _require_same_grid(f, g)
    diff = f.values - g.values
    vol = f.grid.cell_volume()
    d_int = diff[_IN, _IN, _IN]
    l2 = float(np.sqrt(np.einsum("xyzij,xyzij->", d_int, d_int) * vol))
    grads = gradient_array(diff, f.grid.h)
    h1 = float(np.sqrt(np.einsum("axyzij,axyzij->", grads, grads) * vol))
    mask = interior_margin_mask(f.grid, margin)
    sup = float(np.max(norm(d_int)[mask])) if np.any(mask) else 0.0
    return {"l2": l2, "h1_semi": h1, "sup_interior": sup}


CSV_HEADER = "x,y,z,Q11,Q22,Q12,Q13,Q23"


def save_field_csv(f: TensorField, path) -> None:
    """Write node coordinates plus the 5 independent components, C (row
    major, z fastest) node order; 17 significant digits."""
    coords = f.grid.coords().reshape(-1, 3)
    v = f.values.reshape(-1, 3, 3)
    cols = np.column_stack(
        [coords, v[:, 0, 0], v[:, 1, 1], v[:, 0, 1], v[:, 0, 2], v[:, 1, 2]]
    )
    with open(path, "w", newline="") as fh:
        fh.write(f"# dims={f.grid.dims[0]},{f.grid.dims[1]},{f.grid.dims[2]}\n")
        box = ",".join(f"{b:.17g}" for pair in f.grid.box for b in pair)
        fh.write(f"# box={box}\n")
        fh.write(CSV_HEADER + "\n")
        for row in cols:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_field_csv(path) -> TensorField:
    """Inverse of save_field_csv."""
    with open(path) as fh:
        dims_line = fh.readline().strip()
        box_line = fh.readline().strip()
    dims = tuple(int(x) for x in dims_line.split("=", 1)[1].split(","))
    b = [float(x) for x in box_line.split("=", 1)[1].split(",")]
    box = ((b[0], b[1]), (b[2], b[3]), (b[4], b[5]))
    grid = GridSpec(dims=dims, box=box)
    data = np.loadtxt(path, delimiter=",", skiprows=3)
    comp = data[:, 3:]
    values = np.zeros((len(data), 3, 3))
    values[:, 0, 0] = comp[:, 0]
    values[:, 1, 1] = comp[:, 1]
    values[:, 2, 2] = -comp[:, 0] - comp[:, 1]
    values[:, 0, 1] = values[:, 1, 0] = comp[:, 2]
    values[:, 0, 2] = values[:, 2, 0] = comp[:, 3]
    values[:, 1, 2] = values[:, 2, 1] = comp[:, 4]
    return TensorField(grid, values.reshape(grid.shape + (3, 3)))
