"""Flat key=value experiment configuration with exact round-trip
serialization, and the grid and solver settings it describes."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .fields import GridSpec
from .geometry import MaterialParams
from .solvers import SolveConfig


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a sweep run."""

    a2: float = 1.0
    b2: float = 1.0
    c2: float = 1.0
    l_ladder: tuple[float, ...] = (0.16, 0.08, 0.04, 0.02)
    dims: tuple[int, int, int] = (16, 16, 16)
    box_lo: float = 0.0
    box_hi: float = 8.0
    boundary: str = "near_constant"
    eps: float = 0.2
    pattern: str = "tilt_x"
    dt_safety: float = 0.9
    max_iters: int = 50000
    rel_energy_tol: float = 1e-13
    residual_tol: float = 1e-7
    log_every: int = 0
    margin: float = 2.0
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Build the material parameters of every ladder L, the grid and the
        solver settings, which check their own fields, then check what no
        type owns."""
        ladder = tuple(float(v) for v in self.l_ladder)
        if len(ladder) == 0:
            raise ValueError("l_ladder must be nonempty")
        for L in ladder:
            MaterialParams(self.a2, self.b2, self.c2, L=L)
        if any(nxt >= prev for prev, nxt in zip(ladder, ladder[1:])):
            raise ValueError("l_ladder must be strictly decreasing")
        self.grid()
        self.solve_config()
        if self.boundary not in ("near_constant", "hedgehog"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        h = (self.box_hi - self.box_lo) / (min(self.dims) + 1)
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.margin and self.margin < 2.0 * h:
            raise ValueError("margin must be 0 or at least two node spacings")
        if self.margin >= (self.box_hi - self.box_lo) / 2.0:
            raise ValueError("margin must be below half the box width")

    def grid(self) -> GridSpec:
        """The cubic box [box_lo, box_hi]^3 with dims interior nodes."""
        box = ((self.box_lo, self.box_hi),) * 3
        return GridSpec(dims=tuple(self.dims), box=box)

    def solve_config(self) -> SolveConfig:
        """The gradient-flow settings every solve of the run uses."""
        return SolveConfig(
            dt_safety=self.dt_safety,
            max_iters=self.max_iters,
            rel_energy_tol=self.rel_energy_tol,
            residual_tol=self.residual_tol,
            log_every=self.log_every,
        )

    def serialize(self) -> str:
        """One key=value pair per line, in field order."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                txt = ",".join(_fmt(x) for x in v)
            else:
                txt = _fmt(v)
            lines.append(f"{f.name}={txt}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def parse_config(text: str) -> ExperimentConfig:
    """Parse serialized key=value lines; unknown keys raise ValueError.

    Each value takes the type of its field's default; the entries of a
    tuple take the type of the default's first entry.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                kwargs[key] = tuple(type(default[0])(x) for x in val.split(","))
            else:
                kwargs[key] = type(default)(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
