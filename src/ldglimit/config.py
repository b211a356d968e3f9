"""Flat key=value experiment configuration with exact round-trip
serialization, and the grid and solver settings it describes."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .fields import GridSpec, format_value, interior_margin_mask
from .geometry import MaterialParams
from .solvers import SolveConfig


@dataclass(frozen=True)
class ExperimentConfig(SolveConfig):
    """Everything needed to reproduce a sweep run: the solver settings every
    solve of the run uses, and the material, grid and boundary data."""

    a2: float = 1.0
    b2: float = 1.0
    c2: float = 1.0
    l_ladder: tuple[float, ...] = (0.16, 0.08, 0.04, 0.02)
    dims: tuple[int, int, int] = (16, 16, 16)
    box_lo: float = 0.0
    box_hi: float = 8.0
    boundary: str = "near_constant"
    eps: float = 0.2
    pattern: str = "tilt_x"  # the one pattern boundary_near_constant draws
    margin: float = 2.0
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        """Store l_ladder and dims as tuples, reject non-finite numbers,
        build the material parameters of every ladder L and the grid with
        its margin mask, which check their own fields, check the solver
        settings, then check what no type owns."""
        object.__setattr__(self, "l_ladder", tuple(map(float, self.l_ladder)))
        object.__setattr__(self, "dims", tuple(self.dims))
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValueError(f"{f.name} must be finite")
        ladder = self.l_ladder
        if not ladder:
            raise ValueError("l_ladder must be nonempty")
        for L in ladder:
            MaterialParams(self.a2, self.b2, self.c2, L=L)
        if any(nxt >= prev for prev, nxt in zip(ladder, ladder[1:])):
            raise ValueError("l_ladder must be strictly decreasing")
        interior_margin_mask(self.grid(), self.margin)
        super().__post_init__()
        if self.boundary not in ("near_constant", "hedgehog"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.pattern != "tilt_x":
            raise ValueError(f"unknown boundary pattern {self.pattern!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.output_dir:
            raise ValueError("output_dir must be nonempty")
        if self.margin and self.margin < 2.0 * max(self.grid().h):
            raise ValueError("margin must be 0 or at least two node spacings")

    def grid(self) -> GridSpec:
        """The cubic box [box_lo, box_hi]^3 with dims interior nodes."""
        box = ((self.box_lo, self.box_hi),) * 3
        return GridSpec(dims=self.dims, box=box)

    def serialize(self) -> str:
        """One key=value pair per line, in field order."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            txt = ",".join(map(format_value, v if isinstance(v, tuple) else (v,)))
            lines.append(f"{f.name}={txt}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())


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
