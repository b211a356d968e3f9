"""What a result was measured on: source revision, interpreter and numpy
build, CPU, caches, thread pin and seed."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    """Digest of the package sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for f in sorted((root / "src" / "ldglimit").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Cache sizes of cpu0, e.g. {"L1d": "48K", "L2": "2048K", "L3": ...}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        return {}


def collect(root: Path, args, workload) -> dict:
    import numpy as np

    nodes = 1
    for d in workload.dims:
        nodes *= d + 2

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _caches(),
        # one float64 3x3 tensor field on the workload's grid, to set
        # against the cache sizes
        "field_array_bytes": nodes * 9 * 8,
        "threads": {"--threads": 1, "OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS": 1},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
