"""Machine and library record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Per-instance size and instance count of each data/unified cache."""
    sizes, instances = {}, {}
    for d in glob.glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index*"):
        try:
            kind, level, size, shared = (
                Path(d, k).read_text().strip()
                for k in ("type", "level", "size", "shared_cpu_list"))
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
            instances.setdefault(f"L{level}", set()).add(shared)
    return {lvl: {"size": sizes[lvl], "instances": len(instances[lvl])}
            for lvl in sorted(sizes)}


def _blas() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError):
        pass
    # numpy wheels bundle scipy-openblas; ask it for its thread count
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def _git_commit(root: Path):
    """HEAD of the checkout, read from its .git directory (None when the
    checkout is not a git repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
    }
