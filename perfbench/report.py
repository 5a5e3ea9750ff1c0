"""Summary statistics, provenance and the result record of one run."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has at
    least ten samples beyond it.

    With fewer than 21 samples no percentile above the median has ten
    samples beyond it, so the median itself is reported (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11
    if index <= (n - 1) // 2:
        return median(ordered), 50.0
    return float(ordered[index]), 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def config_digest(config) -> str:
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None     # never let git search directories above the checkout
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, blas_threads: str) -> Dict[str, object]:
    """Where a number came from: code, interpreter, BLAS and machine."""
    import numpy as np

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "source_digest": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(blas_threads),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def write_record(out_dir: Path, name: str, record: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def format_table(metrics: Dict[str, dict]) -> List[str]:
    width = max((len(name) for name in metrics), default=0)
    return [f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}"
            for name, entry in metrics.items()]
