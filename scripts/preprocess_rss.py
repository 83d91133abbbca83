#!/usr/bin/env python
"""Peak resident memory of ``repro preprocess`` against raw-log size.

Builds raw LogHub inputs of the requested row counts (default 1 M, 2 M
and the paper's 5.89 M ANL rows) by tiling one generated ANL trace, each
tile's epochs shifted past the one before; each input is written line by
line, off the clock, before it is measured.  Each size is preprocessed by
``repro preprocess`` in a child interpreter of its own, which reports
its peak RSS (``VmHWM``; ``ru_maxrss`` where ``/proc`` is missing, which
can include the forking parent's image) with the wall time.  An input is
deleted once measured, so the disk holds one at a time.

Usage::

    python scripts/preprocess_rss.py                  # 1M, 2M, 5.89M rows
    python scripts/preprocess_rss.py --sizes 200000,400000

The constant-memory claim is that the peak stays flat (within 10 %)
from the smallest size to the largest.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.raslog.generator import GeneratorConfig, generate_log  # noqa: E402
from repro.raslog.parser import format_line  # noqa: E402
from repro.raslog.profiles import ANL_PROFILE  # noqa: E402

DEFAULT_SIZES = (1_000_000, 2_000_000, 5_890_000)

#: The generated ANL trace that is tiled (264,293 raw rows).
BASE_TRACE = GeneratorConfig(scale=0.25, weeks=20, seed=3, duplicates=True)


def base_lines() -> tuple[list[str], int]:
    """:data:`BASE_TRACE` as LogHub lines, and the epoch shift between
    tiles (the trace's span plus a day, so no group spans two tiles)."""
    raw = generate_log(ANL_PROFILE, BASE_TRACE).raw
    first, last = raw.span
    return [format_line(e) for e in raw.events], int(last - first) + 86_400


def write_tiled(path: Path, base: list[str], shift: int, rows: int) -> None:
    """Write ``rows`` lines: ``base`` repeated, tile *k* shifted by
    ``k * shift`` seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        written, k = 0, 0
        while written < rows:
            for line in base[: rows - written]:
                label, epoch, rest = line.split(" ", 2)
                fh.write(f"{label} {int(epoch) + k * shift} {rest}\n")
            written += min(len(base), rows - written)
            k += 1


#: Runs the CLI with the given arguments, then prints its own peak RSS in
#: KiB as the last line of stderr.
_CHILD = """
import resource, sys
from repro.cli import main
status = main(sys.argv[1:])
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
except OSError:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(kib, file=sys.stderr)
sys.exit(status)
"""


def measure(raw: Path, clean: Path) -> tuple[float, float]:
    """Run ``repro preprocess`` on ``raw`` in a child; its peak RSS in MB
    and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, "preprocess", str(raw),
         "--output", str(clean)],
        env=env, capture_output=True, text=True, check=True,
    )
    seconds = time.perf_counter() - start
    return int(done.stderr.split()[-1]) / 1024.0, seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated raw row counts",
    )
    ap.add_argument("--dir", help="where to write inputs (default: a temp dir)")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    base, shift = base_lines()
    peaks = []
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        raw, clean = Path(tmp) / "raw.log", Path(tmp) / "clean.log"
        for rows in sizes:
            write_tiled(raw, base, shift, rows)
            peak, seconds = measure(raw, clean)
            raw.unlink()
            peaks.append(peak)
            print(
                f"{rows:>9} rows: peak RSS {peak:7.1f} MB, {seconds:6.1f} s",
                flush=True,
            )
    growth = max(peaks) / min(peaks) - 1.0
    print(f"base trace {len(base)} rows; peak RSS spread {growth:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
