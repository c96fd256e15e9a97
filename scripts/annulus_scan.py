#!/usr/bin/env python3
"""Exit-class scan of `mintube solve-annulus` over heights and offsets.

For unit circles at heights 0 and h, the upper one shifted by d along x,
each (h, d) pair is solved through the CLI at one resolution and gives one
CSV row: the exit class (0 converged, 2 no annulus, 3 non-convergence or
degeneration), the stack-stage and full-stage iteration counts and the
final area (the last three empty unless the exit is 0).

Usage: python3 scripts/annulus_scan.py RES H1,H2,... D1,D2,...
e.g.   python3 scripts/annulus_scan.py 64x32 0.5,1.0,1.5 0,0.3
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mintube import cli

HEADER = "h,d,exit,stack_iterations,iterations,area"


def scan_row(res: str, h: float, d: float, outdir: Path) -> str:
    """One CSV row for unit circles at heights 0 and h with offset d."""
    argv = ["solve-annulus", "--res", res, "--heights", "0", repr(h),
            "--offset", repr(d), "--levels", "1", "--verify", "none",
            "--outdir", str(outdir)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    fields = [repr(h), repr(d), str(code)]
    if code == 0:
        conv = json.loads((outdir / "annulus_convergence.json").read_text())
        fields += [str(conv["stack_iterations"]), str(conv["iterations"]),
                   f"{conv['final_area']:.12f}"]
    else:
        fields += ["", "", ""]
    return ",".join(fields)


def scan(res: str, heights, offsets):
    """Yield the row of every (h, d), heights outermost."""
    with tempfile.TemporaryDirectory() as tmp:
        for h in heights:
            for d in offsets:
                yield scan_row(res, h, d, Path(tmp))


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    res = sys.argv[1]
    heights, offsets = ([float(x) for x in arg.split(",")] for arg in sys.argv[2:])
    print(HEADER, flush=True)
    for row in scan(res, heights, offsets):
        print(row, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
