#!/usr/bin/env python3
"""Print volume polynomials, intersection numbers, and graph counts for a
range of types, plus timing, as a quick health check of the whole stack.

Usage: python scripts/volume_table.py [max_complexity]
where complexity = 3g - 3 + n (default 3).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ribbonvol.kformula import verify_kcf
from ribbonvol.volumes import is_stable, kontsevich_volume, psi_numbers


def main():
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    types = [(g, n) for g in range(0, cap + 1) for n in range(1, 3 * cap)
             if is_stable(g, n) and 3 * g - 3 + n <= cap]
    for g, n in sorted(types, key=lambda t: (3 * t[0] - 3 + t[1], t[0])):
        t0 = time.perf_counter()
        W = kontsevich_volume(g, n)
        psi = psi_numbers(g, n)
        tw = time.perf_counter() - t0
        print(f"== type ({g},{n})   dim = {3 * g - 3 + n}   [{tw:.2f}s]")
        print(f"   W = {W}")
        top = sorted(psi.items())[:6]
        shown = ", ".join(f"{a}:{v}" for a, v in top)
        more = "" if len(psi) <= 6 else f" (+{len(psi) - 6} more)"
        print(f"   psi: {shown}{more}")
        if 3 * g - 3 + n <= 2:
            t0 = time.perf_counter()
            rep = verify_kcf(g, n, trials=10, seed=1)
            print(f"   graph sum: {rep['graphs']} trivalent cells; "
                  f"formula agrees: {rep['equal']} "
                  f"[{time.perf_counter() - t0:.2f}s]")


if __name__ == "__main__":
    main()
