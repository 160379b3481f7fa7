"""Regenerate bench/reference.json, the exact values the benchmark checks
outputs against where no closed form exists.

    python3 bench/make_reference.py

* `wrank`: F_p rank of W_{p^k,n} for each k >= 2 instance of rank-tables,
  from checks.incidence_rows and checks.fp_rank (a row-incremental basis,
  unlike the package's column-sweep elimination).
* `minsearch`: the least Kakeya set size over the rings the certify
  workloads minimise over where no formula applies, by trying every choice
  of one line per direction.

The script does not import ringkakeya.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from checks import fp_rank, incidence_rows, min_kakeya_size
from workloads import REFERENCE_MINSEARCH, REFERENCE_WRANK

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    ref: dict = {"wrank": {}, "minsearch": {}}
    for p, k, n in REFERENCE_WRANK:
        t0 = time.perf_counter()
        r = fp_rank(incidence_rows(p, k, n), p)
        ref["wrank"][f"{p},{k},{n}"] = r
        print(f"rank W_(p={p},k={k},n={n}) = {r}  "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    for N, n in REFERENCE_MINSEARCH:
        m = min_kakeya_size(N, n)
        ref["minsearch"][f"{N},{n}"] = m
        print(f"min Kakeya size over (Z/{N})^{n} = {m}", file=sys.stderr)
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
