"""Compare the per-op output digests and median times of two run records.

    python3 bench/compare.py bench/out/A.json bench/out/B.json

Digests are compared per CLI seed, on the seeds both records ran.  Exits
1 when an op produced different output on such a seed, so two runs of
the same code on the same benchmark seed can be shown byte-identical and
a later change can be seen to alter (or keep) every answer.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (load(path) for path in argv)
    shared = sorted(set(a["cli_seeds"]) & set(b["cli_seeds"]))
    if not shared:
        print(f"no CLI seed in common (benchmark seeds {a['seed']} and "
              f"{b['seed']}); outputs depend on the seed")
        return 1
    ops_b = {op["op"]: op for op in b["ops"]}
    differ = 0
    for op in a["ops"]:
        other = ops_b.get(op["op"])
        if other is None:
            continue
        same = all(op["sha256"][str(k)] == other["sha256"][str(k)]
                   for k in shared)
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {op['median_s']:9.4f} s  "
              f"{other['median_s']:9.4f} s  {op['op']}")
    print(f"compared on CLI seeds {shared}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
