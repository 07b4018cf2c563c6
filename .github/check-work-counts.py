#!/usr/bin/env python3
"""Compare the work counts of `perfbench/run.py --check-counts` against committed values.

    python3 .github/check-work-counts.py .github/work-counts.json \
        paper-warm counts-paper-warm.json cold-scale counts-cold-scale.json

Each counts file is the stdout of one `run.py --check-counts` run; its last
line holds the `first` run's counts. Exits 1 if any workload's counts differ
from the committed ones (a missing or extra key counts as a difference).
"""

import json
import sys


def main(argv):
    committed = json.load(open(argv[1]))
    pairs = argv[2:]
    if not pairs or len(pairs) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for workload, path in zip(pairs[::2], pairs[1::2]):
        lines = open(path).read().strip().splitlines()
        got = json.loads(lines[-1])["first"] if lines else None
        want = committed.get(workload)
        print(f"{workload}: {json.dumps(got, sort_keys=True)}")
        if got != want:
            failed = True
            keys = sorted(set(got or {}) | set(want or {}))
            for key in keys:
                a, b = (want or {}).get(key), (got or {}).get(key)
                if a != b:
                    print(f"  {key}: committed {a}, measured {b}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
