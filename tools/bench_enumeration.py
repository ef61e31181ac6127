"""Cold-process timing of the connected-graph enumerator, with output digests.

Each run starts a fresh interpreter on one source tree, builds
connected_graphs_upto(N) order by order and reports, per order, the seconds
that order took, the number of graphs, and two sha256 digests: one over
b"".join(_canonical_keys(n)) and one over the adjacency rows of _graphs(n)
(each row as two big-endian bytes, graphs in list order).  Two trees with
equal digests enumerate the same graphs, keys and order.

Several trees are run alternately, so a before/after comparison sees the
same host noise on both sides:

    python3 tools/bench_enumeration.py --max-n 9 --repeat 3 src ../parent/src

Prints one JSON object per run, then one per tree with its median total
time.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = r"""
import hashlib, json, sys, time
from convexgeom.enumeration import _canonical_keys, _graphs, connected_graphs_upto
orders = []
for n in range(1, int(sys.argv[1]) + 1):
    start = time.perf_counter()
    connected_graphs_upto(n)
    seconds = time.perf_counter() - start
    rows = hashlib.sha256()
    for g in _graphs(n):
        rows.update(b"".join(r.to_bytes(2, "big") for r in g.adj))
    orders.append({"n": n, "s": round(seconds, 4), "count": len(_graphs(n)),
                   "keys_sha256": hashlib.sha256(b"".join(_canonical_keys(n))).hexdigest(),
                   "rows_sha256": rows.hexdigest()})
print(json.dumps(orders))
"""


def run_once(src, max_n):
    """Per-order records of one cold enumeration on the tree at src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, str(max_n)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="source trees holding convexgeom/")
    parser.add_argument("--max-n", type=int, default=8, choices=range(1, 10))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    totals = {src: [] for src in args.src}
    for rep in range(args.repeat):
        # alternate which tree goes first, so neither always runs warm
        trees = args.src if rep % 2 == 0 else args.src[::-1]
        for src in trees:
            orders = run_once(src, args.max_n)
            total = round(sum(o["s"] for o in orders), 4)
            totals[src].append(total)
            print(json.dumps({"src": src, "repeat": rep, "total_s": total,
                              "orders": orders}), flush=True)
    for src, times in totals.items():
        print(json.dumps({"src": src, "median_total_s": statistics.median(times),
                          "runs": times}))


if __name__ == "__main__":
    main()
