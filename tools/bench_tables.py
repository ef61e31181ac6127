"""Cold-process timing of the interval tables, per convexity kind, with
output digests.

Each run starts a fresh interpreter on one source tree and enumerates the
connected graphs up to order N (untimed).  Then, for each interval kind (lk
as l1..l5), it clears the interval_table cache, times interval_table(g, spec)
over all of them, and reports the seconds and one sha256 over the tables
(graphs in enumeration order, each entry as four big-endian bytes).  With
the cache cleared, a kind that reads another kind's table (m3 reads the
monophonic one) pays for building it.  With --random R it also digests the
tables of R seeded random graphs of orders 9..14 (the same graphs on every
tree; timed separately).  Two trees with equal digests build the same
tables.

Several trees are run alternately, so a before/after comparison sees the
same host noise on both sides:

    python3 tools/bench_tables.py --repeat 3 src ../parent/src

Prints one JSON object per run, then one per tree with the median seconds
per kind.  Standard library only.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

CHILD = r"""
import hashlib, json, sys, time
from convexgeom import walks
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.graphs import Graph
from bench_tables import random_edge_lists

KINDS = ("monophonic", "m3", "l1", "l2", "l3", "l4", "l5", "strong",
         "trianglePath", "geodetic", "toll", "weaklyToll", "p3")
max_n, count = int(sys.argv[1]), int(sys.argv[2])
graphs = connected_graphs_upto(max_n)
sample = [Graph.from_edge_list(n, edges) for n, edges in random_edge_lists(count)]


def spec_of(kind):
    if kind[0] == "l" and kind[1:].isdigit():
        return walks.lk(int(kind[1:]))
    return walks.ConvexitySpec(kind)


def build(spec, gs):
    walks.interval_table.cache_clear()
    digest = hashlib.sha256()
    start = time.perf_counter()
    tables = [walks.interval_table(g, spec) for g in gs]
    seconds = time.perf_counter() - start
    for t in tables:
        digest.update(b"".join(m.to_bytes(4, "big") for m in t))
    return round(seconds, 4), digest.hexdigest()


out = {"graphs": len(graphs), "random_graphs": len(sample), "kinds": {}}
for kind in KINDS:
    spec = spec_of(kind)
    seconds, digest = build(spec, graphs)
    row = {"s": seconds, "sha256": digest}
    if sample:
        row["random_s"], row["random_sha256"] = build(spec, sample)
    out["kinds"][kind] = row
print(json.dumps(out))
"""


def random_edge_lists(count):
    """(n, edges) of count seeded random graphs: orders 9..14 in turn, each
    with an edge probability drawn from [0.15, 0.6], so some are
    disconnected.  tests/test_walks.py checks the toll tables on them."""
    rng = random.Random(2026)
    out = []
    for i in range(count):
        n = 9 + i % 6
        p = rng.uniform(0.15, 0.6)
        out.append((n, [(a, b) for a in range(n) for b in range(a) if rng.random() < p]))
    return out


def run_once(src, max_n, count):
    """The record of one cold run on the tree at src; the child imports
    random_edge_lists from this file."""
    path = os.pathsep.join([os.path.abspath(src), os.path.dirname(os.path.abspath(__file__))])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", CHILD, str(max_n), str(count)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="source trees holding convexgeom/")
    parser.add_argument("--max-n", type=int, default=8, choices=range(1, 10))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--random", type=int, default=0, metavar="R",
                        help="also digest R seeded random graphs of orders 9..14")
    args = parser.parse_args()
    times = {src: {} for src in args.src}
    for rep in range(args.repeat):
        # alternate which tree goes first, so neither always runs warm
        trees = args.src if rep % 2 == 0 else args.src[::-1]
        for src in trees:
            record = run_once(src, args.max_n, args.random)
            for kind, row in record["kinds"].items():
                times[src].setdefault(kind, []).append(row["s"])
            print(json.dumps({"src": src, "repeat": rep, **record}), flush=True)
    for src, per_kind in times.items():
        print(json.dumps({"src": src, "median_s": {k: statistics.median(v)
                                                   for k, v in per_kind.items()},
                          "runs": per_kind}))


if __name__ == "__main__":
    main()
