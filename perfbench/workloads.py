"""The benchmark's workloads: inputs, the timed operations and output checks.

Each workload is a closed loop with one client in one process: an operation
starts when the previous one has returned.  An operation is one registry
entry swept at its bound.

* registry-n7: every theorem and lemma at min(registered bound, 7).  The
  work falls on engine scans, walks, paths, recognizers and patterns;
  enumeration is a few percent of it.
* sweep-n8: T-P3 at its registered bound of 8.  The cheapest n = 8 sweep,
  so enumeration and canonical form carry most of it.

Both are exhaustive, so their inputs do not depend on the seed.  Library
calls go through module attributes (harness.verify_theorem, not a local
import) so that a tracer that rebinds them sees the calls.
"""

import time

from convexgeom import harness

import reference

REGISTRY_N_CAP = 7


class Outcome:
    """What the timed phase produced: per-operation latency, answer and error."""

    def __init__(self):
        self.latencies = []
        self.answers = []
        self.errors = {}       # operation index -> error text
        self.work = 0          # graph x entry evaluations

    def call(self, fn, *args):
        start = time.perf_counter()
        try:
            answer = fn(*args)
        except Exception as exc:   # a failed operation is counted, not fatal
            answer = None
            self.errors[len(self.answers)] = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        self.answers.append(answer)
        return answer


def _registry_plan():
    plan = [("theorem", ident, min(e.default_n_max, REGISTRY_N_CAP))
            for ident, e in harness.THEOREMS.items()]
    plan += [("lemma", ident, min(e.default_n_max, REGISTRY_N_CAP))
             for ident, e in harness.LEMMAS.items()]
    return plan


def sweep(plan):
    out = Outcome()
    for kind, ident, n_max in plan:
        verify = harness.verify_theorem if kind == "theorem" else harness.verify_lemma
        result = out.call(verify, ident, n_max)
        if result is not None:
            out.work += result.graphs
    return out


def check(plan, pinned, out):
    """Failure text per operation index."""
    failures = dict(out.errors)
    for i, (_, ident, n_max) in enumerate(plan):
        result = out.answers[i]
        if result is None:
            continue
        problems = []
        got = (result.n_max, result.graphs, result.geometries,
               result.class_members, len(result.certificates))
        if got != pinned[ident]:
            problems.append(f"summary {got} != pinned {pinned[ident]}")
        if result.graphs != reference.CONNECTED_UPTO[n_max]:
            problems.append(f"{result.graphs} graphs, OEIS A001349 gives "
                            f"{reference.CONNECTED_UPTO[n_max]}")
        for (entry, n, field), want in reference.EXTERNAL.items():
            if entry == ident and n == n_max and getattr(result, field) != want:
                problems.append(f"{field} {getattr(result, field)} != {want}")
        certs = [c["g6"] for c in result.certificates]
        if certs != reference.PINNED_CERTIFICATES.get(ident, []):
            problems.append(f"certificates {certs}")
        if problems:
            failures[i] = f"{ident}: " + "; ".join(problems)
    return failures


# name -> (plan builder, pinned summaries); building the plan is set-up
WORKLOADS = {
    "registry-n7": (_registry_plan, reference.PINNED),
    "sweep-n8": (lambda: [("theorem", "T-P3", 8)], reference.PINNED_N8),
}
