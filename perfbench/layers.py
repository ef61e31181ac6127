"""What the traced run wraps, and the per-layer metrics it reports.

Each metric is named `<module>.<function>[.<kind>].<stat>`.  The stats are
`calls`, `time_s` (inclusive wall time), `self_s` (time not covered by a
traced callee), `builds` (cache misses), `hit_ratio` (cache hits over
lookups), plus the lru cache deltas `cache.<function>.{hits,misses}`.  A
layer the workload never reaches reads 0.

Which end-to-end metric each layer should move, and on which workload:
  enumeration, canon, graphs, harness.verify_theorem.self_s
      wall_s on sweep-n8; barely registry-n7
  canon.canonical_form.hit_ratio, cache.canonical_form.*
      also peak_rss_mb on sweep-n8 (65536-entry cache)
  engine.is_convex_geometry_mkm, satisfies_antiexchange, all_convex_sets,
  extreme_vertices, closure_rules
      wall_s and checks_per_s on registry-n7, part of sweep-n8
  walks.interval_table, paths.path_interval_rows
      wall_s on registry-n7 through the strong, trianglePath and m3
      tables; the hit ratio moves peak_rss_mb on both sweeps
  recognizers, patterns
      wall_s on registry-n7
"""

from dataclasses import replace

from convexgeom import (canon, engine, enumeration, graphs, harness, paths,
                        patterns, recognizers, walks)

KINDS = ("geodetic", "monophonic", "m3", "lk", "strong", "toll", "weaklyToll",
         "trianglePath", "p3", "fFree", "p4plus")
INTERVAL_KINDS = KINDS[:9]
PATH_MODES = ("induced", "strong", "triangle")
CLASS_CHECKS = ("is_chordal", "is_ptolemaic", "is_strongly_chordal",
                "is_weakly_polarizable", "is_interval", "is_proper_interval",
                "is_cograph", "is_chordal_cograph", "is_l3_characterization",
                "is_forest", "is_forest_of_stars", "is_bipartite",
                "is_planar_desk", "free_of_family")
PATTERN_FUNCTIONS = ("iter_induced_embeddings", "all_induced_occurrences",
                     "contains_induced")

# name -> (module, attribute) of the lru caches whose deltas are recorded
CACHES = {"canonical_form": (canon, "canonical_form"),
          "_canonical_keys": (enumeration, "_canonical_keys"),
          "interval_table": (walks, "interval_table"),
          "closure_rules": (engine, "closure_rules"),
          "kuratowski_family": (patterns, "kuratowski_family")}


def cache_snapshot():
    """(hits, misses) per cache, looking through tracing wrappers; a cache
    that no longer exists reads (0, 0)."""
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(module, attr, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        out[name] = (fn.cache_info().hits, fn.cache_info().misses) if fn else (0, 0)
    return out


def cache_delta(before, after):
    return {name: {"hits": after[name][0] - before[name][0],
                   "misses": after[name][1] - before[name][1]} for name in before}


def install(tracer):
    """Wrap the layer entry points (tracer.uninstall undoes it).  Returns
    the dict that collects the number of graphs enumerated per order."""
    kept_by_n = {}

    def wrap(module, attr, label=None, **kw):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        label = label or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer.install(fn, tracer.wrap(fn, label, **kw))

    def kind_label(prefix):
        return lambda args: f"{prefix}.{args[1].kind}"

    wrap(enumeration, "connected_graphs",
         on_result=lambda name, args, result: kept_by_n.__setitem__(args[0], len(result)))
    wrap(enumeration, "_canonical_keys")
    wrap(canon, "canonical_form")
    if hasattr(enumeration, "canonical_form"):
        tracer.rebind(enumeration, "canonical_form",
                      tracer.count(enumeration.canonical_form,
                                   "enumeration.canonical_form.calls"))
    for attr in ("parse_graph6", "emit_graph6"):
        wrap(graphs, attr)
    for attr in ("verify_theorem", "verify_lemma"):
        wrap(harness, attr)
    wrap(engine, "is_convex_geometry_mkm",
         label=kind_label("engine.is_convex_geometry_mkm"))
    for attr in ("satisfies_antiexchange", "all_convex_sets", "extreme_vertices",
                 "closure_rules"):
        wrap(engine, attr)
    table = getattr(walks, "interval_table", None)
    if table is not None:
        tracer.install(table, tracer.wrap_cached(table, kind_label("walks.interval_table")))
    wrap(paths, "path_interval_rows",
         label=lambda args: f"paths.path_interval_rows.{args[2]}")
    for attr in CLASS_CHECKS:
        wrap(recognizers, attr)
    for attr in PATTERN_FUNCTIONS:
        fn = getattr(patterns, attr, None)
        if fn is None:
            continue
        label = f"patterns.{attr}"
        if attr == "iter_induced_embeddings":
            tracer.install(fn, tracer.wrap_generator(fn, label))
        else:
            wrap(patterns, attr)
    # registry entries hold direct references to their class checks and
    # domains, so trace them on copies of the registries
    tracer.rebind(harness, "THEOREMS",
                  {k: replace(e, class_check=tracer.substitute(e.class_check))
                   for k, e in harness.THEOREMS.items()})
    tracer.rebind(harness, "LEMMAS",
                  {k: replace(e, domain=tracer.substitute(e.domain))
                   for k, e in harness.LEMMAS.items()})
    return kept_by_n


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, kept_by_n, caches):
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced run: name -> (value, unit)."""
    calls, time_s, self_s, counters = (tracer.calls, tracer.time_s,
                                       tracer.self_s, tracer.counters)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def hit_ratio(cache):
        c = caches[cache]
        return _ratio(c["hits"], c["hits"] + c["misses"])

    put("enumeration.connected_graphs.time_s",
        time_s["enumeration.connected_graphs"], "s")
    put("enumeration.dedupe_yield",
        _ratio(sum(kept_by_n.values()), counters["enumeration.canonical_form.calls"]),
        "ratio")
    put("canon.canonical_form.calls", calls["canon.canonical_form"], "count")
    put("canon.canonical_form.time_s", time_s["canon.canonical_form"], "s")
    put("canon.canonical_form.hit_ratio", hit_ratio("canonical_form"), "ratio")
    for fn in ("parse_graph6", "emit_graph6"):
        put(f"graphs.{fn}.calls", calls[f"graphs.{fn}"], "count")
        put(f"graphs.{fn}.time_s", time_s[f"graphs.{fn}"], "s")
    for fn in ("verify_theorem", "verify_lemma"):
        put(f"harness.{fn}.self_s", self_s[f"harness.{fn}"], "s")
    for kind in KINDS:
        name = f"engine.is_convex_geometry_mkm.{kind}"
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
    for fn in ("satisfies_antiexchange", "all_convex_sets", "extreme_vertices"):
        put(f"engine.{fn}.self_s", self_s[f"engine.{fn}"], "s")
    put("engine.closure_rules.time_s", time_s["engine.closure_rules"], "s")
    put("engine.closure_rules.hit_ratio", hit_ratio("closure_rules"), "ratio")
    for kind in INTERVAL_KINDS:
        name = f"walks.interval_table.{kind}"
        builds = counters[f"{name}.builds"]
        put(f"{name}.builds", builds, "count")
        put(f"{name}.time_s", time_s[name], "s")
        put(f"{name}.hit_ratio", _ratio(calls[name] - builds, calls[name]), "ratio")
    for mode in PATH_MODES:
        name = f"paths.path_interval_rows.{mode}"
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.time_s", time_s[name], "s")
    for fn in CLASS_CHECKS + tuple(f"patterns.{p}" for p in PATTERN_FUNCTIONS):
        name = fn if "." in fn else f"recognizers.{fn}"
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.time_s", time_s[name], "s")
    for cache, delta in caches.items():
        put(f"cache.{cache}.hits", delta["hits"], "count")
        put(f"cache.{cache}.misses", delta["misses"], "count")
    put("trace.spans", tracer.spans_total, "count")
    return out
