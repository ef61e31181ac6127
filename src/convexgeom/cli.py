"""Command-line surface: convexity queries, class recognition, verification."""

import argparse
import json
import os
import sys

from .engine import (all_convex_sets, extreme_vertices, hull, is_convex,
                     is_convex_geometry_mkm, satisfies_antiexchange)
from .enumeration import connected_graphs
from .errors import (CapacityError, GraphInputError, UnsupportedOracleError,
                     UsageError)
from .fixtures import GEM_FIXTURE, GEM_FIXTURE_LABELS
from .graphs import (bit, emit_graph6, is_connected, iter_bits,
                     parse_edge_list, parse_graph6)
from .harness import (nonhereditary_fixture_check, read_graph6_lines,
                      resolve_lemma, resolve_theorem, verify_lemma,
                      verify_theorem, write_certificates)
from .recognizers import CLASS_KINDS, recognize
from .walks import (f_free, geodetic, interval, lk, m3, monophonic, p3,
                    p4plus, strong, toll, triangle_path, weakly_toll)

CONVEXITY_TOKENS = ("geodetic", "monophonic", "m3", "l<k>", "strong", "toll",
                    "weakly-toll", "triangle-path", "p3", "ffree", "p4plus")


def _spec_from_args(args):
    token = args.convexity
    plain = {"geodetic": geodetic, "monophonic": monophonic, "m3": m3,
             "strong": strong, "toll": toll, "weakly-toll": weakly_toll,
             "triangle-path": triangle_path, "p3": p3, "p4plus": p4plus}
    family_path = getattr(args, "family", None)
    if token == "ffree":
        if family_path is None:
            raise GraphInputError("--family FILE is required with --convexity ffree")
        return f_free(tuple(read_graph6_lines(family_path)))
    if family_path is not None:
        raise GraphInputError("--family only applies to --convexity ffree")
    if token in plain:
        return plain[token]()
    if token.startswith("l") and token[1:].isdecimal():
        return lk(int(token[1:]))
    raise GraphInputError(
        f"unknown convexity {token!r}; choose from {', '.join(CONVEXITY_TOKENS)}")


def _load_graph(args):
    """Resolve the one graph input source; returns (graph, labels)."""
    inline = getattr(args, "graph6", None)
    path = getattr(args, "path", None)
    if (inline is None) == (path is None):
        raise GraphInputError("provide exactly one input: a file path or --graph6")
    if inline is not None:
        g = parse_graph6(inline)
        labels = [str(i) for i in range(g.n)]
    elif args.format == "graph6":
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphInputError(f"no graph6 data in {path}")
        g = parse_graph6(lines[0])
        labels = [str(i) for i in range(g.n)]
    else:
        with open(path, encoding="utf-8") as fh:
            g, labels = parse_edge_list(fh.read())
    if g.n and not is_connected(g):
        print("warning: input graph is disconnected", file=sys.stderr)
    return g, list(labels)


def _index_of(labels):
    return {name: i for i, name in enumerate(labels)}


def _parse_vertex_set(tokens, labels):
    if tokens is None or tokens == "":
        return 0
    index = _index_of(labels)
    mask = 0
    for tok in tokens.split(","):
        tok = tok.strip()
        if tok not in index:
            raise GraphInputError(f"unknown vertex label {tok!r}")
        mask |= bit(index[tok])
    return mask


def _parse_pair(text, labels):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise GraphInputError(f"--pair expects 'u,v', got {text!r}")
    index = _index_of(labels)
    for p in parts:
        if p not in index:
            raise GraphInputError(f"unknown vertex label {p!r}")
    return index[parts[0]], index[parts[1]]


def _names(mask, labels):
    return [labels[v] for v in iter_bits(mask)]


def _maybe_label_table(args, labels):
    if getattr(args, "json", False):
        return
    if labels != [str(i) for i in range(len(labels))]:
        table = " ".join(f"{i}={name}" for i, name in enumerate(labels))
        print(f"labels: {table}")


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# --- subcommand handlers ------------------------------------------------------


def _cmd_interval(args):
    g, labels = _load_graph(args)
    spec = _spec_from_args(args)
    u, v = _parse_pair(args.pair, labels)
    result = interval(g, spec, u, v)
    _maybe_label_table(args, labels)
    names = _names(result, labels)
    _emit(args, {"command": "interval", "convexity": spec.name,
                 "u": labels[u], "v": labels[v], "result": names},
          "{" + ",".join(names) + "}")
    return 0


def _cmd_set_query(args):
    g, labels = _load_graph(args)
    spec = _spec_from_args(args)
    s = _parse_vertex_set(args.set, labels)
    result = args.query(g, spec, s)
    _maybe_label_table(args, labels)
    payload = {"command": args.subcommand, "convexity": spec.name,
               "set": _names(s, labels)}
    if isinstance(result, bool):
        payload["verdict"] = result
        _emit(args, payload, "true" if result else "false")
        return 0 if result else 1
    payload["result"] = names = _names(result, labels)
    _emit(args, payload, "{" + ",".join(names) + "}")
    return 0


def _cmd_convex_sets(args):
    g, labels = _load_graph(args)
    spec = _spec_from_args(args)
    sets = all_convex_sets(g, spec)
    _maybe_label_table(args, labels)
    named = [_names(s, labels) for s in sets]
    _emit(args, {"command": "convex-sets", "convexity": spec.name,
                 "count": len(sets), "sets": named},
          "".join("{" + ",".join(names) + "}\n" for names in named)
          + f"total: {len(sets)}")
    return 0


def _cmd_is_geometry(args):
    g, labels = _load_graph(args)
    spec = _spec_from_args(args)
    check = is_convex_geometry_mkm if args.mode == "mkm" else satisfies_antiexchange
    report = check(g, spec)
    _maybe_label_table(args, labels)
    _emit(args, {"command": "is-geometry", "convexity": spec.name,
                 "mode": args.mode, "verdict": report.verdict,
                 "report": report.to_dict(labels)},
          f"{'true' if report.verdict else 'false'} ({args.mode})"
          + ("" if report.verdict else f" witness: {report.to_dict(labels)}"))
    return 0 if report.verdict else 1


def _cmd_recognize(args):
    g, labels = _load_graph(args)
    if args.cls == "diamAtMost" and args.k is None:
        raise GraphInputError("--k is required with --class diamAtMost")
    if args.cls != "diamAtMost" and args.k is not None:
        raise GraphInputError("--k only applies to --class diamAtMost")
    verdict = recognize(g, args.cls, k=args.k)
    payload = {"command": "recognize", "class": args.cls, "verdict": verdict}
    if args.k is not None:
        payload["k"] = args.k
    _maybe_label_table(args, labels)
    _emit(args, payload, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_verify(args):
    resolve_theorem(args.theorem)  # fail fast on unknown ids
    graphs = read_graph6_lines(args.graph6_file) if args.graph6_file else None
    result = verify_theorem(args.theorem, n_max=args.max_n, jobs=args.jobs,
                            graphs=graphs)
    if args.certificates:
        write_certificates(args.certificates, result.certificates)
    summary = result.summary()
    lines = [f"{result.ident}: graphs={summary['graphs']} "
             f"geometries={summary['geometries']} "
             f"classMembers={summary['classMembers']} "
             f"certificates={summary['certificates']}"]
    lines += [f"  violation {cert['g6']} geometry={cert['geometry']} "
              f"class={cert['class']}" for cert in result.certificates]
    _emit(args, {"command": "verify", "summary": summary,
                 "certificates": result.certificates}, "\n".join(lines))
    return 0 if not result.certificates else 1


def _cmd_verify_lemma(args):
    resolve_lemma(args.lemma)
    result = verify_lemma(args.lemma, n_max=args.max_n, jobs=args.jobs)
    summary = result.summary()
    _emit(args, {"command": "verify-lemma", "summary": summary,
                 "certificates": result.certificates},
          f"{result.ident}: graphs={summary['graphs']} "
          f"domain={summary['classMembers']} "
          f"holds={summary['geometries']} "
          f"certificates={summary['certificates']}")
    return 0 if not result.certificates else 1


def _cmd_fixtures(args):
    seven_ok = nonhereditary_fixture_check()
    g = GEM_FIXTURE
    labels = list(GEM_FIXTURE_LABELS)
    spec = geodetic()
    ext = extreme_vertices(g, spec, g.vertex_set())
    closure = hull(g, spec, ext)
    gem_ok = (_names(ext, labels) == ["a", "d"]
              and _names(closure, labels) == ["a", "d", "e"])
    verdict = seven_ok and gem_ok
    _emit(args, {"command": "fixtures", "sevenFixture": seven_ok,
                 "gemExtremes": _names(ext, labels),
                 "gemHull": _names(closure, labels), "verdict": verdict},
          f"seven-vertex fixture: {'ok' if seven_ok else 'FAILED'}\n"
          f"gem fixture: ext(V)={{{','.join(_names(ext, labels))}}} "
          f"hull={{{','.join(_names(closure, labels))}}} "
          f"{'ok' if gem_ok else 'FAILED'}")
    return 0 if verdict else 1


def _cmd_enumerate(args):
    codes = [emit_graph6(g) for g in connected_graphs(args.n)]
    _emit(args, {"command": "enumerate", "n": args.n, "count": len(codes),
                 "graphs": codes},
          "\n".join(codes))
    return 0


def _cmd_render_dot(args):
    g, labels = _load_graph(args)
    s = _parse_vertex_set(args.set, labels)
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        attrs = ' [style=filled, fillcolor=lightblue]' if s & bit(v) else ""
        lines.append(f'  "{labels[v]}"{attrs};')
    for u, v in g.edges():
        lines.append(f'  "{labels[u]}" -- "{labels[v]}";')
    lines.append("}")
    dot = "\n".join(lines)
    _emit(args, {"command": "render-dot", "dot": dot}, dot)
    return 0


# --- parser wiring --------------------------------------------------------------


_SET_QUERIES = (
    ("hull", hull, "convex hull of a vertex set"),
    ("is-convex", is_convex, "is the vertex set convex"),
    ("extreme", extreme_vertices, "extreme vertices of a convex set"),
)


def _add_input_args(sub):
    sub.add_argument("path", nargs="?", help="input graph file")
    sub.add_argument("--graph6", help="inline graph6 string instead of a file")
    sub.add_argument("--format", choices=("graph6", "edges"), default="edges",
                     help="file format (default: edges)")
    sub.add_argument("--json", action="store_true", help="structured output")


def _add_convexity_args(sub):
    sub.add_argument("--convexity", required=True,
                     help="one of: " + ", ".join(CONVEXITY_TOKENS))
    sub.add_argument("--family", help="graph6 family file (ffree only)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convexgeom",
        description="Graph convexity engine and exhaustive verification harness.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("interval", help="interval I(u,v) of a vertex pair")
    _add_input_args(sub)
    _add_convexity_args(sub)
    sub.add_argument("--pair", required=True, help="vertex pair 'u,v'")
    sub.set_defaults(func=_cmd_interval)

    for name, query, text in _SET_QUERIES:
        sub = subs.add_parser(name, help=text)
        _add_input_args(sub)
        _add_convexity_args(sub)
        sub.add_argument("--set", default="", help="comma-separated vertex labels")
        sub.set_defaults(func=_cmd_set_query, query=query)

    sub = subs.add_parser("convex-sets", help="list every convex set")
    _add_input_args(sub)
    _add_convexity_args(sub)
    sub.set_defaults(func=_cmd_convex_sets)

    sub = subs.add_parser("is-geometry", help="convex-geometry test")
    _add_input_args(sub)
    _add_convexity_args(sub)
    sub.add_argument("--mode", choices=("mkm", "antiexchange"), default="mkm")
    sub.set_defaults(func=_cmd_is_geometry)

    sub = subs.add_parser("recognize", help="graph-class membership")
    _add_input_args(sub)
    sub.add_argument("--class", dest="cls", required=True,
                     choices=CLASS_KINDS, help="class kind")
    sub.add_argument("--k", type=int, help="bound for diamAtMost")
    sub.set_defaults(func=_cmd_recognize)

    sub = subs.add_parser("verify", help="exhaustively check a theorem entry")
    sub.add_argument("--theorem", required=True, help="registry id, e.g. T-MONO")
    sub.add_argument("--max-n", type=int, help="largest vertex count")
    sub.add_argument("--certificates", help="write violations to this JSONL file")
    sub.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    sub.add_argument("--graph6-file",
                     help="check these graphs instead of the built-in enumerator")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("verify-lemma", help="exhaustively check a lemma entry")
    sub.add_argument("--lemma", required=True, help="registry id, e.g. L-HOWORKA")
    sub.add_argument("--max-n", type=int, help="largest vertex count")
    sub.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(func=_cmd_verify_lemma)

    sub = subs.add_parser("fixtures", help="run the bundled reference fixtures")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(func=_cmd_fixtures)

    sub = subs.add_parser("enumerate", help="stream connected graphs as graph6")
    sub.add_argument("--n", type=int, required=True, help="vertex count")
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.set_defaults(func=_cmd_enumerate)

    sub = subs.add_parser("render-dot", help="DOT rendering with optional highlight")
    _add_input_args(sub)
    sub.add_argument("--set", default="", help="vertices to highlight")
    sub.set_defaults(func=_cmd_render_dot)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()           # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (convexgeom enumerate | head): no input
        # fault, and the interpreter's last flush must not report one either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141                   # 128 + SIGPIPE, as a shell reports it
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphInputError, UsageError, UnsupportedOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        # an input file that cannot be opened or is not the text it claims
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
