"""Command-line front end: every computation reachable with JSON/DOT output.

All numeric output is exact (integers, or rationals rendered as strings);
logging goes to stderr, data to stdout or the requested file.  Exit code 1
flags precondition violations, 2 a cap exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

from . import bass, brandt, ecgraph, numth
from . import ideals as idl
from . import orient
from .errors import CapExceeded, PreconditionError
from .quat import QuatAlgebra

log = logging.getLogger("qisog")
LOG_FORMAT = logging.Formatter("%(levelname)s %(name)s: %(message)s")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_p(p: int) -> None:
    if p <= 3 or not numth.is_prime(p):
        raise PreconditionError(f"p must be a prime > 3, got {p}")


def _check_ell(p: int, ell: int) -> None:
    if not numth.is_prime(ell) or ell == p:
        raise PreconditionError(f"ell must be a prime different from p, got {ell}")


def cmd_algebra(args) -> None:
    _check_p(args.p)
    alg = QuatAlgebra.for_prime(args.p)
    roots = idl.root_maximal_orders(args.p)
    glob = idl.global_root_orders(roots)
    O = bass.bass_order(alg)
    doc = {
        "p": args.p,
        "q": alg.q,
        "d_i": alg.d_i,
        "d_j": alg.d_j,
        "root_orders": [
            {"basis": [list(r) for r in o.lattice.mat], "den": o.lattice.den,
             "discrd": o.reduced_discriminant}
            for o in roots
        ],
        "global_root_orders": len(glob),
        "bass_order": {
            "basis": [list(r) for r in O.lattice.mat],
            "den": O.lattice.den,
            "discrd": O.reduced_discriminant,
            "maximal": O.is_maximal,
        },
    }
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        lines = [f"p = {args.p}, q = {alg.q}: B = ({alg.d_i}, {alg.d_j} | Q)"]
        for n, o in enumerate(roots):
            lines.append(f"root order {n}: discrd {o.reduced_discriminant}, "
                         f"basis {o.lattice.mat} / {o.lattice.den}")
        lines.append(f"orders containing both maximal quadratic orders: {len(glob)}")
        lines.append(f"bass order: discrd {O.reduced_discriminant}"
                     + (" (maximal)" if O.is_maximal else ""))
        _emit(args, "\n".join(lines))


def cmd_brandt(args) -> None:
    _check_p(args.p)
    _check_ell(args.p, args.ell)
    O0 = idl.root_maximal_order(args.p)
    cs = brandt.enumerate_classes(O0, args.ell)
    doc = brandt.class_set_json(cs)
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        lines = [f"p = {args.p}, ell = {args.ell}: {doc['classes']} classes",
                 f"unit sizes: {doc['unit_sizes']}", "brandt matrix:"]
        lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in doc["brandt"]]
        _emit(args, "\n".join(lines))


def cmd_ssgraph(args) -> None:
    _check_p(args.p)
    _check_ell(args.p, args.ell)
    g = ecgraph.build_isogeny_graph(args.p, args.ell)
    r = ecgraph.reduce_graph(g)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot())
        log.info("wrote %s", args.dot)
    doc = {
        "p": args.p,
        "ell": args.ell,
        "vertices": g.num_vertices(),
        "edges": g.num_edges(),
        "connected": g.is_connected(),
        "reduced_vertices": r.num_vertices(),
        "graph": g.to_json_dict(),
    }
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        _emit(args, f"G({args.p},{args.ell}): {doc['vertices']} vertices, "
                    f"{doc['edges']} edges, connected: {doc['connected']}; "
                    f"reduced: {doc['reduced_vertices']} vertices")


def cmd_isocheck(args) -> None:
    _check_p(args.p)
    _check_ell(args.p, args.ell)
    G = ecgraph.build_isogeny_graph(args.p, args.ell)
    O0 = idl.root_maximal_order(args.p)
    cs = brandt.enumerate_classes(O0, args.ell)
    Br = brandt.brandt_graph(cs)
    witness = brandt.check_graph_isomorphism(G, Br)
    doc = {
        "p": args.p,
        "ell": args.ell,
        "curve_vertices": G.num_vertices(),
        "class_number": cs.class_number,
        "isomorphic": witness is not None,
    }
    if witness is not None:
        gidx, bidx = G._index(), Br._index()
        doc["witness"] = {str(gidx[a]): bidx[witness[a]] for a in witness}
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        verdict = "isomorphic" if doc["isomorphic"] else "NOT isomorphic"
        _emit(args, f"G({args.p},{args.ell}) vs Brandt: {verdict}, "
                    f"{doc['curve_vertices']} vertices")
    if not doc["isomorphic"]:
        raise PreconditionError("graphs failed the isomorphism check")


def cmd_oriented(args) -> None:
    _check_p(args.p)
    _check_ell(args.p, args.ell)
    start = idl.root_maximal_order(args.p)
    g = orient.walk_component(start, args.ell, depth=args.depth)
    local, glob = orient.find_roots(g, args.ell)
    reports = orient.audit_component(g, args.ell)
    audit_pass = all(r.ok for r in reports)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot())
        log.info("wrote %s", args.dot)
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(g.to_json())
        log.info("wrote %s", args.json_file)
    doc = {
        "p": args.p,
        "ell": args.ell,
        "depth": args.depth,
        "vertices": g.num_vertices(),
        "tree": g.is_tree_undirected(),
        "local_roots": len(local),
        "global_roots": len(glob),
        "audited_vertices": len(reports),
        "audit_pass": audit_pass,
    }
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        root_word = f"{len(local)} local root" + ("s" if len(local) != 1 else "")
        if len(glob) == len(local):
            root_word += " (global)"
        audit_word = "pass" if audit_pass else "FAIL"
        _emit(args, f"{root_word}; audit: {audit_word}; "
                    f"{g.num_vertices()} vertices, tree: {doc['tree']}")


def cmd_embed(args) -> None:
    _check_p(args.p)
    alg = QuatAlgebra.for_prime(args.p)
    O = bass.bass_order(alg)
    D = O.reduced_discriminant
    syms, locs, e = bass.embedding_numbers(O)
    syms = {str(ell): s for ell, s in syms.items()}
    locs = {str(ell): n for ell, n in locs.items()}
    supers = bass.enumerate_maximal_superorders(O)
    doc = {
        "p": args.p,
        "q": alg.q,
        "discrd": D,
        "eichler_symbols": syms,
        "local_embedding_numbers": locs,
        "global_embedding_number": e,
        "superorder_oracle_count": len(supers),
        "oracle_agrees": len(supers) == e,
    }
    if args.json:
        _emit(args, json.dumps(doc, indent=1))
    else:
        _emit(args, f"p = {args.p}: discrd = {D}, symbols {syms}, "
                    f"e_l {locs}, e = {e}, oracle count {len(supers)} "
                    f"({'agree' if doc['oracle_agrees'] else 'DISAGREE'})")
    if not doc["oracle_agrees"]:
        raise PreconditionError("superorder oracle disagrees with the formula")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qisog",
                                 description="supersingular isogeny graphs and "
                                             "their quaternion counterparts")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--json", action="store_true", help="emit a JSON document")
        sp.add_argument("--out", help="write data output to this file instead of stdout")
        sp.add_argument("-v", "--verbose", action="store_true")
        return sp

    add("algebra", cmd_algebra, help="Pizer basis, root maximal orders, Bass order")
    spb = add("brandt", cmd_brandt, help="class set, Brandt matrix, unit sizes")
    spb.add_argument("--ell", type=int, required=True)
    sps = add("ssgraph", cmd_ssgraph, help="curve-side graph and reduced graph")
    sps.add_argument("--ell", type=int, required=True)
    sps.add_argument("--dot", help="write the graph in DOT format to this path")
    spi = add("isocheck", cmd_isocheck, help="directed-multigraph isomorphism check")
    spi.add_argument("--ell", type=int, required=True)
    spo = add("oriented", cmd_oriented, help="double-oriented component with audit")
    spo.add_argument("--ell", type=int, required=True)
    spo.add_argument("--depth", type=int, default=4,
                     help=f"ball radius; exit 2 if its tree exceeds {orient.VERTEX_CAP} vertices")
    spo.add_argument("--dot", help="write the component in DOT format to this path")
    spo.add_argument("--json-file", help="write the component as JSON to this path")
    add("embed", cmd_embed, help="Eichler symbols, embedding numbers, oracle comparison")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # this call's stderr and level, written once: not by the root's handlers
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(LOG_FORMAT)
    log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
    try:
        args.fn(args)
    except PreconditionError as ex:
        log.error("%s", ex)
        return 1
    except CapExceeded as ex:
        log.error("cap exhausted: %s", ex)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)
        log.propagate = True
    return 0


if __name__ == "__main__":
    sys.exit(main())
