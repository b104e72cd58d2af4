#!/usr/bin/env python3
"""Survey the volcanic-ridge structure of double-oriented components.

For each small prime p and each l in {2, 3, 5}, walk the component of the
first global root, count roots, and tally predicted-vs-observed edge-class
buckets per conductor profile.  Any vertex whose observed edge classes
differ from orient.predicted_counts is listed as an anomaly; a correct
formula lists none.  Everything is exact, so the table doubles as a quick
regression sweep.

Usage: python scripts/ridge_survey.py [pmax] [depth]
"""

import sys
from collections import Counter

from qisog import ideals as idl
from qisog import numth, orient


def bucket_rows(rep: orient.AuditReport) -> list[tuple[str, int, int]]:
    """(bucket name, predicted, observed) for each bucket of the report."""
    return [("+".join(bucket), want, sum(rep.observed.get(c, 0) for c in bucket))
            for bucket, want in rep.predicted]


def survey(p: int, ell: int, depth: int):
    start = idl.root_maximal_order(p)
    g = orient.walk_component(start, ell, depth=depth)
    local, glob = orient.find_roots(g, ell)
    reports = orient.audit_component(g, ell)
    profile = Counter()
    mismatches = []
    for rep in reports:
        attrs = g.vertex_attrs[rep.vertex]
        key = (attrs["f_i"], attrs["f_j"])
        profile[key] += 1
        if not rep.ok:
            mismatches.append((key, bucket_rows(rep)))
    return {
        "vertices": g.num_vertices(),
        "tree": g.is_tree_undirected(),
        "local": len(local),
        "global": len(glob),
        "audited": len(reports),
        "profiles": dict(sorted(profile.items())),
        "mismatches": mismatches,
    }


def main() -> None:
    pmax = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    depth = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    for p in range(5, pmax + 1):
        if not numth.is_prime(p):
            continue
        for ell in (2, 3, 5):
            if ell == p:
                continue
            row = survey(p, ell, depth)
            print(f"p={p:3d} l={ell}: V={row['vertices']:4d} tree={row['tree']} "
                  f"roots local/global={row['local']}/{row['global']} "
                  f"audited={row['audited']}")
            for key, rows in row["mismatches"]:
                print(f"      anomaly at conductors {key}: "
                      + ", ".join(f"{b}={got}(formula {want})" for b, want, got in rows
                                  if want or got))


if __name__ == "__main__":
    main()
