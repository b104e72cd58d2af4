"""Whole-range sweeps over the stated range, every prime p <= 500.  Slow,
so deselected by default; run with `pytest -m slow`.

Class side (l in {2, 3, 5, 7}): enumerate_classes checks the mass formula, the
Brandt row sums and the relation a_j b_ij = a_i b_ji inline; the sweep adds
the class-number formula and the independent counting-formula cross-check
of every Brandt entry.  The curve graph G(p, l) is isomorphic to the Brandt
graph: the search finds, within a per-case budget, a bijection that keeps
every multiplicity, and for p <= 113 it is the backtracking reference's
witness, keys in the same order.  The tree BFS gives the former BFS's class
set up to relabelling: B = Pi B_old Pi^T and a = Pi a_old, with Pi read off
the equivalence oracle.  Each unit size, counted on the founding ideal's
minimal vectors, is the number of norm-1 pairs of its right order, found
by trace duality.

The class side's CLI output over the whole range, brandt --json and
isocheck --json for every (p, l), is pinned by one sha256, as
test_digest.py's COMBINED pins the grid that covers it up to p = 113.

Type side: for l in {2, 3} the Frobenius-reduced curve graph is isomorphic
to the type graph, and once per p (the types do not depend on l) the
partition read off the type involution equals the pairwise conjugacy
oracle's.

Double-oriented side (l in {2, 3, 5, 7}): the walk from the first global
root order is a full (l+1)-regular tree whose every expanded vertex passes
the structure audit.  Every vertex's conductors, read off coordinates at
the start and derived edge by edge from memberships, are those of the
integer kernels of test_orient.optimal_suborder, the kernel oracle.  The
Bass superorder oracle finds exactly the global embedding number of
maximal orders, the same ones as the unpruned enumeration over every
sublattice of each index.  Its bottom-up enumeration yields exactly the
sublattices of that enumeration that hold the trace Gram rows, and its
trace test keeps every one whose dual is an order.  The frame's depth-1
and depth-2 orders, at the root and at one of its neighbours, are the
right orders of the norm-l ideals.
"""

import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qisog import bass, brandt, cli, ecgraph, numth, orient
from qisog import ideals as idl
from qisog.ideals import QOrder
from qisog.lattice import QLattice
from qisog.quat import QuatAlgebra
from test_bass import assert_bottom_up_enumeration_agrees, assert_oracle_agrees
from test_brandt import (assert_relabels_first_match, assert_unit_sizes_match_right_orders,
                         backtrack_isomorphism, oracle_types, sigma_types)
from test_ideals import assert_root_and_walked_order_agree
from test_orient import kernel_conductors

PRIMES = [p for p in range(5, 501) if numth.is_prime(p)]


ISO_BUDGET_S = 2.0  # per isomorphism search; the range needs at most about 10 ms


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for ell in (2, 3, 5, 7) for p in PRIMES if ell != p])
def test_class_set_and_brandt_matrix(p, ell):
    cs = brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell)
    assert cs.class_number == numth.class_number(p)
    assert_unit_sizes_match_right_orders(cs)
    brandt.brandt_matrix(cs)
    G, Br = ecgraph.build_isogeny_graph(p, ell), brandt.brandt_graph(cs)
    start = time.perf_counter()
    witness = brandt.check_graph_isomorphism(G, Br)
    assert time.perf_counter() - start < ISO_BUDGET_S
    assert set(witness) == set(G.vertices()) and sorted(witness.values()) == Br.vertices()
    for (s, d), rec in G.edges.items():
        assert Br.multiplicity(witness[s], witness[d]) == rec["count"]
    if p <= 113:
        assert list(witness.items()) == list(backtrack_isomorphism(G, Br).items())


# sha256 over the lines "<sha256 of stdout> <exit code> <argv>" of the runs
# brandt --json and isocheck --json for every p in PRIMES and l in {2, 3, 5, 7},
# l != p, in that order, in the format of scripts/cli_digest.py
CLASS_SIDE_DIGEST = "4c6ce1267b9f43161be48324662f7e7eb955ad6c8334a48c1273f1928b506fa3"


@pytest.mark.slow
def test_class_side_output_is_pinned_over_the_range():
    combined = hashlib.sha256()
    for p in PRIMES:
        for ell in (2, 3, 5, 7):
            if ell == p:
                continue
            for cmd in ("brandt", "isocheck"):
                argv = [cmd, "--p", str(p), "--ell", str(ell), "--json"]
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                combined.update(f"{digest} {code} {' '.join(argv)}\n".encode())
    assert combined.hexdigest() == CLASS_SIDE_DIGEST


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for ell in (2, 3, 5, 7) for p in PRIMES if ell != p])
def test_class_set_relabels_first_match(p, ell):
    assert_relabels_first_match(brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell))


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for ell in (2, 3) for p in PRIMES])
def test_reduced_curve_graph_matches_type_graph(p, ell):
    cs = brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell)
    reduced = ecgraph.reduce_graph(ecgraph.build_isogeny_graph(p, ell))
    assert brandt.check_graph_isomorphism(reduced, brandt.type_graph(cs)) is not None


@pytest.mark.slow
@pytest.mark.parametrize("p", PRIMES)
def test_type_partition_matches_oracle(p):
    cs = brandt.enumerate_classes(idl.root_maximal_orders(p)[0], 2)
    assert sigma_types(cs) == oracle_types(cs)


WALK_DEPTH = {2: 5, 3: 3, 5: 2, 7: 2}


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for p in PRIMES for ell in WALK_DEPTH if ell != p])
def test_oriented_walk_is_an_audited_tree(p, ell):
    depth = WALK_DEPTH[ell]
    start = idl.root_maximal_order(p)
    g = orient.walk_component(start, ell, depth)
    assert g.is_tree_undirected()
    assert g.num_vertices() == 1 + (ell + 1) * (ell**depth - 1) // (ell - 1)
    reports = orient.audit_component(g, ell)
    assert reports and all(r.ok for r in reports)
    for key in g.vertices():
        O = QOrder(QLattice(start.algebra, key[1], key[0]))
        attrs = g.vertex_attrs[key]
        assert (attrs["f_i"], attrs["f_j"]) == kernel_conductors(O)


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for p in PRIMES for ell in WALK_DEPTH if ell != p])
def test_neighbour_orders_match_ideal_right_orders(p, ell):
    assert_root_and_walked_order_agree(p, ell)


@pytest.mark.slow
@pytest.mark.parametrize("p", PRIMES)
def test_superorder_oracle_matches_embedding_number(p, monkeypatch):
    O = bass.bass_order(QuatAlgebra.for_prime(p))
    assert len(bass.enumerate_maximal_superorders(O)) == bass.embedding_numbers(O)[2]
    assert_oracle_agrees(O, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("p", PRIMES)
def test_bottom_up_enumeration_matches_filtered_full(p):
    assert_bottom_up_enumeration_agrees(bass.bass_order(QuatAlgebra.for_prime(p)))
