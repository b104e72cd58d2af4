"""Whole-range sweeps over the stated range, every prime p <= 500.  Slow,
so deselected by default; run with `pytest -m slow`.

Class side (l in {2, 3}): enumerate_classes checks the mass formula, the
Brandt row sums and the relation a_j b_ij = a_i b_ji inline; the sweep adds
the class-number formula and the independent counting-formula cross-check
of every Brandt entry.

Double-oriented side (l in {2, 3, 5, 7}): the walk from the first global
root order is a full (l+1)-regular tree whose every expanded vertex passes
the structure audit, and the Bass superorder oracle finds exactly the
global embedding number of maximal orders.
"""

import pytest

from qisog import bass, brandt, numth, orient
from qisog import ideals as idl
from qisog.quat import QuatAlgebra

PRIMES = [p for p in range(5, 501) if numth.is_prime(p)]


def class_number(p: int) -> int:
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


@pytest.mark.slow
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("p", PRIMES)
def test_class_set_and_brandt_matrix(p, ell):
    cs = brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell)
    assert cs.class_number == class_number(p)
    brandt.brandt_matrix(cs, ell, cross_check=True)


WALK_DEPTH = {2: 5, 3: 3, 5: 2, 7: 2}


@pytest.mark.slow
@pytest.mark.parametrize("p,ell", [(p, ell) for p in PRIMES for ell in WALK_DEPTH if ell != p])
def test_oriented_walk_is_an_audited_tree(p, ell):
    depth = WALK_DEPTH[ell]
    g = orient.walk_component(idl.global_root_orders(p)[0], ell, depth)
    assert g.is_tree_undirected()
    assert g.num_vertices() == 1 + (ell + 1) * (ell**depth - 1) // (ell - 1)
    reports = orient.audit_component(g, ell)
    assert reports and all(r.ok for r in reports)


@pytest.mark.slow
@pytest.mark.parametrize("p", PRIMES)
def test_superorder_oracle_matches_embedding_number(p):
    O = bass.bass_order(QuatAlgebra.for_prime(p))
    assert len(bass.enumerate_maximal_superorders(O)) == bass.global_embedding_number(O)
