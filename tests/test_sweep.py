"""Whole-range sweep over the stated range: every prime p <= 500 with
l in {2, 3}.  Slow, so deselected by default; run with `pytest -m slow`.

enumerate_classes checks the mass formula, the Brandt row sums and the
relation a_j b_ij = a_i b_ji inline; the sweep adds the class-number formula
and the independent counting-formula cross-check of every Brandt entry.
"""

import pytest

from qisog import brandt, numth
from qisog import ideals as idl

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
