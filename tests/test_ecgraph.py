from functools import lru_cache

import numpy as np
import pytest

from qisog import ecgraph, numth
from qisog.errors import PreconditionError

# ---------------------------------------------------------------------------
# the scan oracle: supersingular j-invariants from the Legendre family, each
# decided by an exhaustive point count over F_p^2 (both costs grow as p^3)


@lru_cache(maxsize=None)
def _all(p: int):
    """Every element a + b t of F_p^2, as two flat arrays A, B."""
    A, B = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    return A.ravel().astype(np.int64), B.ravel().astype(np.int64)


@lru_cache(maxsize=None)
def chi_table(p: int):
    """chi[a*p+b] in {-1,0,1}: quadratic character of a + b t."""
    c = ecgraph._field(p).c
    A, B = _all(p)
    SA = (A * A + c * B * B) % p
    SB = (2 * A * B) % p
    chi = np.full(p * p, -1, dtype=np.int64)
    chi[SA * p + SB] = 1
    chi[0] = 0
    return chi


def count_points(field, a, b) -> int:
    """#E(F_p^2) for y^2 = x^3 + a x + b by a full character sum."""
    p, c = field.p, field.c
    A, B = _all(p)
    # f(x) = x^3 + a x + b over all x = A + B t
    X2A = (A * A + c * B * B) % p
    X2B = (2 * A * B) % p
    X3A = (X2A * A + c * X2B * B) % p
    X3B = (X2A * B + X2B * A) % p
    FA = (X3A + a[0] * A + c * a[1] * B + b[0]) % p
    FB = (X3B + a[0] * B + a[1] * A + b[1]) % p
    return int(p * p + 1 + chi_table(p)[FA * p + FB].sum())


def curve_from_j(field, j):
    """Short Weierstrass coefficients (a, b) with the given j-invariant."""
    if j == field.scalar(0):
        return field.scalar(0), field.scalar(1)
    if j == field.scalar(1728):
        return field.scalar(1), field.scalar(0)
    m = field.mul(j, field.sub(field.scalar(1728), j))  # j(1728 - j)
    a = field.mul(field.scalar(3), m)
    b = field.mul(field.scalar(2), field.mul(m, field.sub(field.scalar(1728), j)))
    return a, b


def is_supersingular_j(field, j) -> bool:
    """A curve with that j-invariant has (p-1)^2 or (p+1)^2 points."""
    n = count_points(field, *curve_from_j(field, j))
    p = field.p
    return n in ((p - 1) ** 2, (p + 1) ** 2)


def _hasse_lambda_roots(field):
    """Roots in F_p^2 of H_p(x) = sum binom(m,i)^2 x^i, m = (p-1)/2,
    found by a vectorized Horner scan over the whole field."""
    p, c = field.p, field.c
    m = (p - 1) // 2
    coeffs = [1]
    for i in range(1, m + 1):
        coeffs.append(coeffs[-1] * (m - i + 1) // i)
    coeffs = [co * co % p for co in coeffs]  # degree m, ascending
    A, B = _all(p)
    RA = np.zeros(p * p, dtype=np.int64)
    RB = np.zeros(p * p, dtype=np.int64)
    for co in reversed(coeffs):
        RA, RB = (RA * A + c * RB * B + co) % p, (RA * B + RB * A) % p
    hits = np.nonzero((RA == 0) & (RB == 0))[0]
    return [(int(h) // p, int(h) % p) for h in hits]


def _j_from_lambda(field, lam):
    one = field.scalar(1)
    l2 = field.mul(lam, lam)
    num = field.add(field.sub(l2, lam), one)  # λ^2 - λ + 1
    num3 = field.mul(field.mul(num, num), num)
    den = field.mul(l2, field.mul(field.sub(lam, one), field.sub(lam, one)))
    return field.mul(field.scalar(256), field.mul(num3, field.inv(den)))


def scanned_j_list(p: int) -> list:
    """The supersingular j-invariants by the scan: every isomorphism class
    has a Legendre model, so no j is missed."""
    field = ecgraph._field(p)
    js = {_j_from_lambda(field, lam) for lam in _hasse_lambda_roots(field)
          if lam not in ((0, 0), (1, 0))}  # degenerate Legendre parameters
    assert all(is_supersingular_j(field, j) for j in js)
    return sorted(js)


def primes(lo, hi):
    return [p for p in range(lo, hi + 1) if numth.is_prime(p)]


def gcd_walk_j_list(p: int) -> list:
    """The former walk, kept as the reference for the quadratic one: every
    Phi_2(j, Y) split by gcds with Y^(p^2) - Y (ecgraph._roots)."""
    field = ecgraph._field(p)
    phi2 = ecgraph.load_modpoly(2)
    seed = field.scalar(ecgraph._seed(p))
    seen, queue = {seed}, [seed]
    for j in queue:
        for r in ecgraph._roots(field, phi2.eval_poly_in_y(field, j)):
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return sorted(seen)


class TestSupersingularList:
    @pytest.mark.parametrize("p,count", [(11, 2), (13, 1), (37, 3), (101, 9)])
    def test_counts(self, p, count):
        assert len(ecgraph.supersingular_j_list(p)) == count

    def test_special_j_values(self):
        # j = 0 supersingular iff p = 2 mod 3; j = 1728 iff p = 3 mod 4
        js = ecgraph.supersingular_j_list(11)
        assert (0, 0) in js and (1728 % 11, 0) in js

    def test_every_reported_j_passes_point_count(self):
        f = ecgraph._field(37)
        for j in ecgraph.supersingular_j_list(37):
            assert is_supersingular_j(f, j)

    def test_ordinary_j_rejected(self):
        f = ecgraph._field(11)
        assert not is_supersingular_j(f, f.scalar(2))

    @pytest.mark.parametrize("p", primes(5, 113))
    def test_walk_matches_scan_oracle(self, p):
        # includes the CM-seeded primes p = 1 mod 12: 13, 37, 61, 73, 97, 109
        assert ecgraph.supersingular_j_list(p) == scanned_j_list(p)

    @pytest.mark.slow
    @pytest.mark.parametrize("p", primes(5, 1000))
    def test_walk_matches_scan_oracle_sweep(self, p):
        assert ecgraph.supersingular_j_list(p) == scanned_j_list(p)

    @pytest.mark.parametrize("p", [5, 13, 37, 73, 97, 113, 241, 409])
    def test_walk_matches_gcd_walk(self, p):
        # CM seeds at 13, 37, 73, 97, 241, 409; p = 1 mod 8 at 73, 97, 113, 241, 409
        assert ecgraph.supersingular_j_list(p) == gcd_walk_j_list(p)

    def test_seed_table_covers_max_p(self):
        def missed(p):
            return p % 12 == 1 and all(numth.kronecker(D, p) != -1 for D, _ in ecgraph.CM_SEEDS)

        assert not any(missed(p) for p in primes(5, ecgraph.MAX_P))
        assert next(p for p in primes(5, 20000) if missed(p)) == 15073

    def test_roots_against_brute_force(self):
        # Phi_2(j, Y) for every j in F_p: roots outside F_p^2 must be dropped
        p = 11
        f = ecgraph._field(p)
        mp = ecgraph.load_modpoly(2)
        field_elems = [(a, b) for a in range(p) for b in range(p)]
        for j0 in range(p):
            coeffs = mp.eval_poly_in_y(f, f.scalar(j0))
            want = set()
            for y in field_elems:
                acc = (0, 0)
                for c in reversed(coeffs):
                    acc = f.add(f.mul(acc, y), c)
                if acc == (0, 0):
                    want.add(y)
            got = ecgraph._roots(f, coeffs)
            assert len(got) == len(set(got)) and set(got) == want

    def test_p_above_max_rejected(self):
        with pytest.raises(PreconditionError):
            ecgraph.supersingular_j_list(1009)


class TestFp2Sqrt:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 41, 73, 97, 113])
    def test_against_brute_force(self, p):
        """Every element of F_p^2: a root that squares back for each square,
        None for each non-square.  17, 41, 73, 97 and 113 are 1 mod 8, where
        Tonelli-Shanks takes more than one round."""
        f = ecgraph._field(p)
        elems = [(a, b) for a in range(p) for b in range(p)]
        squares = {f.mul(y, y) for y in elems}
        assert len(squares) == (p * p + 1) // 2
        for x in elems:
            r = f.sqrt(x)
            assert (r is not None) == (x in squares)
            if r is not None:
                assert f.mul(r, r) == x


class TestModPoly:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_load_and_validate(self, ell):
        mp = ecgraph.load_modpoly(ell)
        assert mp.degree() == ell + 1
        # symmetric storage: a >= b covers everything
        assert all(a >= b for (a, b) in mp.coeffs)

    def test_phi2_classical_values(self):
        mp = ecgraph.load_modpoly(2)
        assert mp.coefficient(2, 1) == 1488
        assert mp.coefficient(1, 1) == 40773375
        assert mp.coefficient(0, 0) == -157464000000000

    def test_missing_ell_rejected(self):
        with pytest.raises(PreconditionError):
            ecgraph.load_modpoly(13)


class TestIsogenyGraph:
    @pytest.mark.parametrize("p,ell", [(11, 2), (37, 2), (37, 3), (11, 5), (13, 7)])
    def test_out_degree_and_connectivity(self, p, ell):
        g = ecgraph.build_isogeny_graph(p, ell)
        for v in g.vertices():
            assert g.out_degree(v) == ell + 1
        assert g.is_connected()

    def test_p11_l2_shape(self):
        g = ecgraph.build_isogeny_graph(11, 2)
        assert g.num_vertices() == 2
        assert g.num_edges() == 6

    def test_dual_edge_balance_away_from_special_j(self):
        for p, ell in ((37, 2), (101, 2), (37, 3)):
            g = ecgraph.build_isogeny_graph(p, ell)
            f = ecgraph._field(p)
            special = {f.scalar(0), f.scalar(1728)}
            for (s, d), rec in g.edges.items():
                if s != d and s not in special and d not in special:
                    assert g.multiplicity(d, s) == rec["count"]

    def test_ell_equal_p_rejected(self):
        with pytest.raises(PreconditionError):
            ecgraph.build_isogeny_graph(7, 7)


class TestReducedGraph:
    def test_conjugates_merge(self):
        g = ecgraph.build_isogeny_graph(37, 2)
        r = ecgraph.reduce_graph(g)
        assert r.num_vertices() == 2
        assert r.num_vertices() <= g.num_vertices()

    def test_out_degree_preserved(self):
        g = ecgraph.build_isogeny_graph(101, 2)
        r = ecgraph.reduce_graph(g)
        for v in r.vertices():
            assert r.out_degree(v) == 3

    def test_rational_vertices_fixed(self):
        g = ecgraph.build_isogeny_graph(11, 2)
        r = ecgraph.reduce_graph(g)
        assert r.num_vertices() == g.num_vertices() == 2  # both j in F_p
