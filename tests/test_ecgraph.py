from functools import lru_cache

import numpy as np
import pytest

from qisog import cli, ecgraph, numth
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
    return field.mul(field.scalar(256), field.mul(num3, _inv(field, den)))


def _inv(field, x):
    """1/x = conj(x)/N(x), N(x) = x conj(x) in F_p."""
    norm = field.mul(x, field.frobenius(x))[0]
    return field.mul(field.frobenius(x), field.scalar(pow(norm, -1, field.p)))


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


# ---------------------------------------------------------------------------
# the gcd oracle: the former walk, which split every Phi_2(j, Y) by
# polynomial gcds over F_p^2 (coefficient lists, ascending, no zero
# leading term)


def _trim(f):
    while f and f[-1] == (0, 0):
        f = f[:-1]
    return f


def _pmul(field, f, g):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for k, b in enumerate(g):
            out[i + k] = field.add(out[i + k], field.mul(a, b))
    return out


def _psub(field, f, g):
    n = max(len(f), len(g))
    f, g = f + [(0, 0)] * (n - len(f)), g + [(0, 0)] * (n - len(g))
    return _trim([field.sub(a, b) for a, b in zip(f, g)])


def _pdivmod(field, f, g):
    """Quotient and remainder of f by g."""
    f, q = list(f), [(0, 0)] * max(len(f) - len(g) + 1, 0)
    inv = _inv(field, g[-1])
    for s in range(len(f) - len(g), -1, -1):
        c = q[s] = field.mul(f[s + len(g) - 1], inv)
        for i, b in enumerate(g):
            f[s + i] = field.sub(f[s + i], field.mul(c, b))
    return q, _trim(f[:len(g) - 1])


def _ppowmod(field, f, e, m):
    out = [field.scalar(1)]
    while e:
        if e & 1:
            out = _pdivmod(field, _pmul(field, out, f), m)[1]
        f = _pdivmod(field, _pmul(field, f, f), m)[1]
        e >>= 1
    return out


def _pgcd(field, f, g):
    """Monic gcd of f and g."""
    while g:
        f, g = g, _pdivmod(field, f, g)[1]
    inv = _inv(field, f[-1])
    return [field.mul(c, inv) for c in f]


def gcd_roots(field, f) -> list:
    """Distinct roots in F_p^2 of f: the factors of g = gcd(f, Y^(p^2) - Y),
    split by gcd(h, (Y + a)^((p^2 - 1)/2) - 1) with a scanning F_p^2 in
    lexicographic order."""
    q, one = field.p ** 2, field.scalar(1)
    y = [(0, 0), one]
    g = _pgcd(field, f, _psub(field, _ppowmod(field, y, q, f), y))
    pending, roots = [g] if len(g) > 1 else [], []
    scan = ((a, b) for a in range(field.p) for b in range(field.p))
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(field.sub((0, 0), h[0]))
            continue
        a = next(scan)
        d = _pgcd(field, h, _psub(field, _ppowmod(field, [a, one], (q - 1) // 2, h), [one]))
        pending += [d, _pdivmod(field, h, d)[0]] if 1 < len(d) < len(h) else [h]
    return roots


def gcd_walk_j_list(p: int) -> list:
    """The former walk, kept as a reference for the one that divides out a
    known root: every Phi_2(j, Y) split by gcd_roots."""
    field = ecgraph._field(p)
    phi2 = ecgraph.load_modpoly(2)
    seed = field.scalar(ecgraph._seed(p))
    seen, queue = {seed}, [seed]
    for j in queue:
        for r in gcd_roots(field, phi2.eval_poly_in_y(field, j)):
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

    @pytest.mark.parametrize("p", primes(5, 113) + [241, 409])
    def test_walk_matches_scan_oracle(self, p):
        # includes the CM-seeded primes p = 1 mod 12: 13, 37, 61, 73, 97, 109,
        # 241 and 409, and the primes 1 mod 8: 17, 41, 73, 89, 97, 113, 241, 409
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

    def test_seed_cubic_has_root_in_fp(self):
        """Phi_2(seed, Y) is a cubic over F_p with all roots in F_p^2, so it
        has a root in F_p, where the walk starts."""
        phi2 = ecgraph.load_modpoly(2)
        for p in primes(5, ecgraph.MAX_P):
            f = ecgraph._field(p)
            coeffs = phi2.eval_poly_in_y(f, f.scalar(ecgraph._seed(p)))
            assert all(c[1] == 0 for c in coeffs)
            assert any(ecgraph._divide_linear(f, coeffs, f.scalar(r))[1] == (0, 0)
                       for r in range(p))

    def test_roots_against_brute_force(self):
        # the gcd oracle on Phi_2(j, Y) for every j in F_p: roots outside
        # F_p^2 must be dropped
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
            got = gcd_roots(f, coeffs)
            assert len(got) == len(set(got)) and set(got) == want

    def test_divide_linear_against_brute_force(self):
        # Phi_2(j, Y) for every j in F_p, divided by Y - r for every r in F_p^2
        p = 11
        f = ecgraph._field(p)
        mp = ecgraph.load_modpoly(2)
        field_elems = [(a, b) for a in range(p) for b in range(p)]
        for j0 in range(p):
            coeffs = mp.eval_poly_in_y(f, f.scalar(j0))
            for r in field_elems:
                value = (0, 0)
                for c in reversed(coeffs):
                    value = f.add(f.mul(value, r), c)
                q, rem = ecgraph._divide_linear(f, coeffs, r)
                assert rem == value and len(q) == len(coeffs) - 1
                # (Y - r) q + rem = Y q - r q + rem, coefficient by coefficient
                shifted, scaled = [(0, 0)] + q, [f.mul(r, c) for c in q] + [(0, 0)]
                back = [f.sub(a, b) for a, b in zip(shifted, scaled)]
                assert [f.add(back[0], rem)] + back[1:] == coeffs

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

    @pytest.mark.parametrize("text,where", [
        ("", "line 1"), ("ell\n", "line 1"), ("ell two\n", "line 1"), ("ell 3\n", "line 1"),
        ("phi 2\n", "line 1"), ("ell 2\n3 0 1\n2 1\n", "line 3"), ("ell 2\n3 0 x\n", "line 2"),
        ("ell 2\n\n3 0 1 4\n", "line 3"), ("ell 2\n0 3 1\n", "line 2"),
        ("ell 2\n3 -1 1\n", "line 2"), ("ell 2\n3 0 \xff\n", "line 2"),
        ("ell 2\n", "Phi_2 has wrong degree 0"), ("ell 2", "Phi_2 has wrong degree 0"),
        ("ell 2\n3 0 2\n1 1 1\n", "Phi_2 is not monic"),
        ("ell 2\n3 0 1\n", "Phi_2 fails the mod-2 congruence at X^1Y^1"),
    ], ids=["empty", "bare-header", "word-ell", "other-ell", "no-ell", "two-fields", "word-field",
            "four-fields", "a-below-b", "negative-b", "not-utf8", "no-coefficients",
            "header-only", "not-monic", "not-congruent"])
    def test_malformed_file_rejected(self, text, where, tmp_path, monkeypatch):
        """A header or coefficient line that does not parse, and a file whose
        polynomial fails the degree, shape or mod-l congruence check, is a
        PreconditionError naming the file (and the line, for a parse
        failure); the CLI reports it with exit code 1, not a traceback."""
        path = tmp_path / "phi2.txt"
        path.write_bytes(text.encode("latin-1"))
        monkeypatch.setenv("QISOG_MODPOLY_DIR", str(tmp_path))
        ecgraph.load_modpoly.cache_clear()
        try:
            sep = ", " if where.startswith("line") else ": "
            with pytest.raises(PreconditionError) as err:
                ecgraph.load_modpoly(2)
            assert str(err.value).startswith(f"{path}{sep}{where}")
            assert cli.main(["ssgraph", "--p", "11", "--ell", "2"]) == 1
        finally:
            ecgraph.load_modpoly.cache_clear()


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
