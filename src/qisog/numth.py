"""Number-theoretic primitives: primality and factorization, Kronecker and
Hilbert symbols, square roots mod p, fundamental discriminants, the class
number, and the ramified-pair parameter search.

Everything here is exact integer arithmetic; symbols at the even place use the
Kronecker convention so that the split/inert/ramified trichotomy stays
meaningful at 2.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

INF = float("inf")  # the archimedean place

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, deterministic far beyond desk scale."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization of |n|; fine for desk-scale inputs."""
    n = abs(n)
    if n == 0:
        raise PreconditionError("cannot factor 0")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor of n, with the sign of n."""
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return sign * out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), n != 0."""
    if n == 0:
        raise PreconditionError("kronecker undefined for n = 0")
    a, n = int(a), int(n)
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is now odd and positive; quadratic reciprocity loop
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p by Tonelli-Shanks, or None
    when a is not a square mod p."""
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        return None if a else 0
    s, q = _two_adic_split(p - 1, 2)  # p - 1 = 2^s q, q odd
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # invariant: r^2 = a t, t of order dividing 2^(m-1), c of order 2^m
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _two_adic_split(n: int, ell: int) -> tuple[int, int]:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a,b)_v over the completion at v (prime or INF).

    Computed by the valuation/unit formulas, not by solvability search.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise PreconditionError("hilbert symbol needs nonzero arguments")
    # squares are invisible: replace x by numerator*denominator
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if place == INF:
        return -1 if ai < 0 and bi < 0 else 1
    ell = int(place)
    if not is_prime(ell):
        raise PreconditionError(f"place {place} is not prime")
    alpha, u = _two_adic_split(ai, ell)
    beta, v = _two_adic_split(bi, ell)
    if ell != 2:
        eps = ((ell - 1) // 2) % 2
        sign = -1 if (alpha * beta * eps) % 2 else 1
        return sign * kronecker(u, ell) ** beta * kronecker(v, ell) ** alpha
    e = ((u - 1) // 2) * ((v - 1) // 2)
    e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
    return -1 if e % 2 else 1


def hilbert_ramified_places(a: int, b: int) -> set:
    """All places where (a,b)_v = -1; finite by the product formula."""
    places = {INF} | set(factorize(2 * a * b))
    return {v for v in places if hilbert_symbol(a, b, v) == -1}


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for negative d = 0,1 mod 4."""
    s = squarefree_part(d)
    return s if s % 4 == 1 else 4 * s


def class_number(p: int) -> int:
    """Eichler's class number of the quaternion algebra ramified at p and oo:
    the number of left ideal classes of a maximal order, and of
    supersingular j-invariants over F_p^2."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def pizer_params(p: int) -> int:
    """Auxiliary q with (-q, -p) ramified exactly at p and the real place.

    q = 1 for p = 3 mod 4 and q = 2 for p = 5 mod 8; otherwise the smallest
    prime q = 3 mod 4 with (p/q) = -1.  Any admissible q would do; smallest
    keeps runs reproducible.

    The search ends: for p = 1 mod 4, (p/q) = (q/p) by reciprocity, and by
    Dirichlet some prime q = 3 mod 4 lies in any non-residue class mod p.
    It stops at q <= 11 for every p < 1000, and at q <= 59 for p < 20000.
    """
    if p <= 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    if p % 4 == 3:
        return 1
    if p % 8 == 5:
        return 2
    q = 3
    while not (is_prime(q) and kronecker(p, q) == -1):
        q += 4
    return q
