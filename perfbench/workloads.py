"""Seeded query lists for each workload, and the certificates that check
every answer independently of the code that produced it.

The seed only picks inputs; the program under test receives nothing but the
generated queries.  Every list is a stratified draw: the candidate pool is
sorted by the property that sets a query's cost (the prime, the isogeny
degree, the residue class) and cut into as many contiguous strata as there
are queries, with one query drawn from each stratum.  Two seeds therefore
give different inputs with nearly the same cost profile, which keeps the
seed-to-seed spread of the timings small.  No (subcommand, p, l) appears
twice in one list, so no result cache can serve a repeat.

Nothing is filtered out of a pool: primes on which the program is known to
fail (ROADMAP item 1: 73, 193, 241, 313, 337, 409, 457) stay eligible, and
their failures are reported as failures.  Where such a failure changes a
query's cost, the failing pairs form a stratum group of their own, so every
seed draws the same number of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# class-sweep: brandt and isocheck at small p; the ideal and lattice layers
# (equivalence tests over Fincke-Pohst) do nearly all the work.  Up to 113 the
# queries are cheap enough for 34 of them in a 40 s run (0.1-3.5 s each),
# which keeps the median and the tail steady from seed to seed.
CLASS_P_MAX = 113
# order-walk: the depth per l keeps each tree at 37-94 vertices, so that a run
# holds enough walks for a stable median.  The l = 2 trees (94 vertices, about
# 1 s) are the largest, so that the tail falls among them rather than on the
# slowest of the small walks.
WALK_DEPTH = {2: 5, 3: 3, 5: 2, 7: 2}
QUERY_LIMIT_S = 60.0
# root_maximal_orders raises CapExceeded at these primes (ROADMAP item 1)
KNOWN_FAILING_P = frozenset({73, 193, 241, 313, 337, 409, 457})

RANGE_P_MAX = 500
ELLS = (2, 3, 5, 7)


@dataclass
class Query:
    kind: str  # CLI subcommand
    p: int
    ell: int | None = None
    depth: int | None = None

    def argv(self) -> list[str]:
        argv = [self.kind, "--p", str(self.p), "--json"]
        if self.ell is not None:
            argv += ["--ell", str(self.ell)]
        if self.depth is not None:
            argv += ["--depth", str(self.depth)]
        return argv

    def label(self) -> str:
        out = f"{self.kind} p={self.p}"
        if self.ell is not None:
            out += f" l={self.ell}"
        if self.depth is not None:
            out += f" d={self.depth}"
        return out


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def pizer_q(p: int) -> int:
    """The auxiliary q of Pizer's basis of B(p, inf): 1 for p = 3 mod 4, 2 for
    p = 5 mod 8, else the least prime q = 3 mod 4 that is a non-residue mod p.
    An embed query's cost is set by q, not by p."""
    if p % 4 == 3:
        return 1
    if p % 8 == 5:
        return 2
    return next(q for q in range(3, p, 4) if is_prime(q) and pow(p, (q - 1) // 2, q) == q - 1)


def stratified(pool: list, n: int, rng: random.Random, group=lambda item: 0) -> list:
    """n distinct draws from pool.  Each group of the pool (in pool order)
    gets a share of the n strata in proportion to its size, by largest
    remainder, and one element is drawn from each of that many contiguous,
    near-equal chunks of the group."""
    groups: dict = {}
    for item in pool:
        groups.setdefault(group(item), []).append(item)
    n = min(n, len(pool))
    shares = {g: n * len(members) / len(pool) for g, members in groups.items()}
    alloc = {g: int(share) for g, share in shares.items()}
    for g in sorted(groups, key=lambda g: alloc[g] - shares[g])[:n - sum(alloc.values())]:
        alloc[g] += 1
    out = []
    for g, members in groups.items():
        k = alloc[g]
        out += [members[rng.randrange(i * len(members) // k, (i + 1) * len(members) // k)]
                for i in range(k)]
    return out


def _interleave(lists: list[list]) -> list:
    out = []
    for k in range(max(len(x) for x in lists)):
        out += [x[k] for x in lists if k < len(x)]
    return out


def class_sweep(rng: random.Random, n: int) -> list[Query]:
    # A query's cost grows about as h^1.5 (l + 1)^2, with h the class number
    # (an empirical fit at this range), far more than with p itself.  Picks
    # alternate between the two kinds along that order, so both get the same
    # cost profile.
    pool = sorted(((p, ell) for p in primes(5, CLASS_P_MAX) for ell in (2, 3)),
                  key=lambda q: (class_number(q[0]) ** 1.5 * (q[1] + 1) ** 2, q))
    picks = stratified(pool, n, rng, group=lambda q: q[0] in KNOWN_FAILING_P)
    lists = []
    for kind, mine in (("brandt", picks[0::2]), ("isocheck", picks[1::2])):
        rng.shuffle(mine)
        lists.append([Query(kind, p, ell) for p, ell in mine])
    return _interleave(lists)


def order_walk(rng: random.Random, n: int) -> list[Query]:
    # a walk's cost is set by l (through the tree size), or by its failure at
    # a known failing prime (about 0.8 s whatever l); an embed's by pizer_q
    n_embed = n // 3
    walks = sorted(((ell, p) for p in primes(5, RANGE_P_MAX) for ell in ELLS if ell != p))
    walks = stratified(walks, n - n_embed, rng,
                       group=lambda w: "failing" if w[1] in KNOWN_FAILING_P else w[0])
    rng.shuffle(walks)
    embeds = stratified(sorted(primes(5, RANGE_P_MAX), key=lambda p: (pizer_q(p), p)), n_embed,
                        rng, group=pizer_q)
    rng.shuffle(embeds)
    oriented = [Query("oriented", p, ell, WALK_DEPTH[ell]) for ell, p in walks]
    return _interleave([oriented[0::2], oriented[1::2], [Query("embed", p) for p in embeds]])


# name -> (query-list function, queries per second of --seconds); the rates
# come from seeded runs on a 2-vCPU x86-64 VM, where a list takes a little
# under --seconds while the host is quiet (and up to 1.7x that when it is not).
WORKLOADS = {
    "class-sweep": (class_sweep, 0.85),
    "order-walk": (order_walk, 1.6),
}


def make_queries(name: str, seed: int, seconds: float) -> list[Query]:
    build, rate = WORKLOADS[name]
    n = max(12, round(rate * seconds))
    return build(random.Random(f"{name}:{seed}"), n)


# ---------------------------------------------------------------------------
# certificates: each returns None when the answer checks out, else a reason


def class_number(p: int) -> int:
    """Number of supersingular j-invariants / left ideal classes."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def _cert_brandt(q: Query, doc: dict):
    h = class_number(q.p)
    if doc["classes"] != h:
        return f"class number {doc['classes']} != {h}"
    a, b = doc["unit_sizes"], doc["brandt"]
    if sum(Fraction(1, x) for x in a) != Fraction(q.p - 1, 12):
        return "mass formula sum 1/a_j != (p-1)/12 fails"
    if any(sum(row) != q.ell + 1 for row in b):
        return "a Brandt row sum is not l+1"
    if any(a[j] * b[i][j] != a[i] * b[j][i] for i in range(h) for j in range(h)):
        return "Brandt relation a_j b_ij = a_i b_ji fails"
    return None


def _cert_isocheck(q: Query, doc: dict):
    h = class_number(q.p)
    if not doc["isomorphic"]:
        return "not isomorphic"
    if doc["class_number"] != h or doc["curve_vertices"] != h:
        return f"vertex counts {doc['curve_vertices']}/{doc['class_number']} != {h}"
    if sorted(doc["witness"].values()) != list(range(h)) or len(doc["witness"]) != h:
        return "witness is not a bijection"
    return None


def _cert_oriented(q: Query, doc: dict):
    ell, d = q.ell, q.depth
    want = 1 + (ell + 1) * (ell**d - 1) // (ell - 1)
    if not doc["tree"]:
        return "component is not a tree"
    if not doc["audit_pass"]:
        return "structure audit failed"
    if doc["vertices"] != want:
        return f"{doc['vertices']} vertices != 1 + (l+1)(l^d-1)/(l-1) = {want}"
    return None


def _cert_embed(q: Query, doc: dict):
    return None if doc["oracle_agrees"] else "superorder oracle disagrees"


CERTIFICATES = {
    "brandt": _cert_brandt,
    "isocheck": _cert_isocheck,
    "oriented": _cert_oriented,
    "embed": _cert_embed,
}


def certify(q: Query, stdout: str):
    return CERTIFICATES[q.kind](q, json.loads(stdout))
