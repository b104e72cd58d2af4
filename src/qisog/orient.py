"""Double-oriented quaternion ideal graphs: conductors of the two quadratic
suborders cut out by a maximal order, per-field edge classification,
component walking, root detection, and the structure-formula auditor.

Orientations are the identity embeddings of Q(i) and Q(j) in the
perpendicular standard basis; every vertex is a maximal order tagged with
the conductors (f_i, f_j) of its intersections with the two subfields.

A walk of depth d from O reads the whole ball off one l-adic frame of O,
built at its precision (ideals.matrix_split(O, l, n)): matrix units E_ab
of O/l^n O = M2(Z/l^n) with n = 2d, as the orders at distance k need
n >= 2k.  The vertices at distance k are the End(Z_l w + l^k Z_l^2) for
the points w of P^1(Z/l^k), each built from the frame in O's coordinates
mod l^(2k) (EllAdicFrame.ball_order), with w mod l^(k-1) its parent.  The start's
conductors are the denominators of w_i's and w_j's coordinates in its
basis (conductors); each child's come with its edge label from one
membership step (edge_step), and classify_edge checks every reverse edge
against them.  After the walk, the roots and the audit read the vertices
in the order the walk added them, and the audit evaluates the structure
formula once per conductor pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

from . import ideals as idl
from . import numth
from .errors import CapExceeded, PreconditionError
from .ideals import QOrder
from .lattice import QLattice
# integer_kernel has no caller here; perfbench's tracer self-test resolves orient.integer_kernel
from .lattice import integer_kernel  # noqa: F401
from .multigraph import MultiGraph
from .quat import QuatAlgebra

ASC, HOR, DESC = "A", "H", "D"
# A depth-d walk is a tree of tree_size(ell, d) vertices, off one frame mod ell^(2d).
# The cap bounds the work: d <= 15, 9, 6, 5 at ell = 2, 3, 5, 7; the largest walk,
# (p, ell, d) = (499, 2, 15), has 98,302 vertices: 11.3 s, 294 MB RSS on a 2-CPU VM.
VERTEX_CAP = 10**5


@dataclass(frozen=True)
class OrientedVertex:
    order: QOrder
    f_i: int
    f_j: int

    @cached_property
    def theta_rows(self) -> tuple:
        """theta = f omega for each subfield, i first, as (integer row, den):
        the generator of the conductor-f order, which lies in the order."""
        return tuple(([f * c for c in row], den) for f, (row, den)
                     in zip((self.f_i, self.f_j), self.order.algebra.maximal_quadratic_rows))


def conductors(order: QOrder) -> tuple[int, int]:
    """(f_i, f_j): as order ∩ Q(u) = Z + f_u Z w_u, f w_u lies in the order
    exactly when f_u divides f, so f_u is the denominator of w_u's
    coordinates in the order's basis.  Scaled by det(mat), the integer row
    x of w_u = x / xden lands in the lattice, and those coordinates are its
    coordinates over det xden."""
    lat = order.lattice
    det = lat.pivot_product()
    out = []
    for x, xden in order.algebra.maximal_quadratic_rows:
        s = det * xden
        out.append(s // math.gcd(s, *lat.int_coords([det * c for c in x])))
    return out[0], out[1]


def oriented_vertex(order: QOrder) -> OrientedVertex:
    """The order with its conductors, read off w_i's and w_j's coordinates."""
    f_i, f_j = conductors(order)
    p = order.algebra.p
    for u, f, splits in zip("ij", (f_i, f_j), order.algebra.p_splits):
        if splits:
            raise PreconditionError(f"p splits in K_{u}; orientation undefined")
        if f % p == 0:
            raise PreconditionError(f"p divides the conductor f_{u}")
    return OrientedVertex(order=order, f_i=f_i, f_j=f_j)


# ---------------------------------------------------------------------------
# edge classification


def edge_step(v: OrientedVertex, order: QOrder, ell: int) -> tuple[str, tuple[int, int]]:
    """The label of the edge from v to an ell-adjacent maximal order, field
    i first, and that order's conductors (f_i, f_j).  For theta = f_v omega,
    the generator of v's conductor-f_v order, theta/ell in the order gives
    A and f_v/ell, else theta gives H and f_v, else ell theta (asserted)
    gives D and f_v ell.  This fixes f_w once ell O_w lies in O_v, as the
    walk certifies: then f_v divides ell f_w.

    The three memberships come from one solve: as in conductors, theta =
    x/xden has the coordinates c/s in the order's basis, with c those of
    det x and s = det xden, so with g = gcd(s ell, c) it is theta/ell that
    lies in the order when g = s ell, theta when s | g, and ell theta when
    s | ell g."""
    target = order.lattice
    det = target.pivot_product()
    steps = []
    for (x, xden), fv in zip(v.theta_rows, (v.f_i, v.f_j)):
        s = det * xden
        x0, x1, x2, x3 = x
        g = math.gcd(s * ell, *target.int_coords((det * x0, det * x1, det * x2, det * x3)))
        if g == s * ell:
            steps.append((ASC, fv // ell))
        elif g % s == 0:
            steps.append((HOR, fv))
        else:
            assert ell * g % s == 0, "theta*l must land in the target"
            steps.append((DESC, fv * ell))
    (lab_i, f_i), (lab_j, f_j) = steps
    return lab_i + lab_j, (f_i, f_j)


def classify_edge(v: OrientedVertex, w: OrientedVertex, ell: int) -> str:
    """The label edge_step gives the edge from v to w, whose conductors it
    derives must be w's."""
    label, f = edge_step(v, w.order, ell)
    assert f == (w.f_i, w.f_j), \
        f"edge {label} gives conductors {f}, the target has {(w.f_i, w.f_j)}"
    return label


# ---------------------------------------------------------------------------
# walking


def tree_size(ell: int, depth: int) -> int:
    """Vertices of the (ell+1)-regular tree to the given depth."""
    return 1 + (ell + 1) * (ell**depth - 1) // (ell - 1)


def walk_component(start: QOrder, ell: int, depth: int) -> MultiGraph:
    """The ball of the given depth around start in the graph of ell-adjacent
    maximal orders: a tree.

    Vertices carry (f_i, f_j); every directed edge carries its class label.
    A vertex closer than depth to start has all its ell + 1 out-edges, the
    one to its parent included; a vertex at distance depth has none.  A
    walk whose tree_size(ell, depth) exceeds VERTEX_CAP is refused before
    the frame is built, and depth 0 builds none.  Each edge carries the
    adjacency certificate ell O_child in O_parent.

    A child's label and conductors come from edge_step; classify_edge checks
    them on the reverse edge.  Only the start needs oriented_vertex's checks:
    the children's conductors are f_0 ell^j, ell != p, in the same algebra.
    """
    if ell == start.algebra.p or not numth.is_prime(ell):
        raise PreconditionError("ell must be a prime different from p")
    if depth < 0:
        raise PreconditionError("depth must be non-negative")
    if not start.is_maximal:
        raise PreconditionError("walk starts at a maximal order")
    if depth >= VERTEX_CAP or tree_size(ell, depth) > VERTEX_CAP:  # as tree_size(ell, d) > d
        raise CapExceeded("vertex cap exceeded during walk")
    alg = start.algebra
    g = MultiGraph(meta={
        "p": alg.p, "ell": ell, "d_i": alg.d_i, "d_j": alg.d_j, "kind": "oriented",
    })

    def register(ov: OrientedVertex) -> tuple:
        key, lat = ov.order.key(), ov.order.lattice
        assert key not in g.vertex_attrs, "two points of the ball give one order"
        g.add_vertex(key, f_i=ov.f_i, f_j=ov.f_j, basis=lat.mat, den=lat.den)
        return key

    root = oriented_vertex(start)
    root_key = register(root)
    if depth:
        frame = idl.matrix_split(start, ell, 2 * depth)
        frontier = [(root, root_key, None)]
        for k in range(1, depth + 1):
            nxt = []
            for v, vkey, point in frontier:
                lat = v.order.lattice
                up = QLattice.from_triangular_rows(alg, lat.mat, lat.den * ell)  # ell^-1 O_parent
                for child in idl.tree_children(point, k, ell):
                    order = frame.ball_order(idl.tree_point_matrix(child, ell), k)
                    assert up.contains_lattice(order.lattice), "ell O_child must lie in O_parent"
                    label, f = edge_step(v, order, ell)
                    w = OrientedVertex(order, *f)
                    wkey = register(w)
                    g.add_edge(vkey, wkey, cls=label)
                    if k < depth:
                        g.add_edge(wkey, vkey, cls=classify_edge(w, v, ell))
                    nxt.append((w, wkey, child))
            frontier = nxt
    g.meta["depth"] = depth
    return g


def find_roots(component: MultiGraph, ell: int) -> tuple[list, list]:
    """(local roots, global roots) among the component's vertex keys, in
    the order the vertices were added."""
    local, glob = [], []
    for key, attrs in component.vertex_attrs.items():
        if (attrs["f_i"] * attrs["f_j"]) % ell != 0:
            local.append(key)
        if attrs["f_i"] == 1 and attrs["f_j"] == 1:
            glob.append(key)
    return local, glob


# ---------------------------------------------------------------------------
# the structure audit


CATEGORIES = ("AA", "AH", "HA", "HH", "HD", "DH", "DD")


@dataclass
class AuditReport:
    vertex: object
    case: str
    predicted: list  # (bucket tuple, count)
    observed: dict
    ok: bool


def predicted_counts(alg: QuatAlgebra, f_i: int, f_j: int, ell: int) -> tuple[str, list]:
    """Per-category counts the structure formula predicts at a vertex.

    At a local root (ell prime to f_i f_j) field K has 1 + (d_K/ell)
    horizontal edges.  The simultaneously horizontal ones are the common
    eigenlines of w_i and w_j mod ell: locally the vertex contains the Bass
    order Z<w_i, w_j> of reduced discriminant d_Ki d_Kj / 4, so HH = 0 when
    that order is maximal at ell (an HH neighbour would be a second maximal
    order containing it) and HH = 1 when ell divides it (for ell exactly
    dividing it, an Eichler order of level ell, which lies in exactly two
    adjacent maximal orders).  HD and DH are the remaining horizontal edges
    of each field, DD the rest.  For odd ell this agrees with the Kronecker
    form HH = 1 - (d_Ki/ell)(d_Kj/ell); at ell = 2 it differs when one field
    is split and the other has v_2(d_K) = 2.
    """
    dKi, dKj = alg.fundamental_discriminants
    si, sj = numth.kronecker(dKi, ell), numth.kronecker(dKj, ell)
    div_i, div_j = f_i % ell == 0, f_j % ell == 0
    total = ell + 1
    if not div_i and not div_j:
        if si != -1 and sj != -1:
            # ell | d_Ki d_Kj / 4, the Bass order's reduced discriminant
            hh = 1 if (dKi * dKj // 4) % ell == 0 else 0
            hd = 1 + si - hh
            dh = 1 + sj - hh
            pred = [(("HH",), hh), (("HD",), hd), (("DH",), dh),
                    (("DD",), total - hh - hd - dh),
                    (("AA",), 0), (("AH",), 0), (("HA",), 0)]
            return "both-fundamental, not inert", pred
        pred = [(("HD",), si + 1), (("DH",), sj + 1),
                (("DD",), total - (si + 1) - (sj + 1)),
                (("HH",), 0), (("AA",), 0), (("AH",), 0), (("HA",), 0)]
        return "both-fundamental, inert somewhere", pred
    if div_i != div_j:
        delta_i = numth.kronecker(f_i * f_i * dKi, ell)
        delta_j = numth.kronecker(f_j * f_j * dKj, ell)
        mixed_h = max(delta_i, delta_j)
        pred = [(("AH", "HA"), 1), (("HD", "DH"), mixed_h),
                (("DD",), total - 1 - mixed_h),
                (("HH",), 0), (("AA",), 0)]
        return "one conductor divisible", pred
    pred = [(("AA",), 1), (("DD",), total - 1),
            (("AH",), 0), (("HA",), 0), (("HH",), 0), (("HD",), 0), (("DH",), 0)]
    return "both conductors divisible", pred


def _audit_vertex(component: MultiGraph, vertex_key, ell: int, case: str,
                  pred: list) -> AuditReport:
    """Compare the predicted category counts pred (predicted_counts' list)
    with the vertex's observed out-edges.  The vertex passes when every
    bucket matches and its out-degree is ell + 1, for every ell alike."""
    observed: dict = {c: 0 for c in CATEGORIES}
    for rec in component.out_edges(vertex_key).values():
        observed[rec["cls"]] += rec["count"]
    total = sum(observed.values())
    ok = total == ell + 1
    for bucket, want in pred:
        got = sum(observed.get(c, 0) for c in bucket)
        if got != want:
            ok = False
    return AuditReport(vertex=vertex_key, case=case, predicted=pred,
                       observed=observed, ok=ok)


def audit_component(component: MultiGraph, ell: int) -> list[AuditReport]:
    """Audit every vertex whose full neighbor list is present (out-degree
    ell + 1 in the walked graph), in the order the vertices were added;
    predicted_counts runs once per conductor pair (f_i, f_j)."""
    meta = component.meta
    alg = QuatAlgebra(p=meta["p"], d_i=meta["d_i"], d_j=meta["d_j"])
    pred = cache(partial(predicted_counts, alg))
    return [_audit_vertex(component, key, ell, *pred(attrs["f_i"], attrs["f_j"], ell))
            for key, attrs in component.vertex_attrs.items()
            if component.out_degree(key) == ell + 1]
