"""Double-oriented quaternion ideal graphs: conductors of the two quadratic
suborders cut out by a maximal order, per-field edge classification,
component walking, root detection, and the structure-formula auditor.

Orientations are the identity embeddings of Q(i) and Q(j) in the
perpendicular standard basis; every vertex is a maximal order tagged with
the conductors (f_i, f_j) of its intersections with the two subfields.
A walk expands each vertex through ideals.neighbour_orders, which builds the
l + 1 adjacent maximal orders from one matrix split and recognises the
vertex's parent by membership, so each tree edge builds one order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ideals as idl
from . import numth
from .errors import CapExceeded, PreconditionError
from .ideals import QOrder
from .lattice import integer_kernel
from .multigraph import MultiGraph
from .quat import QuatAlgebra

ASC, HOR, DESC = "A", "H", "D"
# A depth-d walk is the tree of tree_size(ell, d) = 1 + (ell+1)(ell^d - 1)/(ell - 1)
# vertices: at d = 6, 190, 1457, 23437 and 156865 for ell = 2, 3, 5, 7.
DEPTH_CAP = 6
# Checked against tree_size before a walk: of the pairs DEPTH_CAP and
# ell <= 7 admit, only (ell, depth) = (7, 6) exceeds it.
VERTEX_CAP = 10**5


@dataclass(frozen=True)
class OrientedVertex:
    order: QOrder
    f_i: int
    f_j: int

    def key(self):
        return self.order.key()


def _subfield_lattice(order: QOrder, u: str) -> list:
    """Rank-2 basis of order ∩ (Q + Q u) in (1, u)-coordinates over den."""
    cols = {"i": (2, 3), "j": (1, 3)}[u]
    keep = {"i": (0, 1), "j": (0, 2)}[u]
    rows = [[r[c] for c in cols] for r in order.lattice.mat]
    kern = integer_kernel(rows, 2)
    out = []
    for v in kern:
        amb = [sum(v[t] * order.lattice.mat[t][c] for t in range(4)) for c in range(4)]
        assert amb[cols[0]] == 0 and amb[cols[1]] == 0
        out.append((amb[keep[0]], amb[keep[1]]))
    assert len(out) == 2, "subfield intersection must have rank 2"
    return out


def optimal_suborder(order: QOrder, u: str) -> numth.QuadOrderDesc:
    """The quadratic order cut out by the maximal order on the subfield
    Q(u), described through its discriminant d = f^2 d_K.

    The discriminant is the determinant of the trace form on any Z-basis of
    the rank-2 intersection, so no normalization of the basis is needed."""
    if u not in ("i", "j"):
        raise PreconditionError("subfield tag must be 'i' or 'j'")
    d_u = order.algebra.d_i if u == "i" else order.algebra.d_j
    # trace form on the integer rows, which are den times the basis
    rows = _subfield_lattice(order, u)
    t = [[2 * (a[0] * b[0] + d_u * a[1] * b[1]) for b in rows] for a in rows]
    disc, rem = divmod(t[0][0] * t[1][1] - t[0][1] * t[1][0], order.lattice.den**4)
    assert rem == 0 and disc < 0
    return numth.quad_order_info(disc)


def conductors(order: QOrder) -> tuple[int, int]:
    return optimal_suborder(order, "i").f, optimal_suborder(order, "j").f


def oriented_vertex(order: QOrder) -> OrientedVertex:
    f_i, f_j = conductors(order)
    p = order.algebra.p
    for u, f in (("i", f_i), ("j", f_j)):
        d_K = numth.fundamental_discriminant(order.algebra.d_i if u == "i" else order.algebra.d_j)
        if numth.kronecker(d_K, p) == 1:
            raise PreconditionError(f"p splits in K_{u}; orientation undefined")
        if f % p == 0:
            raise PreconditionError(f"p divides the conductor f_{u}")
    return OrientedVertex(order=order, f_i=f_i, f_j=f_j)


# ---------------------------------------------------------------------------
# edge classification


def classify_edge(v: OrientedVertex, w: OrientedVertex, ell: int) -> str:
    """Two-letter label, field i first: A/H/D per conductor ratio, checked
    against the membership test of theta/ell in the target order, where
    theta = f omega is the generator of the conductor-f order at v."""
    omegas = dict(zip("ij", v.order.algebra.maximal_quadratic_rows))
    target = w.order.lattice
    labels = []
    for u, fv, fw in (("i", v.f_i, w.f_i), ("j", v.f_j, w.f_j)):
        if fw * ell == fv:
            lab = ASC
        elif fw == fv:
            lab = HOR
        elif fw == fv * ell:
            lab = DESC
        else:
            raise RuntimeError(f"conductor ratio {fw}/{fv} not in 1/l,1,l")
        # theta = x / xden on integers
        x, xden = omegas[u]
        x = [fv * c for c in x]
        asc = target.int_coords(x, xden * ell) is not None
        hor = not asc and target.int_coords(x, xden) is not None
        want = ASC if asc else (HOR if hor else DESC)
        if not asc and not hor:
            assert target.int_coords([ell * c for c in x], xden) is not None, \
                "theta*l must land in the target"
        assert want == lab, f"membership path gives {want}, conductors give {lab}"
        labels.append(lab)
    return "".join(labels)


# ---------------------------------------------------------------------------
# walking


def tree_size(ell: int, depth: int) -> int:
    """Vertices of the (ell+1)-regular tree to the given depth."""
    return 1 + (ell + 1) * (ell**depth - 1) // (ell - 1)


def walk_component(start: QOrder, ell: int, depth: int) -> MultiGraph:
    """BFS over ell-neighbor maximal orders to the given depth.

    Vertices carry (f_i, f_j); every directed edge carries its class label.
    Edges are recorded in both directions once both endpoints are known.
    A walk whose tree_size(ell, depth) exceeds VERTEX_CAP is refused before
    the first vertex is expanded.
    """
    if ell == start.algebra.p or not numth.is_prime(ell):
        raise PreconditionError("ell must be a prime different from p")
    if depth < 0 or depth > DEPTH_CAP:
        raise PreconditionError(f"depth must be within 0..{DEPTH_CAP}")
    if not start.is_maximal:
        raise PreconditionError("walk starts at a maximal order")
    if tree_size(ell, depth) > VERTEX_CAP:
        raise CapExceeded("vertex cap exceeded during walk")
    alg = start.algebra
    g = MultiGraph(meta={
        "p": alg.p, "ell": ell, "d_i": alg.d_i, "d_j": alg.d_j, "kind": "oriented",
    })
    verts: dict = {}

    def register(order: QOrder) -> OrientedVertex:
        key = order.key()
        if key not in verts:
            if len(verts) >= VERTEX_CAP:
                raise CapExceeded("vertex cap exceeded during walk")
            ov = oriented_vertex(order)
            verts[key] = ov
            g.add_vertex(key, f_i=ov.f_i, f_j=ov.f_j,
                         basis=[list(r) for r in order.lattice.mat],
                         den=order.lattice.den)
        return verts[key]

    v0 = register(start)
    frontier = [v0]
    seen = {v0.key()}
    parent_of: dict = {}  # vertex key -> the vertex it was reached from
    for _ in range(depth):
        nxt = []
        for v in frontier:
            parent = parent_of.get(v.key())
            matched = 0
            for order in idl.neighbour_orders(v.order, ell, parent.order if parent else None):
                if order is None:
                    w = parent
                    matched += 1
                else:
                    w = register(order)
                if v.key() == w.key():
                    raise AssertionError("loop in a double-oriented graph")
                if g.multiplicity(v.key(), w.key()):
                    raise AssertionError("multi-edge in a double-oriented graph")
                g.add_edge(v.key(), w.key(), cls=classify_edge(v, w, ell))
                if w.key() not in seen:
                    seen.add(w.key())
                    parent_of[w.key()] = v
                    nxt.append(w)
            assert parent is None or matched == 1, "parent must match exactly one line"
        frontier = nxt
    g.meta["depth"] = depth
    return g


def find_roots(component: MultiGraph, ell: int) -> tuple[list, list]:
    """(local roots, global roots) among the component's vertex keys."""
    local, glob = [], []
    for key in component.vertices():
        attrs = component.vertex_attrs[key]
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

    def bucket_rows(self):
        rows = []
        for bucket, want in self.predicted:
            got = sum(self.observed.get(c, 0) for c in bucket)
            rows.append(("+".join(bucket), want, got))
        return rows


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
    dKi = numth.fundamental_discriminant(alg.d_i)
    dKj = numth.fundamental_discriminant(alg.d_j)
    si, sj = numth.kronecker(dKi, ell), numth.kronecker(dKj, ell)
    div_i, div_j = f_i % ell == 0, f_j % ell == 0
    total = ell + 1
    if not div_i and not div_j:
        if si != -1 and sj != -1:
            # ell | d_Ki d_Kj / 4, the Bass order's reduced discriminant
            v_disc, _ = numth._two_adic_split(dKi * dKj, ell)
            v_four, _ = numth._two_adic_split(4, ell)
            hh = 1 if v_disc > v_four else 0
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


def structure_audit(component: MultiGraph, vertex_key, ell: int) -> AuditReport:
    """Compare predicted category counts with the observed out-edges.

    The vertex passes when every bucket matches predicted_counts and its
    out-degree is ell + 1, for every ell alike.
    """
    attrs = component.vertex_attrs[vertex_key]
    alg_meta = component.meta
    alg = QuatAlgebra(p=alg_meta["p"], d_i=alg_meta["d_i"], d_j=alg_meta["d_j"])
    case, pred = predicted_counts(alg, attrs["f_i"], attrs["f_j"], ell)
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
    ell + 1 in the walked graph)."""
    out = []
    for key in component.vertices():
        if component.out_degree(key) == ell + 1:
            out.append(structure_audit(component, key, ell))
    return out


# ---------------------------------------------------------------------------
# serialization


def export_graph(graph: MultiGraph, fmt: str, path: str) -> None:
    if fmt == "json":
        text = graph.to_json()
    elif fmt == "dot":
        text = graph.to_dot()
    else:
        raise PreconditionError("format must be 'dot' or 'json'")
    with open(path, "w") as fh:
        fh.write(text)

