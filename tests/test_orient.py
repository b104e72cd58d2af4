import json

import pytest

from qisog import ideals as idl
from qisog import numth, orient
from qisog.errors import PreconditionError
from qisog.ideals import QOrder
from qisog.lattice import QLattice
from qisog.multigraph import MultiGraph
from qisog.quat import QuatAlgebra

ROOT7 = idl.global_root_orders(7)[0]


def walk(p, ell, depth):
    return orient.walk_component(idl.global_root_orders(p)[0], ell, depth=depth)


class TestOptimalSuborder:
    def test_global_root_has_trivial_conductors(self):
        assert orient.optimal_suborder(ROOT7, "i").f == 1
        assert orient.optimal_suborder(ROOT7, "j").f == 1
        v = orient.oriented_vertex(ROOT7)
        assert v.is_global_root

    def test_depth_one_descent_at_3(self):
        g = walk(7, 3, 1)
        rootkey = ROOT7.key()
        for key in g.vertices():
            attrs = g.vertex_attrs[key]
            if key != rootkey:
                assert (attrs["f_i"], attrs["f_j"]) == (3, 3)

    def test_suborder_discriminants(self):
        desc = orient.optimal_suborder(ROOT7, "j")
        assert desc.d_K == -7 and desc.d == -7
        desc_i = orient.optimal_suborder(ROOT7, "i")
        assert desc_i.d_K == -4


class TestClassifyEdge:
    def test_no_ascent_from_global_root(self):
        for ell in (2, 3):
            g = walk(7, ell, 1)
            for (s, d), rec in g.edges.items():
                if s == ROOT7.key():
                    assert "A" not in rec["cls"]

    def test_unique_ascent_when_divisible(self):
        g = walk(7, 3, 2)
        for key in g.vertices():
            attrs = g.vertex_attrs[key]
            if attrs["f_i"] % 3 == 0 and attrs["f_j"] % 3 == 0 and g.out_degree(key) == 4:
                ups = [rec for (s, _), rec in g.edges.items()
                       if s == key and rec["cls"] == "AA"]
                assert len(ups) == 1

    def test_conductor_and_membership_paths_agree_everywhere(self):
        # classify_edge cross-checks internally; a full walk exercises it
        walk(7, 2, 3)
        walk(13, 2, 2)
        walk(17, 3, 2)


class TestWalk:
    @pytest.mark.parametrize("p,ell,depth", [(7, 2, 3), (7, 3, 2), (13, 2, 2)])
    def test_tree_no_loops_no_multiedges(self, p, ell, depth):
        g = walk(p, ell, depth)
        assert g.is_tree_undirected()
        for v in g.vertices():
            assert g.loop_count(v) == 0
        for rec in g.edges.values():
            assert rec["count"] == 1

    def test_interior_out_degree(self):
        ell = 3
        g = walk(7, ell, 2)
        interior = [v for v in g.vertices() if g.out_degree(v) > 0]
        for v in interior:
            assert g.out_degree(v) == ell + 1

    def test_reverse_edges_present(self):
        g = walk(7, 2, 2)
        for (s, d) in list(g.edges):
            if g.out_degree(d) > 0:  # expanded vertex
                assert g.multiplicity(d, s) == 1

    def test_depth_cap(self):
        with pytest.raises(PreconditionError):
            orient.walk_component(ROOT7, 2, depth=9)

    def test_vertex_cap(self):
        from qisog.errors import CapExceeded

        with pytest.raises(CapExceeded):
            orient.walk_component(ROOT7, 3, depth=3, vertex_cap=5)


def reference_walk(start, ell, depth, seed=0):
    """walk_component without the parent-edge reuse: the right order of every
    neighbour ideal is computed, the parent's included."""
    alg = start.algebra
    g = MultiGraph(meta={
        "p": alg.p, "ell": ell, "d_i": alg.d_i, "d_j": alg.d_j, "kind": "oriented",
    })
    verts = {}

    def register(order):
        key = order.key()
        if key not in verts:
            verts[key] = ov = orient.oriented_vertex(order)
            g.add_vertex(key, f_i=ov.f_i, f_j=ov.f_j,
                         basis=[list(r) for r in order.lattice.mat], den=order.lattice.den)
        return verts[key]

    frontier = [register(start)]
    seen = {start.key()}
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for I in idl.ideals_of_norm_ell(v.order, ell, seed=seed):
                w = register(QOrder(I.lattice.right_order()))
                assert v.key() != w.key() and not g.multiplicity(v.key(), w.key())
                g.add_edge(v.key(), w.key(), cls=orient.classify_edge(v, w, ell))
                if w.key() not in seen:
                    seen.add(w.key())
                    nxt.append(w)
        frontier = nxt
    g.meta["depth"] = depth
    return g


class TestParentEdgeReuse:
    """walk_component takes the parent of a vertex from conj(I), I the ideal
    the vertex was reached by, instead of computing its right order."""

    @pytest.mark.parametrize("p,ell,depth", [(7, 3, 4), (101, 2, 5), (499, 7, 2)])
    def test_same_json_as_reference_walk(self, p, ell, depth):
        start = idl.global_root_orders(p)[0]
        want = reference_walk(start, ell, depth).to_json()
        assert orient.walk_component(start, ell, depth=depth).to_json() == want

    @pytest.mark.parametrize("p,ell,depth", [(7, 3, 3), (101, 2, 4)])
    def test_one_right_order_per_non_root_vertex(self, p, ell, depth, monkeypatch):
        calls = []
        right_order = QLattice.right_order

        def counted(self):
            calls.append(self)
            return right_order(self)

        monkeypatch.setattr(QLattice, "right_order", counted)
        g = walk(p, ell, depth)
        assert g.is_tree_undirected()
        assert len(calls) == g.num_vertices() - 1


class TestRoots:
    def test_p7_unique_local_root(self):
        for ell in (2, 3):
            g = walk(7, ell, 2)
            local, glob = orient.find_roots(g, ell)
            assert len(local) == 1 and len(glob) == 1

    @pytest.mark.parametrize("p,ell", [(13, 2), (17, 3)])
    def test_two_local_roots_adjacent(self, p, ell):
        g = walk(p, ell, 2)
        local, glob = orient.find_roots(g, ell)
        assert len(local) == 2 == len(glob)
        a, b = local
        assert g.multiplicity(a, b) == 1 and g.multiplicity(b, a) == 1

    def test_cross_prime_separation(self):
        # distinct vertices of an l-component connect only through l-power norms
        g = walk(7, 3, 2)
        keys = g.vertices()
        orders = {k: QOrder(QLattice.from_int_rows(
            QuatAlgebra.for_prime(7), [list(r) for r in k[1]], k[0])) for k in keys}
        rootkey = ROOT7.key()
        import math

        for k in keys:
            if k == rootkey:
                continue
            C = idl.connecting_ideal(orders[rootkey], orders[k])
            n = int(C.nrd())
            assert n > 1 and 3 ** round(math.log(n, 3)) == n


class TestStructureAudit:
    def test_p7_l3_global_root_all_descending(self):
        g = walk(7, 3, 1)
        rep = orient.structure_audit(g, ROOT7.key(), 3)
        assert rep.ok
        assert rep.observed["DD"] == 4

    def test_p7_l2_predictions_vs_observation(self):
        # the Bass order has discrd 7, maximal at 2, so no edge is HH; Q(i)
        # has one horizontal edge and Q(j) (split at 2) has two
        alg = QuatAlgebra.for_prime(7)
        case, pred = orient.predicted_counts(alg, 1, 1, 2)
        d = dict()
        for bucket, n in pred:
            d["+".join(bucket)] = n
        assert (d["HH"], d["HD"], d["DH"], d["DD"]) == (0, 1, 2, 0)
        g = walk(7, 2, 1)
        rep = orient.structure_audit(g, ROOT7.key(), 2)
        assert rep.ok
        obs = rep.observed
        assert (obs["HH"], obs["HD"], obs["DH"], obs["DD"]) == (0, 1, 2, 0)

    def test_p97_l2_root_with_split_field_i(self):
        # d_i = -7 splits at 2 while d_Kj = -4p has v_2 = 2: the Bass order
        # has odd discrd 7p, so again no edge is HH
        alg = QuatAlgebra.for_prime(97)
        assert (alg.d_i, numth.kronecker(alg.d_i, 2)) == (-7, 1)
        g = walk(97, 2, 1)
        root = idl.global_root_orders(97)[0].key()
        rep = orient.structure_audit(g, root, 2)
        assert rep.ok, rep.bucket_rows()
        obs = rep.observed
        assert (obs["HH"], obs["HD"], obs["DH"], obs["DD"]) == (0, 2, 1, 0)

    def test_categories_partition(self):
        for p, ell in ((7, 2), (7, 3), (13, 2)):
            g = walk(p, ell, 2)
            for rep in orient.audit_component(g, ell):
                assert sum(rep.observed.values()) == ell + 1

    def test_all_other_vertices_pass_at_p7(self):
        for ell in (2, 3):
            g = walk(7, ell, 3)
            for rep in orient.audit_component(g, ell):
                assert rep.ok, (ell, g.vertex_attrs[rep.vertex])

    def test_one_divisible_case_has_single_mixed_ascent(self):
        g = walk(7, 2, 3)
        for rep in orient.audit_component(g, 2):
            attrs = g.vertex_attrs[rep.vertex]
            div_i, div_j = attrs["f_i"] % 2 == 0, attrs["f_j"] % 2 == 0
            if div_i != div_j:
                assert rep.observed["AH"] + rep.observed["HA"] == 1


class TestSwapSymmetry:
    def test_labels_transpose_under_i_j_swap(self):
        # (x,y,z,w) -> (x,z,y,-w) is an isomorphism B(d_i,d_j) -> B(d_j,d_i)
        alg = QuatAlgebra.for_prime(7)
        swapped = QuatAlgebra(p=7, d_i=alg.d_j, d_j=alg.d_i, q=alg.q)

        def swap_order(order, target):
            rows = [(r[0], r[2], r[1], -r[3]) for r in order.lattice.mat]
            return QOrder(QLattice.from_int_rows(target, rows, order.lattice.den))

        g = orient.walk_component(ROOT7, 2, depth=2)
        h = orient.walk_component(swap_order(ROOT7, swapped), 2, depth=2)
        remap = {}
        for key in g.vertices():
            order = QOrder(QLattice.from_int_rows(alg, [list(r) for r in key[1]], key[0]))
            remap[key] = swap_order(order, swapped).key()
        assert set(remap.values()) == set(h.vertices())
        for (s, d), rec in g.edges.items():
            assert h.edge_class(remap[s], remap[d]) == rec["cls"][::-1]
        for key in g.vertices():
            a, b = g.vertex_attrs[key]["f_i"], g.vertex_attrs[key]["f_j"]
            hk = remap[key]
            assert (h.vertex_attrs[hk]["f_i"], h.vertex_attrs[hk]["f_j"]) == (b, a)


class TestExport:
    def test_empty_graph_dot(self):
        from qisog.multigraph import MultiGraph

        assert MultiGraph().to_dot() == "digraph G {\n}\n"

    def test_json_roundtrip(self, tmp_path):
        g = walk(7, 2, 2)
        path = tmp_path / "component.json"
        orient.export_graph(g, "json", str(path))
        h = orient.import_graph_json(str(path))
        assert set(h.vertices()) == set(g.vertices())
        for (s, d), rec in g.edges.items():
            assert h.edge_class(s, d) == rec["cls"]
        doc = json.loads(path.read_text())
        assert {"p", "ell", "d_i", "d_j", "vertices", "edges"} <= set(doc)
        assert all({"id", "f_i", "f_j", "basis", "den"} <= set(v) for v in doc["vertices"])
        assert all({"src", "dst", "class"} <= set(e) for e in doc["edges"])

    def test_dot_labels(self, tmp_path):
        g = walk(7, 3, 1)
        path = tmp_path / "component.dot"
        orient.export_graph(g, "dot", str(path))
        text = path.read_text()
        assert '[label="(1,1)"]' in text
        assert 'label="DD"' in text

    def test_vertex_order_canonical(self, tmp_path):
        g = walk(7, 2, 2)
        a = g.to_json()
        b = orient.walk_component(ROOT7, 2, depth=2).to_json()
        assert a == b
