import pytest

from qisog import brandt, ecgraph
from qisog import ideals as idl
from qisog.errors import PreconditionError
from qisog.multigraph import MultiGraph


def classes(p, ell):
    return brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell)


class TestClassEnumeration:
    @pytest.mark.parametrize("p,h", [(11, 2), (13, 1), (37, 3)])
    def test_class_numbers_match_curve_side(self, p, h):
        cs = classes(p, 2)
        assert cs.class_number == h
        assert len(ecgraph.supersingular_j_list(p)) == h

    def test_class_number_independent_of_ell(self):
        assert classes(37, 2).class_number == classes(37, 3).class_number

    def test_unit_sizes_trivial_for_p_1_mod_12(self):
        for p in (13, 37):
            assert all(a == 1 for a in classes(p, 2).unit_sizes)

    def test_unit_sizes_p11(self):
        assert sorted(classes(11, 2).unit_sizes) == [2, 3]  # j=1728 and j=0 classes

    def test_representatives_have_left_order_O0(self):
        cs = classes(37, 2)
        for R in cs.representatives:
            assert R.left_order == cs.order0


class TestBrandtMatrix:
    @pytest.mark.parametrize("p,ell", [(11, 2), (37, 2), (37, 3), (101, 2), (101, 3),
                                       (109, 2), (109, 3)])
    def test_row_sums_and_cross_check(self, p, ell):
        cs = classes(p, ell)
        b = brandt_matrix = brandt.brandt_matrix(cs, ell, cross_check=True)
        assert all(sum(row) == ell + 1 for row in b)
        a = cs.unit_sizes
        h = cs.class_number
        assert all(a[j] * b[i][j] == a[i] * b[j][i] for i in range(h) for j in range(h))

    def test_rows_match_a_second_neighbor_pass(self):
        cs = classes(37, 3)
        for i, I in enumerate(cs.representatives):
            row = [0] * cs.class_number
            for J in brandt.ell_neighbors(I, 3):
                J = idl.reduce_ideal(J)
                hits = [n for n, R in enumerate(cs.representatives)
                        if idl.is_equivalent(R, J) is not None]
                assert len(hits) == 1
                row[hits[0]] += 1
            assert row == cs.brandt[i]

    def test_mismatched_ell_rejected(self):
        cs = classes(11, 2)
        assert cs.ell == 2
        for fn in (brandt.brandt_matrix, brandt.brandt_graph, brandt.type_graph,
                   brandt.class_set_json):
            with pytest.raises(PreconditionError):
                fn(cs, 3)

    def test_p11_l2_shape(self):
        cs = classes(11, 2)
        b = brandt.brandt_matrix(cs, 2)
        assert len(b) == 2 and all(sum(r) == 3 for r in b)

    def test_diagonal_matches_norm_ell_units(self):
        cs = classes(37, 2)
        b = brandt.brandt_matrix(cs, 2, cross_check=False)
        for i, R in enumerate(cs.representatives):
            has_norm_2 = any(
                e.nrd() == 2 for e in R.right_order.lattice.min_norm_elements(2))
            if not has_norm_2:
                assert b[i][i] == 0


class TestGraphIsomorphism:
    @pytest.mark.parametrize("p,ell", [(37, 2), (37, 3), (11, 5), (13, 7)])
    def test_curve_vs_brandt(self, p, ell):
        G = ecgraph.build_isogeny_graph(p, ell)
        cs = classes(p, ell)
        Br = brandt.brandt_graph(cs, ell)
        witness = brandt.check_graph_isomorphism(G, Br)
        assert witness is not None
        # the witness really preserves multiplicities
        for (s, d), rec in G.edges.items():
            assert Br.multiplicity(witness[s], witness[d]) == rec["count"]

    def test_permuted_self(self):
        g = MultiGraph()
        for v in "abc":
            g.add_vertex(v)
        g.add_edge("a", "b", count=2)
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        h = MultiGraph()
        for v in "xyz":
            h.add_vertex(v)
        h.add_edge("z", "x", count=2)
        h.add_edge("x", "y")
        h.add_edge("y", "z")
        assert brandt.check_graph_isomorphism(g, h) is not None

    def test_non_isomorphic(self):
        g = MultiGraph()
        h = MultiGraph()
        for v in (0, 1):
            g.add_vertex(v)
            h.add_vertex(v)
        g.add_edge(0, 1, count=2)
        h.add_edge(0, 1)
        h.add_edge(1, 0)
        assert brandt.check_graph_isomorphism(g, h) is None

    def test_vertex_cap(self):
        g = MultiGraph()
        h = MultiGraph()
        for v in range(65):
            g.add_vertex(v)
            h.add_vertex(v)
        with pytest.raises(PreconditionError):
            brandt.check_graph_isomorphism(g, h)


class TestMultiGraphIndex:
    """The adjacency indexes agree with a scan over every edge."""

    @staticmethod
    def scanned(g, v):
        outs = sorted(rec["count"] for (s, _), rec in g.edges.items() if s == v)
        ins = sorted(rec["count"] for (_, d), rec in g.edges.items() if d == v)
        return sum(outs), sum(ins), (tuple(outs), tuple(ins), g.loop_count(v))

    @pytest.mark.parametrize("p,ell", [(37, 2), (61, 3), (101, 2)])
    def test_degrees_match_edge_scan(self, p, ell):
        graphs = [brandt.brandt_graph(classes(p, ell), ell), ecgraph.build_isogeny_graph(p, ell)]
        graphs.append(ecgraph.reduce_graph(graphs[1]))
        for g in graphs:
            for v in g.vertices():
                want = self.scanned(g, v)
                assert (g.out_degree(v), g.in_degree(v), g.degree_signature(v)) == want
                assert g.out_edges(v) == {d: rec for (s, d), rec in g.edges.items() if s == v}
                assert g.in_edges(v) == {s: rec for (s, d), rec in g.edges.items() if d == v}

    def test_repeated_edges_share_one_record(self):
        g = MultiGraph()
        for v in "ab":
            g.add_vertex(v)
        g.add_edge("a", "b")
        g.add_edge("a", "b", count=2, cls="H")
        g.add_edge("a", "a")
        assert g.out_edges("a")["b"] is g.edges[("a", "b")]
        assert g.out_degree("a") == 4 and g.in_degree("b") == 3 and g.in_degree("a") == 1
        assert g.degree_signature("a") == ((1, 3), (1,), 1)
        assert g.edge_class("a", "b") == "H"


class TestTypeGraph:
    def test_vertex_count_bounded_by_classes(self):
        cs = classes(37, 2)
        t = brandt.type_graph(cs, 2)
        assert t.num_vertices() <= cs.class_number

    @pytest.mark.parametrize("p,ell", [(11, 2), (37, 2)])
    def test_matches_reduced_curve_graph(self, p, ell):
        cs = classes(p, ell)
        t = brandt.type_graph(cs, ell)
        r = ecgraph.reduce_graph(ecgraph.build_isogeny_graph(p, ell))
        assert t.num_vertices() == r.num_vertices()
        assert brandt.check_graph_isomorphism(r, t) is not None

    def test_singleton_when_all_right_orders_conjugate(self):
        cs = classes(13, 2)  # one class, type set is a single point
        t = brandt.type_graph(cs, 2)
        assert t.num_vertices() == 1


class TestJson:
    def test_schema(self):
        cs = classes(11, 2)
        doc = brandt.class_set_json(cs, 2)
        assert set(doc) == {"p", "ell", "classes", "brandt", "unit_sizes"}
        assert doc["classes"] == 2
        assert len(doc["brandt"]) == 2
