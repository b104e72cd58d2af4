import importlib.util
import json
from pathlib import Path

import pytest

from qisog import ideals as idl
from qisog import cli, lattice, numth, orient
from qisog.errors import CapExceeded, PreconditionError
from qisog.ideals import QOrder
from qisog.lattice import QLattice
from qisog.multigraph import MultiGraph
from qisog.quat import QuatAlgebra
from test_numth import QuadOrderDesc, quad_order_info

ROOT7 = idl.root_maximal_order(7)


def import_graph_json(path: str) -> MultiGraph:
    """Read back a graph written by `qisog oriented --json-file`."""
    with open(path) as fh:
        doc = json.load(fh)
    g = MultiGraph(meta={k: v for k, v in doc.items() if k not in ("vertices", "edges")})
    by_id = {}
    for rec in doc["vertices"]:
        attrs = {k: v for k, v in rec.items() if k != "id"}
        if "basis" in attrs and "den" in attrs:
            key = (attrs["den"], tuple(tuple(r) for r in attrs["basis"]))
        else:
            key = rec["id"]
        by_id[rec["id"]] = key
        g.add_vertex(key, **attrs)
    for rec in doc["edges"]:
        g.add_edge(by_id[rec["src"]], by_id[rec["dst"]],
                   count=rec.get("count", 1), cls=rec.get("class"))
    return g


def walk(p, ell, depth):
    return orient.walk_component(idl.root_maximal_order(p), ell, depth=depth)


def subfield_lattice(order: QOrder, u: str) -> list:
    """Rank-2 basis of order ∩ (Q + Q u) in (1, u)-coordinates over den: the
    integer kernel of the two coordinates off the subfield."""
    cols = {"i": (2, 3), "j": (1, 3)}[u]
    keep = {"i": (0, 1), "j": (0, 2)}[u]
    rows = [[r[c] for c in cols] for r in order.lattice.mat]
    kern = lattice.integer_kernel(rows, 2)
    out = []
    for v in kern:
        amb = [sum(v[t] * order.lattice.mat[t][c] for t in range(4)) for c in range(4)]
        assert amb[cols[0]] == 0 and amb[cols[1]] == 0
        out.append((amb[keep[0]], amb[keep[1]]))
    assert len(out) == 2, "subfield intersection must have rank 2"
    return out


def optimal_suborder(order: QOrder, u: str) -> QuadOrderDesc:
    """The kernel oracle for orient.conductors: the quadratic order cut out
    by the order on Q(u), by its discriminant d = f^2 d_K, the determinant
    of the trace form on any Z-basis of the rank-2 intersection."""
    d_u = order.algebra.d_i if u == "i" else order.algebra.d_j
    # trace form on the integer rows, which are den times the basis
    rows = subfield_lattice(order, u)
    t = [[2 * (a[0] * b[0] + d_u * a[1] * b[1]) for b in rows] for a in rows]
    disc, rem = divmod(t[0][0] * t[1][1] - t[0][1] * t[1][0], order.lattice.den**4)
    assert rem == 0 and disc < 0
    return quad_order_info(disc)


def kernel_conductors(order: QOrder) -> tuple[int, int]:
    return optimal_suborder(order, "i").f, optimal_suborder(order, "j").f


class TestOptimalSuborder:
    def test_global_root_has_trivial_conductors(self):
        assert optimal_suborder(ROOT7, "i").f == 1
        assert optimal_suborder(ROOT7, "j").f == 1
        v = orient.oriented_vertex(ROOT7)
        assert (v.f_i, v.f_j) == (1, 1)

    @pytest.mark.parametrize("p", [7, 13, 101])
    def test_formula_agrees_with_the_kernels_on_z_plus_m_o(self, p):
        """Z + m O_0 cuts out Z + m O_K in both subfields, so its conductors
        are (m, m); at p = 7, w_j = (1 + j)/2 has a denominator."""
        O = idl.root_maximal_order(p)
        lat = O.lattice
        for m in range(1, 13):
            rows = [[lat.den, 0, 0, 0]] + [[m * c for c in r] for r in lat.mat]
            order = QOrder(QLattice.from_int_rows(O.algebra, rows, lat.den))
            assert orient.conductors(order) == kernel_conductors(order) == (m, m), (p, m)

    def test_depth_one_descent_at_3(self):
        g = walk(7, 3, 1)
        rootkey = ROOT7.key()
        for key in g.vertices():
            attrs = g.vertex_attrs[key]
            if key != rootkey:
                assert (attrs["f_i"], attrs["f_j"]) == (3, 3)

    def test_suborder_discriminants(self):
        desc = optimal_suborder(ROOT7, "j")
        assert desc.d_K == -7 and desc.d == -7
        desc_i = optimal_suborder(ROOT7, "i")
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
        """Every vertex's conductors, which the walk derives at the start
        from coordinates and edge by edge from memberships, are those of
        the integer kernels."""
        for p, ell, depth in ((7, 2, 3), (13, 2, 2), (17, 3, 2)):
            g = walk(p, ell, depth)
            alg = QuatAlgebra.for_prime(p)
            for key in g.vertices():
                attrs = g.vertex_attrs[key]
                O = QOrder(QLattice(alg, key[1], key[0]))
                assert (attrs["f_i"], attrs["f_j"]) == kernel_conductors(O), (p, ell, key)

    def test_wrong_interior_conductor_trips_the_reverse_edge(self, monkeypatch):
        """A step that gives the root's first child ell times its true f_i
        is caught when the child's edge back to the root re-derives the
        root's conductors from it."""
        step = orient.edge_step
        corrupted = []

        def wrong_first_child(v, order, ell):
            label, (f_i, f_j) = step(v, order, ell)
            if v.order.key() == ROOT7.key() and not corrupted:
                corrupted.append(order.key())
                f_i *= ell
            return label, (f_i, f_j)

        monkeypatch.setattr(orient, "edge_step", wrong_first_child)
        with pytest.raises(AssertionError,
                           match=r"gives conductors \(3, 1\), the target has \(1, 1\)"):
            orient.walk_component(ROOT7, 3, depth=2)
        assert len(corrupted) == 1


class TestOrientationChecks:
    """oriented_vertex refuses an order whose orientation is undefined.  The
    walk runs it at the start only: every child lies in the start's algebra
    and has conductors f_0 ell^j with ell != p."""

    def test_p_split_in_k_i(self):
        alg = QuatAlgebra(p=13, d_i=-1, d_j=-13)  # -1 is a square mod 13
        assert alg.p_splits == (True, False)
        order = QOrder(QLattice.from_int_rows(alg, [[int(r == c) for c in range(4)]
                                                    for r in range(4)], 1))
        with pytest.raises(PreconditionError, match="p splits in K_i"):
            orient.oriented_vertex(order)

    def test_p_divides_the_conductor(self):
        """Z + 7 O_0 cuts out Z + 7 O_K in both subfields."""
        lat = ROOT7.lattice
        rows = [[lat.den, 0, 0, 0]] + [[7 * c for c in r] for r in lat.mat]
        order = QOrder(QLattice.from_int_rows(ROOT7.algebra, rows, lat.den))
        assert orient.conductors(order) == (7, 7)
        with pytest.raises(PreconditionError, match="p divides the conductor f_i"):
            orient.oriented_vertex(order)


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

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(orient, "VERTEX_CAP", 5)
        with pytest.raises(CapExceeded):
            orient.walk_component(ROOT7, 3, depth=3)

    def test_tree_size(self):
        assert orient.tree_size(5, 6) == 23437
        assert orient.tree_size(7, 6) == 156865 > orient.VERTEX_CAP
        assert [orient.tree_size(2, d) for d in range(4)] == [1, 4, 10, 22]
        assert orient.tree_size(7, 2) == walk(499, 7, 2).num_vertices() == 65

    def test_cap_refused_before_walking(self, monkeypatch):
        calls = []
        monkeypatch.setattr(idl, "matrix_split", lambda *a, **k: calls.append(a))
        assert orient.DEPTH_CAP >= 6
        with pytest.raises(CapExceeded, match="vertex cap exceeded during walk"):
            orient.walk_component(idl.root_maximal_order(101), 7, depth=6)
        assert calls == []

    def test_cap_equal_to_tree_size_admitted(self, monkeypatch):
        monkeypatch.setattr(orient, "VERTEX_CAP", orient.tree_size(3, 2))
        g = orient.walk_component(ROOT7, 3, depth=2)
        assert g.num_vertices() == 17

    @pytest.mark.parametrize("p,ell", [(7, 3), (101, 2)])
    def test_adjacency_certificate_trips_at_distance_two(self, p, ell, monkeypatch):
        """A level-1 point handed its own child's order, at distance 2 from
        the root, fails ell O_child in O_parent before any other check."""
        ball_order = idl.EllAdicFrame.ball_order
        monkeypatch.setattr(idl.EllAdicFrame, "ball_order",
                            lambda frame, P, k: ball_order(frame, P, 2 if k == 1 else k))
        with pytest.raises(AssertionError, match="ell O_child must lie in O_parent"):
            orient.walk_component(idl.root_maximal_order(p), ell, depth=2)

    def test_depth_zero_builds_no_frame(self, monkeypatch, capsys):
        def refuse(*a, **k):
            raise AssertionError("depth 0 must not split")

        monkeypatch.setattr(idl, "matrix_split", refuse)
        assert cli.main(["oriented", "--p", "101", "--ell", "3", "--depth", "0"]) == 0
        assert capsys.readouterr().out == \
            "1 local root (global); audit: pass; 1 vertices, tree: True\n"
        g = orient.walk_component(ROOT7, 2, depth=0)
        assert g.num_vertices() == 1 and not g.edges


def reference_walk(start, ell, depth):
    """The oracle walk: a breadth-first search that computes the right order
    of every neighbour ideal, the parent's included, and every vertex's
    conductors by the kernel oracle."""
    alg = start.algebra
    g = MultiGraph(meta={
        "p": alg.p, "ell": ell, "d_i": alg.d_i, "d_j": alg.d_j, "kind": "oriented",
    })
    verts = {}

    def register(order):
        key = order.key()
        if key not in verts:
            verts[key] = ov = orient.OrientedVertex(order, *kernel_conductors(order))
            g.add_vertex(key, f_i=ov.f_i, f_j=ov.f_j,
                         basis=[list(r) for r in order.lattice.mat], den=order.lattice.den)
        return verts[key]

    frontier = [register(start)]
    seen = {start.key()}
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for I in idl.ideals_of_norm_ell(v.order, ell):
                w = register(QOrder(I.right_order()))
                vkey, wkey = v.order.key(), w.order.key()
                assert vkey != wkey and not g.multiplicity(vkey, wkey)
                g.add_edge(vkey, wkey, cls=orient.classify_edge(v, w, ell))
                if wkey not in seen:
                    seen.add(wkey)
                    nxt.append(w)
        frontier = nxt
    g.meta["depth"] = depth
    return g


class TestParentEdgeReuse:
    """walk_component reads every vertex off one ell-adic frame of the start,
    as End(Z_l w + l^k Z_l^2) for the points w of P^1(Z/l^k), with w mod
    l^(k-1) its parent: each tree edge builds one order, and no neighbour
    ideal's right order is computed."""

    @pytest.mark.parametrize("p,ell,depth", [(7, 3, 4), (101, 2, 5), (499, 7, 2)])
    def test_same_json_as_reference_walk(self, p, ell, depth):
        start = idl.root_maximal_order(p)
        want = reference_walk(start, ell, depth).to_json()
        assert orient.walk_component(start, ell, depth=depth).to_json() == want

    @pytest.mark.parametrize("p,ell,depth", [(7, 3, 3), (101, 2, 4)])
    def test_one_order_per_non_root_vertex(self, p, ell, depth, monkeypatch):
        built = []
        ball_order = idl.EllAdicFrame.ball_order

        def counted(frame, P, k):
            O = ball_order(frame, P, k)
            built.append((k, O))
            return O

        monkeypatch.setattr(idl.EllAdicFrame, "ball_order", counted)
        g = walk(p, ell, depth)
        assert g.is_tree_undirected()
        assert len(built) == g.num_vertices() - 1 == orient.tree_size(ell, depth) - 1
        assert len({O.key() for _, O in built}) == len(built)
        # (ell + 1) ell^(k-1) orders at distance k, breadth first
        assert [k for k, _ in built] == [k for k in range(1, depth + 1)
                                         for _ in range((ell + 1) * ell ** (k - 1))]

    @pytest.mark.parametrize("p,ell,depth", [(499, 2, 5), (101, 3, 3), (211, 7, 2)])
    def test_one_matrix_split_per_walk(self, p, ell, depth, monkeypatch):
        calls = []
        matrix_split = idl.matrix_split

        def counted(O, ell, precision=1):
            calls.append((O.key(), precision))
            return matrix_split(O, ell, precision)

        monkeypatch.setattr(idl, "matrix_split", counted)
        start = idl.root_maximal_order(p)
        orient.walk_component(start, ell, depth)
        assert calls == [(start.key(), 2 * depth)]


def divisible_start(p: int, ell: int) -> QOrder:
    """The vertex of the depth-2 walk from the first global root with the
    most factors ell in f_i f_j (least key among ties): a start whose
    conductors f_0 are divisible by ell, so that its walk ascends."""
    g = walk(p, ell, 2)

    def weight(key):
        attrs = g.vertex_attrs[key]
        return sum(numth._two_adic_split(attrs[f], ell)[0] for f in ("f_i", "f_j"))

    key = max(g.vertices(), key=weight)
    assert weight(key) >= 2
    return QOrder(QLattice(QuatAlgebra.for_prime(p), key[1], key[0]))


class TestDivisibleStart:
    """Walks from an order with ell | f_i or ell | f_j against the oracle:
    the membership step derives ascending conductors f_0 / ell exactly."""

    @pytest.mark.parametrize("p,ell", [(7, 2), (13, 3), (101, 2), (499, 7)])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_same_json_as_reference_walk(self, p, ell, depth):
        start = divisible_start(p, ell)
        want = reference_walk(start, ell, depth).to_json()
        assert orient.walk_component(start, ell, depth=depth).to_json() == want


class TestFramePrecision:
    """A depth-d walk builds one frame, at exactly ell^(2d), and no other,
    from a global root and from a start with ell | f_i f_j alike."""

    @pytest.mark.parametrize("p,ell", [(13, 3), (101, 2)])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("divisible", [False, True])
    def test_frame_precision_is_twice_the_depth(self, p, ell, depth, divisible, monkeypatch):
        start = divisible_start(p, ell) if divisible else idl.root_maximal_order(p)
        precisions = []
        frame_around = idl._frame_around

        def recorded(O, ell, n, e):
            precisions.append(n)
            return frame_around(O, ell, n, e)

        monkeypatch.setattr(idl, "_frame_around", recorded)
        orient.walk_component(start, ell, depth)
        assert precisions == [2 * depth]


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
            n = int(C.reduced_norm)
            assert n > 1 and 3 ** round(math.log(n, 3)) == n


def structure_audit(component: MultiGraph, vertex_key, ell: int,
                    alg: QuatAlgebra) -> orient.AuditReport:
    """The audit of one vertex, alg being the component's algebra: its
    predicted_counts against its out-edges."""
    attrs = component.vertex_attrs[vertex_key]
    return orient._audit_vertex(component, vertex_key, ell,
                                *orient.predicted_counts(alg, attrs["f_i"], attrs["f_j"], ell))


class TestStructureAudit:
    def test_p7_l3_global_root_all_descending(self):
        g = walk(7, 3, 1)
        rep = structure_audit(g, ROOT7.key(), 3, ROOT7.algebra)
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
        rep = structure_audit(g, ROOT7.key(), 2, alg)
        assert rep.ok
        obs = rep.observed
        assert (obs["HH"], obs["HD"], obs["DH"], obs["DD"]) == (0, 1, 2, 0)

    def test_p97_l2_root_with_split_field_i(self):
        # d_i = -7 splits at 2 while d_Kj = -4p has v_2 = 2: the Bass order
        # has odd discrd 7p, so again no edge is HH
        alg = QuatAlgebra.for_prime(97)
        assert (alg.d_i, numth.kronecker(alg.d_i, 2)) == (-7, 1)
        g = walk(97, 2, 1)
        root = idl.root_maximal_order(97).key()
        rep = structure_audit(g, root, 2, alg)
        assert rep.ok, load_ridge_survey().bucket_rows(rep)
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


def load_ridge_survey():
    path = Path(__file__).resolve().parent.parent / "scripts" / "ridge_survey.py"
    spec = importlib.util.spec_from_file_location("ridge_survey", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRidgeSurvey:
    """scripts/ridge_survey.py and its bucket_rows."""

    @pytest.mark.parametrize("p", [7, 13])
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_survey_finds_trees_without_anomalies(self, p, ell):
        row = load_ridge_survey().survey(p, ell, 2)
        assert row["tree"] and row["vertices"] == orient.tree_size(ell, 2)
        assert row["audited"] == sum(row["profiles"].values()) == 1 + (ell + 1)
        assert row["global"] >= 1 and row["local"] >= row["global"]
        assert row["mismatches"] == []

    def test_bucket_rows(self):
        """At a vertex with one conductor divisible by ell the mixed ascents
        AH and HA share one bucket."""
        g = walk(7, 2, 3)
        rep = next(r for r in orient.audit_component(g, 2)
                   if r.case == "one conductor divisible")
        rows = load_ridge_survey().bucket_rows(rep)
        assert [name for name, _, _ in rows] == ["AH+HA", "HD+DH", "DD", "HH", "AA"]
        assert rows[0] == ("AH+HA", 1, 1)
        assert all(want == got for _, want, got in rows)

    def test_main_lists_an_anomaly(self, monkeypatch, capsys):
        """A formula that predicts one HH edge too many at every vertex shows
        as an anomaly at each audited vertex."""
        survey = load_ridge_survey()
        predicted_counts = orient.predicted_counts

        def one_hh_too_many(*args):
            case, pred = predicted_counts(*args)
            return case, [(b, n + 1) if b == ("HH",) else (b, n) for b, n in pred]

        monkeypatch.setattr(orient, "predicted_counts", one_hh_too_many)
        monkeypatch.setattr("sys.argv", ["ridge_survey.py", "5", "1"])
        survey.main()
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "p=  5 l=2: V=   4 tree=True roots local/global=2/2 audited=1",
            "      anomaly at conductors (1, 1): HH=1(formula 2), DD=2(formula 2)",
            "p=  5 l=3: V=   5 tree=True roots local/global=1/1 audited=1",
            "      anomaly at conductors (1, 1): HH=0(formula 1), HD=2(formula 2), "
            "DH=2(formula 2)",
        ]


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
            assert h.edges[(remap[s], remap[d])]["cls"] == rec["cls"][::-1]
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
        assert cli.main(["oriented", "--p", "7", "--ell", "2", "--depth", "2",
                         "--json-file", str(path)]) == 0
        h = import_graph_json(str(path))
        assert set(h.vertices()) == set(g.vertices())
        for (s, d), rec in g.edges.items():
            assert h.edges[(s, d)]["cls"] == rec["cls"]
        doc = json.loads(path.read_text())
        assert {"p", "ell", "d_i", "d_j", "vertices", "edges"} <= set(doc)
        assert all({"id", "f_i", "f_j", "basis", "den"} <= set(v) for v in doc["vertices"])
        assert all({"src", "dst", "class"} <= set(e) for e in doc["edges"])

    def test_dot_labels(self, tmp_path):
        path = tmp_path / "component.dot"
        assert cli.main(["oriented", "--p", "7", "--ell", "3", "--depth", "1",
                         "--dot", str(path)]) == 0
        text = path.read_text()
        assert text == walk(7, 3, 1).to_dot()
        assert '[label="(1,1)"]' in text
        assert 'label="DD"' in text

    def test_vertex_order_canonical(self, tmp_path):
        g = walk(7, 2, 2)
        a = g.to_json()
        b = orient.walk_component(ROOT7, 2, depth=2).to_json()
        assert a == b
