"""Directed multigraph with vertex attributes and per-edge multiplicity or
classification labels; serializable to JSON and DOT.

Vertices are arbitrary hashable keys; serialization orders them by their
canonical key so identical graphs always serialize identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PreconditionError


@dataclass
class MultiGraph:
    meta: dict = field(default_factory=dict)
    vertex_attrs: dict = field(default_factory=dict)  # key -> attr dict
    edges: dict = field(default_factory=dict)  # (src, dst) -> {"count": n, "cls": str|None}
    # adjacency indexes sharing the records of `edges`: v -> {dst: rec}, v -> {src: rec}
    _out: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _in: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_vertex(self, key, **attrs):
        if key not in self.vertex_attrs:
            self.vertex_attrs[key] = {}
        self.vertex_attrs[key].update(attrs)

    def add_edge(self, src, dst, count: int = 1, cls: str | None = None):
        for v in (src, dst):
            if v not in self.vertex_attrs:
                raise PreconditionError("edge endpoint not a vertex")
        rec = self.edges.get((src, dst))
        if rec is None:
            rec = self.edges[(src, dst)] = {"count": 0, "cls": cls}
            self._out.setdefault(src, {})[dst] = rec
            self._in.setdefault(dst, {})[src] = rec
        rec["count"] += count
        if cls is not None:
            rec["cls"] = cls

    # -- views ---------------------------------------------------------------

    def vertices(self) -> list:
        return sorted(self.vertex_attrs)

    def num_vertices(self) -> int:
        return len(self.vertex_attrs)

    def num_edges(self) -> int:
        return sum(rec["count"] for rec in self.edges.values())

    def out_edges(self, v) -> dict:
        """{dst: edge record} of the edges leaving v."""
        return self._out.get(v, {})

    def in_edges(self, v) -> dict:
        """{src: edge record} of the edges entering v."""
        return self._in.get(v, {})

    def out_degree(self, v) -> int:
        return sum(rec["count"] for rec in self.out_edges(v).values())

    def in_degree(self, v) -> int:
        return sum(rec["count"] for rec in self.in_edges(v).values())

    def loop_count(self, v) -> int:
        rec = self.edges.get((v, v))
        return rec["count"] if rec else 0

    def multiplicity(self, src, dst) -> int:
        rec = self.edges.get((src, dst))
        return rec["count"] if rec else 0

    def edge_class(self, src, dst):
        rec = self.edges.get((src, dst))
        return rec.get("cls") if rec else None

    def undirected_edge_set(self) -> set:
        return {frozenset((s, d)) for (s, d) in self.edges if s != d}

    def is_connected(self) -> bool:
        verts = self.vertices()
        if not verts:
            return True
        adj: dict = {v: set() for v in verts}
        for s, d in self.edges:
            adj[s].add(d)
            adj[d].add(s)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def is_tree_undirected(self) -> bool:
        return self.is_connected() and len(self.undirected_edge_set()) == self.num_vertices() - 1

    def degree_signature(self, v):
        outs = sorted(rec["count"] for rec in self.out_edges(v).values())
        ins = sorted(rec["count"] for rec in self.in_edges(v).values())
        return (tuple(outs), tuple(ins), self.loop_count(v))

    # -- serialization -------------------------------------------------------

    def _index(self) -> dict:
        return {v: n for n, v in enumerate(self.vertices())}

    def to_json_dict(self) -> dict:
        idx = self._index()
        verts = []
        for v in self.vertices():
            rec = {"id": idx[v]}
            rec.update(self.vertex_attrs[v])
            verts.append(rec)
        edges = []
        for (s, d) in sorted(self.edges, key=lambda e: (idx[e[0]], idx[e[1]])):
            rec = self.edges[(s, d)]
            e = {"src": idx[s], "dst": idx[d]}
            if rec.get("cls") is not None:
                e["class"] = rec["cls"]
            if rec["count"] != 1:
                e["count"] = rec["count"]
            edges.append(e)
        return dict(self.meta) | {"vertices": verts, "edges": edges}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=False)

    def to_dot(self, label_attr: str | None = None) -> str:
        idx = self._index()
        lines = ["digraph G {"]
        for v in self.vertices():
            attrs = self.vertex_attrs[v]
            if label_attr and label_attr in attrs:
                label = attrs[label_attr]
            elif "f_i" in attrs and "f_j" in attrs:
                label = f"({attrs['f_i']},{attrs['f_j']})"
            else:
                label = str(idx[v])
            lines.append(f'  v{idx[v]} [label="{label}"];')
        for (s, d) in sorted(self.edges, key=lambda e: (idx[e[0]], idx[e[1]])):
            rec = self.edges[(s, d)]
            attr = f' [label="{rec["cls"]}"]' if rec.get("cls") else ""
            for _ in range(rec["count"]):
                lines.append(f"  v{idx[s]} -> v{idx[d]}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"
