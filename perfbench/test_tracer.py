"""Self-test of the benchmark's tracer, of how run.py classifies a query's
outcome, and of BENCHMARK.json's metric lists.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import signal
import subprocess
import sys
import types
from pathlib import Path

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))
import qisog.cli  # noqa: E402,F401  (loads every layer)
from qisog import bass, ideals, lattice, orient  # noqa: E402

ALIASES = [  # (alias module, name, metric prefix of the defining function)
    (ideals, "hnf_rows", "lattice.hnf_rows"),
    (orient, "integer_kernel", "lattice.integer_kernel"),
    (bass, "frac_inverse", "lattice.frac_inverse"),
]


def _qisog_modules():
    return [m for n, m in sys.modules.items() if n == "qisog" or n.startswith("qisog.")]


def test_every_binding_is_wrapped_and_restored():
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(f): name for name, f in tracer.wrapped.items()}
        for mod in _qisog_modules():
            for alias, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{alias} escaped the tracer"
        for mod, name, prefix in ALIASES:
            bound = getattr(mod, name)
            assert bound.__wrapped__ is tracer.wrapped[prefix]
            assert bound is getattr(lattice, name)
        ideals.hnf_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert tracer.summary()["lattice.hnf_rows"]["calls"] == 1
    finally:
        tracer.uninstall()
    for mod, name, prefix in ALIASES:
        assert getattr(mod, name) is tracer.wrapped[prefix]
    assert lattice.QLattice.__dict__["min_norm_elements"] is tracer.wrapped["lattice.min_norm_elements"]


def _traced_run(workload: str, seed: int) -> tuple[dict, dict, list[tuple]]:
    """A short traced run in a fresh process: (summary line, run document, spans)."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    with gzip.open(run.ROOT / doc["spans_file"], "rt") as fh:
        rows = list(csv.reader(fh))[1:]
    spans = [(name, float(start), float(end), int(parent), int(query))
             for name, start, end, parent, query in rows]
    return json.loads(done.stdout.splitlines()[-1]), doc, spans


def test_spans_agree_with_the_untraced_clock_and_counts_repeat():
    runs = [_traced_run("class-sweep", 7) for _ in range(2)]
    counts = []
    for summary, doc, spans in runs:
        assert summary["correct"]
        layers = doc["layers"]
        # each query span covers the perf_counter interval run.py timed for
        # that query, give or take the wrapper's own bookkeeping
        query_spans = {q: end - start for name, start, end, _, q in spans if name == "query"}
        assert sorted(query_spans) == [r["i"] for r in doc["queries"]]
        for rec in doc["queries"]:
            assert abs(query_spans[rec["i"]] - rec["seconds"]) < 2e-3, rec["query"]
        # spans nest: each one lies inside its parent, in the same query
        for name, start, end, parent, q in spans:
            assert start <= end, name
            if parent >= 0:
                pname, pstart, pend, _, pq = spans[parent]
                assert pstart <= start and end <= pend, (name, pname)
                assert pq == q or pname == "run", (name, pname)
        # self times partition the run span (this holds by construction for
        # a single-rooted tree; a second root or a negative self time shows here)
        assert sum(1 for s in spans if s[3] < 0) == 1
        assert abs(layers["trace.self_sum_s"] - layers["trace.wall_s"]) < 1e-6
        assert all(layers[k] > -1e-9 for k in layers if k.endswith(".self_s"))
        counts.append({k: v["value"] for k, v in summary["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lattice.min_norm_elements.calls"] > 0


class _FakeCli:
    """Stands in for qisog.cli: prints a fixed document and returns a fixed code."""

    def __init__(self, doc, code):
        self.doc, self.code = doc, code

    def main(self, argv):
        if self.doc is not None:
            print(json.dumps(self.doc))
        return self.code


def _status(query, doc, code):
    qisog = types.SimpleNamespace(cli=_FakeCli(doc, code))
    return run.run_query(qisog, query, 60.0, io.StringIO(), None)[0]


def test_printed_answer_is_certified_whatever_the_exit_code():
    signal.signal(signal.SIGALRM, run._alarm)
    iso = run.wl.Query("isocheck", 101, 2)
    h = run.wl.class_number(101)
    good = {"p": 101, "ell": 2, "curve_vertices": h, "class_number": h, "isomorphic": True,
            "witness": {str(i): i for i in range(h)}}
    assert _status(iso, good, 0) == "ok"
    # qisog prints its negative answer and then exits 1: a wrong answer
    negative = {k: v for k, v in good.items() if k != "witness"} | {"isomorphic": False}
    assert _status(iso, negative, 1) == "certificate"
    embed = run.wl.Query("embed", 101)
    assert _status(embed, {"oracle_agrees": True}, 0) == "ok"
    assert _status(embed, {"oracle_agrees": False}, 1) == "certificate"
    # no document: the exit code is the failure kind
    assert _status(iso, None, 1) == "exit1"
    assert _status(iso, None, 2) == "exit2"
    assert _status(iso, None, 0) == "certificate"


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert all(w["name"] in run.wl.WORKLOADS for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
