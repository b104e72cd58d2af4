#!/usr/bin/env python3
"""Benchmark for qisog: seeded closed-loop workloads with certified answers.

One client keeps one query in flight, in this process.  Queries go to
``qisog.cli.main(argv)`` in-process.  Every answer is checked by a
certificate in ``workloads.py``; a failed certificate, a non-zero exit, an
exception or a timeout is a failed query.

Run one workload (the last stdout line is a JSON summary)::

    python3 perfbench/run.py --workload class-sweep --seed 1 --seconds 40 --trace 0

Run every workload, each in a fresh process, and print a report; with
``--trace 1`` each workload also gets a traced run, and the report adds the
per-layer table and the tracing overhead::

    python3 perfbench/run.py --all --trace 1 --out perfbench/out/BENCH_mine.json

With ``--trace 0`` the summary holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Per-run details (every query with its
status, time and the sha256 of its stdout; the per-layer table) are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads as wl  # noqa: E402  (sibling module; qisog itself loads in setup)
from tracer import COUNTED, SPANNED, Tracer  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
SETUP_SAMPLES = 7  # setup_s is the median of this many set-ups
# No query starts, or runs on, later than DEADLINE_FACTOR * --seconds +
# DEADLINE_SLACK_S into the process's life, and never later than
# DEADLINE_MAX_S, so a run ends within 180 s even on a machine several times
# slower than the one the lists are sized for.
DEADLINE_FACTOR = 4
DEADLINE_SLACK_S = 30
DEADLINE_MAX_S = 150

END_TO_END = {  # name -> unit; failed_share is reported beside these
    "setup_s": "s",
    "wall_s": "s",
    "query_s_p50": "s",
    "query_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    [name + ".calls" for name, _, _ in SPANNED + COUNTED]
    + ["lattice.min_norm_elements.returned", "ideals.is_equivalent.hits",
       "ideals.is_equivalent.hit_ratio", "ideals.root_maximal_orders.failed",
       "brandt.check_graph_isomorphism.failed", "trace.spans", "trace.wall_s",
       "query.self_s"]
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in qisog swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def call_with_limit(fn, limit: float):
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# one workload


def setup(workload: str, seed: int, seconds: float):
    """Import qisog, load the modular polynomials, build the query list."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qisog.cli  # noqa: F401  (loads every layer)

    for ell in wl.ELLS:
        qisog.ecgraph.load_modpoly(ell)
    queries = wl.make_queries(workload, seed, seconds)
    return qisog, queries, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Time a set-up in a fresh interpreter, as the timed run does it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(done.stdout.split()[-1])


def run_query(qisog, q: wl.Query, limit: float, log_sink: io.StringIO, tracer):
    """Returns (status, detail, seconds, stdout text)."""
    out = io.StringIO()
    log_sink.seek(0)
    log_sink.truncate()

    def call():
        with redirect_stdout(out), redirect_stderr(log_sink):
            return qisog.cli.main(q.argv())

    span = tracer.open("query") if tracer else None
    t = time.perf_counter()
    try:
        code = call_with_limit(call, limit)
    except QueryTimeout:
        return "timeout", f"over the {limit:.3g} s limit", time.perf_counter() - t, ""
    except Exception as ex:  # a crash inside qisog is a failed query, not a failed run
        return "exception", f"{type(ex).__name__}: {ex}", time.perf_counter() - t, out.getvalue()
    finally:
        if tracer:
            tracer.close(span)
    seconds = time.perf_counter() - t
    text = out.getvalue()
    # A printed document is certified whatever the exit code: isocheck and
    # embed print their answer and then exit 1 when it is negative.
    if text or not code:
        reason = certificate_failure(q, text)
        if reason:
            return "certificate", reason, seconds, text
    if code:
        logged = log_sink.getvalue().strip().splitlines()
        return f"exit{code}", logged[-1] if logged else "", seconds, text
    return "ok", "", seconds, text


def certificate_failure(q: wl.Query, text: str) -> str | None:
    try:
        return wl.certify(q, text)
    except (KeyError, TypeError, ValueError) as ex:
        return f"malformed answer: {type(ex).__name__}: {ex}"


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    s = sorted(times)
    k = max(1, len(s) - 10)
    return s[k - 1], 100.0 * k / len(s)


def run_workload(args) -> dict:
    qisog, queries, setup_main = setup(args.workload, args.seed, args.seconds)
    # half of the fresh set-ups run before the query list and half after it,
    # so that the median does not hang on the machine's pace at one moment
    before = (SETUP_SAMPLES - 1) // 2
    setup_times = [setup_main] + [probe_setup(args) for _ in range(before)]
    log_sink = io.StringIO()
    logging.basicConfig(stream=log_sink, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        run_span = tracer.open("run")
    deadline = PROCESS_START + min(DEADLINE_FACTOR * args.seconds + DEADLINE_SLACK_S,
                                   DEADLINE_MAX_S)
    records = []
    t_run = time.perf_counter()
    for i, q in enumerate(queries):
        limit = min(wl.QUERY_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            status, detail, seconds, text = "deadline", "not started before the deadline", None, ""
        else:
            if tracer:
                tracer.query = i
            status, detail, seconds, text = run_query(qisog, q, limit, log_sink, tracer)
        rec = {"i": i, "query": q.label(), "kind": q.kind, "p": q.p, "ell": q.ell,
               "depth": q.depth, "status": status, "detail": detail, "seconds": seconds,
               "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
        records.append(rec)
        shown = "-" if seconds is None else f"{seconds:8.3f}s"
        print(f"{i:3d} {q.label():<26} {status:<11} {shown:>9} "
              f"sha256={rec['stdout_sha256'][:16]} {detail}", flush=True)
    wall = time.perf_counter() - t_run
    if tracer:
        tracer.close(run_span)
        tracer.uninstall()
        wall = tracer.spans[run_span][2] - tracer.spans[run_span][1]
    setup_times += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1 - before)]

    times = [r["seconds"] for r in records if r["seconds"] is not None]
    tail_s, tail_pct = tail(times)
    failed = [r for r in records if r["status"] != "ok"]
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "correct": not any(r["status"] == "certificate" for r in records),
        "attempted": len(records), "failed": len(failed),
        "failed_share": len(failed) / len(records),
        "failures": [{"query": r["query"], "p": r["p"], "ell": r["ell"],
                      "kind": r["status"], "detail": r["detail"]} for r in failed],
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "query_s_p50": statistics.median(times),
            "query_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "setup_samples_s": setup_times,
        "tail_percentile": tail_pct,
        "n": len(times),
        "queries": records,
    }
    if tracer:
        layers = tracer.layer_metrics()
        self_times = tracer.self_times()
        layers["trace.spans"] = len(tracer.spans)
        layers["trace.wall_s"] = wall
        layers["query.self_s"] = sum(st for span, st in zip(tracer.spans, self_times)
                                     if span[0] == "query")
        layers["run.self_s"] = self_times[run_span]
        layers["trace.self_sum_s"] = sum(self_times)
        doc["layers"] = layers
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        OUT.mkdir(exist_ok=True)
        tracer.write(spans_path)
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
    return doc


def report_workload(doc: dict) -> None:
    m = doc["metrics"]
    print(f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
          f"{doc['attempted']} queries, {doc['failed']} failed")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "query_s_tail":
            extra = f"  (p{doc['tail_percentile']:.1f}, n={doc['n']})"
        if name == "setup_s":
            extra = "  (median of " + ", ".join(f"{x:.4f}" for x in doc["setup_samples_s"]) + ")"
        print(f"   {name:<14} {m[name]:12.4f} {unit}{extra}")
    print(f"   {'failed_share':<14} {doc['failed_share']:12.4f} ratio"
          f"  ({doc['failed']}/{doc['attempted']})")
    for f in doc["failures"]:
        print(f"   failed: {f['query']:<26} {f['kind']:<11} {f['detail']}")
    if "layers" in doc:
        layers, wall = doc["layers"], doc["layers"]["trace.wall_s"]
        print(f"   {'layer function':<40} {'calls':>9} {'self_s':>10} {'share':>7} {'incl_s':>10}")
        for name, _, _ in SPANNED:
            calls, self_s = layers[name + ".calls"], layers[name + ".self_s"]
            print(f"   {name:<40} {calls:9d} {self_s:10.4f} {self_s / wall:7.1%} "
                  f"{layers[name + '.incl_s']:10.4f}")
        for name in ("query", "run"):
            self_s = layers[name + ".self_s"]
            print(f"   {name + ' (untraced code)':<40} {'':>9} {self_s:10.4f} {self_s / wall:7.1%}")
        for key in PER_LAYER:
            if key.startswith("multigraph.") or not key.endswith(".calls"):
                value = layers[key]
                shown = f"{value:9d}" if isinstance(value, int) else f"{value:9.4f}"
                print(f"   {key:<40} {shown}")


def summary_line(doc: dict) -> str:
    if doc["trace"]:
        metrics = {k: {"value": doc["layers"][k], "unit": per_layer_unit(k)} for k in PER_LAYER}
    else:
        metrics = {k: {"value": doc["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    docs = {}
    status = 0
    for name in wl.WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            if done.returncode:
                print(f"== {name} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
                status = 1
                continue
            doc = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            docs[f"{name}/trace{trace}"] = doc
            report_workload(doc)
            status |= not doc["correct"]
        if args.trace and f"{name}/trace0" in docs and f"{name}/trace1" in docs:
            plain = docs[f"{name}/trace0"]["metrics"]["wall_s"]
            traced = docs[f"{name}/trace1"]["layers"]["trace.wall_s"]
            docs[f"{name}/trace1"]["trace_overhead_s"] = traced - plain
            print(f"   tracing overhead: {traced - plain:+.4f} s "
                  f"(traced wall_s {traced:.4f} - untraced wall_s {plain:.4f})")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "runs": docs}, indent=1))
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(wl.WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in a fresh process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT / "BENCH.json"), help="report file for --all")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "qisog" / "__init__.py").is_file():
        print(f"qisog sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.setup_probe:
        print(setup(args.workload, args.seed, args.seconds)[2])
        return 0
    doc = run_workload(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1))
    report_workload(doc)
    print(summary_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
