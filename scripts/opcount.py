#!/usr/bin/env python3
"""Count the Python opcodes one benchmark workload executes.

    python3 scripts/opcount.py SRC_ROOT WORKLOAD SEED

SRC_ROOT is the root of a checkout (the directory that holds ``src/`` and
``perfbench/``).  The script builds that checkout's query list for WORKLOAD
and SEED exactly as ``perfbench/run.py`` does, at the ``run_seconds`` of the
checkout's BENCHMARK.json, and runs every query through ``qisog.cli.main``
in this process under ``sys.settrace`` with ``f_trace_opcodes`` set.  It
prints the opcode count per query kind, with the number of queries and of
non-zero exits, and the total, and for the ``oriented`` kind the opcodes per
walked vertex: its opcodes over the sum of the ``vertices`` its answers
report.  Then, for each query kind, the 15 functions
(``module.qualname``) that executed the most opcodes themselves, not
counting those of the functions they call, each with its number of calls
(a generator counts one call per resumption, as ``sys.settrace`` reports
it).

Unlike a timing, the count does not depend on the machine or its load, so
two checkouts can be sized against each other on one noisy host.  The
tracing makes the queries run about ten times slower than they do alone.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


TOP_FUNCTIONS = 15


def count_opcodes(fn, per_function: Counter, calls: Counter) -> int:
    """Opcodes executed by fn() and everything it calls; each function's own
    opcodes are added to per_function, and its calls to calls, under its
    module-qualified name."""
    n = 0

    def enter(frame, event, arg):
        code = frame.f_code
        name = f"{frame.f_globals.get('__name__', '?')}.{code.co_qualname}"
        calls[name] += 1

        def local(frame, event, arg):
            nonlocal n
            if event == "opcode":
                n += 1
                per_function[name] += 1
            return local
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(None)
    return n


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root, workload, seed = Path(argv[0]).resolve(), argv[1], int(argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads  # the checkout's own query lists
    from qisog import cli

    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    ops, queries, failed, vertices = Counter(), Counter(), Counter(), Counter()
    by_function: dict[str, Counter] = {}
    calls_by_function: dict[str, Counter] = {}
    for q in workloads.make_queries(workload, seed, seconds):
        codes, out = [], io.StringIO()

        def run():
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                codes.append(cli.main(q.argv()))
        ops[q.kind] += count_opcodes(run, by_function.setdefault(q.kind, Counter()),
                                     calls_by_function.setdefault(q.kind, Counter()))
        queries[q.kind] += 1
        failed[q.kind] += codes[0] != 0
        if q.kind == "oriented" and codes[0] == 0:
            vertices[q.kind] += json.loads(out.getvalue())["vertices"]
    print(f"{workload} seed {seed}: opcodes per query kind")
    for kind in sorted(ops):
        print(f"  {kind:<9} {ops[kind]:>13,}  "
              f"({queries[kind]} queries, {failed[kind]} non-zero exits)")
    print(f"  {'total':<9} {sum(ops.values()):>13,}")
    for kind, n in sorted(vertices.items()):
        print(f"  {kind}: {ops[kind] / n:,.0f} opcodes per walked vertex ({n} vertices)")
    for kind in sorted(by_function):
        print(f"\n{kind}: the {TOP_FUNCTIONS} functions with the most opcodes of their own")
        calls = calls_by_function[kind]
        for name, n in by_function[kind].most_common(TOP_FUNCTIONS):
            print(f"  {n:>13,}  {n / ops[kind]:6.1%}  {calls[name]:>9,} calls  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
