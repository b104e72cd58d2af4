#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED

Runs ``perfbench/run.py --trace 0`` in each checkout for ten pairs, the
parent first on odd pairs and the change first on even ones, and prints,
for each end-to-end metric in the parent's BENCHMARK.json, both sides'
median [quartiles], the pairs the change won (ties count for neither) and
two verdicts:

- claim: the change wins at least 9 of the 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- bound: the change's median is worse than the parent's by more than the
  metric's relative bound.

Each run's failed-query count is printed beside its pair, and each
checkout's ``src/`` line count (its ``*.py`` files) beside the table: a run
compiles ``src/`` afresh when no bytecode is cached, so ``setup_s`` and
``peak_rss_mb`` follow its size.  The script writes nothing itself; run.py
keeps its per-run files under each checkout's perfbench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
CLAIM_WINS = 9


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def src_lines(root: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (root / "src").rglob("*.py"))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seed = argv[2], int(argv[3])
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    sides = {"parent": parent, "change": change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, bench["run_seconds"]))
        print(f"pair {i:2d}: " + "  ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f} "
            f"failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']}"
            for side in order), flush=True)
    lines = {side: src_lines(root) for side, root in sides.items()}
    print(f"\n{workload} seed {seed}, {PAIRS} pairs; median [quartiles]; src/ lines: "
          f"parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        (p1, pm, p3), (c1, cm, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        gain = (pm - cm) if lower else (cm - pm)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        claim = wins >= CLAIM_WINS and gain > p3 - p1
        worse = -gain / pm > metric["bound"]
        print(f"  {name:<13} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {(cm - pm) / pm:+.1%}  "
              f"won {wins}/{PAIRS}  claim {'holds' if claim else 'not met'}  "
              f"bound {'WORSE than ' if worse else 'within '}{metric['bound']:.0%}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    print(f"  failed queries: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
