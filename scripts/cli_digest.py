#!/usr/bin/env python3
"""sha256 digest of the CLI's output over one fixed grid of runs.

Usage (from the repository root)::

    python3 scripts/cli_digest.py > digest.txt

The grid:

* ``oriented --json`` for every prime 5 <= p <= 500 and l in {2, 3, 5, 7},
  l != p, at depth 5/3/2/2, and plain ``oriented`` (its one-line summary)
  for p in {11, 101, 499} at the same depths, each also writing
  ``--json-file`` and ``--dot`` into a temporary directory;
* ``embed --json`` and ``algebra`` for every prime 7 <= p <= 500;
* ``brandt --json``, ``isocheck --json`` and ``ssgraph --json`` for every
  prime 5 <= p <= 113 and l in {2, 3}, and ``brandt --json`` and
  ``isocheck --json`` for the same primes and l in {5, 7}, l != p;
* after those, ``ssgraph --json`` for every other prime 5 <= p <= 500 and
  l in {2, 3, 5, 7}, l != p, so the curve graphs are covered on the whole
  range;
* then ``embed --json`` and ``algebra`` at p = 5, where the superorder
  oracle runs at index 8 and the radical oracle's trace kernel at
  l = p = 5;
* last, the outputs not covered above: ``algebra --json`` and plain
  ``embed`` for every prime 5 <= p <= 500, and plain ``brandt``,
  ``isocheck`` and ``ssgraph`` for p in {11, 101, 499} and l in
  {2, 3, 5, 7}.  They come after the rest, so the lines before them read
  as they did before the grid grew.

That is every subcommand of the CLI, with and without ``--json``.

Every run goes to ``qisog.cli.main`` in this process.  Each prints one line
``<sha256 of stdout> <exit code> <argv>``; an ``oriented`` line also carries
the sha256 of the exported JSON and DOT files (per-vertex conductors and
edge classes appear only there), after the stdout digest.  The last line is
``combined <sha256>`` over all the lines before it.  Two trees give the
same output on the grid exactly when their combined digests agree, so a
change that must leave the output byte-identical is checked by running
this on both sides.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qisog import cli, numth  # noqa: E402

WALK_DEPTH = {2: 5, 3: 3, 5: 2, 7: 2}
PLAIN_P = (11, 101, 499)  # the runs without --json on a graph: the summary line


def grid() -> list[list[str]]:
    primes = [p for p in range(5, 501) if numth.is_prime(p)]
    runs = [["oriented", "--p", str(p), "--ell", str(ell), "--depth", str(d), "--json"]
            for p in primes for ell, d in WALK_DEPTH.items() if ell != p]
    runs += [["oriented", "--p", str(p), "--ell", str(ell), "--depth", str(d)]
             for p in PLAIN_P for ell, d in WALK_DEPTH.items()]
    for p in primes:
        if p >= 7:
            runs.append(["embed", "--p", str(p), "--json"])
            runs.append(["algebra", "--p", str(p)])
    for p in primes:
        if p <= 113:
            for ell in (2, 3):
                runs.append(["brandt", "--p", str(p), "--ell", str(ell), "--json"])
                runs.append(["isocheck", "--p", str(p), "--ell", str(ell), "--json"])
                runs.append(["ssgraph", "--p", str(p), "--ell", str(ell), "--json"])
            for ell in (5, 7):
                if ell != p:
                    runs.append(["brandt", "--p", str(p), "--ell", str(ell), "--json"])
                    runs.append(["isocheck", "--p", str(p), "--ell", str(ell), "--json"])
    runs += [["ssgraph", "--p", str(p), "--ell", str(ell), "--json"]
             for p in primes for ell in (2, 3, 5, 7)
             if ell != p and (p > 113 or ell > 3)]
    runs += [["embed", "--p", "5", "--json"], ["algebra", "--p", "5"]]
    runs += [["algebra", "--p", str(p), "--json"] for p in primes]
    runs += [["embed", "--p", str(p)] for p in primes]
    runs += [[cmd, "--p", str(p), "--ell", str(ell)] for p in PLAIN_P for ell in WALK_DEPTH
             for cmd in ("brandt", "isocheck", "ssgraph")]
    return runs


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        exports = [Path(tmp) / "component.json", Path(tmp) / "component.dot"]
        for argv in grid():
            extra = []
            if argv[0] == "oriented":
                extra = ["--json-file", str(exports[0]), "--dot", str(exports[1])]
                for path in exports:
                    path.unlink(missing_ok=True)
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv + extra)
            digests = [sha(out.getvalue().encode())]
            if extra:
                digests += [sha(path.read_bytes()) if path.exists() else "missing"
                            for path in exports]
            line = f"{' '.join(digests)} {code} {' '.join(argv)}"
            print(line, flush=True)
            combined.update((line + "\n").encode())
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
