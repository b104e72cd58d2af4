"""The CLI's output over the fixed grid of scripts/cli_digest.py, pinned by
its combined sha256.  The grid runs every subcommand over primes p <= 500,
about 1400 runs in one process and several seconds, so the pin is part of
the default run.

A change that alters the output on purpose updates COMBINED and says which
lines of the digest changed.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

COMBINED = "c0f8133143d0eeaafbdc322f67477b56f41f4ee1ec63c46b867c8b26b4dba36b"

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"


def test_combined_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_digest.main() == 0
    *runs, last = out.getvalue().splitlines()
    assert len(runs) == len(cli_digest.grid())
    assert last == f"combined {COMBINED}"
