"""The CLI's output over the fixed grid of scripts/cli_digest.py, pinned by
its combined sha256.  Slow (the grid runs every subcommand at every prime
p <= 500), so deselected by default; run with `pytest -m slow`.

A change that alters the output on purpose updates COMBINED and says which
lines of the digest changed.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

COMBINED = "de5332bab772101f790a31b25e214a3462b381002f924e3f9cba13a44385587c"

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"


@pytest.mark.slow
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
