"""The benchmark's frozen stdout, under tier-1: every command keyed in
perfbench/digests.json runs in-process through `cli.main`, with no cache,
and the sha256 of its stdout must equal the frozen digest.  Class ids reach
stdout as sha256 prefixes of the class-minimal element's point images, so
a change to how elements are stored that moves them fails here first.  The
file is only read."""

import hashlib
import json
from pathlib import Path

import pytest

from ncfact.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_stdout_matches_the_frozen_digest(capsys, key):
    main(key.split())
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[key]
