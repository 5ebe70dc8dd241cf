"""Report bytes pinned on the determinism grid.

Each case runs the CLI in process with `--format json` and compares the
sha256 of its stdout, of its stderr and its exit code with
`golden_reports.json`.  The `numeric` block is removed from stdout before
hashing: its floats may differ in the last bits between numpy builds, and the
CI hash-seed step covers them within one environment.

To re-record the cases whose reports an intended change alters, name each
one as an argument; every other digest is left as it is:
    PYTHONPATH=src python tests/test_golden_reports.py \
        "verify-all --type A --rank 3 --point 1,1,1 --orbit-cap 10"
A new case is recorded the same way, once it is added to CASES.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from orbitope.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

CASES = (
    "verify-all --type A --rank 2 --point 1,1",
    "verify-all --type A --rank 3 --point 1,1,1",
    "verify-all --type A --rank 4 --point 0,1,1,0",
    "verify-all --type A --rank 5 --point 1,0,1,0,1",
    "verify-all --type A --rank 6 --point 1,0,0,0,0,0 --weyl-cap 6000",
    "verify-all --type B --rank 3 --point 1/2,0,1",
    "verify-all --type B --rank 4 --point 0,1,0,1",
    "verify-all --type B --rank 5 --point 1,0,0,0,0 --weyl-cap 4000",
    "verify-all --type C --rank 3 --point 1,0,1",
    "verify-all --type D --rank 4 --point 1,1,1,1",
    "verify-all --type D --rank 5 --point 0,1,0,0,1",
    "verify-all --type D --rank 6 --point 1,0,0,0,0,0 --weyl-cap 30000",
    "verify-all --type E --rank 6 --point 1,0,0,0,0,0 --weyl-cap 60000",
    "verify-all --type F --rank 4 --point 1,0,0,1",
    "verify-all --type G --rank 2 --point 3/2,1",
    "faces --type D --rank 4 --point 1,1,1,1",
    "strata --type D --rank 4 --point 1,1,1,1",
    "integrality --type D --rank 4 --point 1,1,1,1",
    "polytope --type D --rank 4 --point 1,1,1,1",
    "faces --type B --rank 3 --point 1,1,1",
    "strata --type B --rank 3 --point 1,1,1",
    "verify-numeric --type A --rank 3 --point 1,1,1",
    "verify-all --type B --rank 8 --point 0,1,0,0,0,1,0,0 --weyl-cap 2000",
    "verify-all --type A --rank 3 --point 1,1,1 --weyl-cap 10",
    "verify-all --type A --rank 3 --point 1,1,1 --orbit-cap 10",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(case: str) -> dict:
    """Run one case in process; digests of stdout without `numeric`, and of stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case.split() + ["--format", "json"])
    stdout = out.getvalue()
    if stdout:
        report = json.loads(stdout)
        report.pop("numeric", None)
        stdout = json.dumps(report, indent=2) + "\n"
    return {"exit": code, "stdout": _sha(stdout), "stderr": _sha(err.getvalue())}


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case):
    assert record(case) == json.loads(GOLDEN.read_text())[case]


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def rerecord(names) -> None:
    """Re-run the named cases and rewrite their digests in the golden file."""
    unknown = [name for name in names if name not in CASES]
    if not names or unknown:
        raise SystemExit("usage: test_golden_reports.py CASE [CASE ...], each one of CASES"
                         + ("; unknown: %s" % ", ".join(map(repr, unknown)) if unknown else ""))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.update({name: record(name) for name in names})
    GOLDEN.write_text(json.dumps({case: golden[case] for case in CASES if case in golden},
                                 indent=2) + "\n")


if __name__ == "__main__":
    rerecord(sys.argv[1:])
