"""The `verify all` report fields that the benchmark workloads read.

`perfbench/workloads.py` runs `verify all` and checks these names and this
`actual` string in its JSON report; the values are copied here so that a
rename or a reformatted kernel vector fails in tier-1, not only in a
benchmark run.
"""

import json

from tilewalks.cli import main

MIN_CHECKS = 58
REQUIRED = {
    "kernel-vector": "(1, -5, 7, -3, -4, 2, 1, -3, 5, -2, -1)",
    "matrix-matches-printed": None,
    "w-ninth-order-equals-system": None,
    "domino-ceiling-vs-recurrence": None,
    "charpoly-w-9th": None,
    "oeis:fib-vs-A000045": None,
    "oeis:v-vs-A001629": None,
    "oeis:r-vs-A030186": None,
    "oeis:w-domino-vs-A054454": None,
}


def test_verify_all_report_contract(capsys):
    assert main(["verify", "all"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    by_name = {c["name"]: c for c in checks}
    assert len(by_name) == len(checks) >= MIN_CHECKS
    assert all(c["passed"] is True for c in checks)
    for name, actual in REQUIRED.items():
        assert name in by_name, name
        if actual is not None:
            assert by_name[name]["actual"] == actual
