"""The report's text form, and the one module that writes witnesses."""

import ast
from pathlib import Path

from uqcomod.cyclofield import field
from uqcomod.reporting import VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src" / "uqcomod"


def test_as_text_renders_exact_numbers_in_a_witness():
    # json.dumps(default=str) prints a field element as str() does
    fld = field(3)
    rep = VerificationReport({"N": 3})
    rep.add("claim-a", "anchor-a", True)
    rep.add("claim-b", "anchor-b", False,
            {"examples": [{"element": "x1y0g0",
                           "lhs": fld.q + fld.parse("1/3")}], "failing": 1})
    rep.add("claim-c", "anchor-c", False, None)
    assert rep.as_text() == (
        'PASS claim-a\n'
        'FAIL claim-b :: {"examples": [{"element": "x1y0g0", '
        '"lhs": "1/3 + q"}], "failing": 1}\n'
        'FAIL claim-c :: null\n'
        '1/3 checks passed')


_WITNESS_KEYS = {"failing", "checked", "elements", "examples"}


def test_failure_witnesses_are_written_only_in_reporting():
    # VerificationReport.add_failures is the one writer of the format
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "reporting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                found += [f"{path.name}:{node.lineno} {k.value!r}"
                          for k in node.keys
                          if isinstance(k, ast.Constant)
                          and k.value in _WITNESS_KEYS]
    assert found == []
