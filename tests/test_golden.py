"""Byte-for-byte output of the default report and the zoo description.

The files under tests/golden/ were written by

    uqcomod verify --N 3 --format json --output tests/golden/verify_n3.json
    uqcomod classify --output tests/golden/classify.txt

with the Fraction-tuple field representation.  A change to the internals
(field, linear algebra, builders) must reproduce them exactly; a change to
a claim must regenerate them and say so.
"""

from pathlib import Path

import pytest

from uqcomod.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["verify", "--N", "3", "--format", "json"], "verify_n3.json"),
    (["classify"], "classify.txt"),
])
def test_output_matches_golden(tmp_path, argv, name):
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
