"""Every deterministic front-end output still hashes to its golden digest.

The digests in ``tests/golden/digests.json`` were taken from the program as it
stood; a refactor that changes no behaviour keeps them all.  See
``tests/golden/regen.py`` for the outputs covered and how to rewrite them.
"""

import json

import pytest

from golden.regen import CASES, DIGESTS, case_outputs, digest

GOLDEN = json.loads(DIGESTS.read_text())


def test_every_case_has_golden_digests():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden_digest(case, tmp_path):
    actual = {name: digest(text) for name, text in case_outputs(case, tmp_path).items()}
    differing = sorted(name for name in GOLDEN[case] if actual.get(name) != GOLDEN[case][name])
    assert not differing, f"{case}: outputs differ from golden: {differing}"
    assert sorted(actual) == sorted(GOLDEN[case])
