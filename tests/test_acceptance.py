"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete, or use the ``signotopes selftest`` subcommand.
"""

import hashlib
import json

import pytest

from signotopes.acceptance import CRITERIA, run_criteria

# sha256 of json.dumps(details, sort_keys=True) per criterion; the details
# carry no timings, so any change to them shows here.
DETAILS_SHA256 = {
    1: "a0976339cc342aee4c4255829e10eed8610e17770d42ccfdfabab8360cde3267",
    2: "0447b2f20413508c7fcdb6d23b444b74e391922e7670c5dfe456c1b0aafbe271",
    3: "2c651026154d9e64b55094321905fa9c504c7fb7701b907fd508d5aaa1bb2ff5",
    4: "9dc12a58d9ce5d862ce997f09de163be674a4dcaa0ecd329e0ea8d6a697cc702",
    5: "4dd5a6b3936a4c936380d289907aee824294e66e093349f27b111eb988ba0e25",
    6: "6ae6c03423298916f91f9020f884230152b47963927fc691b7c43e158e7005e4",
    7: "4407d85aab483f4aa155a33166c2a6813233a0f85be93e77591005d7671b6fb6",
    8: "4af5a486a9c7a4f4f744e691c714d93273a77750f018afc273d844270c9c87f5",
    9: "ab7049fbcb123b4e679107f2d4fa408fb44a03967095693c9ee1b7cee457a785",
}


@pytest.mark.parametrize(
    "cid,title", [c[:2] for c in CRITERIA],
    ids=[f"criterion_{c[0]}_{c[1].replace(' ', '_')}" for c in CRITERIA],
)
def test_criterion(cid, title):
    [result] = run_criteria(only=cid)
    assert result.passed, (
        f"criterion {cid} ({title}) failed:\n{json.dumps(result.details, indent=2, default=str)}"
    )
    digest = hashlib.sha256(json.dumps(result.details, sort_keys=True).encode()).hexdigest()
    assert digest == DETAILS_SHA256[cid], f"criterion {cid} details changed"
