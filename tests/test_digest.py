"""The tree DP's behaviour digest (``digest.py``) on each family's quick
slice: optimal sizes, witnesses and memo-key totals as committed in
``digest.json``, and every witness consistent.  CI checks the whole set with ``tests/digest.py``."""

import pytest

import digest

EXPECTED = digest.expected()


@pytest.mark.parametrize("name", list(digest.FAMILIES))
def test_quick_slice_matches_the_committed_digest(name):
    quick = digest.FAMILIES[name][2]
    assert digest.family_digests(name, [quick]) == [EXPECTED[name]["quick"]]


def test_every_family_is_committed():
    assert set(EXPECTED) == set(digest.FAMILIES)
