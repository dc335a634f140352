"""Values, witnesses and CLI artifacts against the committed digests."""

from __future__ import annotations

import exactness


def test_every_case_keeps_its_digest(tmp_path):
    expected = exactness.read_digests()
    actual = exactness.digests(tmp_path)
    first = next((f"{name}: {got} != {want}" for (name, got), (_, want)
                  in zip(actual, expected) if got != want), None)
    assert first is None, f"first differing case: {first}"
    assert [name for name, _ in actual] == [name for name, _ in expected]
