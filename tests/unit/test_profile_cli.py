"""Unit tests for the cProfile entry point's argument parsing."""

from __future__ import annotations

import pytest

from repro.noc.profile import _parse_args


@pytest.mark.parametrize("key", ["tottime", "cumtime", "ncalls", "cumulative"])
def test_sort_accepts_pstats_keys(key):
    assert _parse_args(["--sort", key]).sort == key


def test_sort_rejects_unknown_key():
    with pytest.raises(SystemExit) as exc:
        _parse_args(["--sort", "no_such_key"])
    assert exc.value.code == 2
