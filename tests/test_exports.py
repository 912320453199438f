"""The package's public names: a stale or doubled entry in `__all__`
would otherwise surface only when `from curvepart import *` fails."""

import curvepart


def test_all_names_resolve():
    missing = [name for name in curvepart.__all__
               if not hasattr(curvepart, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(curvepart.__all__)) == len(curvepart.__all__)
