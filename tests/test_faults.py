"""The fault map's edits (``tests/faults.py``) still apply to the source."""

from faults import FAULTS, ROOT


def test_every_fault_edits_one_place_in_an_existing_file():
    # a refactor that moves or rewrites a faulted text fails here, instead of
    # the map silently losing that fault
    names = [name for name, *_ in FAULTS]
    assert len(set(names)) == len(names)
    for name, path, old, new in FAULTS:
        assert (ROOT / path).is_file(), name
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, name
        assert new != old, name
