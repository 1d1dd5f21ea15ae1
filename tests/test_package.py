import nicsieve


def test_exports_resolve_and_are_listed_once():
    names = nicsieve.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nicsieve, name)]
    assert missing == []
