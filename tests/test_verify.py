from lineargames import verify


def test_self_dual_listing_is_checked(monkeypatch):
    """A game listed as self-dual but not self-dual fails a check; it does
    not raise, and the check survives `python -O`."""
    listed = verify.NON_SIMPLEX_5_SELF_DUAL + ["<541;5321>"]
    monkeypatch.setattr(verify, "NON_SIMPLEX_5_SELF_DUAL", listed)
    checks = verify.suite_facet_law(5)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert len(failed) == 1
    name, detail = failed[0]
    assert name.startswith("non-simplex 5-voter census")
    assert "<541;5321>" in detail
