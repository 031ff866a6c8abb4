from fracstep.properties import run_property_suite


def test_full_suite_passes_default_seed():
    results = run_property_suite()
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed properties: {failed}"


def test_suite_is_seed_deterministic():
    first = run_property_suite(seed=7)
    second = run_property_suite(seed=7)
    assert [(r.name, r.passed, r.detail) for r in first] == \
        [(r.name, r.passed, r.detail) for r in second]


def test_tampered_gamma_is_detected(tampered_gamma):
    # corrupting the gamma constant must break the oracle cross-checks; the
    # coercivity pairing consults the quadrature oracle, which does not use
    # the package gamma, so the corruption cannot cancel out
    with tampered_gamma(1e-4):
        results = {r.name: r for r in run_property_suite(seed=3)}
    assert not results["coercivity-pairing"].passed
    assert not results["closed-forms-vs-oracle"].passed
    # and the suite recovers once the corruption is removed
    clean = {r.name: r for r in run_property_suite(seed=3)}
    assert clean["coercivity-pairing"].passed
