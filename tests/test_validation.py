from dualnewton.validation import run_validation


def test_report_schema_and_outcome():
    report = run_validation()
    assert set(report) == {"passed", "checks"}
    assert report["passed"] is True
    assert len(report["checks"]) >= 10
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "residual", "tolerance"}
        assert isinstance(check["name"], str)
        assert isinstance(check["passed"], bool)
        assert check["residual"] >= 0.0
        assert check["tolerance"] > 0.0
        assert check["passed"] == (check["residual"] < check["tolerance"]) or (
            check["name"] == "regularization_separates_newton_from_natural_gradient"
        )


def test_names_are_unique():
    report = run_validation()
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))


def test_the_certificate_is_the_curvature_along_each_models_retraction():
    checks = {c["name"]: c for c in run_validation()["checks"]}
    for model in ("gaussian", "loglinear", "beta_mixture"):
        check = checks["certificate_is_curvature_along_retraction_" + model]
        assert check["passed"], check
