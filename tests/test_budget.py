import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from focktomo.budget import (
    AgreementCheck,
    BudgetResult,
    EfficiencyFactor,
    check_agreement,
    combine,
    default_factors,
    format_budget,
    load_factors,
    parse_budget,
    parse_factors,
)
from focktomo.errors import DatasetFormatError, ValidationError
from focktomo.report import merge_reports

# 0.83^2 * 0.95 * 0.90 * 0.98 and its first-order error, computed by hand
ETA_PREDICTED = 0.57722931
ETA_UNCERTAINTY = 0.0139091401


def test_combine_default_factors_frozen():
    result = combine(default_factors())
    assert result.eta_predicted == pytest.approx(ETA_PREDICTED, abs=1e-10)
    assert result.eta_uncertainty == pytest.approx(ETA_UNCERTAINTY, abs=1e-8)
    assert result.n_factors == 4


def test_visibility_squared_semantics():
    result = combine([EfficiencyFactor("vis", 0.83, 0.01, "visibility_squared")])
    assert result.eta_predicted == pytest.approx(0.6889, abs=1e-12)
    assert result.eta_uncertainty == pytest.approx(0.0166, abs=1e-12)


def test_single_direct_factor_passthrough():
    result = combine([EfficiencyFactor("only", 0.75, 0.05)])
    assert result.eta_predicted == 0.75
    assert result.eta_uncertainty == pytest.approx(0.05, abs=1e-12)


@given(st.lists(st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                min_size=1, max_size=6))
def test_combine_product_stays_in_unit_interval(values):
    factors = [EfficiencyFactor(f"f{i}", v) for i, v in enumerate(values)]
    result = combine(factors)
    assert 0.0 < result.eta_predicted <= 1.0
    assert result.eta_uncertainty == 0.0


@given(st.lists(st.tuples(st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                          st.floats(min_value=0.0, max_value=0.1, allow_nan=False)),
                min_size=2, max_size=5),
       st.randoms())
def test_combine_order_invariance(pairs, rnd):
    factors = [EfficiencyFactor(f"f{i}", v, u) for i, (v, u) in enumerate(pairs)]
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    a = combine(factors)
    b = combine(shuffled)
    assert a.eta_predicted == pytest.approx(b.eta_predicted, rel=1e-12)
    assert a.eta_uncertainty == pytest.approx(b.eta_uncertainty, rel=1e-12, abs=1e-15)


@given(st.floats(min_value=0.05, max_value=0.999, allow_nan=False))
def test_adding_lossy_factor_decreases_prediction(value):
    base = combine(default_factors())
    extended = combine(default_factors() + [EfficiencyFactor("extra", value)])
    assert extended.eta_predicted < base.eta_predicted


def test_agreement_with_reference_fit():
    result = combine(default_factors())
    check = check_agreement(result, eta_fitted=0.553, eta_fitted_stderr=0.013)
    assert isinstance(check, AgreementCheck)
    assert check.passed
    assert check.difference == pytest.approx(abs(ETA_PREDICTED - 0.553), abs=1e-9)
    expected_tol = 2.0 * np.hypot(ETA_UNCERTAINTY, 0.013)
    assert check.tolerance == pytest.approx(expected_tol, abs=1e-9)


def test_agreement_fails_for_distant_fit():
    result = combine(default_factors())
    assert not check_agreement(result, eta_fitted=0.30, eta_fitted_stderr=0.013).passed


def test_agreement_validation():
    result = BudgetResult(eta_predicted=0.5, eta_uncertainty=0.01, n_factors=1)
    with pytest.raises(ValidationError):
        check_agreement(result, eta_fitted=1.2, eta_fitted_stderr=0.01)
    with pytest.raises(ValidationError):
        check_agreement(result, eta_fitted=0.5, eta_fitted_stderr=-0.01)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="eta_fitted_stderr"):
            check_agreement(result, eta_fitted=0.5, eta_fitted_stderr=bad)
    # each sigma is finite, but 2 * hypot of them overflows
    huge = BudgetResult(eta_predicted=0.5, eta_uncertainty=1.5e308, n_factors=1)
    with pytest.raises(ValidationError, match="agreement tolerance"):
        check_agreement(huge, eta_fitted=0.5, eta_fitted_stderr=0.01)


def test_factor_validation():
    with pytest.raises(ValidationError):
        EfficiencyFactor("bad", 0.0)
    with pytest.raises(ValidationError):
        EfficiencyFactor("bad", 1.1)
    with pytest.raises(ValidationError):
        EfficiencyFactor("bad", 0.5, -0.1)
    with pytest.raises(ValidationError):
        EfficiencyFactor("bad", 0.5, 0.0, "squared")
    with pytest.raises(ValidationError):
        EfficiencyFactor("", 0.5)
    # a name that would rewrite the budget file it is written to
    with pytest.raises(ValidationError, match="factor name"):
        EfficiencyFactor("x\neta_predicted=0.9\n#", 0.5)


@given(st.text(min_size=1))
def test_a_factor_name_reads_back_or_is_refused(name):
    # a name is one field of a table row: no whitespace, and no '#' comment
    try:
        factor = EfficiencyFactor(name, 0.5, 0.01, "visibility_squared")
    except ValidationError:
        return
    assert parse_factors(f"{factor.name} 0.5 0.01 visibility_squared") == [factor]


_FACTORS = st.lists(st.builds(EfficiencyFactor, st.just("f"),
                              st.floats(min_value=1e-320, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1e308),
                              st.sampled_from(["direct", "visibility_squared"])),
                    min_size=1, max_size=4)


@given(_FACTORS)
def test_what_combine_returns_the_budget_file_reads_back(factors):
    # a product that underflows, or a sigma that overflows, is refused
    # before anything is written
    try:
        result = combine(factors)
    except ValidationError as exc:
        assert "budget needs" in str(exc)
        return
    assert parse_budget(format_budget(result, factors)) == result


def test_format_budget_refuses_what_parse_budget_would():
    with pytest.raises(ValidationError, match="budget needs"):
        format_budget(BudgetResult(eta_predicted=0.0, eta_uncertainty=0.0, n_factors=0), [])


def test_combine_requires_factors():
    with pytest.raises(ValidationError):
        combine([])


def test_parse_factors_roundtrip():
    text = """
    # comment line
    vis 0.83 0.01 visibility_squared

    filter 0.95 0 direct  # trailing comment
    """
    factors = parse_factors(text)
    assert len(factors) == 2
    assert factors[0].kind == "visibility_squared"
    assert factors[1].value == 0.95


def test_parse_factors_errors():
    with pytest.raises(ValidationError):
        parse_factors("vis 0.83 0.01")  # missing kind
    with pytest.raises(ValidationError):
        parse_factors("vis abc 0.01 direct")
    with pytest.raises(ValidationError):
        parse_factors("vis 0.83 0.01 bogus_kind")
    with pytest.raises(ValidationError):
        parse_factors("# only comments\n\n")


def test_load_factors(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("a 0.9 0 direct\nb 0.8 0.02 visibility_squared\n")
    factors = load_factors(path)
    assert [f.name for f in factors] == ["a", "b"]
    assert combine(factors).eta_predicted == pytest.approx(0.9 * 0.64, rel=1e-12)


def test_parse_budget_rejects_non_integer_version():
    text = "budget_format_version=x\neta_predicted=0.5\neta_uncertainty=0.01\n"
    with pytest.raises(DatasetFormatError, match="budget_format_version"):
        parse_budget(text)


def test_merge_reports_rejects_non_object_report():
    with pytest.raises(ValidationError, match="JSON object"):
        merge_reports([1, 2, 3], None)
    with pytest.raises(ValidationError, match="section 'efficiency'"):
        merge_reports({"report_version": 1, "efficiency": [0.5]}, None)


_BUDGET = "budget_format_version=1\neta_predicted=0.5\neta_uncertainty=0.01\nn_factors=2\n"


def test_parse_budget_accepts_trailing_comments():
    text = _BUDGET.replace("eta_uncertainty=0.01", "eta_uncertainty=0.01  # from the bench")
    assert parse_budget(text) == BudgetResult(eta_predicted=0.5, eta_uncertainty=0.01,
                                             n_factors=2)


@pytest.mark.parametrize("key,value", [
    ("eta_predicted", "nan"), ("eta_predicted", "inf"), ("eta_predicted", "0"),
    ("eta_predicted", "1.5"), ("eta_predicted", "-0.2"),
    ("eta_uncertainty", "nan"), ("eta_uncertainty", "inf"), ("eta_uncertainty", "-1"),
    ("n_factors", "-1"),
])
def test_parse_budget_rejects_out_of_range_values(key, value):
    text = "".join(f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
                   for line in _BUDGET.splitlines())
    with pytest.raises(DatasetFormatError, match="budget needs"):
        parse_budget(text)


def test_parse_budget_rejects_empty_key_and_missing_value():
    with pytest.raises(DatasetFormatError, match="line 5: malformed budget line"):
        parse_budget(_BUDGET + "=0.3\n")
    with pytest.raises(DatasetFormatError, match="eta_uncertainty"):
        parse_budget("budget_format_version=1\neta_predicted=0.5\n")
