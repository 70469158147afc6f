"""Each exception's category: the one place a guard learns what it means."""

import pytest

import dualnewton
from dualnewton import errors
from dualnewton.errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainError,
    DomainViolation,
    DualNewtonError,
    InsufficientIterations,
    LineSearchFailure,
    MomentInfeasible,
    NonFiniteValue,
    NotPositiveDefinite,
    NumericalError,
    PointError,
    QuadratureUnderflow,
    SingularMatrix,
)

# each concrete exception and the category a guard reads: a point
# outside the model, a point where the arithmetic degenerates, or none
CATEGORIES = {
    DomainViolation: DomainError,
    DivergenceUndefined: DomainError,
    QuadratureUnderflow: DomainError,
    MomentInfeasible: DomainError,
    NonFiniteValue: NumericalError,
    NotPositiveDefinite: NumericalError,
    SingularMatrix: NumericalError,
    DimensionMismatch: None,
    LineSearchFailure: None,
    InsufficientIterations: None,
}


@pytest.mark.parametrize("error", CATEGORIES, ids=lambda error: error.__name__)
def test_each_exception_has_one_category(error):
    category = CATEGORIES[error]
    assert issubclass(error, DualNewtonError)
    assert issubclass(error, PointError) == (category is not None)
    assert issubclass(error, DomainError) == (category is DomainError)
    assert issubclass(error, NumericalError) == (category is NumericalError)


def test_the_table_names_every_exception_of_the_package():
    defined = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, DualNewtonError)
    }
    categories = {DualNewtonError, PointError, DomainError, NumericalError}
    assert defined == set(CATEGORIES) | categories


def test_the_package_exports_the_categories():
    for category in (PointError, DomainError, NumericalError):
        assert getattr(dualnewton, category.__name__) is category
        assert category.__name__ in dualnewton.__all__
