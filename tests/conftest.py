import warnings

import pytest


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # On a failing property test hypothesis' own report hook imports libcst,
    # whose import warns that mypy_extensions.TypedDict is deprecated; under
    # filterwarnings = error that warning would abort the whole session
    # instead of failing the one test.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning,
        )
        yield
