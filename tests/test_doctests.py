"""Run the doctests embedded in public-API docstrings."""

import doctest

import pytest

import repro.bc.api
import repro.bc.policies
import repro.verify


@pytest.mark.parametrize("module", [repro.bc.api, repro.bc.policies,
                                    repro.verify])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its doctests"
    assert result.failed == 0
