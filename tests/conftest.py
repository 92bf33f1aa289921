"""Fixtures shared by the test modules."""
import json
from functools import partial

import pytest


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


@pytest.fixture
def strict_json():
    """``json.loads`` that rejects NaN, Infinity and -Infinity, as RFC 8259 does.

    Python's parser accepts those tokens; strict parsers in other languages
    do not, so CLI output is parsed with this.
    """
    return partial(json.loads, parse_constant=_reject_constant)
