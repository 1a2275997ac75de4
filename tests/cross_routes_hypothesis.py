"""The checks of test_cross_routes on exact sources that hypothesis draws from the same generators.

Every drawn oscillatory source's edge lifts are also checked against the
edge congruence in Fractions (test_asymptotics.check_lifts).

Its name does not match test_*.py, so the default test run does not collect
it; run it on its own:

    PYTHONPATH=src python -m pytest -q tests/cross_routes_hypothesis.py
"""

from hypothesis import given, settings, strategies as st

from shancode import classify_mode
from tests.conftest import random_exact_source, random_order_source
from tests.test_asymptotics import check_lifts
from tests.test_cross_routes import check_routes


@settings(max_examples=1000, deadline=None)
@given(st.randoms(use_true_random=False))
def test_exact_routes_agree_on_drawn_sources(rng):
    source = random_exact_source(rng)
    if check_routes(source) == "oscillatory":
        check_lifts(source, classify_mode(source))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_exact_routes_agree_on_drawn_orders_above_one(rng):
    source = random_order_source(rng)
    assert check_routes(source) == "oscillatory"
    check_lifts(source, classify_mode(source))
