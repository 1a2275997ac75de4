"""The exact routes against the path-sum reference and each other, on random exact sources."""

import random

from shancode import classify_mode, classify_structure, oracle
from shancode.asymptotics import prediction_columns
from tests.conftest import (decimal_path_reference, float_copy, monte_carlo_reference, period2_source,
                            random_exact_source, random_order_source)

# largest n checked against the path sum, by r: the sum holds up to r^n paths at n
REFERENCE_N = {1: 9, 2: 9, 3: 8}
# Monte Carlo against the exact value: block length, samples and the Philox key of its stream
MC_N, MC_SAMPLES, MC_SEED = 8, 2000, 7


def check_routes(source) -> str:
    """Check lattice_dp, and lifted_chain where classify_mode says oscillatory; return the source's mode.

    Both must be within 1e-13 of decimal_path_reference at n = 1..REFERENCE_N[r],
    and the lifted chain within 1e-11 of the DP at n = 60.  At order M = 1 the
    lifted chain's value at n = 400 must lie in the sandwich [lower, upper] of
    prediction_columns, within 1e-15.
    """
    hi = REFERENCE_N[source.r]
    want = [float(decimal_path_reference(source, n)) for n in range(1, hi + 1)]
    cls = classify_mode(source) if classify_structure(source).irreducible else None
    routes = {"lattice_dp": oracle.lattice_dp(source, 1, hi)}
    if cls is not None and cls.mode == "oscillatory":
        routes["lifted_chain"] = oracle.lifted_chain(source, cls, 1, hi)
        far = oracle.lifted_chain(source, cls, 60, 60)[0].value
        assert abs(far - oracle.lattice_dp(source, 60, 60)[0].value) <= 1e-11, source.to_dict()
        if cls.M == 1:
            cols = prediction_columns(source, cls, 400, 400)
            value = oracle.lifted_chain(source, cls, 400, 400)[0].value
            assert cols.lower[0] - 1e-15 <= value <= cols.upper[0] + 1e-15, source.to_dict()
    for name, rows in routes.items():
        for rec, value in zip(rows, want, strict=True):
            assert abs(rec.value - value) <= 1e-13, (name, rec.n, source.to_dict())
    return cls.mode if cls is not None else "reducible"


def test_exact_routes_agree_on_random_sources():
    rng = random.Random(0)
    modes = [check_routes(random_exact_source(rng)) for _ in range(200)]
    assert all(modes.count(mode) >= 50 for mode in ("oscillatory", "convergent", "reducible")), modes


def test_exact_routes_agree_at_orders_above_one(m2_source):
    # a rational-probability source has order M = 1, where every edge lift is 0 mod M;
    # these lift edges to nonzero z, through power-of-two exponents that are not integers
    for source in (m2_source, *(period2_source(M) for M in (2, 3, 5, 67))):
        cls = classify_mode(source)
        assert cls.mode == "oscillatory" and cls.M > 1
        check_routes(source)


def test_exact_routes_agree_on_random_orders_above_one():
    # every random_order_source has order M = q > 1; the period-2 ones of order 3
    # or more lift their return edges by (g_e/d) i with i, the unit shift, nonzero
    rng = random.Random(0)
    sources = [random_order_source(rng) for _ in range(24)]
    shapes = [(classify_structure(s).period, classify_mode(s).M) for s in sources]
    assert [check_routes(s) for s in sources] == ["oscillatory"] * len(sources)
    assert all(M > 1 for _, M in shapes) and any(d == 1 for d, _ in shapes), shapes
    assert sum(d == 2 and M >= 3 for d, M in shapes) >= 3, shapes


def test_monte_carlo_within_five_stderr_on_random_sources():
    # the third route: on each generated source and on its float copy, Monte Carlo at one
    # Philox key (monte_carlo_reference's draws, bit for bit) lies within 5 standard errors
    # of the exact R_n; where every sample has the same rho the stderr is 0 and the two
    # agree to float noise
    rng = random.Random(0)
    sources = [random_exact_source(rng) for _ in range(200)] + [random_order_source(rng) for _ in range(24)]
    assert oracle.monte_carlo_redundancy(sources[0], MC_N, 50, MC_SEED) == monte_carlo_reference(
        sources[0], MC_N, 50, MC_SEED)
    for source in sources:
        for s in (source, float_copy(source)):
            exact = oracle.exact_redundancy(s, MC_N).value
            mc = oracle.monte_carlo_redundancy(s, MC_N, MC_SAMPLES, MC_SEED)
            assert abs(mc.value - exact) <= 5 * mc.stderr + 1e-12, (exact, mc, s.to_dict())
