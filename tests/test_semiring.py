import itertools
import random

import pytest

from argsolve.semiring import (
    BOOLEAN,
    FUZZY,
    INF,
    PROBABILISTIC,
    WEIGHTED,
    Semiring,
    TagMismatchError,
    boolean_value,
    cost_value,
    format_value,
    make_instance,
    pair_value,
    unit_value,
)


def test_weighted_instance_shape():
    assert WEIGHTED.bottom == cost_value(INF)
    assert WEIGHTED.top == cost_value(0)
    assert WEIGHTED.plus(cost_value(3), cost_value(7)) == cost_value(3)
    assert WEIGHTED.times(cost_value(3), cost_value(7)) == cost_value(10)


def test_boolean_instance_shape():
    t, f = boolean_value(True), boolean_value(False)
    assert BOOLEAN.bottom == f and BOOLEAN.top == t
    assert BOOLEAN.plus(f, t) == t
    assert BOOLEAN.times(f, t) == f


def test_product_instance_componentwise():
    prod = make_instance("product", (WEIGHTED, FUZZY))
    a = pair_value(cost_value(3), unit_value(40))
    b = pair_value(cost_value(5), unit_value(70))
    assert prod.plus(a, b) == pair_value(cost_value(3), unit_value(70))
    assert prod.times(a, b) == pair_value(cost_value(8), unit_value(40))
    assert prod.top == pair_value(cost_value(0), unit_value(100))


def test_make_instance_rejects_bad_kinds():
    with pytest.raises(ValueError):
        make_instance("tropical")
    with pytest.raises(ValueError):
        make_instance("product")


def test_order_examples():
    # Lower cost is better: 9 is below 8 in the induced order.
    assert WEIGHTED.leq(cost_value(9), cost_value(8))
    assert not WEIGHTED.leq(cost_value(8), cost_value(9))
    assert WEIGHTED.gt(cost_value(8), cost_value(9))
    assert FUZZY.leq(unit_value(40), unit_value(60))
    for ring, x in [
        (WEIGHTED, cost_value(5)),
        (FUZZY, unit_value(5)),
        (BOOLEAN, boolean_value(True)),
    ]:
        assert ring.leq(ring.bottom, x)


def test_combine_examples():
    assert WEIGHTED.combine([cost_value(7), cost_value(8)]) == cost_value(15)
    assert WEIGHTED.combine([]) == WEIGHTED.top
    assert FUZZY.combine([unit_value(60), unit_value(40), unit_value(90)]) == unit_value(40)


def test_tag_mismatch_rejected():
    with pytest.raises(TagMismatchError):
        WEIGHTED.leq(unit_value(4), cost_value(4))
    with pytest.raises(TagMismatchError):
        FUZZY.combine([cost_value(4)])
    with pytest.raises(TagMismatchError):
        BOOLEAN.plus(boolean_value(True), cost_value(1))
    with pytest.raises(TagMismatchError):
        cost_value(-1)
    with pytest.raises(TagMismatchError):
        unit_value(101)


def test_format_value():
    assert format_value(cost_value(7)) == "7"
    assert format_value(cost_value(INF)) == "inf"
    assert format_value(unit_value(40)) == "0.40"
    assert format_value(unit_value(100)) == "1.00"
    assert format_value(unit_value(5)) == "0.05"
    assert format_value(boolean_value(True)) == "true"
    assert format_value(pair_value(cost_value(1), unit_value(2))) == "(1,0.02)"


def _axiom_errors(ring: Semiring, a, b, c, *, times_assoc: bool = True) -> list[str]:
    plus, times = ring.plus, ring.times
    top, bottom = ring.top, ring.bottom
    problems = []
    if plus(a, b) != plus(b, a):
        problems.append("plus commutativity")
    if times(a, b) != times(b, a):
        problems.append("times commutativity")
    if plus(plus(a, b), c) != plus(a, plus(b, c)):
        problems.append("plus associativity")
    if times_assoc and times(times(a, b), c) != times(a, times(b, c)):
        problems.append("times associativity")
    if plus(a, a) != a:
        problems.append("plus idempotence")
    if plus(a, bottom) != a or plus(a, top) != top:
        problems.append("plus identity/absorption")
    if times(a, top) != a or times(a, bottom) != bottom:
        problems.append("times identity/absorption")
    if times(a, plus(b, c)) != plus(times(a, b), times(a, c)):
        problems.append("distributivity")
    if ring.leq(a, b) and not ring.leq(times(a, c), times(b, c)):
        problems.append("times monotonicity")
    return problems


def _order_errors(ring: Semiring, a, b, c) -> list[str]:
    problems = []
    if not ring.leq(a, a):
        problems.append("reflexivity")
    if ring.leq(a, b) and ring.leq(b, a) and a != b:
        problems.append("antisymmetry")
    if ring.leq(a, b) and ring.leq(b, c) and not ring.leq(a, c):
        problems.append("transitivity")
    return problems


def test_boolean_axioms_exhaustive():
    values = [boolean_value(False), boolean_value(True)]
    for a, b, c in itertools.product(values, repeat=3):
        assert not _axiom_errors(BOOLEAN, a, b, c)
        assert not _order_errors(BOOLEAN, a, b, c)


def _unit_law_sweep(ring: Semiring, *, times_assoc: bool) -> None:
    """Exhaustive law check over the whole 0..100 domain.

    The binary operations are tabulated through the public API once;
    the ternary laws are then verified over the tables, which keeps the
    101^3 sweep affordable.
    """
    values = [unit_value(v) for v in range(101)]
    plus_t = [[ring.plus(a, b).payload for b in values] for a in values]
    times_t = [[ring.times(a, b).payload for b in values] for a in values]
    top, bottom = ring.top.payload, ring.bottom.payload
    domain = range(101)
    for a in domain:
        assert plus_t[a][a] == a
        assert plus_t[a][bottom] == a and plus_t[a][top] == top
        assert times_t[a][top] == a and times_t[a][bottom] == bottom
        for b in domain:
            assert plus_t[a][b] == plus_t[b][a]
            assert times_t[a][b] == times_t[b][a]
    for a in domain:
        plus_a, times_a = plus_t[a], times_t[a]
        for b in domain:
            plus_ab, times_ab = plus_a[b], times_a[b]
            plus_b, times_b = plus_t[b], times_t[b]
            for c in domain:
                assert plus_t[plus_ab][c] == plus_a[plus_b[c]]
                if times_assoc:
                    assert times_t[times_ab][c] == times_a[times_b[c]]
                assert times_a[plus_b[c]] == plus_t[times_ab][times_a[c]]
    # plus induces the numeric order here, and times must respect it.
    for a in domain:
        for b in domain:
            assert ring.leq(values[a], values[b]) == (a <= b)
            for c in domain:
                assert times_t[a][c] <= times_t[b][c] or a > b


def test_fuzzy_axioms_exhaustive():
    _unit_law_sweep(FUZZY, times_assoc=True)


def test_probabilistic_axioms_exhaustive_except_times_associativity():
    # Binary products are rounded half-up back to the hundredths grid,
    # so times is not exactly associative; every other law is exact.
    _unit_law_sweep(PROBABILISTIC, times_assoc=False)


def test_weighted_axioms_sampled():
    rng = random.Random(7)
    pool = [cost_value(rng.randrange(1000)) for _ in range(60)] + [
        cost_value(0),
        cost_value(INF),
    ]
    for _ in range(10_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert not _axiom_errors(WEIGHTED, a, b, c)
        assert not _order_errors(WEIGHTED, a, b, c)


def test_probabilistic_rounding_counterexample_is_frozen():
    # 0.06*0.25 rounds to 0.02 before the second factor, 0.25*0.25 to
    # 0.06; the two association orders land on different grid points.
    t = PROBABILISTIC.times
    a, b, c = unit_value(6), unit_value(25), unit_value(25)
    assert t(t(a, b), c) == unit_value(1)
    assert t(a, t(b, c)) == unit_value(0)


def test_probabilistic_times_examples():
    assert PROBABILISTIC.times(unit_value(50), unit_value(50)) == unit_value(25)
    assert PROBABILISTIC.times(unit_value(33), unit_value(33)) == unit_value(11)
    assert PROBABILISTIC.times(unit_value(10), unit_value(5)) == unit_value(1)


def test_product_axioms_sampled():
    prod = make_instance("product", (WEIGHTED, FUZZY))
    rng = random.Random(13)
    pool = [
        pair_value(cost_value(rng.randrange(50)), unit_value(rng.randrange(101)))
        for _ in range(40)
    ] + [prod.top, prod.bottom]
    for _ in range(5_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert not _axiom_errors(prod, a, b, c)
        assert not _order_errors(prod, a, b, c)


def test_product_order_is_partial():
    prod = make_instance("product", (WEIGHTED, FUZZY))
    a = pair_value(cost_value(1), unit_value(10))
    b = pair_value(cost_value(2), unit_value(90))
    assert not prod.leq(a, b) and not prod.leq(b, a)


def test_unchecked_operations_match_the_public_ones():
    product = make_instance("product", (WEIGHTED, FUZZY))
    samples = {
        BOOLEAN: [boolean_value(False), boolean_value(True)],
        WEIGHTED: [cost_value(v) for v in (0, 1, 7, 8, INF)],
        FUZZY: [unit_value(v) for v in (0, 33, 50, 100)],
        PROBABILISTIC: [unit_value(v) for v in (0, 33, 50, 100)],
        product: [pair_value(cost_value(c), unit_value(u)) for c in (0, 3, INF) for u in (0, 40, 100)],
    }
    for ring, values in samples.items():
        for a, b in itertools.product(values, repeat=2):
            assert ring._plus(a, b) == ring.plus(a, b)
            assert ring._times(a, b) == ring.times(a, b)
            # The order is the one induced by plus.
            assert ring.leq(a, b) == (ring.plus(a, b) == b)
            assert ring.lt(a, b) == (a != b and ring.plus(a, b) == b)
    assert [ring.associative for ring in samples] == [True, True, True, False, True]
    assert not make_instance("product", (WEIGHTED, PROBABILISTIC)).associative
