import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrystal.arith import (
    ConstraintConflictError,
    SampleSpec,
    draw_pairs,
    fraction_point,
    product,
    rat,
    sample_point,
    sample_points,
)


def test_rat_ops_examples():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 3) * rat(3, 2) == 1
    assert rat(5, 7) ** (-2) == rat(49, 25)
    assert rat(7, -14) == rat(-1, 2)  # normalized, positive denominator


def test_lowest_terms_and_compare():
    x = rat(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert rat(1, 3) < rat(1, 2) < rat(2, 3)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0, 5)


def test_field_axioms_on_sampled_triples():
    spec = SampleSpec(("a", "b", "c"), seed=42)
    for point in sample_points(spec, 1000):
        a, b, c = point["a"], point["b"], point["c"]
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@given(rationals, rationals)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


def test_sample_point_reproducible():
    spec = SampleSpec(("x", "y", "z"), positive=True, seed=123)
    assert sample_point(spec) == sample_point(spec)
    assert sample_points(spec, 5) == sample_points(spec, 5)
    other = sample_point(dataclasses.replace(spec, seed=124))
    assert other != sample_point(spec)


def test_product_constraint_two_variables():
    spec = SampleSpec(
        ("l1", "l2"), positive=True, constraints=((("l1", "l2"), rat(4)),), seed=7
    )
    point = sample_point(spec)
    assert point["l1"] * point["l2"] == 4
    assert point["l1"] > 0 and point["l2"] > 0


def test_product_constraint_three_variables():
    spec = SampleSpec(
        ("l1", "l2", "l3"),
        positive=True,
        constraints=((("l1", "l2", "l3"), rat(8)),),
        seed=11,
    )
    for point in sample_points(spec, 50):
        # oracle: multiply the three returned values
        assert point["l1"] * point["l2"] * point["l3"] == 8


def test_unconstrained_sample_is_nonzero():
    spec = SampleSpec(("x",), seed=1)
    for point in sample_points(spec, 200):
        assert point["x"] != 0


def test_two_disjoint_constraints():
    spec = SampleSpec(
        ("a", "b", "c", "d"),
        positive=True,
        constraints=((("a", "b"), rat(4)), (("c", "d"), rat(9))),
        seed=3,
    )
    point = sample_point(spec)
    assert point["a"] * point["b"] == 4
    assert point["c"] * point["d"] == 9


def test_overlapping_constraints_rejected():
    with pytest.raises(ConstraintConflictError):
        SampleSpec(
            ("a", "b", "c"),
            constraints=((("a", "b"), rat(4)), (("b", "c"), rat(9))),
        )


def test_duplicate_identical_constraint_tolerated():
    spec = SampleSpec(
        ("a", "b"),
        constraints=((("a", "b"), rat(4)), (("a", "b"), rat(4))),
        seed=5,
    )
    point = sample_point(spec)
    assert point["a"] * point["b"] == 4


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        SampleSpec(("a", "a"))
    with pytest.raises(ValueError):
        SampleSpec(("a",), constraints=((("a", "b"), rat(1)),))
    with pytest.raises(ValueError):
        SampleSpec(("a",), constraints=((("a",), rat(0)),))
    with pytest.raises(ValueError):
        SampleSpec(("a",), magnitude=0)


def test_magnitude_bound_respected():
    spec = SampleSpec(("x",), magnitude=10, seed=9)
    for point in sample_points(spec, 100):
        assert abs(point["x"].numerator) <= 10 * 10  # value of num/den with both <= 10
        assert point["x"].denominator <= 10


def test_product_helper():
    assert product([rat(1, 2), rat(4), rat(1, 2)]) == 1
    assert product([]) == 1


def test_constraint_subset_repeating_a_name_rejected():
    with pytest.raises(ValueError):
        SampleSpec(("a", "b"), constraints=((("a", "a"), rat(4)),))


def test_empty_constraint_subset_rejected():
    with pytest.raises(ValueError):
        SampleSpec(("a",), constraints=(((), rat(4)),))


def test_boolean_magnitude_rejected():
    with pytest.raises(ValueError):
        SampleSpec(("a",), magnitude=True)


def test_fractional_magnitude_rejected():
    with pytest.raises(ValueError):
        SampleSpec(("a",), magnitude=2.5)


def _randint_sample_point(spec, rng):
    """The sampler as it was written with ``randint``: the oracle of the rng stream."""

    def random_rational():
        num = rng.randint(1, spec.magnitude)
        den = rng.randint(1, spec.magnitude)
        if not spec.positive and rng.random() < 0.5:
            num = -num
        return Fraction(num, den)

    out = {}
    solved = {subset[-1]: (subset, target) for subset, target in spec.constraints}
    for name in spec.variables:
        if name not in solved:
            out[name] = random_rational()
    for last, (subset, target) in solved.items():
        out[last] = target / product(out[v] for v in subset[:-1])
    return {name: out[name] for name in spec.variables}


_STREAM_SPECS = {
    "positive": dict(variables=("x", "y", "z"), positive=True),
    "signed": dict(variables=("x", "y")),
    # the solved name comes first, and one constraint is a single variable
    "constrained": dict(
        variables=("a", "b", "c", "d", "s1"),
        constraints=((("b", "c", "a"), rat(-7, 3)), (("d",), rat(5, 2))),
    ),
    "constrained-positive": dict(
        variables=("l1", "l2", "l3", "s1"), positive=True, constraints=((("l1", "l2", "l3"), rat(4)),)
    ),
}


@pytest.mark.parametrize("magnitude", [1, 2, 1000, 1024, 1025])
@pytest.mark.parametrize("kind", list(_STREAM_SPECS))
def test_sampler_keeps_the_randint_stream(kind, magnitude):
    spec = SampleSpec(**_STREAM_SPECS[kind], magnitude=magnitude, seed=17)
    new, old = random.Random(spec.seed), random.Random(spec.seed)
    for _ in range(300):
        point, expected = sample_point(spec, new), _randint_sample_point(spec, old)
        assert point == expected
        assert list(point) == list(expected) == list(spec.variables)
        assert all(type(v) is Fraction for v in point.values())
    assert new.random() == old.random()  # both consumed the same draws


def test_drawn_pairs_are_the_sampled_values():
    spec = SampleSpec(**_STREAM_SPECS["constrained"], seed=5)
    drawn, sampled = random.Random(spec.seed), random.Random(spec.seed)
    for _ in range(50):
        pairs = draw_pairs(spec, drawn)
        assert list(pairs) == list(spec.variables)
        assert all(den != 0 for _, den in pairs.values())
        assert fraction_point(pairs) == sample_point(spec, sampled)
