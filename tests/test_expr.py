from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrystal.arith import SampleSpec, rat
from gcrystal.expr import (
    ADD,
    Add,
    Const,
    Div,
    EvalDomainError,
    ExprError,
    Mul,
    ParseError,
    Pow,
    Sub,
    UnboundVariableError,
    Var,
    add,
    TropicalizationError,
    certify_subtraction_free,
    compile_program,
    const,
    div,
    evaluate,
    free_variables,
    from_json,
    identical_on_domain,
    mul,
    pair_witness,
    parse,
    pow_,
    pretty,
    reference_evaluate,
    rename_variables,
    run,
    run_columns,
    run_maxplus,
    run_pairs,
    run_reduced,
    sub,
    substitute,
    to_json,
    tree_program,
    vanishes_on_domain,
    var,
)

# --- parsing -------------------------------------------------------------------


def test_parse_sum_of_products():
    assert parse("l1*l2 + m1/l1") == Add(
        Mul(Var("l1"), Var("l2")), Div(Var("m1"), Var("l1"))
    )


def test_parse_parenthesized_difference():
    assert parse("(c-1)/e1") == Div(Sub(Var("c"), Const(Fraction(1))), Var("e1"))


def test_parse_left_associative_chain():
    assert parse("l2*l3*l4") == Mul(Mul(Var("l2"), Var("l3")), Var("l4"))
    assert parse("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))


def test_parse_precedence():
    assert parse("a + b*c") == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse("a*b^2") == Mul(Var("a"), Pow(Var("b"), 2))
    assert parse("x^-2") == Pow(Var("x"), -2)
    assert parse("x^(-2)") == Pow(Var("x"), -2)


def test_parse_rational_literals_fold():
    assert parse("5/7") == Const(Fraction(5, 7))
    assert parse("(5/7)^(-2)") == Const(Fraction(49, 25))
    assert parse("-3") == Const(Fraction(-3))


def test_parse_dotted_identifiers():
    assert parse("l1.x * l1.y") == Mul(Var("l1.x"), Var("l1.y"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("a + ")
    assert info.value.line == 1 and info.value.column == 5
    with pytest.raises(ParseError):
        parse("(a + b")
    with pytest.raises(ParseError):
        parse("a b")


def test_zero_literal_rejected():
    with pytest.raises(ParseError):
        parse("0")
    with pytest.raises(ParseError):
        parse("x + 0*y")
    with pytest.raises(ExprError):
        const(0)


# --- evaluation ------------------------------------------------------------------


def test_evaluate_product():
    assert evaluate(parse("l1*l2"), {"l1": rat(2), "l2": rat(3)}) == 6


def test_evaluate_two_block_star_formula():
    # eps*_{12} written out over free symbols e1, e2, e12
    expr = parse("e1*e2 - e12")
    assert evaluate(expr, {"e1": rat(3), "e2": rat(4), "e12": rat(5)}) == 7


def test_evaluate_self_quotient():
    assert evaluate(parse("x/x"), {"x": rat(5, 3)}) == 1


def test_evaluate_pole_and_unbound():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(x - x)"), {"x": rat(2)})
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^-1"), {"x": Fraction(0)})
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": rat(1)})


def test_operator_overloads_match_constructors():
    x, y = var("x"), var("y")
    assert x + y == parse("x + y")
    assert x - 1 == parse("x - 1")
    assert 2 * x == parse("2*x")
    assert x / y == parse("x/y")
    assert x**3 == parse("x^3")


# --- identity testing ---------------------------------------------------------------


def test_identity_binomial_square():
    spec = SampleSpec(("x", "y"), seed=2)
    verdict = identical_on_domain(parse("(x+y)^2"), parse("x^2 + 2*x*y + y^2"), spec, 100)
    assert verdict.ok and verdict.witness is None


def test_identity_mismatch_gives_counterexample():
    spec = SampleSpec(("x", "y"), seed=3)
    verdict = identical_on_domain(parse("x*y"), parse("x+y"), spec, 100)
    assert not verdict.ok
    assert 1 <= verdict.trials <= 100  # the index of the failing point
    point = verdict.witness["point"]
    assert point["x"] * point["y"] == verdict.witness["lhs"]
    assert point["x"] + point["y"] == verdict.witness["rhs"]


def test_identity_three_block_star_expansion():
    # partition-sum machinery over free symbols reproduces the explicit
    # four-term expansion of the starred three-interval entry
    from gcrystal.epsilon import eps_star_from_eps

    table = {
        (0, 0): var("e1"),
        (1, 1): var("e2"),
        (2, 2): var("e3"),
        (0, 1): var("e12"),
        (1, 2): var("e23"),
        (0, 2): var("e123"),
    }
    generated = eps_star_from_eps(table, (0, 2))
    explicit = parse("e123 - e1*e23 - e12*e3 + e1*e2*e3")
    spec = SampleSpec(("e1", "e2", "e3", "e12", "e23", "e123"), seed=4)
    assert identical_on_domain(generated, explicit, spec, 100).ok


def test_vanishes_on_domain():
    spec = SampleSpec(("x",), seed=5)
    assert vanishes_on_domain(parse("x - x"), spec, 20).ok
    assert not vanishes_on_domain(parse("x"), spec, 20).ok


def test_identity_verdict_symmetric_and_reflexive():
    spec = SampleSpec(("x", "y"), seed=6)
    e1, e2 = parse("x*y"), parse("y*x")
    assert identical_on_domain(e1, e1, spec, 10).ok
    assert identical_on_domain(e1, e2, spec, 10).ok == identical_on_domain(e2, e1, spec, 10).ok
    f = parse("x + y")
    assert identical_on_domain(e1, f, spec, 10).ok == identical_on_domain(f, e1, spec, 10).ok


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_identity_verdict_symmetric_and_reflexive_randomized(data):
    from gcrystal.arith import DomainTooThinError

    e1 = data.draw(expressions)
    e2 = data.draw(expressions)
    names = tuple(sorted(free_variables(e1) | free_variables(e2))) or ("x",)
    spec = SampleSpec(names, seed=data.draw(st.integers(0, 10**6)))
    try:
        assert identical_on_domain(e1, e1, spec, 5).ok
        forward = identical_on_domain(e1, e2, spec, 5).ok
        backward = identical_on_domain(e2, e1, spec, 5).ok
        assert forward == backward
    except DomainTooThinError:
        pass  # an everywhere-singular draw such as 1/(x-x)


def test_trials_must_be_positive():
    spec = SampleSpec(("x",))
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            identical_on_domain(parse("x"), parse("x"), spec, trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            vanishes_on_domain(parse("x"), spec, trials)


def test_everywhere_pole_exhausts_retry_budget():
    from gcrystal.arith import DomainTooThinError

    with pytest.raises(DomainTooThinError):
        identical_on_domain(parse("1/(x - x)"), parse("x"), SampleSpec(("x",)), 5)


# --- subtraction-freeness --------------------------------------------------------------


def test_certify_p_polynomial_free():
    # the two-term window sum of the n=1 birational R map
    p0 = parse("l1*l2*m1 + l2*m1*m2")
    assert certify_subtraction_free(p0).free


def test_certify_blocks_subtraction_with_path():
    verdict = certify_subtraction_free(parse("e1*(e1*e2 - e12)"))
    assert not verdict.free
    assert verdict.blocked_path == (1,)  # right child of the product


def test_certify_blocks_negative_constant():
    verdict = certify_subtraction_free(parse("x + -2*y"))
    assert not verdict.free
    assert verdict.blocked_path == (1, 0)


def test_certify_constant_one_free():
    assert certify_subtraction_free(const(1)).free


# --- random structural properties -----------------------------------------------------

_names = st.sampled_from(("x", "y", "z", "l1", "l2", "m1.x"))
_consts = st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(lambda q: q != 0)


def _exprs(depth):
    if depth == 0:
        return st.one_of(_names.map(var), _consts.map(const))
    smaller = _exprs(depth - 1)
    binary = st.tuples(st.sampled_from((add, sub, mul, div)), smaller, smaller).map(
        lambda t: t[0](t[1], t[2])
    )
    power = st.tuples(smaller, st.integers(-3, 3)).map(lambda t: pow_(t[0], t[1]))
    return st.one_of(smaller, binary, power)


expressions = _exprs(4)


@settings(max_examples=500, deadline=None)
@given(expressions)
def test_parse_print_round_trip(e):
    assert parse(pretty(e)) == e


@settings(max_examples=200, deadline=None)
@given(expressions, expressions, st.integers(0, 10**6))
def test_evaluate_is_a_homomorphism(a, b, seed):
    names = tuple(sorted(free_variables(a) | free_variables(b)))
    point = dict(zip(names, (rat(k + 2, 3) for k in range(len(names)))))
    try:
        va, vb = evaluate(a, point), evaluate(b, point)
        assert evaluate(add(a, b), point) == va + vb
        assert evaluate(sub(a, b), point) == va - vb
        assert evaluate(mul(a, b), point) == va * vb
        if vb != 0:
            assert evaluate(div(a, b), point) == va / vb
    except EvalDomainError:
        pass  # pole of a sub-expression; nothing to compare


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_json_round_trip(e):
    assert from_json(to_json(e)) == e


# --- substitution ---------------------------------------------------------------------


def test_substitute_and_rename():
    e = parse("c*l1 + l2/c")
    swapped = substitute(e, {"c": parse("(a+1)/a")})
    point = {"a": rat(2), "l1": rat(4), "l2": rat(6)}
    c_val = rat(3, 2)
    assert evaluate(swapped, point) == c_val * 4 + 6 / c_val
    renamed = rename_variables(e, {"l1": "l1.x", "l2": "l2.x"})
    assert free_variables(renamed) == {"c", "l1.x", "l2.x"}


# --- compiled programs against the reference walkers -----------------------------------

# exact values, ints as well as Fractions; zeros make poles likely
_values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=4))


def _outcome(compute):
    try:
        return ("value", compute())
    except EvalDomainError:
        return ("pole",)
    except UnboundVariableError:
        return ("unbound",)


def _point_for(data, exprs, complete=True):
    names = sorted(set().union(*(free_variables(e) for e in exprs)))
    if not complete and names:
        names.remove(data.draw(st.sampled_from(names)))
    return {name: data.draw(_values) for name in names}


def _as_fractions(point):
    # the reference walker would turn int / int into a float, so it sees the
    # same values as Fractions; the compiled path takes the ints as they are
    return {name: Fraction(value) for name, value in point.items()}


def _as_pairs(point, scale=1):
    # the (numerator, denominator) pairs run_pairs reads; a scale other than
    # 1 leaves them unreduced, a negative one makes the denominators negative
    return {name: (scale * value.numerator, scale * value.denominator) for name, value in point.items()}


@settings(max_examples=300, deadline=None)
@given(expressions, st.data())
def test_compiled_evaluation_matches_reference(e, data):
    point = _point_for(data, [e])
    compiled = _outcome(lambda: evaluate(e, point))
    assert compiled == _outcome(lambda: reference_evaluate(e, _as_fractions(point)))
    if compiled[0] == "value":
        assert type(compiled[1]) is Fraction


@settings(max_examples=200, deadline=None)
@given(expressions, st.data())
def test_compiled_evaluation_raises_on_unbound_names(e, data):
    if not free_variables(e):
        return
    point = _point_for(data, [e], complete=False)
    with pytest.raises(UnboundVariableError):
        evaluate(e, point)
    # the reference walker may meet a pole before it meets the missing name
    with pytest.raises((UnboundVariableError, EvalDomainError)):
        reference_evaluate(e, _as_fractions(point))


@settings(max_examples=200, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=4), st.data())
def test_multi_output_program_matches_each_expression(exprs, data):
    point = _point_for(data, exprs)
    each = [_outcome(lambda e=e: reference_evaluate(e, _as_fractions(point))) for e in exprs]
    joint = _outcome(lambda: run(compile_program(exprs), point))
    if joint == ("pole",):
        assert ("pole",) in each
    else:
        assert joint == ("value", [v for _, v in each])


# pairs of expressions that are equal on purpose as well as by chance: the
# same tree, a quotient by a (possibly negative) constant against the product
# by its inverse, and two differences that are exactly zero
_expression_pairs = st.one_of(
    st.tuples(expressions, expressions),
    expressions.map(lambda e: (e, e)),
    st.tuples(expressions, _consts).map(lambda t: (div(t[0], const(t[1])), mul(const(1 / t[1]), t[0]))),
    st.tuples(expressions, expressions).map(lambda t: (sub(t[0], t[0]), sub(t[1], t[1]))),
)


@settings(max_examples=400, deadline=None)
@given(_expression_pairs, st.data())
def test_pair_comparison_matches_reference_equality(pair, data):
    a, b = pair
    point = _point_for(data, [a, b])
    pairs = _as_pairs(point, data.draw(st.sampled_from((1, -2, 3))))
    reference = [_outcome(lambda e=e: reference_evaluate(e, _as_fractions(point))) for e in (a, b)]
    try:
        lhs, rhs = run_pairs(compile_program([a]), pairs), run_pairs(compile_program([b]), pairs)
    except EvalDomainError:
        assert ("pole",) in reference
        return
    (_, va), (_, vb) = reference
    witness = pair_witness(pairs, lhs, rhs)
    assert (witness is None) == (va == vb)
    if witness is not None:
        assert witness == {"point": point, "lhs": va, "rhs": vb}


def test_pair_comparison_of_negative_denominators_and_zeros():
    point = {"x": rat(3), "y": rat(-2)}
    pairs = _as_pairs(point)
    half = run_pairs(compile_program([parse("x/y"), parse("x - x"), parse("y/x - y/x")]), pairs)
    assert [d < 0 for d in half[1]] == [True, False, False]
    same = run_pairs(compile_program([parse("-3/2 * 1"), parse("y - y"), parse("(x - x)/y")]), pairs)
    assert pair_witness(pairs, half, same) is None
    other = run_pairs(compile_program([parse("3/2 * 1"), parse("y - y"), parse("x - x")]), pairs)
    assert pair_witness(pairs, half, other, names=("q", "z0", "z1")) == {
        "output": "q",
        "point": point,
        "lhs": rat(-3, 2),
        "rhs": rat(3, 2),
    }


def test_reduced_outputs_are_lowest_terms_with_positive_denominators():
    program = compile_program([parse("x/y"), parse("(x*y)/(y*y)"), parse("x - x"), parse("y*y/2")])
    # unreduced inputs, one with a negative denominator
    assert run_reduced(program, {"x": (-6, -2), "y": (4, -2)}) == [(-3, 2), (-3, 2), (0, 1), (2, 1)]


# (x, y) as unreduced pairs, then the pairs of x + y and x - y: with
# g = gcd(p, q), x/p ± y/q is (x·(q/g) ± y·(p/g), p·(q/g)), and an equal
# denominator p is kept as (x ± y, p)
_LCM_SUMS = [
    ((1, 2), (1, 3), (5, 6), (1, 6)),  # coprime: across
    ((1, 6), (1, 10), (8, 30), (2, 30)),  # the shared factor 2 divides out
    ((1, -6), (1, 10), (2, -30), (8, -30)),  # negative p
    ((1, 6), (1, -10), (-2, -30), (-8, -30)),  # negative q
    ((5, -4), (3, -4), (8, -4), (2, -4)),  # equal negative denominators: kept
    ((1, 6), (-2, 12), (0, 12), (4, 12)),  # a zero sum
    ((3, 4), (3, 4), (6, 4), (0, 4)),  # a zero difference
]


def test_sums_are_taken_over_the_lcm_of_the_denominators():
    program = compile_program([parse("x + y"), parse("x - y")])
    inverse = compile_program([parse("1/(x + y)")])
    for x, y, total, difference in _LCM_SUMS:
        nums, dens = run_pairs(program, {"x": x, "y": y})
        assert list(zip(nums, dens)) == [total, difference]
        fx, fy = Fraction(*x), Fraction(*y)
        values = [reference_evaluate(e, {"x": fx, "y": fy}) for e in program.roots]
        assert [Fraction(n, d) for n, d in zip(nums, dens)] == values
        if total[0] == 0:  # a zero sum is a pole exactly where it divides
            with pytest.raises(EvalDomainError):
                run_pairs(inverse, {"x": x, "y": y})
    # the batch, entry by entry, is the point runs
    columns = {name: ([p[k][0] for p in _LCM_SUMS], [p[k][1] for p in _LCM_SUMS]) for k, name in enumerate("xy")}
    nums, dens, poles = run_columns(program, columns, len(_LCM_SUMS))
    assert not poles
    assert [list(zip(n, d)) for n, d in zip(nums, dens)] == [[p[2] for p in _LCM_SUMS], [p[3] for p in _LCM_SUMS]]
    assert run_columns(inverse, columns, len(_LCM_SUMS))[2] == {5}


def test_value_numbering_shares_equal_subterms():
    # (x + y) appears three times, in two spellings and as distinct objects
    program = compile_program([parse("(x+y)*(y+x)"), parse("(x+y)^2")])
    assert [op for op, _, _ in program.code].count(ADD) == 1
    assert program.names == ("x", "y")
    assert run(program, {"x": rat(1, 2), "y": 2}) == [rat(25, 4), rat(25, 4)]


def test_tree_program_is_cached_on_the_tree():
    e = parse("x/y + 1")
    assert tree_program(e) is tree_program(e)
    assert tree_program(parse("x/y + 1")) is not tree_program(e)


def test_compiled_poles():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(x - x)"), {"x": 2})
    with pytest.raises(EvalDomainError):
        evaluate(parse("(x - 1)^-2"), {"x": rat(1)})
    with pytest.raises(UnboundVariableError):
        evaluate(parse("1/(x - x) + y"), {"x": rat(2)})  # names are bound before any arithmetic


_positive_names = st.sampled_from(("x", "y", "z", "l1"))
_positive_consts = st.fractions(min_value=1, max_value=9, max_denominator=4).filter(lambda q: q > 0)


def _subtraction_free(depth):
    if depth == 0:
        return st.one_of(_positive_names.map(var), _positive_consts.map(const))
    smaller = _subtraction_free(depth - 1)
    binary = st.tuples(st.sampled_from((add, mul, div)), smaller, smaller).map(
        lambda t: t[0](t[1], t[2])
    )
    power = st.tuples(smaller, st.integers(-3, 3)).map(lambda t: pow_(t[0], t[1]))
    return st.one_of(smaller, binary, power)


subtraction_free_expressions = _subtraction_free(4)


@settings(max_examples=300, deadline=None)
@given(subtraction_free_expressions, st.data())
def test_maxplus_program_matches_reference_tropicalization(e, data):
    from gcrystal.ud import trop_eval

    point = {name: data.draw(st.integers(-50, 50)) for name in sorted(free_variables(e))}
    expected = _maxplus_walk(e, point)
    assert run_maxplus(compile_program([e]), point) == [expected]
    assert trop_eval(e, point) == expected


def _maxplus_walk(e, point):
    """The (max, +) reading of a subtraction-free tree, walked node by node: the oracle of ``run_maxplus``."""
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Const):
        return 0
    if isinstance(e, Pow):
        return e.exponent * _maxplus_walk(e.base, point)
    left, right = _maxplus_walk(e.left, point), _maxplus_walk(e.right, point)
    return {Add: max(left, right), Mul: left + right, Div: left - right}[type(e)]


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_maxplus_refuses_what_is_not_subtraction_free(e):
    verdict = certify_subtraction_free(e)
    program = compile_program([const(1), e])
    point = {name: 1 for name in free_variables(e)}
    if verdict:
        run_maxplus(program, point)
    else:
        with pytest.raises(TropicalizationError) as info:
            run_maxplus(program, point)
        assert info.value.path == (1,) + verdict.blocked_path


def test_maxplus_refuses_subtraction_and_negative_constants():
    with pytest.raises(TropicalizationError) as info:
        run_maxplus(compile_program([parse("y*(x - 1)")]), {"x": 1, "y": 2})
    assert info.value.path == (0, 1)
    with pytest.raises(TropicalizationError) as info:
        run_maxplus(compile_program([parse("x + -2*y")]), {"x": 1, "y": 2})
    assert info.value.path == (0, 1, 0)
