import itertools
import random
from fractions import Fraction

import pytest

from gcrystal.arith import draw_pairs, fraction_point, point_at, rat, sample_point
from gcrystal.crystal import apply_e, eps_scaling_plan, gamma_scaling_plan, product, run_plan
from gcrystal.epsilon import product_epsilon
from gcrystal.expr import evaluate, pretty, vanishes_on_domain
from gcrystal.models import (
    BorelElement,
    affine_a_model,
    affine_d5_model,
    borel_action,
    borel_apply_e_matrix,
    borel_epsilon_system,
    borel_from_point,
    borel_model,
    borel_multiply,
    borel_variables,
    build_named_model,
    minor_expr,
)


# --- torus model -----------------------------------------------------------------


def test_torus_eps_and_gamma_formulas():
    model = affine_a_model(3, rat(4))
    assert pretty(model.eps[0]) == "l1"
    assert pretty(model.eps[2]) == "l3"
    assert pretty(model.gamma[0]) == "l4/l1"
    assert pretty(model.gamma[2]) == "l2/l3"


def test_torus_action_fixes_far_coordinates():
    model = affine_a_model(4, rat(7))
    x = sample_point(model.domain_spec(5))
    y = apply_e(model, 1, rat(9, 4), x)
    for k in (3, 4, 5):
        assert y[f"l{k}"] == x[f"l{k}"]


def test_torus_level_validation():
    with pytest.raises(ValueError):
        affine_a_model(2, rat(-1))
    with pytest.raises(ValueError):
        affine_a_model(0, rat(4))


# --- fork-diagram model --------------------------------------------------------------


def test_d5_eps_displayed_values():
    model = affine_d5_model(rat(6))
    point = sample_point(model.domain_spec(3))
    assert evaluate(model.eps[5], point) == point["lb4"]
    assert evaluate(model.eps[4], point) == point["l5"] * point["lb4"]
    expected0 = point["l1"] * (point["l2"] / point["lb2"] + 1)
    assert evaluate(model.eps[0], point) == expected0


def test_d5_action_mixing_ratio_is_one_at_unit_parameter():
    model = affine_d5_model(rat(6))
    point = sample_point(model.domain_spec(11))
    for i in model.cartan.labels:
        assert apply_e(model, i, Fraction(1), point) == point


def test_d5_gamma_pair_consistency():
    # gamma_4 * gamma_5 = l4^2 / lb4^2, and the (4,5) scaling axiom holds
    model = affine_d5_model(rat(6))
    point = sample_point(model.domain_spec(13))
    g4g5 = evaluate(model.gamma[4], point) * evaluate(model.gamma[5], point)
    assert g4g5 == point["l4"] ** 2 / point["lb4"] ** 2
    assert run_plan(gamma_scaling_plan(model, 4, 5), 100).ok
    assert run_plan(gamma_scaling_plan(model, 5, 4), 100).ok


def test_d5_level_constraint_is_product_of_all_nine():
    model = affine_d5_model(rat(6))
    point = sample_point(model.domain_spec(17))
    total = Fraction(1)
    for v in model.variables:
        total *= point[v]
    assert total == 6


# --- triangular matrix model: structure ----------------------------------------------
#
# The numeric twin holds unreduced (numerator, denominator) int pairs; the
# tests read its values as Fractions through ``_q`` and ``_fractions``.


def _q(pair):
    num, den = pair
    assert type(num) is int and type(den) is int and den != 0, pair  # exact int pairs, never floats
    return Fraction(num, den)


def _fractions(mat):
    return tuple(tuple(_q(entry) for entry in row) for row in mat)


def _pairs(mat):
    return tuple(tuple((q.numerator, q.denominator) for q in map(Fraction, row)) for row in mat)


def _pair_point(point):
    return {name: (q.numerator, q.denominator) for name, q in point.items()}


def _drawn(n, seed):
    """The element at the point the sampled checks draw from ``borel_model(n).domain_spec(seed)``."""
    spec = borel_model(n).domain_spec(seed)
    return borel_from_point(draw_pairs(spec, random.Random(seed)), n)


def test_borel_variables_order():
    assert borel_variables(2) == ("u1", "u2", "u12", "t1", "t2", "t3")


def test_borel_matrix_displayed_3x3():
    point = {
        "u1": rat(2), "u2": rat(3), "u12": rat(5),
        "t1": rat(7), "t2": rat(11), "t3": rat(1, 77),
    }
    element = borel_from_point(_pair_point(point), 2)
    assert _fractions(element.mat) == (
        (rat(7), rat(0), rat(0)),
        (rat(14), rat(11), rat(0)),
        (rat(35), rat(33), rat(1, 77)),
    )
    assert fraction_point(element.to_point()) == point


def test_borel_element_validation():
    one, zero = (1, 1), (0, 1)
    with pytest.raises(ValueError, match="lower triangular"):
        BorelElement(((one, one), (zero, one)))
    with pytest.raises(ValueError, match="determinant"):
        BorelElement((((2, 1), zero), (zero, one)))
    with pytest.raises(ValueError, match="determinant"):
        BorelElement((((2, 3), zero), (zero, (2, 3))))  # 4/9
    with pytest.raises(ValueError, match="denominator 0"):
        BorelElement(((one, zero), ((1, 0), one)))
    with pytest.raises(ValueError, match="square"):
        BorelElement(((one, zero), (one,)))
    # unreduced and negative denominators are fine: diag 2/4 · -6/-3 = 1
    BorelElement((((2, 4), zero), ((5, -7), (-6, -3))))


def test_borel_from_point_checks_the_drawn_torus():
    point = {"u1": (1, 1), "t1": (2, 1), "t2": (1, 3)}  # t1 t2 = 2/3
    with pytest.raises(ValueError, match="determinant"):
        borel_from_point(point, 1)


def test_the_action_raises_where_the_residual_survives():
    # above-diagonal entry (1, 2) = 1: an element that skipped its check
    x = BorelElement._checked((((1, 1), (1, 1)), ((3, 1), (1, 1))))
    with pytest.raises(AssertionError, match="residual"):
        borel_apply_e_matrix(x, 1, (2, 1))


def test_the_action_poles_at_a_zero_divisor():
    x = _drawn(2, 0)
    for c in [(0, 1), (0, -5)]:
        with pytest.raises(ZeroDivisionError):
            borel_apply_e_matrix(x, 1, c)
    with pytest.raises(ZeroDivisionError):  # eps_1 = u1 = 0
        borel_apply_e_matrix(_unit_torus_element(2, u2=3), 1, (2, 1))


def test_borel_minor_matches_pair_formula():
    element = _drawn(2, 3)
    point = fraction_point(element.to_point())
    assert _q(element.minor(1, 2)) == point["u1"] * point["u2"] - point["u12"]


def test_minor_recurrence_expansion_3():
    # det for [1,3] expands to u1(u2 u3 - u23) - u12 u3 + u13
    expr = minor_expr(1, 3)
    point = {"u1": rat(2), "u2": rat(3), "u3": rat(5), "u12": rat(7), "u23": rat(11), "u13": rat(13)}
    assert evaluate(expr, point) == 2 * (3 * 5 - 11) - 7 * 5 + 13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minor_recurrence_equals_elimination_determinant(n):
    system = borel_epsilon_system(n)
    for seed in range(10):
        element = _drawn(n, seed)
        point = fraction_point(element.to_point())
        for a, b in system.intervals():
            assert evaluate(system.eps_star[(a, b)], point) == _q(element.minor(a + 1, b + 1))


def test_unipotent_rejects_indices_outside_the_matrix():
    element = _drawn(2, 3)  # 3x3: rows and columns 1..3
    for r, c in [(0, 1), (1, 0), (4, 1), (3, 4), (-1, 1)]:
        with pytest.raises(ValueError):
            element.unipotent(r, c)
    with pytest.raises(ValueError):
        element.eps_entry(0, 1)
    with pytest.raises(ValueError):
        element.eps_entry(1, 3)
    for s, t in [(0, 1), (2, 3), (3, 1), (9, 8)]:
        with pytest.raises(ValueError):
            element.minor(s, t)
    assert element.eps_entry(1, 2) == element.unipotent(3, 1)
    assert element.minor(3, 2) == element.minor(1, 0) == (1, 1)  # empty minors


def test_borel_eps_entries_match_matrix():
    system = borel_epsilon_system(3)
    element = _drawn(3, 9)
    point = fraction_point(element.to_point())
    for a, b in system.intervals():
        assert evaluate(system.eps[(a, b)], point) == _q(element.eps_entry(a + 1, b + 1))


# --- triangular matrix model: action ---------------------------------------------------


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_borel_action_matches_matrix_route(n, i):
    model = borel_model(n)
    for seed in range(5):
        x = draw_pairs(model.domain_spec(seed), random.Random(seed))
        c = rat(seed + 2, 3)
        image = borel_apply_e_matrix(borel_from_point(x, n), i, (c.numerator, c.denominator)).to_point()
        assert apply_e(model, i, c, fraction_point(x)) == fraction_point(image)


def test_borel_action_residual_vanishes():
    model = borel_model(3)
    for i in (1, 2, 3):
        residual = borel_action(3, i).residual
        spec = model.domain_spec(5, extra=("c",))
        assert vanishes_on_domain(residual, spec, 50).ok


def test_borel_action_subdiagonal_and_torus_closed_forms():
    model = borel_model(3)
    x = sample_point(model.domain_spec(21))
    c = rat(5, 2)
    for i in (1, 2, 3):
        y = apply_e(model, i, c, x)
        assert y[f"u{i}"] == x[f"u{i}"] / c
        assert y[f"t{i}"] == c * x[f"t{i}"]
        assert y[f"t{i + 1}"] == x[f"t{i + 1}"] / c


def test_borel_action_mixed_row_and_column_entries():
    # for the action at i: row i mixes with row i+1, column i+1 mixes with
    # column i, and the column-i entries ride the torus rescale
    model = borel_model(3)
    x = sample_point(model.domain_spec(23))
    c = rat(7, 4)
    y = apply_e(model, 2, c, x)  # i = 2, n = 3
    assert y["u1"] == x["u1"] + (c - 1) * x["u12"] / x["u2"]
    assert y["u3"] == c * (x["u3"] + (1 / c - 1) * x["u23"] / x["u2"])
    assert y["u23"] == x["u23"] / c
    assert y["u12"] == x["u12"]
    assert y["u13"] == x["u13"]


def test_borel_axioms():
    model = borel_model(4)
    for i in model.cartan.labels:
        assert run_plan(eps_scaling_plan(model, i, i), 50).ok
        for j in model.cartan.labels:
            assert run_plan(gamma_scaling_plan(model, i, j), 50).ok


# --- multiplication and the product oracle ---------------------------------------------


def test_multiply_identity():
    x = _drawn(2, 4)
    identity = BorelElement(_pairs([[int(r == c) for c in range(3)] for r in range(3)]))
    assert _fractions(borel_multiply(identity, x).mat) == _fractions(x.mat)
    assert _fractions(borel_multiply(x, identity).mat) == _fractions(x.mat)


def test_multiply_torus_parts_multiply():
    x, y = _drawn(3, 5), _drawn(3, 6)
    z = borel_multiply(x, y)
    for j in range(4):
        assert _q(z.mat[j][j]) == _q(x.mat[j][j]) * _q(y.mat[j][j])


def test_multiply_eps_composition_formula():
    model = borel_model(3)
    for seed in range(10):
        x, y = _drawn(3, 2 * seed), _drawn(3, 2 * seed + 1)
        z = borel_multiply(x, y)
        px, py = fraction_point(x.to_point()), fraction_point(y.to_point())
        for i in (1, 2, 3):
            expected = evaluate(model.eps[i], px) + evaluate(model.eps[i], py) / evaluate(
                model.gamma[i], px
            )
            assert _q(z.eps_entry(i, i)) == expected


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        borel_multiply(_drawn(1, 0), _drawn(2, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_oracle_two_routes(n):
    """Product-table expressions against entries/minors of actual matrix products."""
    model = borel_model(n)
    system = borel_epsilon_system(n)
    table = product_epsilon(system, system, model)
    pair_spec = product(model, model).domain_spec(77)
    columns = pair_spec.draw(random.Random(77), 25)
    for j in range(25):
        pairs = point_at(columns, j)
        x = {v: pairs[f"{v}.x"] for v in model.variables}
        y = {v: pairs[f"{v}.y"] for v in model.variables}
        z = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        point = fraction_point(pairs)
        for a, b in table.intervals():
            assert evaluate(table.eps_at(a, b), point) == _q(z.eps_entry(a + 1, b + 1))
            assert evaluate(table.star_at(a, b), point) == _q(z.minor(a + 1, b + 1))


def test_named_model_builder():
    assert build_named_model("a-affine", n=2, level=rat(4)).name.startswith("A2")
    assert build_named_model("borel", n=3).name == "borel-sl4"
    with pytest.raises(ValueError):
        build_named_model("nope")


# --- the numeric twin against dense matrix arithmetic -----------------------------------
#
# The oracles are the dense routes over Fraction matrices: full (n+1)^3
# products (with the two elementary matrices for the action), x_- by
# dividing each column by its diagonal entry, and the k!-term permutation
# sum.


def _dense_matmul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(size)), Fraction(0)) for c in range(size))
        for r in range(size)
    )


def _dense_unipotent(m, r, c):
    """Entry (r, c), 1-indexed, of x_- for the Fraction matrix x = ``m``."""
    return m[r - 1][c - 1] / m[c - 1][c - 1]


def _dense_apply_e(m, i, c):
    size = len(m)
    eps_i = _dense_unipotent(m, i + 1, i)
    gamma_i = m[i - 1][i - 1] / m[i][i]
    a = (c - 1) / eps_i
    b = (1 / c - 1) / (eps_i * gamma_i)

    def elementary(z):
        return tuple(
            tuple(Fraction(r == col) + (z if (r, col) == (i - 1, i) else 0) for col in range(size))
            for r in range(size)
        )

    return _dense_matmul(_dense_matmul(elementary(a), m), elementary(b))


def _permutation_minor(m, s, t):
    size = t - s + 1
    u = [[_dense_unipotent(m, s + 1 + r, s + c) for c in range(size)] for r in range(size)]
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[p] > perm[q] for p in range(size) for q in range(p + 1, size))
        term = Fraction((-1) ** inversions)
        for r in range(size):
            term *= u[r][perm[r]]
        total += term
    return total


def _signed_borel(n, rng, zeros=False):
    """A random element with signed rational entries; with ``zeros`` the
    entries below the diagonal are small integers, many of them 0."""

    def entry():
        if zeros:
            return Fraction(rng.randint(-2, 2))
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

    torus = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    last = Fraction(1)
    for t in torus:
        last /= t
    torus.append(last)
    rows = tuple(
        tuple(torus[r] if c == r else (entry() * torus[c] if c < r else Fraction(0)) for c in range(n + 1))
        for r in range(n + 1)
    )
    return BorelElement(_pairs(rows))


def _elements(n, count=6):
    rng = random.Random(1000 + n)
    return (
        [_drawn(n, seed) for seed in range(count)]
        + [_signed_borel(n, rng) for _ in range(count)]
        + [_signed_borel(n, rng, zeros=True) for _ in range(count)]
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_e_matrix_matches_dense_elementary_products(n):
    rng = random.Random(n)
    checked = 0
    for x in _elements(n):
        m = _fractions(x.mat)
        for i in range(1, n + 1):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20))
            if _dense_unipotent(m, i + 1, i) == 0:
                with pytest.raises(ZeroDivisionError):
                    borel_apply_e_matrix(x, i, (c.numerator, c.denominator))
                continue
            assert _fractions(borel_apply_e_matrix(x, i, (c.numerator, c.denominator)).mat) == _dense_apply_e(m, i, c)
            checked += 1
    assert checked >= 12 * n


@pytest.mark.parametrize("n", range(1, 7))
def test_multiply_matches_dense_product(n):
    elements = _elements(n)
    for x, y in zip(elements, elements[1:] + elements[:1]):
        assert _fractions(borel_multiply(x, y).mat) == _dense_matmul(_fractions(x.mat), _fractions(y.mat))


def _elements_and_products(n, count=6):
    """``_elements(n, count)`` and the products of neighbours, whose pairs are as unreduced as the pair checks read."""
    elements = _elements(n, count)
    return elements + [borel_multiply(x, y) for x, y in zip(elements, elements[1:])]


@pytest.mark.parametrize("n", range(1, 7))
def test_minor_matches_permutation_sum(n):
    for x in _elements_and_products(n, count=3 if n == 6 else 6):
        m = _fractions(x.mat)
        for s in range(1, n + 1):
            for t in range(s, n + 1):
                assert _q(x.minor(s, t)) == _permutation_minor(m, s, t), (s, t)


@pytest.mark.parametrize("n", range(1, 7))
def test_eps_entries_match_dense_division(n):
    for x in _elements_and_products(n):
        m = _fractions(x.mat)
        for s in range(1, n + 1):
            for t in range(s, n + 1):
                assert _q(x.eps_entry(s, t)) == _dense_unipotent(m, t + 1, s), (s, t)


def _unit_torus_element(n, **entries):
    """Torus 1, the named unipotent coordinates as given, the others 0."""
    point = {v: (int(v.startswith("t")), 1) for v in borel_variables(n)}
    point.update({name: (value, 1) for name, value in entries.items()})
    return borel_from_point(point, n)


def test_minor_with_zero_leading_pivot_flips_the_sign():
    # u1 = 0: the [1, 2] minor [[u1, 1], [u12, u2]] needs a row swap
    x = _unit_torus_element(2, u2=3, u12=5)
    assert _q(x.minor(1, 2)) == -5 == _permutation_minor(_fractions(x.mat), 1, 2)
    # u1 = u2 = u3 = 0 over [1, 3]: [[0, 1, 0], [2, 0, 1], [7, 11, 0]]
    x = _unit_torus_element(3, u12=2, u13=7, u23=11)
    assert _q(x.minor(1, 3)) == _permutation_minor(_fractions(x.mat), 1, 3) == 7
    assert _q(x.minor(1, 2)) == -2
    # [[1, 1, 0], [1, 1, 1], [0, 2, 5]]: the second pivot is 0 only after
    # the first elimination step
    x = _unit_torus_element(3, u1=1, u12=1, u2=1, u23=2, u3=5)
    assert _q(x.minor(1, 3)) == _permutation_minor(_fractions(x.mat), 1, 3) == -2
    # a zero column: no pivot at all
    x = _unit_torus_element(3, u3=4)
    assert _q(x.minor(1, 1)) == 0 == _permutation_minor(_fractions(x.mat), 1, 1)
    assert _q(x.minor(1, 3)) == _permutation_minor(_fractions(x.mat), 1, 3)
