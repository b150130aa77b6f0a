import itertools
import random
from fractions import Fraction

import pytest

from gcrystal.arith import rat, sample_points
from gcrystal.crystal import apply_e, check_eps_scaling, check_gamma_scaling, product
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
    sample_borel,
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
    x = model.sample(5)
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
    point = model.sample(3)
    assert evaluate(model.eps[5], point) == point["lb4"]
    assert evaluate(model.eps[4], point) == point["l5"] * point["lb4"]
    expected0 = point["l1"] * (point["l2"] / point["lb2"] + 1)
    assert evaluate(model.eps[0], point) == expected0


def test_d5_action_mixing_ratio_is_one_at_unit_parameter():
    model = affine_d5_model(rat(6))
    point = model.sample(11)
    for i in model.cartan.labels:
        assert apply_e(model, i, Fraction(1), point) == point


def test_d5_gamma_pair_consistency():
    # gamma_4 * gamma_5 = l4^2 / lb4^2, and the (4,5) scaling axiom holds
    model = affine_d5_model(rat(6))
    point = model.sample(13)
    g4g5 = evaluate(model.gamma[4], point) * evaluate(model.gamma[5], point)
    assert g4g5 == point["l4"] ** 2 / point["lb4"] ** 2
    assert check_gamma_scaling(model, 4, 5, 100).ok
    assert check_gamma_scaling(model, 5, 4, 100).ok


def test_d5_level_constraint_is_product_of_all_nine():
    model = affine_d5_model(rat(6))
    point = model.sample(17)
    total = Fraction(1)
    for v in model.variables:
        total *= point[v]
    assert total == 6


# --- triangular matrix model: structure ----------------------------------------------


def test_borel_variables_order():
    assert borel_variables(2) == ("u1", "u2", "u12", "t1", "t2", "t3")


def test_borel_matrix_displayed_3x3():
    point = {
        "u1": rat(2), "u2": rat(3), "u12": rat(5),
        "t1": rat(7), "t2": rat(11), "t3": rat(1, 77),
    }
    element = borel_from_point(point, 2)
    assert element.mat == (
        (rat(7), rat(0), rat(0)),
        (rat(14), rat(11), rat(0)),
        (rat(35), rat(33), rat(1, 77)),
    )
    assert element.to_point() == point


def test_borel_element_validation():
    with pytest.raises(ValueError):
        BorelElement(((rat(1), rat(1)), (rat(0), rat(1))))  # not lower triangular
    with pytest.raises(ValueError):
        BorelElement(((rat(2), rat(0)), (rat(0), rat(1))))  # determinant 2


def test_borel_minor_matches_pair_formula():
    element = sample_borel(2, 3)
    point = element.to_point()
    assert element.minor(1, 2) == point["u1"] * point["u2"] - point["u12"]


def test_minor_recurrence_expansion_3():
    # det for [1,3] expands to u1(u2 u3 - u23) - u12 u3 + u13
    expr = minor_expr(1, 3)
    point = {"u1": rat(2), "u2": rat(3), "u3": rat(5), "u12": rat(7), "u23": rat(11), "u13": rat(13)}
    assert evaluate(expr, point) == 2 * (3 * 5 - 11) - 7 * 5 + 13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minor_recurrence_equals_elimination_determinant(n):
    system = borel_epsilon_system(n)
    for seed in range(10):
        element = sample_borel(n, seed)
        point = element.to_point()
        for a, b in system.intervals():
            assert evaluate(system.eps_star[(a, b)], point) == element.minor(a + 1, b + 1)


def test_unipotent_rejects_indices_outside_the_matrix():
    element = sample_borel(2, 3)  # 3x3: rows and columns 1..3
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
    assert element.minor(3, 2) == element.minor(1, 0) == 1  # empty minors


def test_borel_eps_entries_match_matrix():
    system = borel_epsilon_system(3)
    element = sample_borel(3, 9)
    point = element.to_point()
    for a, b in system.intervals():
        assert evaluate(system.eps[(a, b)], point) == element.eps_entry(a + 1, b + 1)


# --- triangular matrix model: action ---------------------------------------------------


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_borel_action_matches_matrix_route(n, i):
    model = borel_model(n)
    for seed in range(5):
        x = model.sample(seed)
        c = rat(seed + 2, 3)
        assert apply_e(model, i, c, x) == borel_apply_e_matrix(
            borel_from_point(x, n), i, c
        ).to_point()


def test_borel_action_residual_vanishes():
    model = borel_model(3)
    for i in (1, 2, 3):
        residual = borel_action(3, i).residual
        spec = model.domain_spec(5, extra=("c",))
        assert vanishes_on_domain(residual, spec, 50).ok


def test_borel_action_subdiagonal_and_torus_closed_forms():
    model = borel_model(3)
    x = model.sample(21)
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
    x = model.sample(23)
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
        assert check_eps_scaling(model, i, i, 50).ok
        for j in model.cartan.labels:
            assert check_gamma_scaling(model, i, j, 50).ok


# --- multiplication and the product oracle ---------------------------------------------


def test_multiply_identity():
    x = sample_borel(2, 4)
    identity = BorelElement(
        tuple(
            tuple(rat(1) if r == c else rat(0) for c in range(3)) for r in range(3)
        )
    )
    assert borel_multiply(identity, x).mat == x.mat
    assert borel_multiply(x, identity).mat == x.mat


def test_multiply_torus_parts_multiply():
    x, y = sample_borel(3, 5), sample_borel(3, 6)
    z = borel_multiply(x, y)
    assert z.torus() == tuple(a * b for a, b in zip(x.torus(), y.torus()))


def test_multiply_eps_composition_formula():
    model = borel_model(3)
    for seed in range(10):
        x, y = sample_borel(3, 2 * seed), sample_borel(3, 2 * seed + 1)
        z = borel_multiply(x, y)
        px, py = x.to_point(), y.to_point()
        for i in (1, 2, 3):
            expected = evaluate(model.eps[i], px) + evaluate(model.eps[i], py) / evaluate(
                model.gamma[i], px
            )
            assert z.eps_entry(i, i) == expected


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        borel_multiply(sample_borel(1, 0), sample_borel(2, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_oracle_two_routes(n):
    """Product-table expressions against entries/minors of actual matrix products."""
    model = borel_model(n)
    system = borel_epsilon_system(n)
    table = product_epsilon(system, system, model)
    pair_spec = product(model, model).domain_spec(77)
    for point in sample_points(pair_spec, 25):
        x = {v: point[f"{v}.x"] for v in model.variables}
        y = {v: point[f"{v}.y"] for v in model.variables}
        z = borel_multiply(borel_from_point(x, n), borel_from_point(y, n))
        for a, b in table.intervals():
            assert evaluate(table.eps_at(a, b), point) == z.eps_entry(a + 1, b + 1)
            assert evaluate(table.star_at(a, b), point) == z.minor(a + 1, b + 1)


def test_borel_element_json_round_trip():
    from gcrystal.models import borel_from_json_obj, borel_to_json_obj

    x = sample_borel(2, 8)
    blob = borel_to_json_obj(x)
    assert blob[0][1] == "0"  # row-major, above-diagonal zeros present
    assert borel_from_json_obj(blob) == x


def test_named_model_builder():
    assert build_named_model("a-affine", n=2, level=rat(4)).name.startswith("A2")
    assert build_named_model("borel", n=3).name == "borel-sl4"
    with pytest.raises(ValueError):
        build_named_model("nope")


# --- the numeric twin against dense matrix arithmetic -----------------------------------
#
# The oracles are the dense routes: full (n+1)^3 products (with the two
# elementary matrices for the action) and the k!-term permutation sum.


def _dense_matmul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(size)), Fraction(0)) for c in range(size))
        for r in range(size)
    )


def _dense_apply_e(x, i, c):
    size = x.size
    eps_i = x.unipotent(i + 1, i)
    gamma_i = x.mat[i - 1][i - 1] / x.mat[i][i]
    a = (c - 1) / eps_i
    b = (1 / c - 1) / (eps_i * gamma_i)

    def elementary(z):
        return tuple(
            tuple(Fraction(r == col) + (z if (r, col) == (i - 1, i) else 0) for col in range(size))
            for r in range(size)
        )

    return _dense_matmul(_dense_matmul(elementary(a), x.mat), elementary(b))


def _permutation_minor(x, s, t):
    size = t - s + 1
    m = [[x.unipotent(s + 1 + r, s + c) for c in range(size)] for r in range(size)]
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[p] > perm[q] for p in range(size) for q in range(p + 1, size))
        term = Fraction((-1) ** inversions)
        for r in range(size):
            term *= m[r][perm[r]]
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
    return BorelElement(rows)


def _elements(n, count=6):
    rng = random.Random(1000 + n)
    return (
        [sample_borel(n, seed) for seed in range(count)]
        + [_signed_borel(n, rng) for _ in range(count)]
        + [_signed_borel(n, rng, zeros=True) for _ in range(count)]
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_e_matrix_matches_dense_elementary_products(n):
    rng = random.Random(n)
    checked = 0
    for x in _elements(n):
        for i in range(1, n + 1):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20))
            if x.unipotent(i + 1, i) == 0:
                with pytest.raises(ZeroDivisionError):
                    borel_apply_e_matrix(x, i, c)
                continue
            assert borel_apply_e_matrix(x, i, c).mat == _dense_apply_e(x, i, c)
            checked += 1
    assert checked >= 12 * n


@pytest.mark.parametrize("n", range(1, 7))
def test_multiply_matches_dense_product(n):
    elements = _elements(n)
    for x, y in zip(elements, elements[1:] + elements[:1]):
        assert borel_multiply(x, y).mat == _dense_matmul(x.mat, y.mat)


@pytest.mark.parametrize("n", range(1, 7))
def test_minor_matches_permutation_sum(n):
    for x in _elements(n, count=3 if n == 6 else 6):
        for s in range(1, n + 1):
            for t in range(s, n + 1):
                assert x.minor(s, t) == _permutation_minor(x, s, t), (s, t)


def _unit_torus_element(n, **entries):
    """Torus 1, the named unipotent coordinates as given, the others 0."""
    point = {v: Fraction(v.startswith("t")) for v in borel_variables(n)}
    point.update({name: Fraction(value) for name, value in entries.items()})
    return borel_from_point(point, n)


def test_minor_with_zero_leading_pivot_flips_the_sign():
    # u1 = 0: the [1, 2] minor [[u1, 1], [u12, u2]] needs a row swap
    x = _unit_torus_element(2, u2=3, u12=5)
    assert x.minor(1, 2) == -5 == _permutation_minor(x, 1, 2)
    # u1 = u2 = u3 = 0 over [1, 3]: [[0, 1, 0], [2, 0, 1], [7, 11, 0]]
    x = _unit_torus_element(3, u12=2, u13=7, u23=11)
    assert x.minor(1, 3) == _permutation_minor(x, 1, 3) == 7
    assert x.minor(1, 2) == -2
    # [[1, 1, 0], [1, 1, 1], [0, 2, 5]]: the second pivot is 0 only after
    # the first elimination step
    x = _unit_torus_element(3, u1=1, u12=1, u2=1, u23=2, u3=5)
    assert x.minor(1, 3) == _permutation_minor(x, 1, 3) == -2
    # a zero column: no pivot at all
    x = _unit_torus_element(3, u3=4)
    assert x.minor(1, 1) == 0 == _permutation_minor(x, 1, 1)
    assert x.minor(1, 3) == _permutation_minor(x, 1, 3)
