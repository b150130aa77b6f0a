import random
import warnings
from fractions import Fraction

import pytest

from gcrystal.arith import Box
from gcrystal.crystal import (
    check_identity_rows,
    pack_pair,
    product,
    product_split_exprs,
    row_plan,
    split_pair,
    tree_row,
)
from gcrystal.expr import Add, Const, Div, Mul, Pow, Var, add, mul, parse, pow_, substitute, var
from gcrystal.harness import REGISTRY
from gcrystal.rmap import build_r_map, product_systems
from gcrystal.ud import (
    ROWS,
    NonUnitConstantWarning,
    TropicalizationError,
    apply_combinatorial_r,
    maxplus_side,
    pair_shadow,
    sample_box,
    shadow,
    split,
    trop_eval,
    tropicalize,
    unit_torus,
)


def _walk(e, point):
    """The (max, +) reading of a subtraction-free tree, walked node by node: the oracle of the programs."""
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Const):
        return 0
    if isinstance(e, Pow):
        return e.exponent * _walk(e.base, point)
    left, right = _walk(e.left, point), _walk(e.right, point)
    return {Add: max(left, right), Mul: left + right, Div: left - right}[type(e)]


def _box(names, lo=-50, hi=50):
    return dict.fromkeys(names, (lo, hi))


# --- the reading written out ------------------------------------------------------


def test_quotient_compiles_to_difference():
    assert tropicalize(parse("l1/l2")) == "l1 - l2"
    assert trop_eval(parse("l1/l2"), {"l1": 3, "l2": 8}) == -5


def test_sum_compiles_to_max_idempotently():
    e = parse("x + x")
    assert tropicalize(e) == "max(x, x)"
    assert trop_eval(e, {"x": 9}) == 9


def test_two_term_window_sum_compiles_to_max_of_sums():
    # the n = 1 window polynomial: l1 l2 m1 + l2 m1 m2
    e = parse("l1*l2*m1 + l2*m1*m2")
    assert tropicalize(e) == "max((l1 + l2) + m1, (l2 + m1) + m2)"
    assert trop_eval(e, {"l1": 1, "l2": 2, "m1": 3, "m2": -9}) == 6


def test_structural_homomorphism():
    a, b = parse("x*y"), parse("z + w")
    assert tropicalize(mul(a, b)) == f"({tropicalize(a)}) + {tropicalize(b)}"
    assert tropicalize(add(a, b)) == f"max({tropicalize(a)}, {tropicalize(b)})"
    point = {"x": 4, "y": -7, "z": 2, "w": 5}
    assert trop_eval(mul(a, b), point) == trop_eval(a, point) + trop_eval(b, point)
    assert trop_eval(add(a, b), point) == max(trop_eval(a, point), trop_eval(b, point))


def test_powers_read_as_multiples():
    assert tropicalize(parse("x^3")) == "3*x"
    assert tropicalize(parse("x^0")) == "0*x"
    assert tropicalize(parse("x^-2")) == "-2*x"
    assert tropicalize(parse("(x*y)^2/z^5000")) == "2*(x + y) - 5000*z"
    assert trop_eval(parse("(x*y)^2/z^5000"), {"x": 1, "y": 2, "z": -1}) == 5006


def test_subtraction_refused_with_path():
    with pytest.raises(TropicalizationError) as info:
        tropicalize(parse("y*(x - 1)"))
    assert info.value.path == (1,)


def test_unit_constant_silent_other_constants_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tropicalize(parse("x + 1"))  # no warning
    with pytest.warns(NonUnitConstantWarning):
        assert tropicalize(parse("2*x")) == "0 + x"


def test_trop_json_and_pretty():
    assert tropicalize(parse("l1/l2 + l3")) == "max(l1 - l2, l3)"
    assert tropicalize(parse("l1*l2 + m1/l1")) == "max(l1 + l2, m1 - l1)"


# --- identity rows read in (max, +) ---------------------------------------------------


def test_translation_invariance_of_max():
    rows = [tree_row({}, parse("(x + y)*z"), parse("x*z + y*z"))]
    assert check_identity_rows(("x", "y", "z"), rows, Box(_box("xyz")), 300).ok


def test_distinct_programs_detected():
    verdict = check_identity_rows(("x", "y"), [tree_row({}, parse("x + y"), parse("x*y"))], Box(_box("xy")), 100)
    assert not verdict.ok
    point, lhs, rhs = (verdict.witness[k] for k in ("point", "lhs", "rhs"))
    assert set(verdict.witness) == {"point", "lhs", "rhs"}
    assert max(point["x"], point["y"]) == lhs and point["x"] + point["y"] == rhs


def test_failing_row_witness_names_its_label_and_output():
    # the first point of this stream is x = -20, y = -12, where max(x, y) != x + y
    rows = [({"row": 1}, ((), {"a": var("x"), "b": parse("x + y")}), ((), {"a": var("x"), "b": parse("x*y")}))]
    verdict = check_identity_rows(("x", "y"), rows, Box(_box("xy"), 4), 10)
    point = next(sample_box(_box("xy"), 1, 4))
    assert verdict.trials == 1
    lhs, rhs = max(point.values()), sum(point.values())
    assert verdict.witness == {"row": 1, "output": "b", "point": point, "lhs": lhs, "rhs": rhs}


# --- shadow operators -----------------------------------------------------------------


def test_operator_shifts_adjacent_slots():
    point = {"l1": 3, "l2": -1, "l3": 5}
    assert shadow(2, 1, point, 4) == {"l1": 7, "l2": -5, "l3": 5}


def test_operator_index_zero_wraps():
    point = {"l1": 3, "l2": -1, "l3": 5}
    assert shadow(2, 0, point, 2) == {"l1": 1, "l2": -1, "l3": 7}


def test_operator_zero_is_identity_and_additive():
    rng = random.Random(0)
    for _ in range(200):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, 5)}
        assert shadow(3, 2, point, 0) == point
        c1, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
        assert shadow(3, 2, shadow(3, 2, point, c2), c1) == shadow(3, 2, point, c1 + c2)
        assert sum(shadow(3, 2, point, c1).values()) == sum(point.values())


def test_gamma_shadow_scaling_as_composed_programs():
    # compose gamma_j with the action of e_i symbolically and compare the
    # (max, +) readings of gamma_j o e_i^c and gamma_j * c^a_ij, that is
    # UD(gamma_j) + a_ij * C, as piecewise-linear programs
    n = 2
    model = unit_torus(n)
    rows = []
    for i in range(n + 1):
        action = dict(zip(model.variables, model.actions[i]))
        for j in range(n + 1):
            composed = substitute(model.gamma[j], action)
            shifted = mul(model.gamma[j], pow_(var("c"), model.cartan.a(i, j)))
            rows.append(tree_row({"i": i, "j": j}, composed, shifted))
    assert check_identity_rows(model.variables, rows, Box(_box(model.variables + ("c",))), 200).ok


def test_gamma_shadow_scaling():
    n = 2
    rng = random.Random(1)
    model = unit_torus(n)
    for _ in range(300):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        for i in range(n + 1):
            moved = shadow(n, i, point, c)
            for j in range(n + 1):
                gamma = model.gamma[j]
                assert trop_eval(gamma, moved) == trop_eval(gamma, point) + model.cartan.a(i, j) * c


def test_eps_shadow_drop():
    n = 3
    rng = random.Random(2)
    model = unit_torus(n)
    for _ in range(200):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        for i in range(n + 1):
            moved = shadow(n, i, point, c)
            assert trop_eval(model.eps[i], moved) == trop_eval(model.eps[i], point) - c


# --- tensor split -----------------------------------------------------------------------


def test_split_sums_to_c():
    model = unit_torus(2)
    names = product(model, model).variables
    rows = [tree_row({"i": i}, mul(*product_split_exprs(model, model, i)), var("c")) for i in range(3)]
    assert check_identity_rows(names, rows, Box(_box(names + ("c",))), 500).ok


def test_split_case_analysis():
    # at C = 1 the larger of Phi(x), E(y) receives the increment
    x = {"l1": 10, "l2": 0}   # Phi_1(x) = l1 = 10
    y = {"l1": 0, "l2": 3}    # E_1(y) = l2 = 3
    assert split(1, 1, x, y, 1) == (1, 0)
    y_big = {"l1": 0, "l2": 30}
    assert split(1, 1, x, y_big, 1) == (0, 1)
    tie = {"l1": 0, "l2": 10}
    assert split(1, 1, x, tie, 1) == (1, 0)  # ties go to the left factor


def test_dichotomy_at_unit_parameters():
    rng = random.Random(3)
    for _ in range(1000):
        x = {f"l{k}": rng.randint(-50, 50) for k in (1, 2, 3)}
        y = {f"l{k}": rng.randint(-50, 50) for k in (1, 2, 3)}
        for c in (1, -1):
            c1, c2 = split(2, 0, x, y, c)
            assert sorted((c1, c2)) == sorted((c, 0))
            x2, y2 = pair_shadow(2, 0, x, y, c)
            assert (x2 != x) + (y2 != y) == 1


# --- combinatorial R ---------------------------------------------------------------------


def test_combinatorial_r_window_program():
    # l'_1 = m_1 + UDP_1 - UDP_0 with UDP_i a max of two window sums
    e = build_r_map(1).l_out[0]
    env = {"l1": 0, "l2": 4, "m1": 2, "m2": 3}
    udp0 = max(0 + 4 + 2, 4 + 2 + 3)
    udp1 = max(4 + 0 + 3, 0 + 3 + 2)
    assert trop_eval(e, env) == 2 + udp1 - udp0


def test_combinatorial_r_homogeneous_fixed_point():
    for n in (1, 2, 3):
        l0 = {f"l{k}": 7 for k in range(1, n + 2)}
        m0 = {f"l{k}": -3 for k in range(1, n + 2)}
        assert apply_combinatorial_r(n, l0, m0) == (m0, l0)


def test_combinatorial_r_swaps_sums():
    rng = random.Random(4)
    for n in (1, 2):
        for _ in range(300):
            l = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
            m = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
            l2, m2 = apply_combinatorial_r(n, l, m)
            assert sum(l2.values()) == sum(m.values())
            assert sum(m2.values()) == sum(l.values())


def test_combinatorial_r_braid():
    rng = random.Random(5)
    n = 1
    for _ in range(200):
        triple = tuple(
            {f"l{k}": rng.randint(-30, 30) for k in range(1, n + 2)} for _ in range(3)
        )

        def act(tr, pos):
            if pos == 0:
                a, b = apply_combinatorial_r(n, tr[0], tr[1])
                return (a, b, tr[2])
            a, b = apply_combinatorial_r(n, tr[1], tr[2])
            return (tr[0], a, b)

        assert act(act(act(triple, 0), 1), 0) == act(act(act(triple, 1), 0), 1)


def test_combinatorial_r_commutes_with_shadows():
    rng = random.Random(6)
    n = 2
    for _ in range(200):
        x = {f"l{k}": rng.randint(-30, 30) for k in range(1, n + 2)}
        y = {f"l{k}": rng.randint(-30, 30) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        i = rng.randrange(n + 1)
        ax, ay = pair_shadow(n, i, x, y, c)
        rx, ry = apply_combinatorial_r(n, x, y)
        assert apply_combinatorial_r(n, ax, ay) == pair_shadow(n, i, rx, ry, c)


# --- the readings against the reference walker -------------------------------------------


def _reference(exprs, point):
    """The (max, +) tree walk of each expression, as a list."""
    return [_walk(e, point) for e in exprs]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_readings_match_the_reference_walker(n):
    rng = random.Random(7 + n)
    model = unit_torus(n)
    z = product(model, model)
    sys_lm, sys_ml = product_systems(n, Fraction(1), Fraction(1))
    inst = build_r_map(n)
    names = model.variables
    for _ in range(50):
        x = {v: rng.randint(-50, 50) for v in names}
        y = {v: rng.randint(-50, 50) for v in names}
        c = rng.randint(-20, 20)
        pair = pack_pair(x, y)
        for i in model.cartan.labels:
            assert shadow(n, i, x, c) == dict(zip(names, _reference(model.actions[i], x | {"c": c})))
            split_exprs = product_split_exprs(model, model, i)
            assert list(split(n, i, x, y, c)) == _reference(split_exprs, pair | {"c": c})
            assert pack_pair(*pair_shadow(n, i, x, y, c)) == dict(
                zip(z.variables, _reference(z.actions[i], pair | {"c": c}))
            )
            for e in (model.gamma[i], model.eps[i], z.gamma[i], z.eps[i]):
                assert [trop_eval(e, pair | x)] == _reference([e], pair | x)
        for system in (sys_lm, sys_ml):
            table = [system.eps_at(*J) for J in system.intervals()]
            assert [trop_eval(e, pair) for e in table] == _reference(table, pair)
        env = x | {f"m{k}": y[f"l{k}"] for k in range(1, n + 2)}
        expected = _reference(inst.l_out + inst.m_out, env)
        assert apply_combinatorial_r(n, x, y) == (
            dict(zip(names, expected[: n + 1])),
            dict(zip(names, expected[n + 1 :])),
        )


# --- the ud rows against the shadow route ---------------------------------------------


def _shadow_route(check, n, point, label, outputs):
    """The sides of one ud row at ``point``, computed through shadow, split and apply_combinatorial_r."""
    model = unit_torus(n)
    names, labels, a = model.variables, model.cartan.labels, model.cartan.a
    x, y = split_pair(point, names, names) if "l1.x" in point else (None, None)
    c = point.get("s1", point.get("c"))
    i = label.get("i")
    if check == "ud-gamma-shadow":
        moved = shadow(n, i, point, c)
        lhs = [trop_eval(model.gamma[j], moved) for j in labels]
        return lhs, [trop_eval(model.gamma[j], point) + a(i, j) * c for j in labels]
    if check == "ud-eps-shadow":
        j = label["j"]
        moved = shadow(n, j, point, c)
        lhs = [trop_eval(model.eps[k], moved) for k in outputs]
        return lhs, [trop_eval(model.eps[k], point) - c * (k == j) for k in outputs]
    if check == "ud-operator-sum" and outputs is None:  # the coordinate sum
        return [sum(shadow(n, i, point, c).values())], [sum(point[v] for v in names)]
    if check == "ud-operator-sum":  # the group law
        twice = shadow(n, i, shadow(n, i, point, point["s2"]), c)
        return list(twice.values()), list(shadow(n, i, point, c + point["s2"]).values())
    if check == "ud-split":
        return [sum(split(n, i, x, y, c))], [c]
    if check == "ud-levels":
        l2, m2 = apply_combinatorial_r(n, x, y)
        return [sum(l2.values()), sum(m2.values())], [sum(y.values()), sum(x.values())]
    if check in ("ud-r-eps", "ud-r-gamma"):
        table = getattr(product(model, model), check.removeprefix("ud-r-"))
        image = pack_pair(*apply_combinatorial_r(n, x, y))
        return [trop_eval(table[k], point) for k in labels], [trop_eval(table[k], image) for k in labels]
    if check == "ud-r-commutation":
        lhs = pack_pair(*apply_combinatorial_r(n, *pair_shadow(n, i, x, y, c)))
        rhs = pack_pair(*pair_shadow(n, i, *apply_combinatorial_r(n, x, y), c))
        return list(lhs.values()), list(rhs.values())
    if check == "ud-r-braid":
        def act(triple, pos):
            if pos == 0:
                return (*apply_combinatorial_r(n, triple[0], triple[1]), triple[2])
            return (triple[0], *apply_combinatorial_r(n, triple[1], triple[2]))

        sides = []
        for order in ((0, 1, 0), (1, 0, 1)):
            triple = tuple({v: point[f"{v}.{t}"] for v in names} for t in "abc")
            for pos in order:
                triple = act(triple, pos)
            sides.append([value for part in triple for value in part.values()])
        return tuple(sides)
    assert check == "ud-product-eps-shadow"
    sys_lm, sys_ml = product_systems(n, Fraction(1), Fraction(1))
    image = pack_pair(*apply_combinatorial_r(n, x, y))
    lhs = [trop_eval(sys_lm.eps_at(*J), point) for J in outputs]
    return lhs, [trop_eval(sys_ml.eps_at(*J), image) for J in outputs]


def test_rows_cover_the_ud_checks():
    assert set(ROWS) | {"ud-dichotomy"} == {c for c, info in REGISTRY.items() if info.suite == "ud"}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("check", list(ROWS))
def test_rows_match_the_shadow_route(check, n):
    # every ud row's (max, +) sides against the same quantities computed the
    # way the hand-written point loops computed them
    names, scalars, rows = ROWS[check](n)
    plan = row_plan(names, rows)
    for point in sample_box(_box(names + scalars), 200, seed=n):
        for label, lhs, rhs, outputs in plan:
            route = _shadow_route(check, n, point, label, outputs)
            assert (maxplus_side(names, lhs, point), maxplus_side(names, rhs, point)) == route, (label, point)
