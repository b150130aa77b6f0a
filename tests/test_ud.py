import random
import warnings
from fractions import Fraction

import pytest

from gcrystal.crystal import pack_pair, product, product_split_exprs
from gcrystal.expr import mul, parse, pow_, substitute, var
from gcrystal.rmap import product_systems, unit_r_map
from gcrystal.ud import (
    NonUnitConstantWarning,
    TAdd,
    TConst,
    TMax,
    TSub,
    TVar,
    TropicalizationError,
    apply_combinatorial_r,
    check_tropical_identity,
    pair_shadow,
    reference_trop_eval,
    shadow,
    split,
    trop_eval,
    trop_pretty,
    trop_to_json_obj,
    tropicalize,
    unit_torus,
)


# --- compilation -----------------------------------------------------------------


def test_quotient_compiles_to_difference():
    assert tropicalize(parse("l1/l2")) == TSub(TVar("l1"), TVar("l2"))


def test_sum_compiles_to_max_idempotently():
    e = parse("x + x")
    assert tropicalize(e) == TMax(TVar("x"), TVar("x"))
    assert trop_eval(e, {"x": 9}) == 9


def test_two_term_window_sum_compiles_to_max_of_sums():
    # the n = 1 window polynomial: l1 l2 m1 + l2 m1 m2
    t = tropicalize(parse("l1*l2*m1 + l2*m1*m2"))
    expected = TMax(
        TAdd(TAdd(TVar("l1"), TVar("l2")), TVar("m1")),
        TAdd(TAdd(TVar("l2"), TVar("m1")), TVar("m2")),
    )
    assert t == expected


def test_structural_homomorphism():
    from gcrystal.expr import add, mul, parse

    a, b = parse("x*y"), parse("z + w")
    assert tropicalize(mul(a, b)) == TAdd(tropicalize(a), tropicalize(b))
    assert tropicalize(add(a, b)) == TMax(tropicalize(a), tropicalize(b))


def test_powers_unroll():
    assert tropicalize(parse("x^3")) == TAdd(TAdd(TVar("x"), TVar("x")), TVar("x"))
    assert tropicalize(parse("x^0")) == TConst(0)
    assert tropicalize(parse("x^-2")) == TSub(TConst(0), TAdd(TVar("x"), TVar("x")))


def test_subtraction_refused_with_path():
    with pytest.raises(TropicalizationError) as info:
        tropicalize(parse("y*(x - 1)"))
    assert info.value.path == (1,)


def test_unit_constant_silent_other_constants_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tropicalize(parse("x + 1"))  # no warning
    with pytest.warns(NonUnitConstantWarning):
        assert tropicalize(parse("2*x")) == TAdd(TConst(0), TVar("x"))


def test_trop_json_and_pretty():
    t = tropicalize(parse("l1/l2 + l3"))
    assert trop_pretty(t) == "max(l1 - l2, l3)"
    assert trop_to_json_obj(t)["op"] == "max"


# --- identity checking ----------------------------------------------------------------


def test_translation_invariance_of_max():
    assert check_tropical_identity(parse("(x + y)*z"), parse("x*z + y*z"), samples=300).ok


def test_distinct_programs_detected():
    verdict = check_tropical_identity(parse("x + y"), parse("x*y"), samples=100)
    assert not verdict.ok
    point, lhs, rhs = (verdict.witness[k] for k in ("point", "lhs", "rhs"))
    assert max(point["x"], point["y"]) == lhs and point["x"] + point["y"] == rhs


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
    for i in range(n + 1):
        action = dict(zip(model.variables, model.actions[i]))
        for j in range(n + 1):
            composed = substitute(model.gamma[j], action)
            shifted = mul(model.gamma[j], pow_(var("c"), model.cartan.a(i, j)))
            assert check_tropical_identity(composed, shifted, samples=200).ok


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
    for i in range(3):
        c1, c2 = product_split_exprs(model, model, i)
        assert check_tropical_identity(mul(c1, c2), var("c"), samples=500).ok


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
    e = unit_r_map(1).l_out[0]
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
    """reference_trop_eval(tropicalize(e)) of each expression, as a list."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitConstantWarning)
        return [reference_trop_eval(tropicalize(e), point) for e in exprs]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_readings_match_the_reference_walker(n):
    rng = random.Random(7 + n)
    model = unit_torus(n)
    z = product(model, model)
    sys_lm, sys_ml = product_systems(n, Fraction(1), Fraction(1))
    inst = unit_r_map(n)
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
