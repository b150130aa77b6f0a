import random
import warnings

import pytest

from gcrystal.expr import parse
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
    combinatorial_r,
    trop_eval,
    trop_free_variables,
    trop_pretty,
    trop_to_json_obj,
    tropicalize,
    ud_crystal_operator,
    ud_eps,
    ud_gamma,
    ud_product_operator,
    ud_tensor_coeffs,
)


# --- compilation -----------------------------------------------------------------


def test_quotient_compiles_to_difference():
    assert tropicalize(parse("l1/l2")) == TSub(TVar("l1"), TVar("l2"))


def test_sum_compiles_to_max_idempotently():
    t = tropicalize(parse("x + x"))
    assert t == TMax(TVar("x"), TVar("x"))
    assert trop_eval(t, {"x": 9}) == 9


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
    assert trop_free_variables(t) == {"l1", "l2", "l3"}


# --- identity checking ----------------------------------------------------------------


def test_translation_invariance_of_max():
    t1 = tropicalize(parse("(x + y)*z"))
    t2 = tropicalize(parse("x*z + y*z"))
    assert check_tropical_identity(t1, t2, samples=300).ok


def test_distinct_programs_detected():
    verdict = check_tropical_identity(TMax(TVar("x"), TVar("y")), TAdd(TVar("x"), TVar("y")), samples=100)
    assert not verdict.ok
    point, lhs, rhs = (verdict.witness[k] for k in ("point", "lhs", "rhs"))
    assert max(point["x"], point["y"]) == lhs and point["x"] + point["y"] == rhs


# --- shadow operators -----------------------------------------------------------------


def test_operator_shifts_adjacent_slots():
    op = ud_crystal_operator(2, 1)
    point = {"l1": 3, "l2": -1, "l3": 5}
    assert op.apply(point, c=4) == {"l1": 7, "l2": -5, "l3": 5}


def test_operator_index_zero_wraps():
    op = ud_crystal_operator(2, 0)
    point = {"l1": 3, "l2": -1, "l3": 5}
    assert op.apply(point, c=2) == {"l1": 1, "l2": -1, "l3": 7}


def test_operator_zero_is_identity_and_additive():
    op = ud_crystal_operator(3, 2)
    rng = random.Random(0)
    for _ in range(200):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, 5)}
        assert op.apply(point, c=0) == point
        c1, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
        assert op.apply(op.apply(point, c=c2), c=c1) == op.apply(point, c=c1 + c2)
        assert sum(op.apply(point, c=c1).values()) == sum(point.values())


def test_gamma_shadow_scaling_as_composed_programs():
    # compose UD(gamma_j) with the shadow operator symbolically and compare
    # against UD(gamma_j) + a_ij * C as piecewise-linear programs
    from fractions import Fraction

    from gcrystal.models import affine_a_model
    from gcrystal.ud import trop_substitute

    n = 2
    cartan = affine_a_model(n, Fraction(1)).cartan
    for i in range(n + 1):
        op = ud_crystal_operator(n, i)
        for j in range(n + 1):
            composed = trop_substitute(ud_gamma(n, j), op.exprs)
            shift = ud_gamma(n, j)
            a_ij = cartan.a(i, j)
            for _ in range(abs(a_ij)):
                shift = TAdd(shift, TVar("c")) if a_ij > 0 else TSub(shift, TVar("c"))
            assert check_tropical_identity(composed, shift, samples=200).ok


def test_gamma_shadow_scaling():
    n = 2
    rng = random.Random(1)
    ops = {i: ud_crystal_operator(n, i) for i in range(n + 1)}
    from gcrystal.models import affine_a_model
    from fractions import Fraction

    cartan = affine_a_model(n, Fraction(1)).cartan
    for _ in range(300):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        for i in range(n + 1):
            moved = ops[i].apply(point, c=c)
            for j in range(n + 1):
                assert trop_eval(ud_gamma(n, j), moved) == trop_eval(
                    ud_gamma(n, j), point
                ) + cartan.a(i, j) * c


def test_eps_shadow_drop():
    n = 3
    rng = random.Random(2)
    for _ in range(200):
        point = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        for i in range(n + 1):
            moved = ud_crystal_operator(n, i).apply(point, c=c)
            assert trop_eval(ud_eps(n, i), moved) == trop_eval(ud_eps(n, i), point) - c


# --- tensor split -----------------------------------------------------------------------


def test_split_sums_to_c():
    c1, c2 = ud_tensor_coeffs(2, 1)
    assert check_tropical_identity(TAdd(c1, c2), TVar("c"), samples=500).ok


def test_split_case_analysis():
    # at C = 1 the larger of Phi(x), E(y) receives the increment
    pair = ud_product_operator(1, 1)
    x = {"l1": 10, "l2": 0}   # Phi_1(x) = l1 = 10
    y = {"l1": 0, "l2": 3}    # E_1(y) = l2 = 3
    assert pair.split(x, y, 1) == (1, 0)
    y_big = {"l1": 0, "l2": 30}
    assert pair.split(x, y_big, 1) == (0, 1)
    tie = {"l1": 0, "l2": 10}
    assert pair.split(x, tie, 1) == (1, 0)  # ties go to the left factor


def test_dichotomy_at_unit_parameters():
    rng = random.Random(3)
    pair = ud_product_operator(2, 0)
    for _ in range(1000):
        x = {f"l{k}": rng.randint(-50, 50) for k in (1, 2, 3)}
        y = {f"l{k}": rng.randint(-50, 50) for k in (1, 2, 3)}
        for c in (1, -1):
            c1, c2 = pair.split(x, y, c)
            assert sorted((c1, c2)) == sorted((c, 0))
            x2, y2 = pair.apply(x, y, c)
            assert (x2 != x) + (y2 != y) == 1


# --- combinatorial R ---------------------------------------------------------------------


def test_combinatorial_r_window_program():
    left, _ = combinatorial_r(1)
    # l'_1 = m_1 + UDP_1 - UDP_0 with UDP_i a max of two window sums
    t = left.exprs["l1"]
    env = {"l1": 0, "l2": 4, "m1": 2, "m2": 3}
    udp0 = max(0 + 4 + 2, 4 + 2 + 3)
    udp1 = max(4 + 0 + 3, 0 + 3 + 2)
    assert trop_eval(t, env) == 2 + udp1 - udp0


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
    ops = {i: ud_product_operator(n, i) for i in range(n + 1)}
    for _ in range(200):
        x = {f"l{k}": rng.randint(-30, 30) for k in range(1, n + 2)}
        y = {f"l{k}": rng.randint(-30, 30) for k in range(1, n + 2)}
        c = rng.randint(-10, 10)
        i = rng.randrange(n + 1)
        ax, ay = ops[i].apply(x, y, c)
        rx, ry = apply_combinatorial_r(n, x, y)
        assert apply_combinatorial_r(n, ax, ay) == ops[i].apply(rx, ry, c)


def test_compiled_maps_match_the_reference_walker():
    from gcrystal.ud import reference_trop_eval

    rng = random.Random(7)
    for n in (1, 2, 3):
        left, right = combinatorial_r(n)
        op = ud_crystal_operator(n, 1)
        for _ in range(50):
            l = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
            m = {f"l{k}": rng.randint(-50, 50) for k in range(1, n + 2)}
            env = l | {f"m{k}": m[f"l{k}"] for k in range(1, n + 2)}
            expected = (
                {name: reference_trop_eval(t, env) for name, t in left.exprs.items()},
                {name: reference_trop_eval(t, env) for name, t in right.exprs.items()},
            )
            assert apply_combinatorial_r(n, l, m) == expected
            moved = {name: reference_trop_eval(t, l | {"c": 3}) for name, t in op.exprs.items()}
            assert op.apply(l, c=3) == moved
