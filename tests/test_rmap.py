import pytest

from gcrystal.arith import SampleSpec, rat, sample_points
from gcrystal.expr import certify_subtraction_free, evaluate
from gcrystal.rmap import (
    apply_r,
    build_r_map,
    check_braid,
    check_commutation,
    check_cyclic_shift,
    check_diagonal_identity,
    check_epsilon_invariance,
    check_fixed_point,
    check_level_swap,
    check_preserved,
    homogeneous_point,
    p_expr,
    uniqueness_probe,
)

TRIALS = 100


def test_p_expr_smallest_case():
    # n = 1: P_0 = l1 l2 m1 + l2 m1 m2, P_1 = l1 l2 m2 + l1 m1 m2
    env = {"l1": rat(1), "l2": rat(4), "m1": rat(2), "m2": rat(3)}
    assert evaluate(p_expr(1, 0), env) == 1 * 4 * 2 + 4 * 2 * 3
    assert evaluate(p_expr(1, 1), env) == 1 * 4 * 3 + 1 * 2 * 3


def test_p_expr_is_subtraction_free():
    for n in (1, 2, 3):
        for i in range(n + 1):
            assert certify_subtraction_free(p_expr(n, i)).free


def test_apply_r_frozen_example():
    # hand-computed: P_0 = 32, P_1 = 18, so
    # l' = (2*18/32, 3*32/18) and m' = (1*32/18, 4*18/32)
    inst = build_r_map(1, rat(4), rat(6))
    l = {"l1": rat(1), "l2": rat(4)}
    m = {"l1": rat(2), "l2": rat(3)}
    l2, m2 = apply_r(inst, l, m)
    assert l2 == {"l1": rat(9, 8), "l2": rat(16, 3)}
    assert m2 == {"l1": rat(16, 9), "l2": rat(9, 4)}
    assert l2["l1"] * l2["l2"] == 6 and m2["l1"] * m2["l2"] == 4


def test_level_swap():
    for n, ll, lr in ((1, rat(4), rat(6)), (2, rat(4), rat(9)), (3, rat(5, 2), rat(7))):
        assert check_level_swap(n, ll, lr, TRIALS).ok


def test_homogeneous_fixed_point_swaps():
    for n in (1, 2, 3):
        assert check_fixed_point(n, rat(2), rat(3)).ok
        assert check_fixed_point(n, rat(5, 3), rat(7, 2)).ok


def test_diagonal_identity():
    assert check_diagonal_identity(2, rat(8), 20).ok
    assert check_diagonal_identity(1, rat(4), 20).ok


@pytest.mark.parametrize("n", [1, 2])
def test_commutation_all_indices(n):
    for i in range(n + 1):
        assert check_commutation(n, rat(4), rat(9), i, 40).ok


@pytest.mark.parametrize("n", [1, 2])
def test_eps_and_gamma_preserved(n):
    for i in range(n + 1):
        assert check_preserved(n, rat(4), rat(9), i, "eps", 40).ok
        assert check_preserved(n, rat(4), rat(9), i, "gamma", 40).ok


def test_braid_consistency():
    assert check_braid(1, (rat(4), rat(6), rat(9)), 50).ok
    assert check_braid(2, (rat(4), rat(9), rat(25)), 25).ok
    # degenerate pair of equal levels still braids
    assert check_braid(1, (rat(4), rat(6), rat(6)), 25).ok


def test_braid_on_homogeneous_triple():
    # every pairwise application just swaps homogeneous points, so both
    # orders reverse the triple
    inst = build_r_map(2, rat(8), rat(27))
    pts = [homogeneous_point(2, rat(2)), homogeneous_point(2, rat(3)), homogeneous_point(2, rat(5))]

    def act(tr, pos):
        if pos == 0:
            a, b = apply_r(inst, tr[0], tr[1])
            return (a, b, tr[2])
        a, b = apply_r(inst, tr[1], tr[2])
        return (tr[0], a, b)

    triple = tuple(pts)
    lhs = act(act(act(triple, 0), 1), 0)
    rhs = act(act(act(triple, 1), 0), 1)
    assert lhs == rhs == (pts[2], pts[1], pts[0])


def test_cyclic_shift_symmetry():
    for n in (1, 2, 3):
        assert check_cyclic_shift(n, rat(4), rat(9), 25).ok


def test_double_application_returns_to_start():
    # R is an involution on these models: applying it twice restores (l, m)
    inst = build_r_map(2, rat(4), rat(9))
    back = build_r_map(2, rat(9), rat(4))
    spec = SampleSpec(
        ("a1", "a2", "a3", "b1", "b2", "b3"),
        positive=True,
        constraints=((("a1", "a2", "a3"), rat(4)), (("b1", "b2", "b3"), rat(9))),
        seed=13,
    )
    for point in sample_points(spec, 20):
        l = {f"l{k}": point[f"a{k}"] for k in (1, 2, 3)}
        m = {f"l{k}": point[f"b{k}"] for k in (1, 2, 3)}
        l2, m2 = apply_r(inst, l, m)
        l3, m3 = apply_r(back, l2, m2)
        assert (l3, m3) == (l, m)


@pytest.mark.parametrize("n", [2, 3])
def test_epsilon_invariance_both_families(n):
    ll, lr = rat(4), rat(9)
    assert check_epsilon_invariance(n, ll, lr, 40, starred=False).ok
    assert check_epsilon_invariance(n, ll, lr, 40, starred=True).ok


def test_starred_pair_invariant_value():
    # the starred adjacent-pair entry of the product system evaluates to
    # l_{i+2} m_{i+2}, manifestly symmetric under the swap
    from gcrystal.crystal import pack_pair
    from gcrystal.rmap import product_systems

    n = 3
    sys_lm, _ = product_systems(n, rat(4), rat(9))
    spec = SampleSpec(
        tuple(f"a{k}" for k in range(1, 5)) + tuple(f"b{k}" for k in range(1, 5)),
        positive=True,
        constraints=(
            (tuple(f"a{k}" for k in range(1, 5)), rat(4)),
            (tuple(f"b{k}" for k in range(1, 5)), rat(9)),
        ),
        seed=3,
    )
    for point in sample_points(spec, 10):
        l = {f"l{k}": point[f"a{k}"] for k in range(1, 5)}
        m = {f"l{k}": point[f"b{k}"] for k in range(1, 5)}
        packed = pack_pair(l, m)
        for a in range(n - 1):
            got = evaluate(sys_lm.star_at(a, a + 1), packed)
            assert got == l[f"l{a + 3}"] * m[f"l{a + 3}"]


# --- uniqueness probe -----------------------------------------------------------------


def test_uniqueness_probe_forced_solution():
    report = uniqueness_probe(2, rat(2), rat(3))
    assert report.fixed_point_verified
    assert report.pair_product_forced == 6
    assert report.forced_left == (rat(3), rat(3), rat(3))
    assert report.forced_right == (rat(2), rat(2), rat(2))
    assert report.solution_matches_swap
    assert report.equations_hold_at_solution
    assert report.linear_coefficient != 0
    assert report.perturbations_all_violate
    assert report.orbit_density_assumed


def test_uniqueness_probe_other_sizes_and_values():
    report = uniqueness_probe(3, rat(5, 2), rat(1, 3))
    assert report.solution_matches_swap and report.equations_hold_at_solution
    report = uniqueness_probe(4, rat(7), rat(2))
    assert report.solution_matches_swap and report.perturbations_all_violate


def test_uniqueness_probe_equal_parameters():
    report = uniqueness_probe(2, rat(5), rat(5))
    assert report.fixed_point_verified and report.solution_matches_swap


def test_uniqueness_probe_validation():
    with pytest.raises(ValueError):
        uniqueness_probe(1, rat(2), rat(3))
    with pytest.raises(ValueError):
        uniqueness_probe(2, rat(-2), rat(3))


def test_homogeneous_point_helper():
    assert homogeneous_point(2, rat(5)) == {"l1": rat(5), "l2": rat(5), "l3": rat(5)}


def test_apply_r_runs_the_instance_as_written():
    import dataclasses

    from gcrystal.expr import reference_evaluate

    inst = build_r_map(2, rat(6), rat(5))
    assert build_r_map(2, rat(1), rat(1)).l_out is inst.l_out  # trees built once per n
    l = {"l1": rat(1, 2), "l2": rat(3), "l3": rat(4)}
    m = {"l1": rat(5, 7), "l2": rat(1), "l3": rat(7)}
    env = {f"l{k}": l[f"l{k}"] for k in (1, 2, 3)} | {f"m{k}": m[f"l{k}"] for k in (1, 2, 3)}
    l2, m2 = apply_r(inst, l, m)
    assert list(l2.values()) == [reference_evaluate(e, env) for e in inst.l_out]
    assert list(m2.values()) == [reference_evaluate(e, env) for e in inst.m_out]
    # a perturbed instance is compiled from its own expressions
    swapped = dataclasses.replace(inst, l_out=inst.m_out, m_out=inst.l_out)
    assert apply_r(swapped, l, m) == (m2, l2)
