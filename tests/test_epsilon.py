from math import comb

import pytest

from gcrystal.arith import rat, sample_point
from gcrystal.crystal import product
from gcrystal.epsilon import (
    EpsilonSystem,
    check_alternating_identities,
    check_epsilon_axiom,
    check_pair_identity,
    check_partition_sum,
    check_well_defined,
    enumerate_partitions,
    eps_star_from_eps,
    local_epsilon,
    product_epsilon,
    restrict_model,
    system_from_eps,
)
from gcrystal.expr import (
    Mul,
    Sub,
    Var,
    evaluate,
    identical_on_domain,
    parse,
    vanishes_on_domain,
    var,
)
from gcrystal.models import (
    D5_CHAINS,
    affine_a_local_system,
    affine_a_model,
    affine_d5_model,
    borel_epsilon_system,
    borel_model,
    d5_local_tables,
)

TRIALS = 100


# --- partitions ------------------------------------------------------------------


def test_partitions_of_singleton():
    assert enumerate_partitions((0, 0)) == [((0, 0),)]


def test_partitions_of_pair():
    assert enumerate_partitions((0, 1)) == [((0, 1),), ((0, 0), (1, 1))]


def test_partitions_of_triple():
    parts = enumerate_partitions((0, 2))
    assert len(parts) == 4
    assert parts[0] == ((0, 2),)
    assert ((0, 0), (1, 1), (2, 2)) in parts
    assert ((0, 0), (1, 2)) in parts and ((0, 1), (2, 2)) in parts


def test_partition_counts_are_binomial():
    # partitions with k blocks of an m-interval <-> breakpoint subsets
    for m in range(1, 7):
        parts = enumerate_partitions((0, m - 1))
        assert len(parts) == 2 ** (m - 1)
        for k in range(1, m + 1):
            assert sum(1 for p in parts if len(p) == k) == comb(m - 1, k - 1)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions((2, 1))


# --- the star table from partition sums ----------------------------------------------


def _symbol_table(n):
    names = {}
    for a in range(n):
        for b in range(a, n):
            names[(a, b)] = var("e" + "".join(str(k + 1) for k in range(a, b + 1)))
    return names


def test_star_of_singleton_is_eps():
    table = _symbol_table(1)
    assert eps_star_from_eps(table, (0, 0)) == table[(0, 0)]


def test_star_of_pair_matches_display():
    table = _symbol_table(2)
    expected = Sub(Mul(Var("e1"), Var("e2")), Var("e12"))
    assert eps_star_from_eps(table, (0, 1)) == expected


def test_star_of_triple_matches_display():
    table = _symbol_table(3)
    generated = eps_star_from_eps(table, (0, 2))
    explicit = parse("e123 - e1*e23 - e12*e3 + e1*e2*e3")
    from gcrystal.arith import SampleSpec

    spec = SampleSpec(tuple(sorted(v.name for v in table.values())), seed=1)
    assert identical_on_domain(generated, explicit, spec, 50).ok


def test_system_from_eps_interval_bookkeeping():
    system = system_from_eps((1, 2), _symbol_table(2))
    assert set(system.intervals()) == {(0, 0), (1, 1), (0, 1)}
    assert evaluate(system.eps_at(1, 0), {}) == 1  # empty interval
    with pytest.raises(ValueError):
        EpsilonSystem((1, 2), {}, {})


# --- the triangular-matrix system ------------------------------------------------------


@pytest.fixture(scope="module")
def borel3():
    return borel_model(3), borel_epsilon_system(3)


def test_borel_star_pair_display(borel3):
    _, system = borel3
    assert system.eps_star[(0, 1)] == Sub(Mul(Var("u1"), Var("u2")), Var("u12"))


def test_borel_partition_sums(borel3):
    model, system = borel3
    for interval in system.intervals():
        assert check_partition_sum(system, model, interval, TRIALS).ok


def test_borel_action_table(borel3):
    model, system = borel3
    assert check_epsilon_axiom(system, model, TRIALS).ok


def test_borel_action_table_boundary_case():
    # right-boundary correction, checked directly at one point:
    # eps_J(e_{t+1}^c x) = eps_J(x) + (c-1) eps_[s,t+1](x) / eps_{t+1}(x)
    from gcrystal.crystal import apply_e

    model = borel_model(3)
    system = borel_epsilon_system(3)
    x = sample_point(model.domain_spec(17))
    c = rat(8, 3)
    y = apply_e(model, 3, c, x)  # t+1 = 3 for the interval [1, 2]
    lhs = evaluate(system.eps_at(0, 1), y)
    rhs = evaluate(system.eps_at(0, 1), x) + (c - 1) * evaluate(
        system.eps_at(0, 2), x
    ) / evaluate(system.eps_at(2, 2), x)
    assert lhs == rhs


def test_borel_alternating_identities(borel3):
    model, system = borel3
    for interval in system.intervals():
        assert check_alternating_identities(system, model, interval, TRIALS).ok


def test_borel_well_defined(borel3):
    model, system = borel3
    for i, j in ((1, 2), (2, 3), (1, 3)):
        assert check_well_defined(system, model, i, j, 50).ok


def test_borel_braid_closed_forms(borel3):
    # both sides of the braid relations evaluate to one displayed closed
    # form; checking against it is independent of the boundary-case code
    from gcrystal.arith import sample_points
    from gcrystal.crystal import apply_word

    model, system = borel3
    a, b = 1, 2  # positions of J = chain labels 2..3; left neighbor is position 0
    spec = model.domain_spec(41, extra=("s1", "s2"))
    for point in sample_points(spec, 30):
        c1, c2 = point["s1"], point["s2"]
        x = {k: v for k, v in point.items() if k not in ("s1", "s2")}

        def ev(expr, at=x):
            return evaluate(expr, at)

        # acting on the left edge: e_{s-1}^{c1} e_s^{c1c2} e_{s-1}^{c2},
        # rightmost factor first, with s-1 = label 1 and s = label 2
        moved = apply_word(model, [(1, c2), (2, c1 * c2), (1, c1)], x)
        pair = c1 * ev(system.eps_at(0, 1)) + ev(system.star_at(0, 1))
        expected = ev(system.eps_at(a, b)) + (1 - c1 * c2) * ev(system.eps_at(0, b)) * ev(
            system.eps_at(1, 1)
        ) / (c2 * pair)
        assert evaluate(system.eps_at(a, b), moved) == expected
        expected_star = ev(system.star_at(a, b)) + (c1 * c2 - 1) * ev(
            system.star_at(0, b)
        ) * ev(system.eps_at(1, 1)) / pair
        assert evaluate(system.star_at(a, b), moved) == expected_star

        # acting on the right edge of J' = positions 0..1 (labels 1..2):
        # word e_t^{c1} e_{t+1}^{c1c2} e_t^{c2} with t = label 2
        moved = apply_word(model, [(2, c2), (3, c1 * c2), (2, c1)], x)
        pair = ev(system.eps_at(1, 2)) + c2 * ev(system.star_at(1, 2))
        expected = ev(system.eps_at(0, 1)) + (c1 * c2 - 1) * ev(system.eps_at(0, 2)) * ev(
            system.eps_at(1, 1)
        ) / pair
        assert evaluate(system.eps_at(0, 1), moved) == expected
        expected_star = ev(system.star_at(0, 1)) + (1 - c1 * c2) * ev(
            system.star_at(0, 2)
        ) * ev(system.eps_at(1, 1)) / (c1 * pair)
        assert evaluate(system.star_at(0, 1), moved) == expected_star


def test_borel_well_defined_rejects_other_patterns(borel3):
    model, system = borel3
    with pytest.raises(ValueError):
        check_well_defined(system, model, 1, 1, 5)


def test_borel_pair_identity(borel3):
    model, system = borel3
    for a in range(len(system.chain) - 1):
        assert check_pair_identity(system, model, a, TRIALS).ok


def test_alternating_sum_via_minors_reproduces_partition_sum(borel3):
    # the minor table satisfies the convolution identities, and a table
    # satisfying them is forced to match the partition-sum expansion
    model, system = borel3
    for interval in system.intervals():
        generated = eps_star_from_eps(system.eps, interval)
        assert identical_on_domain(
            system.eps_star[interval], generated, model.domain_spec(23), 50
        ).ok


# --- local systems in the fork-diagram model ----------------------------------------


@pytest.mark.parametrize("chain", D5_CHAINS)
def test_d5_local_systems_pass_everything(chain):
    model = affine_d5_model(rat(6))
    eps, star = d5_local_tables(chain)
    restricted, system = local_epsilon(model, chain, eps, star)
    assert check_epsilon_axiom(system, restricted, 60).ok
    for interval in system.intervals():
        assert check_partition_sum(system, restricted, interval, 40).ok
        assert check_alternating_identities(system, restricted, interval, 40).ok


def test_d5_displayed_top_entries():
    # the full-chain window products
    eps, star = d5_local_tables((0, 2, 3, 4))
    point = {
        "l1": rat(2), "l2": rat(3), "l3": rat(5), "l4": rat(7), "l5": rat(11),
        "lb4": rat(13), "lb3": rat(17), "lb2": rat(19), "lb1": rat(23),
    }
    assert evaluate(eps[(0, 3)], point) == 2 * 3 * 5 * 7 * 11
    assert evaluate(star[(0, 3)], point) == 2 * 19 * 17 * 13 * 11
    eps, star = d5_local_tables((0, 2, 3, 5))
    assert evaluate(eps[(0, 3)], point) == 2 * 3 * 5 * 7
    assert evaluate(star[(0, 3)], point) == 2 * 19 * 17 * 13


def test_d5_chain_restriction_is_type_a():
    model = affine_d5_model(rat(6))
    restricted = restrict_model(model, (0, 2, 3, 4))
    assert restricted.cartan.labels == (0, 2, 3, 4)
    assert restricted.cartan.a(0, 2) == -1 and restricted.cartan.a(0, 3) == 0
    with pytest.raises(ValueError):
        restrict_model(model, (0, 1, 2, 3))  # 0 and 1 are not joined


def test_local_epsilon_generates_star_when_omitted():
    model = affine_d5_model(rat(6))
    eps, star = d5_local_tables((0, 2, 3, 4))
    restricted, system = local_epsilon(model, (0, 2, 3, 4), eps)
    for interval in system.intervals():
        assert identical_on_domain(
            system.eps_star[interval], star[interval], restricted.domain_spec(5), 30
        ).ok


# --- the window-product system on the torus -------------------------------------------


def test_torus_local_system_star_vanishes():
    model = restrict_model(affine_a_model(3, rat(4)), (1, 2, 3))
    system = affine_a_local_system(3)
    spec = model.domain_spec(31)
    for a, b in system.intervals():
        if a < b:
            assert vanishes_on_domain(system.eps_star[(a, b)], spec, 30).ok


def test_torus_local_system_axioms():
    model = restrict_model(affine_a_model(3, rat(4)), (1, 2, 3))
    system = affine_a_local_system(3)
    assert check_epsilon_axiom(system, model, TRIALS).ok
    for interval in system.intervals():
        assert check_alternating_identities(system, model, interval, 40).ok


def test_torus_window_products():
    system = affine_a_local_system(3)
    point = {"l1": rat(2), "l2": rat(3), "l3": rat(5), "l4": rat(7)}
    assert evaluate(system.eps_at(0, 2), point) == 3 * 5 * 7
    assert evaluate(system.eps_at(1, 2), point) == 5 * 7


# --- products of epsilon systems --------------------------------------------------------


def test_product_epsilon_singleton_reduces_to_crystal_formula():
    n = 2
    chain = (1, 2)
    left = restrict_model(affine_a_model(n, rat(4)), chain)
    right = restrict_model(affine_a_model(n, rat(9)), chain)
    base = affine_a_local_system(n)
    table = product_epsilon(base, base, left)
    z = product(left, right)
    spec = z.domain_spec(3)
    for p, i in enumerate(chain):
        assert identical_on_domain(table.eps_at(p, p), z.eps[i], spec, 50).ok


def test_product_epsilon_three_interval_expansion():
    # eps_[1,3](x,y) = eps_123(x) + eps_1(y) eps_23(x)/g1(x)
    #                + eps_12(y) eps_3(x)/(g1(x) g2(x)) + eps_123(y)/(g1 g2 g3)(x)
    n = 3
    chain = (1, 2, 3)
    left = restrict_model(affine_a_model(n, rat(4)), chain)
    base = affine_a_local_system(n)
    table = product_epsilon(base, base, left)
    lx = {f"l{k}": rat(p) for k, p in zip(range(1, 5), (2, 3, 5, 7))}
    ly = {f"l{k}": rat(p) for k, p in zip(range(1, 5), (11, 13, 17, 19))}
    from gcrystal.crystal import pack_pair

    point = pack_pair(lx, ly)

    def ev(table_expr):
        return evaluate(table_expr, point)

    def e(pt, a, b):
        return evaluate(base.eps_at(a, b), pt)

    def g(pt, i):
        return evaluate(left.gamma[i], pt)

    expected = (
        e(lx, 0, 2)
        + e(ly, 0, 0) * e(lx, 1, 2) / g(lx, 1)
        + e(ly, 0, 1) * e(lx, 2, 2) / (g(lx, 1) * g(lx, 2))
        + e(ly, 0, 2) / (g(lx, 1) * g(lx, 2) * g(lx, 3))
    )
    assert ev(table.eps_at(0, 2)) == expected


def test_product_epsilon_passes_axioms_on_product_model():
    n = 2
    chain = (1, 2)
    left = restrict_model(affine_a_model(n, rat(4)), chain)
    right = restrict_model(affine_a_model(n, rat(9)), chain)
    base = affine_a_local_system(n)
    table = product_epsilon(base, base, left)
    z = product(left, right)
    assert check_epsilon_axiom(table, z, 60).ok
    for interval in table.intervals():
        assert check_partition_sum(table, z, interval, 40).ok
        assert check_alternating_identities(table, z, interval, 40).ok


def test_product_epsilon_on_borel_factors():
    n = 2
    model = borel_model(n)
    system = borel_epsilon_system(n)
    table = product_epsilon(system, system, model)
    z = product(model, model)
    assert check_epsilon_axiom(table, z, 40).ok
    for interval in table.intervals():
        assert check_partition_sum(table, z, interval, 30).ok
        assert check_alternating_identities(table, z, interval, 30).ok


def test_product_epsilon_rejects_chain_mismatch():
    with pytest.raises(ValueError):
        product_epsilon(
            affine_a_local_system(2), affine_a_local_system(3), affine_a_model(2, rat(4))
        )


# --- programs compile once per check call ----------------------------------------------


def _borel_sl3_axiom(trials):
    return check_epsilon_axiom(borel_epsilon_system(2), borel_model(2), trials, 3)


def _borel_sl3_group_law(trials):
    from gcrystal.crystal import group_law_row, run_plan

    model = borel_model(2)
    return run_plan(model.plan([group_law_row(model, 1)], ("s1", "s2")), trials, 3)


def _rmap_commutation(trials):
    from gcrystal.crystal import run_plan
    from gcrystal.rmap import commutation_rows

    x, y = affine_a_model(2, rat(4)), affine_a_model(2, rat(9))
    z = product(x, y)
    return run_plan(z.plan(commutation_rows(z, product(y, x), (1,)), ("s1",)), trials, 3)


def _rmap_braid(trials):
    from gcrystal.crystal import run_plan
    from gcrystal.rmap import braid_plan

    return run_plan(braid_plan(2, (rat(4), rat(9), rat(25))), trials, 3)


@pytest.mark.parametrize(
    "check",
    [_borel_sl3_group_law, _borel_sl3_axiom, _rmap_commutation, _rmap_braid],
    ids=["crystal", "epsilon", "rmap-commutation", "rmap-braid"],
)
def test_programs_compile_once_per_check_call(check, monkeypatch):
    # fresh models, systems and R trees each time, so no program is cached from before
    import gcrystal.crystal as crystal
    import gcrystal.expr as expr

    true_compile = expr.compile_program
    counts = []

    def counting(roots):
        counts[-1] += 1
        return true_compile(roots)

    monkeypatch.setattr(expr, "compile_program", counting)
    monkeypatch.setattr(crystal, "compile_program", counting)
    for trials in (5, 50):
        counts.append(0)
        assert check(trials).ok
    assert counts[0] == counts[1] > 0
