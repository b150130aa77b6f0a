import json
import math
import random
from fractions import Fraction

import pytest

from gcrystal import cli
from gcrystal.arith import SampleSpec, rat, sample_points
from gcrystal.expr import (
    certify_subtraction_free,
    evaluate,
    prod,
    program_for,
    reference_evaluate,
    run_maxplus,
    run_pairs,
    tree_program,
    var,
)
from gcrystal.crystal import product, run_plan
from gcrystal.models import affine_a_model
from gcrystal.rmap import (
    apply_r,
    braid_plan,
    braid_rows,
    build_r_map,
    check_fixed_point,
    commutation_rows,
    cyclic_shift_rows,
    diagonal_plan,
    homogeneous_point,
    invariance_row,
    level_swap_rows,
    p_exprs,
    preserved_row,
    r_program,
    r_step,
    uniqueness_probe,
    window_sums,
)

TRIALS = 100


def _torus_products(n, ll, lr):
    """The products X x Y and Y x X of the torus models at levels ``ll`` and ``lr``: R acts on the first."""
    x, y = affine_a_model(n, ll), affine_a_model(n, lr)
    return product(x, y), product(y, x)


def test_p_expr_smallest_case():
    # n = 1: P_0 = l1 l2 m1 + l2 m1 m2, P_1 = l1 l2 m2 + l1 m1 m2
    env = {"l1": rat(1), "l2": rat(4), "m1": rat(2), "m2": rat(3)}
    p0, p1 = p_exprs(1)
    assert evaluate(p0, env) == 1 * 4 * 2 + 4 * 2 * 3
    assert evaluate(p1, env) == 1 * 4 * 3 + 1 * 2 * 3


def test_p_expr_is_subtraction_free():
    for n in (1, 2, 3):
        for p in p_exprs(n):
            assert certify_subtraction_free(p).free


# --- window sums: the transfer-matrix builder against the monomial-by-monomial oracle ---


def _windows(n, i):
    """For k = 1..n+1: the indices (leading m_{i+1}..m_{i+k}, trailing l_{i+k}..l_{i+n+1})."""
    def wrap(k):
        return (k - 1) % (n + 1) + 1

    return [
        ([wrap(i + j) for j in range(1, k + 1)], [wrap(i + j) for j in range(k, n + 2)])
        for k in range(1, n + 2)
    ]


def naive_p_expr(n, i):
    """P_i with every monomial multiplied out on its own: (n+1)(n+2) nodes."""
    terms = [prod([var(f"l{a}") for a in lw] + [var(f"m{b}") for b in mw]) for mw, lw in _windows(n, i)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def naive_window_sums(n, l, m):
    """P_0..P_n in plain Fraction arithmetic; ``l`` and ``m`` are 0-based lists.

    Each monomial is multiplied out in ints and becomes one ``Fraction``.
    """
    def monomial(mw, lw):
        factors = [m[b - 1] for b in mw] + [l[a - 1] for a in lw]
        return Fraction(math.prod(f.numerator for f in factors), math.prod(f.denominator for f in factors))

    return [sum(monomial(mw, lw) for mw, lw in _windows(n, i)) for i in range(n + 1)]


def naive_window_maxima(n, l, m):
    """UDP_0..UDP_n, the max-plus shadow of P_i, in plain int arithmetic."""
    return [
        max(sum(m[b - 1] for b in mw) + sum(l[a - 1] for a in lw) for mw, lw in _windows(n, i))
        for i in range(n + 1)
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_p_expr_matches_naive_window_sums(n):
    rng = random.Random(f"p_expr:{n}")
    names = [f"{c}{k}" for c in "lm" for k in range(1, n + 2)]
    for i, fast in enumerate(p_exprs(n)):
        naive = naive_p_expr(n, i)
        for _ in range(20):
            point = {
                v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50)) for v in names
            }
            assert evaluate(fast, point) == reference_evaluate(naive, point)
            ipoint = {v: rng.randint(-60, 60) for v in names}
            assert run_maxplus(tree_program(fast), ipoint) == run_maxplus(tree_program(naive), ipoint)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_window_sums_at_large_n_match_the_naive_formulas(n):
    # the shared prefix and suffix products against every monomial on its
    # own, exactly and in (max, +), at a few points of each kind
    rng = random.Random(f"window-sums:{n}")
    r = build_r_map(n)
    program = program_for(r, "p", r.p)
    for _ in range(3):
        l, m = (
            [Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99)) for _ in range(n + 1)]
            for _ in range(2)
        )
        lp, mp = ({f"l{k}": v for k, v in enumerate(values, start=1)} for values in (l, m))
        assert window_sums(r, lp, mp) == naive_window_sums(n, l, m)
        li, mi = ([rng.randint(-99, 99) for _ in range(n + 1)] for _ in range(2))
        env = {f"{c}{k}": v for c, values in (("l", li), ("m", mi)) for k, v in enumerate(values, start=1)}
        assert run_maxplus(program, env) == naive_window_maxima(n, li, mi)


@pytest.mark.parametrize("n", [8, 16, 32, 100])
def test_r_program_grows_linearly(n):
    assert len(r_program(build_r_map(n)).code) <= 15 * n + 1


def test_window_sums_at_a_pole():
    # n = 1: P_0 = l2 m1 (l1 + m2), P_1 = l1 m2 (l2 + m1)
    inst = build_r_map(1)
    l = {"l1": rat(1), "l2": rat(-1)}
    m = {"l1": rat(1), "l2": rat(1)}
    assert window_sums(inst, l, m) == [-2, 0]


def test_cli_at_n_64_matches_the_window_sum_formulas(capsys):
    n = 64
    rng = random.Random("rmap-n64")
    l = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(n + 1)]
    m = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(n + 1)]
    argv = ["rmap", "apply", "--n", str(n), "--l", json.dumps([str(v) for v in l]), "--m", json.dumps([str(v) for v in m])]
    assert cli.main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    p = naive_window_sums(n, l, m)
    size = n + 1
    assert [Fraction(v) for v in got["l"]] == [m[i - 1] * p[i % size] / p[i - 1] for i in range(1, size + 1)]
    assert [Fraction(v) for v in got["m"]] == [l[i - 1] * p[i - 1] / p[i % size] for i in range(1, size + 1)]
    assert [Fraction(v) for v in got["levels"]] == [math.prod(m), math.prod(l)]

    li = [rng.randint(-99, 99) for _ in range(n + 1)]
    mi = [rng.randint(-99, 99) for _ in range(n + 1)]
    assert cli.main(["ud", "rmap", "--n", str(n), "--l", json.dumps(li), "--m", json.dumps(mi)]) == 0
    got = json.loads(capsys.readouterr().out)
    u = naive_window_maxima(n, li, mi)
    assert got["l"] == [mi[i - 1] + u[i % size] - u[i - 1] for i in range(1, size + 1)]
    assert got["m"] == [li[i - 1] + u[i - 1] - u[i % size] for i in range(1, size + 1)]


@pytest.mark.parametrize("n", [24, 48])
def test_apply_r_at_large_n_matches_the_window_sum_formulas(n):
    rng = random.Random(f"apply_r:{n}")
    l, m = ([Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(n + 1)] for _ in range(2))
    lp, mp = ({f"l{k}": v for k, v in enumerate(values, start=1)} for values in (l, m))
    r = build_r_map(n)
    l2, m2 = apply_r(r, lp, mp)
    p = naive_window_sums(n, l, m)
    size = n + 1
    assert list(l2.values()) == [m[i - 1] * p[i % size] / p[i - 1] for i in range(1, size + 1)]
    assert list(m2.values()) == [l[i - 1] * p[i - 1] / p[i % size] for i in range(1, size + 1)]
    assert window_sums(r, lp, mp) == p


@pytest.mark.parametrize("n", [32, 64])
def test_window_sum_denominators_stay_within_the_input_denominators(n):
    # each term of P_i reads every coordinate at most once, so a sum over
    # the lcm has a denominator dividing the product of the input ones;
    # adding across would multiply all n+1 terms' denominators together
    rng = random.Random(f"window-bits:{n}")
    r = build_r_map(n)
    point = {f"{c}{k}": (rng.randint(1, 999), rng.randint(1, 999)) for c in "lm" for k in range(1, n + 2)}
    budget = sum(den.bit_length() for _, den in point.values())
    _, dens = run_pairs(program_for(r, "p", r.p), point)
    assert len(dens) == n + 1
    assert max(den.bit_length() for den in dens) <= budget


def test_apply_r_frozen_example():
    # hand-computed: P_0 = 32, P_1 = 18, so
    # l' = (2*18/32, 3*32/18) and m' = (1*32/18, 4*18/32)
    inst = build_r_map(1)
    l = {"l1": rat(1), "l2": rat(4)}
    m = {"l1": rat(2), "l2": rat(3)}
    l2, m2 = apply_r(inst, l, m)
    assert l2 == {"l1": rat(9, 8), "l2": rat(16, 3)}
    assert m2 == {"l1": rat(16, 9), "l2": rat(9, 4)}
    assert l2["l1"] * l2["l2"] == 6 and m2["l1"] * m2["l2"] == 4


def test_level_swap():
    for n, ll, lr in ((1, rat(4), rat(6)), (2, rat(4), rat(9)), (3, rat(5, 2), rat(7))):
        assert run_plan(_torus_products(n, ll, lr)[0].plan(level_swap_rows(n)), TRIALS).ok


def test_homogeneous_fixed_point_swaps():
    for n in (1, 2, 3):
        assert check_fixed_point(n, rat(2), rat(3)).ok
        assert check_fixed_point(n, rat(5, 3), rat(7, 2)).ok


def test_diagonal_identity():
    assert run_plan(diagonal_plan(2, rat(8)), 20).ok
    assert run_plan(diagonal_plan(1, rat(4)), 20).ok


@pytest.mark.parametrize("n", [1, 2])
def test_commutation_all_indices(n):
    z, z_ml = _torus_products(n, rat(4), rat(9))
    for i in range(n + 1):
        assert run_plan(z.plan(commutation_rows(z, z_ml, (i,)), ("s1",)), 40).ok


@pytest.mark.parametrize("n", [1, 2])
def test_eps_and_gamma_preserved(n):
    z, z_ml = _torus_products(n, rat(4), rat(9))
    for i in range(n + 1):
        assert run_plan(z.plan([preserved_row(z, z_ml, "eps", (i,))]), 40).ok
        assert run_plan(z.plan([preserved_row(z, z_ml, "gamma", (i,))]), 40).ok


def test_braid_consistency():
    assert run_plan(braid_plan(1, (rat(4), rat(6), rat(9))), 50).ok
    assert run_plan(braid_plan(2, (rat(4), rat(9), rat(25))), 25).ok
    # degenerate pair of equal levels still braids
    assert run_plan(braid_plan(1, (rat(4), rat(6), rat(6))), 25).ok


def test_braid_on_homogeneous_triple():
    # every pairwise application just swaps homogeneous points, so both
    # orders reverse the triple
    inst = build_r_map(2)
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
        assert run_plan(_torus_products(n, rat(4), rat(9))[0].plan(cyclic_shift_rows(n)), 25).ok


def test_double_application_returns_to_start():
    # R is an involution on these models: applying it twice restores (l, m)
    r = build_r_map(2)
    spec = SampleSpec(
        ("a1", "a2", "a3", "b1", "b2", "b3"),
        positive=True,
        constraints=((("a1", "a2", "a3"), rat(4)), (("b1", "b2", "b3"), rat(9))),
        seed=13,
    )
    for point in sample_points(spec, 20):
        l = {f"l{k}": point[f"a{k}"] for k in (1, 2, 3)}
        m = {f"l{k}": point[f"b{k}"] for k in (1, 2, 3)}
        l2, m2 = apply_r(r, l, m)
        l3, m3 = apply_r(r, l2, m2)
        assert (l3, m3) == (l, m)


# --- the R map as steps of identity rows ------------------------------------------------


def _program(step):
    """A step as a program: a word step comes compiled (cached on its model), the R step as trees."""
    from gcrystal.expr import Program, compile_program

    return step if isinstance(step, Program) else compile_program(step)


def _step_images(steps, names, point):
    """The image after each step, each step run to reduced coordinates that the next one reads."""
    from gcrystal.expr import run

    images, env = [], dict(point)
    for step in steps:
        env.update(zip(names, run(_program(step), env)))
        images.append({v: env[v] for v in names})
    return images


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_steps_match_apply_e_and_apply_r(n):
    from gcrystal.crystal import apply_e, pack_pair, product, split_pair
    from gcrystal.models import affine_a_model

    ll, lr = rat(4), rat(9)
    inst = build_r_map(n)
    z_lm = product(affine_a_model(n, ll), affine_a_model(n, lr))
    z_ml = product(affine_a_model(n, lr), affine_a_model(n, ll))
    coords = tuple(f"l{k}" for k in range(1, n + 2))

    def r(x):
        return pack_pair(*apply_r(inst, *split_pair(x, coords, coords)))

    for i in range(n + 1):
        [(_, (lhs, _), (rhs, _))] = commutation_rows(z_lm, z_ml, (i,))
        for point in sample_points(z_lm.domain_spec(n + i, extra=("s1",)), 5):
            x, c = {v: point[v] for v in z_lm.variables}, point["s1"]
            e = apply_e(z_lm, i, c, x)
            assert _step_images(lhs, z_lm.variables, point) == [e, r(e)]
            assert _step_images(rhs, z_lm.variables, point) == [r(x), apply_e(z_ml, i, c, r(x))]

    [(_, (lhs, _), (rhs, _))] = braid_rows(n)
    names = tuple(f"l{k}.{t}" for t in "abc" for k in range(1, n + 2))
    spec = SampleSpec(names, positive=True, constraints=((names, rat(60)),), seed=n)

    def act(triple, pos):
        x, y, z = triple
        return (*apply_r(inst, x, y), z) if pos == 0 else (x, *apply_r(inst, y, z))

    def triple_of(point):
        return tuple({v: point[f"{v}.{t}"] for v in coords} for t in "abc")

    for point in sample_points(spec, 5):
        for steps, order in ((lhs, (0, 1, 0)), (rhs, (1, 0, 1))):
            expected, triple = [], triple_of(point)
            for pos in order:
                triple = act(triple, pos)
                expected.append(triple)
            assert [triple_of(image) for image in _step_images(steps, names, point)] == expected


def _torus_word_rows(n):
    """Group-law rows and composition rows of the torus model, as check_identity_rows gets them."""
    from gcrystal.crystal import S1, S2, applicable_pairs, composition_sides, word_side
    from gcrystal.expr import mul
    from gcrystal.models import affine_a_model

    model = affine_a_model(n, rat(4))
    a = model.cartan.a
    rows = [(word_side(model, ((i, S2), (i, S1))), word_side(model, ((i, mul(S1, S2)),))) for i in model.cartan.labels]
    for i, j in applicable_pairs(model.cartan):
        left, right = composition_sides(i, j, a(i, j), a(j, i))
        rows.append((word_side(model, left), word_side(model, right)))
    return model.variables, rows, model.domain_spec(n, extra=("s1", "s2"))


def _braid_word_rows(n):
    a, b, c = (tuple(f"l{k}.{t}" for k in range(1, n + 2)) for t in "abc")
    names = a + b + c
    constraints = ((a, rat(4)), (b, rat(9)), (c, rat(25)))
    spec = SampleSpec(names, positive=True, constraints=constraints, seed=n)
    return names, [(lhs, rhs) for _, lhs, rhs in braid_rows(n)], spec


@pytest.mark.parametrize(
    "rows_of, n",
    [(_torus_word_rows, 1), (_torus_word_rows, 2), (_torus_word_rows, 3), (_braid_word_rows, 2), (_braid_word_rows, 3)],
    ids=["torus-a1", "torus-a2", "torus-a3", "braid-2", "braid-3"],
)
def test_reduced_pair_steps_match_fraction_run(rows_of, n):
    # the identity rows feed drawn int pairs into each step and reduce its
    # outputs with gcd; every image must be the lowest-terms pair of the
    # Fraction route run step by step
    from gcrystal.arith import draw_pairs, fraction_point
    from gcrystal.expr import run_reduced

    names, rows, spec = rows_of(n)
    rng = random.Random(spec.seed)
    for _ in range(5):
        pairs = draw_pairs(spec, rng)
        for lhs, rhs in rows:
            for steps, _trees in (lhs, rhs):
                expected = _step_images(steps, names, fraction_point(pairs))
                env = pairs
                for step, image in zip(steps, expected):
                    env = {**env, **dict(zip(names, run_reduced(_program(step), env)))}
                    assert {v: env[v] for v in names} == {v: (f.numerator, f.denominator) for v, f in image.items()}


def test_braid_word_runs_as_three_reduced_steps(monkeypatch):
    # a braid side composed into one program takes about 20 s at n = 3
    # against 0.08 s as three reduced steps (README "Evaluation"), so each
    # side must run its three R steps, each a program of 3(n+1) outputs;
    # the 7 points fit one batch, so each step runs once for all of them
    import gcrystal.crystal as crystal

    true_step, calls = crystal.run_reduced_columns, []

    def counting(program, columns, width):
        calls.append((len(program.outputs), width))
        return true_step(program, columns, width)

    monkeypatch.setattr(crystal, "run_reduced_columns", counting)
    trials = 7
    assert run_plan(braid_plan(2, (rat(4), rat(9), rat(25))), trials).ok
    assert calls == [(9, trials)] * 6


@pytest.mark.parametrize("n", [2, 3])
def test_epsilon_invariance_both_families(n):
    ll, lr = rat(4), rat(9)
    z = _torus_products(n, ll, lr)[0]
    assert run_plan(z.plan([invariance_row(n, ll, lr, False)]), 40).ok
    assert run_plan(z.plan([invariance_row(n, ll, lr, True)]), 40).ok


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

    inst = build_r_map(2)
    assert build_r_map(2) is inst  # built once per n
    l = {"l1": rat(1, 2), "l2": rat(3), "l3": rat(4)}
    m = {"l1": rat(5, 7), "l2": rat(1), "l3": rat(7)}
    env = {f"l{k}": l[f"l{k}"] for k in (1, 2, 3)} | {f"m{k}": m[f"l{k}"] for k in (1, 2, 3)}
    l2, m2 = apply_r(inst, l, m)
    assert list(l2.values()) == [reference_evaluate(e, env) for e in inst.l_out]
    assert list(m2.values()) == [reference_evaluate(e, env) for e in inst.m_out]
    # a perturbed instance is compiled from its own expressions
    swapped = dataclasses.replace(inst, l_out=inst.m_out, m_out=inst.l_out)
    assert apply_r(swapped, l, m) == (m2, l2)


# --- one R map per size --------------------------------------------------------------


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` to record the arguments of each call; returns the list of calls."""
    calls = []
    true = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return true(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_map_and_its_step_are_built_once_per_size():
    assert build_r_map(3) is build_r_map(3)
    assert r_step(3) is r_step(3)
    assert r_step(3) is not r_step(2)


def test_readers_of_the_map_compile_nothing_on_a_second_call(monkeypatch, capsys):
    import gcrystal.expr as expr

    l = {"l1": rat(1), "l2": rat(4), "l3": rat(2)}
    m = {"l1": rat(2), "l2": rat(3), "l3": rat(5)}
    reads = [
        lambda: apply_r(build_r_map(2), l, m),
        lambda: apply_r(build_r_map(2), {"l1": 0, "l2": 4, "l3": 1}, {"l1": 2, "l2": -3, "l3": 0}, reading=run_maxplus),
        lambda: window_sums(build_r_map(2), l, m),
        lambda: cli.main(["ud", "rmap", "--n", "2", "--l", "[5, -2, 1]", "--m", "[0, 9, 3]"]),
        lambda: cli.main(["rmap", "apply", "--n", "2", "--l", "[1, 4, 2]", "--m", "[2, 3, 5]"]),
    ]
    for read in reads:
        read()
    compiles = _counting(monkeypatch, expr, "compile_program")
    for read in reads:
        read()
    capsys.readouterr()
    assert compiles == []


def test_the_rmap_suite_renames_r_onto_the_product_once_per_size(monkeypatch):
    import gcrystal.rmap as rmap
    from gcrystal.crystal import LEFT_SUFFIX, RIGHT_SUFFIX
    from gcrystal.harness import run_suite

    build_r_map.cache_clear()
    renames = _counting(monkeypatch, rmap, "_r_trees")
    results = run_suite("rmap", {})
    assert all(r.verdict == "pass" for r in results)
    onto_product = [n for n, left, right in renames if (left, right) == (LEFT_SUFFIX, RIGHT_SUFFIX)]
    assert sorted(onto_product) == sorted(set(onto_product))
    assert onto_product  # the rows do read R on the product coordinates
