from fractions import Fraction

import pytest

from gcrystal.arith import DomainTooThinError, rat, sample_point
from gcrystal.crystal import (
    CartanData,
    CartanError,
    CrystalModel,
    UnsupportedCartanPattern,
    applicable_pairs,
    apply_e,
    cartan_affine_a,
    cartan_affine_d5,
    cartan_finite_a,
    check_action_identity,
    check_composition_relation,
    check_domain_preserved,
    check_eps_scaling,
    check_gamma_scaling,
    check_group_law,
    composition_words,
    model_manifest,
    pack_pair,
    product,
    product_split_exprs,
    split_pair,
)
from gcrystal.expr import const, evaluate, identical_on_domain, mul, parse, var
from gcrystal.models import affine_a_model, affine_d5_model, borel_model

TRIALS = 100


# --- Cartan data -----------------------------------------------------------------


def test_finite_a_matrix():
    c = cartan_finite_a(3)
    assert c.labels == (1, 2, 3)
    assert c.a(1, 1) == 2 and c.a(1, 2) == -1 and c.a(1, 3) == 0


def test_affine_a_matrix_cyclic():
    c = cartan_affine_a(3)
    assert c.a(0, 3) == -1 and c.a(3, 0) == -1 and c.a(0, 2) == 0


def test_affine_a1_has_doubled_bond():
    c = cartan_affine_a(1)
    assert c.a(0, 1) == -2 and c.a(1, 0) == -2


def test_d5_diagram():
    c = cartan_affine_d5()
    edges = {(i, j) for i in c.labels for j in c.labels if i < j and c.a(i, j) == -1}
    assert edges == {(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)}


def test_invalid_cartan_rejected():
    with pytest.raises(CartanError):
        CartanData((1, 2), ((1, 0), (0, 2)))  # bad diagonal
    with pytest.raises(CartanError):
        CartanData((1, 2), ((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(CartanError):
        CartanData((1, 2), ((2, -1), (0, 2)))  # asymmetric zero pattern


# --- actions on the torus model -----------------------------------------------------


def test_action_formula_scales_adjacent_coordinates():
    model = affine_a_model(2, rat(4))
    x = sample_point(model.domain_spec(1))
    c = rat(7, 5)
    y = apply_e(model, 1, c, x)
    assert y == {"l1": c * x["l1"], "l2": x["l2"] / c, "l3": x["l3"]}


def test_action_at_one_is_identity():
    for model in (affine_a_model(2, rat(4)), affine_d5_model(rat(4)), borel_model(2)):
        for i in model.cartan.labels:
            assert check_action_identity(model, i, 25).ok


def test_index_zero_wraps():
    model = affine_a_model(2, rat(4))
    x = sample_point(model.domain_spec(2))
    c = rat(3, 2)
    y = apply_e(model, 0, c, x)
    assert y == {"l1": x["l1"] / c, "l2": x["l2"], "l3": c * x["l3"]}
    assert evaluate(model.eps[0], x) == x["l1"]


def test_one_parameter_group_law():
    for model in (affine_a_model(1, rat(4)), affine_a_model(3, rat(9)), borel_model(2)):
        for i in model.cartan.labels:
            assert check_group_law(model, i, TRIALS).ok


def test_action_parameter_must_be_nonzero():
    model = affine_a_model(1, rat(4))
    with pytest.raises(ValueError):
        apply_e(model, 0, Fraction(0), sample_point(model.domain_spec(0)))


def test_pointwise_checks_require_positive_trials():
    model = affine_a_model(1, rat(4))
    with pytest.raises(ValueError):
        check_action_identity(model, 0, trials=0)


def test_domain_preserved():
    for model in (affine_a_model(2, rat(4)), affine_d5_model(rat(6)), borel_model(3)):
        for i in model.cartan.labels:
            assert check_domain_preserved(model, i, 25).ok


def _two_coordinate_model(a_image, b_image):
    """Coordinates a (its product fixed at 3) and b, unconstrained, with e_1 acting by the given images."""
    a, b = var("a"), var("b")
    return CrystalModel(
        name="two-coordinates",
        cartan=cartan_finite_a(1),
        variables=("a", "b"),
        constraints=((("a",), rat(3)),),
        positive=True,
        gamma={1: a},
        eps={1: b},
        actions={1: (a_image, b_image)},
    )


def test_domain_check_fails_on_a_zero_image_coordinate():
    a, b = var("a"), var("b")
    outcome = check_domain_preserved(_two_coordinate_model(a, b - b), 1, 25, seed=4)
    assert not outcome.ok and outcome.trials == 1
    witness = outcome.witness
    assert set(witness) == {"i", "c", "x", "zero coordinate in"}
    assert witness["zero coordinate in"] == {"a": 3, "b": 0}
    assert witness["x"]["a"] == 3 and witness["c"] > 0


def test_domain_check_resamples_where_the_action_poles():
    a, b = var("a"), var("b")
    with pytest.raises(DomainTooThinError):  # a pole at every point
        check_domain_preserved(_two_coordinate_model(a, b / (a - a)), 1, 25, seed=4)


def test_domain_check_fails_on_a_broken_constraint():
    a, b = var("a"), var("b")
    outcome = check_domain_preserved(_two_coordinate_model(mul(const(2), a), b), 1, 25, seed=4)
    assert not outcome.ok and outcome.trials == 1
    assert outcome.witness == {"i": 1, "c": outcome.witness["c"], "constraint": ("a",), "expected": 3, "got": 6}


# --- axiom checkers -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_scaling_torus(n):
    model = affine_a_model(n, rat(4))
    for i in model.cartan.labels:
        for j in model.cartan.labels:
            assert check_gamma_scaling(model, i, j, TRIALS).ok


def test_gamma_scaling_self_is_square():
    # a_ii = 2 always, so gamma_i picks up c^2 under its own action
    model = affine_a_model(2, rat(4))
    x = sample_point(model.domain_spec(5))
    c = rat(5, 7)
    assert evaluate(model.gamma[1], apply_e(model, 1, c, x)) == c**2 * evaluate(
        model.gamma[1], x
    )


def test_gamma_scaling_d5_orthogonal_pair():
    model = affine_d5_model(rat(4))
    assert model.cartan.a(4, 5) == 0
    assert check_gamma_scaling(model, 4, 5, TRIALS).ok


def test_eps_scaling_all_models():
    for model in (affine_a_model(2, rat(4)), affine_d5_model(rat(4)), borel_model(2)):
        for i in model.cartan.labels:
            assert check_eps_scaling(model, i, i, TRIALS).ok


def test_eps_invariance_for_orthogonal_d5_pair():
    model = affine_d5_model(rat(4))
    assert model.cartan.a(0, 4) == 0
    assert check_eps_scaling(model, 0, 4, TRIALS).ok
    x = sample_point(model.domain_spec(3))
    assert evaluate(model.eps[0], apply_e(model, 4, rat(9, 2), x)) == evaluate(
        model.eps[0], x
    )


def test_eps_scaling_refuses_adjacent_pair():
    model = affine_a_model(2, rat(4))
    with pytest.raises(ValueError):
        check_eps_scaling(model, 1, 2, TRIALS)


# --- composition relations ---------------------------------------------------------------


def test_composition_words_commuting_and_braid():
    left, right = composition_words(1, 2, 0, 0)
    assert left == ((2, (0, 1)), (1, (1, 0)))
    assert right == ((1, (1, 0)), (2, (0, 1)))
    left, right = composition_words(1, 2, -1, -1)
    assert left == ((1, (0, 1)), (2, (1, 1)), (1, (1, 0)))
    assert right == ((2, (1, 0)), (1, (1, 1)), (2, (0, 1)))


def test_unsupported_pattern_raises():
    model = affine_a_model(1, rat(4))  # (a_01, a_10) = (-2, -2)
    with pytest.raises(UnsupportedCartanPattern):
        check_composition_relation(model, 0, 1, 5)
    with pytest.raises(UnsupportedCartanPattern):
        composition_words(1, 2, -2, -1)  # only (0, 0) and (-1, -1) have a relation


def test_applicable_pairs():
    assert applicable_pairs(cartan_affine_a(1)) == []
    assert len(applicable_pairs(cartan_affine_a(2))) == 6  # all braid
    pairs3 = applicable_pairs(cartan_affine_a(3))
    assert (0, 2) in pairs3 and (1, 3) in pairs3 and len(pairs3) == 12


@pytest.mark.parametrize("n", [2, 3])
def test_verma_relations_torus(n):
    model = affine_a_model(n, rat(4))
    for i, j in applicable_pairs(model.cartan):
        assert check_composition_relation(model, i, j, 30).ok


def test_verma_relations_with_unit_parameters():
    # c1 = c2 = 1 makes both sides the identity word
    model = affine_a_model(2, rat(4))
    x = sample_point(model.domain_spec(8))
    left, right = composition_words(0, 1, -1, -1)
    from gcrystal.crystal import apply_word

    one = Fraction(1)
    assert apply_word(model, [(k, one) for k, _ in left], x) == x
    assert apply_word(model, [(k, one) for k, _ in right], x) == x


@pytest.mark.parametrize("name", ["torus-a2", "d5", "borel-sl4"])
def test_composed_word_matches_acting_step_by_step(name):
    # the one coordinate program of a word against apply_e one action at a time
    import random

    from gcrystal.crystal import S1, S2, apply_word, compose_word
    from gcrystal.expr import compile_program, run

    model = {
        "torus-a2": lambda: affine_a_model(2, rat(4)),
        "d5": lambda: affine_d5_model(rat(4)),
        "borel-sl4": lambda: borel_model(3),
    }[name]()
    rng = random.Random(name)
    for seed in range(5):
        labels = [rng.choice(model.cartan.labels) for _ in range(3)]
        word = tuple(zip(labels, (S1, mul(S1, S2), S2)))
        point = sample_point(model.domain_spec(seed))
        c1, c2 = rat(seed + 2, 3), rat(5, seed + 4)
        composed = run(compile_program(compose_word(model, word)), {**point, "s1": c1, "s2": c2})
        stepwise = apply_word(model, list(zip(labels, (c1, c1 * c2, c2))), point)
        assert composed == list(stepwise.values())


def test_verma_relations_d5_and_borel():
    d5 = affine_d5_model(rat(4))
    for i, j in ((0, 2), (2, 3), (3, 5), (0, 1), (1, 4)):
        assert check_composition_relation(d5, i, j, 20).ok
    b = borel_model(3)
    for i, j in applicable_pairs(b.cartan):
        assert check_composition_relation(b, i, j, 20).ok


# --- products ---------------------------------------------------------------------------


def test_product_requires_matching_cartan():
    with pytest.raises(CartanError):
        product(affine_a_model(1, rat(4)), affine_a_model(2, rat(4)))


def test_product_variables_and_constraints():
    z = product(affine_a_model(1, rat(4)), affine_a_model(1, rat(9)))
    assert z.variables == ("l1.x", "l2.x", "l1.y", "l2.y")
    assert (("l1.x", "l2.x"), Fraction(4)) in z.constraints
    assert (("l1.y", "l2.y"), Fraction(9)) in z.constraints


def test_product_gamma_and_eps_values():
    x_model = affine_a_model(2, rat(4))
    y_model = affine_a_model(2, rat(9))
    z = product(x_model, y_model)
    x = sample_point(x_model.domain_spec(3))
    y = sample_point(y_model.domain_spec(4))
    point = pack_pair(x, y)
    for i in z.cartan.labels:
        assert evaluate(z.gamma[i], point) == evaluate(x_model.gamma[i], x) * evaluate(
            y_model.gamma[i], y
        )
        assert evaluate(z.eps[i], point) == evaluate(x_model.eps[i], x) + evaluate(
            y_model.eps[i], y
        ) / evaluate(x_model.gamma[i], x)


def test_product_parameter_split_multiplies_to_c():
    x_model = affine_a_model(2, rat(4))
    y_model = affine_a_model(2, rat(9))
    z = product(x_model, y_model)
    for i in z.cartan.labels:
        c1, c2 = product_split_exprs(x_model, y_model, i)
        spec = z.domain_spec(11, extra=("c",))
        assert identical_on_domain(mul(c1, c2), var("c"), spec, 50).ok


def test_product_inherits_axioms():
    z = product(affine_a_model(2, rat(4)), affine_a_model(2, rat(9)))
    for i in z.cartan.labels:
        assert check_eps_scaling(z, i, i, 30).ok
        for j in z.cartan.labels:
            assert check_gamma_scaling(z, i, j, 30).ok


def test_split_pair_inverts_pack_pair():
    x = {"l1": rat(1), "l2": rat(2)}
    y = {"l1": rat(3), "l2": rat(4)}
    packed = pack_pair(x, y)
    assert split_pair(packed, ("l1", "l2"), ("l1", "l2")) == (x, y)


def test_manifest_shape():
    manifest = model_manifest(affine_a_model(1, rat(4)))
    assert manifest["variables"] == ["l1", "l2"]
    assert manifest["cartan"]["matrix"] == [[2, -2], [-2, 2]]
    assert set(manifest["actions"]) == {"0", "1"}


def test_scalar_name_reserved():
    model = affine_a_model(1, rat(4))
    assert "c" not in model.variables
    with pytest.raises(ValueError):
        from gcrystal.crystal import CrystalModel

        CrystalModel(
            name="bad",
            cartan=cartan_finite_a(1),
            variables=("c",),
            constraints=(),
            positive=True,
            gamma={1: parse("c")},
            eps={1: parse("c")},
            actions={1: (parse("c"),)},
        )
