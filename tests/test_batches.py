"""Batched evaluation against the per-point routes it replaced.

A sampled check runs its programs once per batch of points
(``expr.run_columns``, ``expr.run_maxplus_columns``) on points drawn as
columns (``arith.SampleSpec.draw``, ``arith.Box.draw``).  The per-point
loops, and the integer-box loop that ``expr.pointwise_check`` replaced,
stay here as oracles: every column must equal the point's own run,
exactly, and every check must give the same ``CheckOutcome`` (verdict,
trials, witness) as the walk that ran one point at a time.
"""

import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ud_points
from gcrystal import cli, ud
from gcrystal.arith import Box, DomainTooThinError, SampleSpec, box_point, draw_pairs, point_at, rat
from gcrystal.crystal import LEFT_SUFFIX, RIGHT_SUFFIX, SCALAR, check_identity_rows, product_split_exprs, row_plan, tree_row
from gcrystal.expr import (
    BATCH_WIDTH,
    MAX_POLE_RETRIES,
    POLE,
    Add,
    CheckOutcome,
    Const,
    Div,
    EvalDomainError,
    Mul,
    Pow,
    Sub,
    TropicalizationError,
    UnboundVariableError,
    Var,
    add,
    certify_subtraction_free,
    children,
    compile_program,
    const,
    div,
    free_variables,
    mul,
    pair_witness,
    parse,
    pointwise_check,
    pow_,
    pretty,
    reduce_columns,
    reference_evaluate,
    run_columns,
    run_maxplus,
    run_maxplus_columns,
    run_pairs,
    run_reduced,
    sub,
    substitute,
    to_json,
    to_json_obj,
    var,
)
from gcrystal.harness import run_suite
from gcrystal.ud import sample_box, tropicalize
from ud_points import maxplus_side

# --- programs: the column run against the point run ------------------------------------

_NAMES = ("x", "y", "z")
_consts = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda q: q != 0)


def _exprs(depth, ops=(add, sub, mul, div), consts=_consts, exponents=st.integers(-3, 3)):
    if depth == 0:
        return st.one_of(st.sampled_from(_NAMES).map(var), consts.map(const))
    smaller = _exprs(depth - 1, ops, consts, exponents)
    binary = st.tuples(st.sampled_from(ops), smaller, smaller).map(lambda t: t[0](t[1], t[2]))
    power = st.tuples(smaller, exponents).map(lambda t: pow_(t[0], t[1]))
    return st.one_of(smaller, binary, power)


# differences, quotients and negative powers, so zero divisors are common
_programs = st.lists(_exprs(4), min_size=1, max_size=4).map(compile_program)
_subtraction_free = st.lists(
    _exprs(4, (add, mul, div), st.fractions(min_value=1, max_value=9, max_denominator=4)), min_size=1, max_size=4
).map(compile_program)

# numerators include 0; denominators are nonzero and may be negative, and
# unreduced pairs such as (2, -2) occur
_pair_values = st.tuples(st.integers(-3, 3), st.sampled_from((1, 2, 3, -1, -2)))


def _batch(data, width):
    points = [{name: data.draw(_pair_values) for name in _NAMES} for _ in range(width)]
    columns = {name: ([p[name][0] for p in points], [p[name][1] for p in points]) for name in _NAMES}
    return points, columns


def _point_run(program, point):
    try:
        return run_pairs(program, point)
    except EvalDomainError:
        return None


@pytest.mark.parametrize("width", [1, 7, 100])
@settings(max_examples=60, deadline=None)
@given(program=_programs, data=st.data())
def test_columns_are_the_point_runs(width, program, data):
    points, columns = _batch(data, width)
    nums, dens, poles = run_columns(program, columns, width)
    for j, point in enumerate(points):
        expected = _point_run(program, point)
        assert (j in poles) == (expected is None)
        if expected is not None:
            # the same ints, not only the same values
            assert ([c[j] for c in nums], [c[j] for c in dens]) == expected
            fractions = {name: Fraction(*pair) for name, pair in point.items()}
            assert [Fraction(c[j], d[j]) for c, d in zip(nums, dens)] == [
                reference_evaluate(root, fractions) for root in program.roots
            ]
    if poles != set(range(width)):
        live = [j for j in range(width) if j not in poles]
        reduced = reduce_columns(nums, dens)
        for j in live:
            assert [(n[j], d[j]) for n, d in reduced] == run_reduced(program, points[j])


@pytest.mark.parametrize("width", [1, 7, 100])
@settings(max_examples=60, deadline=None)
@given(program=_subtraction_free, data=st.data())
def test_maxplus_columns_are_the_point_runs(width, program, data):
    points = [{name: data.draw(st.integers(-50, 50)) for name in _NAMES} for _ in range(width)]
    columns = {name: [p[name] for p in points] for name in _NAMES}
    out = run_maxplus_columns(program, columns, width)
    assert [[c[j] for c in out] for j in range(width)] == [run_maxplus(program, p) for p in points]


def test_maxplus_columns_refuse_what_is_not_subtraction_free():
    program = compile_program([parse("x + y"), parse("x - y")])
    with pytest.raises(ValueError) as err:
        run_maxplus_columns(program, {"x": [1], "y": [2]}, 1)
    assert err.value.path == (1,)


def test_a_long_chain_releases_its_registers():
    # 2,000 sums in a chain: kept alive, their columns of 100 entries would
    # take several MB; released after their last read, a few columns live
    e = var("x")
    for _ in range(2000):
        e = add(e, var("x"))
    program = compile_program([e])
    width = 100
    columns = {"x": ([1000 + j for j in range(width)], [7] * width)}
    tracemalloc.start()
    try:
        nums, dens, poles = run_columns(program, columns, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not poles
    assert nums == [[2001 * (1000 + j) for j in range(width)]] and dens == [[7] * width]
    assert peak < 1_000_000


# --- draws: the columns against the per-point stream ------------------------------------

_SPECS = {
    "positive": dict(variables=("x", "y", "z"), positive=True),
    "signed": dict(variables=("x", "y")),
    "constrained": dict(
        variables=("a", "b", "c", "d", "s1"),
        constraints=((("b", "c", "a"), rat(-7, 3)), (("d",), rat(5, 2))),
    ),
}


@pytest.mark.parametrize("magnitude", [1, 2, 1000, 1024, 1025])
@pytest.mark.parametrize("kind", list(_SPECS))
@pytest.mark.parametrize("width", [1, 7, 100])
def test_column_draws_are_the_point_draws(kind, magnitude, width):
    spec = SampleSpec(**_SPECS[kind], magnitude=magnitude, seed=23)
    batched, single = random.Random(spec.seed), random.Random(spec.seed)
    for _ in range(3):
        columns = spec.draw(batched, width)
        assert list(columns) == list(spec.variables)
        assert [point_at(columns, j) for j in range(width)] == [draw_pairs(spec, single) for _ in range(width)]
    assert batched.random() == single.random()


@pytest.mark.parametrize("width", [1, 7, 100])
def test_box_columns_are_the_randint_stream(width):
    bounds = {"x": (-50, 50), "y": (0, 0), "z": (3, 10), "w": (-1024, 1023)}
    batched, single = random.Random(5), random.Random(5)
    for _ in range(3):
        columns = Box(bounds).draw(batched, width)
        expected = [{v: single.randint(lo, hi) for v, (lo, hi) in bounds.items()} for _ in range(width)]
        assert [box_point(columns, j) for j in range(width)] == expected
    assert batched.random() == single.random()
    drawn = Box(bounds).draw(random.Random(9), 4)
    assert list(sample_box(bounds, 4, seed=9)) == [box_point(drawn, j) for j in range(4)]


# --- checks: the batched walk against the per-point walk ----------------------------------


def _point_walk(fn, spec, trials, log):
    """The sampling loop as it ran one point at a time: the oracle of ``pointwise_check``.

    Appends True (pole) or False to ``log`` for every point it runs.
    """
    rng = random.Random(spec.seed)
    poles = done = 0
    while True:
        point = draw_pairs(spec, rng)
        try:
            witness = fn(point)
        except EvalDomainError:
            log.append(True)
            poles += 1
            if poles > MAX_POLE_RETRIES:
                raise DomainTooThinError("too thin") from None
            continue
        log.append(False)
        poles = 0
        done += 1
        if witness is not None:
            return CheckOutcome(False, done, witness)
        if done == trials:
            return CheckOutcome(True, trials)


def _point_identity_rows(names, rows, spec, trials, log):
    """``check_identity_rows`` one point at a time: each step reduced, each side compared by ``pair_witness``.

    An exact side of ``rows`` runs on the point's int pairs and returns pairs; a
    ``ZeroDivisionError`` or a denominator 0 is a pole.
    """
    plan = row_plan(names, rows)

    def side(planned, written, point):
        if callable(written):  # an exact side
            try:
                values = written(point)
            except ZeroDivisionError:
                raise EvalDomainError("pole of the exact side") from None
            if any(den == 0 for _, den in values):
                raise EvalDomainError("pole of the exact side")
            return [num for num, _ in values], [den for _, den in values]
        steps, trees = planned
        env = point
        for step in steps:
            env = {**env, **dict(zip(names, run_reduced(step, env)))}
        return run_pairs(trees, env)

    def fn(point):
        for (label, lhs, rhs, outputs), (_, written_lhs, written_rhs) in zip(plan, rows):
            witness = pair_witness(point, side(lhs, written_lhs, point), side(rhs, written_rhs, point), outputs)
            if witness is not None:
                return {**label, **witness}
        return None

    return _point_walk(fn, spec, trials, log)


def _outcome(check, *args):
    try:
        return check(*args)
    except DomainTooThinError:
        return "too thin"


def _pole_runs_cross_a_batch(log, trials):
    """Whether a run of poles in ``log`` goes on from one batch of the batched walk into the next."""
    start = done = 0
    while start < len(log):
        end = start + min(BATCH_WIDTH, trials - done)
        if end < len(log) and log[end - 1] and log[end]:
            return True
        done += log[start:end].count(False)
        start = end
    return False


X, Y = var("x"), var("y")
A, B, C, D, F = (var(v) for v in "abcdf")


def _mixed_rows():
    """Two-coordinate rows: a pole where x = y, then a step row whose output "d" differs unless x = +-y."""
    swap = (Y, X)
    return [
        tree_row({"row": 1}, div(const(1), sub(X, Y)), div(const(1), sub(X, Y))),
        ({"row": 2}, ((swap,), {"s": mul(X, Y), "d": div(X, Y)}), ((), {"s": mul(X, Y), "d": div(X, Y)})),
    ]


def _exact_rows():
    """The mixed rows with exact sides on int pairs: a pole where x = y, then output "d" off by 1 where x = -y."""

    def poled_at_the_diagonal(p):
        (xn, xd), (yn, yd) = p["x"], p["y"]
        if xn * yd == yn * xd:
            raise ZeroDivisionError("1/(x - y)")
        return [(xn * yn, xd * yd)]

    def off_where_opposite(p):
        (xn, xd), (yn, yd) = p["x"], p["y"]
        off = xn * yd == -yn * xd
        return [(xn * yn, xd * yd), (xn * yd + off * xd * yn, xd * yn)]

    return [
        ({"row": 1}, ((), (mul(X, Y),)), poled_at_the_diagonal),
        ({"row": 2}, ((), {"s": mul(X, Y), "d": div(X, Y)}), off_where_opposite),
    ]


def _sparse_rows(with_mismatch):
    """Coordinates of +-1: a pole unless a..d are all -1 (1 point in 16), then f = 1 if asked."""
    guard = mul(mul(sub(A, const(1)), sub(B, const(1))), mul(sub(C, const(1)), sub(D, const(1))))
    rows = [tree_row({"row": 1}, div(A, guard), div(A, guard))]
    if with_mismatch:
        rows.append(tree_row({"row": 2}, F, const(1)))
    return rows


_CASES = {
    "mixed": (("x", "y"), _mixed_rows(), dict(magnitude=2)),
    "exact": (("x", "y"), _exact_rows(), dict(magnitude=2)),
    "sparse": (tuple("abcdf"), _sparse_rows(False), dict(magnitude=1)),
    "sparse-mismatch": (tuple("abcdf"), _sparse_rows(True), dict(magnitude=1)),
    "all-poles": (("x",), [tree_row({}, div(const(1), sub(X, X)), X)], dict(magnitude=5)),
}


@pytest.mark.parametrize("trials", [1, 7, 100, 101])
@pytest.mark.parametrize("case", list(_CASES))
def test_identity_rows_walk_as_one_point_at_a_time(case, trials):
    names, rows, spec_args = _CASES[case]
    kinds = set()
    crossing = False
    for seed in range(12):
        spec = SampleSpec(names, seed=seed, **spec_args)
        log = []
        expected = _outcome(_point_identity_rows, names, rows, spec, trials, log)
        assert _outcome(check_identity_rows, names, rows, spec, trials) == expected, seed
        kinds.add(expected if isinstance(expected, str) else (expected.ok, any(log), expected.trials))
        crossing |= _pole_runs_cross_a_batch(log, trials)
    # what each case is built to reach, over its seeds
    outcomes = {kind for kind in kinds if kind != "too thin"}
    if case == "all-poles":
        assert kinds == {"too thin"}
    if case in ("mixed", "exact", "sparse-mismatch") and trials > 1:
        assert any(not ok and poled and done > 1 for ok, poled, done in outcomes)  # fails after poles and passes
    if case == "sparse" and trials > 1:
        assert crossing and any(ok and poled for ok, poled, _ in outcomes)  # passes across pole runs
    if case == "sparse" and trials >= 100:
        assert "too thin" in kinds  # 101 poles in a row, somewhere among the seeds


def test_domain_too_thin_after_exactly_the_retry_budget():
    # poles at every point: the 101st consecutive pole ends the check
    spec = SampleSpec(("x",), seed=0)
    walked = []

    def fn(columns, width):
        for j in range(width):
            walked.append(point_at(columns, j))
            yield POLE

    with pytest.raises(DomainTooThinError):
        pointwise_check(fn, spec, 100)
    assert len(walked) == MAX_POLE_RETRIES + 1


def _box_check(fn, bounds, samples, seed):
    """The integer-box loop as it ran before ``pointwise_check`` took boxes: the oracle of that loop over a ``Box``.

    ``fn(columns, width)`` gives one outcome per point, ``None`` or a
    witness; the first witness ends the walk and counts the points up to it.
    """
    rng = random.Random(seed)
    done = 0
    while done < samples:
        width = min(BATCH_WIDTH, samples - done)
        for witness in fn(Box(bounds).draw(rng, width), width):
            done += 1
            if witness is not None:
                return CheckOutcome(False, done, witness)
    return CheckOutcome(True, samples)


def _failing_at(index, widths):
    """A batch ``fn`` whose point ``index`` of the stream (1-based; never for None) fails, as a list.

    Appends the width of every batch it reads to ``widths``.
    """
    count = 0

    def fn(columns, width):
        nonlocal count
        widths.append(width)
        outcomes = []
        for j in range(width):
            count += 1
            outcomes.append({"at": count, "point": box_point(columns, j)} if count == index else None)
        return outcomes

    return fn


def _lazily(outcome, widths):
    """A batch ``fn`` giving ``outcome(point)`` at each point lazily, as ``ud-dichotomy`` gives its outcomes."""

    def fn(columns, width):
        widths.append(width)
        return (outcome(box_point(columns, j)) for j in range(width))

    return fn


_BOUNDS = {"x": (-50, 50), "i": (0, 3)}


def _near_the_corner(point):
    return point if point["x"] >= 48 and point["i"] == 3 else None  # about 1 point in 135


def _box_loop(fn, bounds, samples, seed):
    return pointwise_check(fn, Box(bounds, seed), samples)


@pytest.mark.parametrize("samples", [1, 31, 32, 33, 100])
def test_the_sampling_loop_walks_a_box_as_the_box_loop_did(samples):
    def walks(make_fn, seed):
        """(outcome, batch widths) of the retired loop, then of ``pointwise_check``."""
        out = []
        for loop in (_box_check, _box_loop):
            widths = []
            out.append((loop(make_fn(widths), _BOUNDS, samples, seed), widths))
        return out

    lazy_fails = 0
    for seed in range(6):
        for index in (None, 1, 31, 32, 33, 64, 100):
            old, new = walks(lambda widths: _failing_at(index, widths), seed)
            assert new == old, (seed, index)
            assert old[0].ok == (index is None or index > samples)
            assert old[0].trials == min(index or samples, samples)
        old, new = walks(lambda widths: _lazily(_near_the_corner, widths), seed)
        assert new == old, seed
        lazy_fails += not old[0].ok
    if samples == 100:
        assert lazy_fails  # the lazy walk stops inside the stream for some seed


def _point_box_rows(names, rows, bounds, samples, seed):
    """``check_identity_rows`` over a ``Box`` one ``randint`` point at a time: the oracle of the (max, +) reading."""
    plan = row_plan(names, rows)
    rng = random.Random(seed)
    for done in range(1, samples + 1):
        point = {v: rng.randint(lo, hi) for v, (lo, hi) in bounds.items()}
        for label, lhs, rhs, outputs in plan:
            left, right = maxplus_side(names, lhs, point), maxplus_side(names, rhs, point)
            if left != right:
                k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
                witness = {"point": point, "lhs": left[k], "rhs": right[k]}
                if len(left) > 1:
                    witness = {"output": outputs[k] if outputs else k, **witness}
                return CheckOutcome(False, done, {**label, **witness})
    return CheckOutcome(True, samples)


def _box_rows():
    """Rows that differ where t > x (row 1, and output "p" of row 2 behind a swap step) or t > y (its output "m")."""
    swap = (Y, X)
    t = var("t")
    return [
        tree_row({"row": 1}, add(X, t), X),
        ({"row": 2}, ((swap,), {"p": add(Y, t), "m": add(X, t)}), ((), {"p": X, "m": Y})),
    ]


@pytest.mark.parametrize("samples", [1, 7, 100, 101])
def test_box_rows_walk_as_one_point_at_a_time(samples):
    names = ("x", "y")
    bounds = {"x": (-50, 50), "y": (-50, 50), "t": (-50, -45)}  # t > x at about 3 points in 100
    outcomes = set()
    for seed in range(12):
        expected = _point_box_rows(names, _box_rows(), bounds, samples, seed)
        assert check_identity_rows(names, _box_rows(), Box(bounds, seed), samples) == expected, seed
        outcomes.add((expected.ok, expected.trials, expected.witness and expected.witness["row"]))
    if samples <= 7:
        assert (True, samples, None) in outcomes
    else:  # failures of each row, some in a later batch than the first
        assert {row for ok, _, row in outcomes if not ok} == {1, 2}
        assert any(not ok and done > BATCH_WIDTH for ok, done, _ in outcomes)


def test_an_exact_side_gives_one_value_per_output():
    rows = [({}, ((), {"s": mul(X, Y), "d": div(X, Y)}), lambda p: [p["x"]])]
    with pytest.raises(ValueError, match="1 values for 2 outputs"):
        check_identity_rows(("x", "y"), rows, SampleSpec(("x", "y"), seed=0), 10)


def _negative(pair):
    num, den = pair
    return (num < 0) != (den < 0)


@pytest.mark.parametrize("lhs, value", [(div(X, X), (1, 1)), (add(X, X), (1, 1)), (div(X, X), (0, 1))])
@pytest.mark.parametrize("at_a_pole", [(1, 0), (0, 0), (-3, 0)])
def test_an_exact_output_with_denominator_0_is_a_pole(lhs, value, at_a_pole):
    """Where the exact side returns a denominator 0, the point poles as if it raised ZeroDivisionError.

    n·0 == m·0 would read (0, 0) as agreeing with any lhs, and (1, 0) as a
    witness with no ``Fraction``; at x < 0 the side gives ``at_a_pole``.
    """

    def zero_den(p):
        return [at_a_pole if _negative(p["x"]) else value]

    def raising(p):
        if _negative(p["x"]):
            raise ZeroDivisionError("x < 0")
        return [value]

    outcomes = set()
    for seed in range(8):
        spec = SampleSpec(("x",), seed=seed, magnitude=3)
        expected = check_identity_rows(("x",), [({}, ((), (lhs,)), raising)], spec, 7)
        assert check_identity_rows(("x",), [({}, ((), (lhs,)), zero_den)], spec, 7) == expected, seed
        outcomes.add(expected.ok)
    assert outcomes == {lhs == div(X, X) and value == (1, 1)}
    spec = SampleSpec(("x",), seed=0)
    with pytest.raises(DomainTooThinError):
        check_identity_rows(("x",), [({}, ((), (lhs,)), lambda p: [at_a_pole])], spec, 7)


def test_box_rows_refuse_an_exact_side():
    rows = [({}, ((), (X,)), lambda p: [p["x"]])]
    with pytest.raises(ValueError, match="exact side"):
        check_identity_rows(("x",), rows, Box({"x": (-5, 5)}), 10)


# --- ud-dichotomy: the batch by index against the point walk ------------------------------


def _dichotomy_points(n, box, seed):
    """The dichotomy's stream one ``randint`` point at a time: the coordinates of x, of y, then the index."""
    names = [f"l{k}{suffix}" for suffix in (LEFT_SUFFIX, RIGHT_SUFFIX) for k in range(1, n + 2)]
    rng = random.Random(seed)
    while True:
        yield {v: rng.randint(-box, box) for v in names} | {"i": rng.randint(0, n)}


def _point_dichotomy(n, box, samples, seed):
    """``ud.check_dichotomy`` one point at a time: the oracle of its batches by index."""
    for done, point in enumerate(itertools.islice(_dichotomy_points(n, box, seed), samples), 1):
        witness = ud_points.dichotomy_at(n, point)
        if witness is not None:
            return CheckOutcome(False, done, witness)
    return CheckOutcome(True, samples)


def _stream_point(n, box, seed, position):
    """The point at ``position`` (1-based) of the dichotomy's stream."""
    return next(itertools.islice(_dichotomy_points(n, box, seed), position - 1, None))


def _bend_at(monkeypatch, n, point, bend):
    """Plant: at the index of ``point``, the shadow of either of its factors is bent.

    ``bend="freeze"`` leaves the factor unmoved and ``"kick"`` adds 1 to
    l1 of its image, so at ``point`` no factor moves, or both do, and the
    dichotomy fails there at C = 1 after its split passes.  The plant bends
    that index only, in the batch (``ud.shadow_columns``) and in the point
    walk (``ud_points.shadow``) alike.
    """
    names = tuple(f"l{k}" for k in range(1, n + 2))
    bent = {tuple(point[v + suffix] for v in names) for suffix in (LEFT_SUFFIX, RIGHT_SUFFIX)}
    true_columns, true_shadow = ud.shadow_columns, ud_points.shadow

    def image(factor, moved):
        return dict(factor) if bend == "freeze" else {**moved, "l1": moved["l1"] + 1}

    def shadow_columns(n, i, columns, width):
        out = {v: list(column) for v, column in true_columns(n, i, columns, width).items()}  # an output may be an input
        if i == point["i"]:
            for k, factor in enumerate(zip(*(columns[v] for v in names))):
                if factor in bent:
                    moved = image(dict(zip(names, factor)), {v: out[v][k] for v in names})
                    for v in names:
                        out[v][k] = moved[v]
        return out

    def shadow(n, i, factor, c):
        moved = true_shadow(n, i, factor, c)
        if i == point["i"] and tuple(factor[v] for v in names) in bent:
            return image(factor, moved)
        return moved

    monkeypatch.setattr(ud, "shadow_columns", shadow_columns)
    monkeypatch.setattr(ud_points, "shadow", shadow)


def _same_outcome(batched, walked):
    """The same ``CheckOutcome``; the reprs agree too, so witness keys come in the same order and values are ints."""
    assert batched == walked
    assert repr(batched) == repr(walked)


_BOX = 50


@pytest.mark.parametrize("samples", [1, 31, 32, 33, 100])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_dichotomy_batches_walk_as_one_point_at_a_time(n, samples, monkeypatch):
    seed = 40 + n
    _same_outcome(ud.check_dichotomy(n, _BOX, samples, seed), _point_dichotomy(n, _BOX, samples, seed))
    for position, bend in itertools.product((1, 31, 32, 33, 64, None), ("freeze", "kick")):
        with monkeypatch.context() as mp:
            if position is None:  # a plant whose point lies outside the box: it never fires
                _bend_at(mp, n, dict.fromkeys(_stream_point(n, _BOX, seed, 1), _BOX + 1) | {"i": 0}, bend)
            else:
                _bend_at(mp, n, _stream_point(n, _BOX, seed, position), bend)
            walked = _point_dichotomy(n, _BOX, samples, seed)
            _same_outcome(ud.check_dichotomy(n, _BOX, samples, seed), walked)
            if position is None or position > samples:
                assert walked == CheckOutcome(True, samples)
            else:
                assert (walked.ok, walked.trials, set(walked.witness)) == (False, position, {"i", "c", "x", "y"})


def _tropical_min(a, b):
    """a·b/(a + b), subtraction-free, which reads min(a, b) in (max, +)."""
    return div(mul(a, b), add(a, b))


def _split_off_in_a_corner(monkeypatch, i0):
    """Plant: at index ``i0`` the split reads C2·(1 + m), m the least of l1 and l2 in both factors.

    In (max, +) that is C2 + max(0, m), so the split fails at the points of
    index ``i0`` whose four coordinates are all positive (about 1 in 16).
    """
    true_split = ud.split_program

    def split_program(n, i):
        if i != i0:
            return true_split(n, i)
        c1, c2 = product_split_exprs(ud.unit_torus(n), ud.unit_torus(n), i)
        m = _tropical_min(
            _tropical_min(var("l1" + LEFT_SUFFIX), var("l2" + LEFT_SUFFIX)),
            _tropical_min(var("l1" + RIGHT_SUFFIX), var("l2" + RIGHT_SUFFIX)),
        )
        return compile_program([c1, mul(c2, add(const(1), m))])

    monkeypatch.setattr(ud, "split_program", split_program)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_dichotomy_batches_settle_a_split_at_one_index_as_the_point_walk(n, monkeypatch):
    failed = set()
    for i0 in range(n + 1):
        for seed in range(4):
            with monkeypatch.context() as mp:
                _split_off_in_a_corner(mp, i0)
                walked = _point_dichotomy(n, _BOX, 100, seed)
                _same_outcome(ud.check_dichotomy(n, _BOX, 100, seed), walked)
                if not walked.ok:
                    assert walked.witness["i"] == i0 and set(walked.witness) == {"i", "c", "split"}
                    failed.add(walked.trials > BATCH_WIDTH)
    assert failed == {False, True}  # in the first batch and in a later one


def _split_with_a_difference(n, i):
    c1, c2 = product_split_exprs(ud.unit_torus(n), ud.unit_torus(n), i)
    return compile_program([sub(c1, const(1)), c2])


def _split_of_an_unbound_name(n, i):
    return compile_program([X, X])


@pytest.mark.parametrize(
    "bad_split, error",
    [(_split_with_a_difference, TropicalizationError), (_split_of_an_unbound_name, UnboundVariableError)],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_program_error_surfaces_at_the_first_point_of_its_index(n, bad_split, error, monkeypatch):
    # the split at one index cannot be read in (max, +): the walk raises at
    # the first point that drew that index, unless an earlier point failed
    seed = 40 + n
    stream = [point["i"] for point in itertools.islice(_dichotomy_points(n, _BOX, seed), 100)]
    i0 = max(set(stream), key=stream.index)  # the index whose first draw comes last
    first = stream.index(i0) + 1
    assert first > 1
    true_split = ud.split_program
    monkeypatch.setattr(ud, "split_program", lambda n, i: bad_split(n, i) if i == i0 else true_split(n, i))
    for position in (first - 1, first, first + 1):
        with monkeypatch.context() as mp:
            _bend_at(mp, n, _stream_point(n, _BOX, seed, position), "freeze")
            if position < first:  # the earlier witness wins
                walked = _point_dichotomy(n, _BOX, 100, seed)
                assert walked.trials == position
                _same_outcome(ud.check_dichotomy(n, _BOX, 100, seed), walked)
            else:
                with pytest.raises(error) as walked:
                    _point_dichotomy(n, _BOX, 100, seed)
                with pytest.raises(error) as batched:
                    ud.check_dichotomy(n, _BOX, 100, seed)
                assert str(batched.value) == str(walked.value)


def test_the_ud_suite_reads_no_point_at_a_time(monkeypatch):
    # every sampled ud check runs its batches as columns: expr.run_maxplus
    # serves only the single-point callers (trop_eval, ud rmap)
    calls = 0

    def counted(program, point):
        nonlocal calls
        calls += 1
        return run_maxplus(program, point)

    for module in [m for name, m in sys.modules.items() if name.startswith("gcrystal")]:
        if getattr(module, "run_maxplus", None) is run_maxplus:
            monkeypatch.setattr(module, "run_maxplus", counted)
    assert all(r.verdict == "pass" for r in run_suite("ud", {}))
    assert calls == 0


# --- deep trees ------------------------------------------------------------------------------


def _left_sum(terms):
    e = var("x")
    for _ in range(terms - 1):
        e = add(e, var("x"))
    return e


def test_a_5000_term_sum_prints_its_reading(capsys):
    terms = 5000
    assert cli.main(["ud", "trop", "--expr", "+".join(["x"] * terms)]) == 0
    lines = capsys.readouterr().out.splitlines()
    reading = "max(" * (terms - 1) + "x" + ", x)" * (terms - 1)
    assert lines[2] == f'  "tropical": {json.dumps(reading)},'
    assert lines[1] == f'  "input": {json.dumps(" + ".join(["x"] * terms))},'
    assert lines[3] == f'  "tree": {to_json(_left_sum(terms))}'


def test_deep_trees_certify_print_and_convert():
    e = sub(_left_sum(5000), var("y"))
    assert certify_subtraction_free(e).blocked_path == ()
    blocked = add(sub(var("x"), var("y")), var("z"))
    for _ in range(4999):
        blocked = add(blocked, var("z"))
    assert certify_subtraction_free(blocked).blocked_path == (0,) * 5000
    assert pretty(_left_sum(5000)) == " + ".join(["x"] * 5000)
    assert tropicalize(_left_sum(3)) == "max(max(x, x), x)"
    # the first offending node in preorder, left before right
    assert certify_subtraction_free(parse("(x - y)*(z - 1) + -2*y")).blocked_path == (0, 0)


def test_the_parser_reads_any_nesting_depth(capsys):
    depth = 5000
    assert to_json(parse("(" * depth + "x*y" + ")" * depth)) == to_json(mul(var("x"), var("y")))
    negated = var("x")
    for _ in range(depth):
        negated = mul(const(-1), negated)
    assert to_json(parse("-" * depth + "x")) == to_json(negated)
    assert to_json(parse("-" * depth + "3")) == to_json(const(3 * (-1) ** depth))
    # the Horner form x*(x + x*(x + ...)): pretty writes one parenthesis per level
    horner = var("x")
    for _ in range(depth):
        horner = mul(var("x"), add(var("x"), horner))
    assert to_json(parse(pretty(horner))) == to_json(horner)
    nested = "(" * 1000 + "x + y" + ")" * 1000
    assert cli.main(["ud", "trop", "--expr", nested]) == 0
    assert '"tropical": "max(x, y)"' in capsys.readouterr().out


def test_deep_trees_substitute_list_their_variables_and_convert():
    names = [f"x{k}" for k in range(5000)]
    e = var(names[0])
    for name in names[1:]:
        e = add(e, var(name))
    assert free_variables(e) == set(names)
    doubled = mul(var("y"), const(2))
    image = substitute(e, {"x0": doubled, "x4999": var("z")})
    assert free_variables(image) == set(names[1:-1]) | {"y", "z"}
    assert pretty(image) == " + ".join(["y*2", *names[1:-1], "z"])
    obj, depth = to_json_obj(image), 0
    while obj["op"] == "add":
        assert obj["args"][1] == {"op": "var", "name": "z" if depth == 0 else names[-1 - depth]}
        obj, depth = obj["args"][0], depth + 1
    assert depth == 4999 and obj == to_json_obj(doubled)


def test_deep_trees_compare_and_hash():
    horner = var("x")
    for _ in range(1000):
        horner = mul(var("x"), add(var("x"), horner))
    assert parse(pretty(horner)) == horner
    assert hash(parse(pretty(horner))) == hash(horner)
    other = var("y")  # the same shape with another innermost leaf
    for _ in range(1000):
        other = mul(var("x"), add(var("x"), other))
    assert other != horner
    total = _left_sum(5000)
    assert hash(total) == hash(_left_sum(5000)) and total == _left_sum(5000)
    assert total != add(_left_sum(4999), var("y")) and total != sub(_left_sum(4999), var("x"))
    assert len({total, _left_sum(5000), _left_sum(4999)}) == 2


@settings(max_examples=300, deadline=None)
@given(_exprs(3), _exprs(3))
def test_equality_is_structural_and_hash_agrees(a, b):
    # substitute rebuilds a tree as new objects through the constructors, which fold nothing new here
    for x, y in ((a, b), (a, substitute(a, {})), (add(a, a), add(a, substitute(a, {})))):
        assert (x == y) == (to_json_obj(x) == to_json_obj(y))
        if x == y:
            assert hash(x) == hash(y)


def _substitute_walk(e, mapping):
    """``substitute`` node by node, recursively: the oracle of the folded one."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Pow):
        return pow_(_substitute_walk(e.base, mapping), e.exponent)
    build = {Add: add, Sub: sub, Mul: mul, Div: div}[type(e)]
    return build(_substitute_walk(e.left, mapping), _substitute_walk(e.right, mapping))


def _names_walk(e):
    return {e.name} if isinstance(e, Var) else set().union(*map(_names_walk, children(e)))


@settings(max_examples=200, deadline=None)
@given(_exprs(4), _exprs(2))
def test_substitute_is_the_substitution_node_by_node(e, image):
    # shared subtrees and powers included; the constructors fold constants, so images may collapse
    for tree in (e, add(e, e), pow_(mul(e, image), 2)):
        assert substitute(tree, {"x": image}) == _substitute_walk(tree, {"x": image})
        assert free_variables(tree) == _names_walk(tree)


@settings(max_examples=200, deadline=None)
@given(_exprs(4))
def test_json_text_is_the_json_of_the_tree(e):
    assert to_json(e) == json.dumps(to_json_obj(e))
