"""Exact rational arithmetic and the sampling domains of the checks.

Every numeric value in this package is an exact rational: ``ExactScalar``
is the standard-library ``fractions.Fraction``, which is always kept in
lowest terms with a positive denominator and never rounds.  All identity
testing downstream relies on this exactness; nothing in the package ever
touches a float.

A sampled check draws its points from one of two domains, each with one
draw, ``draw(rng, width)``, giving a batch of points as one column per
variable.  A :class:`SampleSpec` gives exact rational points: a list of
variables, an optional positivity flag, and "the product of these
variables must equal this value" constraints.  Constrained subsets are
sampled by choosing all but one variable freely and solving for the last
one, so the constraint holds exactly, not approximately.  Its columns
hold unreduced (numerator, denominator) pairs of ints, the form in which
the compiled programs of :mod:`gcrystal.expr` read and compare values, so
a sampled check builds no ``Fraction`` until it reports a witness.
:func:`draw_pairs` is one point of a batch, and :func:`sample_point` that
point as ``Fraction`` values.  A :class:`Box` gives the integer points of
a box, where the tropical shadows are read in (max, +), as int columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping

ExactScalar = Fraction

Assignment = dict[str, Fraction]

# a drawn point: every variable as an unreduced (numerator, denominator)
# pair of ints, the denominator nonzero and possibly negative
PairPoint = dict[str, tuple[int, int]]

# a drawn batch of points: every variable as a column of numerators and a
# column of denominators, entry j belonging to point j
Columns = dict[str, tuple[list[int], list[int]]]

# a drawn batch of integer box points: one column of ints per coordinate
BoxColumns = dict[str, list[int]]


class ConstraintConflictError(ValueError):
    """Product constraints overlap in a way that admits no direct solution."""


class DomainTooThinError(RuntimeError):
    """Repeated sampling kept hitting poles; the usable domain looks empty."""


def rat(numerator: int, denominator: int = 1) -> Fraction:
    """Build an exact rational; shorthand used throughout the test-suite."""
    return Fraction(numerator, denominator)


def product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


@dataclass(frozen=True)
class SampleSpec:
    """Recipe for sampling exact rational points.

    variables:   names to assign, in a fixed order (order matters for
                 reproducibility).
    positive:    when set, all samples are drawn from the positive rationals.
    constraints: tuples ``(subset, target)`` requiring the product of the
                 subset's values to equal ``target`` exactly.  A subset
                 names at least one variable, none twice.  Subsets must
                 be pairwise disjoint (identical duplicates are tolerated);
                 anything else raises :class:`ConstraintConflictError`.
    magnitude:   bound on sampled numerators and denominators, an int
                 (not a bool) of at least 1.  Kept small by default so
                 products of many samples stay tractable.
    seed:        64-bit seed; the same spec and seed always reproduce the
                 same assignment.
    """

    variables: tuple[str, ...]
    positive: bool = False
    constraints: tuple[tuple[tuple[str, ...], Fraction], ...] = ()
    magnitude: int = 1000
    seed: int = 0

    def __post_init__(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise ValueError("duplicate variable names in SampleSpec")
        if isinstance(self.magnitude, bool) or not isinstance(self.magnitude, int) or self.magnitude < 1:
            raise ValueError("magnitude bound must be a positive integer")
        seen: set[str] = set()
        dedup: set[tuple[tuple[str, ...], Fraction]] = set()
        for subset, target in self.constraints:
            if not subset:
                raise ValueError("a product constraint needs at least one variable")
            if len(set(subset)) != len(subset):
                raise ValueError(f"constraint subset {subset} repeats a variable")
            if not set(subset) <= names:
                raise ValueError(f"constraint subset {subset} is not a subset of the variables")
            if target == 0:
                raise ValueError("a product constraint with target 0 is unsatisfiable on nonzero values")
            if (subset, target) in dedup:
                continue
            dedup.add((subset, target))
            overlap = seen & set(subset)
            if overlap:
                raise ConstraintConflictError(
                    f"constraint subsets overlap on {sorted(overlap)}; cannot solve independently"
                )
            seen |= set(subset)

    @cached_property
    def _plan(self):
        """Positions of the free variables, then (position, positions of the rest, target) per solved one."""
        where = {name: k for k, name in enumerate(self.variables)}
        solved = {subset[-1]: (subset, target) for subset, target in self.constraints}
        free = [k for k, name in enumerate(self.variables) if name not in solved]
        solves = [(where[last], [where[v] for v in subset[:-1]], target) for last, (subset, target) in solved.items()]
        return free, solves

    def draw(self, rng: random.Random, width: int) -> Columns:
        """Draw ``width`` points as columns of unreduced int pairs, keyed in ``variables`` order.

        The points are drawn one after another, each variable in turn: a
        free one is ``randrange(m) + 1`` over ``randrange(m) + 1`` (the
        stream of ``randint(1, m)``), negated when ``rng.random() < 0.5``
        on a signed spec.  The last variable of each constrained subset is
        solved as target·∏dens / ∏nums of the others, so the product holds
        exactly.  ``randrange(m)`` is written out as the rejection
        ``random.Random`` runs for it: draw ``m.bit_length()`` random bits
        until the value is below m.
        """
        free, solves = self._plan
        m, signed = self.magnitude, not self.positive
        bits = m.bit_length()
        getrandbits, random_ = rng.getrandbits, rng.random
        nums = [[] for _ in self.variables]
        dens = [[] for _ in self.variables]
        appends = [(nums[k].append, dens[k].append) for k in free]
        for _ in range(width):
            for push_num, push_den in appends:
                num = getrandbits(bits)
                while num >= m:
                    num = getrandbits(bits)
                den = getrandbits(bits)
                while den >= m:
                    den = getrandbits(bits)
                push_den(den + 1)
                push_num(-num - 1 if signed and random_() < 0.5 else num + 1)
        for k, rest, target in solves:
            num, den = [target.numerator] * width, [target.denominator] * width
            for r in rest:
                num = list(map(mul, num, dens[r]))
                den = list(map(mul, den, nums[r]))
            nums[k] = num
            dens[k] = den
        return dict(zip(self.variables, zip(nums, dens)))


@dataclass(frozen=True)
class Box:
    """The integer points of a box: the sampling domain of the (max, +) checks.

    bounds: the closed range ``(lo, hi)`` of each coordinate, ``lo <= hi``,
            in draw order.
    seed:   as for :class:`SampleSpec`.
    """

    bounds: Mapping[str, tuple[int, int]]
    seed: int = 0

    def draw(self, rng: random.Random, width: int) -> BoxColumns:
        """Draw ``width`` points as one column per coordinate, in ``bounds`` order.

        Each point is drawn in turn, each coordinate by the stream of
        ``randint(lo, hi)``: ``lo`` plus ``randrange(hi - lo + 1)``, written
        out as the rejection ``random.Random`` runs for it.
        """
        getrandbits = rng.getrandbits
        plans = [(lo, hi - lo + 1, (hi - lo + 1).bit_length(), []) for lo, hi in self.bounds.values()]
        for _ in range(width):
            for lo, size, bits, column in plans:
                value = getrandbits(bits)
                while value >= size:
                    value = getrandbits(bits)
                column.append(lo + value)
        return {v: plan[3] for v, plan in zip(self.bounds, plans)}


def point_at(columns: Columns, j: int) -> PairPoint:
    """Point ``j`` of a drawn batch, as int pairs in the columns' key order."""
    return {name: (nums[j], dens[j]) for name, (nums, dens) in columns.items()}


def box_point(columns: BoxColumns, j: int) -> dict[str, int]:
    """Point ``j`` of a drawn batch of box points, in the columns' key order."""
    return {v: column[j] for v, column in columns.items()}


def draw_pairs(spec: SampleSpec, rng: random.Random) -> PairPoint:
    """Draw one point of ``spec`` as unreduced int pairs: the batch of one of :meth:`SampleSpec.draw`."""
    return point_at(spec.draw(rng, 1), 0)


def fraction_point(point: PairPoint) -> Assignment:
    """The ``Fraction`` values of a drawn point, in its key order."""
    return {name: Fraction(num, den) for name, (num, den) in point.items()}


def sample_point(spec: SampleSpec, rng: random.Random | None = None) -> Assignment:
    """Draw one assignment satisfying every constraint of ``spec`` exactly.

    Deterministic given ``spec.seed``: the :func:`draw_pairs` point as
    ``Fraction`` values.
    """
    if rng is None:
        rng = random.Random(spec.seed)
    return fraction_point(draw_pairs(spec, rng))


def sample_points(spec: SampleSpec, count: int) -> list[Assignment]:
    """A deterministic stream of ``count`` independent samples from one seed."""
    rng = random.Random(spec.seed)
    return [sample_point(spec, rng) for _ in range(count)]
