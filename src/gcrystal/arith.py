"""Exact rational arithmetic and constrained random sampling.

Every numeric value in this package is an exact rational: ``ExactScalar``
is the standard-library ``fractions.Fraction``, which is always kept in
lowest terms with a positive denominator and never rounds.  All identity
testing downstream relies on this exactness; nothing in the package ever
touches a float.

Sampling of evaluation points is driven by a :class:`SampleSpec`: a list
of variables, an optional positivity flag, and "the product of these
variables must equal this value" constraints.  Constrained subsets are
sampled by choosing all but one variable freely and solving for the last
one, so the constraint holds exactly, not approximately.

:func:`draw_pairs` is the one draw: it gives every variable as an
unreduced (numerator, denominator) pair of ints, the form in which the
compiled programs of :mod:`gcrystal.expr` read and compare values, so a
sampled check builds no ``Fraction`` until it reports a witness.
:func:`sample_point` is the same draw as ``Fraction`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

ExactScalar = Fraction

Assignment = dict[str, Fraction]

# a drawn point: every variable as an unreduced (numerator, denominator)
# pair of ints, the denominator nonzero and possibly negative
PairPoint = dict[str, tuple[int, int]]


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

    def with_seed(self, seed: int) -> "SampleSpec":
        return SampleSpec(self.variables, self.positive, self.constraints, self.magnitude, seed)

    @cached_property
    def _plan(self):
        """Positions of the free variables, then (position, positions of the rest, target) per solved one."""
        where = {name: k for k, name in enumerate(self.variables)}
        solved = {subset[-1]: (subset, target) for subset, target in self.constraints}
        free = [k for k, name in enumerate(self.variables) if name not in solved]
        solves = [(where[last], [where[v] for v in subset[:-1]], target) for last, (subset, target) in solved.items()]
        return free, solves


def draw_pairs(spec: SampleSpec, rng: random.Random) -> PairPoint:
    """Draw one point of ``spec`` as unreduced int pairs, keyed in ``spec.variables`` order.

    Each free variable is ``randrange(m) + 1`` over ``randrange(m) + 1``
    (the stream of ``randint(1, m)``), negated when ``rng.random() < 0.5``
    on a signed spec.  The last variable of each constrained subset is
    solved as target·∏dens / ∏nums of the others, so the product holds
    exactly.
    """
    free, solves = spec._plan
    m, signed = spec.magnitude, not spec.positive
    randrange = rng.randrange
    nums = [0] * len(spec.variables)
    dens = nums[:]
    for k in free:
        num = randrange(m) + 1
        dens[k] = randrange(m) + 1
        nums[k] = -num if signed and rng.random() < 0.5 else num
    for k, rest, target in solves:
        num, den = target.numerator, target.denominator
        for r in rest:
            num *= dens[r]
            den *= nums[r]
        nums[k] = num
        dens[k] = den
    return dict(zip(spec.variables, zip(nums, dens)))


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
