"""Interval-indexed epsilon systems on type-A geometric crystals.

An epsilon system attaches to every interval ``J`` of a type-A chain two
rational functions ``eps_J`` and ``eps*_J``.  Singletons reuse the model's
own ``eps_i``; the empty interval counts as the constant 1.  The starred
family is determined by the unstarred one through an alternating sum over
ordered partitions of ``J`` into sub-intervals: a partition contributes
its block product with sign ``(-1)^(|J| - number of blocks)``.

Chains are stored as tuples of model labels in type-A order, and intervals
are addressed by chain *positions* ``(a, b)`` with ``0 <= a <= b``.  This
keeps local systems (chains whose labels are not contiguous integers)
uniform with the plain ones.

The checkers verify, by exact evaluation at sampled points:

* the scaling/invariance table of eps_J and eps*_J under every ``e_i^c``
  with ``i`` in the chain, including the two boundary cases where the
  acting index sits just outside the interval;
* the two alternating convolution identities (the eps/eps* analogue of a
  unitriangular inverse relation), each summing to zero;
* well-definedness: eps_J and eps*_J agree along both sides of the
  commuting and braid composition relations;
* the product construction, which transports two epsilon systems to the
  product crystal by a convolution weighted by the left factor's gammas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    CrystalModel,
    apply_e,
    apply_word,
    composition_words,
    _split_scalars,
)
from .expr import (
    CheckOutcome,
    RatExpr,
    const,
    div,
    evaluate,
    free_variables,
    identical_on_domain,
    mul,
    pointwise_check,
    prod,
    rename_variables,
    sub,
    vanishes_on_domain,
)

Interval = tuple[int, int]  # chain positions (a, b), inclusive, a <= b
Partition = tuple[Interval, ...]


def enumerate_partitions(interval: Interval) -> list[Partition]:
    """All ordered partitions of ``interval`` into consecutive blocks.

    There are ``2^(length-1)`` of them; the order is by ascending breakpoint
    bitmask (bit ``g`` set means "cut after position ``a + g``"), so the
    one-block partition comes first and the all-singletons one last.
    """
    a, b = interval
    if a > b:
        raise ValueError("empty interval has no partitions")
    gaps = b - a
    out: list[Partition] = []
    for mask in range(1 << gaps):
        blocks: list[Interval] = []
        start = a
        for g in range(gaps):
            if mask >> g & 1:
                blocks.append((start, a + g))
                start = a + g + 1
        blocks.append((start, b))
        out.append(tuple(blocks))
    return out


@dataclass(frozen=True)
class EpsilonSystem:
    """Expression tables ``eps`` and ``eps_star`` over the intervals of a chain."""

    chain: tuple[int, ...]
    eps: Mapping[Interval, RatExpr]
    eps_star: Mapping[Interval, RatExpr]

    def __post_init__(self):
        for table in (self.eps, self.eps_star):
            for a, b in self.intervals():
                if (a, b) not in table:
                    raise ValueError(f"missing interval ({a}, {b}) in epsilon table")

    def intervals(self) -> list[Interval]:
        n = len(self.chain)
        return [(a, b) for a in range(n) for b in range(a, n)]

    def eps_at(self, a: int, b: int) -> RatExpr:
        """eps of positions [a, b]; the empty interval (a > b) is the constant 1."""
        if a > b:
            return const(1)
        return self.eps[(a, b)]

    def star_at(self, a: int, b: int) -> RatExpr:
        if a > b:
            return const(1)
        return self.eps_star[(a, b)]


def eps_star_from_eps(eps: Mapping[Interval, RatExpr], interval: Interval) -> RatExpr:
    """The alternating partition sum defining eps* from the eps table.

    Positive-sign terms are accumulated first and negative ones subtracted,
    so the tree never needs a zero or negative constant even when the sum
    happens to vanish identically.
    """
    a, b = interval
    size = b - a + 1
    positives: list[RatExpr] = []
    negatives: list[RatExpr] = []
    for p in enumerate_partitions(interval):
        term = prod([eps[block] for block in p])
        if (size - len(p)) % 2 == 0:
            positives.append(term)
        else:
            negatives.append(term)
    out = positives[0]
    for t in positives[1:]:
        out = out + t
    for t in negatives:
        out = sub(out, t)
    return out


def system_from_eps(chain: tuple[int, ...], eps: Mapping[Interval, RatExpr]) -> EpsilonSystem:
    """Build a full system from the unstarred table alone."""
    star = {interval: eps_star_from_eps(eps, interval) for interval in dict(eps)}
    return EpsilonSystem(chain, dict(eps), star)


# --- identity checks ------------------------------------------------------------


def _alternating_sum(first_starred: bool, system: EpsilonSystem, a: int, b: int) -> RatExpr:
    """One of the two convolution sums over j = a-1 .. b, normalized to start +."""
    positives: list[RatExpr] = []
    negatives: list[RatExpr] = []
    for j in range(a - 1, b + 1):
        if first_starred:
            term = mul(system.star_at(a, j), system.eps_at(j + 1, b))
        else:
            term = mul(system.eps_at(a, j), system.star_at(j + 1, b))
        ((positives, negatives)[(j - (a - 1)) % 2]).append(term)
    out = positives[0]
    for t in positives[1:]:
        out = out + t
    for t in negatives:
        out = sub(out, t)
    return out


def check_alternating_identities(
    system: EpsilonSystem,
    model: CrystalModel,
    interval: Interval,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """Both alternating convolutions over ``interval`` must vanish identically."""
    a, b = interval
    spec = model.domain_spec(seed)
    for first_starred in (False, True):
        outcome = vanishes_on_domain(_alternating_sum(first_starred, system, a, b), spec, trials)
        if not outcome.ok:
            return outcome
    return outcome


def check_partition_sum(
    system: EpsilonSystem,
    model: CrystalModel,
    interval: Interval,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """The stored eps*_J must equal the alternating partition sum of the eps table."""
    expected = eps_star_from_eps(system.eps, interval)
    return identical_on_domain(system.eps_star[interval], expected, model.domain_spec(seed), trials)


def _transformed_eps(system: EpsilonSystem, a: int, b: int, p: int, c: Fraction, x, starred: bool) -> Fraction:
    """Expected value of eps_J (or eps*_J) at e_i^c(x) for i = chain[p].

    Encodes the full action table: inverse scaling at the leading position
    (trailing one for the starred family), the two boundary corrections just
    outside the interval, and invariance everywhere else.
    """
    table = system.star_at if starred else system.eps_at
    base = evaluate(table(a, b), x)
    if not starred and p == a:
        return base / c
    if starred and p == b:
        return base / c
    if p == b + 1:
        neighbor = evaluate(table(a, b + 1), x)
        edge = evaluate(system.eps_at(b + 1, b + 1), x)
        if starred:
            return c * base + (1 - c) * neighbor / edge
        return base + (c - 1) * neighbor / edge
    if p == a - 1:
        neighbor = evaluate(table(a - 1, b), x)
        edge = evaluate(system.eps_at(a - 1, a - 1), x)
        if starred:
            return base + (c - 1) * neighbor / edge
        return c * base + (1 - c) * neighbor / edge
    return base


def check_epsilon_axiom(
    system: EpsilonSystem,
    model: CrystalModel,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """Exercise the action table against every chain index, by evaluation.

    All intervals are verified at each sampled point (one action
    application per index serves every table lookup, which is what keeps
    the large models affordable).
    """
    intervals = system.intervals()

    def fn(point):
        x, (c,) = _split_scalars(point, ("s1",))
        for p, label in enumerate(system.chain):
            y = apply_e(model, label, c, x)
            for a, b in intervals:
                for starred in (False, True):
                    table = system.star_at if starred else system.eps_at
                    got = evaluate(table(a, b), y)
                    want = _transformed_eps(system, a, b, p, c, x, starred)
                    if got != want:
                        return {
                            "interval": (a, b),
                            "index": label,
                            "starred": starred,
                            "c": c,
                            "x": x,
                            "lhs": got,
                            "rhs": want,
                        }
        return None

    return pointwise_check(fn, model.domain_spec(seed, extra=("s1",)), trials)


def check_well_defined(
    system: EpsilonSystem,
    model: CrystalModel,
    i: int,
    j: int,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """eps_J and eps*_J agree along both sides of the (i, j) composition relation.

    Every interval is checked at each sampled point.
    """
    a_ij, a_ji = model.cartan.a(i, j), model.cartan.a(j, i)
    if (a_ij, a_ji) not in ((0, 0), (-1, -1)):
        raise ValueError("well-definedness is checked for commuting and braid pairs only")
    left, right = composition_words(i, j, a_ij, a_ji)
    intervals = system.intervals()

    def fn(point):
        x, (c1, c2) = _split_scalars(point, ("s1", "s2"))
        lhs_pt = apply_word(model, [(k, c1**p * c2**q) for k, (p, q) in left], x)
        rhs_pt = apply_word(model, [(k, c1**p * c2**q) for k, (p, q) in right], x)
        for a, b in intervals:
            for table in (system.eps_at, system.star_at):
                lhs = evaluate(table(a, b), lhs_pt)
                rhs = evaluate(table(a, b), rhs_pt)
                if lhs != rhs:
                    return {
                        "interval": (a, b),
                        "pair": (i, j),
                        "c1": c1,
                        "c2": c2,
                        "x": x,
                        "lhs": lhs,
                        "rhs": rhs,
                    }
        return None

    return pointwise_check(fn, model.domain_spec(seed, extra=("s1", "s2")), trials)


def check_pair_identity(
    system: EpsilonSystem,
    model: CrystalModel,
    a: int,
    trials: int = 100,
    seed: int = 0,
) -> CheckOutcome:
    """eps_[a,a+1] + eps*_[a,a+1] = eps_a * eps_{a+1} (adjacent-pair identity)."""
    lhs = system.eps_at(a, a + 1) + system.star_at(a, a + 1)
    rhs = mul(system.eps_at(a, a), system.eps_at(a + 1, a + 1))
    return identical_on_domain(lhs, rhs, model.domain_spec(seed), trials)


def check_epsilon_system(
    system: EpsilonSystem, model: CrystalModel, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """The action table, then the partition sum and both alternating identities on every interval."""
    outcome = check_epsilon_axiom(system, model, trials, seed)
    for interval in system.intervals():
        for check in (check_partition_sum, check_alternating_identities):
            if not outcome.ok:
                return outcome
            outcome = check(system, model, interval, trials, seed)
    return outcome


# --- products and restrictions -----------------------------------------------------


def product_epsilon(
    ex: EpsilonSystem, ey: EpsilonSystem, x_model: CrystalModel
) -> EpsilonSystem:
    """Epsilon system on the product crystal, from the factor systems.

    eps_[s,t](x, y) convolves right-factor eps against left-factor eps,
    dividing by the left gammas between the split point and the left edge;
    eps*_[s,t] is the mirror image with the roles of the factors swapped
    and the gamma weights taken from the other end.
    """
    if ex.chain != ey.chain:
        raise ValueError("factor systems live on different chains")
    chain = ex.chain

    def lx(e: RatExpr) -> RatExpr:
        return rename_variables(e, {v: v + LEFT_SUFFIX for v in free_variables(e)})

    def ry(e: RatExpr) -> RatExpr:
        return rename_variables(e, {v: v + RIGHT_SUFFIX for v in free_variables(e)})

    gamma = {p: lx(x_model.gamma[chain[p]]) for p in range(len(chain))}

    eps: dict[Interval, RatExpr] = {}
    star: dict[Interval, RatExpr] = {}
    n = len(chain)
    for s in range(n):
        for t in range(s, n):
            terms = []
            for k in range(s - 1, t + 1):
                num = mul(ry(ey.eps_at(s, k)), lx(ex.eps_at(k + 1, t)))
                denoms = [gamma[j] for j in range(s, k + 1)]
                terms.append(div(num, prod(denoms)) if denoms else num)
            acc = terms[0]
            for term in terms[1:]:
                acc = acc + term
            eps[(s, t)] = acc

            terms = []
            for k in range(s - 1, t + 1):
                num = mul(lx(ex.star_at(s, k)), ry(ey.star_at(k + 1, t)))
                denoms = [gamma[j] for j in range(k + 1, t + 1)]
                terms.append(div(num, prod(denoms)) if denoms else num)
            acc = terms[0]
            for term in terms[1:]:
                acc = acc + term
            star[(s, t)] = acc

    return EpsilonSystem(chain, eps, star)


def restrict_model(model: CrystalModel, chain: tuple[int, ...]) -> CrystalModel:
    """The same variety seen as a type-A crystal on a sub-chain of indices.

    The sub-diagram spanned by ``chain`` must be a type-A chain inside the
    ambient Cartan data: consecutive labels paired by -1, all others 0.
    The chain's own labels are kept, so positions in an attached epsilon
    system translate directly to indices of the restricted model.
    """
    from .crystal import CartanData

    for p, i in enumerate(chain):
        for q, j in enumerate(chain):
            expected = 2 if p == q else (-1 if abs(p - q) == 1 else 0)
            if model.cartan.a(i, j) != expected:
                raise ValueError(
                    f"labels {chain} do not span a type-A chain: a({i},{j}) = {model.cartan.a(i, j)}"
                )
    k = len(chain)
    sub = CartanData(
        chain,
        tuple(
            tuple(2 if p == q else (-1 if abs(p - q) == 1 else 0) for q in range(k))
            for p in range(k)
        ),
    )
    return CrystalModel(
        name=f"{model.name}|{','.join(map(str, chain))}",
        cartan=sub,
        variables=model.variables,
        constraints=model.constraints,
        positive=model.positive,
        gamma={i: model.gamma[i] for i in chain},
        eps={i: model.eps[i] for i in chain},
        actions={i: model.actions[i] for i in chain},
    )


def system_to_json_obj(system: EpsilonSystem) -> dict:
    """JSON-ready export of both tables, keyed by "a,b" position strings."""
    from .expr import to_json_obj

    return {
        "chain": list(system.chain),
        "eps": {f"{a},{b}": to_json_obj(system.eps[(a, b)]) for a, b in system.intervals()},
        "eps_star": {
            f"{a},{b}": to_json_obj(system.eps_star[(a, b)]) for a, b in system.intervals()
        },
    }


def local_epsilon(
    model: CrystalModel,
    chain: tuple[int, ...],
    eps: Mapping[Interval, RatExpr],
    eps_star: Mapping[Interval, RatExpr] | None = None,
) -> tuple[CrystalModel, EpsilonSystem]:
    """Restrict ``model`` to a type-A sub-chain and attach an epsilon system.

    When ``eps_star`` is omitted the starred table is generated from the
    partition sums; supplying it keeps an independent derivation that the
    checkers can compare against the sums.
    """
    restricted = restrict_model(model, chain)
    if eps_star is None:
        system = system_from_eps(chain, eps)
    else:
        system = EpsilonSystem(chain, dict(eps), dict(eps_star))
    return restricted, system
