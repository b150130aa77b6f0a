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

The plans (:class:`gcrystal.crystal.Plan`) state, as identity rows read at
sampled points:

* the scaling/invariance table of eps_J and eps*_J under every ``e_i^c``
  with ``i`` in the chain, including the two boundary cases where the
  acting index sits just outside the interval: the whole table read at
  e_i^c(x) against one expected tree per entry, read at x;
* the two alternating convolution identities (the eps/eps* analogue of a
  unitriangular inverse relation), each as its even terms = its odd terms;
* well-definedness: the whole table read at both sides of the commuting
  and braid composition relations;
* the product construction, which transports two epsilon systems to the
  product crystal by a convolution weighted by the left factor's gammas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .crystal import (
    LEFT_SUFFIX,
    RIGHT_SUFFIX,
    S1,
    CartanData,
    CrystalModel,
    Plan,
    cartan_finite_a,
    composition_sides,
    run_plan,
    tree_row,
    word_side,
)
from .expr import (
    CheckOutcome,
    Program,
    RatExpr,
    const,
    div,
    free_variables,
    mul,
    prod,
    program_for,
    rename_variables,
    sub,
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

    def entries(self) -> list[tuple[bool, Interval]]:
        """(starred, interval) of every eps entry, then of every eps* entry, in :meth:`intervals` order."""
        return [(starred, J) for starred in (False, True) for J in self.intervals()]

    def table_program(self) -> Program:
        """The program of every entry, in :meth:`entries` order; compiled once per system."""
        trees = [(self.eps_star if starred else self.eps)[J] for starred, J in self.entries()]
        return program_for(self, "tables", trees)


def _sum(terms: list[RatExpr]) -> RatExpr:
    """Left-associated sum of a nonempty list of terms."""
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


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
    out = _sum(positives)
    for t in negatives:
        out = sub(out, t)
    return out


def system_from_eps(chain: tuple[int, ...], eps: Mapping[Interval, RatExpr]) -> EpsilonSystem:
    """Build a full system from the unstarred table alone."""
    star = {interval: eps_star_from_eps(eps, interval) for interval in dict(eps)}
    return EpsilonSystem(chain, dict(eps), star)


# --- identity checks ------------------------------------------------------------


def _alternating_rows(system: EpsilonSystem, interval: Interval) -> list:
    """Both convolution sums over j = a-1 .. b vanish: their even terms equal their odd terms."""
    a, b = interval
    rows = []
    for first_starred in (False, True):
        left, right = (system.star_at, system.eps_at) if first_starred else (system.eps_at, system.star_at)
        terms = [mul(left(a, j), right(j + 1, b)) for j in range(a - 1, b + 1)]
        label = {"interval": interval, "starred_first": first_starred}
        rows.append(tree_row(label, _sum(terms[0::2]), _sum(terms[1::2])))
    return rows


def _partition_rows(system: EpsilonSystem, interval: Interval) -> list:
    """The stored eps*_J against the alternating partition sum of the eps table."""
    expected = eps_star_from_eps(system.eps, interval)
    return [tree_row({"interval": interval}, system.eps_star[interval], expected)]


def alternating_plan(system: EpsilonSystem, model: CrystalModel, interval: Interval) -> Plan:
    """Both alternating convolutions over ``interval`` must vanish identically."""
    return model.plan(_alternating_rows(system, interval))


def partition_sum_plan(system: EpsilonSystem, model: CrystalModel, interval: Interval) -> Plan:
    """The stored eps*_J must equal the alternating partition sum of the eps table."""
    return model.plan(_partition_rows(system, interval))


def _transformed_eps(system: EpsilonSystem, a: int, b: int, p: int, starred: bool) -> RatExpr:
    """The tree that eps_J (or eps*_J) must equal at e_i^c(x) for i = chain[p], over x and c = s1.

    Encodes the full action table: inverse scaling at the leading position
    (trailing one for the starred family), the two boundary corrections just
    outside the interval, and invariance everywhere else.
    """
    table = system.star_at if starred else system.eps_at
    base = table(a, b)
    if (p == b) if starred else (p == a):
        return div(base, S1)
    if p == b + 1:
        ratio = div(table(a, b + 1), system.eps_at(b + 1, b + 1))
        return S1 * base + (1 - S1) * ratio if starred else base + (S1 - 1) * ratio
    if p == a - 1:
        ratio = div(table(a - 1, b), system.eps_at(a - 1, a - 1))
        return base + (S1 - 1) * ratio if starred else S1 * base + (1 - S1) * ratio
    return base


def axiom_plan(system: EpsilonSystem, model: CrystalModel) -> Plan:
    """Exercise the action table against every chain index.

    One row per chain index i: every entry of :meth:`EpsilonSystem.table_program`
    read at e_i^c(x) against its expected tree at x.  A failing row's
    ``output`` is the entry's place in :meth:`EpsilonSystem.entries`.
    """
    rows = []
    for p, label in enumerate(system.chain):
        expected = tuple(_transformed_eps(system, a, b, p, starred) for starred, (a, b) in system.entries())
        rows.append(({"index": label}, word_side(model, ((label, S1),), system.table_program()), ((), expected)))
    return model.plan(rows, ("s1",))


def well_defined_plan(system: EpsilonSystem, model: CrystalModel, i: int, j: int) -> Plan:
    """eps_J and eps*_J agree along both sides of the (i, j) composition relation.

    Every entry of :meth:`EpsilonSystem.table_program` is read at both images.
    """
    a_ij, a_ji = model.cartan.a(i, j), model.cartan.a(j, i)
    if (a_ij, a_ji) not in ((0, 0), (-1, -1)):
        raise ValueError("well-definedness is checked for commuting and braid pairs only")
    left, right = composition_sides(i, j, a_ij, a_ji)
    tables = system.table_program()
    rows = [({"pair": (i, j)}, word_side(model, left, tables), word_side(model, right, tables))]
    return model.plan(rows, ("s1", "s2"))


def pair_identity_plan(system: EpsilonSystem, model: CrystalModel, a: int) -> Plan:
    """eps_[a,a+1] + eps*_[a,a+1] = eps_a * eps_{a+1} (adjacent-pair identity)."""
    lhs = system.eps_at(a, a + 1) + system.star_at(a, a + 1)
    rhs = mul(system.eps_at(a, a), system.eps_at(a + 1, a + 1))
    return model.plan([tree_row({"a": a}, lhs, rhs)])


# The checks the benchmark's tracer wraps by name (perfbench/tracer.py); they
# go with ROADMAP item 1, and the suites file the plans themselves.
def check_epsilon_axiom(system, model, trials=100, seed=0) -> CheckOutcome:
    return run_plan(axiom_plan(system, model), trials, seed)


def check_partition_sum(system, model, interval, trials=100, seed=0) -> CheckOutcome:
    return run_plan(partition_sum_plan(system, model, interval), trials, seed)


def check_alternating_identities(system, model, interval, trials=100, seed=0) -> CheckOutcome:
    return run_plan(alternating_plan(system, model, interval), trials, seed)


def check_pair_identity(system, model, a, trials=100, seed=0) -> CheckOutcome:
    return run_plan(pair_identity_plan(system, model, a), trials, seed)


def check_well_defined(system, model, i, j, trials=100, seed=0) -> CheckOutcome:
    return run_plan(well_defined_plan(system, model, i, j), trials, seed)


def check_epsilon_system(
    system: EpsilonSystem, model: CrystalModel, trials: int = 100, seed: int = 0
) -> CheckOutcome:
    """The action table, then the partition sum and both alternating identities on every interval."""
    outcome = run_plan(axiom_plan(system, model), trials, seed)
    if not outcome.ok:
        return outcome
    rows = []
    for J in system.intervals():
        rows += _partition_rows(system, J) + _alternating_rows(system, J)
    return run_plan(model.plan(rows), trials, seed)


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
            eps[(s, t)] = _sum(terms)

            terms = []
            for k in range(s - 1, t + 1):
                num = mul(lx(ex.star_at(s, k)), ry(ey.star_at(k + 1, t)))
                denoms = [gamma[j] for j in range(k + 1, t + 1)]
                terms.append(div(num, prod(denoms)) if denoms else num)
            star[(s, t)] = _sum(terms)

    return EpsilonSystem(chain, eps, star)


def restrict_model(model: CrystalModel, chain: tuple[int, ...]) -> CrystalModel:
    """The same variety seen as a type-A crystal on a sub-chain of indices.

    The sub-diagram spanned by ``chain`` must be a type-A chain inside the
    ambient Cartan data: consecutive labels paired by -1, all others 0.
    The chain's own labels are kept, so positions in an attached epsilon
    system translate directly to indices of the restricted model.
    """
    rows = cartan_finite_a(len(chain)).rows
    for p, i in enumerate(chain):
        for q, j in enumerate(chain):
            if model.cartan.a(i, j) != rows[p][q]:
                raise ValueError(
                    f"labels {chain} do not span a type-A chain: a({i},{j}) = {model.cartan.a(i, j)}"
                )
    return CrystalModel(
        name=f"{model.name}|{','.join(map(str, chain))}",
        cartan=CartanData(chain, rows),
        variables=model.variables,
        constraints=model.constraints,
        positive=model.positive,
        gamma={i: model.gamma[i] for i in chain},
        eps={i: model.eps[i] for i in chain},
        actions={i: model.actions[i] for i in chain},
    )


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
