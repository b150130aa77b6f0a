"""Rational-expression IR: a small tree language over exact rationals.

Node kinds are ``Var``, ``Const`` (nonzero rational), the binary operators
``Add``/``Sub``/``Mul``/``Div``, and ``Pow`` with an integer exponent.
Trees are immutable, and compare and hash structurally at any depth
(:func:`same_tree`, :func:`tree_hash`).  Expressions are built
through the smart constructors :func:`add`, :func:`sub`, :func:`mul`,
:func:`div`, :func:`pow_`, :func:`var`, :func:`const`, which fold
constant-on-constant operations (and nothing else).  The text DSL and the
random generators in the test-suite go through the same constructors, so
parse/print round-trips are structural identities.

DSL grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*          # left associative
    term   := factor (('*' | '/') factor)*      # left associative
    factor := '-' factor | power
    power  := atom ('^' exponent)*
    atom   := integer | identifier | '(' expr ')'
    exponent := ['-'] integer | '(' ['-'] integer ')'

Identifiers start with a letter or underscore and may contain letters,
digits, underscores and dots (dots appear in product-crystal coordinate
names such as ``l1.x``).  Integer division of two literals folds into a
rational constant, so ``5/7`` is the literal five-sevenths.

Identity testing is exact evaluation at random rational points: two
expressions are declared equal on a domain when they agree exactly at
every sampled point, and a single exact mismatch is a counterexample.
There is no simplifier; exactness does all the work.  Every sampled
check of the library, rational or (max, +), runs through the one loop
:func:`pointwise_check` and returns a :class:`CheckOutcome`.

Evaluation does not walk trees: :func:`compile_program` value-numbers
trees into a straight-line :class:`Program`.  A program has one register
loop per reading and width.  At one point, :func:`run_pairs` evaluates it
exactly from and to unreduced (numerator, denominator) pairs, adding
two pairs over the lcm of their denominators, and
:func:`run_maxplus` reads it in (max, +) on integers; these serve the
callers that hold one point (an action, the R map, the CLI).  Over a
batch of points, :func:`run_columns` and :func:`run_maxplus_columns`
run each instruction once for every point, each register a column, and
:func:`run_columns` flags a pole per point instead of raising.  Sampled
points are drawn as such columns (the ``draw`` of a domain of
:mod:`gcrystal.arith`) and stay ints through the comparison:
:func:`reduce_columns` puts outputs in lowest terms, :func:`settle_row`
compares two sides' pairs by cross-multiplication and
:func:`settle_maxplus_row` two (max, +) sides by ``==``.  The exact
side of a row (:func:`gcrystal.crystal.row_plan`) reads the drawn pairs
and returns pairs too, so a ``Fraction`` is built only for a witness
(:func:`pair_witness`).
:func:`run` reads and returns ``Fraction`` values.  The tree walker
:func:`reference_evaluate` is kept as the oracle of the tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from operator import add as add_, floordiv, mul as mul_, sub as sub_
from typing import Callable

from .arith import Assignment, Box, DomainTooThinError, PairPoint, SampleSpec, box_point, fraction_point, point_at


class ExprError(ValueError):
    """Malformed expression (bad constant, bad exponent, ...)."""


class ParseError(ExprError):
    """Syntax error in the text DSL, with line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvalDomainError(ArithmeticError):
    """Evaluation hit a pole (division by zero).

    Identity tests treat this as a "resample" signal: the expressions are
    rational maps, defined only off a measure-zero locus.
    """


class UnboundVariableError(KeyError):
    """A free variable of the expression is missing from the assignment."""


# --- node types --------------------------------------------------------------

# Node kinds as the compiler sees them; every node class names its kind in
# ``_op``.  Leaves come first.
VAR, CONST, ADD, SUB, MUL, DIV, POW = range(7)


@dataclass(frozen=True, eq=False)
class RatExpr:
    """Base class; every node is one of the subclasses below."""

    _hash = None  # the structural hash, once :func:`tree_hash` has read the node

    def __eq__(self, other):
        if not isinstance(other, RatExpr):
            return NotImplemented
        return same_tree(self, other)

    def __hash__(self):
        return tree_hash(self) if self._hash is None else self._hash

    def __getstate__(self):
        """The fields alone: a kept hash (or program) holds only in the process that made it."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent: int):
        return pow_(self, exponent)

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True, eq=False)
class Var(RatExpr):
    _op = VAR

    name: str


@dataclass(frozen=True, eq=False)
class Const(RatExpr):
    _op = CONST

    value: Fraction

    def __post_init__(self):
        if self.value == 0:
            raise ExprError("zero constants are not representable; build the expression differently")


@dataclass(frozen=True, eq=False)
class Add(RatExpr):
    _op = ADD

    left: RatExpr
    right: RatExpr


@dataclass(frozen=True, eq=False)
class Sub(RatExpr):
    _op = SUB

    left: RatExpr
    right: RatExpr


@dataclass(frozen=True, eq=False)
class Mul(RatExpr):
    _op = MUL

    left: RatExpr
    right: RatExpr


@dataclass(frozen=True, eq=False)
class Div(RatExpr):
    _op = DIV

    left: RatExpr
    right: RatExpr


@dataclass(frozen=True, eq=False)
class Pow(RatExpr):
    _op = POW

    base: RatExpr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise ExprError("exponents must be integers")


# --- smart constructors -------------------------------------------------------


def _coerce(x) -> RatExpr:
    if isinstance(x, RatExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot use {x!r} in an expression")


def var(name: str) -> Var:
    return Var(name)


def const(value) -> Const:
    return Const(Fraction(value))


def add(a: RatExpr, b: RatExpr) -> RatExpr:
    if isinstance(a, Const) and isinstance(b, Const) and a.value + b.value != 0:
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: RatExpr, b: RatExpr) -> RatExpr:
    if isinstance(a, Const) and isinstance(b, Const) and a.value - b.value != 0:
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: RatExpr, b: RatExpr) -> RatExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: RatExpr, b: RatExpr) -> RatExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    return Div(a, b)


def pow_(base: RatExpr, exponent: int) -> RatExpr:
    if not isinstance(exponent, int):
        raise ExprError("exponents must be integers")
    if isinstance(base, Const):
        return Const(base.value**exponent)
    return Pow(base, exponent)


def prod(factors: list[RatExpr]) -> RatExpr:
    """Left-associated product; the empty product is the constant 1."""
    if not factors:
        return const(1)
    out = factors[0]
    for f in factors[1:]:
        out = mul(out, f)
    return out


# --- traversal helpers --------------------------------------------------------


def children(e: RatExpr) -> tuple[RatExpr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def fold(e: RatExpr, leaf: Callable, build: Callable):
    """The image of ``e`` from the leaves up: ``leaf(node)`` of a leaf, ``build(node, images of its children)`` above.

    Works from its own stack, so a tree of any depth is folded, and builds
    a shared subtree once.  No image may be ``None``.
    """
    if e._op <= CONST:
        return leaf(e)
    done: dict[int, object] = {}  # id(node) -> its image
    get = done.get
    stack = [e]
    push = stack.append
    while stack:
        node = stack[-1]
        x, y = (node.base, node.base) if node._op == POW else (node.left, node.right)
        a = leaf(x) if x._op <= CONST else get(id(x))
        b = leaf(y) if y._op <= CONST else get(id(y))
        if a is None or b is None:
            if a is None:
                push(x)
            if b is None and y is not x:
                push(y)
            continue
        stack.pop()
        done[id(node)] = build(node, (a,) if node._op == POW else (a, b))
    return done[id(e)]


def _label(node: RatExpr) -> tuple:
    """A node's kind with what it holds besides its children: a name, a constant or an exponent."""
    op = node._op
    return op, node.name if op == VAR else node.value if op == CONST else node.exponent if op == POW else None


def tree_hash(e: RatExpr) -> int:
    """The hash of ``e`` from the leaves up, kept on every node, so a shared or hashed subtree is read once.

    A node hashes its :func:`_label` with its children's hashes, so equal
    trees hash alike.
    """
    stack = [e]
    while stack:
        node = stack[-1]
        missing = [child for child in children(node) if child._hash is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if node._hash is None:
            object.__setattr__(node, "_hash", hash((_label(node), *(child._hash for child in children(node)))))
    return e._hash


def same_tree(a: RatExpr, b: RatExpr) -> bool:
    """Whether ``a`` and ``b`` are the same tree, node for node, from a walk with its own stack.

    A pair of nodes that are one object, or were already compared, is not
    walked again, and nodes whose kept hashes differ differ.
    """
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if _label(x) != _label(y) or (x._hash is not None and y._hash is not None and x._hash != y._hash):
            return False
        stack.extend(zip(children(x), children(y)))
    return True


def free_variables(e: RatExpr) -> set[str]:
    """The names ``e`` reads, from a walk with its own stack, so a tree of any depth is read."""
    names: set[str] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Var):
                names.add(node.name)
            stack.extend(children(node))
    return names


_BUILD = {ADD: add, SUB: sub, MUL: mul, DIV: div}


def substitute(e: RatExpr, mapping: dict[str, RatExpr]) -> RatExpr:
    """Replace variables by expressions, rebuilding through the constructors (:func:`fold`, so a tree of any depth)."""

    def build(node, args):
        return pow_(args[0], node.exponent) if node._op == POW else _BUILD[node._op](*args)

    return fold(e, lambda node: mapping.get(node.name, node) if node._op == VAR else node, build)


def rename_variables(e: RatExpr, mapping: dict[str, str]) -> RatExpr:
    return substitute(e, {old: Var(new) for old, new in mapping.items()})


# --- reference evaluation -------------------------------------------------------


def reference_evaluate(e: RatExpr, point: Assignment) -> Fraction:
    """Tree-walking evaluation; the test oracle for the compiled path."""
    if isinstance(e, Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Add):
        return reference_evaluate(e.left, point) + reference_evaluate(e.right, point)
    if isinstance(e, Sub):
        return reference_evaluate(e.left, point) - reference_evaluate(e.right, point)
    if isinstance(e, Mul):
        return reference_evaluate(e.left, point) * reference_evaluate(e.right, point)
    if isinstance(e, Div):
        denom = reference_evaluate(e.right, point)
        if denom == 0:
            raise EvalDomainError("division by zero")
        return reference_evaluate(e.left, point) / denom
    if isinstance(e, Pow):
        base = reference_evaluate(e.base, point)
        if base == 0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power")
        return base**e.exponent
    raise TypeError(f"unknown node {e!r}")


# --- compiled programs ----------------------------------------------------------


class Program:
    """Straight-line code for a tuple of expressions; equal subterms run once.

    Registers hold, in order, the input variables ``names``, the constants,
    and the result of each instruction of ``code``.  An instruction
    ``(op, a, b)`` combines registers ``a`` and ``b``; for ``POW``, ``b`` is
    the integer exponent.  ``outputs`` holds the register of each root.
    ``releases[i]`` lists the registers that instruction ``i`` reads for
    the last time and that are not outputs, so a column run can drop them
    (:func:`releases`).
    """

    __slots__ = ("names", "code", "outputs", "releases", "roots", "const_nums", "const_dens", "maxplus_consts")

    def __init__(self, names, code, outputs, roots, const_nums, const_dens, maxplus_consts):
        self.names = names
        self.code = code
        self.outputs = outputs
        self.releases = None  # built by the first column run
        self.roots = roots
        # exact constants as numerators and denominators
        self.const_nums = const_nums
        self.const_dens = const_dens
        # constants under the max-plus reading; None unless certified
        # subtraction-free (no SUB instruction, no negative constant)
        self.maxplus_consts = maxplus_consts


def compile_program(roots) -> Program:
    """Value-number the trees ``roots`` bottom-up into one :class:`Program`.

    A node's key is its kind plus its child registers, its variable name or
    its exact constant, so equal subterms share a register whether or not
    they are the same object; sums and products sort their operands.  Each
    distinct node object is visited once.
    """
    roots = tuple(roots)
    keys: list[tuple] = []  # value number -> key
    numbers: dict[tuple, int] = {}  # key -> value number
    seen: dict[int, int] = {}  # id(node) -> value number
    root_numbers = []
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in seen:
                stack.pop()
                continue
            op = node._op
            if op == VAR:
                key = (VAR, node.name)
            elif op == CONST:
                key = (CONST, node.value)
            elif op == POW:
                base = seen.get(id(node.base))
                if base is None:
                    stack.append(node.base)
                    continue
                key = (POW, base, node.exponent)
            else:
                a = seen.get(id(node.left))
                b = seen.get(id(node.right))
                if a is None:
                    stack.append(node.left)
                if b is None:
                    stack.append(node.right)
                if a is None or b is None:
                    continue
                if (op == ADD or op == MUL) and a > b:
                    a, b = b, a
                key = (op, a, b)
            stack.pop()
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(keys)
                keys.append(key)
            seen[id(node)] = number
        root_numbers.append(seen[id(root)])

    # registers: inputs, then constants, then instructions in value-number
    # order (children are numbered before their parents)
    inputs = [k for k, key in enumerate(keys) if key[0] == VAR]
    leaves = [k for k, key in enumerate(keys) if key[0] == CONST]
    steps = [k for k, key in enumerate(keys) if key[0] > CONST]
    register = [0] * len(keys)
    for r, k in enumerate(inputs + leaves + steps):
        register[k] = r
    code = []
    for k in steps:
        op, a, b = keys[k]
        code.append((op, register[a], b if op == POW else register[b]))

    constants = [keys[k][1] for k in leaves]
    certified = all(op != SUB for op, _, _ in code) and all(value > 0 for value in constants)
    return Program(
        names=tuple(keys[k][1] for k in inputs),
        code=code,
        outputs=tuple(register[k] for k in root_numbers),
        roots=roots,
        const_nums=[value.numerator for value in constants],
        const_dens=[value.denominator for value in constants],
        maxplus_consts=[0] * len(constants) if certified else None,
    )


def _inputs(program: Program, point) -> list:
    try:
        return [point[name] for name in program.names]
    except KeyError as err:
        raise UnboundVariableError(err.args[0]) from None


def run_pairs(program: Program, point: PairPoint) -> tuple[list[int], list[int]]:
    """Numerators and denominators of every output of ``program`` at ``point``.

    ``point`` maps each input name to a (numerator, denominator) pair of
    ints, and values travel as such unreduced pairs; a denominator is
    never zero (it may be negative), so a divisor or a base is zero
    exactly when its numerator is.  Products and quotients multiply
    across.  A sum or difference keeps an equal denominator p as
    (x ± y, p), and otherwise adds over the lcm of p and q (Henrici's
    method): with g = gcd(p, q), x/p ± y/q is (x·(q/g) ± y·(p/g),
    p·(q/g)).  So a sum of terms carries the lcm of their denominators,
    up to sign, not their product.  Raises :class:`UnboundVariableError`
    before any arithmetic when an input is missing, and
    :class:`EvalDomainError` at a pole.  This is the exact register loop
    at one point; :func:`run_columns` is the same loop over a batch.
    """
    pairs = _inputs(program, point)
    nums = [num for num, _ in pairs] + program.const_nums
    dens = [den for _, den in pairs] + program.const_dens
    push_num = nums.append
    push_den = dens.append
    for op, a, b in program.code:
        if op == MUL:
            push_num(nums[a] * nums[b])
            push_den(dens[a] * dens[b])
        elif op == ADD or op == SUB:
            da = dens[a]
            db = dens[b]
            if da == db:
                push_num(nums[a] + nums[b] if op == ADD else nums[a] - nums[b])
                push_den(da)
            else:  # over the lcm: x/p ± y/q = (x·(q/g) ± y·(p/g)) / (p·(q/g)), g = gcd(p, q)
                g = gcd(da, db)
                u, v = (db // g, da // g) if g != 1 else (db, da)
                push_num(nums[a] * u + nums[b] * v if op == ADD else nums[a] * u - nums[b] * v)
                push_den(da * u)
        elif op == DIV:
            nb = nums[b]
            if not nb:
                raise EvalDomainError("division by zero")
            push_num(nums[a] * dens[b])
            push_den(dens[a] * nb)
        elif b >= 0:  # POW
            push_num(nums[a] ** b)
            push_den(dens[a] ** b)
        else:
            na = nums[a]
            if not na:
                raise EvalDomainError("zero raised to a negative power")
            push_num(dens[a] ** -b)
            push_den(na**-b)
    outputs = program.outputs
    return [nums[r] for r in outputs], [dens[r] for r in outputs]


def run_reduced(program: Program, point: PairPoint) -> list[tuple[int, int]]:
    """The :func:`run_pairs` outputs in lowest terms, denominators positive (as ``Fraction`` keeps them)."""
    out = []
    push = out.append
    for num, den in zip(*run_pairs(program, point)):
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        push((num // g, den // g))
    return out


def run(program: Program, point: Assignment) -> list[Fraction]:
    """Exact values of every output of ``program`` at the rational ``point``, from :func:`run_pairs`."""
    pairs = {name: (v.numerator, v.denominator) for name, v in zip(program.names, _inputs(program, point))}
    return [Fraction(n, d) for n, d in zip(*run_pairs(program, pairs))]


def _maxplus_consts(program: Program) -> list[int]:
    """The constants of ``program`` read in (max, +); a refusal when it is not certified subtraction-free."""
    consts = program.maxplus_consts
    if consts is None:
        for k, root in enumerate(program.roots):
            verdict = certify_subtraction_free(root)
            if not verdict:
                raise TropicalizationError((k,) + verdict.blocked_path)
        raise AssertionError("uncertified program without an offending node")
    return consts


def run_maxplus(program: Program, point: dict[str, int]) -> list[int]:
    """Every output of ``program`` at an integer point, read in (max, +).

    Sums become max, products +, quotients -, an integer power k becomes
    k times its base, and a positive rational constant becomes 0 (the
    tropicalization rules).  Refuses a program that is not certified
    subtraction-free with :class:`TropicalizationError`, whose path starts
    with the index of the offending output.
    """
    regs = _inputs(program, point) + _maxplus_consts(program)
    push = regs.append
    for op, a, b in program.code:
        if op == MUL:
            push(regs[a] + regs[b])
        elif op == ADD:
            x = regs[a]
            y = regs[b]
            push(x if x >= y else y)
        elif op == DIV:
            push(regs[a] - regs[b])
        else:  # POW
            push(b * regs[a])
    return [regs[r] for r in program.outputs]


# --- column runs -----------------------------------------------------------------
#
# A batch of points runs through a program once: each register holds a
# column, entry j belonging to point j, and each instruction is one pass
# over its operand columns.  A register is dropped after its last read
# (``Program.releases``), so a long program holds only its live columns.


def releases(program: Program) -> list[tuple[int, ...]]:
    """The last-use table of ``program`` (``Program.releases``), built on first use and kept on it.

    Only column runs read it, so a program run at single points (an R map
    of thousands of instructions under ``rmap apply``) never pays for it.
    """
    if program.releases is None:
        last_read = {}
        for i, (op, a, b) in enumerate(program.code):
            last_read[a] = i
            if op != POW:
                last_read[b] = i
        for r in program.outputs:
            last_read.pop(r, None)
        dead: dict[int, list[int]] = {}
        for r, i in last_read.items():
            dead.setdefault(i, []).append(r)
        program.releases = [tuple(dead.get(i, ())) for i in range(len(program.code))]
    return program.releases


def _flag_zeros(column: list[int], poles: set[int]) -> list[int]:
    """Add the points where ``column`` is 0 to ``poles``; the column with those entries set to 1."""
    poles.update(j for j, value in enumerate(column) if not value)
    return [value or 1 for value in column]


def run_columns(program: Program, columns, width: int) -> tuple[list[list[int]], list[list[int]], set[int]]:
    """:func:`run_pairs` at the ``width`` points of the batch ``columns``, one pass per instruction.

    ``columns`` maps each input name to a column of numerators and a column
    of denominators.  Returns the numerator column and the denominator
    column of every output, and the set of points that hit a pole: where
    :func:`run_pairs` raises, the point is flagged instead, its divisor
    (or base) read as 1 so the run goes on, and its outputs mean nothing.
    At every other point, entry j is exactly the pair :func:`run_pairs`
    gives there: a sum keeps an equal denominator and otherwise adds over
    the lcm, entry by entry.  Columns are shared, not copied: an output
    that is an input register is the caller's own column (as is the
    denominator column a sum keeps), so the caller must only read it.
    """
    inputs = _inputs(program, columns)
    nums = [num for num, _ in inputs] + [[value] * width for value in program.const_nums]
    dens = [den for _, den in inputs] + [[value] * width for value in program.const_dens]
    poles: set[int] = set()
    push_num = nums.append
    push_den = dens.append
    for (op, a, b), dead in zip(program.code, releases(program)):
        if op == MUL:
            push_num(list(map(mul_, nums[a], nums[b])))
            push_den(list(map(mul_, dens[a], dens[b])))
        elif op == ADD or op == SUB:
            da = dens[a]
            db = dens[b]
            if da == db:  # every entry takes the shortcut
                push_num(list(map(add_ if op == ADD else sub_, nums[a], nums[b])))
                push_den(da)
            else:  # entry by entry, the rule of run_pairs
                plus = op == ADD
                num, den = [], []
                put_num, put_den = num.append, den.append
                for x, y, p, q in zip(nums[a], nums[b], da, db):
                    if p == q:
                        put_num(x + y if plus else x - y)
                        put_den(p)
                    else:
                        g = gcd(p, q)
                        u = q // g
                        put_num(x * u + y * (p // g) if plus else x * u - y * (p // g))
                        put_den(p * u)
                push_num(num)
                push_den(den)
        elif op == DIV:
            nb = nums[b]
            if 0 in nb:
                nb = _flag_zeros(nb, poles)
            push_num(list(map(mul_, nums[a], dens[b])))
            push_den(list(map(mul_, dens[a], nb)))
        elif b >= 0:  # POW
            push_num([x**b for x in nums[a]])
            push_den([x**b for x in dens[a]])
        else:
            na = nums[a]
            if 0 in na:
                na = _flag_zeros(na, poles)
            push_num([x**-b for x in dens[a]])
            push_den([x**-b for x in na])
        for r in dead:
            nums[r] = dens[r] = None
    outputs = program.outputs
    return [nums[r] for r in outputs], [dens[r] for r in outputs], poles


def reduce_columns(nums: list[list[int]], dens: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Each (numerator, denominator) column pair in lowest terms, denominators positive, as in :func:`run_reduced`."""
    out = []
    for num, den in zip(nums, dens):
        g = list(map(gcd, num, den))
        if min(den) < 0:
            g = [h if d > 0 else -h for h, d in zip(g, den)]
        out.append((list(map(floordiv, num, g)), list(map(floordiv, den, g))))
    return out


def run_reduced_columns(program: Program, columns, width: int) -> tuple[list[tuple[list[int], list[int]]], set[int]]:
    """The :func:`run_columns` outputs in lowest terms (:func:`reduce_columns`), and the points that hit a pole."""
    nums, dens, poles = run_columns(program, columns, width)
    return reduce_columns(nums, dens), poles


def run_maxplus_columns(program: Program, columns: dict[str, list[int]], width: int) -> list[list[int]]:
    """:func:`run_maxplus` at the ``width`` integer points of the batch ``columns``, one pass per instruction.

    A sum keeps the larger entry by one comparison, as :func:`run_maxplus`
    does: a third of the cost of ``map(max, ...)`` on a 32-wide column.
    An output that is an input register is the caller's own column, not a
    copy, so the caller must only read it.
    """
    regs = _inputs(program, columns) + [[0] * width for _ in _maxplus_consts(program)]
    push = regs.append
    for (op, a, b), dead in zip(program.code, releases(program)):
        if op == MUL:
            push(list(map(add_, regs[a], regs[b])))
        elif op == ADD:
            push([x if x >= y else y for x, y in zip(regs[a], regs[b])])
        elif op == DIV:
            push(list(map(sub_, regs[a], regs[b])))
        else:  # POW
            push([b * x for x in regs[a]])
        for r in dead:
            regs[r] = None
    return [regs[r] for r in program.outputs]


def program_for(owner, key, roots) -> Program:
    """The program of ``roots``, compiled once and kept on ``owner`` under ``key``.

    ``owner`` is the object holding the expressions (a model, a map, ...),
    so a program lives exactly as long as what it computes; frozen
    dataclasses included, since the cache sits in the instance dict.
    ``roots`` may be a function giving the trees, called only to compile.
    """
    cache = owner.__dict__.get("_programs")
    if cache is None:
        cache = owner.__dict__["_programs"] = {}
    program = cache.get(key)
    if program is None:
        program = cache[key] = compile_program(roots() if callable(roots) else roots)
    return program


def tree_program(e) -> Program:
    """The program of the single tree ``e``, compiled once and kept on ``e``."""
    return program_for(e, "tree", (e,))


def evaluate(e: RatExpr, point: Assignment) -> Fraction:
    """Exact value of ``e`` at ``point``; raises on poles and unbound names."""
    return run(tree_program(e), point)[0]


# --- sampled checking -----------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a sampled exact check; ``witness`` explains the first failure.

    ``trials`` is the number of points checked: the requested count on a
    pass, the index of the failing point on a failure.
    """

    ok: bool
    trials: int
    witness: dict | None = None

    def __bool__(self):
        return self.ok


MAX_POLE_RETRIES = 100

# Points per batch: the most points a column run of the rows carries at
# once.  Chosen by measurement (README "Evaluation"): wider batches spread
# each instruction's dispatch over more points but keep more live columns.
BATCH_WIDTH = 32


# the outcome of a point where a check hit a pole; the point is redrawn
POLE = object()


def pointwise_check(fn: Callable, domain: SampleSpec | Box, trials: int) -> CheckOutcome:
    """Run ``fn`` over batches of points drawn from ``domain`` until ``trials`` pole-free points pass or one fails.

    ``fn(columns, width)`` reads a batch of ``width`` points drawn by
    ``domain.draw`` (:meth:`gcrystal.arith.SampleSpec.draw` or
    :meth:`gcrystal.arith.Box.draw`) and gives one outcome per point, in
    stream order, as a list or lazily: ``None`` on success, :data:`POLE`
    to discard the point, or a witness dict.  This is the one sampling
    loop of every check, rational or (max, +): it seeds the stream from
    ``domain.seed``, walks the outcomes in order, numbers the pole-free
    points and declares the domain too thin after
    :data:`MAX_POLE_RETRIES` consecutive poles.  A batch holds at most
    the points still needed, so a check that passes runs ``fn`` at exactly
    the points it counts and the poles among them.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(domain.seed)
    done = poles = 0
    while True:
        width = min(BATCH_WIDTH, trials - done)
        for outcome in fn(domain.draw(rng, width), width):
            if outcome is POLE:
                poles += 1
                if poles > MAX_POLE_RETRIES:
                    raise DomainTooThinError(f"no pole-free point found after {MAX_POLE_RETRIES} resamples")
                continue
            poles = 0
            done += 1
            if outcome is not None:
                return CheckOutcome(False, done, outcome)
        if done == trials:
            return CheckOutcome(True, trials)


def settle_row(outcomes: list, columns, label: dict, lhs, rhs, names=None) -> None:
    """Settle the points of a batch where the sides of one row pole or differ.

    ``lhs`` and ``rhs`` are :func:`run_columns` results (or an exact
    side's, :func:`gcrystal.crystal.exact_columns`) with equally many
    outputs, and ``outcomes`` holds one entry per point, ``None`` until an
    earlier row settled it.  A point still open becomes :data:`POLE` if
    either side poled there, else ``{**label, **witness}`` where
    :func:`pair_witness` finds the sides' pairs differ.
    """
    (lnums, ldens, lpoles), (rnums, rdens, rpoles) = lhs, rhs
    for j in lpoles | rpoles:
        if outcomes[j] is None:
            outcomes[j] = POLE
    for ln, ld, rn, rd in zip(lnums, ldens, rnums, rdens):
        if list(map(mul_, ln, rd)) != list(map(mul_, rn, ld)):
            break
    else:
        return
    for j, outcome in enumerate(outcomes):
        if outcome is None:
            left = [c[j] for c in lnums], [c[j] for c in ldens]
            right = [c[j] for c in rnums], [c[j] for c in rdens]
            witness = pair_witness(point_at(columns, j), left, right, names)
            if witness is not None:
                outcomes[j] = {**label, **witness}


def settle_maxplus_row(outcomes: list, columns, label: dict, lhs, rhs, names=None) -> None:
    """:func:`settle_row` for the (max, +) reading: the sides agree where their outputs are equal integers.

    ``lhs`` and ``rhs`` are :func:`run_maxplus_columns` results over the
    box columns ``columns``; nothing poles.  A point still open where an
    output differs becomes ``{**label, output, point, lhs, rhs}`` with
    integer values, the output as in :func:`output_witness`.
    """
    if lhs == rhs:
        return
    for j, outcome in enumerate(outcomes):
        if outcome is None:
            k = next((k for k, (a, b) in enumerate(zip(lhs, rhs)) if a[j] != b[j]), None)
            if k is not None:
                witness = {"point": box_point(columns, j), "lhs": lhs[k][j], "rhs": rhs[k][j]}
                outcomes[j] = {**label, **output_witness(witness, k, len(lhs), names)}


def pair_witness(point: PairPoint, lhs, rhs, names=None) -> dict | None:
    """``None`` if the sides' :func:`run_pairs` outputs agree as n_l·d_r == n_r·d_l, else a witness.

    The witness of the first output k that differs is ``{output, point,
    lhs, rhs}`` with ``Fraction`` values; ``output`` is ``names[k]`` (or
    ``k``), and is left out when the sides have one output.  The sides
    have equally many outputs (:func:`gcrystal.crystal.row_plan` checks).
    """
    (lnums, ldens), (rnums, rdens) = lhs, rhs
    for k, nl in enumerate(lnums):
        if nl * rdens[k] != rnums[k] * ldens[k]:
            witness = {
                "point": fraction_point(point),
                "lhs": Fraction(nl, ldens[k]),
                "rhs": Fraction(rnums[k], rdens[k]),
            }
            return output_witness(witness, k, len(lnums), names)
    return None


def output_witness(witness: dict, k: int, count: int, names=None) -> dict:
    """``witness`` of output ``k`` of ``count``, led by ``output``: ``names[k]`` (or ``k``) when ``count > 1``."""
    return witness if count == 1 else {"output": k if names is None else names[k], **witness}


def identical_on_domain(e1: RatExpr, e2: RatExpr, spec: SampleSpec, trials: int = 100) -> CheckOutcome:
    """Exact-evaluation equality test; the witness is ``{point, lhs, rhs}``."""
    p1, p2 = tree_program(e1), tree_program(e2)

    def fn(columns, width):
        outcomes = [None] * width
        settle_row(outcomes, columns, {}, run_columns(p1, columns, width), run_columns(p2, columns, width))
        return outcomes

    return pointwise_check(fn, spec, trials)


def vanishes_on_domain(e: RatExpr, spec: SampleSpec, trials: int = 100) -> CheckOutcome:
    """Check that ``e`` evaluates to exactly zero at every sampled point."""
    program = tree_program(e)

    def fn(columns, width):
        outcomes = [None] * width
        zero = ([[0] * width], [[1] * width], set())
        settle_row(outcomes, columns, {}, run_columns(program, columns, width), zero)
        return outcomes

    return pointwise_check(fn, spec, trials)


# --- subtraction-freeness ------------------------------------------------------


class TropicalizationError(ValueError):
    """The expression is not subtraction-free; carries the blocking path."""

    def __init__(self, path: tuple[int, ...]):
        super().__init__(f"expression blocked for tropicalization at node path {path}")
        self.path = path


@dataclass(frozen=True)
class PositivityVerdict:
    free: bool
    blocked_path: tuple[int, ...] | None = None

    def __bool__(self):
        return self.free


def certify_subtraction_free(e: RatExpr) -> PositivityVerdict:
    """Certify that ``e`` contains no ``Sub`` node and no negative constant.

    Subtraction-freeness is the precondition for tropicalization; the
    verdict carries the path (child indices from the root) of the first
    offending node in left-to-right preorder.  The walk keeps its own
    stack, so a tree of any depth is certified, and visits a shared
    subtree once.
    """
    seen: set[int] = set()
    stack = [(e, None)]  # (node, its path as (last index, parent's path) links)
    while stack:
        node, link = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Sub) or (isinstance(node, Const) and node.value < 0):
            path = []
            while link is not None:
                k, link = link
                path.append(k)
            return PositivityVerdict(False, tuple(reversed(path)))
        below = children(node)
        stack.extend((below[k], (k, link)) for k in reversed(range(len(below))))
    return PositivityVerdict(True)


def render(e: RatExpr, parts: Callable[[RatExpr], list]) -> str:
    """Text of ``e`` from ``parts(node)``, its pieces in order: strings and nodes to render in their place.

    Works from its own stack, so a tree of any depth renders; the nodes
    are expanded in text order.
    """
    out = []
    stack = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(parts(item)))
    return "".join(out)


# --- parser --------------------------------------------------------------------


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_."


_TERM_OPS = {"*": mul, "/": div}
_SUM_OPS = {"+": add, "-": sub}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        raise ParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.eat(ch):
            self.error(f"expected {ch!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and _is_ident_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def exponent(self) -> int:
        if self.eat("("):
            sign = -1 if self.eat("-") else 1
            value = self.integer()
            self.expect(")")
            return sign * value
        sign = -1 if self.eat("-") else 1
        return sign * self.integer()

    def atom(self) -> RatExpr:
        """A number or an identifier; parentheses are opened by :meth:`expr`."""
        ch = self.peek()
        if ch.isdigit():
            value = self.integer()
            if value == 0:
                self.error("zero constant literal")
            return const(value)
        if _is_ident_start(ch):
            return var(self.identifier())
        self.error("expected a number, identifier or parenthesized expression")

    def negate(self, inner: RatExpr) -> RatExpr:
        if isinstance(inner, Const):
            if inner.value == 0:
                self.error("zero constant literal")
            return Const(-inner.value)
        return mul(const(-1), inner)

    def expr(self) -> RatExpr:
        """An ``expr`` of the grammar, read without recursion, so nesting is limited by memory alone.

        A level holds the sum so far and its pending operator, the term so
        far and its pending operator, and the unary minuses before the
        current factor; each open parenthesis keeps its enclosing level on
        ``outer``.  Operands are folded by the same constructors, in the
        same order, as a recursive descent would.
        """
        outer = []
        total = sum_op = term = term_op = None
        minuses = 0
        while True:
            while self.eat("-"):
                minuses += 1
            if self.eat("("):
                outer.append((total, sum_op, term, term_op, minuses))
                total = sum_op = term = term_op = None
                minuses = 0
                continue
            e = self.atom()
            while True:
                while self.eat("^"):
                    e = pow_(e, self.exponent())
                for _ in range(minuses):
                    e = self.negate(e)
                minuses = 0
                if term is not None:
                    e = term_op(term, e)
                term_op = _TERM_OPS.get(self.peek())
                if term_op is not None:
                    self.pos += 1
                    term = e
                    break
                term = None
                if total is not None:
                    e = sum_op(total, e)
                sum_op = _SUM_OPS.get(self.peek())
                if sum_op is not None:
                    self.pos += 1
                    total = e
                    break
                if not outer:
                    return e
                self.expect(")")
                total, sum_op, term, term_op, minuses = outer.pop()

    def parse(self) -> RatExpr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return e


def parse(text: str) -> RatExpr:
    """Parse the text DSL into an expression tree."""
    return _Parser(text).parse()


# --- pretty printer -------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e: RatExpr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and (e.value < 0 or e.value.denominator != 1):
        # prints as -p or p/q, which only reparses as one token inside parens
        return _PREC_MUL
    return _PREC_ATOM


def _wrap(child: RatExpr, limit: int) -> list:
    return ["(", child, ")"] if _prec(child) < limit else [child]


def _pretty_parts(e: RatExpr) -> list:
    if isinstance(e, Var):
        return [e.name]
    if isinstance(e, Const):
        return [str(e.value)]
    if isinstance(e, Add):
        return [*_wrap(e.left, _PREC_ADD), " + ", *_wrap(e.right, _PREC_ADD + 1)]
    if isinstance(e, Sub):
        return [*_wrap(e.left, _PREC_ADD), " - ", *_wrap(e.right, _PREC_ADD + 1)]
    if isinstance(e, Mul):
        return [*_wrap(e.left, _PREC_MUL), "*", *_wrap(e.right, _PREC_MUL + 1)]
    if isinstance(e, Div):
        return [*_wrap(e.left, _PREC_MUL), "/", *_wrap(e.right, _PREC_MUL + 1)]
    if isinstance(e, Pow):
        return [*_wrap(e.base, _PREC_ATOM), f"^{e.exponent}"]
    raise TypeError(f"unknown node {e!r}")


def pretty(e: RatExpr) -> str:
    """Render with the fewest parentheses that still round-trip structurally."""
    return render(e, _pretty_parts)


# --- JSON tree form --------------------------------------------------------------

_OPS = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}
_OPS_INV = {"add": add, "sub": sub, "mul": mul, "div": div}


def to_json_obj(e: RatExpr):
    """The JSON tree of ``e`` (:func:`fold`, so a tree of any depth)."""

    def leaf(node):
        return {"op": "var", "name": node.name} if node._op == VAR else {"op": "const", "value": str(node.value)}

    def build(node, args):
        if node._op == POW:
            return {"op": "pow", "args": list(args), "exponent": node.exponent}
        return {"op": _OPS[type(node)], "args": list(args)}

    return fold(e, leaf, build)


def from_json_obj(obj) -> RatExpr:
    op = obj["op"]
    if op == "var":
        return var(obj["name"])
    if op == "const":
        return const(Fraction(obj["value"]))
    if op == "pow":
        return pow_(from_json_obj(obj["args"][0]), int(obj["exponent"]))
    if op in _OPS_INV:
        left, right = obj["args"]
        return _OPS_INV[op](from_json_obj(left), from_json_obj(right))
    raise ExprError(f"unknown op {op!r} in JSON expression")


def _json_parts(e: RatExpr) -> list:
    if isinstance(e, Var):
        return ['{"op": "var", "name": ', json.dumps(e.name), "}"]
    if isinstance(e, Const):
        return ['{"op": "const", "value": ', json.dumps(str(e.value)), "}"]
    if isinstance(e, Pow):
        return ['{"op": "pow", "args": [', e.base, f'], "exponent": {e.exponent}}}']
    return [f'{{"op": "{_OPS[type(e)]}", "args": [', e.left, ", ", e.right, "]}"]


def to_json(e: RatExpr) -> str:
    """``json.dumps(to_json_obj(e))``, written from its own stack (:func:`render`), so a tree of any depth converts."""
    return render(e, _json_parts)


def from_json(text: str) -> RatExpr:
    return from_json_obj(json.loads(text))
