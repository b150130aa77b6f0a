"""Generated documentation: the identity ledger, model catalog, DSL reference.

Everything here is rendered from the same tables the harness runs from
(:data:`gcrystal.harness.REGISTRY` and the built-in model constructors),
so the ledger names exactly the checks that run and the models they are
built on.  Each identity statement of ``REGISTRY`` is written by hand,
however, and can drift from what its check computes.  Regenerate with
``gcrystal ledger``; do not edit the output by hand.
"""

from __future__ import annotations

from fractions import Fraction

from .crystal import CrystalModel
from .expr import pretty
from .harness import REGISTRY, SUITES
from .models import affine_a_model, affine_d5_model, borel_model

DSL_REFERENCE = """\
Expressions are written over identifiers, integer literals and the
operators `+ - * / ^`, with `^` binding tightest, then `* /`, then `+ -`;
all binary operators are left-associative and parentheses group as usual.
A quotient of two integer literals such as `5/7` is the rational constant
five-sevenths; plain `0` is rejected (zero is not a representable
constant).  A leading `-` negates the following factor.  Exponents are
integers, optionally negative: `x^-2` or `x^(-2)`.  Identifiers start
with a letter or underscore and may contain letters, digits, underscores
and dots; dotted names such as `l1.x` address product-crystal
coordinates (left factor `.x`, right factor `.y`).
"""


def _model_lines(model: CrystalModel) -> list[str]:
    lines = [f"### `{model.name}`", ""]
    lines.append(f"- variables: {', '.join(f'`{v}`' for v in model.variables)}")
    for subset, target in model.constraints:
        lines.append(f"- constraint: `{'*'.join(subset)} = {target}`")
    lines.append(f"- index set: {list(model.cartan.labels)}")
    lines.append("")
    lines.append("| i | gamma_i | eps_i |")
    lines.append("|---|---------|-------|")
    for i in model.cartan.labels:
        lines.append(f"| {i} | `{pretty(model.gamma[i])}` | `{pretty(model.eps[i])}` |")
    lines.append("")
    return lines


def emit_ledger() -> str:
    """Render the full markdown document."""
    lines = [
        "# Identity ledger",
        "",
        "One row per registered check: the identity it verifies, stated in",
        "full, and the suite that runs it.  All checks are exact: rational",
        "arithmetic with zero tolerance, or integer arithmetic for the",
        "tropical shadows.  Generated by `gcrystal ledger`.",
        "",
    ]
    for suite in SUITES:
        rows = [(check, info) for check, info in REGISTRY.items() if info.suite == suite]
        rows.sort()
        lines.append(f"## Suite `{suite}`")
        lines.append("")
        lines.append("| check | identity |")
        lines.append("|-------|----------|")
        for check, info in rows:
            escaped = info.identity.replace("|", "\\|")
            lines.append(f"| `{check}` | {escaped} |")
        lines.append("")

    lines.append("# Model catalog")
    lines.append("")
    lines += _model_lines(affine_a_model(2, Fraction(4)))
    lines += _model_lines(affine_d5_model(Fraction(4)))
    lines += _model_lines(borel_model(2))
    lines.append(
        "The torus model generalizes to any size `n` and positive rational "
        "level; the triangular-matrix model to any `n >= 1`.  Products of "
        "models are formed with `gcrystal.crystal.product`."
    )
    lines.append("")
    lines.append("# Expression DSL")
    lines.append("")
    lines.append(DSL_REFERENCE)
    return "\n".join(lines)
