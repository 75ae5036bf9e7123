"""Checks on the program's outputs, made with the benchmark's own arithmetic.

Each check takes plain data (Fractions, floats, lists, parsed JSON) and
returns a list of problems; an empty list means the output is correct. None
of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

from . import forms

PSD_FLOOR = -1e-9


def certificate(terms, poly):
    """A square certificate must have weights >= 0 and expand to ``poly``."""
    problems = []
    if any(w < 0 for w, _ in terms):
        problems.append("certificate has a negative weight")
    if forms.poly_from_squares(terms) != poly:
        problems.append("certificate does not expand to the input form")
    return problems


def round_trip(before, after):
    """A JSON round trip must return identical weights and W."""
    if len(before) != len(after):
        return [f"round trip changed the term count {len(before)} -> {len(after)}"]
    for p, ((w1, W1), (w2, W2)) in enumerate(zip(before, after)):
        if w1 != w2:
            return [f"round trip changed weight {p}: {w1} -> {w2}"]
        if W1 != W2:
            return [f"round trip changed W of term {p}"]
    return []


def falsifier(poly, value, x, y, psd):
    """``sample_min`` output on a form whose sign is known by construction.

    (x, y) must be unit vectors and ``value`` the form's value there. For a
    PSD form the value is at least PSD_FLOOR; for a non-PSD one the pair,
    rounded to rationals, must evaluate below 0 exactly.
    """
    problems = []
    for name, v in (("x", x), ("y", y)):
        if abs(math.sqrt(sum(float(c) * float(c) for c in v)) - 1.0) > 1e-9:
            problems.append(f"{name} is not a unit vector")
    own = forms.eval_float(poly, x, y)
    scale = 1.0 + float(sum(abs(c) for c in poly.values()))
    if not abs(value - own) <= 1e-9 * scale:
        problems.append(f"returned value {value!r} but the form is {own!r} at (x, y)")
    if psd and not value >= PSD_FLOOR:
        problems.append(f"value {value!r} below {PSD_FLOOR} on a PSD form")
    if not psd and not forms.eval_exact(poly, forms.to_rational(x), forms.to_rational(y)) < 0:
        problems.append("rounded pair does not evaluate below 0 on a non-PSD form")
    return problems


def report_field(report, field, want):
    """A CLI JSON report must carry ``field`` with the value known by construction."""
    if not isinstance(report, dict) or report.get(field) != want:
        got = report.get(field) if isinstance(report, dict) else report
        return [f"report field {field!r} is {got!r}, expected {want!r}"]
    return []
