"""Stable JSON formats for tensors and certificates.

Tensor files are sparse and 1-based:

    {"m": 2, "n": 2, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}, ...]}

omitted entries are zero. A file is read as the symmetric representative
of its form (``core.symmetrize``), so any coefficient array is accepted and
the tensors biquad writes read back unchanged. Certificates are dense per
term:

    {"m": 2, "n": 2, "terms": [{"weight": "1/2", "W": [["1", "0"], ["0", "-1"]]}]}

Rationals are written "p/q" (plain "p" for integers), the text of ``str``
built from the Fraction's own numerator and denominator, and read by
``core.rational``: "p/q", "p" or a plain decimal, no exponent; floats never
appear. A file is refused as it is read, before the exact work it would
cost, when its denominators have too large an lcm: more digits than Python
reads from text (4300 by default) for a tensor, or mn times that for a
certificate. Output is canonical, the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline:
``certificate_text`` writes a certificate in its fixed layout, one
``str.join`` per form, about five times as fast as ``json``'s indenting
encoder, and ``dumps_canonical`` writes reports and tensors through
``json`` itself.
A certificate is read in one pass over the entries of every term's W.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

from .core import (
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    check_dims,
    clip,
    rational,
    symmetrize,
)

__all__ = [
    "rational_to_str",
    "parse_rational",
    "tensor_to_dict",
    "tensor_from_dict",
    "certificate_text",
    "certificate_to_dict",
    "certificate_from_dict",
    "load_tensor",
    "save_tensor",
    "load_certificate",
    "save_certificate",
    "dumps_canonical",
]


def rational_to_str(v) -> str:
    """The text "p/q" (or "p") of an exact value; floats raise TypeError."""
    return _texts([rational(v)])[0]


def _texts(values) -> list[str]:
    """``str`` of each Fraction, from its slots: "p", or "p/q" when q != 1."""
    return [str(v._numerator) if v._denominator == 1 else f"{v._numerator}/{v._denominator}"
            for v in values]


def _check_lcm(denominators, what: str, numbers: int = 1) -> None:
    """Refuse denominators whose lcm, the common denominator the exact layer
    would work with, passes ``numbers`` times the digit limit, as soon as it
    does."""
    digits = sys.get_int_max_str_digits() * numbers
    bits = math.ceil(digits * math.log2(10)) if digits else math.inf  # more has > digits digits
    lcm = 1
    for q in denominators:
        lcm = math.lcm(lcm, q)
        if lcm.bit_length() > bits:
            raise ValueError(f"the denominators of the {what} have an lcm of more than {digits} digits")


def parse_rational(s) -> Fraction:
    """A JSON string or integer (not true/false) as a Fraction, by
    ``core.rational``; other JSON values raise ValueError."""
    if isinstance(s, (str, int)) and not isinstance(s, bool):
        return rational(s)
    raise ValueError(f"expected a rational string, got {type(s).__name__}: {s!r}")


class _Rationals(dict):
    """parse_rational that parses each distinct string once; one per file.
    Only strings are cached: true would otherwise find the cached 1."""

    def __call__(self, s) -> Fraction:
        return self[s] if type(s) is str else parse_rational(s)

    def __missing__(self, s) -> Fraction:
        v = parse_rational(s)
        return self.setdefault(s, v) if type(s) is str else v

    def each(self, values: list) -> list:
        """[self(v) for v in values], by one map over the C lookup."""
        try:
            return list(map(self.__getitem__, values))
        except TypeError:  # an unhashable value, which parse_rational names
            return list(map(parse_rational, values))


def dumps_canonical(obj) -> str:
    """The canonical JSON text of a report or a tensor."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tensor_to_dict(t: SymmetricBiquadraticTensor) -> dict:
    flat = list(chain.from_iterable(t.rows))
    index = product(range(t.m), range(t.n), range(t.m), range(t.n))
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": text}
               for (i, j, k, l), v, text in zip(index, flat, _texts(flat)) if v]
    return {"m": t.m, "n": t.n, "entries": entries}


def _integer(value, name: str) -> int:
    """A JSON integer; true/false, 2.0 and "2" are not one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {clip(repr(value))}")
    return value


def _dims(d: dict) -> tuple[int, int]:
    try:
        m, n = (_integer(d[key], key) for key in ("m", "n"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed dimensions: {exc}") from exc
    check_dims(m, n)
    return m, n


def _json_objects(d: dict, key: str):
    """The items of the JSON list d[key] (none when absent), each a JSON object."""
    if not isinstance(items := d.get(key, []), list):
        raise ValueError(f"{key} must be a JSON list")
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(f"{key} item {clip(repr(item))} is not a JSON object")
        yield item


def tensor_from_dict(d: dict) -> SymmetricBiquadraticTensor:
    m, n = _dims(d)
    zero = Fraction(0)
    arr = [[[[zero] * n for _ in range(m)] for _ in range(n)] for _ in range(m)]
    seen = set()
    read = _Rationals()
    for entry in _json_objects(d, "entries"):
        try:
            i, j, k, l = (_integer(entry[key], key) for key in ("i", "j", "k", "l"))
            v = read(entry["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tensor entry {clip(repr(entry))}: "
                             f"{clip(str(exc))}") from exc
        if not (1 <= i <= m and 1 <= k <= m and 1 <= j <= n and 1 <= l <= n):
            raise ValueError(f"tensor entry index {clip(f'({i},{j},{k},{l})')} out of range for ({m},{n})")
        if (i, j, k, l) in seen:
            raise ValueError(f"duplicate tensor entry at ({i},{j},{k},{l})")
        seen.add((i, j, k, l))
        arr[i - 1][j - 1][k - 1][l - 1] = v
    _check_lcm((v._denominator for v in read.values()), "tensor entries")
    return symmetrize(arr)


def certificate_text(c: SOSCertificate) -> str:
    """The canonical JSON text of c, the one certificate writer. Its layout
    is fixed: keys m, n, terms; in each term the rows of W, then weight; one
    entry a line."""
    head = f'{{\n  "m": {c.m},\n  "n": {c.n},\n  "terms": '
    if not c.terms:
        return head + "[]\n}\n"
    # what lies between two entries of a row, two rows, and a weight and the next W
    entry, row = '",\n          "', '"\n        ],\n        [\n          "'
    term = '"\n    },\n    {\n      "W": [\n        [\n          "'
    weights = _texts(w for w, _ in c.terms)
    body = term.join(row.join(entry.join(_texts(r)) for r in form.rows)
                     + f'"\n        ]\n      ],\n      "weight": "{w}'
                     for w, (_, form) in zip(weights, c.terms))
    return f'{head}[\n    {{\n      "W": [\n        [\n          "{body}"\n    }}\n  ]\n}}\n'


def certificate_to_dict(c: SOSCertificate) -> dict:
    return json.loads(certificate_text(c))


def certificate_from_dict(d: dict) -> SOSCertificate:
    m, n = _dims(d)
    tds = list(_json_objects(d, "terms"))
    read = _Rationals()
    try:
        weights = read.each([td["weight"] for td in tds])
        Ws = [td["W"] for td in tds]
        if not all(type(W) is list and len(W) == m
                   and all(type(row) is list and len(row) == n for row in W) for W in Ws):
            raise ValueError(f"W must be {m} rows of {n} entries")
        values = read.each(list(chain.from_iterable(chain.from_iterable(Ws))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate term: {clip(str(exc))}") from exc
    # the expansion's common denominator divides lcm(weights') lcm(W's)^2; an
    # LDL^T certificate (probe) has up to mn terms, and at 8 x 8 its numbers
    # have an lcm of 5,500-7,800 digits
    _check_lcm((v._denominator for v in read.values()), "certificate's weights and W entries", m * n)
    forms = zip(*[iter(values)] * (m * n))
    return SOSCertificate(m, n, tuple(
        (w, BilinearForm.from_flat(m, n, W)) for w, W in zip(weights, forms)))


def _load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        data = json.loads(text)  # json.JSONDecodeError carries line/column
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other: an integer beyond Python's int-from-text limit
        raise ValueError(f"{path}: a JSON integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def load_tensor(path) -> SymmetricBiquadraticTensor:
    return tensor_from_dict(_load_json(path))


def save_tensor(t: SymmetricBiquadraticTensor, path) -> None:
    Path(path).write_text(dumps_canonical(tensor_to_dict(t)))


def load_certificate(path) -> SOSCertificate:
    return certificate_from_dict(_load_json(path))


def save_certificate(c: SOSCertificate, path) -> None:
    Path(path).write_text(certificate_text(c))
