"""Stable JSON formats for tensors and certificates.

Tensor files are sparse and 1-based:

    {"m": 2, "n": 2, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}, ...]}

omitted entries are zero. A file is read as the symmetric representative
of its form (``core.symmetrize``), so any coefficient array is accepted and
the tensors biquad writes read back unchanged. Certificates are dense per
term:

    {"m": 2, "n": 2, "terms": [{"weight": "1/2", "W": [["1", "0"], ["0", "-1"]]}]}

Rationals are written "p/q" (plain "p" for integers) by ``str`` and read by
``core.rational``: "p/q", "p" or a plain decimal, no exponent; floats never
appear. Serialization is canonical (sorted entry order, and the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline) so identical
inputs produce identical bytes. biquad writes those bytes itself: ``indent``
sends ``json`` to its pure-Python encoder, which took most of a certificate
round trip's time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .core import (
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    rational,
    symmetrize,
)

__all__ = [
    "rational_to_str",
    "parse_rational",
    "tensor_to_dict",
    "tensor_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "load_tensor",
    "save_tensor",
    "load_certificate",
    "save_certificate",
    "dumps_canonical",
    "MAX_MN",
    "check_dims",
]

# Largest m*n accepted from outside: the exact layer is sized for (mn) x (mn)
# flattenings with mn <= 64, and a tensor has (mn)^2 rational entries.
MAX_MN = 64


def rational_to_str(v) -> str:
    """The text "p/q" (or "p") of an exact value; floats raise TypeError."""
    return str(rational(v))


def parse_rational(s) -> Fraction:
    """A JSON string or integer (not true/false) as a Fraction, by
    ``core.rational``; other JSON values raise ValueError."""
    if isinstance(s, (str, int)) and not isinstance(s, bool):
        return rational(s)
    raise ValueError(f"expected a rational string, got {type(s).__name__}: {s!r}")


class _Rationals(dict):
    """parse_rational that parses each distinct string once; one per file."""

    def __call__(self, s) -> Fraction:
        return self[s] if type(s) is str else parse_rational(s)

    def __missing__(self, s: str) -> Fraction:
        return self.setdefault(s, parse_rational(s))


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``; keys are strings."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, pad: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        ends, items = "[]", [_dumps(v, inner) for v in obj]
    elif isinstance(obj, dict):
        ends, items = "{}", [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items())]
    else:
        return json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def tensor_to_dict(t: SymmetricBiquadraticTensor) -> dict:
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": str(v)}
               for (i, j, k, l), v in np.ndenumerate(t.entries) if v != 0]
    return {"m": t.m, "n": t.n, "entries": entries}


def check_dims(m: int, n: int) -> None:
    """Reject dimensions below 1 or with m*n above MAX_MN, before any allocation."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    if m * n > MAX_MN:
        raise ValueError(f"m*n = {m * n} exceeds the supported maximum {MAX_MN}")


def _integer(value, name: str) -> int:
    """A JSON integer; true/false, 2.0 and "2" are not one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
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
            raise ValueError(f"{key} item {item!r} is not a JSON object")
        yield item


def tensor_from_dict(d: dict) -> SymmetricBiquadraticTensor:
    m, n = _dims(d)
    arr = np.full((m, n, m, n), Fraction(0), dtype=object)
    seen = set()
    read = _Rationals()
    for entry in _json_objects(d, "entries"):
        try:
            i, j, k, l = (_integer(entry[key], key) for key in ("i", "j", "k", "l"))
            v = read(entry["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tensor entry {entry!r}: {exc}") from exc
        if not (1 <= i <= m and 1 <= k <= m and 1 <= j <= n and 1 <= l <= n):
            raise ValueError(f"tensor entry index ({i},{j},{k},{l}) out of range for ({m},{n})")
        if (i, j, k, l) in seen:
            raise ValueError(f"duplicate tensor entry at ({i},{j},{k},{l})")
        seen.add((i, j, k, l))
        arr[i - 1, j - 1, k - 1, l - 1] = v
    return symmetrize(arr)


def certificate_to_dict(c: SOSCertificate) -> dict:
    terms = [{"weight": str(w), "W": [[str(v) for v in row] for row in form.W.tolist()]}
             for w, form in c.terms]
    return {"m": c.m, "n": c.n, "terms": terms}


def certificate_from_dict(d: dict) -> SOSCertificate:
    m, n = _dims(d)
    terms = []
    read = _Rationals()
    for td in _json_objects(d, "terms"):
        try:
            w = read(td["weight"])
            rows = td["W"]
            if not (isinstance(rows, list) and len(rows) == m
                    and all(isinstance(row, list) and len(row) == n for row in rows)):
                raise ValueError(f"W must be {m} rows of {n} entries")
            W = np.array([[read(v) for v in row] for row in rows], dtype=object)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate term: {exc}") from exc
        terms.append((w, BilinearForm(m, n, W)))
    return SOSCertificate(m, n, tuple(terms))


def _load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        data = json.loads(text)  # json.JSONDecodeError carries line/column
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
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
    Path(path).write_text(dumps_canonical(certificate_to_dict(c)))
