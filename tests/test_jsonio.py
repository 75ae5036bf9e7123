"""Round trips and validation of the tensor and certificate JSON formats."""

from fractions import Fraction as F

import pytest

from biquad import jsonio
from biquad.core import MonicParams, monic_to_tensor, tensors_equal, symmetrize
from biquad.classes import m_identity
from biquad.dominance import dd_sos_decompose
from biquad.monic import vertex_sos


def test_tensor_roundtrip(tmp_path):
    t = monic_to_tensor(MonicParams(3, 2, F(-1, 3), F(2, 5), F(1, 7)))
    path = tmp_path / "t.json"
    jsonio.save_tensor(t, path)
    back = jsonio.load_tensor(path)
    assert tensors_equal(symmetrize(back), t)


def test_sparse_entries_are_one_based_and_omit_zeros(tmp_path):
    t = m_identity(2, 2)
    d = jsonio.tensor_to_dict(t)
    assert d["m"] == 2 and d["n"] == 2
    assert len(d["entries"]) == 4
    assert {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"} in d["entries"]


def test_certificate_roundtrip(tmp_path):
    cert = vertex_sos(2, 3, 2)
    path = tmp_path / "c.json"
    jsonio.save_certificate(cert, path)
    back = jsonio.load_certificate(path)
    assert len(back.terms) == len(cert.terms)
    assert all(wb == wa for (wa, _), (wb, _) in zip(cert.terms, back.terms))
    from biquad.core import expand_certificate

    assert tensors_equal(expand_certificate(back), expand_certificate(cert))


def test_rational_strings():
    assert jsonio.rational_to_str(F(-1, 3)) == "-1/3"
    assert jsonio.rational_to_str(F(4)) == "4"
    assert jsonio.parse_rational("7/2") == F(7, 2)
    assert jsonio.parse_rational("-5") == F(-5)


def test_duplicate_entries_rejected():
    d = {"m": 1, "n": 1, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"},
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "2"},
    ]}
    with pytest.raises(ValueError):
        jsonio.tensor_from_dict(d)


def test_out_of_range_index_rejected():
    d = {"m": 1, "n": 1, "entries": [{"i": 2, "j": 1, "k": 1, "l": 1, "v": "1"}]}
    with pytest.raises(ValueError):
        jsonio.tensor_from_dict(d)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        jsonio.tensor_from_dict({"m": 0, "n": 1, "entries": []})


def test_canonical_dump_is_stable():
    cert = dd_sos_decompose(m_identity(2, 2))
    a = jsonio.dumps_canonical(jsonio.certificate_to_dict(cert))
    b = jsonio.dumps_canonical(jsonio.certificate_to_dict(cert))
    assert a == b
    assert a.endswith("\n")


ENTRY = {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}


@pytest.mark.parametrize("field,value", [
    ("m", 2.9), ("m", 2.0), ("m", True), ("m", "2"), ("n", None), ("n", [2]),
])
def test_dimensions_must_be_json_integers(field, value):
    d = {"m": 2, "n": 2, "entries": [ENTRY]}
    d[field] = value
    with pytest.raises(ValueError, match="must be a JSON integer"):
        jsonio.tensor_from_dict(d)
    with pytest.raises(ValueError, match="must be a JSON integer"):
        jsonio.certificate_from_dict({**d, "terms": []})


@pytest.mark.parametrize("field,value", [
    ("i", 1.5), ("j", True), ("k", 1.0), ("l", "1"), ("v", True),
])
def test_tensor_entry_fields_strict(field, value):
    with pytest.raises(ValueError, match="malformed tensor entry"):
        jsonio.tensor_from_dict({"m": 2, "n": 2, "entries": [{**ENTRY, field: value}]})


@pytest.mark.parametrize("W", [
    [["1", "0", "5"], ["0", "1"]],  # an extra entry in a row
    [["1", "0"], ["0", "1"], ["0", "0"]],  # an extra row
    [["1", "0"]],  # a missing row
    [["1"], ["0", "1"]],  # a missing entry
    {"1": ["1", "0"]},
    [["1", "0"], "01"],
])
def test_certificate_W_must_be_m_rows_of_n(W):
    with pytest.raises(ValueError, match="malformed certificate term"):
        jsonio.certificate_from_dict({"m": 2, "n": 2, "terms": [{"weight": "1", "W": W}]})


def test_certificate_weight_bool_rejected():
    with pytest.raises(ValueError, match="malformed certificate term"):
        jsonio.certificate_from_dict({"m": 1, "n": 1, "terms": [{"weight": True, "W": [["1"]]}]})


def test_valid_files_unchanged(tmp_path):
    cert = dd_sos_decompose(m_identity(2, 3))
    text = jsonio.dumps_canonical(jsonio.certificate_to_dict(cert))
    path = tmp_path / "c.json"
    path.write_text(text)
    assert jsonio.dumps_canonical(jsonio.certificate_to_dict(jsonio.load_certificate(path))) == text
    t = monic_to_tensor(MonicParams(3, 2, F(-1, 3), F(2, 5), F(1, 7)))
    text = jsonio.dumps_canonical(jsonio.tensor_to_dict(t))
    path.write_text(text)
    assert jsonio.dumps_canonical(jsonio.tensor_to_dict(jsonio.load_tensor(path))) == text
