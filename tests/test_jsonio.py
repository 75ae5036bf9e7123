"""Round trips and validation of the tensor and certificate JSON formats."""

import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquad import jsonio
from biquad.cli import main
from biquad.core import (BilinearForm, MonicParams, SOSCertificate, monic_to_tensor, rational,
                         symmetrize, tensors_equal)
from biquad.classes import m_identity
from biquad.dominance import dd_sos_decompose
from biquad.gram import choi_form
from biquad.monic import vertex_sos

from conftest import coefficient_form_value, random_coefficients


def test_tensor_roundtrip(tmp_path):
    t = monic_to_tensor(MonicParams(3, 2, F(-1, 3), F(2, 5), F(1, 7)))
    path = tmp_path / "t.json"
    jsonio.save_tensor(t, path)
    back = jsonio.load_tensor(path)
    assert tensors_equal(back, t)


def _write_coefficients(a, path):
    m, n = a.shape[:2]
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": str(v)}
               for (i, j, k, l), v in np.ndenumerate(a) if v != 0]
    path.write_text(json.dumps({"m": m, "n": n, "entries": entries}))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_asymmetric_file_reads_as_its_symmetric_representative(tmp_path, rng, m, n):
    a = random_coefficients(rng, m, n)
    path = tmp_path / "a.json"
    _write_coefficients(a, path)
    assert tensors_equal(jsonio.load_tensor(path), symmetrize(a))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_eval_of_asymmetric_file_is_the_raw_form_value(tmp_path, capsys, rng, m, n):
    a = random_coefficients(rng, m, n)
    path = tmp_path / "a.json"
    _write_coefficients(a, path)
    x = [F(int(rng.integers(-9, 10)), 3) for _ in range(m)]
    y = [F(int(rng.integers(-9, 10)), 4) for _ in range(n)]
    assert main(["eval", str(path), "-x", ",".join(map(str, x)), "-y", ",".join(map(str, y))]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": str(coefficient_form_value(a, x, y))}


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


def test_rational_strings_refuse_floats():
    for bad in (0.1, np.float64(0.5)):
        with pytest.raises(TypeError):
            jsonio.rational_to_str(bad)
    assert jsonio.rational_to_str(np.int64(3)) == "3"


ENTRY_KINDS = {
    "fraction": lambda k: F(k, 6),
    "fraction of numpy ints": lambda k: F(np.int64(k), np.int64(6)),
    "int": int,
    "numpy int": lambda k: [np.int64, np.int8, np.uint16][k % 3](abs(k)),
    "bool": lambda k: k % 2 == 0,
    "str": lambda k: f" {k}/6 ",
}


@pytest.mark.parametrize("others", [None, *ENTRY_KINDS])
@pytest.mark.parametrize("kind", list(ENTRY_KINDS))
def test_certificate_text_is_the_per_entry_writer(kind, others):
    # every entry type BilinearForm accepts, alone and beside another, gives
    # the text of str(core.rational(v)) per entry, the writer's earlier rule
    ks = np.arange(-7, 8).reshape(3, 5)
    W = np.array([[ENTRY_KINDS[kind](int(k)) for k in row] for row in ks], dtype=object)
    if others is not None:
        W[1] = [ENTRY_KINDS[others](int(k)) for k in ks[1]]
    cert = SOSCertificate(3, 5, ((F(1, 2), BilinearForm(3, 5, W)),))
    want = [[str(rational(v)) for v in row] for row in W.tolist()]
    assert jsonio.certificate_to_dict(cert)["terms"][0]["W"] == want


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


@pytest.mark.parametrize("value", [5, None, {"a": 1}, "abc"])
def test_entries_and_terms_must_be_json_lists(value):
    with pytest.raises(ValueError, match="^entries must be a JSON list$"):
        jsonio.tensor_from_dict({"m": 2, "n": 2, "entries": value})
    with pytest.raises(ValueError, match="^terms must be a JSON list$"):
        jsonio.certificate_from_dict({"m": 2, "n": 2, "terms": value})


def _cli_error(capsys, *argv):
    """(exit code, stderr) of the CLI on argv; stdout must stay empty."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


@pytest.mark.parametrize("item", [[1, 1, 1, 1], 5, "x", None])
def test_entries_item_that_is_not_an_object_is_named(tmp_path, capsys, item):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "entries": [ENTRY, item]}))
    code, err = _cli_error(capsys, "check-dd", str(path))
    assert code == 2
    assert err == f"error: entries item {item!r} is not a JSON object\n"


@pytest.mark.parametrize("item", [5, [1], "x", None])
def test_terms_item_that_is_not_an_object_is_named(tmp_path, capsys, item):
    good = {"weight": "1", "W": [["1"]]}
    (tmp_path / "c.json").write_text(json.dumps({"m": 1, "n": 1, "terms": [good, item]}))
    jsonio.save_tensor(m_identity(1, 1), tmp_path / "t.json")
    code, err = _cli_error(capsys, "verify", str(tmp_path / "c.json"), str(tmp_path / "t.json"))
    assert code == 2
    assert err == f"error: terms item {item!r} is not a JSON object\n"


# The writer must give the bytes of the standard library's indented encoder.
def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


json_scalars = st.one_of(
    st.text(),
    st.sampled_from(['', '"', "\\", "\n", 'a"b\\c\nd\t', "é", "ünï cødé", "\U0001f600"]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
    st.booleans(),
    st.none(),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400)
@given(json_trees)
def test_writer_matches_the_standard_encoder(obj):
    assert jsonio.dumps_canonical(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [[], {}, [[]], {"a": {}}, {"b": [], "a": [{}]}, ()])
def test_writer_on_empty_containers(obj):
    assert jsonio.dumps_canonical(obj) == oracle(obj)


def _cli_writes(monkeypatch, tmp_path, *argv):
    """(object, text) for each call of dumps_canonical while the CLI runs argv."""
    writes = []
    real = jsonio.dumps_canonical

    def spy(obj):
        writes.append((obj, real(obj)))
        return writes[-1][1]

    monkeypatch.setattr(jsonio, "dumps_canonical", spy)
    main([a.replace("TMP", str(tmp_path)) for a in argv])
    return writes


@pytest.mark.parametrize("argv", [
    ("check-dd", "TMP/dd.json"),
    ("check-dd", "TMP/choi.json"),
    ("decompose-dd", "TMP/dd.json"),
    ("decompose-dd", "TMP/dd.json", "-o", "TMP/cert.json"),
    ("decompose-dd", "TMP/choi.json"),
    ("classify-monic", "-m", "2", "-n", "3", "-a", "1/2", "-b", "-1/3", "-c", "1/5"),
    ("classify-monic", "-m", "2", "-n", "2", "-a", "-3", "-b", "1", "-c", "1"),
    ("decompose-monic", "-m", "3", "-n", "2", "-a", "1/3", "-b", "1/5", "-c", "-1/7"),
    ("decompose-monic", "-m", "3", "-n", "2", "-a", "1/3", "-b", "1/5", "-c", "-1/7",
     "-o", "TMP/cert.json"),
    ("decompose-monic", "-m", "2", "-n", "2", "-a", "-3", "-b", "1", "-c", "1"),
    ("vertices", "-m", "3", "-n", "4"),
    ("audit-grid", "-m", "2", "-n", "2", "--step", "1", "--range", "1"),
    ("classify", "TMP/choi.json"),
    ("gen", "--class", "b0", "-m", "2", "-n", "3", "--seed", "4"),
    ("gen", "--class", "dd", "-m", "2", "-n", "2", "-o", "TMP/gen.json"),
    ("probe", "TMP/dd.json"),
    ("probe", "TMP/choi.json", "--max-iter", "20", "--trace"),
    ("sweep", "--class", "b0", "-m", "2", "-n", "2", "--trials", "2", "-o", "TMP/sweep.csv"),
    ("verify", "TMP/dd_cert.json", "TMP/dd.json"),
    ("eval", "TMP/choi.json", "-x", "1,-1/2,3", "-y", "2,0,1"),
])
def test_writer_matches_the_standard_encoder_on_cli_payloads(monkeypatch, tmp_path, argv):
    dd = m_identity(2, 2)
    jsonio.save_tensor(dd, tmp_path / "dd.json")
    jsonio.save_certificate(dd_sos_decompose(dd), tmp_path / "dd_cert.json")
    jsonio.save_tensor(choi_form(), tmp_path / "choi.json")
    writes = _cli_writes(monkeypatch, tmp_path, *argv)
    assert writes
    for obj, text in writes:
        assert text == oracle(obj)


RATIONAL_SPELLINGS = [" 1/2", "1_000", "1.5", "-0", "3/6"]


@pytest.mark.parametrize("s", RATIONAL_SPELLINGS)
def test_reader_values_equal_fraction_of_each_spelling(s):
    cert = jsonio.certificate_from_dict({"m": 2, "n": 2, "terms": [
        {"weight": s, "W": [[s, "1"], [s, s]]}, {"weight": "1", "W": [[s, s], ["1", s]]}]})
    assert jsonio.parse_rational(s) == rational(s) == F(s)
    (w0, f0), (w1, f1) = cert.terms
    assert w0 == F(s) and w1 == 1
    assert f0.W.tolist() == [[F(s), 1], [F(s), F(s)]]
    assert f1.W.tolist() == [[F(s), F(s)], [1, F(s)]]
    t = jsonio.tensor_from_dict({"m": 1, "n": 2, "entries": [
        {**ENTRY, "v": s}, {**ENTRY, "j": 2, "l": 2, "v": s}]})
    assert t.entries[0, 0, 0, 0] == F(s) and t.entries[0, 1, 0, 1] == F(s)


@pytest.mark.parametrize("parse", [rational, jsonio.parse_rational])
@pytest.mark.parametrize("text,message", [
    *((text, "exponent notation") for text in ("1e3", "1E-2", "1e10000000", " -2.5e1 ")),
    ("1/0", "zero denominator"),  # rational raised ZeroDivisionError
])
def test_bad_rational_text_is_a_value_error(parse, text, message):
    # Fraction("1e10000000") builds 10**10000000, about 8 s; the refusal
    # reads only the text
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        parse(text)
    assert time.perf_counter() - start < 0.1


def _parse_error(value):
    with pytest.raises(ValueError) as info:
        jsonio.parse_rational(value)
    return str(info.value)


@pytest.mark.parametrize("bad", ["1/0", True, 2.5])
@pytest.mark.parametrize("W", [
    lambda bad: [[bad, bad], [bad, bad]],  # repeated in one term
    lambda bad: [["1", "1/2"], ["1", bad]],  # after valid entries
])
def test_reader_keeps_the_error_for_bad_values(bad, W):
    expected = f"malformed certificate term: {_parse_error(bad)}"
    good = {"weight": "1", "W": [["1", "1/2"], ["0", "1"]]}
    for terms in ([{"weight": "1", "W": W(bad)}], [good, {"weight": "1", "W": W(bad)}],
                  [good, {"weight": bad, "W": W(bad)}]):
        with pytest.raises(ValueError) as info:
            jsonio.certificate_from_dict({"m": 2, "n": 2, "terms": terms})
        assert str(info.value) == expected
    entries = [{**ENTRY, "v": "1"}, {**ENTRY, "j": 2, "l": 2, "v": bad},
               {**ENTRY, "j": 2, "v": bad}]
    with pytest.raises(ValueError) as info:
        jsonio.tensor_from_dict({"m": 1, "n": 2, "entries": entries})
    assert str(info.value) == f"malformed tensor entry {entries[1]!r}: {_parse_error(bad)}"


def test_loaded_W_is_a_read_only_array_of_fractions(tmp_path):
    path = tmp_path / "c.json"
    jsonio.save_certificate(vertex_sos(2, 3, 2), path)
    for _, form in jsonio.load_certificate(path).terms:
        assert form.W.dtype == object and not form.W.flags.writeable
        assert all(type(v) is F for v in form.W.flat)
        with pytest.raises(ValueError):
            form.W[0, 0] = F(7)
