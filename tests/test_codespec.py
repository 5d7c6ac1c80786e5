"""JSON code descriptions: every kind, every rejection path.

The layout is strict by design (unknown keys anywhere are errors), so most
of this file checks that malformed input fails loudly with a message that
points at the offending key.
"""

import json
from importlib import resources

import pytest

from alternant.codes import bch, prs, rs
from alternant.codespec import (
    CodeSpecError,
    build_field,
    code_from_dict,
    load_code,
    parse_code,
)
from alternant.galois import extension, prime_field
from alternant.linalg import Vec

Z2 = prime_field(2)
Z13 = prime_field(13)
F32, gen32 = extension(Z2, [1, 0, 1, 0, 0, 1])


def _demo_path(name):
    return resources.files("alternant") / "demo_codes" / f"{name}.json"


# -- fields -------------------------------------------------------------------

def test_build_prime_field():
    assert build_field({"p": 13}) is Z13


def test_build_extension_field():
    F = build_field({"p": 2, "m": 5, "modulus": [1, 0, 1, 0, 0, 1]})
    assert F is F32


def test_build_extension_auto_modulus():
    # the first degree-5 irreducible over Z2 in canonical order is the
    # modulus the demo codes use, so the cached field comes back
    F = build_field({"p": 2, "m": 5})
    assert F is F32


def test_build_field_custom_label():
    F = build_field({"p": 5, "m": 2, "modulus": [3, 0, 1], "label": "x"})
    assert F.gen_label == "x"
    assert F.element("x**2").code == F.element(2).code


def test_build_field_rejections():
    cases = [
        ({"p": 4}, "field.p"),
        ({"p": True}, "must be an integer"),
        ({"p": 13, "m": 0}, "field.m"),
        ({"p": 13, "modulus": [1, 1]}, "only meaningful when m > 1"),
        ({"p": 13, "label": "x"}, "only meaningful when m > 1"),
        ({"p": 2, "m": 2, "modulus": [1, 0, 1]}, "reducible"),
        ({"p": 2, "m": 5, "modulus": [1, 1, 1]}, "degree 2, expected m=5"),
        ({"p": 2, "m": 2, "modulus": "X^2+X+1"}, "must be a list"),
        ({"p": 2, "m": 2, "label": ""}, "non-empty string"),
        # labels that would not read back: "1" prints the generator as the
        # constant 1, "[x]" and " a" are no element tokens, "a,b" splits a vector
        *(({"p": 2, "m": 3, "label": label}, "field.label must be an identifier")
          for label in ("1", "[x]", " a", "a,b", "x**2", "a::b")),
        ({"p": 13, "zzz": 1}, "unknown key(s) in 'field': zzz"),
        ("Z13", "'field' must be an object"),
    ]
    for desc, fragment in cases:
        with pytest.raises(CodeSpecError) as ei:
            build_field(desc)
        assert fragment in str(ei.value), desc


def test_build_field_accepts_identifier_labels():
    for label in ("x", "alpha", "g_1", "\u03b1"):
        F = build_field({"p": 2, "m": 3, "label": label})
        gen = F.element(label)
        assert F.element(F.format_code(gen.code)) == gen
        assert F.element(F.format_code((gen ** 5).code)) == gen ** 5


# -- code kinds ---------------------------------------------------------------

def test_ac_kind():
    C = code_from_dict({"kind": "AC", "field": {"p": 13},
                        "h": [1, 1, 1, 1], "a": [1, 2, 3, 4], "r": 2})
    assert C.kind == "AC"
    assert (C.n, C.r) == (4, 2)
    assert C.base_field is Z13
    assert C.h == Vec(Z13, (1, 1, 1, 1))


def test_rs_kind():
    C = code_from_dict({"kind": "RS", "field": {"p": 13},
                        "a": [1, 2, 3, 4], "k": 2})
    R = rs(Vec.of(Z13, [1, 2, 3, 4]), 2)
    assert C.H == R.H and C.k == 2


def test_grs_kind():
    C = code_from_dict({"kind": "GRS", "field": {"p": 13},
                        "h": [2, 2, 2, 2], "a": [1, 2, 3, 4], "k": 2})
    assert C.kind == "GRS"
    assert C.h == Vec(Z13, (2, 2, 2, 2))


def test_prs_kind():
    C = code_from_dict({"kind": "PRS", "field": {"p": 13}, "k": 8})
    assert C.H == prs(Z13, 8).H


def test_bch_kind():
    C = code_from_dict({"kind": "BCH",
                        "field": {"p": 2, "m": 5, "modulus": [1, 0, 1, 0, 0, 1]},
                        "alpha": "a", "d": 7})
    B = bch(gen32, 7)
    assert C.H == B.H and C.k == 16
    # l defaults to 1 and can be set
    D = code_from_dict({"kind": "BCH", "field": {"p": 2, "m": 5},
                        "alpha": "a", "d": 5, "l": 0})
    assert all(h == F32.one for h in D.h)


def test_goppa_all_nonroots():
    desc = {"kind": "Goppa",
            "field": {"p": 5, "m": 2, "modulus": [3, 0, 1], "label": "x"},
            "g": [1, 1, 0, 1, 0, 0, 1], "a": "all-nonroots"}
    C = code_from_dict(desc)
    F = C.ext_field
    g = F.poly([1, 1, 0, 1, 0, 0, 1])
    expected = [x for x in F.elements() if x.code != 0 and not g(x).is_zero]
    assert list(C.alpha) == expected
    assert (C.n, C.k, C.r) == (19, 7, 6)


def test_goppa_explicit_support():
    desc = {"kind": "Goppa", "field": {"p": 5, "m": 2, "modulus": [3, 0, 1]},
            "g": [1, 1, 1], "a": ["a", "a**2", "[1, 1]", 3]}
    C = code_from_dict(desc)
    assert C.n == 4 and C.r == 2


def test_parse_code_and_demo_files():
    C = parse_code('{"kind": "PRS", "field": {"p": 13}, "k": 8}')
    assert (C.n, C.k) == (12, 8)
    D = load_code(_demo_path("goppa76"))
    assert (D.n, D.k, D.r) == (76, 44, 10)
    for name, kind in [("prs13", "PRS"), ("bch121", "BCH"), ("goppa19", "Goppa"),
                       ("grs32", "GRS")]:
        assert load_code(_demo_path(name)).kind == kind


# -- rejections ---------------------------------------------------------------

def test_code_rejections():
    base = {"kind": "PRS", "field": {"p": 13}, "k": 8}
    cases = [
        ({**base, "bogus": 1}, "unknown key(s) in kind PRS: bogus"),
        ({"field": {"p": 13}, "k": 8}, "missing key 'kind'"),
        ({"kind": "XYZ", "field": {"p": 13}}, "unknown kind 'XYZ'"),
        ({"kind": "PRS", "field": {"p": 13}}, "missing key 'k'"),
        ({"kind": "PRS", "k": 8}, "missing key 'field'"),
        ({"kind": "PRS", "field": {"p": 13}, "k": True}, "k must be an integer"),
        ({"kind": "PRS", "field": {"p": 13}, "k": 0}, "kind PRS"),
        ({"kind": "RS", "field": {"p": 13}, "a": [1, 2, "zz"], "k": 1},
         "a[2]"),
        ({"kind": "RS", "field": {"p": 13}, "a": "1,2,3", "k": 1},
         "must be a list"),
        ({"kind": "Goppa", "field": {"p": 5, "m": 2}, "g": "X", "a": []},
         "g must be a list"),
        ({"kind": "AC", "field": {"p": 13}, "h": [1, 1], "a": [1, 2], "r": 7},
         "kind AC"),
        ([1, 2, 3], "must be a JSON object"),
    ]
    for desc, fragment in cases:
        with pytest.raises(CodeSpecError) as ei:
            code_from_dict(desc)
        assert fragment in str(ei.value), desc


def test_parse_code_bad_json():
    with pytest.raises(CodeSpecError) as ei:
        parse_code("{not json")
    assert "invalid JSON" in str(ei.value)


def test_load_code_missing_file(tmp_path):
    with pytest.raises(CodeSpecError) as ei:
        load_code(tmp_path / "nope.json")
    assert "cannot read" in str(ei.value)


def test_load_code_round_trip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"kind": "RS", "field": {"p": 7},
                                "a": [1, 2, 3, 4, 5, 6], "k": 3}))
    C = load_code(path)
    assert (C.n, C.k, C.d_exact) == (6, 3, 4)
