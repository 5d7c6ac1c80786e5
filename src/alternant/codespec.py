"""Code constructions described as JSON objects.

A description file holds a single object selecting a construction:

    {"kind": "PRS", "field": {"p": 13}, "k": 8}

Kinds and their keys:

    AC     h, a, r        raw alternant code; decodes over the prime subfield
    RS     a, k
    GRS    h, a, k
    PRS    k
    BCH    alpha, d, l    l optional, defaults to 1
    Goppa  g, a           a is an explicit list, or the string "all-nonroots"
                          for every nonzero non-root of g in canonical order

The ``field`` object takes ``p`` (a prime), ``m`` (extension degree,
default 1), ``modulus`` (ascending coefficient codes; only for m > 1, the
first irreducible found in canonical order is used when omitted) and
``label`` (generator name, default "a"; an identifier such as "x" or
"alpha", so that printed elements read back as the same elements).

Element entries may be integers, coordinate lists, or strings such as
"a**5"; anything :meth:`Field.element` accepts.  Polynomial coefficients
are listed in ascending order.  Unknown keys are rejected everywhere so a
typo cannot silently change the code being built.
"""

from __future__ import annotations

import json
import os

from .galois import Field, Poly, prime_field, extension, get_irreducible_polynomial
from .linalg import Vec
from .codes import AlternantCode, rs, grs, prs, bch, goppa


class CodeSpecError(ValueError):
    """A code description does not match the expected layout."""


_KIND_KEYS = {
    "AC": ("h", "a", "r"),
    "RS": ("a", "k"),
    "GRS": ("h", "a", "k"),
    "PRS": ("k",),
    "BCH": ("alpha", "d", "l"),
    "Goppa": ("g", "a"),
}


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise CodeSpecError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise CodeSpecError(f"missing key '{key}' in {where}")
    return obj[key]


def _int(value, what: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodeSpecError(f"{what} must be an integer, got {value!r}")
    return value


def _element(F: Field, token, what: str):
    try:
        return F.element(token)
    except (TypeError, ValueError) as ex:
        raise CodeSpecError(f"{what}: {ex}") from None


def _elements(F: Field, tokens, what: str):
    if not isinstance(tokens, list):
        raise CodeSpecError(f"{what} must be a list of element tokens")
    return [_element(F, tok, f"{what}[{i}]") for i, tok in enumerate(tokens)]


def build_field(desc) -> Field:
    """Field object from its JSON description."""
    if not isinstance(desc, dict):
        raise CodeSpecError("'field' must be an object")
    _check_keys(desc, ("p", "m", "modulus", "label"), "'field'")
    p = _int(_need(desc, "p", "'field'"), "field.p")
    m = _int(desc.get("m", 1), "field.m")
    if m < 1:
        raise CodeSpecError(f"field.m must be >= 1, got {m}")
    try:
        K = prime_field(p)
    except ValueError as ex:
        raise CodeSpecError(f"field.p: {ex}") from None
    if m == 1:
        for key in ("modulus", "label"):
            if key in desc:
                raise CodeSpecError(f"field.{key} is only meaningful when m > 1")
        return K
    label = desc.get("label", "a")
    if not isinstance(label, str) or not label.isidentifier():
        raise CodeSpecError(
            f"field.label must be an identifier (a non-empty string), got {label!r}")
    if "modulus" in desc:
        raw = desc["modulus"]
        if not isinstance(raw, list):
            raise CodeSpecError("field.modulus must be a list of ascending coefficients")
        coeffs = [_element(K, c, f"field.modulus[{i}]") for i, c in enumerate(raw)]
        modulus = Poly(K, [c.code for c in coeffs])
        if modulus.degree != m:
            raise CodeSpecError(
                f"field.modulus has degree {modulus.degree}, expected m={m}")
    try:
        if "modulus" not in desc:
            modulus = get_irreducible_polynomial(K, m)
        F, _ = extension(K, modulus, gen_label=label)
    except ValueError as ex:
        raise CodeSpecError(f"field.modulus: {ex}") from None
    return F


def code_from_dict(desc) -> AlternantCode:
    """Build the code described by a parsed JSON object."""
    if not isinstance(desc, dict):
        raise CodeSpecError("code description must be a JSON object")
    kind = _need(desc, "kind", "code description")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise CodeSpecError(
            f"unknown kind {kind!r}; expected one of {', '.join(_KIND_KEYS)}")
    _check_keys(desc, ("kind", "field") + _KIND_KEYS[kind], f"kind {kind}")
    F = build_field(_need(desc, "field", "code description"))
    try:
        if kind == "AC":
            h = F.vec(_elements(F, _need(desc, "h", "AC"), "h"))
            a = F.vec(_elements(F, _need(desc, "a", "AC"), "a"))
            r = _int(_need(desc, "r", "AC"), "r")
            return AlternantCode(h, a, r, F.prime_subfield())
        if kind == "RS":
            a = F.vec(_elements(F, _need(desc, "a", "RS"), "a"))
            return rs(a, _int(_need(desc, "k", "RS"), "k"))
        if kind == "GRS":
            h = F.vec(_elements(F, _need(desc, "h", "GRS"), "h"))
            a = F.vec(_elements(F, _need(desc, "a", "GRS"), "a"))
            return grs(h, a, _int(_need(desc, "k", "GRS"), "k"))
        if kind == "PRS":
            return prs(F, _int(_need(desc, "k", "PRS"), "k"))
        if kind == "BCH":
            alpha = _element(F, _need(desc, "alpha", "BCH"), "alpha")
            d = _int(_need(desc, "d", "BCH"), "d")
            l = _int(desc.get("l", 1), "l")
            return bch(alpha, d, l)
        # Goppa
        raw_g = _need(desc, "g", "Goppa")
        if not isinstance(raw_g, list):
            raise CodeSpecError("g must be a list of ascending coefficients")
        g = Poly(F, [c.code for c in _elements(F, raw_g, "g")])
        raw_a = _need(desc, "a", "Goppa")
        if raw_a == "all-nonroots":
            # support elements must be invertible, so zero is skipped even
            # when it is not a root of g
            a = Vec(F, [c for c in range(1, F.q) if g.at(c)])
        else:
            a = F.vec(_elements(F, raw_a, "a"))
        return goppa(g, a)
    except CodeSpecError:
        raise
    except (TypeError, ValueError) as ex:
        raise CodeSpecError(f"kind {kind}: {ex}") from None


def parse_code(text: str) -> AlternantCode:
    """Build a code from JSON text."""
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise CodeSpecError(f"invalid JSON: {ex}") from None
    return code_from_dict(desc)


def load_code(path: str | os.PathLike) -> AlternantCode:
    """Build a code from a JSON description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise CodeSpecError(f"cannot read {path}: {ex}") from None
    return parse_code(text)
