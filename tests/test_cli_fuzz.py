"""Hostile input through cli.main: mutated code descriptions and vector lines.

Each run must end in exit 0, 2 or 3 with no exception escaping main(), and a
rejected vector line must be named by its line number, after the answers to
the lines before it.  The mutations come from seeded RNGs, so a failure
replays from its test id.
"""

import copy
import io
import json
import random
import re
import sys
from importlib import resources

import pytest

from alternant.cli import EXIT_DECODE_FAILURE, EXIT_OK, EXIT_SPEC_ERROR, main
from alternant.demo import DEMO_NAMES, demo_code
from alternant.linalg import Vec

ALLOWED = (EXIT_OK, EXIT_DECODE_FAILURE, EXIT_SPEC_ERROR)

DESCRIPTIONS = {name: json.loads((resources.files("alternant") / "demo_codes"
                                  / f"{name}.json").read_text(encoding="utf-8"))
                for name in DEMO_NAMES}

# values of the wrong type or far out of range, for any key or list entry
HOSTILE = (-1, 0, 1, 2, 10**9, 2**70, "3", "a**", "a**-1", "zz", 2.5, None,
           True, [], {}, [1, 2, 3, 4, 5, 6, 7])


def _paths(obj, path=()):
    """Every key or index path in a JSON value, the root excluded."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def mutate_description(desc: dict, rng: random.Random) -> dict:
    d = copy.deepcopy(desc)
    field = d["field"]
    op = rng.randrange(9)
    if op == 0:    # drop a key anywhere
        path = rng.choice([p for p in _paths(d) if isinstance(_at(d, p[:-1]), dict)])
        del _at(d, path[:-1])[path[-1]]
    elif op == 1:  # retype any value or list entry
        path = rng.choice(list(_paths(d)))
        _at(d, path[:-1])[path[-1]] = rng.choice(HOSTILE)
    elif op == 2:  # huge or invalid extension degree
        field["m"] = rng.choice((0, 21, 64, 10**6, 2**40))
    elif op == 3:  # a non-monic modulus
        field["modulus"] = field.get("modulus", [1, 1])[:-1] + [rng.choice((0, 2, -1))]
    elif op == 4:  # a reducible modulus: X^m
        field["modulus"] = [0] * field.get("m", 2) + [1]
    elif op == 5:  # a repeated or zero support point, or a degenerate alpha or k
        support = d.get("a")
        if isinstance(support, list):
            i = rng.randrange(1, len(support))
            support[i] = support[0] if rng.random() < 0.5 else 0
        else:
            d["alpha" if "alpha" in d else "k"] = rng.choice((0, "0", 1, "1"))
    elif op == 6:  # a label that would not read back
        field["label"] = rng.choice(("1", "[x]", " a", "a,b", "", 5, "a::b", "x**2"))
    elif op == 7:  # an out-of-range size
        key = rng.choice([k for k in ("k", "r", "d", "l") if k in d] or ["k"])
        d[key] = rng.choice((-1, 0, 1, 10**9, 2**70))
    else:          # another or an invalid kind
        d["kind"] = rng.choice(("AC", "RS", "GRS", "PRS", "BCH", "Goppa", "bch", 3, [], {}))
    return d


@pytest.mark.parametrize("seed", range(4))
def test_mutated_descriptions(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "code.json"
    zero = tmp_path / "zero.txt"
    for _ in range(60):
        desc = mutate_description(DESCRIPTIONS[rng.choice(DEMO_NAMES)], rng)
        path.write_text(json.dumps(desc), encoding="utf-8")
        code = main(["params", "--code", str(path)])
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_SPEC_ERROR), (desc, err)
        if code != EXIT_OK:
            assert err.startswith("alternant: "), (desc, err)
            continue
        n, k = map(int, re.search(r"^n=(\d+) k=(\d+) ", out, re.M).groups())
        for command, length, expected in (("decode", n, EXIT_OK),
                                          ("encode", k, EXIT_OK if k else EXIT_SPEC_ERROR)):
            zero.write_text("[" + ", ".join(["0"] * length) + "]\n", encoding="utf-8")
            code = main([command, "--code", str(path), "--in", str(zero), "--out", "-"])
            assert code == expected, (desc, command, capsys.readouterr())
            capsys.readouterr()


def mutate_line(line: str, rng: random.Random) -> bytes:
    """A vector line with one hostile change; the result may still be valid."""
    inner = line[1:-1].split(", ")
    op = rng.randrange(6)
    if op == 0:    # an extra token
        inner.insert(rng.randrange(len(inner) + 1), rng.choice(("0", "1", "a", "[1, 1]")))
    elif op == 1:  # a missing token
        del inner[rng.randrange(len(inner))]
    elif op == 2:  # a bad exponent or token
        inner[rng.randrange(len(inner))] = rng.choice(
            ("a**", "a**x", "a^^2", "a**-1", "x**99999999999", "a**1.5", "**2",
             "[1, 2", "[[1]]", "1e3", "", "99999999999999999999"))
    elif op == 3:  # non-UTF-8 bytes anywhere in the line
        raw = line.encode()
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + rng.choice((b"\xff", b"\xfe\xff", b"\xc3", b"\x80")) + raw[at:]
    elif op == 4:  # broken brackets or a stray tag
        return rng.choice((line[1:], line[:-1], line + "]", "[" + line,
                           line + " :: ", ":: " + line, line.replace(", ", ";"))).encode()
    else:          # a much shorter or longer word
        inner = inner[:rng.randrange(1, 3)] if rng.random() < 0.5 else inner * 3
    return ("[" + ", ".join(inner) + "]").encode()


def _run(args, data: bytes, from_stdin: bool, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.txt"
    if from_stdin:
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        args = args + ["--out", str(out)]
    else:
        (tmp_path / "in.txt").write_bytes(data)
        args = args + ["--in", str(tmp_path / "in.txt"), "--out", str(out)]
    code = main(args)
    return code, out.read_bytes(), capsys.readouterr().err


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_mutated_vector_lines(name, tmp_path, capsys, monkeypatch):
    C = demo_code(name)
    K = C.base_field
    rng = random.Random(name)
    messages = [Vec(K, [rng.randrange(K.q) for _ in range(C.k)]) for _ in range(3)]
    words = [C.encode(m) for m in messages]
    commands = (("encode", [], messages),
                ("corrupt", ["--seed", "5"], words),
                ("decode", ["--alg", rng.choice(("pgz", "pgzm"))], words))
    for trial in range(12):
        command, extra, vectors = commands[trial % 3]
        lines = [str(v) for v in vectors]
        bad = rng.randrange(len(lines))
        head = "".join(f"# word {i}\n{line}\n" for i, line in enumerate(lines[:bad]))
        data = (head.encode() + mutate_line(lines[bad], rng) + b"\n"
                + "".join(f"{line}\n" for line in lines[bad + 1:]).encode())
        args = [command, "--code", name] + extra
        from_stdin = rng.random() < 0.5
        code, out, err = _run(args, data, from_stdin, tmp_path, capsys, monkeypatch)
        assert code in ALLOWED, (command, data, err)
        if code == EXIT_SPEC_ERROR:
            assert err.startswith(f"alternant: line {2 * bad + 1}: "), (command, data, err)
            assert "Traceback" not in err
            _, before, _ = _run(args, head.encode(), from_stdin, tmp_path, capsys,
                                monkeypatch)
            assert out == before, (command, data)
