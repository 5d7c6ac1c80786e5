"""Mutants of src/alternant that named tests must kill.

Each mutant replaces one snippet, which must occur exactly once, in one
module of a fresh temporary copy of src/, and runs one test file with
PYTHONPATH set to that copy alone.  A mutant is killed when a test of that
file fails (pytest exit status 1); a collection or usage error proves
nothing, so it stops the run.  The run fails if the unmutated copy fails a
named test, if a snippet no longer matches, or if a mutant survives: a
surviving mutant calls for a new check, and it stays on the list.

    python tests/mutants.py                      # every mutant
    python tests/mutants.py "forney sign" ...    # the named ones

Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (module, snippet, its replacement, the test file that must fail)
MUTANTS = {
    "_clear drops a pair": (
        "linalg.py",
        "for j, v in enumerate(prow[c + 1:], c + 1) if v]",
        "for j, v in enumerate(prow[c + 1:], c + 1) if v][:-1]",
        "tests/test_elimination_kernel.py"),
    "gj_locator takes any pivot layout": (
        "linalg.py",
        "    if pivots != list(range(l)):\n",
        "    if False:\n",
        "tests/test_cosets.py"),
    "_back_substitute one column off": (
        "linalg.py",
        "a[i][i + 1:l], x[i + 1:]), a[i][l])",
        "a[i][i + 1:l], x[i + 1:]), a[i][l - 1])",
        "tests/test_elimination_kernel.py"),
    "forney sign": (
        "pgz.py",
        "    den = F.mulc(C.h.codes[m], reciprocal_derivative.at(x))\n"
        "    return FieldElement(F, F.negc(F.mulc(num, F.invc(den))))",
        "    den = F.mulc(C.h.codes[m], reciprocal_derivative.at(x))\n"
        "    return FieldElement(F, F.mulc(num, F.invc(den)))",
        "tests/test_decode_reports.py"),
    "LinearMap.zeros drops its last fold": (
        "linalg.py",
        "for i in range((m - 1).bit_length())]",
        "for i in range((m - 1).bit_length())][:-1]",
        "tests/test_locate.py"),
    "Zech table not doubled": (
        "galois.py",
        "map(log1.__getitem__, exp[:self.q - 1])) * 2",
        "map(log1.__getitem__, exp[:self.q - 1]))",
        "tests/test_cosets.py"),
    "pull accepts any code": (
        "galois.py",
        "    if x.code < F.p:\n        return FieldElement(K, x.code)",
        "    if True:\n        return FieldElement(K, x.code)",
        "tests/test_decode_reports.py"),
    "syndrome(y, at) ignores at": (
        "codes.py",
        "self._syndrome_map(y.codes, at)",
        "self._syndrome_map(y.codes)",
        "tests/test_cosets.py"),
    "the core skips its final check": (
        "pgz.py",
        "    if C.syndrome(Vec(K, [v.code for v in values]), at=positions) != s:\n",
        "    if False:\n",
        "tests/test_cosets.py"),
    "_decode forms y + e": (
        "pgz.py",
        "corrected[m] = K.subc(corrected[m], v.code)",
        "corrected[m] = K.addc(corrected[m], v.code)",
        "tests/test_decode_reports.py"),
}


def _copy(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run(src: Path, *args) -> subprocess.CompletedProcess:
    """python *args against src alone, from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def _pytest(src: Path, test: str) -> subprocess.CompletedProcess:
    return _run(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test)


def main(names) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print("unknown mutant(s):", ", ".join(unknown))
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp)
        where = _run(src, "-c", "import alternant; print(alternant.__file__)").stdout.strip()
        if not where.startswith(str(src)):
            print(f"alternant imports from {where!r}, not from the copy under {src}")
            return 1
        for test in sorted({test for *_, test in chosen.values()}):
            if _pytest(src, test).returncode:
                print(f"{test} fails on the unmutated source")
                return 1
    survivors = []
    for name, (module, old, new, test) in chosen.items():
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            path = _copy(tmp) / "alternant" / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the snippet occurs {text.count(old)} times in {module}")
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            status = _pytest(path.parents[1], test).returncode
        if status not in (0, 1):
            print(f"{name}: pytest exited {status} on {test}")
            return 1
        killed = status == 1
        print(f"{name}: {'killed' if killed else 'SURVIVED'} by {test} "
              f"in {time.perf_counter() - start:.1f} s")
        if not killed:
            survivors.append(name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
