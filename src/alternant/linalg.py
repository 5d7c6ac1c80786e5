"""Exact vectors, matrices, linear maps and deterministic Gauss-Jordan elimination.

Everything is over a Field from .galois and carried as tuples of canonical
integer codes, so results are reproducible bit for bit: pivoting always
takes the first nonzero entry scanning down the current column, rows are
processed top-down and columns left-to-right, and there are no tolerances.
gj_locator, solve_square and gauss_jordan over an extension field run one
forward pass to row echelon form (_eliminate), then back-substitute the one
column they need or clear above each pivot from the bottom up.
Every vector-times-matrix product, syndromes, encodings and root search
included, goes through one LinearMap, which reads the matrix as a
Z_p-linear map on packed integers.  Over a prime field, gauss_jordan packs
each row into one int as well: a row operation is one XOR over Z_2 and one
multiply-add over an odd Z_p, its slots reduced mod p only when read.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import and_, floordiv, mod, mul, xor
from typing import Iterable, NamedTuple

from .galois import Field, FieldElement


class SingularSystem(ValueError):
    """Raised by solve_square when the coefficient matrix is singular."""


class MalformedSyndromeStructure(ValueError):
    """Raised when a reduced Hankel matrix violates the expected pivot layout."""


class Vec:
    """Immutable row vector of field elements (stored as integer codes)."""

    __slots__ = ("field", "codes")

    def __init__(self, field: Field, codes: Iterable[int]):
        self.field = field
        self.codes = tuple(codes)
        if not self.codes:
            raise ValueError("empty vectors are not supported")

    @classmethod
    def of(cls, field: Field, items) -> "Vec":
        """Build from ints, element tokens, or FieldElements; a string is not a vector."""
        if isinstance(items, Vec):
            if items.field != field:
                raise TypeError(f"vector over {items.field.name}, expected {field.name}")
            return items
        if isinstance(items, str):
            raise TypeError(f"a string is not a vector over {field.name}")
        return cls(field, (field.element(v).code for v in items))

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i) -> FieldElement:
        if isinstance(i, slice):
            return Vec(self.field, self.codes[i])
        return FieldElement(self.field, self.codes[i])

    def __iter__(self):
        F = self.field
        return (FieldElement(F, c) for c in self.codes)

    def __eq__(self, other):
        if isinstance(other, Vec):
            return self.field == other.field and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.modulus_codes, self.codes))

    def __add__(self, other):
        return self._pairwise(other, self.field.addc)

    def __sub__(self, other):
        return self._pairwise(other, self.field.subc)

    def _pairwise(self, other, op):
        if not isinstance(other, Vec):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return Vec(self.field, map(op, self.codes, other.codes))

    def __matmul__(self, M: "Mat") -> "Vec":
        """Row vector times matrix."""
        if not isinstance(M, Mat):
            return NotImplemented
        _check_same_field(self.field, M.field)
        if len(self) != M.nrows:
            raise ValueError(f"shape mismatch: 1x{len(self)} @ {M.nrows}x{M.ncols}")
        return Vec(self.field, LinearMap(M, self.field)(self.codes))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.codes)

    def weight(self) -> int:
        return sum(1 for c in self.codes if c)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.codes) if c)

    def __str__(self):
        fmt = self.field.format_code
        return "[" + ", ".join(fmt(c) for c in self.codes) + "]"

    def __repr__(self):
        return f"Vec[{self.field.name}]{self}"


class Mat:
    """Immutable matrix of field elements (stored as tuples of integer codes)."""

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]], ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            self.ncols = ncols
        if self.ncols == 0:
            raise ValueError("matrices need at least one column")

    @classmethod
    def of(cls, field: Field, rows) -> "Mat":
        return cls(field, ((field.element(v).code for v in row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Vec:
        return Vec(self.field, self.rows[i])

    def transpose(self) -> "Mat":
        if not self.rows:
            raise ValueError("cannot transpose a 0-row matrix")
        return Mat(self.field, zip(*self.rows))

    def __matmul__(self, other):
        F = self.field
        if isinstance(other, Mat):
            _check_same_field(F, other.field)
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.shape} @ {other.shape}")
            times = LinearMap(other, F)
            return Mat(F, (times(row) for row in self.rows), ncols=other.ncols)
        if isinstance(other, Vec):
            _check_same_field(F, other.field)
            if self.ncols != len(other):
                raise ValueError(f"shape mismatch: {self.shape} @ {len(other)}")
            return Vec(F, LinearMap(self.transpose(), F)(other.codes))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Mat):
            return (self.field == other.field and self.ncols == other.ncols
                    and self.rows == other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.modulus_codes, self.ncols, self.rows))

    def __str__(self):
        fmt = self.field.format_code
        cells = [[fmt(c) for c in row] for row in self.rows]
        if not cells:
            return f"[[]] (0x{self.ncols})"
        widths = [max(len(cells[i][j]) for i in range(len(cells)))
                  for j in range(self.ncols)]
        lines = []
        for i, row in enumerate(cells):
            body = " ".join(s.rjust(w) for s, w in zip(row, widths))
            open_b = "[[" if i == 0 else " ["
            close_b = "]]" if i == len(cells) - 1 else "]"
            lines.append(open_b + body + close_b)
        return "\n".join(lines)

    def __repr__(self):
        return f"Mat[{self.field.name} {self.nrows}x{self.ncols}]\n{self}"


class LinearMap:
    """x -> x @ A on packed integers, for x over A's field F or its prime subfield.

    Over Z_p, F has dimension m, the input field dimension d (1 or m), and
    x @ A is Z_p-linear in the d coordinates of each x_i.  Row i of A times
    X^b (b < d) is packed into one int, a w-bit slot per (column, coordinate)
    with the constant coordinate lowest; x @ A is the sum of these rows scaled
    by the coordinates of x.  For p = 2 a slot is one bit and the sum is XOR
    (bitslicing); the copy times X^(b+1) is the copy times X^b with every
    slot shifted up a bit and, where a slot's top bit fell out, X^m (the
    modulus without its leading term) added in.  zeros(x), the zero columns
    of x @ A, ORs each column's m bits into its lowest with ceil(log2 m)
    shift-ORs and reads the clear ones.
    For odd p a slot holds nrows * d * (p-1)^2, the largest slot sum, so no
    slot carries (Kronecker substitution); _digits reads A's and x's digits.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_typecode", "_folds", "_low")

    def __init__(self, A: Mat, K: Field):
        F = A.field
        if K != F and (K.m != 1 or K.p != F.p):
            raise TypeError(f"{K.name} is neither {F.name} nor its prime subfield")
        p, m = F.p, F.m
        self.field, self.nrows, self.ncols = F, A.nrows, A.ncols
        if p == 2:
            pack = partial(_pack_bits, m=m)  # a code's bits already sit one per slot
            # shift-ORs that take bits 0..m-1 of each column into bit 0, covering 1, 2, 4, ..., m
            self._folds = [min(1 << i, m - (1 << i)) for i in range((m - 1).bit_length())]
            self._low = int(("0" * (m - 1) + "1") * self.ncols, 2)
        else:
            def pack(row):  # column j's m slots hold its coordinates, constant first
                return _pack_slots(row if m == 1 else chain.from_iterable(
                    zip(*(_digits(row, p, b) for b in range(m)))), self._typecode)
            self._typecode = _slot_type(A.nrows * K.m * (p - 1) ** 2)
        # _rows[b][i]: row i times X^b, packed
        self._rows = [[pack(row) for row in A.rows]]
        if p == 2 and K.m > 1:  # times X, slot by slot
            top, low = self._low << m - 1, F.mulc(1 << m - 1, 2)  # each slot's top bit; X^m
            for _ in range(1, K.m):
                self._rows.append([((r & ~top) << 1) ^ ((r & top) >> m - 1) * low
                                   for r in self._rows[-1]])
        else:
            self._rows += [[pack([F.mulc(p ** b, c) for c in row]) for row in A.rows]
                           for b in range(1, K.m)]

    def __call__(self, codes, at=None) -> list[int]:
        """Codes of x @ A, given the codes of x (at most A.nrows, over the input field);
        with at, given x's entries in those rows alone, x being 0 in the rest."""
        acc, p, m = self._sum(codes, at), self.field.p, self.field.m
        if p == 2:
            mask = (1 << m) - 1
            return [acc >> s & mask for s in range(0, self.ncols * m, m)]
        slots = _read_slots(acc, self._typecode, self.ncols * m, p)
        out = slots[m - 1::m]  # each column's code from its m slots, by Horner's rule
        for k in range(m - 2, -1, -1):
            out = [c * p + s for c, s in zip(out, slots[k::m])]
        return out

    def zeros(self, codes) -> list[int]:
        """Indices (ascending) of the zero columns of x @ A, given the codes of x."""
        if self.field.p != 2:
            return [j for j, c in enumerate(self(codes)) if not c]
        acc = self._sum(codes)
        for s in self._folds:
            acc |= acc >> s
        zero, out = (acc & self._low) ^ self._low, []  # bit j*m set: column j is zero
        while zero:
            out.append(((zero & -zero).bit_length() - 1) // self.field.m)
            zero &= zero - 1
        return out

    def _sum(self, codes, at=None) -> int:
        """The packed x @ A, slots not yet reduced mod p; with at, those rows' copies alone."""
        p, m = self.field.p, self.field.m
        rows = self._rows if at is None else [map(r.__getitem__, at) for r in self._rows]
        if len(rows) == 1:  # digit b of every x_i, for the rows times X^b
            digits = [codes]
        elif p == 2:  # nonzero where bit b is set
            digits = (map(and_, codes, repeat(1 << b)) for b in range(m))
        else:
            digits = (_digits(codes, p, b) for b in range(m))
        if p == 2:
            return reduce(xor, chain.from_iterable(map(compress, rows, digits)), 0)
        return sum(sum(map(mul, scale, copy)) for scale, copy in zip(digits, rows))


def _digits(codes, p: int, b: int):
    """Digit b of each code in base p: its coordinate at X^b over Z_p."""
    return map(mod, map(floordiv, codes, repeat(p ** b)), repeat(p))


# Values of an odd Z_p packed into one int, an unsigned array slot each, the first
# lowest.  A slot is the first of 8, 16, 32 or 64 bits that holds the largest sum its
# caller lets build up, at most a count times (p - 1)^2; p < _PRIME_CAP = 2^16 makes
# (p - 1)^2 < 2^32, so "Q" holds it for every count below 2^32.
_SLOT_BYTES = {c: array(c).itemsize for c in "BHIQ"}


def _slot_type(most: int) -> str:
    return next(c for c, size in _SLOT_BYTES.items() if size * 8 >= most.bit_length())


def _pack_slots(values, typecode: str) -> int:
    return int.from_bytes(array(typecode, values).tobytes(), sys.byteorder)


def _read_slots(acc: int, typecode: str, n: int, p: int) -> list[int]:
    """The n lowest slots of acc, each taken mod p."""
    words = memoryview(acc.to_bytes(n * _SLOT_BYTES[typecode], sys.byteorder)).cast(typecode)
    return list(map(mod, words, repeat(p)))


_TO_DIGITS, _TO_CODES = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def _pack_bits(row, m: int = 1) -> int:
    """A row of m-bit codes as one int, code j in bits jm to jm + m - 1."""
    if m == 1:  # one translate to a binary string
        return int(bytes(row[::-1]).translate(_TO_DIGITS), 2)
    acc = 0
    for c in reversed(row):
        acc = acc << m | c
    return acc


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise TypeError(f"mixed fields: {a.name} and {b.name}")


def vandermonde(r: int, alphas: Vec) -> Mat:
    """The r x n matrix with entry (i, j) = alphas[j]^i."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    F = alphas.field
    rows = [[1] * len(alphas)]
    for _ in range(r - 1):
        rows.append(list(map(F.mulc, rows[-1], alphas.codes)))
    return Mat(F, rows)


def hankel_matrix(s: Vec, t: int) -> Mat:
    """The t x (t+1) Hankel matrix with entry (i, j) = s[i+j].

    Uses entries s_0 .. s_{2t-1} only; s must supply at least 2t of them.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if len(s) < 2 * t:
        raise ValueError(f"need at least {2 * t} syndrome entries, got {len(s)}")
    return Mat(s.field, (s.codes[i:i + t + 1] for i in range(t)))


class GJResult(NamedTuple):
    rank: int
    rref: Mat
    pivots: tuple[int, ...]


def gauss_jordan(M: Mat) -> GJResult:
    """Reduced row echelon form with deterministic pivoting.

    For each column left-to-right the first nonzero entry at or below the
    current row becomes the pivot; zero rows end up at the bottom.  Over Z_2
    a row is one int, bit j holding column j, and a row operation one XOR.
    Over an odd Z_p slot j holds column j, and a row operation adds (p - f)
    times the pivot row, f the row's entry in the pivot column, unreduced: a
    slot gains at most (p - 1)^2 per pivot.  A row is taken mod p when it
    becomes the pivot row, and every row at the end.  Over an extension
    field the forward pass (_eliminate) leaves row echelon form and the
    pivots, last first, clear their columns in the rows above.
    """
    F = M.field
    nrows, ncols = M.nrows, M.ncols
    pivots = []
    if F.q == 2:  # rows to and from binary strings, one translate each way
        a = [_pack_bits(r) for r in M.rows]
        for c in range(ncols):
            bit, r = 1 << c, len(pivots)
            pr = next((i for i in range(r, nrows) if a[i] & bit), None)
            if pr is not None:
                a[r], a[pr] = a[pr], a[r]
                prow = a[r]
                a = [v ^ prow if v & bit and i != r else v for i, v in enumerate(a)]
                pivots.append(c)
        rows = (f"{v:0{ncols}b}".encode().translate(_TO_CODES)[::-1] for v in a)
    elif F.m == 1:
        p = F.p
        typecode = _slot_type(p - 1 + min(nrows, ncols) * (p - 1) ** 2)
        bits = 8 * _SLOT_BYTES[typecode]
        mask = (1 << bits) - 1
        a = [_pack_slots(r, typecode) for r in M.rows]
        for c in range(ncols):
            r, s = len(pivots), c * bits
            pr = next((i for i in range(r, nrows) if (a[i] >> s & mask) % p), None)
            if pr is not None:
                row = _read_slots(a[pr], typecode, ncols, p)
                inv = F.invc(row[c])
                a[pr], a[r] = a[r], _pack_slots([v * inv % p for v in row], typecode)
                prow = a[r]
                a = [v + (p - f) * prow if (f := (v >> s & mask) % p) and i != r else v
                     for i, v in enumerate(a)]
                pivots.append(c)
        rows = (_read_slots(v, typecode, ncols, p) for v in a)
    else:
        rows = [list(r) for r in M.rows]
        pivots = _eliminate(F, rows, ncols)
        for r in range(len(pivots) - 1, 0, -1):  # bottom-up: clear above each pivot
            _clear(F, rows[r], pivots[r], rows[:r])
    return GJResult(len(pivots), Mat(F, rows, ncols=ncols), tuple(pivots))


def _eliminate(F: Field, a: list[list[int]], ncols: int) -> list[int]:
    """Forward elimination of the rows a, in place; returns the pivot columns.

    For each column left-to-right the first nonzero entry at or below the
    current row becomes the pivot, its row is scaled to a leading 1 and
    cleared from the rows below.  Rows above a pivot keep their entries in
    its column, so a is in row echelon form: the rows at and below each
    pivot are those Gauss-Jordan has at that step, and rank and pivot
    columns agree with gauss_jordan's.
    """
    exp, log, n, nrows, pivots = F.exp, F.log, F.q - 1, len(a), []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = r if a[r][c] else next((i for i in range(r + 1, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        lead = n - log[prow[c]]
        prow[c:] = [exp[log[v] + lead] if v else 0 for v in prow[c:]]
        _clear(F, prow, c, a[r + 1:])
        pivots.append(c)
    return pivots


def _clear(F: Field, prow: list[int], c: int, rows) -> None:
    """Subtract from each row its entry in column c times prow, whose entry there is 1.

    prow is zero left of c; its nonzero entries right of c are taken once, as
    (column, log of -entry) pairs, and each row operation adds f times -prow
    in place on those columns alone: one exp lookup and one addc per pair.
    """
    exp, log, addc, n = F.exp, F.log, F.addc, F.q - 1
    neg = log[F.negc(1)]
    pairs = [(j, (log[v] + neg) % n) for j, v in enumerate(prow[c + 1:], c + 1) if v]
    for row in rows:
        if f := row[c]:
            lf, row[c] = log[f], 0
            for j, k in pairs:
                row[j] = addc(row[j], exp[lf + k])


def _back_substitute(F: Field, a: list[list[int]], l: int) -> list[int]:
    """Column l of the reduced form of echelon rows a whose pivots are columns 0..l-1.

    Row i of the reduced form is a[i] minus a[i][k] times reduced row k for
    each pivot k > i, so its entry in column l needs only the entries below.
    """
    x = [0] * l
    for i in range(l - 1, -1, -1):
        x[i] = reduce(F.subc, map(F.mulc, a[i][i + 1:l], x[i + 1:]), a[i][l])
    return x


def rank(M: Mat) -> int:
    return gauss_jordan(M).rank


def gj_locator(S: Mat) -> Vec:
    """Locator coefficients read off the reduced Hankel matrix.

    For a syndrome Hankel matrix of rank l the reduction must place pivots
    in columns 0..l-1; rows 0..l-1 of column l then hold
    (-a_l, ..., -a_1), where z^l + a_1 z^(l-1) + ... + a_l is the error
    locator.  Any other pivot layout (including rank 0) raises
    MalformedSyndromeStructure.  Only column l of the reduced form is
    needed, so it is back-substituted on the forward pass's echelon rows.
    """
    a = [list(r) for r in S.rows]
    pivots = _eliminate(S.field, a, S.ncols)
    l = len(pivots)
    if l == 0:
        raise MalformedSyndromeStructure(
            "syndrome Hankel matrix reduced to rank 0")
    if pivots != list(range(l)):
        raise MalformedSyndromeStructure(
            f"pivot columns {tuple(pivots)} deviate from (0..{l - 1})")
    if l >= S.ncols:
        raise MalformedSyndromeStructure(
            f"rank {l} leaves no locator column in a {S.nrows}x{S.ncols} matrix")
    return Vec(S.field, _back_substitute(S.field, a, l))


def expand(M: Mat, K: Field) -> Mat:
    """Rewrite each row over the prime subfield K, one row per coordinate.

    Every entry is replaced by its coordinate vector over K, so each source
    row becomes m rows and the column count is unchanged.  Solution sets over
    K are preserved.  With K equal to the entry field this is the identity.
    """
    F = M.field
    if F == K:
        return M
    if K.m != 1 or K.p != F.p:
        raise TypeError(f"{K.name} is not the prime subfield of {F.name}")
    return Mat(K, (_digits(row, F.p, b) for row in M.rows for b in range(F.m)), ncols=M.ncols)


def null_space(M: Mat | GJResult) -> Mat:
    """Rows form a deterministic basis of {x : M @ x = 0}; handed gauss_jordan's result
    for M, it reads the basis off that reduction instead of eliminating M again.

    May have zero rows (full column rank).  Basis vectors are indexed by the
    free columns of the reduced form, ascending, via back-substitution.
    """
    res = M if isinstance(M, GJResult) else gauss_jordan(M)
    F, ncols, piv = res.rref.field, res.rref.ncols, res.pivots
    negc, out = F.negc, []
    for f in sorted(set(range(ncols)).difference(piv)):
        x = [0] * ncols
        x[f] = 1
        for pc, row in zip(piv, res.rref.rows):
            x[pc] = negc(row[f])
        out.append(x)
    return Mat(F, out, ncols=ncols)


def solve_square(A: Mat, b: Vec) -> Vec:
    """Solve A x = b for square A: forward elimination of the augmented matrix,
    then back-substitution of its last column."""
    _check_same_field(A.field, b.field)
    n = A.nrows
    if A.ncols != n:
        raise ValueError(f"matrix is {A.shape}, not square")
    if len(b) != n:
        raise ValueError(f"right-hand side has length {len(b)}, expected {n}")
    a = [list(row) + [bc] for row, bc in zip(A.rows, b.codes)]
    if _eliminate(A.field, a, n + 1) != list(range(n)):
        raise SingularSystem(f"{n}x{n} system is singular")
    return Vec(A.field, _back_substitute(A.field, a, n))
