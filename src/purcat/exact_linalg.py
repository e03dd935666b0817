"""Exact linear algebra over the integers and over Z/m.

Everything downstream (module presentations, homotopy searches, purity
certificates) bottoms out in three primitives implemented here: Smith
normal form with recorded change of basis, exact linear solving, and
kernel computation.  Entries are plain Python ints, so intermediate
values never overflow.  Over Z/m all arithmetic is carried out on
canonical residues 0..m-1; elimination never leaves that range.

One elimination routine serves both the Smith form and the solver.  Its
row operations act on whatever rows the caller carries along: the
identity, which turns into U, or a right-hand side B, which turns into
U B.  Its column operations come back as a log, which the Smith form
replays on the identity to get V, and which the solver and the kernel
replay in reverse on a diagonal solution Y to get V Y.  Neither forms U
or V, yet their pivots, and so their answers, are exactly those of the
Smith form.  The Smith form itself forms each factor only when it is
read, so a module decomposition, which reads U and U^-1, forms no V.

Matrices are stored dense, but the matrices that reach this layer are
mostly zeros, so products and block assembly do Python work only on
nonzero entries: a product adds up scaled rows of its right factor for
the nonzero entries of each left row, identity, block_diag and kron
write zeros as runs built by tuple arithmetic, and reduce_matrix passes
zero rows through as they are.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import attrgetter
from typing import Iterable, Optional


class WorkbenchError(Exception):
    """Base class for errors raised by the workbench."""


class InputError(WorkbenchError):
    """Malformed input: dimension mismatch, bad ring data, bad JSON."""


# ---------------------------------------------------------------------------
# records

# stores a field of a record from its __init__, past the raising __setattr__
_set = object.__setattr__


class Record:
    """Base of the immutable value types.

    A record lists its fields in __slots__ and stores them from a plain
    __init__ with _set; a slot whose name starts with an underscore (a
    cache) is not a field.  Records of one class are equal when their
    field tuples are, and hash as that tuple, which is the hash a frozen
    data class gives; repr has the data class format, and assignment or
    deletion raises AttributeError.
    Nothing is generated with exec, so a record class costs an import
    about what a plain class does, and no start imports the standard
    data class module with the inspect, ast, dis and tokenize under it.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = attrgetter(*names)
        cls._fields = names
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


# ---------------------------------------------------------------------------
# rings


class Ring(Record):
    """The ring of integers (modulus None) or Z/m for m >= 2.

    Elements are represented canonically: arbitrary ints over Z,
    residues in 0..m-1 over Z/m.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: Optional[int] = None) -> None:
        if modulus is not None and modulus < 2:
            raise InputError("modulus must be at least 2")
        _set(self, "modulus", modulus)

    def reduce(self, x: int) -> int:
        if self.modulus is None:
            return x
        return x % self.modulus

    def reduce_matrix(self, a: "IntMatrix") -> "IntMatrix":
        """a with every entry reduced; a zero row is kept as it is."""
        if self.modulus is None:
            return a
        m = self.modulus
        return IntMatrix._trusted(a.rows, a.cols, tuple([
            tuple([x % m for x in row]) if any(row) else row for row in a.data]))

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


ZZ = Ring()


def Zmod(m: int) -> Ring:
    return Ring(m)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Record):
    """Immutable integer matrix; data is a tuple of row tuples.

    Storage is dense: every entry, zero or not, sits in its row tuple.
    Products and assembly skip the zero entries instead, and may share
    one zero row tuple between rows.  The constructor checks the shape;
    producers whose output shape follows from their operands build
    through _trusted, which does not.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple) -> None:
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError("matrix shape does not match data")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)

    # Record's == and hash field by field, twice as fast as its attrgetter
    def __eq__(self, other) -> bool:
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self is other or (self.rows == other.rows and self.cols == other.cols
                                 and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    # -- constructors -------------------------------------------------

    @staticmethod
    def _trusted(rows: int, cols: int, data: tuple) -> "IntMatrix":
        """A matrix whose data is known to have shape rows x cols."""
        obj = object.__new__(IntMatrix)
        _set(obj, "rows", rows)
        _set(obj, "cols", cols)
        _set(obj, "data", data)
        return obj

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        return IntMatrix(r, c, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        row = (0,) * cols
        return IntMatrix._trusted(rows, cols, tuple(row for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        zero = (0,) * n
        return IntMatrix._trusted(n, n, tuple([zero[:i] + (1,) + zero[i + 1:]
                                               for i in range(n)]))

    @staticmethod
    def column_vector(entries: Iterable[int]) -> "IntMatrix":
        ents = [int(x) for x in entries]
        return IntMatrix(len(ents), 1, tuple((x,) for x in ents))

    # -- accessors ----------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def max_abs(self) -> int:
        return max((abs(x) for row in self.data for x in row), default=0)

    # -- arithmetic ---------------------------------------------------

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, self.cols,
                                  tuple(tuple(c * a for a in row) for row in self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product is the sum of a * (row k of other) over the
        nonzero entries a = self[i, k]; a row with none is one shared
        zero row.  Zero entries of self cost nothing."""
        if self.cols != other.rows:
            raise InputError("matrix product shape mismatch")
        right = other.data
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            acc = None
            for k, a in enumerate(row):
                if a:
                    if acc is None:
                        acc = [a * b for b in right[k]]
                    else:
                        acc = [x + a * b for x, b in zip(acc, right[k])]
            out.append(zero if acc is None else tuple(acc))
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(self.cols, self.rows, tuple(zip(*self.data))
                                  if self.rows else tuple(() for _ in range(self.cols)))

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; (i1*other.rows+i2, j1*other.cols+j2) entry
        is self[i1,j1] * other[i2,j2].  A zero entry of self contributes
        one shared run of other.cols zeros."""
        zero = (0,) * other.cols
        rows = []
        for r1 in self.data:
            for r2 in other.data:
                row = ()
                for a in r1:
                    row += tuple([a * b for b in r2]) if a else zero
                rows.append(row)
        return IntMatrix._trusted(self.rows * other.rows, self.cols * other.cols,
                                  tuple(rows))


def _combine(height: int, terms) -> list:
    """The rows of a sum of terms as plain lists, unreduced; None for a
    row no term reaches.  A term is (c,) for c id, (c, A) or (c, A, B) for
    c A B, zero if a matrix is None; a product adds c a (row k of B) for
    each nonzero a = A[i, k] and is never formed."""
    out = [None] * height
    for c, *mats in terms:
        if mats and (mats[0] is None or mats[-1] is None):
            continue
        if not mats:
            for i in range(height):
                out[i] = acc = out[i] or [0] * height
                acc[i] += c
        elif len(mats) == 1:
            for i, row in enumerate(mats[0].data):
                if any(row):
                    acc = out[i]
                    out[i] = ([c * x for x in row] if acc is None
                              else [u + c * x for u, x in zip(acc, row)])
        else:
            right = mats[1].data
            for i, row in enumerate(mats[0].data):
                acc = out[i]
                for k, x in enumerate(row):
                    if x:
                        x *= c
                        acc = ([x * y for y in right[k]] if acc is None
                               else [u + x * y for u, y in zip(acc, right[k])])
                out[i] = acc
    return out


def lincomb(ring: Ring, rows: int, cols: int, terms) -> IntMatrix:
    """The rows x cols sum of terms (as in _combine), reduced mod m."""
    m = ring.modulus
    zero = (0,) * cols
    return IntMatrix._trusted(rows, cols, tuple([
        zero if row is None else tuple([x % m for x in row] if m else row)
        for row in _combine(rows, terms)]))


def hstack(*mats: IntMatrix) -> IntMatrix:
    mats = [m for m in mats]
    if not mats:
        raise InputError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise InputError("hstack row mismatch")
    data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
    return IntMatrix._trusted(rows, sum(m.cols for m in mats), data)


def block_diag(*mats: IntMatrix) -> IntMatrix:
    """Each row of each block, padded by the zero runs left and right of
    its column range."""
    cols = sum(m.cols for m in mats)
    out = []
    c0 = 0
    for m in mats:
        left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
        out.extend([left + row + right for row in m.data])
        c0 += m.cols
    return IntMatrix._trusted(len(out), cols, tuple(out))


def from_columns(cols: Iterable[Iterable[int]], height: int) -> IntMatrix:
    cols = [list(c) for c in cols]
    for c in cols:
        if len(c) != height:
            raise InputError("column height mismatch")
    data = tuple(tuple(c[i] for c in cols) for i in range(height))
    return IntMatrix(height, len(cols), data)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithDecomposition:
    """U @ A @ V == D with U, V invertible over the ring and D diagonal.

    The diagonal entries form a divisibility chain d1 | d2 | ...; over Z
    they are nonnegative, over Z/m they are divisors of m (0 standing
    for the class of m).  u_inv is the recorded inverse of U when the
    caller asked for it, and None otherwise.

    One made by smith_normal_form holds what its one run of _eliminate
    leaves: the diagonal, the column log and, when inverse was asked
    for, U and U^-1.  Every other factor is formed on first read and
    kept: D from the diagonal, V by replaying the log on the identity,
    and a U that was not carried by running the same elimination again,
    carrying it.  The elimination is deterministic, so each factor is
    the one a single run carrying everything would give.  Constructed
    directly, all the factors are given.
    """

    __slots__ = ("ring", "_a", "_diag", "_log", "_u", "_d", "_v", "_u_inv", "_kernel")

    def __init__(self, ring: Ring, u: Optional[IntMatrix], d: Optional[IntMatrix],
                 v: Optional[IntMatrix], u_inv: Optional[IntMatrix] = None):
        self.ring = ring
        self._u, self._d, self._v, self._u_inv = u, d, v, u_inv
        self._a = self._diag = self._log = self._kernel = None

    @property
    def u(self) -> IntMatrix:
        if self._u is None:
            r = self._a.rows
            m = self.ring.modulus
            u = _identity_rows(r)
            _eliminate(_reduced_rows(self._a, m), self._a.cols, m, u, [])
            self._u = _frozen(u, r)
        return self._u

    @property
    def d(self) -> IntMatrix:
        if self._d is None:
            c = self._a.cols
            self._d = _frozen([[x if i == j else 0 for j in range(c)]
                               for i, x in enumerate(self._diag)], c)
        return self._d

    @property
    def v(self) -> IntMatrix:
        if self._v is None:
            m = self.ring.modulus
            v = _identity_rows(self._a.cols)
            for dst, src, q in self._log:
                if q is None:
                    for row in v:
                        row[dst], row[src] = row[src], row[dst]
                elif m is None:
                    for row in v:
                        x = row[src]
                        if x:
                            row[dst] -= q * x
                else:
                    for row in v:
                        x = row[src]
                        if x:
                            row[dst] = (row[dst] - q * x) % m
            self._v = _frozen(v, self._a.cols)
        return self._v

    @property
    def u_inv(self) -> Optional[IntMatrix]:
        return self._u_inv

    def diagonal(self) -> list:
        if self._diag is None:
            k = min(self._d.rows, self._d.cols)
            return [self._d.at(i, i) for i in range(k)]
        return list(self._diag[:self._a.cols])

    def _fields(self) -> tuple:
        return (self.ring, self.u, self.d, self.v, self.u_inv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SmithDecomposition):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        ring, u, d, v, u_inv = self._fields()
        return f"SmithDecomposition(ring={ring!r}, u={u!r}, d={d!r}, v={v!r}, u_inv={u_inv!r})"


def _unit_scaling_mod(x: int, m: int) -> tuple:
    """A unit u mod m with u*x = gcd(x, m) mod m; returns (u, gcd)."""
    g = gcd(x, m)
    xp, mp = x // g, m // g
    u0 = pow(xp, -1, mp) if mp > 1 else 1
    for k in range(m):
        u = (u0 + k * mp) % m
        if u and gcd(u, m) == 1:
            return u, g
    raise AssertionError("no unit multiplier found")  # unreachable


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _frozen(rows: list, width: int) -> IntMatrix:
    return IntMatrix._trusted(len(rows), width, tuple(tuple(row) for row in rows))


def _reduced_rows(mat: IntMatrix, m: Optional[int]) -> list:
    """The rows of mat as lists, reduced mod m over Z/m."""
    if m is None:
        return [list(row) for row in mat.data]
    return [[x % m for x in row] for row in mat.data]


def _eliminate(a: list, c: int, m: Optional[int], carry: list, ui: list) -> list:
    """Bring the rows a of an r x c matrix, reduced over the ring, to
    Smith form in place; the one elimination behind smith_normal_form
    and solve_linear.

    Every row operation is applied to a and to the rows of carry, and in
    inverse to the columns of ui (the rows of U^-1, or no rows when
    nobody asked for it).  Started from the identity, carry ends as U;
    started from B, it ends as U @ B.  Column operations touch a alone
    and are returned in the order performed: (dst, src, q) for
    col_dst -= q * col_src and (i, j, None) for a swap of columns i and
    j.  V is the product of these elementary matrices in that order.

    Pivot selection is the smallest nonzero entry in ring size with
    first-occurrence tie-break (row-major scan), which makes the output
    deterministic.  Over Z/m each pivot is scaled by a unit so that it
    equals gcd(pivot, m); the final diagonal then consists of divisors
    of m and the divisibility chain survives reduction.  The chain
    itself is enforced after diagonalization by 2x2 transforms on the
    diagonal, not by per-pivot sweeps of the remaining block.
    """
    r = len(a)
    w = len(carry[0]) if r else 0
    log = []

    def red(x: int) -> int:
        return x if m is None else x % m

    # The elementary operations below branch on the ring outside their
    # loops and skip zero source entries; the matrices coming out of
    # vectorized map equations are sparse enough that this matters.

    def row_add(dst: int, src: int, q: int) -> None:
        # row_dst -= q * row_src, in a and carry, tracked in ui
        ar, asrc = a[dst], a[src]
        ur, usrc = carry[dst], carry[src]
        if m is None:
            for j in range(c):
                x = asrc[j]
                if x:
                    ar[j] -= q * x
            for j in range(w):
                x = usrc[j]
                if x:
                    ur[j] -= q * x
            for row in ui:
                x = row[dst]
                if x:
                    row[src] += q * x
        else:
            for j in range(c):
                x = asrc[j]
                if x:
                    ar[j] = (ar[j] - q * x) % m
            for j in range(w):
                x = usrc[j]
                if x:
                    ur[j] = (ur[j] - q * x) % m
            for row in ui:
                x = row[dst]
                if x:
                    row[src] = (row[src] + q * x) % m

    def col_add(dst: int, src: int, q: int) -> None:
        # col_dst -= q * col_src, logged
        if m is None:
            for i in range(r):
                x = a[i][src]
                if x:
                    a[i][dst] -= q * x
        else:
            for i in range(r):
                x = a[i][src]
                if x:
                    a[i][dst] = (a[i][dst] - q * x) % m
        log.append((dst, src, q))

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        carry[i], carry[j] = carry[j], carry[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def col_swap(i: int, j: int) -> None:
        for k in range(r):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        log.append((i, j, None))

    def row_scale(i: int, unit: int, unit_inv: int) -> None:
        a[i] = [red(unit * x) for x in a[i]]
        carry[i] = [red(unit * x) for x in carry[i]]
        for row in ui:
            row[i] = red(row[i] * unit_inv)

    t = 0
    limit = min(r, c)
    while t < limit:
        # locate pivot: smallest ring size, first occurrence.  Entries
        # of ring size 1 cannot be beaten and rows below t are zero to
        # the left of column t, so list.index finds them at C speed
        pi = pj = -1
        unit_lo = 1
        unit_hi = -1 if m is None else m - 1
        for i in range(t, r):
            row_i = a[i]
            try:
                j1 = row_i.index(unit_lo)
            except ValueError:
                j1 = -1
            j2 = -1
            if unit_hi != unit_lo:
                try:
                    j2 = row_i.index(unit_hi)
                except ValueError:
                    j2 = -1
            if j1 >= 0 and (j2 < 0 or j1 < j2):
                pi, pj = i, j1
                break
            if j2 >= 0:
                pi, pj = i, j2
                break
        if pi < 0:
            # no unit entry anywhere; fall back to the full scan, where
            # a key of 2 is now the best possible and stops it early
            best_key = None
            for i in range(t, r):
                row_i = a[i]
                for j in range(t, c):
                    x = row_i[j]
                    if x:
                        key = abs(x) if m is None else min(x, m - x)
                        if best_key is None or key < best_key:
                            best_key, pi, pj = key, i, j
                            if key == 2:
                                break
                if best_key == 2:
                    break
            if best_key is None:
                break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if m is None:
            if a[t][t] < 0:
                row_scale(t, -1, -1)
        else:
            unit, _ = _unit_scaling_mod(a[t][t], m)
            if unit != 1:
                row_scale(t, unit, pow(unit, -1, m))
        p = a[t][t]

        dirty = False
        for i in range(t + 1, r):
            x = a[i][t]
            if x:
                q, rem = divmod(x, p)
                row_add(i, t, q)
                if rem:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, c):
            x = a[t][j]
            if x:
                q, rem = divmod(x, p)
                col_add(j, t, q)
                if rem:
                    dirty = True
        if dirty:
            continue
        t += 1

    # Divisibility is repaired afterwards on the diagonal alone, which
    # avoids rescanning the remaining block after every pivot.

    def fix_pair(i: int, j: int) -> None:
        # 2x2 transform sending diag(d_i, d_j) to diag(gcd, lcm); rows
        # and columns i, j are diagonal on entry and on exit
        col_add(i, j, -1)
        while a[j][i]:
            q = a[i][i] // a[j][i]
            row_add(i, j, q)
            row_swap(i, j)
        g = a[i][i]
        x = a[i][j]
        if x:
            col_add(j, i, x // g)
        if m is None:
            if a[j][j] < 0:
                row_scale(j, -1, -1)
        elif a[j][j]:
            unit, _ = _unit_scaling_mod(a[j][j], m)
            if unit != 1:
                row_scale(j, unit, pow(unit, -1, m))

    for i in range(t):
        di = a[i][i]
        for j in range(i + 1, t):
            dj = a[j][j]
            if (di == 0 and dj != 0) or (di != 0 and dj % di):
                fix_pair(i, j)
                di = a[i][i]

    return log


@lru_cache(maxsize=8192)
def smith_normal_form(a_mat: IntMatrix, ring: Ring,
                      inverse: bool = False) -> SmithDecomposition:
    """Smith normal form with change of basis over Z or Z/m.

    U, D and V can always be read; U^-1 is tracked only when inverse is
    true, and V^-1 never.  U is the identity carried through the row
    operations of _eliminate, V the identity put through its logged
    column operations in order.

    The one run of _eliminate carries the identity and U^-1 when inverse
    is true and no rows otherwise; D, V and an uncarried U are formed
    only when read (see SmithDecomposition).  So FpModule.decomposition,
    which asks for the inverse and reads U and U^-1, forms no V, and
    kernel_basis, which reads the diagonal and the column log, forms
    neither U nor V.  Matrices and decompositions are immutable, so
    results are memoized; kernel extraction and module decomposition
    hit the same matrices over and over, and the cache turns those
    repeats into lookups.
    """
    r, c = a_mat.rows, a_mat.cols
    m = ring.modulus
    a = _reduced_rows(a_mat, m)
    u = _identity_rows(r) if inverse else [[] for _ in a]
    ui = _identity_rows(r) if inverse else []
    log = _eliminate(a, c, m, u, ui)
    if inverse:
        snf = SmithDecomposition(ring, _frozen(u, r), None, None, _frozen(ui, r))
    else:
        snf = SmithDecomposition(ring, None, None, None)
    snf._a = a_mat
    snf._diag = tuple(a[i][i] if i < c else 0 for i in range(r))
    snf._log = log
    return snf


def smith_diagonal(a_mat: IntMatrix, ring: Ring) -> tuple:
    """The Smith diagonal of a_mat, one entry per row, 0 past the last column.

    It is what _eliminate leaves in place when it carries no rows, so
    neither U nor V is formed, and nothing is cached.
    """
    m = ring.modulus
    a = _reduced_rows(a_mat, m)
    _eliminate(a, a_mat.cols, m, [[] for _ in a], [])
    return tuple(a[i][i] if i < a_mat.cols else 0 for i in range(a_mat.rows))


def quotient_order(diagonal: tuple, q: int) -> Optional[int]:
    """|R^g / (span A + q R^g)| for A with the given Smith diagonal, or
    None when it is infinite.

    That module is coker(A) (x) R/(q), presented by [A | qI].  With
    UAV = D, U [A | qI] diag(V, U^-1) = [D | qI], which splits row by
    row into R/(gcd(d_r, q)); a zero entry counts as q.  Over Z, q = 0
    is the free probe and a zero gcd is a free summand.  Over Z/m every
    d_r and q divide m (0 standing for m), and q = m is the free probe.
    """
    size = 1
    for d in diagonal:
        g = gcd(d, q)
        if not g:
            return None
        size *= g
    return size


# ---------------------------------------------------------------------------
# solving


def _replay(log: list, y: list, m: Optional[int]) -> None:
    """Turn the rows y of a matrix Y into those of V Y, in place.

    log is the column log of _eliminate, and V the product
    E_1 E_2 ... E_n of its elementary matrices in logged order, so
    V Y = E_1 (E_2 (... (E_n Y))): the log is applied from its end.
    col_dst -= q * col_src is right multiplication by I - q e_src e_dst^T,
    which on Y from the left is y_src -= q * y_dst; a column swap is a
    row swap.  A step whose y_dst is zero changes nothing and is
    skipped.  Over Z every step is exact, so the rows end as V Y entry
    for entry; over Z/m each step reduces mod m, which commutes with
    the products, so rows that start as canonical residues end as the
    canonical residues of V Y.
    """
    for dst, src, q in reversed(log):
        if q is None:
            y[dst], y[src] = y[src], y[dst]
        elif any(y[dst]):
            if m is None:
                y[src] = [s - q * t for s, t in zip(y[src], y[dst])]
            else:
                y[src] = [(s - q * t) % m for s, t in zip(y[src], y[dst])]


def solve_linear(a: IntMatrix, b: IntMatrix, ring: Ring) -> Optional[IntMatrix]:
    """An exact solution X of A @ X = B over the ring, or None.

    The decision goes through the Smith form U A V = D without forming
    U or V.  B rides along with the row operations of the elimination,
    so when A has become D the carried rows are U B, and D Y = U B is
    solvable iff each diagonal congruence d_i * y = (UB)_i is.  X = V Y
    comes from _replay of the logged column operations on Y.  The
    pivots are those of smith_normal_form(a, ring), so X equals the
    product of its V with Y entry for entry.
    """
    if a.rows != b.rows:
        raise InputError("solve_linear: row mismatch")
    m = ring.modulus
    if a.cols == 0:
        return IntMatrix.zeros(0, b.cols) if ring.reduce_matrix(b).is_zero() else None
    if a.rows == 0:
        return IntMatrix.zeros(a.cols, b.cols)
    d = _reduced_rows(a, m)
    ub = _reduced_rows(b, m)
    log = _eliminate(d, a.cols, m, ub, [])
    k = min(a.rows, a.cols)
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        di = d[i][i] if i < k else 0
        row = ub[i]
        if m is None:
            if di == 0:
                if any(row):
                    return None
            else:
                for j in range(b.cols):
                    q, rem = divmod(row[j], di)
                    if rem:
                        return None
                    y[i][j] = q
        else:
            dd = di if di else m
            for j in range(b.cols):
                q, rem = divmod(row[j], dd)
                if rem:
                    return None
                if di:
                    y[i][j] = q
    _replay(log, y, m)
    return _frozen(y, b.cols)


def kernel_basis(a: IntMatrix, ring: Ring) -> IntMatrix:
    """Columns generating {x : A x = 0} over the ring.

    Over Z the columns are a lattice basis of the kernel (which is
    automatically saturated); over Z/m they generate the kernel
    submodule, with the congruence freedom (m/d_j) per diagonal entry.

    With U A V = D and x = V y, A x = 0 iff D y = 0, which holds
    coordinate by coordinate: y_j is free where column j of D is zero
    (d_j = 0, or j past the last row), and over Z/m it is otherwise a
    multiple of m/d_j, d_j dividing m; d_j = 1 leaves nothing.  So the
    kernel is generated by V (c_j e_j) over those j, c_j = 1 for a free
    y_j and m/d_j otherwise, in increasing j.  The diagonal and the
    column log come from smith_normal_form(a, ring), which carries no
    rows, and _replay puts the log through Y = [c_j e_j], one column per
    kept j, so neither U nor V is formed.  Over Z each column is c_j
    times column j of that V exactly, and over Z/m both are the
    canonical residues of c_j V e_j: the replay starts from residues
    and reduces every step, V reduces every step and is then scaled by
    c_j.  The columns therefore equal, entry for entry, the ones read
    off the full V.  They are kept on the memoized decomposition.
    """
    if a.cols == 0:
        return IntMatrix.zeros(0, 0)
    if a.rows == 0:
        return IntMatrix.identity(a.cols)
    snf = smith_normal_form(a, ring)
    if snf._kernel is None:
        m = ring.modulus
        kept = []
        for j in range(a.cols):
            dj = snf._diag[j] if j < a.rows else 0
            if m is None:
                if dj == 0:
                    kept.append((j, 1))
            else:
                c = m // dj if dj else 1
                if c % m:
                    kept.append((j, c))
        y = [[0] * len(kept) for _ in range(a.cols)]
        for t, (j, c) in enumerate(kept):
            y[j][t] = c
        _replay(snf._log, y, m)
        snf._kernel = _frozen(y, len(kept))
    return snf._kernel


# ---------------------------------------------------------------------------
# simultaneous linear systems in matrix unknowns


class LinearSystem:
    """Joint exact solver for equations sum_k L_k X R_k = C.

    Unknowns are matrices; each equation is a list of terms
    (L, key, R) plus a right-hand side.  Everything is vectorized
    column-major (vec(L X R) = (R^T kron L) vec X) into one call of
    solve_linear, so solvability is decided exactly over the ring.  The
    Kronecker blocks are never formed: each term places only its nonzero
    products R[q][j] * L[i][p], which is all the coefficient matrix of a
    sparse map equation holds.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self._shapes: dict = {}
        self._order: list = []
        self._equations: list = []

    def add_unknown(self, key, rows: int, cols: int) -> None:
        if key in self._shapes:
            if self._shapes[key] != (rows, cols):
                raise InputError(f"unknown {key!r} redeclared with a new shape")
            return
        self._shapes[key] = (rows, cols)
        self._order.append(key)

    def add_equation(self, terms: list, rhs: IntMatrix) -> None:
        for left, key, right in terms:
            rows, cols = self._shapes[key]
            if left.cols != rows or right.rows != cols:
                raise InputError("equation term shape mismatch")
            if left.rows != rhs.rows or right.cols != rhs.cols:
                raise InputError("equation term does not match rhs shape")
        self._equations.append((list(terms), rhs))

    @staticmethod
    def _vec(mat: IntMatrix) -> list:
        out = []
        for j in range(mat.cols):
            for i in range(mat.rows):
                out.append(mat.at(i, j))
        return out

    @staticmethod
    def _unvec(entries: list, rows: int, cols: int) -> IntMatrix:
        data = [[0] * cols for _ in range(rows)]
        idx = 0
        for j in range(cols):
            for i in range(rows):
                data[i][j] = entries[idx]
                idx += 1
        return IntMatrix._trusted(rows, cols, tuple(map(tuple, data)))

    def _assemble(self) -> tuple:
        """The first vec position of each unknown, the stacked coefficient
        matrix and the right-hand side column."""
        offsets = {}
        total = 0
        for key in self._order:
            offsets[key] = total
            rows, cols = self._shapes[key]
            total += rows * cols
        big_rows = []
        rhs_entries = []
        for terms, rhs in self._equations:
            block = [[0] * total for _ in range(rhs.rows * rhs.cols)]
            for left, key, right in terms:
                # entry (j * L.rows + i, off + q * L.cols + p) of R^T kron L
                # is R[q][j] * L[i][p]; only nonzero products are placed
                height, width = left.rows, left.cols
                nonzero = [[(p, x) for p, x in enumerate(row) if x] for row in left.data]
                for q, rrow in enumerate(right.data):
                    base = offsets[key] + q * width
                    for j, rx in enumerate(rrow):
                        if not rx:
                            continue
                        for i, entries in enumerate(nonzero):
                            dst = block[j * height + i]
                            for p, x in entries:
                                dst[base + p] += rx * x
            big_rows.extend(block)
            rhs_entries.extend(self._vec(rhs))
        return (offsets,
                IntMatrix._trusted(len(big_rows), total, tuple(map(tuple, big_rows))),
                IntMatrix._trusted(len(rhs_entries), 1, tuple((x,) for x in rhs_entries)))

    def solve(self) -> Optional[dict]:
        offsets, big, rhs = self._assemble()
        if not big.rows:
            sol_entries = [0] * big.cols
        else:
            sol = solve_linear(big, rhs, self.ring)
            if sol is None:
                return None
            sol_entries = [row[0] for row in sol.data]
        out = {}
        for key in self._order:
            rows, cols = self._shapes[key]
            off = offsets[key]
            out[key] = self._unvec(sol_entries[off:off + rows * cols], rows, cols)
        return out
