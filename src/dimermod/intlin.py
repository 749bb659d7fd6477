"""Exact integer linear algebra: Smith/Hermite forms, abelian group data and
fraction-free (Bareiss) elimination.

Matrices are lists of rows, rows are lists of Python ints, so every entry is
arbitrary precision.  Nothing in this module touches floating point.  The
Smith form returns both unimodular transforms, because the integer solver
and the kernel read them; the Hermite form is the canonical coset
representative and, for a matrix of at most two columns, a basis of its row
lattice, from which `cokernel` reads the invariant factors with no
transforms at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class DimensionMismatch(ValueError):
    pass


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a):
    return [row[:] for row in a]


def mat_shape(a):
    return len(a), len(a[0]) if a else 0


def mat_vec(a, x):
    if a and len(a[0]) != len(x):
        raise DimensionMismatch("matrix/vector sizes differ")
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ B @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    `cokernel` reads D alone (for matrices of three or more columns),
    `solve` reads U and V, and `kernel_basis` the columns of V past the rank.
    """

    u: list
    d: list
    v: list

    def diagonal(self):
        rows, cols = mat_shape(self.d)
        return [self.d[i][i] for i in range(min(rows, cols))]

    def rank(self):
        return sum(1 for x in self.diagonal() if x != 0)

    def invariant_factors(self):
        return [x for x in self.diagonal() if x != 0]

    def solve(self, y):
        """An integer x with B x = y, or None if there is none.

        x = V z where D z = U y; every row of that diagonal system is
        checked, the rows past the rank and past the columns too.
        """
        rows, cols = mat_shape(self.d)
        if len(y) != rows:
            raise DimensionMismatch("rhs length != rows")
        z = [0] * cols
        for i, c in enumerate(mat_vec(self.u, y)):
            di = self.d[i][i] if i < cols else 0
            if di == 0:
                if c != 0:
                    return None
            elif c % di != 0:
                return None
            else:
                z[i] = c // di
        return mat_vec(self.v, z)

    def kernel_basis(self):
        """Columns forming a Z-basis of {x : B x = 0}: the columns of V past the rank.

        They extend to a basis of Z^cols because V is unimodular, so the
        lattice is saturated.
        """
        cols = len(self.v)
        return [[self.v[i][j] for i in range(cols)] for j in range(self.rank(), cols)]


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: tuple

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("torsion invariants must form a divisibility chain")

    def order(self):
        """Group order, or None if infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = ["Z"] * self.rank + ["Z/%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(b):
    """Exact Smith normal form with both transforms.

    Returns a SmithDecomposition with U*B*V == D, diagonal nonnegative and
    forming a divisibility chain.  Pivoting always picks the smallest nonzero
    absolute value (ties by position), so the result is deterministic.
    """
    d = mat_copy(b)
    rows, cols = mat_shape(d)
    u, v = identity_matrix(rows), identity_matrix(cols)

    def row_op(i, j, q):
        # row_j -= q*row_i on D and U
        d[j] = [x - q * y for x, y in zip(d[j], d[i])]
        u[j] = [x - q * y for x, y in zip(u[j], u[i])]

    def col_op(i, j, q):
        # col_j -= q*col_i on D and V
        for r in range(rows):
            d[r][j] -= q * d[r][i]
        for r in range(cols):
            v[r][j] -= q * v[r][i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for k in range(n):
        while True:
            pivot = None
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if d[k][k] < 0:
                row_negate(k)
            done = True
            for i in range(k + 1, rows):
                q = d[i][k] // d[k][k]
                if q:
                    row_op(k, i, q)
                if d[i][k]:
                    done = False
            for j in range(k + 1, cols):
                q = d[k][j] // d[k][k]
                if q:
                    col_op(k, j, q)
                if d[k][j]:
                    done = False
            if done:
                # Divisibility repair: fold in any entry the pivot misses.
                bad = None
                for i in range(k + 1, rows):
                    for j in range(k + 1, cols):
                        if d[i][j] % d[k][k] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_op(bad, k, -1)

    return SmithDecomposition(u=u, d=d, v=v)


def cokernel(b, rows=None):
    """Z^rows / column-span(B) in invariant-factor form.

    `rows` lets callers present a map into Z^rows by an empty matrix.  A
    matrix of at most two columns is read from a Hermite basis of its row
    lattice (`row_lattice_basis`), a wider one from its Smith form.
    """
    if rows is None:
        rows = len(b)
    if not b or not b[0]:
        return FgAbelianGroup(rank=rows, torsion=())
    if len(b[0]) <= 2:
        factors = _determinantal_factors(row_lattice_basis(b))
    else:
        factors = smith_normal_form(b).invariant_factors()
    return FgAbelianGroup(rank=rows - len(factors), torsion=tuple(x for x in factors if x >= 2))


def row_lattice_basis(b):
    """A basis of the row lattice of B, as the columns of the column Hermite form of B^T.

    For B with two columns and rank 2 that is a lower triangular 2 x 2
    matrix with positive diagonal.
    """
    return column_hermite([list(col) for col in zip(*b)])[0]


def _determinantal_factors(h):
    """Invariant factors of a lattice basis of at most two columns (`row_lattice_basis`).

    d1 is the gcd of the entries and d1 d2 the gcd of the 2 x 2 minors,
    which for a basis is its one minor: the product of its positive pivots.
    """
    if not h[0]:
        return []
    d1 = gcd(*(x for row in h for x in row))
    if len(h[0]) == 1:
        return [d1]
    return [d1, h[0][0] * h[1][1] // d1]


def kernel_basis(b):
    """Columns forming a Z-basis of {x : B x = 0} (`SmithDecomposition.kernel_basis`)."""
    if mat_shape(b)[1] == 0:
        return []
    return smith_normal_form(b).kernel_basis()


def solve_integer(b, y):
    """An integer x with B x = y, or None if there is none (`SmithDecomposition.solve`)."""
    return smith_normal_form(b).solve(y)


def column_hermite(b):
    """Column echelon form of the column lattice of B (unimodular col ops).

    Pivot rows strictly increase column by column, pivots are positive, and
    every entry to the right of a pivot in its row is zero.  Zero columns are
    dropped.  Returns (H, pivot_rows).
    """
    rows, ncols = mat_shape(b)
    cols = [list(c) for c in zip(*b)]

    lead = 0
    for r in range(rows):
        if lead >= ncols:
            break
        piv = next((j for j in range(lead, ncols) if cols[j][r] != 0), None)
        if piv is None:
            continue
        cols[lead], cols[piv] = cols[piv], cols[lead]
        a = cols[lead]
        for j in range(lead + 1, ncols):
            # swapping Euclid on columns lead/j against row r
            c = cols[j]
            while c[r] != 0:
                q = a[r] // c[r]
                a, c = c, [x - q * y for x, y in zip(a, c)]
            cols[j] = c
        cols[lead] = a if a[r] > 0 else [-x for x in a]
        lead += 1

    keep = [c for c in cols if any(c)]
    pivots = [next(r for r, x in enumerate(c) if x) for c in keep]
    h = [list(row) for row in zip(*keep)] if keep else [[] for _ in range(rows)]
    return h, pivots


def reduce_mod_image(x, b):
    """Canonical representative of x + column-span(B), as a tuple (`reduce_mod_hermite`)."""
    rows, _ = mat_shape(b) if b else (len(x), 0)
    if len(x) != rows and b:
        raise DimensionMismatch("vector length != rows(B)")
    if not b or not b[0]:
        return tuple(x)
    return reduce_mod_hermite(x, *column_hermite(b))


def reduce_mod_hermite(x, h, pivots):
    """Canonical representative of x + column-span(H), H in column Hermite form with these pivot rows.

    Reduction is top pivot row first, so two vectors reduce identically iff
    they differ by an element of the image.
    """
    out = list(x)
    for j, r in enumerate(pivots):
        q = out[r] // h[r][j]
        if q:
            for rr in range(len(out)):
                out[rr] -= q * h[rr][j]
    return tuple(out)


class Elimination:
    """Fraction-free (Bareiss) elimination with column pivoting, row by row.

    A row is given by its entries at `cols`, the increasing columns free
    when this elimination starts, and `reduce` carries it through every step
    so far: at step k, with pivot p_k and p_{k-1} before it (`start` for
    k = 0), entry j becomes (a_j p_k - a_c u_j) / p_{k-1}, where c is the
    step's column and u its pivot row.  After k steps, by Sylvester's
    identity, entry j is the minor on the pivot rows and that row, over the
    pivot columns and column j, divided by start^k.  A first elimination
    starts at 1, so that is a minor of its integer matrix.  An elimination
    `continued` from another starts at that one's last pivot and takes rows
    that one reduced, and the quotient is again a minor of the first
    matrix.  Either way each division is exact.

    `extend` pivots each new row at its first nonzero free column, and
    `sign` is the parity of the column order of those pivots.  So `pivot` is
    the minor on all the rows of the chain so far, times the product of the
    chain's signs.
    """

    __slots__ = ("cols", "free", "start", "steps", "sign", "parent", "_images")

    def __init__(self, cols, parent=None):
        self.cols = self.free = tuple(cols)
        self.start = parent.pivot if parent else 1
        self.steps = ()  # (index of the pivot column among the free ones, pivot, pivot row)
        self.sign = 1
        self.parent = parent
        self._images = None  # (free column -> index, pivot column -> image)

    @property
    def pivot(self):
        return self.steps[-1][1] if self.steps else self.start

    def continued(self):
        """An elimination of rows this one reduced, from its last pivot."""
        return Elimination(self.free, self)

    def reduce(self, row):
        """The row's entries at the free columns after every step so far.

        A step at which the row's entry is 0 only rescales the row by
        p_k / p_{k-1}; the factors of a run of such steps telescope, so the
        run is skipped and its pending factor p_k / `prev` is applied by the
        next step with a nonzero entry, which divides by `prev` instead of
        p_{k-1}, or at the end.  Each division stays exact, since it gives
        the entry the unskipped steps would.
        """
        prev = last = self.start
        for k, p, top in self.steps:
            x = row[k]
            rest = row[:k] + row[k + 1 :]
            if x:
                row = [(a * p - x * u) // prev for a, u in zip(rest, top)]
                prev = p
            else:
                row = rest
            last = p
        if prev != last:
            row = [a * last // prev for a in row]
        return row

    def reduce_sum(self, entries):
        """The row with these (column, value) entries, reduced by linearity.

        The row and its columns belong to the first elimination of the chain
        that this one continues, and each elimination of the chain reduces
        it in turn.  A column still free reduces to `pivot` times itself.
        Any other column's image is its unit row so reduced, computed once;
        the divisions are exact because the unit row is one more row of an
        integer matrix.
        """
        if self._images is None:
            self._images = ({c: k for k, c in enumerate(self.free)}, {})
        index, images = self._images
        out = [0] * len(self.free)
        for col, x in entries:
            if not x:
                continue
            k = index.get(col)
            if k is not None:
                out[k] += x * self.pivot
                continue
            img = images.get(col)
            if img is None:
                if self.parent:
                    row = self.parent.reduce_sum(((col, 1),))
                else:
                    row = [int(c == col) for c in self.cols]
                img = images[col] = self.reduce(row)
            out = [a + x * u for a, u in zip(out, img)]
        return out

    def extend(self, rows):
        """This elimination continued by `rows`, or None if they are dependent on it."""
        out = Elimination(self.cols, self.parent)
        out.free, out.steps, out.sign = self.free, self.steps, self.sign
        for row in rows:
            row = out.reduce(row)
            k = next((k for k, x in enumerate(row) if x), None)
            if k is None:
                return None
            out.free = out.free[:k] + out.free[k + 1 :]
            out.steps += ((k, row[k], row[:k] + row[k + 1 :]),)
            if k % 2:
                out.sign = -out.sign
        return out


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant needs a square matrix")
    e = Elimination(range(n)).extend(a)
    return 0 if e is None else e.sign * e.pivot
