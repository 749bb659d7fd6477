"""Exact integer linear algebra: Smith/Hermite forms and abelian group data.

Matrices are lists of rows, rows are lists of Python ints, so every entry is
arbitrary precision.  Nothing in this module touches floating point.  The
normal-form routines return the unimodular transforms as well, because
callers need generators and canonical coset representatives, not just
invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionMismatch(ValueError):
    pass


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a):
    return [row[:] for row in a]


def mat_shape(a):
    return len(a), len(a[0]) if a else 0


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise DimensionMismatch("inner dimensions differ")
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def mat_vec(a, x):
    if a and len(a[0]) != len(x):
        raise DimensionMismatch("matrix/vector sizes differ")
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ B @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    `cokernel` reads D alone, `solve_integer` reads U and V, `kernel_basis`
    the columns of V past the rank, and `groups.torsion_lattice` the columns
    of V below it.
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

    `rows` lets callers present a map into Z^rows by an empty matrix.
    """
    if rows is None:
        rows = len(b)
    if not b or not b[0]:
        return FgAbelianGroup(rank=rows, torsion=())
    snf = smith_normal_form(b)
    torsion = tuple(x for x in snf.invariant_factors() if x >= 2)
    return FgAbelianGroup(rank=rows - snf.rank(), torsion=torsion)


def kernel_basis(b):
    """Columns forming a Z-basis of {x : B x = 0}; the lattice is saturated.

    With U B V = D, the columns of V past the rank are killed by B, and they
    extend to a basis of Z^cols because V is unimodular.
    """
    rows, cols = mat_shape(b)
    if cols == 0:
        return []
    snf = smith_normal_form(b)
    r = snf.rank()
    return [[snf.v[i][j] for i in range(cols)] for j in range(r, cols)]


def solve_integer(b, y):
    """An integer x with B x = y, or None if there is none.

    With U B V = D, x = V z where D z = U y; every row of that diagonal
    system is checked, the rows past the rank and past the columns too.
    """
    rows, cols = mat_shape(b)
    if len(y) != rows:
        raise DimensionMismatch("rhs length != rows")
    snf = smith_normal_form(b)
    z = [0] * cols
    for i, c in enumerate(mat_vec(snf.u, y)):
        di = snf.d[i][i] if i < cols else 0
        if di == 0:
            if c != 0:
                return None
        elif c % di != 0:
            return None
        else:
            z[i] = c // di
    return mat_vec(snf.v, z)


def column_hermite(b):
    """Column echelon form of the column lattice of B (unimodular col ops).

    Pivot rows strictly increase column by column, pivots are positive, and
    every entry to the right of a pivot in its row is zero.  Zero columns are
    dropped.  Returns (H, pivot_rows).
    """
    rows, cols = mat_shape(b)
    h = [row[:] for row in b]

    lead = 0
    for r in range(rows):
        if lead >= cols:
            break
        piv = next((j for j in range(lead, cols) if h[r][j] != 0), None)
        if piv is None:
            continue
        if piv != lead:
            for rr in range(rows):
                h[rr][lead], h[rr][piv] = h[rr][piv], h[rr][lead]
        for j in range(lead + 1, cols):
            # swapping Euclid on columns lead/j against row r
            while h[r][j] != 0:
                q = h[r][lead] // h[r][j]
                for rr in range(rows):
                    h[rr][lead] -= q * h[rr][j]
                for rr in range(rows):
                    h[rr][lead], h[rr][j] = h[rr][j], h[rr][lead]
        if h[r][lead] < 0:
            for rr in range(rows):
                h[rr][lead] = -h[rr][lead]
        lead += 1

    keep = [j for j in range(cols) if any(h[r][j] != 0 for r in range(rows))]
    h = [[row[j] for j in keep] for row in h]
    pivots = []
    for j in range(len(keep)):
        r = 0
        while h[r][j] == 0:
            r += 1
        pivots.append(r)
    return h, pivots


def reduce_mod_image(x, b):
    """Canonical representative of x + column-span(B), as a tuple.

    Reduction is against the column Hermite form, top pivot row first, so two
    vectors reduce identically iff they differ by an element of the image.
    """
    rows, _ = mat_shape(b) if b else (len(x), 0)
    if len(x) != rows and b:
        raise DimensionMismatch("vector length != rows(B)")
    out = list(x)
    if not b or not b[0]:
        return tuple(out)
    h, pivots = column_hermite(b)
    for j, r in enumerate(pivots):
        p = h[r][j]
        q = out[r] // p
        if q:
            for rr in range(rows):
                out[rr] -= q * h[rr][j]
    return tuple(out)


def in_image(x, b):
    """True iff x lies in the column span of B over Z."""
    return all(c == 0 for c in reduce_mod_image(x, b))


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant needs a square matrix")
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a):
    return abs(det(a)) == 1
