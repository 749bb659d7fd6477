"""Exact integer linear algebra: Hermite forms, abelian group data and
fraction-free (Bareiss) elimination.

Matrices are lists of rows, rows are lists of Python ints, so every entry is
arbitrary precision.  Nothing in this module touches floating point.  One
normal form, the column Hermite form (`column_hermite`), answers every
integer question.  It gives the canonical coset representative.  Stacked
over the identity it carries its own unimodular transform, from which the
integer solver is read (`stacked_hermite`).  Taken of a matrix and its
transpose in turn it reaches a diagonal, from which `smith_normal_form`
reads the invariant factors.  A lattice in the plane, the row lattice of a
matrix of two columns, has its Hermite basis built directly, by one pass of
extended gcds over the rows (`row_lattice_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class DimensionMismatch(ValueError):
    pass


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_shape(a):
    return len(a), len(a[0]) if a else 0


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
    """The nonzero invariant factors d1 | d2 | ... of B, from column Hermite forms alone.

    A matrix of at most two columns is read off the Hermite basis of its row
    lattice (`row_lattice_basis`): d1 is the gcd of the basis entries and
    d1 d2 its one 2 x 2 minor, the product of its positive pivots.  A wider
    one takes column Hermite forms of B and of the transpose in turn, each a
    unimodular change, until every column has one nonzero entry
    (Kannan-Bachem); gcd/lcm steps then make that diagonal a divisibility
    chain.
    """
    if not b or not b[0]:
        return []
    if len(b[0]) <= 2:
        h = row_lattice_basis(b)
        if not h[0]:
            return []
        d1 = gcd(*(x for row in h for x in row))
        return [d1] if len(h[0]) == 1 else [d1, h[0][0] * h[1][1] // d1]
    h, pivots = column_hermite(b)
    while sum(1 for row in h for x in row if x) > len(pivots):
        h, pivots = column_hermite([list(col) for col in zip(*h)])
    return diagonal_invariant_factors([h[r][j] for j, r in enumerate(pivots)])


def diagonal_invariant_factors(diagonal):
    """The invariant factors d1 | d2 | ... of a diagonal matrix of positive entries.

    Each pair (x, y) of entries is replaced by (gcd, lcm), which keeps the
    group Z/x + Z/y; after every pair, each entry divides the next.
    """
    d = list(diagonal)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def cokernel(b, rows=None):
    """Z^rows / column-span(B) in invariant-factor form (`smith_normal_form`).

    `rows` lets callers present a map into Z^rows by an empty matrix.
    """
    factors = smith_normal_form(b)
    rank = (len(b) if rows is None else rows) - len(factors)
    return FgAbelianGroup(rank=rank, torsion=tuple(x for x in factors if x >= 2))


def row_lattice_basis(b):
    """A Hermite basis of the row lattice of B, of one or two columns, as the columns of a matrix.

    One column: [[g]], g > 0 the gcd of the column, or [[]] if it is zero.
    Two columns (an empty B counts as two) span a lattice in the plane.  Its
    basis is [[a, 0], [c, d]] at rank 2, with a, d > 0 and 0 <= c < d;
    [[a], [c]] with a > 0 or [[0], [d]] with d > 0 at rank 1; [[], []] at
    rank 0.  It is built by one pass over the rows: a row (x, y) joins the
    basis vectors (a, c) and (0, d) by the extended gcd g = u a + v x.  The
    unimodular [[u, v], [x/g, -a/g]] turns (a, c) and (x, y) into
    (g, u c + v y) and (0, (x c - a y) / g), and the second is folded into
    d by a gcd.  This is `column_hermite` of B^T but for the lower left
    entry, which that leaves unreduced.
    """
    if b and len(b[0]) == 1:
        g = gcd(*(x for x, in b))
        return [[g]] if g else [[]]
    a = c = d = 0
    for x, y in b:
        if x:
            g, u, v = _extended_gcd(a, x)
            a, c, d = g, u * c + v * y, gcd(d, x // g * c - a // g * y)
        elif y:
            d = gcd(d, y)
        if d:
            c %= d
    if a:
        return [[a, 0], [c, d]] if d else [[a], [c]]
    return [[0], [d]] if d else [[], []]


def _extended_gcd(a, b):
    """(g, u, v) with g = gcd(a, b) = u a + v b and g >= 0."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, u, v, u1, v1 = b, r, u1, v1, u - q * u1, v - q * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


def stacked_hermite(b):
    """Column Hermite form of B stacked over the identity, as (H, pivot rows in B).

    Its columns are (B v, v) for the columns v of one unimodular V.  B's rows
    come first, so above they are `column_hermite(B)`, pivots and all, and
    the columns past B's pivots have B v = 0: their lower halves, columns of
    V, are a saturated basis of the kernel of B.  Reducing (y, 0) against
    B's pivots (`reduce_mod_hermite`) leaves (y - B x, -x), the canonical
    representative of y above and, below, an x that reaches it.
    """
    h, pivots = column_hermite(list(b) + identity_matrix(mat_shape(b)[1]))
    return h, [r for r in pivots if r < len(b)]


def solve_stacked(y, h, pivots):
    """An integer x with B x = y, or None if there is none, from B's `stacked_hermite` (H, pivots)."""
    out = reduce_mod_hermite(list(y) + [0] * (len(h) - len(y)), h, pivots)
    if any(out[: len(y)]):
        return None
    return [-x for x in out[len(y) :]]


def column_hermite(b):
    """Column echelon form of the column lattice of B (unimodular col ops).

    Pivot rows strictly increase column by column, pivots are positive, and
    every entry to the right of a pivot in its row is zero.  Zero columns are
    dropped.  Returns (H, pivot_rows).  A pivot that divides an entry keeps
    its column, so a pivot column whose pivot divides its whole row is left
    as it is (up to sign); `smith_normal_form` needs that to terminate.
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
            # Euclid on columns lead/j against row r, swapping only on a remainder
            c = cols[j]
            while c[r] != 0:
                q = c[r] // a[r]
                c = [x - q * y for x, y in zip(c, a)]
                if c[r] != 0:
                    a, c = c, a
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
        the entry the unskipped steps would.  The row is copied once, and
        each step pops its column's entry from the copy.
        """
        row = list(row)
        prev = last = self.start
        for k, p, top in self.steps:
            x = row.pop(k)
            if x:
                row = [(a * p - x * u) // prev for a, u in zip(row, top)]
                prev = p
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

