"""Pivoting Smith normal form with both unimodular transforms, the reference
for `intlin.smith_normal_form`, `kernel_basis` and the integer solver
`solve_integer` of `test_intlin.py` (`intlin.solve_stacked`).

It picks the smallest nonzero entry as pivot (ties by position) and keeps
U and V through every row and column operation, so U B V == D.  `intlin`
answers the same questions from column Hermite forms alone.

`kernel_basis` and `divisibility_sublattice_columns` are the route by which
the group G_N of a polygon without an interior point was once computed,
kept here as the oracle of its closed form (`groups.cluster_modular_group`).
"""

from dataclasses import dataclass

from dimermod.intlin import DimensionMismatch, identity_matrix, mat_shape, stacked_hermite


def mat_vec(a, x):
    if a and len(a[0]) != len(x):
        raise DimensionMismatch("matrix/vector sizes differ")
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ B @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    `invariant_factors` reads D alone, `solve` reads U and V, and
    `kernel_basis` the columns of V past the rank.
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


def smith_normal_form(b):
    """Exact Smith normal form with both transforms.

    Returns a SmithDecomposition with U*B*V == D, diagonal nonnegative and
    forming a divisibility chain.  Pivoting always picks the smallest nonzero
    absolute value (ties by position), so the result is deterministic.
    """
    d = [list(row) for row in b]
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


def kernel_basis(b):
    """Columns forming a saturated Z-basis of {x : B x = 0}: the lower halves
    of the columns of B's `stacked_hermite` form past its pivots."""
    rows, cols = mat_shape(b)
    h, pivots = stacked_hermite(b)
    return [[h[i][j] for i in range(rows, rows + cols)] for j in range(len(pivots), cols)]


def divisibility_sublattice_columns(mults):
    """Basis columns of {f in Z^n_0 : m_rho | f_rho for all rho}.

    Parameterized as f = (m_rho * a_rho) with sum m_rho a_rho = 0, so a basis
    of the a-lattice is the kernel of the 1 x n matrix of multiplicities.
    """
    kern = kernel_basis([list(mults)])
    return [[m * a for m, a in zip(mults, col)] for col in kern]
