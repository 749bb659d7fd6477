"""Smith/Hermite forms and group presentations, exact."""

import itertools
import random

import pytest

from dimermod import intlin
from smith_oracle import kernel_basis, mat_vec, smith_normal_form as smith_oracle

DIAMOND_B = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(a):
    """The determinant of a square integer matrix: the one-stage `Elimination`, its last pivot times its sign."""
    e = intlin.Elimination(range(len(a))).extend(a)
    return 0 if e is None else e.sign * e.pivot


def _is_unimodular(a):
    return abs(_det(a)) == 1


# With the always-swapping Euclid step, alternating column Hermite forms of
# this matrix and its transpose cycled between two forms forever.
CYCLING_T = [[1, -1, 0, -1], [-1, -1, -1, 1]]


def _transpose(b):
    return [list(col) for col in zip(*b)]


def _matrices(rng, trials):
    """Seeded matrices of every shape 1..8 x 1..8 and every rank up to it.

    The rows past the rank are sums of the others with signs, so they are
    dependent, and every entry stays within 10^9.
    """
    for rows, cols in itertools.product(range(1, 9), repeat=2):
        for _ in range(trials):
            rank = rng.randint(0, min(rows, cols))
            hi = rng.choice((1, 9, 10**9)) // max(rank, 1) or 1
            b = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rank)]
            for _ in range(rows - rank):
                signs = [rng.randint(-1, 1) for _ in range(rank)]
                b.append([sum(s * x for s, x in zip(signs, col)) for col in zip(*b[:rank])] or [0] * cols)
            rng.shuffle(b)
            yield b


def solve_integer(b, y):
    """An integer x with B x = y, or None if there is none, from B's `stacked_hermite`."""
    if len(y) != len(b):
        raise intlin.DimensionMismatch("rhs length != rows")
    return intlin.solve_stacked(y, *intlin.stacked_hermite(b))


def test_snf_of_worked_matrix():
    assert intlin.smith_normal_form(DIAMOND_B) == [1, 2]
    snf = smith_oracle(DIAMOND_B)
    assert snf.diagonal() == [1, 2]
    assert _mat_mul(_mat_mul(snf.u, DIAMOND_B), snf.v) == snf.d
    assert _is_unimodular(snf.u) and _is_unimodular(snf.v)


def test_snf_identity():
    assert intlin.smith_normal_form(intlin.identity_matrix(3)) == [1, 1, 1]
    assert smith_oracle(intlin.identity_matrix(3)).diagonal() == [1, 1, 1]


def test_snf_roundtrip_random():
    # the oracle's transforms and chain, and `smith_normal_form` against it
    rng = random.Random(42)
    large = []
    for _ in range(5):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        large.append([[rng.randint(-10**6, 10**6) for _ in range(cols)] for _ in range(rows)])
    ranks = set()
    for b in itertools.chain(large, _matrices(rng, 3), [CYCLING_T, _transpose(CYCLING_T)]):
        snf = smith_oracle(b)
        assert _mat_mul(_mat_mul(snf.u, b), snf.v) == snf.d
        diag = snf.invariant_factors()
        assert all(d > 0 for d in diag)
        for a, c in zip(diag, diag[1:]):
            assert c % a == 0
        assert intlin.smith_normal_form(b) == diag, b
        ranks.add(len(diag))
    assert set(range(9)) <= ranks
    for b in ([], [[]], [[], []]):
        assert intlin.smith_normal_form(b) == []


def test_alternating_hermite_forms_of_cycling_matrix_reach_a_diagonal():
    h, pivots = intlin.column_hermite(CYCLING_T)
    for _ in range(4):
        if sum(1 for row in h for x in row if x) == len(pivots):
            break
        h, pivots = intlin.column_hermite(_transpose(h))
    assert h == [[1, 0], [0, 1]]


def test_cokernel_examples():
    assert intlin.cokernel(DIAMOND_B) == intlin.FgAbelianGroup(rank=2, torsion=(2,))
    assert intlin.cokernel([[], [], []]) == intlin.FgAbelianGroup(rank=3, torsion=())
    assert intlin.cokernel([[2, 0], [0, 3]]) == intlin.FgAbelianGroup(rank=0, torsion=(6,))
    assert intlin.cokernel([[]]) == intlin.FgAbelianGroup(rank=1, torsion=())
    assert intlin.cokernel([[], []], rows=3) == intlin.FgAbelianGroup(rank=3, torsion=())


def test_cokernel_invariant_under_unimodular_changes():
    # 4 x 3 takes the Smith path; 5 x 2 and 4 x 1 the Hermite path of at
    # most two columns
    rng = random.Random(7)
    for rows, cols in ((4, 3), (5, 2), (4, 1)):
        for _ in range(20):
            b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            ref = intlin.cokernel(b)
            # random unimodular row/col operations
            m = [row[:] for row in b]
            for _ in range(6):
                i, j = rng.sample(range(rows), 2)
                q = rng.randint(-3, 3)
                m[j] = [x + q * y for x, y in zip(m[j], m[i])]
                if cols == 1:
                    m = [[-row[0]] for row in m]
                    continue
                i, j = rng.sample(range(cols), 2)
                q = rng.randint(-3, 3)
                for r in range(rows):
                    m[r][j] += q * m[r][i]
            assert intlin.cokernel(m) == ref


def _cokernel_by_smith(b):
    f = smith_oracle(b).invariant_factors()
    return intlin.FgAbelianGroup(rank=len(b) - len(f), torsion=tuple(x for x in f if x >= 2))


def _narrow_matrices(rng):
    """Seeded matrices of one and two columns, of every rank, with zero rows and large entries."""
    for trial in range(300):
        cols = 1 + trial % 2
        rows = rng.randint(1, 7)
        hi = rng.choice((1, 9, 10**6))
        b = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            b[i] = [0] * cols  # zero rows, down to the zero matrix
        if cols == 2 and trial % 3 == 0:
            k = rng.randint(-3, 3)
            b = [[x, k * x] for x, _ in b]  # parallel columns
        yield b
    yield [[0, 0]]
    yield [[6, -4]]
    yield [[10**6], [-10**6]]
    yield [[2 * 10**6, 0], [0, 3 * 10**6], [10**6, 10**6]]
    yield [[0, 0], [0, 0], [0, 5]]
    yield [[3, 6], [-2, -4], [5, 10]]


def test_cokernel_of_narrow_matrices_matches_smith():
    # at most two columns, `cokernel` reads d1 = gcd of the entries and
    # d1 d2 = |det| of the Hermite basis of the row lattice, with no Smith form
    seen = set()
    for b in _narrow_matrices(random.Random(17)):
        want = _cokernel_by_smith(b)
        assert intlin.cokernel(b) == want, b
        seen.add((len(b[0]), len(b) - want.rank))
    assert seen == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert intlin.cokernel([]) == intlin.FgAbelianGroup(rank=0, torsion=())
    assert intlin.cokernel([], rows=3) == intlin.FgAbelianGroup(rank=3, torsion=())


def test_row_lattice_basis_is_lower_triangular():
    rng = random.Random(19)
    for _ in range(50):
        b = [[rng.randint(-10**6, 10**6) for _ in range(2)] for _ in range(rng.randint(2, 8))]
        (a, zero), (c, d) = intlin.row_lattice_basis(b)
        assert zero == 0 and a > 0 and d > 0
        # every row of B is in the span of the columns, and the covolumes
        # agree (d1 d2 of the Smith form), so the two lattices are equal
        for row in b:
            assert solve_integer([[a, 0], [c, d]], row) is not None
        d1, d2 = smith_oracle(b).invariant_factors()
        assert a * d == d1 * d2


def test_row_lattice_basis_matches_the_hermite_form_of_the_transpose():
    # one column reads its gcd and two columns take the pass of extended gcds;
    # either way the basis is the column Hermite form of B^T, pivots and all,
    # but for the lower left entry, reduced mod d
    shapes = set()
    for b in _narrow_matrices(random.Random(23)):
        got = intlin.row_lattice_basis(b)
        want = intlin.column_hermite(_transpose(b))[0]
        if len(b[0]) == 2 and len(want[0]) == 2:
            assert 0 <= got[1][0] < got[1][1], b
            want[1][0] %= want[1][1]
        assert got == want, b
        if len(b[0]) == 2:
            shapes.add("".join("a" if x > 0 else "0" if x == 0 else "-" for row in got for x in row))
    # [[a, 0], [c, d]], [[a], [c]], [[0], [d]] and [[], []], c of any sign at rank 1
    assert {"a00a", "a0aa", "aa", "a-", "a0", "0a", ""} <= shapes, shapes
    assert intlin.row_lattice_basis([]) == [[], []]


def test_kernel_basis_sum_zero_lattice():
    basis = kernel_basis([[1, 1, 1]])
    assert len(basis) == 2
    for col in basis:
        assert sum(col) == 0
    # saturation: the basis matrix has all invariant factors 1
    mat = [[col[i] for col in basis] for i in range(3)]
    assert smith_oracle(mat).invariant_factors() == [1, 1]


def test_kernel_of_invertible_is_empty():
    assert kernel_basis([[2, 1], [1, 1]]) == []


def test_kernel_random_annihilated_and_saturated():
    # the kernel's rank is the oracle's, cols - rank, and the basis matrix has
    # every invariant factor 1
    rng = random.Random(3)
    small = []
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        small.append([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
    for b in itertools.chain(small, _matrices(rng, 1), [CYCLING_T, _transpose(CYCLING_T)]):
        cols = len(b[0])
        basis = kernel_basis(b)
        assert len(basis) == cols - smith_oracle(b).rank(), b
        for col in basis:
            assert all(v == 0 for v in mat_vec(b, col))
        if basis:
            mat = [[col[i] for col in basis] for i in range(cols)]
            assert smith_oracle(mat).invariant_factors() == [1] * len(basis)
    for b in ([], [[]], [[], []]):
        assert kernel_basis(b) == []


def test_reduce_mod_image():
    # a column of B reduces to zero
    col = [row[0] for row in DIAMOND_B]
    assert intlin.reduce_mod_image(col, DIAMOND_B) == (0, 0, 0, 0)
    rng = random.Random(11)
    for _ in range(30):
        x = [rng.randint(-9, 9) for _ in range(4)]
        c = [rng.randint(-5, 5) for _ in range(2)]
        shift = mat_vec(DIAMOND_B, c)
        y = [a + b for a, b in zip(x, shift)]
        assert intlin.reduce_mod_image(x, DIAMOND_B) == intlin.reduce_mod_image(y, DIAMOND_B)


def test_reduce_mod_image_dimension_check():
    with pytest.raises(intlin.DimensionMismatch):
        intlin.reduce_mod_image([1, 2, 3], DIAMOND_B)


def test_solve_integer():
    assert solve_integer(DIAMOND_B, [-1, 1, 1, -1]) == [1, 0]
    assert solve_integer(DIAMOND_B, [1, 0, 0, 0]) is None
    # (0, -1, 0, 1) = B (-1/2, 1/2) has a rational solution only
    assert solve_integer(DIAMOND_B, [0, -1, 0, 1]) is None
    # a tall system: the row past the column count must be checked too
    assert solve_integer([[2], [4]], [2, 4]) == [1]
    assert solve_integer([[2], [4]], [2, 3]) is None
    assert solve_integer([[2], [4]], [1, 2]) is None
    assert solve_integer([[0], [0]], [0, 1]) is None
    with pytest.raises(intlin.DimensionMismatch):
        solve_integer(DIAMOND_B, [1, 0])
    # matrices with no columns, and with no rows
    assert solve_integer([], []) == []
    assert solve_integer([[]], [0]) == []
    assert solve_integer([[]], [1]) is None
    assert solve_integer([[], []], [0, 0]) == []
    assert solve_integer([[], []], [0, -2]) is None
    for b, y in (([], [1]), ([[]], []), ([[], []], [0])):
        with pytest.raises(intlin.DimensionMismatch):
            solve_integer(b, y)


def test_solve_integer_random_tall_systems():
    # consistent right-hand sides B x, and perturbed ones whose solvability is
    # the oracle's: the pivoting Smith form, which shares no code with the
    # Hermite forms
    rng = random.Random(17)
    tall = []
    for _ in range(200):
        cols = rng.randint(1, 3)
        rows = rng.randint(cols + 1, 5)
        tall.append([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
    misses = 0
    for b in itertools.chain(tall, _matrices(rng, 1), [CYCLING_T, _transpose(CYCLING_T)]):
        rows, cols = len(b), len(b[0])
        y = mat_vec(b, [rng.randint(-5, 5) for _ in range(cols)])
        x = solve_integer(b, y)
        assert x is not None and mat_vec(b, x) == y
        y[rng.randrange(rows)] += rng.randint(1, 3)
        x = solve_integer(b, y)
        assert (x is not None) == (smith_oracle(b).solve(y) is not None), (b, y)
        assert (x is not None) == (not any(intlin.reduce_mod_image(y, b)))
        if x is None:
            misses += 1
        else:
            assert mat_vec(b, x) == y
    assert misses >= 100


def _det_by_permutations(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_det_matches_permutation_expansion():
    rng = random.Random(13)
    for n in range(6):
        for _ in range(25):
            # sparse entries force zero pivots and row swaps; some draws are singular
            a = [[rng.choice((0, 0, 0, rng.randint(-50, 50))) for _ in range(n)] for _ in range(n)]
            assert _det(a) == _det_by_permutations(a)
