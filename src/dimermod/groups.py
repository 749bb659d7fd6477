"""Group computations attached to the polygon alone.

The intersection pairing on H_1 of the torus is fixed once and for all as

    pair(a, b) = a.y*b.x - a.x*b.y

and the homology embedding sends m to the function E_rho -> pair(E_rho, m),
with edges enumerated counterclockwise from the lex-smallest vertex.  This
orientation is the one that reproduces the worked 4-row matrix, the torsion
lattice basis ((1,0), (-1/2,1/2)) and the character-divisor values on the
square lattice exactly; the opposite orientation would negate the matrix and
leave every quotient group unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import intlin
from .polygon import (
    ConvexIntegralPolygon,
    NoInteriorPoint,
    genus,
    polygon_from_edge_vectors,
)


def pair(a, b):
    """Intersection pairing on H_1(T, Z); see the module docstring."""
    return a[1] * b[0] - a[0] * b[1]


def build_j(p):
    """The embedding j: H_1 -> Z^{E_N}_0 as |E_N| integer rows, row rho the pairings of E_rho with a basis.

    pair(E, (1, 0)) = E.y and pair(E, (0, 1)) = -E.x.
    """
    rows = [[y, -x] for x, y in p.sides]
    if any(sum(col) != 0 for col in zip(*rows)):
        raise AssertionError("image must lie in the sum-zero lattice")
    return rows


def ambient_quotient(p):
    """A = Z^{E_N} / j H_1, the unconstrained ambient quotient."""
    return intlin.cokernel(build_j(p))


def _sum_zero_cokernel(cols, n):
    """Z^n_0 / span(cols) for columns in the sum-zero lattice Z^n_0 of Z^n.

    Dropping the last coordinate maps Z^n_0 onto Z^{n-1} one to one, so this
    is the cokernel in Z^{n-1} of the columns without their last entries.
    """
    if any(sum(c) for c in cols):
        raise AssertionError("columns must lie in the sum-zero lattice")
    return intlin.cokernel([list(r) for r in zip(*cols)][:-1], rows=n - 1)


@dataclass(frozen=True)
class ClusterModularGroupResult:
    group: intlin.FgAbelianGroup
    genus: int
    case_tag: str

    def to_json(self):
        d = self.group.to_json()
        d["case"] = self.case_tag
        return d


def cluster_modular_group(p):
    """The group G_N of the polygon, split by the interior-point case.

    With an interior point, G_N is Z^n_0 / j H_1 (`_sum_zero_cokernel`).
    Without one it is Z^n_0 / D, D = {f in Z^n_0 : m_rho | f_rho for all
    rho}, m_rho = |E_rho| the side multiplicities, read in closed form: the
    invariant factors of diag(m_rho) with the least one, gcd(m), dropped.
    Proof: reducing each f_rho mod m_rho maps Z^n_0 onto the residue tuples
    t of M = Z/m_1 + ... + Z/m_n with sum t = 0 mod gcd(m), since moving a
    lift by m_rho moves its sum by a multiple of gcd(m), and the kernel of
    that map is D.  So G_N is the kernel of the sum map M -> Z/gcd(m).  At a
    prime p, let p^e be the least power of p in the m_rho, at side sigma.
    On p-parts the kernel is {t : sum t = 0 mod p^e}, whose projection onto
    the sides other than sigma is one to one and onto, since the sum fixes
    t_sigma mod p^e.  So it is M's p-part with one copy of Z/p^e dropped.
    The least invariant factor of diag(m), gcd(m), is the product of those
    least powers, and dropping it drops one least power at every prime.
    """
    g = genus(p)
    n = len(p.vertices)
    if g >= 1:
        group = _sum_zero_cokernel(list(zip(*build_j(p))), n)
        return ClusterModularGroupResult(group=group, genus=g, case_tag="interior_point")
    factors = intlin.diagonal_invariant_factors(p.multiplicities())[1:]
    group = intlin.FgAbelianGroup(rank=0, torsion=tuple(d for d in factors if d >= 2))
    return ClusterModularGroupResult(group=group, genus=g, case_tag="no_interior_point")


@dataclass(frozen=True)
class TorsionLattice:
    """Rank-2 lattice L in H_1(T, Q) containing H_1(T, Z).

    basis[0] is the vector on the x-axis, basis[1] carries the second pivot;
    both are exact rationals.
    """

    basis: tuple

    def index_over_standard(self):
        """Index [L : H_1(T, Z)], a positive integer."""
        q, (a, b, c, d) = _over_common_denominator((*self.basis[0], *self.basis[1]))
        det = abs(a * d - b * c)
        if (q * q) % det:
            raise AssertionError("[L : H_1(T, Z)] = %s is not an integer" % Fraction(q * q, det))
        return q * q // det

    def contains(self, v):
        q, (a, b, c, d, x, y) = _over_common_denominator((*self.basis[0], *self.basis[1], *v))
        det = a * d - b * c
        return (x * d - y * c) % det == 0 and (y * a - x * b) % det == 0

    def to_json(self):
        return {"basis": [[str(c) for c in v] for v in self.basis]}


def _over_common_denominator(values):
    """(q, [q x for x in values]) for ints and Fractions, q their least common denominator."""
    q = lcm(*(x.denominator for x in values))
    return q, [x.numerator * (q // x.denominator) for x in values]


def _canonical_lattice_basis(cols, den):
    """Canonical basis of the rational lattice spanned by two vectors col / den.

    The integer columns come upper triangular, ((a, 0), (b, c)) with a, c > 0,
    over one positive denominator.  Reducing b into the symmetric range
    [-a/2, a/2), ties to the negative side, makes the basis unique to the
    lattice.  This is the normalization under which the worked example yields
    ((1, 0), (-1/2, 1/2)).
    """
    (a, _), (b, c) = cols
    b = (b + a // 2) % a - a // 2
    return ((Fraction(a, den), Fraction(0)), (Fraction(b, den), Fraction(c, den)))


def torsion_lattice(p):
    """The lattice L with L / H_1(T, Z) isomorphic to the torsion of A.

    L is {x in Q^2 : j(x) integral}, the dual of the row lattice of j.  With
    H = ((a, 0), (c, d)) the Hermite basis of that row lattice
    (`intlin.row_lattice_basis`, one basis vector per column, a, d > 0), the
    dual basis is (d, 0) / ad and (-c, a) / ad, the rows of adj(H) over
    det H.  As columns they are already upper triangular, so only the
    off-diagonal entry is left to reduce.
    """
    if genus(p) < 1:
        raise NoInteriorPoint("torsion lattice needs an interior lattice point")
    (a, _), (c, d) = intlin.row_lattice_basis(build_j(p))
    lat = TorsionLattice(basis=_canonical_lattice_basis(((d, 0), (-c, a)), a * d))
    if not (lat.contains((1, 0)) and lat.contains((0, 1))):
        raise AssertionError("torsion lattice does not contain H_1(T, Z)")
    return lat


@dataclass(frozen=True)
class MaxTranslationPolygon:
    polygon: ConvexIntegralPolygon
    w_rows: tuple
    basis: tuple

    def to_json(self):
        return {
            "polygon": self.polygon.to_json(),
            "w_rows": [list(r) for r in self.w_rows],
            "basis": [[str(c) for c in v] for v in self.basis],
        }


def max_translation_polygon(p, basis=None):
    """The polygon of the maximally translation invariant graphs, in L-coordinates.

    w_rho = <j(g2), e_rho> g1 - <j(g1), e_rho> g2 for the chosen basis (g1, g2)
    of L; the rows are returned alongside the assembled polygon.
    """
    if basis is None:
        basis = torsion_lattice(p).basis
    q, (x1, y1, x2, y2) = _over_common_denominator((*basis[0], *basis[1]))
    rows = build_j(p)
    imgs = []
    for x, y in ((x1, y1), (x2, y2)):
        img = [r0 * x + r1 * y for r0, r1 in rows]
        if any(c % q for c in img):
            raise AssertionError("j(basis) must be integral")
        imgs.append([c // q for c in img])
    j1, j2 = imgs
    w_rows = tuple((j2[r], -j1[r]) for r in range(len(rows)))
    if any(sum(col) != 0 for col in zip(*w_rows)):
        raise AssertionError("w rows must sum to zero")
    poly = polygon_from_edge_vectors(w_rows)
    return MaxTranslationPolygon(polygon=poly, w_rows=w_rows, basis=tuple(basis))


@dataclass(frozen=True)
class Pic0Presentation:
    group: intlin.FgAbelianGroup
    generators: tuple

    def to_json(self):
        d = self.group.to_json()
        d["generators"] = list(self.generators)
        return d


def pic0_stack_presentation(p):
    """Pic^0 of the toric stack, presented on the fractional toric divisors.

    The generator labeled L_rho stands for O(D_rho / |E_rho|); the relation
    lattice is spanned by the divisors of characters, whose coordinate rows
    are |E_rho| u_rho paired against the basis of H_1.  The resulting group is
    asserted to agree with cluster_modular_group; the agreement is the whole
    content of the stacky Picard description of this group.
    """
    if genus(p) < 1:
        raise NoInteriorPoint("stack presentation follows the interior-point case")
    data = p.edge_data()
    rows = []
    for d in data:
        scaled = (d.multiplicity * d.inward_normal[0], d.multiplicity * d.inward_normal[1])
        rows.append([pair(scaled, (1, 0)), pair(scaled, (0, 1))])
    group = _sum_zero_cokernel(list(zip(*rows)), len(rows))
    ref = cluster_modular_group(p)
    if group != ref.group:
        raise AssertionError(
            "stack presentation %s disagrees with the cluster group %s" % (group, ref.group)
        )
    gens = tuple("L_%d" % d.index for d in data)
    return Pic0Presentation(group=group, generators=gens)
