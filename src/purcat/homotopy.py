"""Homotopy-category layer.

Hom groups up to homotopy as finitely presented modules, null-homotopy
and contraction solvers, and derived hom into a complex of pure
injectives.

contract_complex certifies every resolution and decides every Pure
verdict.  It solves one degree at a time from the top down, one
solve_linear per invariant factor of each term, and its docstring proves
that it returns None exactly when the complex is not contractible.
null_homotopy decides d s + s d = f for any chain map f as one joint
MapSolver system over all degrees.  No command calls it, and it is the
only place the package builds a MapSolver; it stays because the traced
bench wraps it by name (bench/spans.py).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Optional

from purcat.exact_linalg import IntMatrix, Record, _set, from_columns, solve_linear
from purcat.fpmod import FpModule, MapSolver, ModuleMap, zero_map
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Homotopy,
    hom_complex,
    homology_data,
    zero_homotopy,
)


# ---------------------------------------------------------------------------
# hom up to homotopy


class KHomGroup(Record):
    """Chain maps source -> target modulo homotopy, as an f.p. module.

    module presents the group as the homology of hom in degree 0:
    cycle_incl includes the degree 0 cocycles into the hom complex and
    class_proj sends them onto their classes.
    """

    __slots__ = ("source", "target", "hom", "module", "cycle_incl", "class_proj")

    def __init__(self, source: Complex, target: Complex, hom: HomComplex, module: FpModule,
                 cycle_incl: ModuleMap, class_proj: ModuleMap) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "hom", hom)
        _set(self, "module", module)
        _set(self, "cycle_incl", cycle_incl)
        _set(self, "class_proj", class_proj)

    @property
    def invariant_factors(self) -> tuple:
        return self.module.invariant_factors

    def is_zero(self) -> bool:
        return self.module.is_zero()


@lru_cache(maxsize=256)
def hom_k(a: Complex, b: Complex) -> KHomGroup:
    """Hom in the homotopy category, presented as an f.p. module.

    Memoized: the adjunction checks ask for the same hom group along
    several different comparison routes.
    """
    hc = hom_complex(a, b)
    h, incl, proj = homology_data(hc.complex, 0)
    return KHomGroup(a, b, hc, h, incl, proj)


# ---------------------------------------------------------------------------
# homotopy solvers


def null_homotopy(f: ChainMap) -> Optional[Homotopy]:
    """A homotopy s with d s + s d = f, or None.

    Decided as one linear system over all degrees at once, so a partial
    greedy choice in low degrees can never block a valid completion.
    """
    src, tgt = f.src, f.tgt
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    solver = MapSolver(src.ring)
    for i in range(lo, hi + 2):
        solver.add_map_unknown(("s", i), src.module(i), tgt.module(i - 1))
    for i in range(lo, hi + 1):
        a = src.module(i)
        b = tgt.module(i)
        solver.add_equation(
            [
                (tgt.differential(i - 1).matrix, ("s", i), IntMatrix.identity(a.generators)),
                (IntMatrix.identity(b.generators), ("s", i + 1), src.differential(i).matrix),
            ],
            f.component(i),
        )
    sol = solver.solve()
    if sol is None:
        return None
    comps = tuple(sol[("s", i)] for i in range(lo, hi + 2))
    return Homotopy(src, tgt, lo, comps)


def contract_complex(cx: Complex) -> Optional[Homotopy]:
    """A contracting homotopy h (d h + h d = id), or None.

    Built from the top degree down, starting at h^(hi+1) = 0.  In degree
    n put e_n = id - h^(n+1) d^n on C^n and solve d^(n-1) h^n = e_n; then
    d h^n + h^(n+1) d^n = id.

    - d^n e_n = 0: the equation of degree n + 1 gives d^n h^(n+1) =
      e_(n+1), so d^n e_n = d^n - (id - h^(n+2) d^(n+1)) d^n =
      h^(n+2) d^(n+1) d^n = 0 (at n = hi, d^n = 0).  So e_n lands in Z^n.
    - If cx is contractible it is split exact: Z^n = B^n and d^(n-1) has
      a section s: B^n -> C^(n-1), so h^n = s e_n solves degree n,
      whatever was chosen above it.  So a solve fails only when cx is not
      contractible, and when every solve succeeds h contracts: None is
      returned exactly when cx is not contractible.

    Each degree is solved in the Smith coordinates of both terms, with no
    kernel: T rel_n V = diag(c_j) and F = T^-1 (decomposition), and p_i,
    F' likewise for C^(n-1).  Write h^n = F' Y T.  F is invertible, so
    d h^n = e_n mod rel_n iff d F' y_j = e_n F e_j mod rel_n for every
    column y_j of Y.  h^n is well defined iff T' h^n rel_n = Y diag(c) V^-1
    has row i in p_i R, that is c_j y_ij in p_i R, that is y_ij in q R
    with q = p_i / gcd(p_i, c_j) (1 for a free c_j; 0 over Z for
    p_i = 0 < c_j).  Where p_i = 1, F' e_i is a relation, and y_ij = 0
    moves d h^n by a relation of C^n only.  So the columns with one
    factor c share one solve_linear of [d F' diag(q) | rel_n] over the i
    with p_i != 1 and q != 0, which is solvable iff degree n is; columns
    with c_j = 1 are zero.  At n = lo, C^(lo-1) = 0 and the one test is
    whether e_lo lies in the relations.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    ring = cx.ring
    free = ring.modulus or 0
    comps = []
    for n in range(cx.hi, cx.lo - 1, -1):
        term, below = cx.module(n), cx.module(n - 1)
        g = term.generators
        e = IntMatrix.identity(g)
        if comps:
            e = ring.reduce_matrix(e - comps[-1].matrix @ cx.differential(n).matrix)
        if n == cx.lo:
            if not term.contains_in_relations(e):
                return None
            comps.append(zero_map(term, below))
            break
        dec, dec_below = term.decomposition(), below.decomposition()
        rhs = ring.reduce_matrix(e @ dec.from_diag)
        d_diag = ring.reduce_matrix(cx.differential(n - 1).matrix @ dec_below.from_diag)
        by_factor: dict = {}
        for j, c in enumerate(dec.factors):
            if c != 1:
                by_factor.setdefault(c, []).append(j)
        y = [[0] * g for _ in range(below.generators)]
        for c, cols in by_factor.items():
            scaled = [(i, 1 if c == free else p // gcd(p, c))
                      for i, p in enumerate(dec_below.factors) if p != 1]
            scaled = [(i, q) for i, q in scaled if q]
            a = IntMatrix._trusted(g, len(scaled) + term.relations.cols, tuple(
                tuple(row[i] * q for i, q in scaled) + rel
                for row, rel in zip(d_diag.data, term.relations.data)))
            sol = solve_linear(a, from_columns([rhs.column(j) for j in cols], g), ring)
            if sol is None:
                return None
            for t, (i, q) in enumerate(scaled):
                for k, j in enumerate(cols):
                    y[i][j] = q * sol.data[t][k]
        y_mat = IntMatrix._trusted(below.generators, g, tuple(map(tuple, y)))
        comps.append(ModuleMap(term, below, ring.reduce_matrix(
            dec_below.from_diag @ y_mat @ dec.to_diag)))
    return Homotopy(cx, cx, cx.lo, tuple(reversed(comps)))


# ---------------------------------------------------------------------------
# derived hom into pure injectives


def hom_dpur(a: Complex, b: Complex) -> KHomGroup:
    """Hom in the pure derived category, for b in scope: hom_k(a, b).

    Every term of b must be pure injective (resolutions.termwise_ok, read
    off the terms); otherwise UnsupportedRing is raised before any hom is
    computed.  A bounded complex of pure injectives is K-pure injective,
    so b stands as its own resolution and the derived hom is hom_k.
    """
    from purcat.resolutions import _require_injective_scope

    _require_injective_scope(b)
    return hom_k(a, b)
