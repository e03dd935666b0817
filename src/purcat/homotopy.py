"""Homotopy-category layer.

Hom groups up to homotopy as finitely presented modules, the
null-homotopy solver, the contraction and the derived hom hom_dpur, which
is hom_k for every bounded pair.

contract_complex decides every Pure verdict.  It solves nothing: it
returns the homotopy of complexes.reduce_complex, which is complete on
contractible complexes (its docstring has the proof), when the reduced
complex is zero, and None otherwise.  No resolution calls it, since
each writes its contraction down from the same homotopy
(resolutions.resolve).
null_homotopy decides d s + s d = f for any chain map f as one joint
MapSolver system over all degrees.  No command calls it; it stays
because the traced bench wraps it by name (bench/spans.py).  The only
other MapSolver the package builds is fpmod.has_retraction's.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from purcat.exact_linalg import IntMatrix, Record, _set
from purcat.fpmod import FpModule, MapSolver
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Homotopy,
    hom_complex,
    homology,
    reduce_complex,
)


# ---------------------------------------------------------------------------
# hom up to homotopy


class KHomGroup(Record):
    """Chain maps source -> target modulo homotopy, as an f.p. module.

    module presents the group as the homology of hom in degree 0.
    """

    __slots__ = ("source", "target", "hom", "module")

    def __init__(self, source: Complex, target: Complex, hom: HomComplex,
                 module: FpModule) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "hom", hom)
        _set(self, "module", module)

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
    return KHomGroup(a, b, hc, homology(hc.complex, 0))


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

    reduce_complex(cx) is complete on contractible complexes, so its
    reduced complex has no generators exactly when cx is contractible,
    and then its homotopy s contracts cx: id - back . to = d s + s d and
    back . to factors through zero.  Nothing is solved.
    """
    reduced, _, _, s = reduce_complex(cx)
    return None if any(mod.generators for mod in reduced.modules) else s


# ---------------------------------------------------------------------------
# derived hom


def hom_dpur(a: Complex, b: Complex) -> KHomGroup:
    """Hom in the pure derived category: hom_k(a, b), for any bounded b.

    The terms of a are finitely presented, so pure projective, and a
    bounded complex of pure projectives is K-pure projective
    (resolutions.resolve, step (3)): Hom_K(a, A) = 0 for A pure acyclic.
    A morphism a -> b of the pure derived category is a fraction s^-1 f,
    f: a -> b' and s: b -> b' in K with cone A pure acyclic, so the group
    is the colimit of Hom_K(a, b') over such s (Verdier).  The triangle
    b -> b' -> A gives the exact Hom_K(a, A[-1]) -> Hom_K(a, b) ->
    Hom_K(a, b') -> Hom_K(a, A), whose ends vanish, so every s_* is an
    isomorphism and the group is Hom_K(a, b), whatever b's terms.  b is
    not resolved; in the injective scope resolve(b, "injective") is
    homotopy equivalent to b, so the group is H^0 of phom's value.
    """
    return hom_k(a, b)
