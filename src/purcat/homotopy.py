"""Homotopy-category layer.

Hom groups up to homotopy as finitely presented modules, null-homotopy
and contraction solvers, and derived hom via resolution replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from purcat.exact_linalg import IntMatrix, InputError
from purcat.fpmod import (
    FpModule,
    MapSolver,
    ModuleMap,
    element_preimage,
    identity_map,
    kernel,
    zero_map,
)
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


@dataclass(frozen=True)
class KHomGroup:
    """Chain maps source -> target modulo homotopy, as an f.p. module.

    module presents the group; to_chain_map picks a representative
    cocycle for a class and from_chain_map sends a chain map to its
    class coordinates.
    """

    source: Complex
    target: Complex
    hom: HomComplex
    module: FpModule
    cycle_incl: ModuleMap
    class_proj: ModuleMap

    @property
    def invariant_factors(self) -> tuple:
        return self.module.invariant_factors

    def is_zero(self) -> bool:
        return self.module.is_zero()

    def to_chain_map(self, coords) -> ChainMap:
        if isinstance(coords, IntMatrix):
            col = coords
        else:
            col = IntMatrix.column_vector(list(coords))
        z = element_preimage(self.class_proj, col)
        if z is None:
            raise InputError("coordinates do not name a homotopy class")
        ring = self.source.ring
        cocycle = ring.reduce_matrix(self.cycle_incl.matrix @ z)
        fam = self.hom.element_components(0, cocycle)
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        comps = [
            fam.get(i, zero_map(self.source.module(i), self.target.module(i)))
            for i in range(lo, hi + 1)
        ]
        return ChainMap(self.source, self.target, lo, tuple(comps))

    def from_chain_map(self, f: ChainMap) -> IntMatrix:
        if f.src != self.source or f.tgt != self.target:
            raise InputError("chain map endpoints do not match this hom group")
        fam = {j: f.component(j) for j, _, _, _ in self.hom.slots(0)}
        col = self.hom.components_element(0, fam)
        z = element_preimage(self.cycle_incl, col)
        if z is None:
            raise InputError("not a chain map: no representing cocycle")
        ring = self.source.ring
        return ring.reduce_matrix(self.class_proj.matrix @ z)


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
    """A contracting homotopy (boundary = identity), or None.

    Built degreewise: first a retraction onto each cycle module, then a
    section of the differential vanishing under that retraction.  Any
    valid retraction admits a section when the complex is contractible,
    so the degreewise choices never need backtracking, which keeps the
    linear systems small compared to one joint solve.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    kernels = {}
    for n in range(cx.lo, cx.hi + 2):
        kernels[n] = kernel(cx.differential(n))
    rhos = {}
    for n in range(cx.lo, cx.hi + 1):
        z, incl = kernels[n]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("r", cx.module(n), z)
        solver.add_equation(
            [(IntMatrix.identity(z.generators), "r", incl.matrix)], identity_map(z)
        )
        sol = solver.solve()
        if sol is None:
            return None
        rhos[n] = sol["r"]
    sigmas = {}
    for n in range(cx.lo - 1, cx.hi + 1):
        z1, incl1 = kernels[n + 1]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("s", z1, cx.module(n))
        solver.add_equation(
            [(cx.differential(n).matrix, "s", IntMatrix.identity(z1.generators))], incl1
        )
        if n >= cx.lo:
            solver.add_equation(
                [(rhos[n].matrix, "s", IntMatrix.identity(z1.generators))],
                zero_map(z1, kernels[n][0]),
            )
        sol = solver.solve()
        if sol is None:
            return None
        sigmas[n] = sol["s"]
    comps = tuple(sigmas[n - 1] @ rhos[n] for n in range(cx.lo, cx.hi + 1))
    return Homotopy(cx, cx, cx.lo, comps)


# ---------------------------------------------------------------------------
# derived hom via resolution replacement


def hom_dpur(a: Complex, b: Complex, depth: Optional[int] = None) -> KHomGroup:
    """Hom in the pure derived category: hom_k against a resolution.

    The target is replaced by a certified pure injective resolution.  With
    no depth given and every term of b pure injective (resolutions.termwise_ok,
    read off the terms), b stands as its own resolution; otherwise resolve
    builds one, through the depth-gated tower when a depth is given, and
    a b out of scope raises UnsupportedRing there before any hom is
    computed.
    """
    from purcat.resolutions import INJECTIVE, resolve, termwise_ok

    if depth is None and all(termwise_ok(INJECTIVE, b)):
        return hom_k(a, b)
    return hom_k(a, resolve(b, INJECTIVE, depth=depth).target)
