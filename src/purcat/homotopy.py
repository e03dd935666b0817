"""Homotopy-category layer.

Hom groups up to homotopy as finitely presented modules, null-homotopy
and contraction solvers, and derived hom into a complex of pure
injectives.

The two solvers differ in shape.  null_homotopy decides d s + s d = f as
one joint MapSolver system over all degrees.  contract_complex, which
certifies every resolution, builds no joint system: per degree it takes
a retraction onto the cycles (fpmod.retraction, one solve_linear per
distinct invariant factor) and a section of the differential through
one injective map (factor_through_mono, one solve_linear), and its
docstring proves that this returns None exactly when the complex is not
contractible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from purcat.exact_linalg import IntMatrix, InputError, WorkbenchError
from purcat.fpmod import (
    FpModule,
    MapSolver,
    ModuleMap,
    block_map,
    element_preimage,
    factor_through_mono,
    kernel,
    retraction,
    sum_module,
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

    Built degreewise from two maps found by direct solves, with
    Z^n = ker d^n and incl_n: Z^n -> C^n:

    - a retraction rho_n: C^n -> Z^n with rho_n . incl_n = id
      (fpmod.retraction, row by row in the Smith coordinates of Z^n);
    - a section sigma_n: Z^(n+1) -> C^n with d^n . sigma_n = incl_(n+1)
      and rho_n . sigma_n = 0, which is factor_through_mono of
      (0; incl_(n+1)) through mu_n = (rho_n; d^n): C^n -> Z^n (+) C^(n+1).
      For n = lo - 1, where C^n = 0, mu_n is d^n out of the zero module.

    mu_n is injective: its kernel is ker rho_n meet ker d^n = ker rho_n
    meet Z^n, and rho_n is the identity on Z^n.  So the column solve of
    factor_through_mono decides the factoring exactly and its
    well-definedness check always passes: mu_n . X . rel = (0; incl) . rel
    vanishes, so X . rel lies in ker mu_n = 0.

    Then h^n = sigma_(n-1) . rho_n contracts: for x in C^n put
    y = x - incl rho_n x, which lies in ker rho_n with d y = d x.
    sigma_n d x lies in ker rho_n and has boundary d y, so
    sigma_n d x - y lies in ker rho_n meet Z^n = 0, and
    d h x + h d x = incl rho_n x + sigma_n d x = x.

    None is returned exactly when cx is not contractible.  If cx is
    contractible with contraction h, then d^(n-1) h^n is a retraction
    onto Z^n, so every retraction solve succeeds; and cx is exact, so d
    restricted to ker rho_n is onto Z^(n+1) for any retraction rho_n
    (z = d x gives z = d (x - incl rho_n x)), so every section solve
    succeeds too and no choice needs backtracking.  Conversely, when
    every solve succeeds the h above is a contraction.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    kernels = {n: kernel(cx.differential(n)) for n in range(cx.lo, cx.hi + 2)}
    rhos = {}
    sigmas = {}
    for n in range(cx.lo - 1, cx.hi + 1):
        z1, incl1 = kernels[n + 1]
        if n < cx.lo:
            mono, want = cx.differential(n), incl1
        else:
            z, incl = kernels[n]
            rho = retraction(incl)
            if rho is None:
                return None
            rhos[n] = rho
            top = z.generators
            total = sum_module([z, cx.module(n + 1)])
            mono = block_map(cx.module(n), total,
                             [(0, 0, 1, rho.matrix), (top, 0, 1, cx.differential(n).matrix)])
            want = block_map(z1, total, [(top, 0, 1, incl1.matrix)])
        try:
            sigmas[n] = factor_through_mono(mono, want)
        except WorkbenchError:
            return None
    comps = tuple(sigmas[n - 1] @ rhos[n] for n in range(cx.lo, cx.hi + 1))
    return Homotopy(cx, cx, cx.lo, comps)


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
