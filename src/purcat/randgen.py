"""Seeded random generators for modules, maps and complexes.

Sampling is uniform over structures, not over matrices: maps are drawn
through hom coordinates so every homomorphism is reachable, and
complexes are built by factoring each new differential through the
cokernel of the previous one so every bounded complex shape can occur.
All generators take an explicit random.Random instance.
"""

from __future__ import annotations

import random
from typing import Optional

from purcat.exact_linalg import IntMatrix, Ring
from purcat.fpmod import (
    FpModule,
    ModuleMap,
    cokernel,
    hom_modules,
    kernel,
    make_module,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    cone,
    direct_sum_complexes,
    hom_complex,
    identity_chain_map,
    module_complex,
    zero_chain_map,
    zero_complex,
)


def random_module(rng: random.Random, ring: Ring, max_gens: int = 2,
                  max_rels: int = 2, entry_bound: int = 9) -> FpModule:
    g = rng.randint(0, max_gens)
    r = rng.randint(0, max_rels)
    if g and r:
        rel = IntMatrix.from_rows(
            [[rng.randint(-entry_bound, entry_bound) for _ in range(r)]
             for _ in range(g)])
    else:
        rel = IntMatrix.zeros(g, r)
    return make_module(ring, g, rel)


def random_map(rng: random.Random, src: FpModule, tgt: FpModule,
               free_bound: int = 4) -> ModuleMap:
    """A uniformly chosen homomorphism (free coordinates bounded)."""
    hom = hom_modules(src, tgt)
    coords = []
    for slot in hom.slots:
        m = src.ring.modulus
        if m is None and slot.order == 0:
            coords.append(rng.randint(-free_bound, free_bound))
        else:
            coords.append(rng.randint(0, slot.order - 1))
    return hom.to_map(coords)


def random_complex(rng: random.Random, ring: Ring, lo: int, length: int,
                   max_gens: int = 2, max_rels: int = 2) -> Complex:
    """A complex on the window [lo, lo + length - 1].

    Each differential is a random map out of the cokernel of the
    previous one, composed with the projection; that satisfies d.d = 0
    and reaches every complex with the given support.
    """
    if length <= 0:
        return zero_complex(ring)
    mods = [random_module(rng, ring, max_gens, max_rels) for _ in range(length)]
    diffs = []
    prev: Optional[ModuleMap] = None
    for k in range(length - 1):
        if prev is None:
            d = random_map(rng, mods[k], mods[k + 1])
        else:
            c, proj = cokernel(prev)
            d = random_map(rng, c, mods[k + 1]) @ proj
        diffs.append(d)
        prev = d
    return Complex(ring, lo, tuple(mods), tuple(diffs))


def random_homotopy(rng: random.Random, src: Complex, tgt: Complex) -> Homotopy:
    """Degreewise random maps h^i: src^i -> tgt^(i-1)."""
    comps = []
    for i in range(src.lo, src.hi + 1):
        a = src.module(i)
        b = tgt.module(i - 1)
        if a.generators and b.generators:
            comps.append(random_map(rng, a, b))
        else:
            comps.append(zero_map(a, b))
    return Homotopy(src, tgt, src.lo, tuple(comps))


def random_contractible(rng: random.Random, ring: Ring, pieces: int = 2,
                        lo: int = -1, hi: int = 1, max_gens: int = 2) -> Complex:
    """A direct sum of shifted cones of identity maps."""
    parts = []
    for _ in range(max(pieces, 1)):
        m = random_module(rng, ring, max_gens=max_gens)
        deg = rng.randint(lo, hi)
        parts.append(cone(identity_chain_map(module_complex(m, deg))).complex)
    return direct_sum_complexes(parts)[0]


def random_element(rng: random.Random, mod: FpModule, free_bound: int = 4) -> IntMatrix:
    """A generator-coordinate column for a uniformly chosen element."""
    dec = mod.decomposition()
    diag = []
    for a in dec.factors:
        if mod.ring.modulus is None and a == 0:
            diag.append(rng.randint(-free_bound, free_bound))
        else:
            diag.append(rng.randint(0, a - 1))
    col = dec.from_diag @ IntMatrix.column_vector(diag)
    return mod.ring.reduce_matrix(col)


def random_chain_map(rng: random.Random, src: Complex, tgt: Complex) -> ChainMap:
    """A uniformly chosen chain map src -> tgt.

    Drawn as a random element of the cocycles in degree zero of the hom
    complex, so every chain map is reachable, not only the ones of the
    form d h + h d.
    """
    hc = hom_complex(src, tgt)
    h0 = hc.complex.module(0)
    if h0.generators == 0:
        return zero_chain_map(src, tgt)
    kmod, incl = kernel(hc.complex.differential(0))
    if kmod.generators == 0:
        return zero_chain_map(src, tgt)
    col = incl.matrix @ random_element(rng, kmod)
    fam = hc.element_components(0, src.ring.reduce_matrix(col))
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        comps.append(fam.get(i, zero_map(src.module(i), tgt.module(i))))
    return ChainMap(src, tgt, lo, tuple(comps))


def random_pure_acyclic(rng: random.Random, ring: Ring, lo: int = -1,
                        hi: int = 1, max_gens: int = 2) -> Complex:
    """A contractible complex that is not a bare sum of identity cones.

    The cone of any chain map between contractible complexes is again
    contractible.
    """
    a = random_contractible(rng, ring, pieces=1, lo=lo, hi=hi, max_gens=max_gens)
    b = random_contractible(rng, ring, pieces=1, lo=lo, hi=hi, max_gens=max_gens)
    return cone(random_chain_map(rng, a, b)).complex


def random_pure_qis(rng: random.Random, src: Complex, pieces: int = 1,
                    perturb: bool = True) -> ChainMap:
    """A pure quasi-isomorphism out of src.

    The inclusion src -> src (+) contractible has contractible cone;
    adding the boundary of a random homotopy keeps the homotopy class,
    hence keeps the cone contractible, while hiding the split shape.
    """
    ring = src.ring
    lo = src.lo if src.modules else 0
    hi = src.hi if src.modules else lo
    c = random_contractible(rng, ring, pieces=pieces, lo=lo, hi=hi)
    total, injs, _ = direct_sum_complexes([src, c])
    u = injs[0]
    if perturb:
        u = u + random_homotopy(rng, src, total).boundary()
    return u
