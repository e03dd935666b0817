"""Bounded cochain complexes and chain maps.

A complex stores a contiguous window of modules starting at degree
`lo`; everything outside the window is the zero module.  Differentials
raise degree by one.  Chain maps likewise store a window of components
and are zero elsewhere.  Conventions fixed here and relied on
everywhere else:

  * shift: (C[n])^i = C^(i+n) with differential (-1)^n d^(i+n); the
    degreewise identity is a chain map C[n] -> C[n] without signs.
  * cone of f: M -> N: degree i part M^(i+1) (+) N^i, differential
    (m, x) |-> (-d m, f m + d x); N includes without signs, the cone
    projects onto M[1] without signs.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    Record,
    Ring,
    _set,
    hstack,
    quotient_order,
    smith_normal_form,
)
from purcat.fpmod import (
    FpModule,
    ModuleMap,
    block_map,
    canonical_form,
    cokernel,
    diagonal_module,
    direct_sum,
    factor_through_mono,
    hom_modules,
    hom_post,
    hom_pre,
    identity_map,
    kernel,
    lincomb_in_relations,
    make_map,
    sum_module,
    summand_injection,
    summand_projection,
    tensor_modules,
    zero_map,
    zero_module,
)


class Complex(Record):
    __slots__ = ("ring", "lo", "modules", "diffs")

    def __init__(self, ring: Ring, lo: int, modules: tuple, diffs: tuple) -> None:
        if len(diffs) != max(len(modules) - 1, 0):
            raise InputError("complex needs one differential per adjacent pair")
        _set(self, "ring", ring)
        _set(self, "lo", lo)
        _set(self, "modules", modules)
        _set(self, "diffs", diffs)

    # Record's == and hash, spelt out as IntMatrix's are
    def __eq__(self, other) -> bool:
        if other.__class__ is not Complex:
            return NotImplemented
        return self is other or (self.lo == other.lo and self.ring == other.ring
                                 and self.modules == other.modules and self.diffs == other.diffs)

    def __hash__(self) -> int:
        return hash((self.ring, self.lo, self.modules, self.diffs))

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def module(self, i: int) -> FpModule:
        """The term in degree i; outside the window, the ring's one shared
        zero module."""
        if self.lo <= i <= self.hi:
            return self.modules[i - self.lo]
        return zero_module(self.ring)

    def differential(self, i: int) -> ModuleMap:
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return zero_map(self.module(i), self.module(i + 1))

    def __str__(self) -> str:
        if not self.modules:
            return f"Complex({self.ring}, empty)"
        shape = ", ".join(f"{self.lo + k}:{m.invariant_factors}"
                          for k, m in enumerate(self.modules))
        return f"Complex({self.ring}, {shape})"


def zero_complex(ring: Ring) -> Complex:
    return Complex(ring, 0, (), ())


def module_complex(module: FpModule, degree: int = 0) -> Complex:
    return Complex(module.ring, degree, (module,), ())


def trim(cx: Complex) -> Complex:
    """Drop zero modules at both ends of the window."""
    mods = list(cx.modules)
    lo = cx.lo
    start = 0
    while start < len(mods) and mods[start].is_zero():
        start += 1
    end = len(mods)
    while end > start and mods[end - 1].is_zero():
        end -= 1
    if start == end:
        return zero_complex(cx.ring)
    return Complex(cx.ring, lo + start, tuple(mods[start:end]),
                   tuple(cx.diffs[start:end - 1]))


# ---------------------------------------------------------------------------
# chain maps


def _at(family, i: int) -> Optional[IntMatrix]:
    """The degree i matrix of a family of maps; None (zero) off its window."""
    k = i - family.lo
    return family.components[k].matrix if 0 <= k < len(family.components) else None


def _d(cx: Complex, i: int) -> Optional[IntMatrix]:
    """The matrix of d^i of cx; None, for zero, outside the window."""
    k = i - cx.lo
    return cx.diffs[k].matrix if 0 <= k < len(cx.diffs) else None


def vanishes(src: Complex, tgt: Complex, terms) -> bool:
    """Is a sum of chain maps or degreewise families src -> tgt zero?  A
    term is (c,), (c, f) or (c, f, g) as in lincomb_in_relations, which
    checks each degree; no composite or difference is formed."""
    for i in range(max(src.lo, tgt.lo), min(src.hi, tgt.hi) + 1):
        if not lincomb_in_relations(tgt.module(i), src.module(i).generators,
                                    [(c, *[_at(f, i) for f in fs]) for c, *fs in terms]):
            return False
    return True


class ChainMap(Record):
    # _cone caches the complex of cone(self); it is not a field
    __slots__ = ("src", "tgt", "lo", "components", "_cone")

    def __init__(self, src: Complex, tgt: Complex, lo: int, components: tuple) -> None:
        _set(self, "src", src)
        _set(self, "tgt", tgt)
        _set(self, "lo", lo)
        _set(self, "components", components)
        _set(self, "_cone", None)

    def component(self, i: int) -> ModuleMap:
        k = i - self.lo
        if 0 <= k < len(self.components):
            return self.components[k]
        return zero_map(self.src.module(i), self.tgt.module(i))

    def degrees(self) -> range:
        lo = min(self.src.lo, self.tgt.lo, self.lo)
        hi = max(self.src.hi, self.tgt.hi, self.lo + len(self.components) - 1)
        return range(lo, hi + 1)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        if other.tgt != self.src:
            raise InputError("chain maps are not composable")
        lo = min(self.src.lo, other.src.lo)
        hi = max(self.src.hi, other.src.hi)
        comps = tuple(self.component(i) @ other.component(i) for i in range(lo, hi + 1))
        return ChainMap(other.src, self.tgt, lo, comps)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.src != other.src or self.tgt != other.tgt:
            raise InputError("chain map shape mismatch")
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.components), other.lo + len(other.components)) - 1
        comps = tuple(self.component(i) + other.component(i) for i in range(lo, hi + 1))
        return ChainMap(self.src, self.tgt, lo, comps)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.src, self.tgt, self.lo,
                        tuple(-c for c in self.components))

    def equals(self, other: "ChainMap") -> bool:
        return (self.src == other.src and self.tgt == other.tgt
                and vanishes(self.src, self.tgt, ((1, self), (-1, other))))

    def is_chain_map(self) -> bool:
        """d f = f d in every degree, one lincomb_in_relations each."""
        src, tgt = self.src, self.tgt
        for i in range(min(src.lo, tgt.lo) - 1, max(src.hi, tgt.hi) + 1):
            if not lincomb_in_relations(tgt.module(i + 1), src.module(i).generators, (
                    (1, _d(tgt, i), _at(self, i)), (-1, _at(self, i + 1), _d(src, i)))):
                return False
        return True


def identity_chain_map(cx: Complex) -> ChainMap:
    return ChainMap(cx, cx, cx.lo, tuple(identity_map(m) for m in cx.modules))


def zero_chain_map(src: Complex, tgt: Complex) -> ChainMap:
    return ChainMap(src, tgt, 0, ())


# ---------------------------------------------------------------------------
# shift


def shift(cx: Complex, n: int) -> Complex:
    """(C[n])^i = C^(i+n), differential scaled by (-1)^n."""
    if not cx.modules:
        return cx
    sign = -1 if n % 2 else 1
    diffs = tuple(d.scale(sign) for d in cx.diffs)
    return Complex(cx.ring, cx.lo - n, cx.modules, diffs)


def shift_map(f: ChainMap, n: int) -> ChainMap:
    """The degreewise components of f, viewed C[n] -> D[n]; no signs."""
    return ChainMap(shift(f.src, n), shift(f.tgt, n), f.lo - n, f.components)


# ---------------------------------------------------------------------------
# cones


class Cone(Record):
    """Cone of map: M -> N; its two structure chain maps are formed on read.

    complex is built by cone.  inclusion: N -> cone (degreewise
    second-summand injection) and projection: cone -> M[1] (degreewise
    first-summand projection) are placed from map and complex on each
    read; cone makes a fresh Cone per call, most callers read only
    complex, and none reads either map twice.
    """

    __slots__ = ("complex", "map")

    def __init__(self, complex: Complex, map: ChainMap) -> None:
        _set(self, "complex", complex)
        _set(self, "map", map)

    @property
    def inclusion(self) -> ChainMap:
        src, tgt, cx = self.map.src, self.map.tgt, self.complex
        if not cx.modules:
            return zero_chain_map(tgt, cx)
        return ChainMap(tgt, cx, cx.lo, tuple(
            summand_injection(tgt.module(i), cx.module(i), src.module(i + 1).generators)
            for i in range(cx.lo, cx.hi + 1)))

    @property
    def projection(self) -> ChainMap:
        src, cx = self.map.src, self.complex
        shifted = shift(src, 1)
        if not cx.modules:
            return zero_chain_map(cx, shifted)
        return ChainMap(cx, shifted, cx.lo, tuple(
            summand_projection(cx.module(i), src.module(i + 1), 0)
            for i in range(cx.lo, cx.hi + 1)))


def cone(f: ChainMap) -> Cone:
    """The cone of f, its complex built once per map.

    Degree i is sum_module([M^(i+1), N^i]) on the window where either
    summand can be nonzero, and each differential is placed block by
    block; the structure maps wait on the Cone until read.  The complex
    is kept on f, so a checker reuses the cone its producer certified.
    A ChainMap and all it holds are immutable, so the cone, a function
    of its fields, cannot go stale; the Cone, which refers back to f, is
    not kept.
    """
    if f._cone is None:
        _set(f, "_cone", _cone_complex(f))
    return Cone(f._cone, f)


def _cone_complex(f: ChainMap) -> Complex:
    src, tgt = f.src, f.tgt
    ring = src.ring
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    if hi < lo:
        return zero_complex(ring)
    mods = [sum_module([src.module(i + 1), tgt.module(i)]) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        ga, ga2 = src.module(i + 1).generators, src.module(i + 2).generators
        diffs.append(block_map(mods[i - lo], mods[i + 1 - lo], [
            (0, 0, -1, src.differential(i + 1).matrix),
            (ga2, 0, 1, f.component(i + 1).matrix),
            (ga2, ga, 1, tgt.differential(i).matrix),
        ]))
    return Complex(ring, lo, tuple(mods), tuple(diffs))


# ---------------------------------------------------------------------------
# direct sums of complexes


def direct_sum_complexes(cxs: Iterable[Complex]) -> tuple:
    cxs = list(cxs)
    if not cxs:
        raise InputError("direct_sum_complexes needs at least one summand")
    ring = cxs[0].ring
    if any(c.ring != ring for c in cxs):
        raise InputError("direct sum over mixed rings")
    nonempty = [c for c in cxs if c.modules]
    if not nonempty:
        zc = zero_complex(ring)
        return zc, [zero_chain_map(c, zc) for c in cxs], [zero_chain_map(zc, c) for c in cxs]
    lo = min(c.lo for c in nonempty)
    hi = max(c.hi for c in nonempty)
    sums = {i: direct_sum([c.module(i) for c in cxs]) for i in range(lo, hi + 1)}
    diffs = []
    for i in range(lo, hi):
        blocks = []
        r0 = c0 = 0
        for c in cxs:
            d = c.differential(i)
            blocks.append((r0, c0, 1, d.matrix))
            r0 += d.tgt.generators
            c0 += d.src.generators
        diffs.append(block_map(sums[i][0], sums[i + 1][0], blocks))
    total = Complex(ring, lo, tuple(sums[i][0] for i in range(lo, hi + 1)), tuple(diffs))
    injs = [ChainMap(c, total, lo, tuple(sums[i][1][k] for i in range(lo, hi + 1)))
            for k, c in enumerate(cxs)]
    projs = [ChainMap(total, c, lo, tuple(sums[i][2][k] for i in range(lo, hi + 1)))
             for k, c in enumerate(cxs)]
    return total, injs, projs


# ---------------------------------------------------------------------------
# truncation


def truncate_geq(cx: Complex, n: int) -> tuple:
    """Smart truncation keeping degrees >= n; returns (T, proj: C -> T).

    Degree n of T is coker(d^(n-1)), so homology at and above n is kept.
    """
    ring = cx.ring
    if n <= cx.lo:
        return cx, identity_chain_map(cx)
    if n > cx.hi:
        zc = zero_complex(ring)
        return zc, zero_chain_map(cx, zc)
    c0, proj0 = cokernel(cx.differential(n - 1))
    mods = [c0] + [cx.module(i) for i in range(n + 1, cx.hi + 1)]
    diffs = []
    if n < cx.hi:
        # induced map out of the cokernel reuses the matrix of d^n
        diffs.append(make_map(c0, cx.module(n + 1), cx.differential(n).matrix,
                              check=True))
        diffs.extend(cx.diffs[n + 1 - cx.lo:])
    t = Complex(ring, n, tuple(mods), tuple(diffs))
    comps = [proj0] + [identity_map(cx.module(i)) for i in range(n + 1, cx.hi + 1)]
    return t, ChainMap(cx, t, n, tuple(comps))


def truncate_leq(cx: Complex, n: int) -> tuple:
    """Smart truncation keeping degrees <= n; returns (T, incl: T -> C).

    Degree n of T is ker(d^n), so homology at and below n is kept.
    """
    ring = cx.ring
    if n >= cx.hi:
        return cx, identity_chain_map(cx)
    if n < cx.lo:
        zc = zero_complex(ring)
        return zc, zero_chain_map(zc, cx)
    kmod, incl0 = kernel(cx.differential(n))
    mods = [cx.module(i) for i in range(cx.lo, n)] + [kmod]
    diffs = list(cx.diffs[: max(n - 1 - cx.lo, 0)])
    if n > cx.lo:
        diffs.append(factor_through_mono(incl0, cx.differential(n - 1)))
    t = Complex(ring, cx.lo, tuple(mods), tuple(diffs))
    comps = [identity_map(cx.module(i)) for i in range(cx.lo, n)] + [incl0]
    return t, ChainMap(t, cx, cx.lo, tuple(comps))


# ---------------------------------------------------------------------------
# homology


def homology(cx: Complex, i: int) -> FpModule:
    """H^i = ker d^i / im d^(i-1), presented on the generators of ker d^i."""
    _, incl = kernel(cx.differential(i))
    return cokernel(factor_through_mono(incl, cx.differential(i - 1)))[0]


def smith_diagonals(cx: Complex) -> tuple:
    """(terms, images): the Smith diagonals that decide every probe of cx,
    one entry per row, 0 past the last column.

    terms[k] is the Smith diagonal of the relations of the k-th term of
    the window, read off its cached decomposition with the free factor m
    over Z/m read back as 0; reduce_complex reads the same decomposition,
    and a cyclic term is never eliminated.  images[k] is the diagonal of
    the memoized smith_normal_form of [rel_(k+1) | d^k], which presents
    coker d^k.  So each matrix is eliminated at most once; see
    homology_degrees.
    """
    ring = cx.ring
    m = ring.modulus
    terms = tuple(tuple(0 if d == m else d for d in mod.decomposition().factors)
                  for mod in cx.modules)
    images = tuple(smith_normal_form(hstack(d.tgt.relations, d.matrix), ring)._diag
                   for d in cx.diffs)
    return terms, images


def homology_degrees(cx: Complex, q: Optional[int] = None,
                     diagonals: Optional[tuple] = None) -> list:
    """The degrees of the window where cx (x) R/(q) has homology, ascending.

    q is an invariant factor: None, 0 over Z or m over Z/m is the free
    probe, for which cx (x) R is cx.  diagonals are smith_diagonals(cx),
    computed here when not given, so a caller probing many q reads them
    once.  No tensor complex is built.

    By right exactness, C^j (x) R/(q) and coker(d^j (x) R/(q)) are
    coker(A) (x) R/(q) for A the relations of C^j and [rel_(j+1) | d^j],
    and their orders are read off the Smith diagonals of those A by
    quotient_order.  In C^(i-1) -> C^i -> C^(i+1), im d^(i-1) lies in
    ker d^i, and |ker d^i| = |C^i| / |im d^i|; so the two are equal,
    which is H^i = 0, exactly when |C^i| = |im d^(i-1)| * |im d^i|.
    Each |im d^j| = |C^(j+1)| / |coker d^j| only needs C^(j+1) finite;
    the maps into C^lo and out of C^hi are zero, with image of order 1.
    Every order is finite except where the free probe meets a free term
    over Z; where C^i or C^(i+1) is infinite, H^i is computed and tested
    for zero instead.
    """
    ring = cx.ring
    if q is None:
        q = ring.modulus or 0
    terms, images = diagonals or smith_diagonals(cx)
    sizes = [quotient_order(diag, q) for diag in terms]
    image_sizes = [1]
    for k, diag in enumerate(images):
        size = sizes[k + 1]
        image_sizes.append(None if size is None else size // quotient_order(diag, q))
    image_sizes.append(1)
    out = []
    for k, size in enumerate(sizes):
        i = cx.lo + k
        if size is None or image_sizes[k + 1] is None:
            if not homology(cx, i).is_zero():
                out.append(i)
        elif size != image_sizes[k] * image_sizes[k + 1]:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# minimization


def minimize_complex(cx: Complex) -> tuple:
    """Replace every term by its minimal presentation.

    Returns (C', to: C -> C', back: C' -> C) with to . back the identity
    on the nose and back . to the identity modulo relations.  Only the
    terms change: no differential entry is cancelled, so a contractible
    summand R/(a) -> R/(a) stays; reduce_complex removes those.
    """
    if not cx.modules:
        ident = identity_chain_map(cx)
        return cx, ident, ident
    forms = [canonical_form(m) for m in cx.modules]
    mods = tuple(f[0] for f in forms)
    diffs = []
    for k in range(len(cx.modules) - 1):
        to_next = forms[k + 1][1]
        back_here = forms[k][2]
        diffs.append(to_next @ cx.diffs[k] @ back_here)
    mini = Complex(cx.ring, cx.lo, mods, tuple(diffs))
    to = ChainMap(cx, mini, cx.lo, tuple(f[1] for f in forms))
    back = ChainMap(mini, cx, cx.lo, tuple(f[2] for f in forms))
    return mini, to, back


def _is_unit(c: int, a: int) -> bool:
    """Is multiplication by c an automorphism of R/(a)?  a = 0 only over Z."""
    return c in (1, -1) if a == 0 else gcd(c, a) == 1


def _coprime_base(orders) -> list:
    """Pairwise coprime b > 1 with every nonzero order a product of their
    powers, from gcds alone: nothing is factored.  Each distinct order x
    meets the base once: a b sharing a factor with x gives way to a coprime
    base of b and the part of x made of b's primes, and what is left of x
    joins the base.  So the work is quadratic in the number of orders.
    """
    base: list = []
    for x in sorted(set(orders) - {0}):
        kept = []
        for b in base:
            if gcd(x, b) == 1:
                kept.append(b)
                continue
            # gcd(x, b^n), n the bit length of x: the part of x made of b's primes
            part, local = gcd(x, pow(b, x.bit_length(), x)), []
            x //= part
            todo = [b, part]
            while todo:
                y = todo.pop()
                c = next((c for c in local if gcd(y, c) > 1), 0)
                if c:
                    g = gcd(y, c)
                    local.remove(c)
                    todo += [g, c // g, y // g]
                elif y > 1:
                    local.append(y)
            kept += local
        base = kept + [x] * (x > 1)
    return base


def _crt_parts(a: int, base: list) -> list:
    """[(q, e)]: R/(a) as the sum of the R/(q), q the base powers exactly
    dividing a, with e = (a/q)((a/q)^-1 mod q) the idempotent lifting
    R/(q) back; [(a, 1)] where that is one part or a is free over Z."""
    qs = [gcd(a, pow(b, a.bit_length(), a)) for b in base if a and a % b == 0]
    if len(qs) < 2:
        return [(a, 1)]
    return [(q, a // q * pow(a // q, -1, q)) for q in qs]


def reduce_complex(cx: Complex) -> tuple:
    """Cancel the contractible summands of cx; all of them if cx is contractible.

    Returns (R, to: C -> R, back: R -> C, s) on the window of cx: chain maps
    with to . back = id and a Homotopy s on cx with id - back . to =
    d s + s d, s . back = 0, to . s = 0 and s . s = 0, all as maps.  So to
    and back are homotopy equivalences, and if R = 0 then back . to = 0 and
    s contracts cx.

    The terms are minimized to (+) R/(a_i) (minimize_complex), and each
    R/(a) is split into the R/(q) over one coprime base of all the a
    (_coprime_base, _crt_parts; a free summand over Z stays whole).  That is
    an isomorphism S: to copies a row to each part and back scales a column
    by the part's idempotent, so to . back = S S^-1 = id as maps; on a split
    summand its matrix is [1; 1] [e_1, e_2], and where nothing splits it is
    the identity matrix.  Then, degree by degree from the bottom, the first
    pair X = R/(a) in degree n, Y = R/(a) in degree n+1 whose component
    phi: X -> Y of d^n is a unit c of R/(a) (gcd(c, a) = 1; c = +-1 for
    a = 0 over Z) is cancelled, until none is left.  Then the Euclid step
    takes the first X whose entries in the rows of its order have a unit
    gcd and makes one of them a unit by row operations among those rows: a
    change of basis P of C^(n+1), which turns d^n, d^(n+1), to and back into
    P d^n, d^(n+1) P^-1, P to and back P^-1, keeps s, and so keeps every
    identity.  A cancellation deletes rows of d^(n-1) and columns of
    d^(n+1), and P leaves d^(n-1) alone, so one pass leaves no cancellable
    X.  If anything was split, the result is minimized again and the maps
    composed, so R's terms are in invariant-factor form.

    One cancellation is the Gaussian elimination lemma (Kaczynski, Mrozek
    and Slusarek, Computers Math. Applic. 35, 1998; Bar-Natan, J. Knot
    Theory Ramifications 16, 2007, Lemma 4.2) for modules.  Write
    C^n = X (+) A, C^(n+1) = Y (+) B, d^(n-1) = [alpha; beta],
    d^n = [[phi, delta], [gamma, eps]] and d^(n+1) = [mu, nu].  phi^-1 is
    multiplication by c' with c c' = 1 mod a (c' = c for a = 0), a
    well-defined map, so each identity below is one of module maps, read
    off the blocks of d.d = 0: phi alpha + delta beta = 0, gamma alpha +
    eps beta = 0, mu phi + nu gamma = 0 and mu delta + nu eps = 0.  R keeps
    A and B with d'^(n-1) = beta, d'^n = eps - gamma phi^-1 delta and
    d'^(n+1) = nu, a complex: d'^n beta = eps beta + gamma alpha = 0 and
    nu d'^n = nu eps + mu delta = 0.  to^n = [0, 1], to^(n+1) =
    [-gamma phi^-1, 1], back^n = [-phi^-1 delta; 1] and back^(n+1) = [0; 1],
    the identity elsewhere, are chain maps: to^(n+1) d^n = [0, d'^n] =
    d'^n to^n, nu to^(n+1) = [mu, nu] since nu gamma phi^-1 = -mu,
    d^n back^n = [0; d'^n] = back^(n+1) d'^n and back^n beta = d^(n-1)
    since alpha = -phi^-1 delta beta; to . back is the identity matrix.
    With s = phi^-1: Y -> X in degree n+1 and zero elsewhere,
    id - back . to = d s + s d is [[1, phi^-1 delta], [0, 0]] in degree n,
    [[1, 0], [gamma phi^-1, 0]] in degree n+1 and zero elsewhere.  The side
    conditions hold: s is zero off Y, back^(n+1) has no Y part, and to^n
    and s^n vanish on X.  The composite of (to1, back1, s1) and then
    (to2, back2, s2) is (to2 to1, back1 back2, s1 + back1 s2 to1), which
    keeps all four identities, by those of each step and to1 back1 = id.
    So each step acts in cx's coordinates: row and column operations on to
    and back, and c' (back column x) (to row y) added to s^(n+1), read
    before the pair is deleted.  Over Z/m the entries are reduced mod m at
    every step; over Z they are left as computed.

    Completeness.  Let C be contractible, with lowest nonzero term C^n.
    Then h d^n = id on C^n, so d^n restricted to a summand X = R/(b^e)
    (b in the base) is a split mono.  Localize at a prime p dividing b:
    X_p is indecomposable with a local endomorphism ring, and id = sum
    h_Y d_Y over the summands Y of C^(n+1), so some h_Y d_Y is a unit and
    d_Y: X_p -> Y_p is an isomorphism.  Y's order is a base power with X's
    p-valuation, so it is b^e, and p does not divide the entry d_Y.  So the
    gcd of X's entries in the rows of order b^e is prime to b, a unit.  For
    a free X over Z, h kills the torsion rows, so the free-row entries have
    gcd 1.  Either way the Euclid step cancels X.  Each step is a homotopy
    equivalence, so what is left stays contractible: C^n empties, then
    C^(n+1), and so on, and R = 0.
    """
    mini, min_to, min_back = minimize_complex(cx)
    if not mini.modules:
        return mini, min_to, min_back, zero_homotopy(cx, cx)
    ring, lo = cx.ring, cx.lo
    red = ring.reduce
    facs = [[next((x for x in row if x), ring.modulus or 0) for row in mod.relations.data]
            for mod in mini.modules]
    diffs = [[list(row) for row in d.matrix.data] for d in mini.diffs]
    # to[k] is a list of rows and back[k] a list of columns, one per kept
    # generator, so dropping a generator drops one entry of each
    to = [[list(row) for row in f.matrix.data] for f in min_to.components]
    back = [[list(f.matrix.column(j)) for j in range(f.matrix.cols)]
            for f in min_back.components]
    base = _coprime_base(a for f in facs for a in f)
    plan = [[(x, q, e) for x, a in enumerate(f) for q, e in _crt_parts(a, base)] for f in facs]
    split = any(len(p) > len(f) for p, f in zip(plan, facs))
    if split:
        diffs = [[[ex * d[y][x] % qy if qy else ex * d[y][x] for x, _, ex in plan[k]]
                  for y, qy, _ in plan[k + 1]] for k, d in enumerate(diffs)]
        to = [[to[k][x] for x, _, _ in p] for k, p in enumerate(plan)]
        back = [[[red(e * b) for b in back[k][x]] for x, _, e in p] for k, p in enumerate(plan)]
        facs = [[q for _, q, _ in p] for p in plan]
    # s[k] is the matrix of s^(lo+k) as a list of rows
    sizes = [mod.generators for mod in cx.modules]
    s = [None] + [[[0] * g for _ in range(f)] for f, g in zip(sizes, sizes[1:])]

    def euclid(k):
        """The pair (x, y) the Euclid step makes in d^k, or None."""
        d = diffs[k]
        for x, a in enumerate(facs[k]):
            rows = [y for y, b in enumerate(facs[k + 1]) if b == a and d[y][x]]
            if not rows or not _is_unit(gcd(*(d[y][x] for y in rows)), a):
                continue
            while True:
                y = min(rows, key=lambda r: abs(d[r][x]))
                if _is_unit(d[y][x], a):
                    return x, y
                for z in rows:
                    t = d[z][x] // d[y][x] if z != y else 0
                    if t:
                        # row z -= t row y, so column y += t column z
                        d[z] = [red(e - t * f) for e, f in zip(d[z], d[y])]
                        to[k + 1][z] = [red(e - t * f) for e, f in zip(to[k + 1][z], to[k + 1][y])]
                        back[k + 1][y] = [red(e + t * f)
                                          for e, f in zip(back[k + 1][y], back[k + 1][z])]
                        for row in diffs[k + 1] if k + 1 < len(diffs) else ():
                            row[y] = red(row[y] + t * row[z])
                rows = [z for z in rows if d[z][x]]
        return None

    for k, d in enumerate(diffs):
        while True:
            pair = next(((x, y) for x in range(len(facs[k]))
                         for y in range(len(facs[k + 1]))
                         if facs[k][x] == facs[k + 1][y]
                         and _is_unit(d[y][x], facs[k][x])), None) or euclid(k)
            if pair is None:
                break
            x, y = pair
            a, c = facs[k][x], d[y][x]
            inv = c if a == 0 else pow(c, -1, a)
            row_y = to[k + 1][y]
            for i, b in enumerate(back[k][x]):
                if b:
                    s[k + 1][i] = [red(e + inv * b * f) for e, f in zip(s[k + 1][i], row_y)]
            gamma = [row[x] * inv for row in d]
            delta = d[y]
            for b, row in enumerate(d):
                if gamma[b] and b != y:
                    d[b] = [red(e - gamma[b] * f) for e, f in zip(row, delta)]
                    to[k + 1][b] = [red(e - gamma[b] * f)
                                    for e, f in zip(to[k + 1][b], to[k + 1][y])]
            col_x = back[k][x]
            for j, f in enumerate(delta):
                if f and j != x:
                    back[k][j] = [red(e - inv * f * g) for e, g in zip(back[k][j], col_x)]
            del d[y]
            for row in d:
                del row[x]
            if k > 0:
                del diffs[k - 1][x]
            if k + 1 < len(diffs):
                for row in diffs[k + 1]:
                    del row[y]
            del facs[k][x], facs[k + 1][y], to[k][x], to[k + 1][y]
            del back[k][x], back[k + 1][y]
    mods = tuple(mod if mod.generators == len(f) and not split else diagonal_module(ring, f)
                 for mod, f in zip(mini.modules, facs))

    def as_map(src, tgt, rows):
        return ModuleMap(src, tgt, IntMatrix._trusted(
            tgt.generators, src.generators, tuple(map(tuple, rows))))

    out = Complex(ring, lo, mods, tuple(map(as_map, mods, mods[1:], diffs)))
    back_rows = ([[col[i] for col in cols] for i in range(mod.generators)]
                 for mod, cols in zip(cx.modules, back))
    to = ChainMap(cx, out, lo, tuple(map(as_map, cx.modules, mods, to)))
    back = ChainMap(out, cx, lo, tuple(map(as_map, mods, cx.modules, back_rows)))
    if split:
        out, to_min, back_min = minimize_complex(out)
        to, back = to_min @ to, back @ back_min
    return out, to, back, Homotopy(cx, cx, lo + 1, tuple(map(
        as_map, cx.modules[1:], cx.modules, s[1:])))


def homology_invariants(cx: Complex) -> dict:
    """Invariant factors of H^i for every degree in the window."""
    out = {}
    for i in range(cx.lo, cx.hi + 1):
        out[i] = homology(cx, i).invariant_factors
    return out


# ---------------------------------------------------------------------------
# homotopies


class Homotopy(Record):
    """A degree -1 family of maps s^i: src^i -> tgt^(i-1).

    Its boundary d.s + s.d is always a chain map; the homotopy witnesses
    f ~ g exactly when the boundary equals f - g.
    """

    __slots__ = ("src", "tgt", "lo", "components")

    def __init__(self, src: Complex, tgt: Complex, lo: int, components: tuple) -> None:
        _set(self, "src", src)
        _set(self, "tgt", tgt)
        _set(self, "lo", lo)
        _set(self, "components", components)

    def component(self, i: int) -> ModuleMap:
        k = i - self.lo
        if 0 <= k < len(self.components):
            return self.components[k]
        return zero_map(self.src.module(i), self.tgt.module(i - 1))

    def boundary(self) -> ChainMap:
        lo = min(self.src.lo, self.tgt.lo)
        hi = max(self.src.hi, self.tgt.hi)
        comps = []
        for i in range(lo, hi + 1):
            comps.append(
                self.tgt.differential(i - 1) @ self.component(i)
                + self.component(i + 1) @ self.src.differential(i)
            )
        return ChainMap(self.src, self.tgt, lo, tuple(comps))

    def witnesses(self, f: Optional[ChainMap] = None, g: Optional[ChainMap] = None) -> bool:
        """Is d s + s d = f - g, f = None standing for the identity?  Each
        degree is one lincomb_in_relations of d s^i + s^(i+1) d - f^i + g^i,
        with no map formed; False unless f and g run src -> tgt."""
        src, tgt = self.src, self.tgt
        if (f is None and src != tgt) or any(
                h is not None and (h.src != src or h.tgt != tgt) for h in (f, g)):
            return False
        for i in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
            if not lincomb_in_relations(tgt.module(i), src.module(i).generators, (
                    (1, _d(tgt, i - 1), _at(self, i)), (1, _at(self, i + 1), _d(src, i)),
                    (-1,) if f is None else (-1, _at(f, i)), (1, None if g is None else _at(g, i)))):
                return False
        return True


def zero_homotopy(src: Complex, tgt: Complex) -> Homotopy:
    return Homotopy(src, tgt, 0, ())


# ---------------------------------------------------------------------------
# hom and tensor complexes


def _as_column(coords, height: int) -> IntMatrix:
    if isinstance(coords, IntMatrix):
        if coords.cols != 1 or coords.rows != height:
            raise InputError("coordinate column has the wrong shape")
        return coords
    vals = list(coords)
    if len(vals) != height:
        raise InputError("coordinate list has the wrong length")
    return IntMatrix.column_vector(vals)


def _ranges(mods) -> list:
    """The (start, stop) generator ranges of consecutive direct summands."""
    out = []
    start = 0
    for mod in mods:
        out.append((start, start + mod.generators))
        start += mod.generators
    return out


class HomComplex(Record):
    """Total hom complex of a pair of complexes, with slot bookkeeping.

    Degree i collects Hom(source^j, target^(i+j)) over all j.  slots(i)
    yields (j, hom_module, start, stop) for each piece, whose coordinates
    are the generators start..stop-1 of degree i, so an element of degree
    i decodes into a family of module maps slot by slot.
    The differential sends f to d_tgt . f - (-1)^i f . d_src.
    """

    __slots__ = ("source", "target", "complex", "slot_data")

    def __init__(self, source: Complex, target: Complex, complex: Complex,
                 slot_data: tuple) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "complex", complex)
        _set(self, "slot_data", slot_data)

    def slots(self, i: int) -> tuple:
        k = i - self.complex.lo
        if 0 <= k < len(self.slot_data):
            return self.slot_data[k]
        return ()

    def element_components(self, i: int, coords) -> dict:
        """Decode a degree i element into {j: map source^j -> target^(i+j)}."""
        col = _as_column(coords, self.complex.module(i).generators)
        return {j: hm.to_map([col.data[r][0] for r in range(start, stop)])
                for j, hm, start, stop in self.slots(i)}


def hom_complex(source: Complex, target: Complex) -> HomComplex:
    if source.ring != target.ring:
        raise InputError("hom complex needs both complexes over the same ring")
    ring = source.ring
    if not source.modules or not target.modules:
        return HomComplex(source, target, zero_complex(ring), ())
    lo = target.lo - source.hi
    hi = target.hi - source.lo
    slot_data = []
    mods = []
    for i in range(lo, hi + 1):
        j_lo = max(source.lo, target.lo - i)
        j_hi = min(source.hi, target.hi - i)
        js = range(j_lo, j_hi + 1)
        homs = [hom_modules(source.module(j), target.module(i + j)) for j in js]
        pieces = [hm.module for hm in homs]
        slot_data.append(tuple((j, hm, start, stop) for j, hm, (start, stop)
                               in zip(js, homs, _ranges(pieces))))
        mods.append(sum_module(pieces))
    diffs = []
    for i in range(lo, hi):
        nxt = {j: (hm, start) for j, hm, start, _ in slot_data[i + 1 - lo]}
        sign = -1 if i % 2 == 0 else 1
        blocks = []
        for j, hm, start, _ in slot_data[i - lo]:
            if j in nxt:
                hm2, start2 = nxt[j]
                post = hom_post(hm, hm2, target.differential(i + j))
                blocks.append((start2, start, 1, post.matrix))
            if j - 1 in nxt:
                hm3, start3 = nxt[j - 1]
                pre = hom_pre(hm, hm3, source.differential(j - 1))
                blocks.append((start3, start, sign, pre.matrix))
        diffs.append(block_map(mods[i - lo], mods[i + 1 - lo], blocks))
    cx = Complex(ring, lo, tuple(mods), tuple(diffs))
    return HomComplex(source, target, cx, tuple(slot_data))


class TensorComplex(Record):
    """Total tensor product of a pair of complexes, with slot bookkeeping.

    Degree t collects left^i (x) right^(t-i) over all i; slots(t) yields
    (i, t - i, start, stop) for each piece, which occupies the generators
    start..stop-1 of degree t.  The differential is
    d (x) 1 + (-1)^i 1 (x) d on the (i, j) slot.
    """

    __slots__ = ("left", "right", "complex", "slot_data")

    def __init__(self, left: Complex, right: Complex, complex: Complex,
                 slot_data: tuple) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "complex", complex)
        _set(self, "slot_data", slot_data)

    def slots(self, t: int) -> tuple:
        k = t - self.complex.lo
        if 0 <= k < len(self.slot_data):
            return self.slot_data[k]
        return ()


def tensor_complex(left: Complex, right: Complex) -> TensorComplex:
    if left.ring != right.ring:
        raise InputError("tensor complex needs both complexes over the same ring")
    ring = left.ring
    if not left.modules or not right.modules:
        return TensorComplex(left, right, zero_complex(ring), ())
    lo = left.lo + right.lo
    hi = left.hi + right.hi
    slot_data = []
    mods = []
    for t in range(lo, hi + 1):
        i_lo = max(left.lo, t - right.hi)
        i_hi = min(left.hi, t - right.lo)
        ids = range(i_lo, i_hi + 1)
        pieces = [tensor_modules(left.module(i), right.module(t - i)) for i in ids]
        slot_data.append(tuple((i, t - i, start, stop)
                               for i, (start, stop) in zip(ids, _ranges(pieces))))
        mods.append(sum_module(pieces))
    diffs = []
    for t in range(lo, hi):
        nxt = {i: start for i, _, start, _ in slot_data[t + 1 - lo]}
        blocks = []
        for i, j, start, _ in slot_data[t - lo]:
            if i + 1 in nxt:
                step = left.differential(i).matrix.kron(
                    IntMatrix.identity(right.module(j).generators))
                blocks.append((nxt[i + 1], start, 1, step))
            if i in nxt:
                step = IntMatrix.identity(left.module(i).generators).kron(
                    right.differential(j).matrix)
                blocks.append((nxt[i], start, -1 if i % 2 else 1, step))
        diffs.append(block_map(mods[t - lo], mods[t + 1 - lo], blocks))
    cx = Complex(ring, lo, tuple(mods), tuple(diffs))
    return TensorComplex(left, right, cx, tuple(slot_data))


# ---------------------------------------------------------------------------
# maps induced on hom and tensor complexes


def _window(a: Complex, b: Complex) -> range:
    return range(min(a.lo, b.lo), max(a.hi, b.hi) + 1)


def tensor_fixed_left_map(src_tc: TensorComplex, tgt_tc: TensorComplex, u: ChainMap) -> ChainMap:
    """The map A (x) M -> A (x) N induced by u: M -> N."""
    if src_tc.left != tgt_tc.left:
        raise InputError("left factors must agree")
    if u.src != src_tc.right or u.tgt != tgt_tc.right:
        raise InputError("map endpoints do not match the tensor complexes")
    return _tensor_induced(src_tc, tgt_tc, lambda i, j: IntMatrix.identity(
        src_tc.left.module(i).generators).kron(u.component(j).matrix))


def tensor_fixed_right_map(src_tc: TensorComplex, tgt_tc: TensorComplex, u: ChainMap) -> ChainMap:
    """The map M (x) B -> N (x) B induced by u: M -> N."""
    if src_tc.right != tgt_tc.right:
        raise InputError("right factors must agree")
    if u.src != src_tc.left or u.tgt != tgt_tc.left:
        raise InputError("map endpoints do not match the tensor complexes")
    return _tensor_induced(src_tc, tgt_tc, lambda i, j: u.component(i).matrix.kron(
        IntMatrix.identity(src_tc.right.module(j).generators)))


def _tensor_induced(src_tc: TensorComplex, tgt_tc: TensorComplex, step) -> ChainMap:
    """The chain map placing step(i, j) from slot (i, j) into slot (i, j)."""
    a, b = src_tc.complex, tgt_tc.complex
    comps = []
    for t in _window(a, b):
        tgt_slots = {i: start for i, _, start, _ in tgt_tc.slots(t)}
        blocks = [(tgt_slots[i], start, 1, step(i, j))
                  for i, j, start, _ in src_tc.slots(t) if i in tgt_slots]
        comps.append(block_map(a.module(t), b.module(t), blocks))
    return ChainMap(a, b, _window(a, b).start, tuple(comps))


# ---------------------------------------------------------------------------
# the termwise tensor with a single module


def tensor_module_complex(cx: Complex, mod: FpModule) -> Complex:
    """Apply - (x) mod to every term.

    Each term is tensored once; d^k (x) mod is kron(d^k, I) between the
    terms already made, which is what tensor_map would present.
    """
    mods = tuple(tensor_modules(m, mod) for m in cx.modules)
    ident = IntMatrix.identity(mod.generators)
    reduce = cx.ring.reduce_matrix
    diffs = tuple(ModuleMap(mods[k], mods[k + 1], reduce(d.matrix.kron(ident)))
                  for k, d in enumerate(cx.diffs))
    return Complex(cx.ring, cx.lo, mods, diffs)


# ---------------------------------------------------------------------------
# maps induced on truncations


def truncate_leq_map(f: ChainMap, n: int):
    """Induced map between the <= n truncations.

    Returns (g, (src_trunc, src_incl), (tgt_trunc, tgt_incl)).
    """
    ts, incl_s = truncate_leq(f.src, n)
    tt, incl_t = truncate_leq(f.tgt, n)
    lo = min(ts.lo, tt.lo)
    comps = []
    for i in range(lo, n + 1):
        if i < n:
            comps.append(f.component(i))
        else:
            comps.append(
                factor_through_mono(
                    incl_t.component(n), f.component(n) @ incl_s.component(n)
                )
            )
    return ChainMap(ts, tt, lo, tuple(comps)), (ts, incl_s), (tt, incl_t)
