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

from dataclasses import dataclass
from typing import Iterable, Optional

from purcat.exact_linalg import IntMatrix, InputError, Ring, _eliminate, _reduced_rows, hstack
from purcat.fpmod import (
    FpModule,
    ModuleMap,
    block_map,
    canonical_form,
    cokernel,
    direct_sum,
    factor_through_epi,
    factor_through_mono,
    hom_modules,
    hom_post,
    hom_pre,
    identity_map,
    kernel,
    make_map,
    tensor_map,
    tensor_modules,
    zero_map,
    zero_module,
)


@dataclass(frozen=True)
class Complex:
    ring: Ring
    lo: int
    modules: tuple
    diffs: tuple

    def __post_init__(self) -> None:
        want = max(len(self.modules) - 1, 0)
        if len(self.diffs) != want:
            raise InputError("complex needs one differential per adjacent pair")

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def module(self, i: int) -> FpModule:
        if self.lo <= i <= self.hi:
            return self.modules[i - self.lo]
        return zero_module(self.ring)

    def differential(self, i: int) -> ModuleMap:
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return zero_map(self.module(i), self.module(i + 1))

    def is_zero_complex(self) -> bool:
        return all(m.is_zero() for m in self.modules)

    def support(self) -> list:
        return [self.lo + k for k, m in enumerate(self.modules) if not m.is_zero()]

    def __str__(self) -> str:
        if not self.modules:
            return f"Complex({self.ring}, empty)"
        shape = ", ".join(f"{self.lo + k}:{m.invariant_factors}"
                          for k, m in enumerate(self.modules))
        return f"Complex({self.ring}, {shape})"


def make_complex(ring: Ring, lo: int, modules: Iterable[FpModule],
                 diffs: Optional[Iterable] = None, check: bool = True) -> Complex:
    mods = tuple(modules)
    if any(m.ring != ring for m in mods):
        raise InputError("complex terms over the wrong ring")
    if diffs is None:
        ds = tuple(zero_map(mods[k], mods[k + 1]) for k in range(len(mods) - 1))
    else:
        raw = list(diffs)
        if len(raw) != max(len(mods) - 1, 0):
            raise InputError("complex needs one differential per adjacent pair")
        ds = []
        for k, d in enumerate(raw):
            if isinstance(d, ModuleMap):
                if d.src != mods[k] or d.tgt != mods[k + 1]:
                    raise InputError(f"differential {k} connects the wrong modules")
                if check and not d.is_well_defined():
                    raise InputError(f"differential {k} is not well defined")
                ds.append(d)
            else:
                ds.append(make_map(mods[k], mods[k + 1], d, check=check))
        ds = tuple(ds)
    cx = Complex(ring, lo, mods, ds)
    if check:
        for k in range(len(ds) - 1):
            if not (ds[k + 1] @ ds[k]).is_zero():
                raise InputError(f"d.d is nonzero between degrees {lo + k} and {lo + k + 2}")
    return trim(cx)


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


def complexes_equal(a: Complex, b: Complex) -> bool:
    """Same modules degreewise, differentials equal modulo relations."""
    if a.ring != b.ring:
        return False
    if not a.modules or not b.modules:
        return a.is_zero_complex() and b.is_zero_complex()
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    for i in range(lo, hi + 1):
        if a.module(i) != b.module(i):
            return False
        if not a.differential(i).equals(b.differential(i)):
            return False
    return True


# ---------------------------------------------------------------------------
# chain maps


@dataclass(frozen=True)
class ChainMap:
    src: Complex
    tgt: Complex
    lo: int
    components: tuple

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

    def _same_shape(self, other: "ChainMap") -> None:
        if self.src != other.src or self.tgt != other.tgt:
            raise InputError("chain map shape mismatch")

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._same_shape(other)
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.components), other.lo + len(other.components)) - 1
        comps = tuple(self.component(i) + other.component(i) for i in range(lo, hi + 1))
        return ChainMap(self.src, self.tgt, lo, comps)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.src, self.tgt, self.lo,
                        tuple(-c for c in self.components))

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.src, self.tgt, self.lo,
                        tuple(f.scale(c) for f in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def equals(self, other: "ChainMap") -> bool:
        if self.src != other.src or self.tgt != other.tgt:
            return False
        return (self - other).is_zero()

    def is_chain_map(self) -> bool:
        lo = min(self.src.lo, self.tgt.lo) - 1
        hi = max(self.src.hi, self.tgt.hi)
        for i in range(lo, hi + 1):
            lhs = self.tgt.differential(i) @ self.component(i)
            rhs = self.component(i + 1) @ self.src.differential(i)
            if not lhs.equals(rhs):
                return False
        return True


def make_chain_map(src: Complex, tgt: Complex, lo: int, components: Iterable,
                   check: bool = True) -> ChainMap:
    comps = []
    for k, c in enumerate(components):
        i = lo + k
        if isinstance(c, ModuleMap):
            if c.src != src.module(i) or c.tgt != tgt.module(i):
                raise InputError(f"component at degree {i} connects the wrong modules")
            if check and not c.is_well_defined():
                raise InputError(f"component at degree {i} is not well defined")
            comps.append(c)
        else:
            comps.append(make_map(src.module(i), tgt.module(i), c, check=check))
    f = ChainMap(src, tgt, lo, tuple(comps))
    if check and not f.is_chain_map():
        raise InputError("components do not commute with the differentials")
    return f


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


@dataclass(frozen=True)
class Cone:
    """Cone of f: M -> N with its two structure chain maps.

    inclusion: N -> cone (degreewise second-summand injection),
    projection: cone -> M[1] (degreewise first-summand projection).
    """

    complex: Complex
    inclusion: ChainMap
    projection: ChainMap


def cone(f: ChainMap) -> Cone:
    src, tgt = f.src, f.tgt
    ring = src.ring
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    if hi < lo:
        zc = zero_complex(ring)
        return Cone(zc, zero_chain_map(tgt, zc), zero_chain_map(zc, shift(src, 1)))
    sums = {}
    for i in range(lo, hi + 1):
        sums[i] = direct_sum([src.module(i + 1), tgt.module(i)])
    mods = [sums[i][0] for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        ga, ga2 = src.module(i + 1).generators, src.module(i + 2).generators
        diffs.append(block_map(mods[i - lo], mods[i + 1 - lo], [
            (0, 0, -1, src.differential(i + 1).matrix),
            (ga2, 0, 1, f.component(i + 1).matrix),
            (ga2, ga, 1, tgt.differential(i).matrix),
        ]))
    cx = Complex(ring, lo, tuple(mods), tuple(diffs))
    incl = ChainMap(tgt, cx, lo, tuple(sums[i][1][1] for i in range(lo, hi + 1)))
    proj = ChainMap(cx, shift(src, 1), lo, tuple(sums[i][2][0] for i in range(lo, hi + 1)))
    return Cone(cx, incl, proj)


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


def homology_data(cx: Complex, i: int) -> tuple:
    """(H, incl: K -> C^i, proj: K -> H) for H = ker d^i / im d^(i-1)."""
    kmod, incl = kernel(cx.differential(i))
    u = factor_through_mono(incl, cx.differential(i - 1))
    h, proj = cokernel(u)
    return h, incl, proj


def homology(cx: Complex, i: int) -> FpModule:
    return homology_data(cx, i)[0]


def homology_map(f: ChainMap, i: int) -> ModuleMap:
    """The induced map on homology in degree i."""
    h_src, incl_src, proj_src = homology_data(f.src, i)
    h_tgt, incl_tgt, proj_tgt = homology_data(f.tgt, i)
    v = factor_through_mono(incl_tgt, f.component(i) @ incl_src)
    return make_map(h_src, h_tgt, (proj_tgt @ v).matrix, check=True)


def _order(rel: IntMatrix, ring: Ring) -> Optional[int]:
    """The order of R^g / span(rel), or None when it is infinite.

    It is the product of the Smith diagonal of rel, which _eliminate
    leaves in place when it carries no rows.  A zero entry, or a
    generator beyond the relation columns, counts as m over Z/m and
    makes the module infinite over Z.
    """
    m = ring.modulus
    a = _reduced_rows(rel, m)
    _eliminate(a, rel.cols, m, [[] for _ in a], [])
    size = 1
    for i in range(rel.rows):
        d = a[i][i] if i < rel.cols else 0
        if not d:
            if m is None:
                return None
            d = m
        size *= d
    return size


def homology_degrees(cx: Complex) -> list:
    """The degrees of the window where cx has homology, ascending.

    Where C^i and C^(i+1) are finite, H^i = 0 is read off module orders.
    In C^(i-1) -> C^i -> C^(i+1), im d^(i-1) lies in ker d^i, and
    |ker d^i| = |C^i| / |im d^i|; so the two are equal, which is
    H^i = 0, exactly when |C^i| = |im d^(i-1)| * |im d^i|.  Each
    |im d^j| = |C^(j+1)| / |coker d^j|, where coker d^j is presented by
    [rel_(j+1) | d^j], and it only needs C^(j+1) finite; the maps into
    C^lo and out of C^hi are zero, with image of order 1.  Every term
    over Z/m is finite, and so is every term of a complex tensored with
    a torsion cyclic module.  Where C^i or C^(i+1) is infinite (free
    summands over Z), H^i is computed and tested for zero instead.
    """
    ring = cx.ring
    sizes = [_order(mod.relations, ring) for mod in cx.modules]
    images = [1]
    for k, d in enumerate(cx.diffs):
        size = sizes[k + 1]
        images.append(None if size is None
                      else size // _order(hstack(d.tgt.relations, d.matrix), ring))
    images.append(1)
    out = []
    for k, size in enumerate(sizes):
        i = cx.lo + k
        if size is None or images[k + 1] is None:
            if not homology(cx, i).is_zero():
                out.append(i)
        elif size != images[k] * images[k + 1]:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# minimization


def minimize_complex(cx: Complex) -> tuple:
    """Replace every term by its minimal presentation.

    Returns (C', to: C -> C', back: C' -> C) with to . back the identity
    on the nose and back . to the identity modulo relations.
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


def homology_invariants(cx: Complex) -> dict:
    """Invariant factors of H^i for every degree in the window."""
    out = {}
    for i in range(cx.lo, cx.hi + 1):
        out[i] = homology(cx, i).invariant_factors
    return out


# ---------------------------------------------------------------------------
# homotopies


@dataclass(frozen=True)
class Homotopy:
    """A degree -1 family of maps s^i: src^i -> tgt^(i-1).

    Its boundary d.s + s.d is always a chain map; the homotopy witnesses
    f ~ g exactly when the boundary equals f - g.
    """

    src: Complex
    tgt: Complex
    lo: int
    components: tuple

    def component(self, i: int) -> ModuleMap:
        k = i - self.lo
        if 0 <= k < len(self.components):
            return self.components[k]
        return zero_map(self.src.module(i), self.tgt.module(i - 1))

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.components))

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

    def witnesses(self, f: ChainMap, g: Optional[ChainMap] = None) -> bool:
        want = f if g is None else f - g
        return self.boundary().equals(want)

    def __add__(self, other: "Homotopy") -> "Homotopy":
        if self.src != other.src or self.tgt != other.tgt:
            raise InputError("homotopy sum needs matching endpoints")
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.components), other.lo + len(other.components))
        comps = tuple(self.component(i) + other.component(i) for i in range(lo, hi))
        return Homotopy(self.src, self.tgt, lo, comps)


def make_homotopy(src: Complex, tgt: Complex, lo: int, components, check: bool = True) -> Homotopy:
    comps = []
    for k, raw in enumerate(components):
        i = lo + k
        a, b = src.module(i), tgt.module(i - 1)
        if isinstance(raw, ModuleMap):
            if raw.src != a or raw.tgt != b:
                raise InputError(f"homotopy component at degree {i} connects the wrong modules")
            if check and not raw.is_well_defined():
                raise InputError(f"homotopy component at degree {i} is not well defined")
            comps.append(raw)
        else:
            comps.append(make_map(a, b, raw, check=check))
    return Homotopy(src, tgt, lo, tuple(comps))


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


@dataclass(frozen=True)
class HomComplex:
    """Total hom complex of a pair of complexes, with slot bookkeeping.

    Degree i collects Hom(source^j, target^(i+j)) over all j.  slots(i)
    yields (j, hom_module, start, stop) for each piece, whose coordinates
    are the generators start..stop-1 of degree i, so elements of degree i
    convert to and from families of module maps slot by slot.
    The differential sends f to d_tgt . f - (-1)^i f . d_src.
    """

    source: Complex
    target: Complex
    complex: Complex
    slot_data: tuple

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

    def components_element(self, i: int, family: dict) -> IntMatrix:
        """Encode a family {j: map} as a degree i coordinate column."""
        used = {j for j, _, _, _ in self.slots(i)}
        for j in sorted(family):
            if j not in used and not family[j].is_zero():
                raise InputError(f"no slot at source degree {j} in hom degree {i}")
        vals = [0] * self.complex.module(i).generators
        for j, hm, start, stop in self.slots(i):
            f = family.get(j)
            if f is not None:
                vals[start:stop] = hm.from_map(f)
        return self.complex.ring.reduce_matrix(IntMatrix.column_vector(vals))


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
        mods.append(direct_sum(pieces)[0])
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


@dataclass(frozen=True)
class TensorComplex:
    """Total tensor product of a pair of complexes, with slot bookkeeping.

    Degree t collects left^i (x) right^(t-i) over all i; slots(t) yields
    (i, t - i, start, stop) for each piece, which occupies the generators
    start..stop-1 of degree t.  The differential is
    d (x) 1 + (-1)^i 1 (x) d on the (i, j) slot.
    """

    left: Complex
    right: Complex
    complex: Complex
    slot_data: tuple

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
        mods.append(direct_sum(pieces)[0])
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
# termwise functors for a single module


def tensor_module_complex(cx: Complex, mod: FpModule) -> Complex:
    """Apply - (x) mod to every term."""
    mods = tuple(tensor_modules(m, mod) for m in cx.modules)
    ident = identity_map(mod)
    diffs = tuple(tensor_map(d, ident) for d in cx.diffs)
    return Complex(cx.ring, cx.lo, mods, diffs)


def tensor_module_chain_map(f: ChainMap, mod: FpModule) -> ChainMap:
    src = tensor_module_complex(f.src, mod)
    tgt = tensor_module_complex(f.tgt, mod)
    ident = identity_map(mod)
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        if c.src.generators == 0 or c.tgt.generators == 0:
            comps.append(zero_map(src.module(i), tgt.module(i)))
        else:
            comps.append(tensor_map(c, ident))
    return ChainMap(src, tgt, lo, tuple(comps))


def hom_module_complex(mod: FpModule, cx: Complex) -> Complex:
    """Apply Hom(mod, -) to every term."""
    homs = [hom_modules(mod, m) for m in cx.modules]
    mods = tuple(hm.module for hm in homs)
    diffs = []
    for k in range(len(cx.modules) - 1):
        diffs.append(hom_post(homs[k], homs[k + 1], cx.diffs[k]))
    return Complex(cx.ring, cx.lo, mods, tuple(diffs))


def hom_module_chain_map(mod: FpModule, f: ChainMap) -> ChainMap:
    src = hom_module_complex(mod, f.src)
    tgt = hom_module_complex(mod, f.tgt)
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        comps.append(hom_post(hom_modules(mod, c.src), hom_modules(mod, c.tgt), c))
    return ChainMap(src, tgt, lo, tuple(comps))


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


def truncate_geq_map(f: ChainMap, n: int):
    """Induced map between the >= n truncations.

    Returns (g, (src_trunc, src_proj), (tgt_trunc, tgt_proj)).
    """
    ts, proj_s = truncate_geq(f.src, n)
    tt, proj_t = truncate_geq(f.tgt, n)
    hi = max(ts.hi, tt.hi)
    comps = [
        factor_through_epi(proj_s.component(n), proj_t.component(n) @ f.component(n))
    ]
    for i in range(n + 1, hi + 1):
        comps.append(f.component(i))
    return ChainMap(ts, tt, n, tuple(comps)), (ts, proj_s), (tt, proj_t)
