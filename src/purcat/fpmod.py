"""Finitely presented modules over Z and Z/m.

A module is a cokernel presentation: `generators` many generators
subject to the column span of `relations`.  Maps are matrices on
generators, well defined when they carry source relations into the
target relation span; equality of maps is always equality modulo the
target relations.  The Smith factors of the relation matrix, with U and
U^-1 but no V, are cached per module and serve as the invariant factor
computation and the coordinate system for Hom calculations.

Every identity between maps is one lincomb_in_relations, a sum on plain
rows tested once; the test reads row gcds, with no Smith form, for the
diagonal, sum, tensor and hom modules of minimal terms.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable, Optional

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    LinearSystem,
    Record,
    Ring,
    WorkbenchError,
    _combine,
    _set,
    _unit_scaling_mod,
    block_diag,
    from_columns,
    hstack,
    kernel_basis,
    lincomb,
    smith_normal_form,
    solve_linear,
)


class IllDefinedMap(WorkbenchError):
    """The matrix does not carry source relations into target relations."""


class NotMono(WorkbenchError):
    """An operation requiring an injective map received a non-injective one."""


# ---------------------------------------------------------------------------
# modules


class Decomposition(Record):
    """Diagonal coordinates of a presentation.

    factors[i] is the annihilator of the i-th diagonal generator: over Z
    the value 0 means a free summand, over Z/m every factor is a divisor
    of m with m itself standing for a free Z/m summand.  to_diag and
    from_diag are the inverse change-of-basis matrices on generators.
    """

    __slots__ = ("factors", "to_diag", "from_diag")

    def __init__(self, factors: tuple, to_diag: IntMatrix, from_diag: IntMatrix) -> None:
        _set(self, "factors", factors)
        _set(self, "to_diag", to_diag)
        _set(self, "from_diag", from_diag)


class FpModule(Record):
    # _decomp and _gcds cache decomposition() and the row gcds; not fields
    __slots__ = ("ring", "generators", "relations", "_decomp", "_gcds")

    def __init__(self, ring: Ring, generators: int, relations: IntMatrix) -> None:
        if relations.rows != generators:
            raise InputError("relation matrix must have one row per generator")
        _set(self, "ring", ring)
        _set(self, "generators", generators)
        _set(self, "relations", relations)
        _set(self, "_decomp", None)
        _set(self, "_gcds", None)

    # Record's == and hash, spelt out as IntMatrix's are
    def __eq__(self, other) -> bool:
        if other.__class__ is not FpModule:
            return NotImplemented
        return self is other or (self.generators == other.generators and self.ring == other.ring
                                 and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.ring, self.generators, self.relations))

    # -- structure ------------------------------------------------------

    def decomposition(self) -> Decomposition:
        """Invariant factors with the diagonal coordinates U and U^-1.

        With U rel V = D, U maps the generators onto those of
        R/(d_1) + ... + R/(d_g), d_i = 0 past the last column (m over
        Z/m).  smith_normal_form(..., inverse=True) carries U and U^-1
        through its elimination; V, which nothing here reads, is never
        formed.  Cached per module.
        """
        cached = self._decomp
        if cached is not None:
            return cached
        if self.relations.rows == self.relations.cols == 1:
            dec = _cyclic_decomposition(self.ring, self.relations.data[0][0])
            _set(self, "_decomp", dec)
            return dec
        snf = smith_normal_form(self.relations, self.ring, inverse=True)
        diagonal = snf.diagonal()
        diagonal += [0] * (self.generators - len(diagonal))
        m = self.ring.modulus
        factors = tuple(diagonal) if m is None else tuple(d or m for d in diagonal)
        dec = Decomposition(factors, snf.u, snf.u_inv)
        _set(self, "_decomp", dec)
        return dec

    @property
    def invariant_factors(self) -> tuple:
        return tuple(a for a in self.decomposition().factors if a != 1)

    def is_zero(self) -> bool:
        return not self.invariant_factors

    def is_torsion(self) -> bool:
        """No free summand; over Z/m every module qualifies."""
        if self.ring.modulus is not None:
            return True
        return 0 not in self.decomposition().factors

    # -- membership -------------------------------------------------------

    def contains_in_relations(self, cols: IntMatrix) -> bool:
        """Do all columns lie in the relation span (mod m over Z/m)?

        When no column of rel has two nonzero entries, x is in the span
        iff g_i = gcd(row i of rel, m) divides x_i for every i (m = 0 over
        Z; 0 divides only 0).  Proof: each column is a e_i, so the span is
        the sum of I_i e_i, I_i the ideal generated by row i, which is
        (g_i) over Z and the image of (g_i) over Z/m; an integer x_i stands
        for an element of it iff x_i lies in g_i Z + m Z = g_i Z, since
        g_i divides m.  The g_i are cached, False for any other rel.
        Otherwise, with U rel V = D (decomposition: to_diag = U), x = rel y
        iff U x = D V^-1 y, so row i of U x must be divisible by factor i.
        """
        if cols.rows != self.generators:
            raise InputError("membership test shape mismatch")
        if self.generators == 0 or cols.cols == 0:
            return True
        gcds = self._gcds
        if gcds is None:
            rel, m = self.relations.data, self.ring.modulus or 0
            gcds = (all(len(col) - col.count(0) < 2 for col in zip(*rel))
                    and tuple(gcd(m, *row) for row in rel))
            _set(self, "_gcds", gcds)
        if gcds is False:
            dec = self.decomposition()
            gcds, cols = dec.factors, dec.to_diag @ cols
        for a, row in zip(gcds, cols.data):
            if a != 1 and (any(x % a for x in row) if a else any(row)):
                return False
        return True

    def __str__(self) -> str:
        return f"FpModule({self.ring}, g={self.generators}, inv={self.invariant_factors})"


def _cyclic_decomposition(ring: Ring, d: int) -> Decomposition:
    """The Decomposition of R/(d), read off the one relation [d].

    It is what _eliminate does to a single entry: over Z the sign is
    moved into U; over Z/m the entry, reduced mod m, is scaled by the
    unit that turns it into gcd(d, m), and a zero entry is left as is,
    a free summand standing as the factor m.  So it equals the Smith
    path entry for entry, without running it.
    """
    m = ring.modulus
    one = IntMatrix.identity(1)
    if m is None:
        if d < 0:
            neg = IntMatrix._trusted(1, 1, ((-1,),))
            return Decomposition((-d,), neg, neg)
        return Decomposition((d,), one, one)
    d %= m
    if not d:
        return Decomposition((m,), one, one)
    u, g = _unit_scaling_mod(d, m)
    return Decomposition((g,), IntMatrix._trusted(1, 1, ((u,),)),
                         IntMatrix._trusted(1, 1, ((pow(u, -1, m),),)))


def make_module(ring: Ring, generators: int, relations=None) -> FpModule:
    """Build a module; relations may be an IntMatrix, row lists, or None."""
    if generators < 0:
        raise InputError("generator count must be nonnegative")
    if relations is None:
        rel = IntMatrix.zeros(generators, 0)
    elif isinstance(relations, IntMatrix):
        rel = relations
    else:
        rows = [list(r) for r in relations]
        if len(rows) != generators:
            raise InputError("relation rows must match generator count")
        rel = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, 0)
    return FpModule(ring, generators, ring.reduce_matrix(rel))


@cache
def zero_module(ring: Ring) -> FpModule:
    """The zero module over ring: one shared object per ring, whose
    decomposition is formed once."""
    return make_module(ring, 0)


def free_module(ring: Ring, rank: int) -> FpModule:
    return make_module(ring, rank)


def cyclic_module(ring: Ring, d: int) -> FpModule:
    """R/(d); over Z/m the generator is annihilated by gcd(d, m)."""
    return make_module(ring, 1, IntMatrix.from_rows([[d]]))


def diagonal_module(ring: Ring, factors) -> FpModule:
    """R/(a_1) (+) ... (+) R/(a_k): one relation column a_i per torsion
    factor, none for a free one (0 over Z, m over Z/m)."""
    free = ring.modulus or 0
    k = len(factors)
    rel_cols = []
    for pos, a in enumerate(factors):
        if a != free:
            col = [0] * k
            col[pos] = a
            rel_cols.append(col)
    return make_module(ring, k, from_columns(rel_cols, k))


def canonical_form(module: FpModule) -> tuple:
    """Minimal presentation (one generator per nonunit invariant factor).

    Returns (minimal module, to_min, from_min) with to_min . from_min the
    identity on the nose and from_min . to_min the identity mod relations.
    """
    ring = module.ring
    dec = module.decomposition()
    keep = [i for i, a in enumerate(dec.factors) if a != 1]
    mini = diagonal_module(ring, [dec.factors[i] for i in keep])
    sel_rows = [dec.to_diag.data[i] for i in keep]
    to_min = ModuleMap(module, mini, ring.reduce_matrix(
        IntMatrix.from_rows(sel_rows) if keep else IntMatrix.zeros(0, module.generators)))
    sel_cols = [dec.from_diag.column(i) for i in keep]
    from_min = ModuleMap(mini, module, ring.reduce_matrix(
        from_columns(sel_cols, module.generators)))
    return mini, to_min, from_min


# ---------------------------------------------------------------------------
# maps


class ModuleMap(Record):
    __slots__ = ("src", "tgt", "matrix")

    def __init__(self, src: FpModule, tgt: FpModule, matrix: IntMatrix) -> None:
        if matrix.rows != tgt.generators or matrix.cols != src.generators:
            raise InputError("map matrix shape must be tgt.generators x src.generators")
        _set(self, "src", src)
        _set(self, "tgt", tgt)
        _set(self, "matrix", matrix)

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.tgt != self.src:
            raise InputError("maps are not composable")
        return _sum_map(other.src, self.tgt, ((1, self.matrix, other.matrix),))

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise InputError("map addition shape mismatch")
        return _sum_map(self.src, self.tgt, ((1, self.matrix), (1, other.matrix)))

    def __neg__(self) -> "ModuleMap":
        return self.scale(-1)

    def scale(self, c: int) -> "ModuleMap":
        return _sum_map(self.src, self.tgt, ((c, self.matrix),))

    def equals(self, other: "ModuleMap") -> bool:
        if (self.src, self.tgt) != (other.src, other.tgt):
            return False
        return lincomb_in_relations(self.tgt, self.src.generators,
                                    ((1, self.matrix), (-1, other.matrix)))

    def is_well_defined(self) -> bool:
        if self.src.relations.cols == 0:
            return True
        return lincomb_in_relations(self.tgt, self.src.relations.cols,
                                    ((1, self.matrix, self.src.relations),))


def _sum_map(src: FpModule, tgt: FpModule, terms) -> ModuleMap:
    """The map src -> tgt whose matrix is the sum of terms (lincomb)."""
    return ModuleMap(src, tgt, lincomb(src.ring, tgt.generators, src.generators, terms))


def lincomb_in_relations(tgt: FpModule, cols: int, terms) -> bool:
    """Is the sum of terms, into tgt from cols generators, zero mod the
    relations of tgt?  Terms as for lincomb: (c,) for c id, (c, A) and
    (c, A, B); so f = g is ((1, f), (-1, g)) and r f = id ((1, r, f), (-1,)).
    The sum is formed once on plain rows and tested once."""
    zero = (0,) * cols
    rows = tuple([zero if row is None else tuple(row) for row in _combine(tgt.generators, terms)])
    return tgt.contains_in_relations(IntMatrix._trusted(tgt.generators, cols, rows))


def make_map(src: FpModule, tgt: FpModule, matrix, check: bool = True) -> ModuleMap:
    if src.ring != tgt.ring:
        raise InputError("map between modules over different rings")
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix.from_rows(matrix)
    f = ModuleMap(src, tgt, src.ring.reduce_matrix(matrix))
    if check and not f.is_well_defined():
        raise IllDefinedMap(
            f"matrix does not send relations of {src} into relations of {tgt}")
    return f


def identity_map(module: FpModule) -> ModuleMap:
    return ModuleMap(module, module, IntMatrix.identity(module.generators))


def zero_map(src: FpModule, tgt: FpModule) -> ModuleMap:
    return ModuleMap(src, tgt, IntMatrix.zeros(tgt.generators, src.generators))


# ---------------------------------------------------------------------------
# kernels and cokernels


def kernel(f: ModuleMap) -> tuple:
    """(K, inclusion) presenting {x in src : f(x) = 0}.

    The generators of K are the nonzero columns of the top rows of a
    kernel basis of [f | rel_tgt] (gen_mat).  Its relations are the
    nonzero top parts y_top of a kernel basis of [gen_mat | rel_src]:
    each such column has gen_mat . y_top + rel_src . y_bottom = 0
    (mod m), so gen_mat . y_top = -rel_src . y_bottom lies in the
    relation span of src, and dropping a zero column drops nothing.  The
    inclusion is therefore well defined by construction and is built
    without re-checking it.
    """
    ring = f.src.ring
    gs = f.src.generators
    if gs == 0:
        z = zero_module(ring)
        return z, zero_map(z, f.src)
    gen_mat = _top_columns(kernel_basis(hstack(f.matrix, f.tgt.relations), ring), gs)
    k = gen_mat.cols
    if k == 0:
        z = zero_module(ring)
        return z, zero_map(z, f.src)
    rel = _top_columns(kernel_basis(hstack(gen_mat, f.src.relations), ring), k)
    kmod = make_module(ring, k, rel)
    return kmod, ModuleMap(kmod, f.src, gen_mat)


def cokernel(f: ModuleMap) -> tuple:
    """(C, projection) with C = tgt / image(f)."""
    ring = f.src.ring
    cmod = make_module(ring, f.tgt.generators, hstack(f.tgt.relations, f.matrix))
    proj = ModuleMap(f.tgt, cmod, IntMatrix.identity(f.tgt.generators))
    return cmod, proj


def _top_columns(kb: IntMatrix, count: int) -> IntMatrix:
    """The nonzero columns of the top count rows of a kernel basis.

    kernel_basis returns canonical residues over Z/m, so the slice needs
    no reduction.
    """
    top = kb.data[:count]
    kept = [col for col in zip(*top) if any(col)]
    return IntMatrix._trusted(count, len(kept),
                              tuple(zip(*kept)) if kept else ((),) * count)


def is_injective(f: ModuleMap) -> bool:
    return kernel(f)[0].is_zero()


def is_surjective(f: ModuleMap) -> bool:
    return cokernel(f)[0].is_zero()


# ---------------------------------------------------------------------------
# biproducts, tensor, hom


def sum_module(mods: Iterable[FpModule]) -> FpModule:
    """The direct sum of mods as a module alone, with no structure maps.

    Its relations are block diagonal, and the generators of each summand
    follow those of the summands before it.  Nothing else is formed: a
    caller that reads an injection or a projection places that one map
    with summand_injection or summand_projection, and direct_sum forms
    all of them.
    """
    mods = list(mods)
    if not mods:
        raise InputError("direct_sum needs at least one summand")
    ring = mods[0].ring
    if any(m.ring != ring for m in mods):
        raise InputError("direct_sum over mixed rings")
    total = sum(m.generators for m in mods)
    return make_module(ring, total, block_diag(*[m.relations for m in mods]))


def summand_injection(part: FpModule, total: FpModule, before: int) -> ModuleMap:
    """part -> total onto the generators before.. of total, as a summand."""
    g = part.generators
    zero = (0,) * g
    rows = ((zero,) * before + IntMatrix.identity(g).data
            + (zero,) * (total.generators - before - g))
    return ModuleMap(part, total, IntMatrix._trusted(total.generators, g, rows))


def summand_projection(total: FpModule, part: FpModule, before: int) -> ModuleMap:
    """total -> part off the generators before.. of total, as a summand."""
    g = part.generators
    left, right = (0,) * before, (0,) * (total.generators - before - g)
    rows = tuple(left + row + right for row in IntMatrix.identity(g).data)
    return ModuleMap(total, part, IntMatrix._trusted(g, total.generators, rows))


def direct_sum(mods: Iterable[FpModule]) -> tuple:
    """(sum, injections, projections) with the block conventions fixed.

    The sum is sum_module(mods); every injection and projection is formed
    here, up front, so a caller that reads none of them takes
    sum_module instead.
    """
    mods = list(mods)
    s = sum_module(mods)
    injections = []
    projections = []
    before = 0
    for m in mods:
        injections.append(summand_injection(m, s, before))
        projections.append(summand_projection(s, m, before))
        before += m.generators
    return s, injections, projections


def block_map(src: FpModule, tgt: FpModule, blocks: Iterable) -> ModuleMap:
    """The map src -> tgt that is zero outside the given blocks.

    blocks holds (row offset, column offset, sign, IntMatrix); each block
    times its sign is added in at its offsets, so a map between direct
    sums is placed summand by summand, not summed from inj . x . proj.
    """
    rows = [[0] * src.generators for _ in range(tgt.generators)]
    for r0, c0, sign, mat in blocks:
        for i, row in enumerate(mat.data):
            out = rows[r0 + i]
            for j, x in enumerate(row):
                if x:
                    out[c0 + j] += sign * x
    mat = IntMatrix._trusted(tgt.generators, src.generators, tuple(tuple(r) for r in rows))
    return ModuleMap(src, tgt, src.ring.reduce_matrix(mat))


def tensor_modules(a: FpModule, b: FpModule) -> FpModule:
    """Tensor product presented on pairs (i, j) -> i * b.generators + j."""
    if a.ring != b.ring:
        raise InputError("tensor over mixed rings")
    ring = a.ring
    ga, gb = a.generators, b.generators
    parts = []
    if a.relations.cols:
        parts.append(a.relations.kron(IntMatrix.identity(gb)))
    if b.relations.cols:
        parts.append(IntMatrix.identity(ga).kron(b.relations))
    rel = hstack(*parts) if parts else IntMatrix.zeros(ga * gb, 0)
    return make_module(ring, ga * gb, rel)


def tensor_map(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f tensor g on the pair presentations (Kronecker convention)."""
    src = tensor_modules(f.src, g.src)
    tgt = tensor_modules(f.tgt, g.tgt)
    ring = f.src.ring
    return ModuleMap(src, tgt, ring.reduce_matrix(f.matrix.kron(g.matrix)))


def _hom_cyclic(ring: Ring, a: int, b: int) -> tuple:
    """(order, generator multiplier) of Hom(R/<a>, R/<b>) on diagonal slots.

    Over Z the factor 0 encodes a free summand; Hom(Z/a, Z) vanishes for
    a > 0, which is the one case that does not follow the gcd formula.
    """
    if ring.modulus is None:
        if b == 0:
            return (0, 1) if a == 0 else (1, 0)
        if a == 0:
            return b, 1
        g = gcd(a, b)
        return g, b // g
    g = gcd(a, b)
    return g, b // g


class HomSlot(Record):
    __slots__ = ("src_index", "tgt_index", "order", "multiplier")

    def __init__(self, src_index: int, tgt_index: int, order: int, multiplier: int) -> None:
        _set(self, "src_index", src_index)
        _set(self, "tgt_index", tgt_index)
        _set(self, "order", order)
        _set(self, "multiplier", multiplier)


class HomModule(Record):
    """Hom(source, target) as a module plus coordinate conversions.

    With U_A . A . V_A and U_B . B . V_B diagonal, a map f: A -> B has
    diagonal matrix U_B . f . U_A^-1, and Hom(R/<a_i>, R/<b_j>) is cyclic
    with generator multiplier . E(j, i).  Generators are the surviving
    slots (i, j); to_map/from_map translate between coordinate vectors
    and actual ModuleMaps, and hom_post/hom_pre act on coordinates
    directly.
    """

    __slots__ = ("source", "target", "module", "slots")

    def __init__(self, source: FpModule, target: FpModule, module: FpModule,
                 slots: tuple) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "module", module)
        _set(self, "slots", slots)

    @property
    def invariant_factors(self) -> tuple:
        return self.module.invariant_factors

    def to_map(self, coords) -> ModuleMap:
        coords = list(coords)
        if len(coords) != len(self.slots):
            raise InputError("hom coordinate length mismatch")
        ring = self.source.ring
        dm = self.source.decomposition()
        dn = self.target.decomposition()
        lam = [[0] * self.source.generators for _ in range(self.target.generators)]
        for val, slot in zip(coords, self.slots):
            lam[slot.tgt_index][slot.src_index] += val * slot.multiplier
        lam_mat = (IntMatrix.from_rows(lam) if lam
                   else IntMatrix.zeros(0, self.source.generators))
        mat = dn.from_diag @ lam_mat @ dm.to_diag
        return ModuleMap(self.source, self.target, ring.reduce_matrix(mat))

    def from_map(self, f: ModuleMap):
        if f.src != self.source or f.tgt != self.target:
            raise InputError("from_map got a map between different modules")
        ring = self.source.ring
        dm = self.source.decomposition()
        dn = self.target.decomposition()
        lam = ring.reduce_matrix(dn.to_diag @ f.matrix @ dm.from_diag)
        return tuple(self.coordinate(slot, lam.at(slot.tgt_index, slot.src_index))
                     for slot in self.slots)

    def coordinate(self, slot: HomSlot, x: int) -> int:
        """The coordinate of slot read off the diagonal entry x at (j, i)."""
        b = self.target.decomposition().factors[slot.tgt_index]
        if self.source.ring.modulus is None and b == 0:
            # free target slot: coordinate is the entry itself
            return x
        x %= b
        if x % slot.multiplier:
            raise WorkbenchError("map is not a hom element; not well defined?")
        return (x // slot.multiplier) % slot.order


def hom_modules(a: FpModule, b: FpModule) -> HomModule:
    """Hom(a, b) via the invariant factor decompositions of both sides."""
    if a.ring != b.ring:
        raise InputError("hom over mixed rings")
    ring = a.ring
    m = ring.modulus
    da = a.decomposition()
    db = b.decomposition()
    slots = []
    for i, fa in enumerate(da.factors):
        for j, fb in enumerate(db.factors):
            order, mult = _hom_cyclic(ring, fa, fb)
            if order == 1:
                continue
            slots.append(HomSlot(i, j, order, mult))
    rel_cols = []
    for pos, slot in enumerate(slots):
        free = (m is None and slot.order == 0) or (m is not None and slot.order == m)
        if not free:
            col = [0] * len(slots)
            col[pos] = slot.order
            rel_cols.append(col)
    module = make_module(ring, len(slots), from_columns(rel_cols, len(slots)))
    return HomModule(a, b, module, tuple(slots))


def hom_post(hm_src: HomModule, hm_tgt: HomModule, phi: ModuleMap) -> ModuleMap:
    """Post-composition Hom(A, B) -> Hom(A, B') induced by phi: B -> B'."""
    if (phi.src != hm_src.target or hm_tgt.source != hm_src.source
            or hm_tgt.target != phi.tgt):
        raise InputError("maps are not composable")
    t = (hm_tgt.target.decomposition().to_diag @ phi.matrix
         @ hm_src.target.decomposition().from_diag)
    return _induced(hm_src, hm_tgt, t, IntMatrix.identity(hm_src.source.generators))


def hom_pre(hm_src: HomModule, hm_tgt: HomModule, psi: ModuleMap) -> ModuleMap:
    """Pre-composition Hom(A, B) -> Hom(A', B) induced by psi: A' -> A."""
    if (psi.tgt != hm_src.source or hm_tgt.source != psi.src
            or hm_tgt.target != hm_src.target):
        raise InputError("maps are not composable")
    t = (hm_src.source.decomposition().to_diag @ psi.matrix
         @ hm_tgt.source.decomposition().from_diag)
    return _induced(hm_src, hm_tgt, IntMatrix.identity(hm_src.target.generators), t)


def _induced(hm_src: HomModule, hm_tgt: HomModule, left: IntMatrix,
             right: IntMatrix) -> ModuleMap:
    """The coordinate matrix of f -> g . f . h between Hom modules.

    The basis map of slot s = (i, j) is U^-1 . mult_s E(j, i) . U in the
    Smith bases U (see HomModule).  Every U . U^-1 in between is the
    identity (mod m over Z/m), so in diagonal coordinates g . f . h is
    left . mult_s E(j, i) . right, with left = U . g . U^-1 and
    right = U . h . U^-1 the change-of-basis products.  Its entry at
    target slot r = (i', j') is mult_s . left[j', j] . right[i, i'],
    read as from_map reads it; no full map is built.

    Only the pairs (s, r) with left[j', j] and right[i, i'] both nonzero
    are visited: for each source slot, the nonzero entries of column j
    of left against those of row i of right, each pair (i', j') looked
    up among the target slots by a dict.  Every other entry is 0.  For
    hom_post right is the identity and for hom_pre left is, so each
    source slot meets one row or one column of the change of basis.
    """
    targets = hm_tgt.slots
    slot_at = {(r.src_index, r.tgt_index): pos for pos, r in enumerate(targets)}
    left_cols = [[(jp, row[j]) for jp, row in enumerate(left.data) if row[j]]
                 for j in range(left.cols)]
    right_rows = [[(ip, y) for ip, y in enumerate(row) if y] for row in right.data]
    rows = [[0] * len(hm_src.slots) for _ in targets]
    for c, s in enumerate(hm_src.slots):
        for ip, y in right_rows[s.src_index]:
            for jp, x in left_cols[s.tgt_index]:
                pos = slot_at.get((ip, jp))
                if pos is not None:
                    rows[pos][c] = hm_tgt.coordinate(targets[pos], x * y * s.multiplier)
    mat = IntMatrix._trusted(len(targets), len(hm_src.slots), tuple(map(tuple, rows)))
    return ModuleMap(hm_src.module, hm_tgt.module, hm_src.module.ring.reduce_matrix(mat))


# ---------------------------------------------------------------------------
# joint solving for maps, retractions, factorizations


class MapSolver:
    """Joint solver for module map equations, modulo target relations.

    Unknown maps get their well-definedness constraint automatically;
    every equation receives a fresh auxiliary unknown absorbing the
    target relation span, so 'equal' always means equal in the module.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.system = LinearSystem(ring)
        self._maps: dict = {}
        self._aux = 0

    def add_map_unknown(self, key, src: FpModule, tgt: FpModule) -> None:
        if key in self._maps:
            raise InputError(f"unknown {key!r} already declared")
        self._maps[key] = (src, tgt)
        self.system.add_unknown(key, tgt.generators, src.generators)
        rel_s = src.relations
        if rel_s.cols == 0:
            return
        rel_t = tgt.relations
        terms = [(IntMatrix.identity(tgt.generators), key, rel_s)]
        if rel_t.cols:
            aux = ("_welldef", self._aux)
            self._aux += 1
            self.system.add_unknown(aux, rel_t.cols, rel_s.cols)
            terms.append((rel_t.scale(-1), aux, IntMatrix.identity(rel_s.cols)))
        self.system.add_equation(terms, IntMatrix.zeros(tgt.generators, rel_s.cols))

    def add_equation(self, terms: list, rhs: ModuleMap) -> None:
        """terms: list of (left IntMatrix, key, right IntMatrix); the sum
        must equal rhs as a map into rhs.tgt (mod its relations)."""
        tgt = rhs.tgt
        raw_terms = list(terms)
        rel_t = tgt.relations
        if rel_t.cols:
            aux = ("_eq", self._aux)
            self._aux += 1
            self.system.add_unknown(aux, rel_t.cols, rhs.src.generators)
            raw_terms.append((rel_t, aux, IntMatrix.identity(rhs.src.generators)))
        self.system.add_equation(raw_terms, rhs.matrix)

    def solve(self) -> Optional[dict]:
        sol = self.system.solve()
        if sol is None:
            return None
        out = {}
        for key, (src, tgt) in self._maps.items():
            out[key] = ModuleMap(src, tgt, self.ring.reduce_matrix(sol[key]))
        return out


def _top_rows(mat: IntMatrix, count: int, cols: int) -> IntMatrix:
    if count == 0:
        return IntMatrix.zeros(0, cols)
    return IntMatrix.from_rows(mat.row(i) for i in range(count))


def factor_through_mono(mono: ModuleMap, g: ModuleMap) -> ModuleMap:
    """The unique X with mono . X = g; raises if g misses the image.

    Solved column by column: adjoining the target relations to the matrix
    of the mono turns the congruence into an exact linear system.  Its
    solution X is always well defined when mono is injective, for a well
    defined g: for a relation column r of g.src, g r lies in the relation
    span of the target, so mono . (X r) = g r is zero there, and as mono
    is injective X r is zero in mono.src, that is, X r lies in its
    relation span.  So an X that is not well defined shows that mono is
    not injective, and NotMono is raised.
    """
    if mono.tgt != g.tgt:
        raise InputError("factor_through_mono: targets differ")
    ring = mono.src.ring
    sol = solve_linear(hstack(mono.matrix, mono.tgt.relations), g.matrix, ring)
    if sol is None:
        raise WorkbenchError("map does not factor through the mono")
    x = ModuleMap(g.src, mono.src,
                  ring.reduce_matrix(_top_rows(sol, mono.src.generators,
                                               g.src.generators)))
    if not x.is_well_defined():
        raise NotMono("factor_through_mono requires an injective first map")
    return x


def retraction(f: ModuleMap) -> Optional[ModuleMap]:
    """A left inverse r of f: A -> B, with r . f = id_A, or None.

    Solved by direct solves on the Smith coordinates of A, with no
    vectorized system.  With T = to_diag, F = from_diag and factors a_i,
    T . rel_A . V = diag(a_i), so a column lies in the relation span of A
    iff row i of T times it is divisible by a_i (zero over Z when
    a_i = 0, zero mod m over Z/m when a_i = m).  Write P = T . r.  Both
    conditions on r, r . f = id mod rel_A and r well defined
    (r . rel_B in the span of rel_A), then say that row p_i of P solves

        p_i . [f | rel_B] = (T_i, 0)   mod a_i,

    that is, [f | rel_B]^T x = (T_i, 0)^T with a_i I adjoined on the
    right for a torsion factor and nothing adjoined for a free one.  The
    rows with one factor share their coefficient matrix and are solved
    together in one solve_linear; rows with a_i = 1 carry no condition
    and are zero.  Then r = F . P, since T . F is the identity.  A
    retraction exists iff every row system is solvable, so None is
    returned exactly when f does not split; a retraction forces f to be
    injective, so no injectivity check is made.
    """
    a, b = f.src, f.tgt
    ring = a.ring
    m = ring.modulus
    dec = a.decomposition()
    lhs = hstack(f.matrix, b.relations).transpose()
    pad = (0,) * b.relations.cols
    by_factor: dict = {}
    for i, factor in enumerate(dec.factors):
        if factor != 1:
            by_factor.setdefault(factor, []).append(i)
    p_rows = [(0,) * b.generators] * a.generators
    for factor, rows in by_factor.items():
        coeffs = lhs
        if factor != (0 if m is None else m):
            coeffs = hstack(lhs, IntMatrix.identity(lhs.rows).scale(factor))
        rhs = from_columns([dec.to_diag.data[i] + pad for i in rows], lhs.rows)
        sol = solve_linear(coeffs, rhs, ring)
        if sol is None:
            return None
        for k, i in enumerate(rows):
            p_rows[i] = tuple(sol.data[j][k] for j in range(b.generators))
    p = IntMatrix._trusted(a.generators, b.generators, tuple(p_rows))
    return ModuleMap(b, a, ring.reduce_matrix(dec.from_diag @ p))


def has_retraction(f: ModuleMap) -> Optional[ModuleMap]:
    """A left inverse r with r . f = id, or None; requires f injective.

    The injectivity check raises NotMono; the left inverse itself comes
    from retraction, which decides split-ness row by row in the Smith
    coordinates of f.src.
    """
    if not is_injective(f):
        raise NotMono("has_retraction requires an injective map")
    return retraction(f)
