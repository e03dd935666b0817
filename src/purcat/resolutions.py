"""Constructive pure injective and pure projective resolutions.

resolve has one resolver, reduce_complex: it cancels the contractible
summands of the input, and the reduced complex is its own resolution on
either side, since every finitely presented term is pure projective and
every term in the injective scope is pure injective (the proof is in
resolve's docstring).  Every step of the towers of truncations, whose
levels extend each other by degreewise split maps, resolves the cone it
extends along the same way.  The towers are built only on request
(injective_tower / projective_tower), and their (co)limit at finite
depth is read off degreewise and re-verified.
Every certificate is checked once, by validate_certificate where it is
made (_certificate), and nothing is solved for: the contraction of its
cone is written down from reduce_complex's homotopy (_contraction), or
recast from a tower's cone certificate (_recast).  Every certificate
re-validates from scratch.
"""

from __future__ import annotations

from typing import Optional

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    Record,
    WorkbenchError,
    _set,
)
from purcat.fpmod import (
    FpModule,
    ModuleMap,
    block_map,
    is_injective,
    is_surjective,
    sum_module,
    summand_injection,
    summand_projection,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    _at,
    cone,
    reduce_complex,
    shift,
    shift_map,
    trim,
    truncate_geq,
    truncate_leq,
    zero_chain_map,
    zero_complex,
    vanishes,
)

INJECTIVE = "injective"
PROJECTIVE = "projective"


class UnsupportedRing(WorkbenchError):
    """The requested construction leaves the finitely presented universe."""


class DepthInsufficient(WorkbenchError):
    """The tower has not stabilized at the requested depth."""

    def __init__(self, required: int):
        super().__init__(f"tower needs depth at least {required}")
        self.required = required


# ---------------------------------------------------------------------------
# certificates


class ResolutionCertificate(Record):
    """A resolution map together with everything needed to re-check it.

    side "injective": map runs source -> target into pure injectives.
    side "projective": map runs target -> source out of pure projectives.
    qis_witness contracts the cone of the map.
    """

    __slots__ = ("source", "target", "map", "side", "qis_witness", "termwise_flags")

    def __init__(self, source: Complex, target: Complex, map: ChainMap, side: str,
                 qis_witness: Homotopy, termwise_flags: tuple) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)
        _set(self, "side", side)
        _set(self, "qis_witness", qis_witness)
        _set(self, "termwise_flags", termwise_flags)


def termwise_ok(side: str, cx: Complex) -> tuple:
    """Per term of cx, whether it lies in the side's class.

    The one scope rule: every finitely presented module is pure
    projective, and a term is pure injective exactly when it is torsion
    over Z or lies over Z/m.  A bounded complex whose terms all pass is
    K-pure injective (K-pure projective), so this is read off the terms
    and nothing is sampled.
    """
    if side == PROJECTIVE or cx.ring.modulus is not None:
        return tuple(True for _ in cx.modules)
    return tuple(m.is_torsion() for m in cx.modules)


def validate_certificate(cert: ResolutionCertificate) -> bool:
    """Re-check a certificate from scratch: direction, purity, contraction.

    The chain map law and d h + h d = id are sums of products, one
    lincomb_in_relations per degree, with no map formed.  The cone is the
    one kept on cert.map: the complex its producer contracted, or the one
    decode_certificate built for the witness.
    """
    if cert.side == INJECTIVE:
        if cert.map.src != cert.source or cert.map.tgt != cert.target:
            return False
    elif cert.side == PROJECTIVE:
        if cert.map.src != cert.target or cert.map.tgt != cert.source:
            return False
    else:
        return False
    if not cert.map.is_chain_map():
        return False
    flags = termwise_ok(cert.side, cert.target)
    if tuple(cert.termwise_flags) != flags or not all(flags):
        return False
    c = cone(cert.map).complex
    w = cert.qis_witness
    if w.src != c or w.tgt != c:
        return False
    return w.witnesses()


def _certificate(source: Complex, target: Complex, res_map: ChainMap, side: str,
                 witness: Homotopy) -> ResolutionCertificate:
    """The certificate of res_map with witness, refused unless
    validate_certificate accepts it: the one check of a certificate made
    in process."""
    cert = ResolutionCertificate(
        source, target, res_map, side, witness, termwise_ok(side, target)
    )
    if not validate_certificate(cert):
        raise WorkbenchError("resolution certificate fails to validate")
    return cert


def _signed(mat: IntMatrix, sign: int, top: int, left: int) -> tuple:
    """The rows of sign . S mat S, S = -1 on the first summand of either
    end (top rows, left columns): the off-diagonal blocks change sign."""
    return tuple(tuple(sign * x if (r < top) == (c < left) else -sign * x
                       for c, x in enumerate(row)) for r, row in enumerate(mat.data))


def _contraction(res_map: ChainMap, other: ChainMap, s: Homotopy, side: str) -> Homotopy:
    """The contraction of cone(res_map) written down from reduce_complex.

    res_map is to (injective) or back (projective) and other the map the
    other way; in the cone's layout, source^(n+1) first, H^n is
    [[-s^(n+1), back^n], [0, 0]] for to and [[0, to^n], [0, s^n]] for
    back (the proof is in resolve).
    """
    c = cone(res_map).complex
    src = res_map.src
    comps = []
    for n in range(c.lo, c.hi + 1):
        a, b = src.module(n).generators, src.module(n + 1).generators
        if side == INJECTIVE:
            blocks = ((0, 0, -1, _at(s, n + 1)), (0, b, 1, _at(other, n)))
        else:
            blocks = ((0, b, 1, _at(other, n)), (a, b, 1, _at(s, n)))
        comps.append(block_map(c.module(n), c.module(n - 1),
                               [blk for blk in blocks if blk[3] is not None]))
    return Homotopy(c, c, c.lo, tuple(comps))


def _recast(h: Homotopy, c: Complex, shift_by: int, u: Optional[ChainMap] = None) -> Homotopy:
    """h, contracting D, as a contraction of c = D[shift_by], or of
    c = cone(-u)[shift_by] when D = cone(u); c must have D's terms.

    Shifting multiplies d, so also h, by (-1)^shift_by, and cone(-u) has
    the differential S d S, S = -1 on the source summand, which S h S
    contracts.
    """
    sign = -1 if shift_by % 2 else 1
    comps = []
    for i in range(c.lo, c.hi + 1):
        here, below = c.module(i), c.module(i - 1)
        j = i + shift_by
        mat = _at(h, j)
        if mat is None:
            mat = IntMatrix.zeros(below.generators, here.generators)
        else:
            top, left = (0, 0) if u is None else (u.src.module(j).generators,
                                                  u.src.module(j + 1).generators)
            mat = c.ring.reduce_matrix(IntMatrix._trusted(
                mat.rows, mat.cols, _signed(mat, sign, top, left)))
        comps.append(ModuleMap(here, below, mat))
    return Homotopy(c, c, c.lo, tuple(comps))


# ---------------------------------------------------------------------------
# the resolver: reduce_complex


def _require_injective_scope(cx: Complex) -> None:
    if not all(termwise_ok(INJECTIVE, cx)):
        raise UnsupportedRing(
            "pure injective resolutions over the integers need torsion terms"
        )


def _reduced(m: Complex) -> tuple:
    """reduce_complex(m) with R trimmed to its nonzero window: (R, to,
    back, s).

    to: m -> R and back: R -> m keep reduce_complex's components, whose
    ends outside R's window are the zero modules R has there; s is
    reduce_complex's homotopy on m.
    """
    reduced, to, back, s = reduce_complex(m)
    r = trim(reduced)
    return (r, ChainMap(m, r, to.lo, to.components),
            ChainMap(r, m, back.lo, back.components), s)


def _resolution(m: Complex, side: str) -> tuple:
    """(R, res_map, witness): _reduced(m)'s to (injective) or back
    (projective) and the contraction of its cone, written down."""
    target, to, back, s = _reduced(m)
    if side == INJECTIVE:
        return target, to, _contraction(to, back, s, side)
    return target, back, _contraction(back, to, s, side)


def _top_witness(certs, f: ChainMap, base: Complex, side: str) -> Homotopy:
    """The contraction of cone(f), f the top level map of a tower with
    cone certificates certs over the base truncation base.

    cone(f) is cone(-g)[-1] (injective) or cone(-w) (projective)
    literally, g or w the last cone certificate's map, so its witness is
    recast; at depth 0 f is base's own resolution map.
    """
    if not certs:
        return _resolution(base, side)[2]
    return _recast(certs[-1].qis_witness, cone(f).complex,
                   -1 if side == INJECTIVE else 0, certs[-1].map)


# ---------------------------------------------------------------------------
# degreewise families (sections and retractions are not chain maps)


class DegreewiseFamily(Record):
    """A bare family of module maps, one per degree, no chain condition."""

    __slots__ = ("src", "tgt", "lo", "components")

    def __init__(self, src: Complex, tgt: Complex, lo: int, components: tuple) -> None:
        _set(self, "src", src)
        _set(self, "tgt", tgt)
        _set(self, "lo", lo)
        _set(self, "components", components)


# ---------------------------------------------------------------------------
# the shared extension steps


def _extend_injective(q: ChainMap, stable: Optional[Homotopy] = None):
    """Extend a level along q: N -> I.

    Returns (level, h: N -> level, p: level -> I, section, kern,
    kern_incl, g, hg) where g: cone(q) -> J is the uncertified resolution
    of the cone and hg a contraction of cone(g), level is
    cone(-g . incl)[-1] for the cone's inclusion incl: I -> cone(q),
    degreewise I (+) J[-1], p and kern_incl are the projection and
    inclusion of that cone shifted with it, so p is the degreewise split
    projection with kernel J[-1], and p . h = q on the nose.

    J is the reduced cone itself and g its map to: cone(q) -> J, as
    resolve takes them (_resolution): the terms of the cone are those of
    N and I, in scope, so J's are pure injective and to is a pure
    injective resolution by resolve's proof.  Each level adds no copy of
    the contractible summands the previous one made.  A stable step
    passes a contraction of cone(q) as stable; then J = 0 and
    cone(g) = cone(q)[1].  The level, h and the product formula are
    built from g alone, so the degreewise product formula and
    cone(h) = cone(-g)[-1] hold literally.
    """
    n_cx, i_cx = q.src, q.tgt
    cq = cone(q)
    if stable is not None:
        j_cx = zero_complex(q.src.ring)
        g = zero_chain_map(cq.complex, j_cx)
        hg = _recast(stable, cone(g).complex, 1)
    else:
        j_cx, g, hg = _resolution(cq.complex, INJECTIVE)
    level_cone = cone(-(g @ cq.inclusion))
    level = shift(level_cone.complex, -1)
    p = shift_map(level_cone.projection, -1)
    kern_incl = shift_map(level_cone.inclusion, -1)
    kern = kern_incl.src
    lo = level.lo
    h_comps = []
    section_comps = []
    for d in range(lo, level.hi + 1):
        n_mod, i_mod, total = n_cx.module(d), i_cx.module(d), level.module(d)
        blocks = [(0, 0, 1, q.component(d).matrix)]
        if n_mod.generators and cq.complex.module(d - 1).generators:
            # the cone's degree d-1 term starts with N^d
            g_d = g.component(d - 1).matrix
            n_part = IntMatrix.from_rows(row[:n_mod.generators] for row in g_d.data)
            blocks.append((i_mod.generators, 0, 1, n_part))
        h_comps.append(block_map(n_mod, total, blocks))
        section_comps.append(summand_injection(i_mod, total, 0))
    h = ChainMap(n_cx, level, lo, tuple(h_comps))
    section = DegreewiseFamily(i_cx, level, lo, tuple(section_comps))
    return level, h, p, section, kern, kern_incl, g, hg


def _extend_projective(a: ChainMap, stable: Optional[Homotopy] = None):
    """Extend a level along a: P -> N.

    Returns (level, v: level -> N, incl: P -> level, retraction, coker,
    coker_proj, w, hw) where w: Q -> cone(a) is the uncertified
    resolution of the cone and hw a contraction of cone(w), level is
    degreewise Q (+) P, incl is the degreewise split inclusion with
    cokernel Q, and v . incl = a on the nose.

    Q is the reduced cone itself and w its map back: Q -> cone(a), as
    resolve takes them (_resolution); a pure projective resolution by
    resolve's proof.  A stable step passes a contraction of cone(a) as
    stable; then Q = 0 and cone(w) = cone(a).  The level, v and the sum
    formula read only w and Q, so the degreewise sum formula and
    cone(v) = cone(-w) hold literally.
    """
    p_cx, n_cx = a.src, a.tgt
    ca = cone(a)
    if stable is not None:
        q_cx = zero_complex(a.src.ring)
        w = zero_chain_map(q_cx, ca.complex)
        hw = _recast(stable, cone(w).complex, 0)
    else:
        q_cx, w, hw = _resolution(ca.complex, PROJECTIVE)
    w1 = shift_map(ca.projection @ w, -1)
    level_cone = cone(w1)
    level = level_cone.complex
    incl = level_cone.inclusion
    lo = level.lo
    v_comps = []
    retr_comps = []
    for d in range(lo, level.hi + 1):
        gq = q_cx.module(d).generators
        total = level.module(d)
        n_mod = n_cx.module(d)
        cmod = ca.complex.module(d)
        blocks = [(0, gq, 1, a.component(d).matrix)]
        if gq and cmod.generators and n_mod.generators:
            # w lands in cone(a)^d = P^(d+1) (+) N^d; v uses its N^d rows
            rows = w.component(d).matrix.data[cmod.generators - n_mod.generators:]
            blocks.append((0, 0, -1, IntMatrix(n_mod.generators, gq, rows)))
        v_comps.append(block_map(total, n_mod, blocks))
        retr_comps.append(summand_projection(total, p_cx.module(d), gq))
    v = ChainMap(level, n_cx, lo, tuple(v_comps))
    retraction = DegreewiseFamily(level, p_cx, lo, tuple(retr_comps))
    coker = q_cx
    proj_comps = []
    for d in range(lo, level.hi + 1):
        proj_comps.append(summand_projection(level.module(d), q_cx.module(d), 0))
    coker_proj = ChainMap(level, coker, lo, tuple(proj_comps))
    return level, v, incl, retraction, coker, coker_proj, w, hw


# ---------------------------------------------------------------------------
# towers


class SemiSplitInverseTower(Record):
    """Levels resolving deeper and deeper co-truncations of the source.

    Each surjection splits degree by degree and its kernel is a bounded
    complex of pure injectives, which validate_inverse_tower re-reads off
    its terms; cone_certificates carry the inner resolutions that make the
    level-step cone identity literal.
    """

    __slots__ = ("source", "truncations", "transitions", "levels", "surjections",
                 "sections", "kernels", "kernel_inclusions", "cone_certificates")

    def __init__(self, source: Complex, truncations: tuple, transitions: tuple,
                 levels: tuple, surjections: tuple, sections: tuple, kernels: tuple,
                 kernel_inclusions: tuple, cone_certificates: tuple) -> None:
        _set(self, "source", source)
        _set(self, "truncations", truncations)
        _set(self, "transitions", transitions)
        _set(self, "levels", levels)
        _set(self, "surjections", surjections)
        _set(self, "sections", sections)
        _set(self, "kernels", kernels)
        _set(self, "kernel_inclusions", kernel_inclusions)
        _set(self, "cone_certificates", cone_certificates)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


class SemiSplitDirectTower(Record):
    """Levels resolving longer and longer truncations of the source.

    Each inclusion splits degree by degree and its cokernel is a bounded
    complex of finitely presented, hence pure projective, terms;
    cone_certificates carry the inner resolutions that make the
    level-step cone identity literal.
    """

    __slots__ = ("source", "truncations", "transitions", "levels", "injections",
                 "retractions", "cokernels", "cokernel_projections", "cone_certificates")

    def __init__(self, source: Complex, truncations: tuple, transitions: tuple,
                 levels: tuple, injections: tuple, retractions: tuple, cokernels: tuple,
                 cokernel_projections: tuple, cone_certificates: tuple) -> None:
        _set(self, "source", source)
        _set(self, "truncations", truncations)
        _set(self, "transitions", transitions)
        _set(self, "levels", levels)
        _set(self, "injections", injections)
        _set(self, "retractions", retractions)
        _set(self, "cokernels", cokernels)
        _set(self, "cokernel_projections", cokernel_projections)
        _set(self, "cone_certificates", cone_certificates)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def injective_tower(m: Complex, depth: int):
    """Build the inverse tower of resolutions of the co-truncations.

    Returns (tower, fs) with fs[n] the resolution map of the n-th
    co-truncation.  Stabilized steps extend by the zero resolution, so
    the degreewise product formula stays literally true at every level.
    """
    _require_injective_scope(m)
    m = trim(m)
    if depth < 0:
        raise InputError("tower depth must be nonnegative")
    truncations = []
    transitions = []
    for n in range(depth + 1):
        t_n, _ = truncate_geq(m, -n)
        truncations.append(t_n)
        if n >= 1:
            _, proj = truncate_geq(truncations[n], -(n - 1))
            if proj.tgt != truncations[n - 1]:
                raise WorkbenchError("truncation tower is not nested literally")
            transitions.append(proj)
    base, f0, _, _ = _reduced(truncations[0])
    levels, fs = [base], [f0]
    surjections, sections = [], []
    kernels, kernel_incls, cone_certs = [], [], []
    for n in range(1, depth + 1):
        q = fs[n - 1] @ transitions[n - 1]
        stable = None
        if truncations[n] == truncations[n - 1]:
            stable = _top_witness(cone_certs, fs[-1], truncations[0], INJECTIVE)
        level, h, p, section, kern, kern_incl, g, hg = _extend_injective(q, stable)
        levels.append(level)
        fs.append(h)
        surjections.append(p)
        sections.append(section)
        kernels.append(kern)
        kernel_incls.append(kern_incl)
        cone_certs.append(_certificate(g.src, g.tgt, g, INJECTIVE, hg))
    tower = SemiSplitInverseTower(
        m, tuple(truncations), tuple(transitions), tuple(levels),
        tuple(surjections), tuple(sections), tuple(kernels),
        tuple(kernel_incls), tuple(cone_certs),
    )
    return tower, tuple(fs)


def projective_tower(m: Complex, depth: int):
    """Dual tower: resolutions of the truncations linked by split monos."""
    m = trim(m)
    if depth < 0:
        raise InputError("tower depth must be nonnegative")
    truncations = []
    transitions = []
    incls = []
    for n in range(depth + 1):
        t_n, incl = truncate_leq(m, n)
        truncations.append(t_n)
        incls.append(incl)
        if n >= 1:
            # truncate_leq(m, n) agrees with m below n, where its inclusion
            # is the identity, and the (n-1)-th truncation stops below n
            transitions.append(ChainMap(truncations[n - 1], t_n, incls[n - 1].lo,
                                        incls[n - 1].components))
    base, _, f0, _ = _reduced(truncations[0])
    levels, fs = [base], [f0]
    injections, retractions = [], []
    cokernels, coker_projs, cone_certs = [], [], []
    for n in range(1, depth + 1):
        a = transitions[n - 1] @ fs[n - 1]
        stable = None
        if truncations[n] == truncations[n - 1]:
            stable = _top_witness(cone_certs, fs[-1], truncations[0], PROJECTIVE)
        level, v, incl, retraction, coker, coker_proj, w, hw = _extend_projective(a, stable)
        levels.append(level)
        fs.append(v)
        injections.append(incl)
        retractions.append(retraction)
        cokernels.append(coker)
        coker_projs.append(coker_proj)
        cone_certs.append(_certificate(w.tgt, w.src, w, PROJECTIVE, hw))
    tower = SemiSplitDirectTower(
        m, tuple(truncations), tuple(transitions), tuple(levels),
        tuple(injections), tuple(retractions), tuple(cokernels),
        tuple(coker_projs), tuple(cone_certs),
    )
    return tower, tuple(fs)


# ---------------------------------------------------------------------------
# tower validation


def _modules_match(x: FpModule, y: FpModule) -> bool:
    if x.generators == 0 and y.generators == 0:
        return True
    return x == y


def _matches_cone(c: Complex, u: ChainMap, shift_by: int) -> bool:
    """Is c literally cone(-u)[shift_by]?  Read off the cone kept on u: the
    degree i term is cone(u)^(i+shift_by) and the differential
    (-1)^shift_by S d S, S = -1 on the source summand, so no map or cone
    is formed.  Zero terms match whatever their presentation, and the
    maps touching one are forced, so only the rest are compared."""
    b = cone(u).complex
    if c.ring != b.ring:
        return False
    sign = -1 if shift_by % 2 else 1
    for i in range(min(c.lo, b.lo - shift_by), max(c.hi, b.hi - shift_by) + 1):
        j = i + shift_by
        here, above = c.module(i), c.module(i + 1)
        if not _modules_match(here, b.module(j)):
            return False
        if not (here.generators and above.generators):
            continue
        signed = _signed(b.diffs[j - b.lo].matrix, sign, u.src.module(j + 2).generators,
                         u.src.module(j + 1).generators)
        if not c.diffs[i - c.lo].equals(ModuleMap(here, above, IntMatrix._trusted(
                above.generators, here.generators, signed))):
            return False
    return True


def check_inverse_level_cone_identity(tower: SemiSplitInverseTower, fs,
                                      n: int) -> bool:
    """The level-n extension satisfies cone(f_n) = cone(-g)[-1] literally."""
    return _matches_cone(cone(fs[n]).complex, tower.cone_certificates[n - 1].map, -1)


def check_direct_level_cone_identity(tower: SemiSplitDirectTower, fs,
                                     n: int) -> bool:
    """The level-n extension satisfies cone(f_n) = cone(-w) literally."""
    return _matches_cone(cone(fs[n]).complex, tower.cone_certificates[n - 1].map, 0)


def validate_inverse_tower(tower: SemiSplitInverseTower, fs) -> bool:
    """Degreewise split exactness, pure injective kernels, cone identities.

    Every identity is a sum of products checked by vanishes; p^i . s^i = id
    makes p^i onto, so that needs no check of its own, and _certificate
    checked each cone certificate where it was made.
    """
    for n in range(1, tower.depth + 1):
        p, s, t = tower.surjections[n - 1], tower.sections[n - 1], tower.transitions[n - 1]
        prev, kern, ki = tower.levels[n - 1], tower.kernels[n - 1], tower.kernel_inclusions[n - 1]
        if not (vanishes(prev, prev, ((1, p, s), (-1,))) and p.is_chain_map()
                and ki.is_chain_map()
                and all(is_injective(ki.component(i)) for i in range(kern.lo, kern.hi + 1))
                and vanishes(kern, prev, ((1, p, ki),)) and all(termwise_ok(INJECTIVE, kern))
                and check_inverse_level_cone_identity(tower, fs, n)
                and vanishes(fs[n].src, prev, ((1, p, fs[n]), (-1, fs[n - 1], t)))):
            return False
    return True


def validate_direct_tower(tower: SemiSplitDirectTower, fs) -> bool:
    """Degreewise split monos and cone identities.

    Every identity is a sum of products checked by vanishes; r^i . incl^i
    = id makes incl^i one to one, and every finitely presented cokernel
    term is pure projective, so neither needs a check of its own;
    _certificate checked each cone certificate where it was made.
    """
    for n in range(1, tower.depth + 1):
        incl, r, t = tower.injections[n - 1], tower.retractions[n - 1], tower.transitions[n - 1]
        level, prev, cp = tower.levels[n], tower.levels[n - 1], tower.cokernel_projections[n - 1]
        if not (vanishes(prev, prev, ((1, r, incl), (-1,))) and incl.is_chain_map()
                and cp.is_chain_map()
                and all(is_surjective(cp.component(i)) for i in range(level.lo, level.hi + 1))
                and vanishes(prev, cp.tgt, ((1, cp, incl),))
                and check_direct_level_cone_identity(tower, fs, n)
                and vanishes(prev, fs[n].tgt, ((1, fs[n], incl), (-1, t, fs[n - 1])))):
            return False
    return True


# ---------------------------------------------------------------------------
# limits


def required_depth(m: Complex, side: str) -> int:
    m = trim(m)
    if not m.modules:
        return 0
    if side == INJECTIVE:
        return max(0, -m.lo)
    return max(0, m.hi)


def check_limit_product_formula(tower: SemiSplitInverseTower) -> bool:
    """Top level degree j equals I_0^j (+) sum of kernel terms, literally."""
    top = tower.levels[-1]
    base = tower.levels[0]
    for j in range(top.lo, top.hi + 1):
        parts = [base.module(j)]
        for kern in tower.kernels:
            parts.append(kern.module(j))
        want = sum_module(parts)
        if not _modules_match(top.module(j), want):
            return False
    return True


def check_colimit_sum_formula(tower: SemiSplitDirectTower) -> bool:
    """Top level degree j equals the cokernel terms plus P_0^j, literally."""
    top = tower.levels[-1]
    base = tower.levels[0]
    for j in range(top.lo, top.hi + 1):
        parts = []
        for coker in reversed(tower.cokernels):
            parts.append(coker.module(j))
        parts.append(base.module(j))
        want = sum_module(parts)
        if not _modules_match(top.module(j), want):
            return False
    return True


def _check_tower(tower, fs, side: str) -> None:
    """Raise unless the (co)limit can be read off the tower; solves nothing.

    Depth, product or sum formula, degreewise surjective transitions
    (injective side), then validate_*_tower: each check runs once, and
    the tower's cone certificates were checked where they were made.
    """
    need = required_depth(tower.source, side)
    if tower.depth < need or tower.truncations[-1] != tower.source:
        raise DepthInsufficient(need)
    if side == INJECTIVE:
        if not check_limit_product_formula(tower):
            raise WorkbenchError("tower levels violate the degreewise product formula")
        for t in tower.transitions:
            for i in range(t.src.lo, t.src.hi + 1):
                if not is_surjective(t.component(i)):
                    raise WorkbenchError("truncation transition is not degreewise surjective")
        valid = validate_inverse_tower(tower, fs)
    else:
        if not check_colimit_sum_formula(tower):
            raise WorkbenchError("tower levels violate the degreewise sum formula")
        valid = validate_direct_tower(tower, fs)
    if not valid:
        raise WorkbenchError("tower invariants fail to re-validate")


def _tower_top(tower, fs, side: str) -> ResolutionCertificate:
    _check_tower(tower, fs, side)
    witness = _top_witness(tower.cone_certificates, fs[-1], tower.truncations[0], side)
    return _certificate(tower.source, tower.levels[-1], fs[-1], side, witness)


def limit_tower(tower: SemiSplitInverseTower, fs) -> ResolutionCertificate:
    """Read the limit off the stabilized tower and certify it directly.

    Raises unless the tower passes validate_inverse_tower and the product
    formula (_check_tower); the certificate contracts the cone of fs[-1]
    with the last cone certificate's witness recast (_top_witness), which
    the checked identity cone(f_n) = cone(-g)[-1] makes a contraction.
    """
    return _tower_top(tower, fs, INJECTIVE)


def colimit_tower(tower: SemiSplitDirectTower, fs) -> ResolutionCertificate:
    """Read the colimit off the stabilized tower and certify it directly.

    Raises unless the tower passes validate_direct_tower and the sum
    formula (_check_tower); the certificate contracts the cone of fs[-1]
    with the last cone certificate's witness recast (_top_witness), which
    the checked identity cone(f_n) = cone(-w) makes a contraction.
    """
    return _tower_top(tower, fs, PROJECTIVE)


# ---------------------------------------------------------------------------
# resolve


def resolve(m: Complex, side: str, depth: Optional[int] = None) -> ResolutionCertificate:
    """Resolve either way by reducing the input: reduce_complex(trim(m)).

    With (R, to, back) = reduce_complex(m) and R trimmed to its nonzero
    window (_reduced), the projective side certifies back: R -> m and
    the injective side, for m in its scope (_require_injective_scope),
    to: m -> R.  A depth is only checked: below the tower depth the side
    would need (required_depth) it raises DepthInsufficient, and any
    other depth, or none, gives the same certificate.  No tower is
    built; towers and limit_tower / colimit_tower build the paper's
    (co)limits.

    Proof that back is a pure projective resolution and to a pure
    injective one.
    (1) reduce_complex's lemma: to and back are chain maps with
    to . back = id and id - back . to = d s + s d, so both are homotopy
    equivalences, and the cone of a homotopy equivalence is
    contractible, hence pure acyclic: tensored with any module it stays
    contractible, so exact.
    (2) The terms of R are summands of m's minimized terms, each a
    finite direct sum of cyclic modules over the ring.  Every finitely
    presented module is pure projective, so R is a bounded complex of
    pure projectives.  In the injective scope m's terms are torsion over
    Z or lie over Z/m, so R's summands of them are too, and those are
    pure injective (termwise_ok).
    (3) A bounded complex P of pure projectives is K-pure projective:
    Hom_K(P, A) = 0 for every pure acyclic A.  For P one term X in
    degree n, Hom_K(X[-n], A) = H^n Hom(X, A), and Hom(X, -) keeps a
    pure acyclic complex exact since X is pure projective.  A longer P
    is an extension of its top term by the rest, split degree by
    degree, so a triangle in K, and Hom_K(-, A) turns it into a long
    exact sequence whose outer terms vanish by induction on the length.
    Dually a bounded complex I of pure injectives is K-pure injective:
    Hom_K(A, I) = 0, since Hom(-, Y) keeps a pure acyclic complex exact
    for Y pure injective.
    So back: R -> m is a map from a K-pure projective complex with pure
    acyclic cone, which is a pure projective resolution, and to: m -> R
    is one into a K-pure injective complex with pure acyclic cone, a
    pure injective resolution.  The certificate re-checks what the
    proof uses: a contraction H of the cone of the map, written down
    from (1), and the flags read off R's terms.  In the cone's layout,
    source^(n+1) first, with s also reduce_complex's side conditions
    s . back = 0 and to . s = 0:
    for back: R -> m, H^n = [[0, to^n], [0, s^n]].  The cone's d^n is
    [[-d, 0], [back, d]], and d H + H d has blocks to . back = id,
    -d to + to d = 0, s . back = 0 and back . to + d s + s d = id.
    For to: m -> R, H^n = [[-s^(n+1), back^n], [0, 0]].  Here d H + H d
    has blocks d s + s d + back . to = id, back d - d back = 0,
    -to . s = 0 and to . back = id.
    _certificate refuses the certificate unless validate_certificate
    accepts it, H's contraction included (Homotopy.witnesses).  A
    homotopy equivalent target is homotopy equivalent to the (co)limit
    of any tower that resolves m, so anything read off its homology, or
    off tensor and hom complexes built from it, agrees.
    """
    if side not in (INJECTIVE, PROJECTIVE):
        raise InputError("side must be injective or projective")
    if depth is not None:
        need = required_depth(m, side)
        if depth < need:
            raise DepthInsufficient(need)
    if side == INJECTIVE:
        _require_injective_scope(m)
    m = trim(m)
    target, res_map, witness = _resolution(m, side)
    return _certificate(m, target, res_map, side, witness)
