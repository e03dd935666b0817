"""Constructive pure injective and pure projective resolutions.

resolve has one resolver, reduce_complex: it cancels the contractible
summands of the input, and the reduced complex is its own resolution on
either side, since every finitely presented term is pure projective and
every term in the injective scope is pure injective (the proof is in
resolve's docstring).
The paper's (co)limits are built on request, from one semi-split tower
(SemiSplitTower, built by _tower) whose side picks the truncations: the
co-truncations with split surjections between levels (injective, the
inverse tower) or the truncations with split inclusions (projective, the
direct tower), after Spaltenstein.  Each level extends the one below
along a cone, resolved by reducing it; at a stable step that cone is
contractible, and reduce_complex, complete there, reduces it to zero.
The (co)limit at finite depth is the top level, read off once
validate_tower and check_sum_formula accept the tower (_tower_top).
Every certificate is checked once, by validate_certificate where it is
made (_certificate), and nothing is solved for: the contraction of its
cone is written down from reduce_complex's homotopy (_contraction), or
recast from a tower's last cone certificate (_recast).  Every
certificate re-validates from scratch.
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


def _recast(h: Homotopy, c: Complex, shift_by: int, u: ChainMap) -> Homotopy:
    """h, contracting cone(u), as a contraction of c = cone(-u)[shift_by].

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
            mat = c.ring.reduce_matrix(IntMatrix._trusted(mat.rows, mat.cols, _signed(
                mat, sign, u.src.module(j).generators, u.src.module(j + 1).generators)))
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


def _extend_injective(q: ChainMap):
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
    the contractible summands the previous one made.  At a stable step q
    is a homotopy equivalence, so cone(q) is contractible, reduce_complex
    reduces it to zero, and J = 0.  The level, h and the product formula
    are built from g alone, so the degreewise product formula and
    cone(h) = cone(-g)[-1] hold literally.
    """
    n_cx, i_cx = q.src, q.tgt
    cq = cone(q)
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


def _extend_projective(a: ChainMap):
    """Extend a level along a: P -> N.

    Returns (level, v: level -> N, incl: P -> level, retraction, coker,
    coker_proj, w, hw) where w: Q -> cone(a) is the uncertified
    resolution of the cone and hw a contraction of cone(w), level is
    degreewise Q (+) P, incl is the degreewise split inclusion with
    cokernel Q, and v . incl = a on the nose.

    Q is the reduced cone itself and w its map back: Q -> cone(a), as
    resolve takes them (_resolution); a pure projective resolution by
    resolve's proof.  At a stable step cone(a) is contractible, so Q = 0
    (_extend_injective).  The level, v and the sum formula read only w
    and Q, so the degreewise sum formula and cone(v) = cone(-w) hold
    literally.
    """
    p_cx, n_cx = a.src, a.tgt
    ca = cone(a)
    q_cx, w, hw = _resolution(ca.complex, PROJECTIVE)
    w1 = shift_map(ca.projection @ w, -1)
    level_cone = cone(w1)
    level = level_cone.complex
    incl = level_cone.inclusion
    lo = level.lo
    v_comps, retr_comps, proj_comps = [], [], []
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
        proj_comps.append(summand_projection(total, q_cx.module(d), 0))
    v = ChainMap(level, n_cx, lo, tuple(v_comps))
    retraction = DegreewiseFamily(level, p_cx, lo, tuple(retr_comps))
    coker_proj = ChainMap(level, q_cx, lo, tuple(proj_comps))
    return level, v, incl, retraction, q_cx, coker_proj, w, hw


# ---------------------------------------------------------------------------
# towers


class SemiSplitTower(Record):
    """Levels resolving deeper and deeper truncations of the source.

    side "injective": the inverse tower of the co-truncations; downs are
    the surjections levels[n] -> levels[n-1], chain maps, ups their
    degreewise sections, complements the kernels, bounded complexes of
    pure injectives, and complement_maps their inclusions.
    side "projective": the direct tower of the truncations; ups are the
    inclusions levels[n-1] -> levels[n], chain maps, downs their
    degreewise retractions, complements the cokernels, finitely presented
    hence pure projective, and complement_maps the projections onto them.
    Either way downs[n-1] . ups[n-1] = id, cone_certificates[n-1]
    certifies the inner resolution that makes level n's cone identity
    literal, and base_witness contracts the cone of the base's
    resolution map, the top's witness at depth 0.
    """

    __slots__ = ("side", "source", "truncations", "transitions", "levels", "downs", "ups",
                 "complements", "complement_maps", "cone_certificates", "base_witness")

    def __init__(self, side: str, source: Complex, truncations: tuple, transitions: tuple,
                 levels: tuple, downs: tuple, ups: tuple, complements: tuple,
                 complement_maps: tuple, cone_certificates: tuple,
                 base_witness: Homotopy) -> None:
        _set(self, "side", side)
        _set(self, "source", source)
        _set(self, "truncations", truncations)
        _set(self, "transitions", transitions)
        _set(self, "levels", levels)
        _set(self, "downs", downs)
        _set(self, "ups", ups)
        _set(self, "complements", complements)
        _set(self, "complement_maps", complement_maps)
        _set(self, "cone_certificates", cone_certificates)
        _set(self, "base_witness", base_witness)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


# cone(f_n) = cone(-inner)[shift] at every level of a side's tower
_CONE_SHIFT = {INJECTIVE: -1, PROJECTIVE: 0}


def _tower(m: Complex, depth: int, side: str):
    """Build the side's tower of the given depth: (tower, fs), fs[n] the
    resolution map of the n-th truncation.

    The truncations keep degrees >= -n (injective) or <= n (projective).
    Level 0 is the base's resolution (_resolution), and level n extends
    level n-1 along its map composed with the transition
    (_extend_injective / _extend_projective).  A stabilized step resolves
    a contractible cone, which reduce_complex reduces to zero, so it
    extends by the zero complex and the degreewise sum formula stays
    literally true at every level.
    """
    injective = side == INJECTIVE
    if injective:
        _require_injective_scope(m)
    m = trim(m)
    if depth < 0:
        raise InputError("tower depth must be nonnegative")
    truncations, transitions = [], []
    for n in range(depth + 1):
        if injective:
            t_n, _ = truncate_geq(m, -n)
            if n:
                _, proj = truncate_geq(t_n, -(n - 1))
                if proj.tgt != truncations[-1]:
                    raise WorkbenchError("truncation tower is not nested literally")
                transitions.append(proj)
        else:
            t_n, incl = truncate_leq(m, n)
            if n:
                # truncate_leq(m, n) agrees with m below n, where its inclusion
                # is the identity, and the (n-1)-th truncation stops below n
                transitions.append(ChainMap(truncations[-1], t_n, prev_incl.lo,
                                            prev_incl.components))
            prev_incl = incl
        truncations.append(t_n)
    base, f0, base_witness = _resolution(truncations[0], side)
    fs, steps, certs = [f0], [], []
    extend = _extend_injective if injective else _extend_projective
    for t in transitions:
        step = extend(fs[-1] @ t if injective else t @ fs[-1])
        inner, hw = step[6:]
        ends = (inner.src, inner.tgt) if injective else (inner.tgt, inner.src)
        certs.append(_certificate(*ends, inner, side, hw))
        fs.append(step[1])
        steps.append(step)
    # each step is (level, f_n, leg, split, complement, complement map, inner map, witness)
    levels, _, legs, splits, comps, comp_maps, _, _ = zip(*steps) if steps else ((),) * 8
    downs, ups = (legs, splits) if injective else (splits, legs)
    tower = SemiSplitTower(side, m, tuple(truncations), tuple(transitions), (base,) + levels,
                           downs, ups, comps, comp_maps, tuple(certs), base_witness)
    return tower, tuple(fs)


def injective_tower(m: Complex, depth: int):
    """The inverse tower of the co-truncations of m (_tower)."""
    return _tower(m, depth, INJECTIVE)


def projective_tower(m: Complex, depth: int):
    """The direct tower of the truncations of m (_tower)."""
    return _tower(m, depth, PROJECTIVE)


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


def validate_tower(tower: SemiSplitTower, fs) -> bool:
    """Degreewise split extensions, complements in the side's class, cone
    identities and commuting squares, level by level.

    Each composite below is read toward the base on the injective side
    and away from it on the projective side, and every identity is a sum
    of products checked by vanishes.  With leg the chain-map half of the
    split (the down injective, the up projective) and c the complement
    map, each level n has
    - down and up between levels[n] and levels[n-1], c meeting levels[n],
      f_n running from truncations[n] to levels[n] (the other way), and
      the transition from truncations[n] to truncations[n-1] (the other
      way), compared by identity first, then ==;
    - down . up = id, which makes the down onto or the up one to one, so
      neither needs a check of its own;
    - leg and c chain maps, c degreewise one to one (injective) or onto
      (projective), and leg . c = 0 (c . up = 0);
    - complement terms in the side's class (termwise_ok);
    - cone(f_n) = cone(-g)[-1] (injective) or cone(-w) (projective)
      literally, g or w the map of the level's cone certificate, which
      _certificate checked where it was made;
    - down . f_n = f_(n-1) . t (f_n . up = t . f_(n-1)), t the transition.
    """
    injective = tower.side == INJECTIVE
    split = is_injective if injective else is_surjective

    def vanishing(*terms):
        terms = [(k, a, b) if injective else (k, b, a) for k, a, b in terms]
        return vanishes(terms[0][2].src, terms[0][1].tgt, terms)

    def ends(f):
        return (f.src, f.tgt) if injective else (f.tgt, f.src)

    if not all(ends(f) == (trunc, level)
               for f, trunc, level in zip(fs, tower.truncations, tower.levels)):
        return False
    for n in range(1, tower.depth + 1):
        down, up, prev, level = (tower.downs[n - 1], tower.ups[n - 1], tower.levels[n - 1],
                                 tower.levels[n])
        leg, c = (down if injective else up), tower.complement_maps[n - 1]
        t = tower.transitions[n - 1]
        if not ((down.src, down.tgt, up.src, up.tgt) == (level, prev, prev, level)
                and ends(t) == (tower.truncations[n], tower.truncations[n - 1])
                and (c.tgt if injective else c.src) == level
                and vanishes(prev, prev, ((1, down, up), (-1,))) and leg.is_chain_map()
                and c.is_chain_map()
                and all(split(c.component(i)) for i in range(c.src.lo, c.src.hi + 1))
                and vanishing((1, leg, c))
                and all(termwise_ok(tower.side, tower.complements[n - 1]))
                and _matches_cone(cone(fs[n]).complex, tower.cone_certificates[n - 1].map,
                                  _CONE_SHIFT[tower.side])
                and vanishing((1, leg, fs[n]), (-1, fs[n - 1], t))):
            return False
    return True


def validate_inverse_tower(tower: SemiSplitTower, fs) -> bool:
    """validate_tower on an injective side tower."""
    return validate_tower(tower, fs)


def validate_direct_tower(tower: SemiSplitTower, fs) -> bool:
    """validate_tower on a projective side tower."""
    return validate_tower(tower, fs)


# ---------------------------------------------------------------------------
# limits


def required_depth(m: Complex, side: str) -> int:
    m = trim(m)
    if not m.modules:
        return 0
    if side == INJECTIVE:
        return max(0, -m.lo)
    return max(0, m.hi)


def check_sum_formula(tower: SemiSplitTower) -> bool:
    """Each degree of the top level is literally the sum of the base's
    and the complements' terms, in the order the steps lay them out:
    I_0 (+) K_1 (+) ... (+) K_n, the product formula of the limit
    (injective), or Q_n (+) ... (+) Q_1 (+) P_0 (projective).  A part
    over another ring violates it."""
    top, base = tower.levels[-1], tower.levels[0]
    if any(part.ring != top.ring for part in (base,) + tower.complements):
        return False
    for j in range(top.lo, top.hi + 1):
        parts = [base.module(j)] + [c.module(j) for c in tower.complements]
        if tower.side == PROJECTIVE:
            parts.reverse()
        if not _modules_match(top.module(j), sum_module(parts)):
            return False
    return True


def _check_tower(tower: SemiSplitTower, fs) -> None:
    """Raise unless the (co)limit can be read off the tower; solves nothing.

    Depth, sum formula, degreewise surjective transitions (injective
    side), then the validator, called through the side's entry point,
    whose name the bench's spans wrap: each check runs once, and the
    tower's cone certificates were checked where they were made.
    """
    injective = tower.side == INJECTIVE
    need = required_depth(tower.source, tower.side)
    if tower.depth < need or tower.truncations[-1] != tower.source:
        raise DepthInsufficient(need)
    if not check_sum_formula(tower):
        formula = "product" if injective else "sum"
        raise WorkbenchError(f"tower levels violate the degreewise {formula} formula")
    if injective:
        for t in tower.transitions:
            for i in range(t.src.lo, t.src.hi + 1):
                if not is_surjective(t.component(i)):
                    raise WorkbenchError("truncation transition is not degreewise surjective")
    if not (validate_inverse_tower if injective else validate_direct_tower)(tower, fs):
        raise WorkbenchError("tower invariants fail to re-validate")


def _tower_top(tower: SemiSplitTower, fs) -> ResolutionCertificate:
    """The certificate of fs[-1], once _check_tower passes.  cone(fs[-1])
    is cone(-g)[-1] (injective) or cone(-w) (projective) literally, g or
    w the last cone certificate's map, so its witness is recast; at
    depth 0 fs[-1] is the base's resolution map and its witness the
    base's, kept from the one reduction of the base."""
    _check_tower(tower, fs)
    certs = tower.cone_certificates
    witness = (_recast(certs[-1].qis_witness, cone(fs[-1]).complex,
                       _CONE_SHIFT[tower.side], certs[-1].map) if certs
               else tower.base_witness)
    return _certificate(tower.source, tower.levels[-1], fs[-1], tower.side, witness)


def limit_tower(tower: SemiSplitTower, fs) -> ResolutionCertificate:
    """The limit of an injective side tower, read off and certified (_tower_top)."""
    return _tower_top(tower, fs)


def colimit_tower(tower: SemiSplitTower, fs) -> ResolutionCertificate:
    """The colimit of a projective side tower, read off and certified (_tower_top)."""
    return _tower_top(tower, fs)


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
