"""Constructive pure injective and pure projective resolutions.

resolve runs the pushout (injective side) and pullback (projective
side) inductions degree by degree; every input is bounded, so these
resolve it whatever its window.  The towers of truncations whose levels
extend each other by degreewise split maps are built only on request
(injective_tower / projective_tower), and their (co)limit at finite
depth is read off degreewise and re-verified.
Every resolution is built, then certified once where kept: the builders
return a bare (target, map), and a cone is contracted only for a
certificate that is returned or stored in a tower.  Every certificate
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
    cokernel,
    factor_through_epi,
    factor_through_mono,
    identity_map,
    is_injective,
    is_surjective,
    kernel,
    pullback,
    pushout,
    sum_module,
    summand_injection,
    summand_projection,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    cone,
    hom_module_chain_map,
    hom_module_complex,
    homology_map,
    identity_chain_map,
    minimize_complex,
    reduce_complex,
    shift,
    shift_map,
    tensor_module_chain_map,
    tensor_module_complex,
    trim,
    truncate_geq,
    truncate_leq,
    zero_chain_map,
    zero_complex,
    zero_homotopy,
)
from purcat.homotopy import contract_complex

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
    """Re-check a certificate from scratch: direction, purity, contraction."""
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
    return w.witnesses(identity_chain_map(c))


def _certificate(source: Complex, target: Complex, res_map: ChainMap,
                 side: str) -> ResolutionCertificate:
    witness = contract_complex(cone(res_map).complex)
    if witness is None:
        raise WorkbenchError("resolution map has a non-contractible cone")
    return ResolutionCertificate(
        source, target, res_map, side, witness, termwise_ok(side, target)
    )


def _identity_cone_contraction(m: Complex, c: Complex) -> Homotopy:
    # degree i of the cone of the identity is m^(i+1) (+) m^i; sending
    # the second block onto the first block one degree down satisfies
    # d s + s d = id on the nose, so nothing has to be solved for
    comps = []
    for i in range(c.lo, c.hi + 1):
        rows = c.module(i - 1).generators
        cols = c.module(i).generators
        top = m.module(i + 1).generators
        keep = m.module(i).generators
        data = [[0] * cols for _ in range(rows)]
        for r in range(keep):
            data[r][top + r] = 1
        mat = IntMatrix(rows, cols, tuple(tuple(row) for row in data))
        comps.append(ModuleMap(c.module(i), c.module(i - 1), mat))
    return Homotopy(c, c, c.lo, tuple(comps))


def identity_resolution(m: Complex, side: str) -> ResolutionCertificate:
    """Certify a complex as its own resolution.

    Legitimate exactly when every term already lies in the class, which
    makes the bounded complex K-pure injective (or K-pure projective)
    and the identity a resolution map.  The certificate is as strong as
    a computed one: the qis witness is the explicit contraction of the
    identity cone, written down rather than solved for.
    """
    if side not in (INJECTIVE, PROJECTIVE):
        raise InputError("side must be injective or projective")
    flags = termwise_ok(side, m)
    if not all(flags):
        raise WorkbenchError(
            "a complex can stand as its own resolution only when every "
            "term is already in the class"
        )
    res_map = identity_chain_map(m)
    c = cone(res_map).complex
    if not c.modules:
        witness = zero_homotopy(c, c)
    else:
        witness = _identity_cone_contraction(m, c)
    return ResolutionCertificate(m, m, res_map, side, witness, flags)


# ---------------------------------------------------------------------------
# bounded builders


def _require_injective_scope(cx: Complex) -> None:
    if not all(termwise_ok(INJECTIVE, cx)):
        raise UnsupportedRing(
            "pure injective resolutions over the integers need torsion terms"
        )


def _rewindow_map(f: ChainMap, src: Complex, tgt: Complex) -> ChainMap:
    """Rebuild f against trimmed or extended windows of the same terms."""
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        a, b = src.module(i), tgt.module(i)
        if c.src == a and c.tgt == b:
            comps.append(c)
        else:
            comps.append(zero_map(a, b))
    return ChainMap(src, tgt, lo, tuple(comps))


def _build_injective(m: Complex):
    """The pushout induction; returns (I, u: m -> I) on window [lo, hi+1]."""
    ring = m.ring
    lo, hi = m.lo, m.hi
    i_mods = [m.module(lo)]
    i_diffs = []
    u_comps = [identity_map(m.module(lo))]
    coker_proj = identity_map(m.module(lo))
    for k in range(lo + 1, hi + 2):
        q_prev = coker_proj @ u_comps[-1]
        d_prev = m.differential(k - 1)
        c_k, from_b, from_c = pushout(d_prev, q_prev)
        i_mods.append(c_k)
        i_diffs.append(from_c @ coker_proj)
        u_comps.append(from_b)
        _, coker_proj = cokernel(i_diffs[-1])
    i_cx = Complex(ring, lo, tuple(i_mods), tuple(i_diffs))
    u = ChainMap(m, i_cx, lo, tuple(u_comps))
    return i_cx, u


def _injective_resolution(m: Complex, minimal: bool = False):
    """(I, u: m -> I), minimal, uncertified; u is rewindowed to m's window.

    minimal says that m's terms are minimal already (reduce_complex's
    output), so they are not minimized again.
    """
    _require_injective_scope(m)
    t = trim(m)
    target = zero_complex(m.ring)
    res_map = zero_chain_map(m, target)
    if t.modules:
        mini, to_min = t, None
        if not minimal:
            mini, to_min, _ = minimize_complex(t)
        i_raw, u_raw = _build_injective(mini)
        i_trim = trim(i_raw)
        u_trim = _rewindow_map(u_raw, mini, i_trim)
        target, to_i, _ = minimize_complex(i_trim)
        res_map = to_i @ u_trim
        res_map = res_map if to_min is None else res_map @ to_min
    return target, _rewindow_map(res_map, m, target)


def _bounded_certificate(m: Complex, target: Complex, res_map: ChainMap,
                         side: str) -> ResolutionCertificate:
    if m.modules:
        return _certificate(m, target, res_map, side)
    # the cone of a map between empty complexes has a one-term zero window;
    # its contraction is written down as the empty homotopy
    c = cone(res_map).complex
    return ResolutionCertificate(m, target, res_map, side, zero_homotopy(c, c), ())


def resolve_injective_bounded_below(m: Complex) -> ResolutionCertificate:
    """Resolve by pure injectives via the degreewise pushout induction.

    Each step pushes the differential out along the previous embedding's
    cokernel; in scope the pushout term is already pure injective, so
    the embedding of each new term is the identity.
    """
    m = trim(m)
    return _bounded_certificate(m, *_injective_resolution(m), INJECTIVE)


def _build_projective(m: Complex):
    """The pullback induction; returns (P, v: P -> m) on window [lo-1, hi]."""
    ring = m.ring
    lo, hi = m.lo, m.hi
    p_mods = [m.module(hi)]
    p_diffs = []
    v_comps = [identity_map(m.module(hi))]
    ker_incl = identity_map(m.module(hi))
    for k in range(hi - 1, lo - 2, -1):
        edge = v_comps[0] @ ker_incl
        l_k, to_b, to_c = pullback(m.differential(k), edge)
        p_mods.insert(0, l_k)
        p_diffs.insert(0, ker_incl @ to_c)
        v_comps.insert(0, to_b)
        _, ker_incl = kernel(p_diffs[0])
    p_cx = Complex(ring, lo - 1, tuple(p_mods), tuple(p_diffs))
    v = ChainMap(p_cx, m, lo - 1, tuple(v_comps))
    return p_cx, v


def _projective_resolution(m: Complex, minimal: bool = False):
    """(P, v: P -> m), minimal, uncertified; v is rewindowed to m's window.

    minimal says that m's terms are minimal already, as for
    _injective_resolution.
    """
    t = trim(m)
    target = zero_complex(m.ring)
    res_map = zero_chain_map(target, m)
    if t.modules:
        mini, back_min = t, None
        if not minimal:
            mini, _, back_min = minimize_complex(t)
        p_raw, v_raw = _build_projective(mini)
        p_trim = trim(p_raw)
        v_trim = _rewindow_map(v_raw, p_trim, mini)
        target, _, back_p = minimize_complex(p_trim)
        res_map = v_trim if back_min is None else back_min @ v_trim
        res_map = res_map @ back_p
    return target, _rewindow_map(res_map, target, m)


def resolve_projective_bounded_above(m: Complex) -> ResolutionCertificate:
    """Resolve by pure projectives via the degreewise pullback induction.

    In scope every finitely presented module is pure projective, so each
    new term covers its pullback by the identity.
    """
    m = trim(m)
    return _bounded_certificate(m, *_projective_resolution(m), PROJECTIVE)


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

    def component(self, i: int) -> ModuleMap:
        k = i - self.lo
        if 0 <= k < len(self.components):
            return self.components[k]
        return zero_map(self.src.module(i), self.tgt.module(i))


# ---------------------------------------------------------------------------
# the shared extension steps


def _extend_injective(q: ChainMap, stable: bool = False):
    """Extend a level along q: N -> I.

    Returns (level, h: N -> level, p: level -> I, section, kern,
    kern_incl, g) where g: cone(q) -> J is the uncertified resolution of
    the cone (the zero complex when stable, the cone being contractible),
    level is degreewise I (+) J[-1], p is the degreewise split projection
    with kernel J[-1], and p . h = q on the nose.

    J resolves the reduced cone R (reduce_complex), not the cone itself,
    so each level adds no copy of the contractible summands the previous
    one made, and g is the composite g0 . to of the resolution
    g0: R -> J with to: cone(q) -> R.  Both are homotopy equivalences,
    so cone(g) is contractible and its certificate contracts it.  The
    level, h and the product formula are built from g alone, whichever
    g it is, so the degreewise product formula and cone(h) = cone(-g)[-1]
    hold literally.
    """
    n_cx, i_cx = q.src, q.tgt
    ring = q.src.ring
    cq = cone(q)
    if stable:
        j_cx = zero_complex(ring)
        g = zero_chain_map(cq.complex, j_cx)
    else:
        reduced, to, _ = reduce_complex(cq.complex)
        j_cx, g0 = _injective_resolution(reduced, minimal=True)
        g = g0 @ to
    gpp = g @ cq.inclusion
    lo = min(i_cx.lo, j_cx.lo + 1)
    hi = max(i_cx.hi, j_cx.hi + 1)
    mods = []
    injs_i, injs_j, projs_i = [], [], []
    for d in range(lo, hi + 1):
        i_mod, j_mod = i_cx.module(d), j_cx.module(d - 1)
        total = sum_module([i_mod, j_mod])
        mods.append(total)
        injs_i.append(summand_injection(i_mod, total, 0))
        injs_j.append(summand_injection(j_mod, total, i_mod.generators))
        projs_i.append(summand_projection(total, i_mod, 0))
    diffs = []
    for d in range(lo, hi):
        k = d - lo
        gi, gi2 = i_cx.module(d).generators, i_cx.module(d + 1).generators
        diffs.append(block_map(mods[k], mods[k + 1], [
            (0, 0, 1, i_cx.differential(d).matrix),
            (gi2, 0, 1, gpp.component(d).matrix),
            (gi2, gi, -1, j_cx.differential(d - 1).matrix),
        ]))
    level = Complex(ring, lo, tuple(mods), tuple(diffs))
    h_comps = []
    for d in range(lo, hi + 1):
        k = d - lo
        n_mod = n_cx.module(d)
        blocks = [(0, 0, 1, q.component(d).matrix)]
        if n_mod.generators and cq.complex.module(d - 1).generators:
            # the cone's degree d-1 term starts with N^d
            g_d = g.component(d - 1).matrix
            n_part = IntMatrix.from_rows(row[:n_mod.generators] for row in g_d.data)
            blocks.append((i_cx.module(d).generators, 0, 1, n_part))
        h_comps.append(block_map(n_mod, mods[k], blocks))
    h = ChainMap(n_cx, level, lo, tuple(h_comps))
    p = ChainMap(level, i_cx, lo, tuple(projs_i))
    section = DegreewiseFamily(i_cx, level, lo, tuple(injs_i))
    kern = shift(j_cx, -1)
    kern_incl = ChainMap(kern, level, lo, tuple(injs_j))
    return level, h, p, section, kern, kern_incl, g


def _extend_projective(a: ChainMap, stable: bool = False):
    """Extend a level along a: P -> N.

    Returns (level, v: level -> N, incl: P -> level, retraction, coker,
    coker_proj, w) where w: Q -> cone(a) is the uncertified resolution of
    the cone (the zero complex when stable), level is degreewise Q (+) P,
    incl is the degreewise split inclusion with cokernel Q, and
    v . incl = a on the nose.

    Q resolves the reduced cone R (reduce_complex), not the cone itself,
    and w is the composite back . w0 of the resolution w0: Q -> R with
    back: R -> cone(a), a homotopy equivalence like w0, so cone(w) is
    contractible.  The level, v and the sum formula read only w and Q,
    so the degreewise sum formula and cone(v) = cone(-w) hold literally.
    """
    p_cx, n_cx = a.src, a.tgt
    ca = cone(a)
    if stable:
        q_cx = zero_complex(a.src.ring)
        w = zero_chain_map(q_cx, ca.complex)
    else:
        reduced, _, back = reduce_complex(ca.complex)
        q_cx, w0 = _projective_resolution(reduced, minimal=True)
        w = back @ w0
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
    return level, v, incl, retraction, coker, coker_proj, w


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
    base, f0 = _injective_resolution(truncations[0])
    levels, fs = [base], [f0]
    surjections, sections = [], []
    kernels, kernel_incls, cone_certs = [], [], []
    for n in range(1, depth + 1):
        q = fs[n - 1] @ transitions[n - 1]
        stable = truncations[n] == truncations[n - 1]
        level, h, p, section, kern, kern_incl, g = _extend_injective(q, stable)
        levels.append(level)
        fs.append(h)
        surjections.append(p)
        sections.append(section)
        kernels.append(kern)
        kernel_incls.append(kern_incl)
        cone_certs.append(_certificate(g.src, g.tgt, g, INJECTIVE))
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
            prev, here = truncations[n - 1], truncations[n]
            lo = min(prev.lo, here.lo)
            comps = []
            for i in range(lo, max(prev.hi, here.hi) + 1):
                comps.append(
                    factor_through_mono(
                        incls[n].component(i), incls[n - 1].component(i)
                    )
                )
            transitions.append(ChainMap(prev, here, lo, tuple(comps)))
    base, f0 = _projective_resolution(truncations[0])
    levels, fs = [base], [f0]
    injections, retractions = [], []
    cokernels, coker_projs, cone_certs = [], [], []
    for n in range(1, depth + 1):
        a = transitions[n - 1] @ fs[n - 1]
        stable = truncations[n] == truncations[n - 1]
        level, v, incl, retraction, coker, coker_proj, w = _extend_projective(a, stable)
        levels.append(level)
        fs.append(v)
        injections.append(incl)
        retractions.append(retraction)
        cokernels.append(coker)
        coker_projs.append(coker_proj)
        cone_certs.append(_certificate(w.tgt, w.src, w, PROJECTIVE))
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


def _complexes_match(a: Complex, b: Complex) -> bool:
    if a.ring != b.ring:
        return False
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    for i in range(lo, hi + 1):
        if not _modules_match(a.module(i), b.module(i)):
            return False
    for i in range(lo, hi + 1):
        # maps touching a zero module are forced, so only compare the rest
        if a.module(i).generators and a.module(i + 1).generators:
            if not a.differential(i).equals(b.differential(i)):
                return False
    return True


def check_inverse_level_cone_identity(tower: SemiSplitInverseTower, fs,
                                      n: int) -> bool:
    """The level-n extension satisfies cone(f_n) = cone(-g)[-1] literally."""
    inner = tower.cone_certificates[n - 1]
    left = cone(fs[n]).complex
    right = shift(cone(-inner.map).complex, -1)
    return _complexes_match(left, right)


def check_direct_level_cone_identity(tower: SemiSplitDirectTower, fs,
                                     n: int) -> bool:
    """The level-n extension satisfies cone(f_n) = cone(-w) literally."""
    inner = tower.cone_certificates[n - 1]
    left = cone(fs[n]).complex
    right = cone(-inner.map).complex
    return _complexes_match(left, right)


def validate_inverse_tower(tower: SemiSplitInverseTower, fs) -> bool:
    """Degreewise split exactness, pure injective kernels, cone identities."""
    for n in range(1, tower.depth + 1):
        p = tower.surjections[n - 1]
        s = tower.sections[n - 1]
        level, prev = tower.levels[n], tower.levels[n - 1]
        for i in range(level.lo, level.hi + 1):
            if not is_surjective(p.component(i)):
                return False
            comp = p.component(i) @ s.component(i)
            if not comp.equals(identity_map(prev.module(i))):
                return False
        if not p.is_chain_map():
            return False
        ki = tower.kernel_inclusions[n - 1]
        if not ki.is_chain_map():
            return False
        for i in range(tower.kernels[n - 1].lo, tower.kernels[n - 1].hi + 1):
            if not is_injective(ki.component(i)):
                return False
            if not (p.component(i) @ ki.component(i)).is_zero():
                return False
        if not all(termwise_ok(INJECTIVE, tower.kernels[n - 1])):
            return False
        if not validate_certificate(tower.cone_certificates[n - 1]):
            return False
        if not check_inverse_level_cone_identity(tower, fs, n):
            return False
        if not (p @ fs[n]).equals(fs[n - 1] @ tower.transitions[n - 1]):
            return False
    return True


def validate_direct_tower(tower: SemiSplitDirectTower, fs) -> bool:
    """Degreewise split monos and cone identities.

    The cokernels need no check: every finitely presented term is pure
    projective.
    """
    for n in range(1, tower.depth + 1):
        incl = tower.injections[n - 1]
        r = tower.retractions[n - 1]
        level, prev = tower.levels[n], tower.levels[n - 1]
        for i in range(level.lo, level.hi + 1):
            if not is_injective(incl.component(i)):
                return False
            comp = r.component(i) @ incl.component(i)
            if not comp.equals(identity_map(prev.module(i))):
                return False
        if not incl.is_chain_map():
            return False
        cp = tower.cokernel_projections[n - 1]
        if not cp.is_chain_map():
            return False
        for i in range(level.lo, level.hi + 1):
            if not is_surjective(cp.component(i)):
                return False
            if not (cp.component(i) @ incl.component(i)).is_zero():
                return False
        if not validate_certificate(tower.cone_certificates[n - 1]):
            return False
        if not check_direct_level_cone_identity(tower, fs, n):
            return False
        if not (fs[n] @ incl).equals(tower.transitions[n - 1] @ fs[n - 1]):
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
    (injective side), then validate_*_tower: each check runs once.
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


def limit_tower(tower: SemiSplitInverseTower, fs) -> ResolutionCertificate:
    """Read the limit off the stabilized tower and certify it directly.

    Raises unless the tower passes validate_inverse_tower and the product
    formula (_check_tower); the certificate contracts the cone of fs[-1].
    """
    _check_tower(tower, fs, INJECTIVE)
    return _certificate(tower.source, tower.levels[-1], fs[-1], INJECTIVE)


def colimit_tower(tower: SemiSplitDirectTower, fs) -> ResolutionCertificate:
    """Read the colimit off the stabilized tower and certify it directly.

    Raises unless the tower passes validate_direct_tower and the sum
    formula (_check_tower); the certificate contracts the cone of fs[-1].
    """
    _check_tower(tower, fs, PROJECTIVE)
    return _certificate(tower.source, tower.levels[-1], fs[-1], PROJECTIVE)


# ---------------------------------------------------------------------------
# dispatch


def resolve(m: Complex, side: str, depth: Optional[int] = None) -> ResolutionCertificate:
    """Resolve either way by the one-step induction of that side.

    A depth is only checked: below the tower depth the side would need
    (required_depth) it raises DepthInsufficient, and any other depth,
    or none, gives the same certificate.  No tower is built; towers and
    limit_tower / colimit_tower build the paper's (co)limits.

    The inductions resolve every input.  A complex here lives on a
    finite window, so it is bounded above and bounded below.  The
    pullback induction (resolve_projective_bounded_above) needs only the
    first: it starts from the top term and pulls back one degree at a
    time, down to one degree below the window.  The pushout induction
    (resolve_injective_bounded_below) needs only the second: it starts
    from the bottom term and pushes out one degree at a time, up to one
    degree above the window.  The certificate contracts the cone of the
    resolution map, and a chain map whose cone is contractible is a
    homotopy equivalence, so the target is homotopy equivalent to m and
    to the (co)limit of any tower that resolves m; anything read off its
    homology, or off tensor and hom complexes built from it, agrees.
    """
    if side not in (INJECTIVE, PROJECTIVE):
        raise InputError("side must be injective or projective")
    if depth is not None:
        need = required_depth(m, side)
        if depth < need:
            raise DepthInsufficient(need)
    if side == INJECTIVE:
        return resolve_injective_bounded_below(m)
    return resolve_projective_bounded_above(m)


# ---------------------------------------------------------------------------
# per-step displayed conditions


def injective_step_conditions(cert: ResolutionCertificate, battery) -> dict:
    """The two displayed conditions of the pushout induction, per probe.

    For each step degree k and probe N: (a) the induced map
    Coker(d^(k-1) (x) N) -> Coker(e^(k-1) (x) N) is injective, and
    (b) H^(k-1) of the tensored resolution map is an isomorphism.
    """
    m, i_cx, u = cert.source, cert.target, cert.map
    report = {}
    for probe in battery.probes:
        mn = tensor_module_complex(m, probe)
        in_cx = tensor_module_complex(i_cx, probe)
        un = tensor_module_chain_map(u, probe)
        per_probe = {}
        for k in range(i_cx.lo + 1, i_cx.hi + 2):
            cok_m, proj_m = cokernel(mn.differential(k - 1))
            cok_i, proj_i = cokernel(in_cx.differential(k - 1))
            induced = factor_through_epi(proj_m, proj_i @ un.component(k))
            hmap = homology_map(un, k - 1)
            per_probe[k] = (
                is_injective(induced),
                is_injective(hmap) and is_surjective(hmap),
            )
        report[probe.invariant_factors] = per_probe
    return report


def projective_step_conditions(cert: ResolutionCertificate, battery) -> dict:
    """The dual displayed conditions of the pullback induction, per probe.

    For each step degree k and probe Q: (a) the induced map
    Ker(Hom(Q, e^k)) -> Ker(Hom(Q, d^k)) is surjective, and (b) the
    degree k+1 homology of Hom(Q, resolution map) is an isomorphism.
    """
    m, p_cx, v = cert.source, cert.target, cert.map
    report = {}
    for probe in battery.probes:
        hm = hom_module_complex(probe, m)
        hp = hom_module_complex(probe, p_cx)
        hv = hom_module_chain_map(probe, v)
        per_probe = {}
        for k in range(p_cx.lo - 1, p_cx.hi):
            ker_p, incl_p = kernel(hp.differential(k))
            ker_m, incl_m = kernel(hm.differential(k))
            induced = factor_through_mono(incl_m, hv.component(k) @ incl_p)
            hmap = homology_map(hv, k + 1)
            per_probe[k] = (
                is_surjective(induced),
                is_injective(hmap) and is_surjective(hmap),
            )
        report[probe.invariant_factors] = per_probe
    return report
