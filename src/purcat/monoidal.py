"""The closed structure: tensor descent, derived hom, and currying.

Tensoring with a fixed complex and smart truncation both send pure
quasi-isomorphisms to pure quasi-isomorphisms; that makes the tensor
product meaningful on pure-resolution representatives.  The derived hom
pairs a pure projective resolution of the first argument with a pure
injective resolution of the second, and the currying isomorphism
between hom-from-a-tensor and hom-into-a-hom is produced as an explicit
pair of mutually inverse chain maps, built slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from purcat.exact_linalg import InputError, WorkbenchError, from_columns
from purcat.fpmod import (
    FpModule,
    HomModule,
    ModuleMap,
    identity_map,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    TensorComplex,
    hom_complex,
    hom_post_chain_map,
    hom_pre_chain_map,
    homology_invariants,
    tensor_complex,
    tensor_fixed_left_map,
    truncate_leq_map,
)
from purcat.homotopy import (
    certify_k_pure_injective,
    certify_k_pure_projective,
    hom_dpur,
    hom_k,
)
from purcat.purity import ProbeBattery, PurityVerdict, default_battery, is_pure_qis
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    ResolutionCertificate,
    _require_injective_scope,
    identity_resolution,
    pad_resolution,
    resolve,
    validate_certificate,
)


# ---------------------------------------------------------------------------
# tensor descent


@dataclass(frozen=True)
class TensorDescentReport:
    """Evidence that a pure qis survives tensoring and truncation."""

    induced: ChainMap
    tensor_verdict: PurityVerdict
    truncation_verdicts: dict

    @property
    def ok(self) -> bool:
        return self.tensor_verdict.is_pure() and all(
            v.is_pure() for v in self.truncation_verdicts.values()
        )


def _truncation_cuts(u: ChainMap) -> tuple:
    lo = min(u.src.lo, u.tgt.lo)
    hi = max(u.src.hi, u.tgt.hi)
    return tuple(sorted({lo, (lo + hi) // 2, hi}))


def check_tensor_descends(u: ChainMap, a: Complex,
                          battery: Optional[ProbeBattery] = None) -> TensorDescentReport:
    """Check that a (x) u and the truncations of u stay pure qis.

    u must itself be a pure quasi-isomorphism; the report carries the
    induced map on tensor products, its verdict, and a verdict for the
    induced map on <= n truncations at cuts spanning the window.
    """
    if u.src.ring != a.ring:
        raise InputError("the fixed complex must live over the same ring")
    if battery is None:
        battery = default_battery(a.ring, u, a)
    if not is_pure_qis(u, battery).is_pure():
        raise InputError("check_tensor_descends needs a pure quasi-isomorphism")
    src_tc = tensor_complex(a, u.src)
    tgt_tc = tensor_complex(a, u.tgt)
    induced = tensor_fixed_left_map(src_tc, tgt_tc, u)
    tensor_verdict = is_pure_qis(induced, battery)
    truncation_verdicts = {}
    for n in _truncation_cuts(u):
        tu, _, _ = truncate_leq_map(u, n)
        truncation_verdicts[n] = is_pure_qis(tu, battery)
    return TensorDescentReport(induced, tensor_verdict, truncation_verdicts)


def tensor_swap(a: Complex, b: Complex) -> ChainMap:
    """The signed swap a (x) b -> b (x) a; an isomorphism of complexes.

    On the (i, j) slot a generator pair (p, q) goes to (q, p) with sign
    (-1)^(i*j); applying the swap twice gives back the identity.
    """
    if a.ring != b.ring:
        raise InputError("tensor swap needs complexes over one ring")
    ab = tensor_complex(a, b)
    ba = tensor_complex(b, a)
    x, y = ab.complex, ba.complex
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    comps = []
    for t in range(lo, hi + 1):
        back = {(i, j): inj for i, j, inj, _ in ba.slots(t)}
        comp = zero_map(x.module(t), y.module(t))
        for i, j, _, proj in ab.slots(t):
            inj = back.get((j, i))
            if inj is None:
                continue
            ga = a.module(i).generators
            gb = b.module(j).generators
            if ga * gb == 0:
                continue
            sign = -1 if (i % 2) and (j % 2) else 1
            cols = []
            for p in range(ga):
                for q in range(gb):
                    col = [0] * (ga * gb)
                    col[q * ga + p] = sign
                    cols.append(col)
            piece = ModuleMap(proj.tgt, inj.src,
                              from_columns(cols, ga * gb))
            comp = comp + inj @ piece @ proj
        comps.append(comp)
    return ChainMap(x, y, lo, tuple(comps))


# ---------------------------------------------------------------------------
# currying between hom and tensor


def _curry_map(m: ModuleMap, a: FpModule, b: FpModule, hm: HomModule) -> ModuleMap:
    """Reindex m: a (x) b -> c as a map a -> Hom(b, c)."""
    gb = b.generators
    gc = m.tgt.generators
    cols = []
    for p in range(a.generators):
        f_cols = [[m.matrix.at(r, p * gb + q) for r in range(gc)] for q in range(gb)]
        f = ModuleMap(b, m.tgt, from_columns(f_cols, gc))
        cols.append(list(hm.from_map(f)))
    mat = from_columns(cols, hm.module.generators)
    return ModuleMap(a, hm.module, a.ring.reduce_matrix(mat))


def _uncurry_map(g: ModuleMap, a: FpModule, b: FpModule, hm: HomModule,
                 pair: FpModule) -> ModuleMap:
    """Reindex g: a -> Hom(b, c) as a map a (x) b -> c."""
    gb = b.generators
    gc = hm.target.generators
    cols = []
    for p in range(a.generators):
        coords = [g.matrix.at(r, p) for r in range(g.tgt.generators)]
        f = hm.to_map(coords)
        for q in range(gb):
            cols.append([f.matrix.at(r, q) for r in range(gc)])
    mat = from_columns(cols, gc)
    return ModuleMap(pair, hm.target, a.ring.reduce_matrix(mat))


@dataclass(frozen=True)
class AdjunctionWitness:
    """Mutually inverse chain maps realizing the currying isomorphism.

    forward runs from hom_complex((a (x) b), c) to
    hom_complex(a, hom_complex(b, c)); backward runs the other way, and
    both composites are the identity in every degree.
    """

    flat: HomComplex
    inner: HomComplex
    nested: HomComplex
    forward: ChainMap
    backward: ChainMap


def _curry_column(flat: HomComplex, nested: HomComplex, tc: TensorComplex,
                  inner: HomComplex, n: int, col) -> list:
    a = nested.source
    family = flat.element_components(n, col)
    out = {}
    for i, _, _, _ in nested.slots(n):
        comp = zero_map(a.module(i), inner.complex.module(n + i))
        for j, hm_bc, inj_h, _ in inner.slots(n + i):
            big = family.get(i + j)
            if big is None:
                continue
            inj_t = None
            for ti, tj, inj, _ in tc.slots(i + j):
                if ti == i and tj == j:
                    inj_t = inj
                    break
            if inj_t is None:
                continue
            piece = _curry_map(big @ inj_t, a.module(i), tc.right.module(j), hm_bc)
            comp = comp + inj_h @ piece
        out[i] = comp
    encoded = nested.components_element(n, out)
    return [encoded.at(r, 0) for r in range(encoded.rows)]


def _uncurry_column(flat: HomComplex, nested: HomComplex, tc: TensorComplex,
                    inner: HomComplex, n: int, col) -> list:
    a = nested.source
    family = nested.element_components(n, col)
    out = {}
    for t, _, _, _ in flat.slots(n):
        comp = zero_map(tc.complex.module(t), flat.target.module(n + t))
        for i, j, _, proj_t in tc.slots(t):
            g = family.get(i)
            if g is None:
                continue
            for jj, hm_bc, _, proj_h in inner.slots(n + i):
                if jj != j:
                    continue
                piece = _uncurry_map(proj_h @ g, a.module(i), tc.right.module(j),
                                     hm_bc, proj_t.tgt)
                comp = comp + piece @ proj_t
                break
        out[t] = comp
    encoded = flat.components_element(n, out)
    return [encoded.at(r, 0) for r in range(encoded.rows)]


def adjunction_iso(a: Complex, b: Complex, c: Complex) -> AdjunctionWitness:
    """The currying isomorphism hom((a (x) b), c) ~ hom(a, hom(b, c)).

    Both directions are built generator by generator through the slot
    bookkeeping of the hom and tensor complexes; no signs appear, and
    the chain-map condition holds on the nose with the differential
    conventions used here.
    """
    if a.ring != b.ring or a.ring != c.ring:
        raise InputError("adjunction needs complexes over one ring")
    tc = tensor_complex(a, b)
    flat = hom_complex(tc.complex, c)
    inner = hom_complex(b, c)
    nested = hom_complex(a, inner.complex)
    x, y = flat.complex, nested.complex
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    fwd = []
    bwd = []
    for n in range(lo, hi + 1):
        xg = x.module(n).generators
        yg = y.module(n).generators
        f_cols = []
        for g in range(xg):
            e = [1 if r == g else 0 for r in range(xg)]
            f_cols.append(_curry_column(flat, nested, tc, inner, n, e))
        fwd.append(ModuleMap(x.module(n), y.module(n),
                             a.ring.reduce_matrix(from_columns(f_cols, yg))))
        b_cols = []
        for g in range(yg):
            e = [1 if r == g else 0 for r in range(yg)]
            b_cols.append(_uncurry_column(flat, nested, tc, inner, n, e))
        bwd.append(ModuleMap(y.module(n), x.module(n),
                             a.ring.reduce_matrix(from_columns(b_cols, xg))))
    forward = ChainMap(x, y, lo, tuple(fwd))
    backward = ChainMap(y, x, lo, tuple(bwd))
    return AdjunctionWitness(flat, inner, nested, forward, backward)


def validate_adjunction_witness(w: AdjunctionWitness) -> bool:
    """Both directions are chain maps and compose to identities."""
    x, y = w.flat.complex, w.nested.complex
    if w.forward.src != x or w.forward.tgt != y:
        return False
    if w.backward.src != y or w.backward.tgt != x:
        return False
    if not w.forward.is_chain_map() or not w.backward.is_chain_map():
        return False
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    for n in range(lo, hi + 1):
        around = w.backward.component(n) @ w.forward.component(n)
        if not around.equals(identity_map(x.module(n))):
            return False
        around = w.forward.component(n) @ w.backward.component(n)
        if not around.equals(identity_map(y.module(n))):
            return False
    return True


# ---------------------------------------------------------------------------
# the derived hom


@dataclass(frozen=True)
class DerivedHomResult:
    """hom complex of a projective-by-injective resolution pair."""

    value: Complex
    proj_res: ResolutionCertificate
    inj_res: ResolutionCertificate


def _resolution_for(m: Complex, side: str, depth: Optional[int]):
    """A certificate plus whether m is serving as its own resolution.

    A bounded complex whose terms already lie in the class needs no
    construction: the identity certificate is exact and the tower
    pipeline is saved for inputs that genuinely need it.
    """
    cert = (certify_k_pure_projective(m) if side == PROJECTIVE
            else certify_k_pure_injective(m))
    if cert.is_certified():
        return identity_resolution(m, side), True
    return resolve(m, side, depth=depth), False


def phom(m: Complex, n: Complex, depth: Optional[int] = None,
         battery: Optional[ProbeBattery] = None) -> DerivedHomResult:
    """The derived hom: hom_complex(P_m, I_n) with both certificates.

    Arguments whose terms are already pure projective (resp. pure
    injective) stand as their own resolutions; everything else goes
    through the tower construction, capped by depth.  Well-definedness
    rests on two pure quasi-isomorphisms, from hom(P_m, n) into the
    value and from hom(m, I_n) into the value; whenever a resolution
    map is not the identity, the comparison map it induces is
    re-verified here before the result is returned.  An n out of scope
    for pure injective resolutions is rejected before any work on m.
    """
    _require_injective_scope(n)
    proj, proj_self = _resolution_for(m, PROJECTIVE, depth)
    inj, inj_self = _resolution_for(n, INJECTIVE, depth)
    value_hc = hom_complex(proj.target, inj.target)
    checks = []
    if not inj_self:
        into = hom_post_chain_map(hom_complex(proj.target, inj.source),
                                  value_hc, inj.map)
        checks.append(("post-composition with the injective resolution", into))
    if not proj_self:
        onto = hom_pre_chain_map(hom_complex(proj.source, inj.target),
                                 value_hc, proj.map)
        checks.append(("pre-composition with the projective resolution", onto))
    if checks:
        if battery is None:
            battery = default_battery(m.ring, *[f for _, f in checks])
        for label, f in checks:
            if not is_pure_qis(f, battery).is_pure():
                raise WorkbenchError(label + " failed the pure qis re-check")
    return DerivedHomResult(value_hc.complex, proj, inj)


def validate_derived_hom(result: DerivedHomResult) -> bool:
    """Certificates re-validate and the value matches the resolution pair."""
    if not validate_certificate(result.proj_res):
        return False
    if not validate_certificate(result.inj_res):
        return False
    rebuilt = hom_complex(result.proj_res.target, result.inj_res.target).complex
    return rebuilt == result.value


@dataclass(frozen=True)
class DegreeComparison:
    """Invariant factors of two complexes, compared degree by degree."""

    degrees: dict

    @property
    def ok(self) -> bool:
        return all(left == right for left, right in self.degrees.values())


def _compare_homology(x: Complex, y: Complex) -> DegreeComparison:
    hx = homology_invariants(x)
    hy = homology_invariants(y)
    out = {}
    for i in sorted(set(hx) | set(hy)):
        out[i] = (hx.get(i, ()), hy.get(i, ()))
    return DegreeComparison(out)


def check_phom_invariance(m: Complex, n: Complex, seeds: tuple = (1, 2),
                          depth: Optional[int] = None) -> DegreeComparison:
    """Derived hom computed against two padded resolution pairs.

    Each seed perturbs both resolutions with a contractible summand; the
    two values must have the same homology invariant factors in every
    degree.
    """
    base = phom(m, n, depth=depth)
    values = []
    for seed in seeds:
        proj = pad_resolution(base.proj_res, seed)
        inj = pad_resolution(base.inj_res, seed)
        values.append(hom_complex(proj.target, inj.target).complex)
    return _compare_homology(values[0], values[1])


# ---------------------------------------------------------------------------
# the closed structure on the pure derived category


@dataclass(frozen=True)
class LinkCheck:
    """One isomorphism link: two invariant factor tuples that must agree."""

    name: str
    left: tuple
    right: tuple

    @property
    def ok(self) -> bool:
        return self.left == self.right


@dataclass(frozen=True)
class AdjunctionReport:
    """Per-link evidence for the derived tensor-hom adjunction."""

    links: tuple
    witness_ok: bool

    @property
    def ok(self) -> bool:
        return self.witness_ok and all(link.ok for link in self.links)


def check_internal_hom_identity(a: Complex, b: Complex, c: Complex) -> DegreeComparison:
    """Internal version: phom((a (x) b), c) against phom(a, phom(b, c)).

    Both sides run the full derived hom pipeline; the comparison is by
    homology invariant factors in every degree.
    """
    ab = tensor_complex(a, b).complex
    left = phom(ab, c).value
    inner_value = phom(b, c).value
    right = phom(a, inner_value).value
    return _compare_homology(left, right)


def check_dpur_adjunction(a: Complex, b: Complex, c: Complex,
                          depth: Optional[int] = None) -> AdjunctionReport:
    """Hom groups in the pure derived category agree across the adjunction.

    The end-to-end statement compares hom_dpur((a (x) b), c) with
    hom_dpur(a, phom(b, c)); the four intermediate links are each
    asserted separately: replace both arguments by resolutions, drop to
    the homotopy category against the injective side, curry, and return
    to the derived side against the projective side.  depth constrains
    only the resolutions of the three arguments themselves; inner
    rebuilds pick their own depth.  A c out of scope for pure injective
    resolutions is rejected before a and b are resolved.
    """
    _require_injective_scope(c)
    pa = resolve(a, PROJECTIVE, depth=depth)
    pb = resolve(b, PROJECTIVE, depth=depth)
    ic = resolve(c, INJECTIVE, depth=depth)
    q = tensor_complex(pa.target, pb.target).complex
    value = hom_complex(pb.target, ic.target).complex
    ab = tensor_complex(a, b).complex

    ends = hom_dpur(ab, c, depth=depth)
    replaced = hom_dpur(q, ic.target)
    homotopy_side = hom_k(q, ic.target)
    witness = adjunction_iso(pa.target, pb.target, ic.target)
    curried = hom_k(pa.target, value)
    derived_again = hom_dpur(pa.target, value)
    other_end = hom_dpur(a, value)

    links = (
        LinkCheck("replace-by-resolutions",
                  ends.invariant_factors, replaced.invariant_factors),
        LinkCheck("descend-to-homotopy",
                  replaced.invariant_factors, homotopy_side.invariant_factors),
        LinkCheck("curry",
                  homotopy_side.invariant_factors, curried.invariant_factors),
        LinkCheck("return-to-derived",
                  curried.invariant_factors, derived_again.invariant_factors),
        LinkCheck("end-to-end",
                  ends.invariant_factors, other_end.invariant_factors),
    )
    return AdjunctionReport(links, validate_adjunction_witness(witness))
