"""The closed structure: tensor descent, derived hom, and currying.

Tensoring with a fixed complex and smart truncation both send pure
quasi-isomorphisms to pure quasi-isomorphisms; that makes the tensor
product meaningful on pure-resolution representatives.  The derived hom
pairs a pure projective resolution of the first argument with a pure
injective resolution of the second, and the currying isomorphism
between hom-from-a-tensor and hom-into-a-hom is produced as an explicit
pair of mutually inverse chain maps.  Their columns are built one basis
map at a time and slot-locally: a basis map of one Hom slot is curried
(or uncurried) only into the slots it can reach, and each piece is
written at its slot's generators; no whole hom complex is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from purcat.exact_linalg import IntMatrix, InputError, from_columns
from purcat.fpmod import (
    FpModule,
    HomModule,
    ModuleMap,
    block_map,
    identity_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    TensorComplex,
    hom_complex,
    homology_invariants,
    tensor_complex,
    tensor_fixed_left_map,
    truncate_leq_map,
)
from purcat.homotopy import hom_dpur, hom_k
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
        back = {(i, j): start for i, j, start, _ in ba.slots(t)}
        blocks = []
        for i, j, start, _ in ab.slots(t):
            ga = a.module(i).generators
            gb = b.module(j).generators
            if (j, i) not in back or ga * gb == 0:
                continue
            cols = []
            for p in range(ga):
                for q in range(gb):
                    col = [0] * (ga * gb)
                    col[q * ga + p] = 1
                    cols.append(col)
            sign = -1 if (i % 2) and (j % 2) else 1
            blocks.append((back[(j, i)], start, sign, from_columns(cols, ga * gb)))
        comps.append(block_map(x.module(t), y.module(t), blocks))
    return ChainMap(x, y, lo, tuple(comps))


# ---------------------------------------------------------------------------
# currying between hom and tensor


def _curry_map(mat: IntMatrix, c0: int, a: FpModule, b: FpModule,
               hm: HomModule) -> IntMatrix:
    """Reindex the columns c0.. of mat, a map a (x) b -> c, as a map a -> Hom(b, c)."""
    gb = b.generators
    gc = hm.target.generators
    cols = []
    for p in range(a.generators):
        f_cols = [[mat.data[r][c0 + p * gb + q] for r in range(gc)] for q in range(gb)]
        cols.append(hm.from_map(ModuleMap(b, hm.target, from_columns(f_cols, gc))))
    return from_columns(cols, hm.module.generators)


def _uncurry_map(mat: IntMatrix, r0: int, a: FpModule, b: FpModule,
                 hm: HomModule) -> IntMatrix:
    """Reindex the rows r0.. of mat, a map a -> Hom(b, c), as a map a (x) b -> c."""
    cols = []
    for p in range(a.generators):
        f = hm.to_map([mat.data[r0 + r][p] for r in range(hm.module.generators)])
        cols.extend(f.matrix.column(q) for q in range(b.generators))
    return from_columns(cols, hm.target.generators)


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


def _unit_image(src: HomComplex, tgt: HomComplex, n: int, image) -> ModuleMap:
    """Degree n map src -> tgt from the images of the basis maps.

    For the k-th basis map f of the slot (j, hm) of src, image(j, f)
    yields (tgt slot, map) pairs; each map is encoded by that slot's
    from_map and written at the slot's generators, and slots not named
    get zero coordinates.
    """
    height = tgt.complex.module(n).generators
    cols = []
    for j, hm, _, _ in src.slots(n):
        size = len(hm.slots)
        for k in range(size):
            col = [0] * height
            f = hm.to_map([1 if r == k else 0 for r in range(size)])
            for (_, hm_out, start, stop), g in image(j, f):
                col[start:stop] = hm_out.from_map(g)
            cols.append(col)
    mat = src.complex.ring.reduce_matrix(from_columns(cols, height))
    return ModuleMap(src.complex.module(n), tgt.complex.module(n), mat)


def adjunction_iso(tc: TensorComplex, flat: HomComplex, inner: HomComplex,
                   nested: HomComplex) -> AdjunctionWitness:
    """The currying isomorphism hom((a (x) b), c) ~ hom(a, hom(b, c)).

    Takes the four complexes it relates as the caller already holds them:
    tc = tensor_complex(a, b), flat = hom_complex(tc.complex, c),
    inner = hom_complex(b, c) and nested = hom_complex(a, inner.complex);
    complexes that do not fit together raise InputError.  Both directions
    are built one basis map at a time, slot by slot: a basis map of the
    flat slot Hom((a (x) b)^t, c^(n+t)) restricts to each tensor slot
    (i, j) of degree t and curries into the inner slot
    Hom(b^j, c^(n+i+j)), which sits inside the nested slot
    Hom(a^i, hom(b, c)^(n+i)); uncurrying runs the same slots backwards.
    No signs appear, and the chain-map condition holds on the nose with
    the differential conventions used here.
    """
    a, b = tc.left, tc.right
    if (flat.source != tc.complex or flat.target != inner.target
            or inner.source != b or nested.source != a
            or nested.target != inner.complex):
        raise InputError("adjunction complexes do not fit together")
    x, y = flat.complex, nested.complex
    # tensor slot (i, j) -> its first generator; inner slots by (degree, j)
    pair_start = {(i, j): start for t in range(tc.complex.lo, tc.complex.hi + 1)
                  for i, j, start, _ in tc.slots(t)}
    inner_at = {(k, slot[0]): slot for k in range(inner.complex.lo, inner.complex.hi + 1)
                for slot in inner.slots(k)}
    fwd = []
    bwd = []
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        nested_at = {slot[0]: slot for slot in nested.slots(n)}
        flat_at = {slot[0]: slot for slot in flat.slots(n)}

        def curry(t, f):
            for i, j, t_start, _ in tc.slots(t):
                if i in nested_at and (n + i, j) in inner_at:
                    out = nested_at[i]
                    _, hm_bc, h_start, _ = inner_at[(n + i, j)]
                    piece = _curry_map(f.matrix, t_start, a.module(i), b.module(j), hm_bc)
                    yield out, block_map(a.module(i), out[1].target, [(h_start, 0, 1, piece)])

        def uncurry(i, g):
            for j, hm_bc, h_start, _ in inner.slots(n + i):
                if i + j in flat_at and (i, j) in pair_start:
                    out = flat_at[i + j]
                    piece = _uncurry_map(g.matrix, h_start, a.module(i), b.module(j), hm_bc)
                    yield out, block_map(out[1].source, hm_bc.target,
                                         [(0, pair_start[(i, j)], 1, piece)])

        fwd.append(_unit_image(flat, nested, n, curry))
        bwd.append(_unit_image(nested, flat, n, uncurry))
    lo = min(x.lo, y.lo)
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


def phom(m: Complex, n: Complex) -> DerivedHomResult:
    """The derived hom: hom_complex(m, n), both arguments their own resolutions.

    Every finitely presented module is pure projective, and every term of
    an n that passes the injective scope check (torsion over Z, anything
    over Z/m) is pure injective; so m and n are bounded K-pure projective
    and K-pure injective, and both certificates are identity_resolution's
    written-down contractions.  An n out of scope is rejected before any
    certificate is made.
    """
    _require_injective_scope(n)
    proj = identity_resolution(m, PROJECTIVE)
    inj = identity_resolution(n, INJECTIVE)
    return DerivedHomResult(hom_complex(m, n).complex, proj, inj)


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


def check_phom_invariance(m: Complex, n: Complex, seeds: tuple = (1, 2)) -> DegreeComparison:
    """Derived hom computed against two padded resolution pairs.

    Each seed perturbs both resolutions with a contractible summand; the
    two values must have the same homology invariant factors in every
    degree.
    """
    base = phom(m, n)
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
    rebuilds pick their own depth.  c is resolved once: with a depth the
    end-to-end group is taken against that resolution, as hom_dpur would
    compute it.  A c out of scope for pure injective resolutions is
    rejected before a and b are resolved.  The currying witness is built
    on the tensor and hom complexes the links already hold.
    """
    _require_injective_scope(c)
    pa = resolve(a, PROJECTIVE, depth=depth)
    pb = resolve(b, PROJECTIVE, depth=depth)
    ic = resolve(c, INJECTIVE, depth=depth)
    tc = tensor_complex(pa.target, pb.target)
    q = tc.complex
    inner = hom_complex(pb.target, ic.target)
    value = inner.complex
    ab = tensor_complex(a, b).complex

    ends = hom_dpur(ab, c) if depth is None else hom_k(ab, ic.target)
    replaced = hom_dpur(q, ic.target)
    homotopy_side = hom_k(q, ic.target)
    curried = hom_k(pa.target, value)
    witness = adjunction_iso(tc, homotopy_side.hom, inner, curried.hom)
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
