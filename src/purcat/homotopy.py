"""Homotopy-category layer.

Hom groups up to homotopy as finitely presented modules, null-homotopy
and contraction solvers, K-purity certificates with honest verdicts,
homotopy left inverses and right-roof normalization, and derived hom via
resolution replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from purcat.exact_linalg import IntMatrix, InputError, WorkbenchError
from purcat.fpmod import (
    FpModule,
    MapSolver,
    ModuleMap,
    element_preimage,
    identity_map,
    kernel,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Homotopy,
    cone,
    hom_complex,
    homology_data,
    identity_chain_map,
    zero_homotopy,
)

BY_BOUNDED_INJECTIVE = "ByBoundedInjective"
BY_BOUNDED_PROJECTIVE = "ByBoundedProjective"
PROBE_CONSISTENT = "ProbeConsistent"
REFUTED = "Refuted"


class NoInverse(WorkbenchError):
    """The requested homotopy inverse does not exist."""


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

    Built degreewise: first a retraction onto each cycle module, then a
    section of the differential vanishing under that retraction.  Any
    valid retraction admits a section when the complex is contractible,
    so the degreewise choices never need backtracking, which keeps the
    linear systems small compared to one joint solve.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    kernels = {}
    for n in range(cx.lo, cx.hi + 2):
        kernels[n] = kernel(cx.differential(n))
    rhos = {}
    for n in range(cx.lo, cx.hi + 1):
        z, incl = kernels[n]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("r", cx.module(n), z)
        solver.add_equation(
            [(IntMatrix.identity(z.generators), "r", incl.matrix)], identity_map(z)
        )
        sol = solver.solve()
        if sol is None:
            return None
        rhos[n] = sol["r"]
    sigmas = {}
    for n in range(cx.lo - 1, cx.hi + 1):
        z1, incl1 = kernels[n + 1]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("s", z1, cx.module(n))
        solver.add_equation(
            [(cx.differential(n).matrix, "s", IntMatrix.identity(z1.generators))], incl1
        )
        if n >= cx.lo:
            solver.add_equation(
                [(rhos[n].matrix, "s", IntMatrix.identity(z1.generators))],
                zero_map(z1, kernels[n][0]),
            )
        sol = solver.solve()
        if sol is None:
            return None
        sigmas[n] = sol["s"]
    comps = tuple(sigmas[n - 1] @ rhos[n] for n in range(cx.lo, cx.hi + 1))
    return Homotopy(cx, cx, cx.lo, comps)


# ---------------------------------------------------------------------------
# K-purity certificates


@dataclass(frozen=True)
class KPurityCertificate:
    """Verdict on hom-vanishing against pure acyclic complexes.

    The bounded routes are proofs read off from the terms; Refuted
    carries an explicit counterexample pair; ProbeConsistent records
    only that `trials` sampled pure acyclic complexes found nothing,
    which is weaker than a proof and is labeled accordingly.
    """

    subject: Complex
    side: str
    route: str
    evidence: tuple
    trials: int = 0
    refutation: Optional[tuple] = None

    def is_certified(self) -> bool:
        return self.route in (BY_BOUNDED_INJECTIVE, BY_BOUNDED_PROJECTIVE)


def _term_pure_injective(mod: FpModule) -> bool:
    if mod.ring.modulus is not None:
        return True
    return mod.is_torsion()


def _sample_pure_acyclic(rng: random.Random, ring) -> Complex:
    from purcat.randgen import random_pure_acyclic

    return random_pure_acyclic(rng, ring, lo=-1, hi=1, max_gens=2)


def _nonzero_class_map(hk: KHomGroup) -> Optional[ChainMap]:
    dec = hk.module.decomposition()
    for idx, factor in enumerate(dec.factors):
        if factor != 1:
            diag = IntMatrix.column_vector(
                [1 if r == idx else 0 for r in range(hk.module.generators)]
            )
            col = hk.module.ring.reduce_matrix(dec.from_diag @ diag)
            return hk.to_chain_map(col)
    return None


def certify_k_pure_injective(subject: Complex, trials: int = 0,
                             seed: int = 0) -> KPurityCertificate:
    """Certify hom-vanishing from pure acyclic complexes into subject.

    Bounded complexes whose every term is pure injective get the proof
    route.  Otherwise `trials` sampled pure acyclic complexes A are
    checked for hom_k(A, subject) = 0; survival is only consistency.
    """
    flags = tuple(_term_pure_injective(m) for m in subject.modules)
    if all(flags):
        return KPurityCertificate(subject, "injective", BY_BOUNDED_INJECTIVE, flags)
    rng = random.Random(seed)
    for _ in range(max(trials, 1)):
        probe = _sample_pure_acyclic(rng, subject.ring)
        hk = hom_k(probe, subject)
        if not hk.is_zero():
            witness = _nonzero_class_map(hk)
            return KPurityCertificate(
                subject, "injective", REFUTED, flags,
                trials=trials, refutation=(probe, witness),
            )
    return KPurityCertificate(subject, "injective", PROBE_CONSISTENT, flags, trials=trials)


def certify_k_pure_projective(subject: Complex, trials: int = 0,
                              seed: int = 0) -> KPurityCertificate:
    """Certify hom-vanishing from subject into pure acyclic complexes.

    Every finitely presented module in scope is pure projective, so any
    finite-window complex earns the proof route; the sampling loop still
    runs when trials are requested, as a cross-check.
    """
    flags = tuple(True for _ in subject.modules)
    rng = random.Random(seed)
    for _ in range(trials):
        probe = _sample_pure_acyclic(rng, subject.ring)
        hk = hom_k(subject, probe)
        if not hk.is_zero():
            witness = _nonzero_class_map(hk)
            return KPurityCertificate(
                subject, "projective", REFUTED, flags,
                trials=trials, refutation=(probe, witness),
            )
    return KPurityCertificate(subject, "projective", BY_BOUNDED_PROJECTIVE, flags,
                              trials=trials)


def validate_k_purity_certificate(cert: KPurityCertificate) -> bool:
    """Re-check what a certificate claims from its own evidence."""
    subject = cert.subject
    if cert.route == BY_BOUNDED_INJECTIVE:
        return all(cert.evidence) and all(
            _term_pure_injective(m) for m in subject.modules
        )
    if cert.route == BY_BOUNDED_PROJECTIVE:
        return cert.side == "projective"
    if cert.route == REFUTED:
        if cert.refutation is None:
            return False
        probe, witness = cert.refutation
        if witness is None:
            return False
        if contract_complex(probe) is None:
            return False
        return witness.is_chain_map() and null_homotopy(witness) is None
    return cert.route == PROBE_CONSISTENT


# ---------------------------------------------------------------------------
# homotopy left inverses and roofs


@dataclass(frozen=True)
class RightRoof:
    """A span A -> C <- B whose wrong-way leg is a pure quasi-isomorphism.

    qis_witness is a contracting homotopy of cone(right); validate()
    re-checks it, so the purity claim never rests on trust.
    """

    left: ChainMap
    right: ChainMap
    qis_witness: Homotopy

    def validate(self) -> bool:
        if self.left.tgt != self.right.tgt:
            return False
        c = cone(self.right).complex
        if self.qis_witness.src != c or self.qis_witness.tgt != c:
            return False
        return self.qis_witness.witnesses(identity_chain_map(c))


def make_right_roof(left: ChainMap, right: ChainMap) -> RightRoof:
    if left.tgt != right.tgt:
        raise InputError("roof legs must share their target")
    witness = contract_complex(cone(right).complex)
    if witness is None:
        raise InputError("roof leg is not a pure quasi-isomorphism")
    return RightRoof(left, right, witness)


def homotopy_left_inverse(u: ChainMap, cert: KPurityCertificate,
                          check: bool = True):
    """(v, h) with v a chain map and v . u - id = d h + h d exactly.

    cert must concern u.src on the injective side.  One joint linear
    system finds v together with its homotopy witness.
    """
    if cert.subject != u.src or cert.side != "injective":
        raise InputError("certificate does not cover the source of u")
    if cert.route == REFUTED:
        raise NoInverse("source is refuted K-pure injective")
    if check:
        from purcat.purity import is_pure_qis

        verdict = is_pure_qis(u)
        if not verdict.is_pure():
            raise InputError("u is not a pure quasi-isomorphism")
    b, c = u.src, u.tgt
    lo = min(b.lo, c.lo)
    hi = max(b.hi, c.hi)
    solver = MapSolver(b.ring)
    for i in range(lo, hi + 2):
        solver.add_map_unknown(("v", i), c.module(i), b.module(i))
        solver.add_map_unknown(("h", i), b.module(i), b.module(i - 1))
    for i in range(lo, hi + 1):
        bi = b.module(i)
        solver.add_equation(
            [
                (IntMatrix.identity(bi.generators), ("v", i), u.component(i).matrix),
                (b.differential(i - 1).matrix.scale(-1), ("h", i),
                 IntMatrix.identity(bi.generators)),
                (IntMatrix.identity(bi.generators).scale(-1), ("h", i + 1),
                 b.differential(i).matrix),
            ],
            identity_map(bi),
        )
        solver.add_equation(
            [
                (IntMatrix.identity(b.module(i + 1).generators), ("v", i + 1),
                 c.differential(i).matrix),
                (b.differential(i).matrix.scale(-1), ("v", i),
                 IntMatrix.identity(c.module(i).generators)),
            ],
            zero_map(c.module(i), b.module(i + 1)),
        )
    sol = solver.solve()
    if sol is None:
        raise NoInverse("no homotopy left inverse exists")
    v = ChainMap(c, b, lo, tuple(sol[("v", i)] for i in range(lo, hi + 1)))
    h = Homotopy(b, b, lo, tuple(sol[("h", i)] for i in range(lo, hi + 2)))
    return v, h


def normalize_roof(roof: RightRoof, cert: KPurityCertificate,
                   check: bool = True) -> ChainMap:
    """Turn a roof (f, u) into the direct chain map v . f with v u ~ id."""
    if check and not roof.validate():
        raise InputError("roof witness does not validate")
    v, _ = homotopy_left_inverse(roof.right, cert, check=False)
    return v @ roof.left


# ---------------------------------------------------------------------------
# derived hom via resolution replacement


def hom_dpur(a: Complex, b: Complex, depth: Optional[int] = None,
             seed: Optional[int] = None) -> KHomGroup:
    """Hom in the pure derived category: hom_k against a resolution.

    The target is replaced by a certified pure injective resolution.  With
    no depth given and every term of b pure injective (read off the terms,
    nothing sampled), b stands as its own resolution; otherwise resolve
    builds one, through the depth-gated tower when a depth is given, and
    a b out of scope raises UnsupportedRing there before any hom is
    computed.  An optional seed pads the chosen resolution with an extra
    contractible summand, which must not change the answer up to
    isomorphism.
    """
    from purcat.resolutions import identity_resolution, pad_resolution, resolve

    if depth is None and all(_term_pure_injective(t) for t in b.modules):
        cert = identity_resolution(b, "injective")
    else:
        cert = resolve(b, "injective", depth=depth)
    if seed is not None:
        cert = pad_resolution(cert, seed)
    return hom_k(a, cert.target)
