"""Exact purity decisions with re-checkable witnesses.

Over the supported rings a finitely presented pure submodule splits and
a pure acyclic complex of finitely presented modules contracts, so
Pure is decided by complexes.reduce_complex, which is complete on
contractible complexes, and nothing is solved.  Pure is proven by its
checked contraction, which contracts every probe tensor too; NotPure
names the first probe of smith_battery whose tensor has homology, which
plain homology can re-check (is_pure_acyclic).  The battery is complete,
so the two decisions check each other: a complex with no contraction
and no failing probe is an error, not a verdict.

Probes are evaluated arithmetically, and no probe tensor is built.
Tensoring is right exact, so a term or cokernel coker(A) tensored with
R/(q) is presented by [A | qI]; with UAV = D diagonal that is
equivalent to [D | qI], of order the product of the gcd(d_r, q), a zero
entry or a row past the last column counting as q.  Over Z the free
probe is q = 0; over Z/m every invariant factor q divides m and the
free probe is q = m.  So one Smith diagonal per term and per
differential of the complex gives the orders of every probe tensor
(complexes.smith_diagonals: a term's diagonal is read off its cached
decomposition, which reduce_complex reads too, and an image's off the
memoized smith_normal_form), and a probe tensor is exact in degree i
exactly when the order of its term is the product of the orders of the
images into and out of it (complexes.homology_degrees).  A probe with
several invariant factors is the direct sum of its cyclic summands, and
homology and kernels are additive, so it fails exactly where one of its
summands does.  Homology modules are only built where the orders are infinite,
in the degrees where the free probe meets a free term over Z.

The one battery is smith_battery: the free probe and the powers R/(b^t)
of a coprime base b of the entries of the same Smith diagonals, found
by gcds alone (complexes._coprime_base), so it grows with the number of
base elements and their exponents in the entries, not with the entries'
size.  Nothing is factored: entries and moduli are only divided.
probe_battery and default_battery, sized by the entries, remain for the
benchmark's corpus sizing and as the tests' oracle.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from purcat.exact_linalg import InputError, Record, Ring, WorkbenchError, _set
from purcat.fpmod import FpModule, ModuleMap, cyclic_module, free_module
from purcat.complexes import (ChainMap, Complex, _coprime_base, cone, homology_degrees,
                              smith_diagonals)
from purcat.homotopy import contract_complex

PURE = "Pure"
NOT_PURE = "NotPure"


class ProbeBattery(Record):
    """Finitely presented test modules for tensor probing, one of them free
    of rank 1.  Verdicts probe with smith_battery; failing_probe_for_acyclic
    takes any battery, for the tests' oracles."""

    __slots__ = ("ring", "probes")

    def __init__(self, ring: Ring, probes: tuple) -> None:
        if not probes:
            raise InputError("a probe battery must not be empty")
        if not any(p.relations.cols == 0 and p.generators == 1 for p in probes):
            raise InputError("a probe battery must contain the free rank 1 module")
        _set(self, "ring", ring)
        _set(self, "probes", probes)


class PurityVerdict(Record):
    """Pure or NotPure, with evidence either way.

    Pure carries the contracting homotopy.  NotPure carries the first
    failing probe of smith_battery, the free probe or a power R/(b^t) of
    a coprime base element b, which need not be a prime power, and, as
    its witness, the least degree where that probe's tensor has homology.
    """

    __slots__ = ("verdict", "witness", "probe")

    def __init__(self, verdict: str, witness: object = None,
                 probe: Optional[FpModule] = None) -> None:
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)
        _set(self, "probe", probe)

    def is_pure(self) -> bool:
        return self.verdict == PURE


def _divisors(n: int) -> list:
    """The positive divisors of n, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def probe_battery(ring: Ring, bound: int = 1) -> ProbeBattery:
    """The battery sized by a bound: free rank 1 plus small cyclic torsion.

    Over Z the torsion probes are Z/d for 2 <= d <= bound.  Over Z/m they
    are R/(d) for the divisors 1 < d < m, ascending, found by trial
    division up to sqrt(m); the divisors of m are complete for purity
    detection, so the bound only matters over Z.  Verdicts use
    smith_battery; this one remains for the benchmark's corpus sizing
    and as the tests' oracle.
    """
    if bound < 1:
        raise InputError("battery bound must be at least 1")
    probes = [free_module(ring, 1)]
    if ring.modulus is None:
        for d in range(2, bound + 1):
            probes.append(cyclic_module(ring, d))
    else:
        for d in _divisors(ring.modulus)[1:-1]:
            probes.append(cyclic_module(ring, d))
    return ProbeBattery(ring, tuple(probes))


def _entry_bound(*objects) -> int:
    best = 1
    for obj in objects:
        if obj is None:
            continue
        if isinstance(obj, FpModule):
            best = max(best, obj.relations.max_abs())
            for a in obj.invariant_factors:
                best = max(best, abs(a))
        elif isinstance(obj, ModuleMap):
            best = max(best, obj.matrix.max_abs())
            best = max(best, _entry_bound(obj.src, obj.tgt))
        elif isinstance(obj, Complex):
            for m in obj.modules:
                best = max(best, _entry_bound(m))
            for d in obj.diffs:
                best = max(best, d.matrix.max_abs())
        elif isinstance(obj, ChainMap):
            best = max(best, _entry_bound(obj.src, obj.tgt))
            for c in obj.components:
                best = max(best, c.matrix.max_abs())
    return best


def default_battery(ring: Ring, *objects) -> ProbeBattery:
    """Battery sized from the input: twice its largest entry or divisor.

    Its length grows with the entries' size over Z.  Verdicts use
    smith_battery; this one remains for the benchmark's corpus sizing
    and as the tests' oracle.
    """
    return probe_battery(ring, 2 * _entry_bound(*objects))


def smith_battery(cx: Complex, diagonals: Optional[tuple] = None) -> ProbeBattery:
    """The free probe, then R/(b^t) ascending: for each b of the coprime
    base of the nonzero entries of cx's Smith diagonals
    (complexes._coprime_base, from gcds alone), t = 1..K_b, with K_b the
    largest t for which b^t divides an entry.  Nothing is factored.  Over
    Z/m every nonzero entry is a proper divisor of m (each pivot is
    scaled to gcd(pivot, m)), and so is every such b^t.

    diagonals are smith_diagonals(cx), computed here when not given.

    The battery is complete: if cx is not pure acyclic, one of its
    probes fails.  Then cx (x) M has homology for some finitely
    presented M, since every module is a filtered colimit of those and
    both tensor products and homology commute with such colimits.  Over
    Z and Z/m, M is a sum of copies of R and of R/(p^k) (k <= v_p(m)
    over Z/m), and homology is additive, so R, the free probe, or some
    R/(p^k) fails.  In degree i, cx (x) R/(q) is exact when an identity
    among quotient_orders of the diagonals holds (homology_degrees), and
    an identity of orders holds exactly when it holds prime by prime.
    Its p-part reads E_p(v_p(q)) = 0, where E_p(k) is a signed sum of
    min(v_p(d), k) over the entries d, a zero entry counting k (over Z/m
    it stands for m, and k <= v_p(m)).  Let N be the same signed count
    of zero entries and K_p the largest p-valuation of a nonzero entry.
    - Over Z the zero entries count ranks, so N != 0 means cx (x) Q
      has homology in degree i; Q is flat, so cx has too, and the free
      probe fails in degree i.  Over Z/m every nonzero entry divides m,
      and the free probe's orders have p-part E_p(v_p(m)), so when it
      passes in degree i, E_p(v_p(m)) = 0.
    - For k >= K_p every min(v_p(d), k) over a nonzero entry d is
      v_p(d), so E_p is affine there: E_p(k) = E_p(K_p) + N (k - K_p).
    So let the free probe pass in degree i.  Over Z, N = 0 and E_p is
    constant for k >= K_p; over Z/m it vanishes at v_p(m) >= K_p.
    Either way, if E_p vanishes on [0, K_p] it vanishes for every k
    that matters (k <= v_p(m) over Z/m), and for K_p = 0 it does, as
    E_p(0) = 0.  Now let p divide an entry.  The entries are products of
    powers of the pairwise coprime base, so p divides exactly one base
    element b, every v_p(d) is a multiple of v_p(b), and
    K_p = K_b v_p(b).  The breakpoints of each min(v_p(d), k) lie at
    multiples of v_p(b), so E_p is linear between consecutive ones.
    R/(b^t) is the sum of the R/(p^(t v_p(b))) over the primes p of b,
    so it passes in degree i exactly when E_p(t v_p(b)) = 0 for each of
    them.  If no R/(b^t) fails in degree i, E_p vanishes at 0 and at
    every t v_p(b) with t <= K_b, hence on all of [0, K_p], hence for
    every k: no R/(p^k) fails in degree i.

    The battery is never longer than the prime powers R/(p^k) with
    k <= K_p: each b lists K_b probes and each of its primes K_p >= K_b.
    Where a base power is coarser than a prime power, its first failing
    probe is too: Z/6 for 0 -> Z -6-> Z -> Z/6 -> 0, where the primes give Z/2.
    """
    ring = cx.ring
    terms, images = diagonals or smith_diagonals(cx)
    entries = {abs(d) for diag in terms + images for d in diag} - {0, 1}
    qs = []
    for b in _coprime_base(entries):
        q = b
        while any(d % q == 0 for d in entries):
            qs.append(q)
            q *= b
    return ProbeBattery(ring, (free_module(ring, 1),)
                        + tuple(cyclic_module(ring, q) for q in sorted(qs)))


# ---------------------------------------------------------------------------
# probe evaluation


def failing_probe_for_acyclic(cx: Complex, battery: ProbeBattery,
                              diagonals: Optional[tuple] = None):
    """(probe, least degree where probe (x) cx has homology) or None.

    cx's Smith diagonals are read once (smith_diagonals, computed here
    when not given); each probe is then decided by homology_degrees from
    gcds with its invariant factors, and fails wherever one of its
    cyclic summands does.  Homology modules are built only where the
    free probe meets a free term over Z.
    """
    diagonals = diagonals or smith_diagonals(cx)
    for probe in battery.probes:
        failed = [i for q in probe.invariant_factors
                  for i in homology_degrees(cx, q, diagonals)]
        if failed:
            return probe, min(failed)
    return None


# ---------------------------------------------------------------------------
# decisions


def is_pure_acyclic(cx: Complex, diagonals: Optional[tuple] = None) -> PurityVerdict:
    """Decide pure acyclicity by contract_complex; name a failing probe if not.

    Over Z and Z/m, pure acyclic means contractible for a bounded complex
    of finitely presented modules: both rings are Noetherian, so every
    cycle module is finitely presented, and a pure exact sequence that
    ends in one splits.  Pure carries the contraction h, checked here
    (Homotopy.witnesses; WorkbenchError unless d h + h d = id).  It
    proves every probe P acyclic: - (x) P is additive, so
    (d (x) 1)(h (x) 1) + (h (x) 1)(d (x) 1) = (d h + h d) (x) 1 = id and
    h (x) 1 contracts C (x) P.  NotPure carries the first failing probe
    of smith_battery, which is complete, so a complex with no
    contraction and no failing probe raises WorkbenchError.  diagonals
    are smith_diagonals(cx), computed here when a NotPure verdict needs
    them and they are not given.
    """
    contraction = contract_complex(cx)
    if contraction is not None:
        if not contraction.witnesses():
            raise WorkbenchError("contraction fails d h + h d = id")
        return PurityVerdict(PURE, witness=contraction)
    diagonals = diagonals or smith_diagonals(cx)
    hit = failing_probe_for_acyclic(cx, smith_battery(cx, diagonals), diagonals)
    if hit is None:
        raise WorkbenchError("no contraction exists, yet no probe of the complete "
                             "battery fails: the two decisions disagree")
    probe, degree = hit
    return PurityVerdict(NOT_PURE, witness=degree, probe=probe)


def is_pure_qis(f: ChainMap) -> PurityVerdict:
    """Decide whether the cone of f is pure acyclic (is_pure_acyclic)."""
    return is_pure_acyclic(cone(f).complex)
