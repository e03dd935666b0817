"""Exact purity decisions with re-checkable witnesses.

Over the supported rings a finitely presented pure submodule splits and
a pure acyclic complex of finitely presented modules contracts, so
purity verdicts come from solvable linear systems.  Tensor probes stay
on as an independent necessary-condition oracle: every NotPure verdict
prefers a failing probe that plain homology can re-check.

Probes are evaluated arithmetically.  By the Chinese remainder theorem
R/(d) is the direct sum of the R/(p^k) over the prime powers p^k that
exactly divide d, and tensor products, homology and kernels all commute
with finite direct sums.  So only the free probe and the cyclic
prime-power probes are ever tensored; every other probe is read off its
parts (see probe_outcomes).  Each probe tensor is decided from module
orders: it is exact in a degree where the order of the term is the
product of the orders of the images into and out of it.  Homology
modules are only built where that fails to apply, in the degrees where
the free probe meets a free term over Z (see complexes.homology_degrees).

Batteries over Z/m list the divisors of m from its factorization: small
primes by trial division, the rest by Pollard-Brent rho with
Miller-Rabin primality proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from purcat.exact_linalg import InputError, Ring, WorkbenchError
from purcat.fpmod import (
    FpModule,
    ModuleMap,
    cyclic_module,
    free_module,
    has_retraction,
    identity_map,
    is_injective,
    kernel,
    tensor_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    cone,
    homology,
    homology_degrees,
    identity_chain_map,
    tensor_module_complex,
)
from purcat.homotopy import null_homotopy

PURE = "Pure"
NOT_PURE = "NotPure"


class NotAcyclicAt(WorkbenchError):
    """The complex has homology at the inspected degree."""

    def __init__(self, degree: int):
        super().__init__(f"complex is not acyclic at degree {degree}")
        self.degree = degree


@dataclass(frozen=True)
class ProbeBattery:
    """Finitely presented test modules for tensor probing."""

    ring: Ring
    probes: tuple

    def __post_init__(self):
        if not self.probes:
            raise InputError("a probe battery must not be empty")
        if not any(
            p.relations.cols == 0 and p.generators == 1 for p in self.probes
        ):
            raise InputError("a probe battery must contain the free rank 1 module")


@dataclass(frozen=True)
class PurityVerdict:
    """Pure or NotPure, with evidence either way.

    Pure carries a split witness (retraction or contracting homotopy).
    NotPure carries a failing probe when the battery finds one, plus the
    induced data that fails; otherwise only the unsolvability note.
    """

    verdict: str
    witness: object = None
    probe: Optional[FpModule] = None
    detail: str = ""

    def is_pure(self) -> bool:
        return self.verdict == PURE


# Miller-Rabin on the first 13 prime bases is deterministic below this
# bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES; a proof for odd 1000 < n < _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# rho work on one cofactor above _MR_BOUND, in steps times squared bit
# length (a step's cost): about 2^20 steps, well under a second, at 92 bits
_RHO_WORK = 1 << 33


def _rho(n: int, limit: Optional[int] = None) -> Optional[int]:
    """A proper factor of n by Pollard-Brent rho.

    The walk y -> y^2 + c starts at 2 with c = 1, 2, ... until one split
    is found, so the result is deterministic.  Without a limit n must be
    composite.  With one, the walk returns None before it would take
    more than limit steps; n may then be prime.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if limit is not None and steps + 2 * r > limit:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r
            r *= 2
        if g == n:
            # the batched product overshot: replay the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> list:
    """[(p, k), ...] with n the product of the p^k, p ascending.

    Factors below 1000 are divided out first, by trial division in
    ascending order (so only primes divide).  What is left is split by
    Pollard-Brent rho, and each factor is proven prime by Miller-Rabin
    before it is kept, so a prime near 10^18 costs a few modular powers,
    not 10^9 trial divisions.  Primality is proven that way only below
    _MR_BOUND (about 3.3e24), so a cofactor above it must split under
    the rho budget _RHO_WORK, and so must each part above the bound.
    """
    counts: dict = {}
    for p in range(2, 1000):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:
        x = rest.pop()
        if x < 10 ** 6 or (x < _MR_BOUND and _is_prime(x)):
            # after the small primes, anything below 1000^2 is prime
            counts[x] = counts.get(x, 0) + 1
            continue
        limit = _RHO_WORK // x.bit_length() ** 2 if x >= _MR_BOUND else None
        d = _rho(x, limit)
        if d is None:
            raise WorkbenchError(
                f"cannot factor {x}: it has no prime factor below 1000, rho finds "
                f"no split within {limit} steps, and primality is proven only "
                f"below {_MR_BOUND}")
        rest += [d, x // d]
    return sorted(counts.items())


def _divisors(n: int) -> list:
    """The positive divisors of n, ascending."""
    divs = [1]
    for p, k in _factor(n):
        divs = [d * p ** e for d in divs for e in range(k + 1)]
    return sorted(divs)


def probe_battery(ring: Ring, bound: int = 1) -> ProbeBattery:
    """The standard battery: free rank 1 plus small cyclic torsion.

    Over Z the torsion probes are Z/d for 2 <= d <= bound.  Over Z/m they
    are R/(d) for the divisors 1 < d < m, listed in ascending order from
    the factorization of m; the divisors of m are complete for purity
    detection, so the bound only matters over Z.  Either way the battery
    is closed under taking prime-power parts: every prime power exactly
    dividing a torsion probe's d divides it properly (unless d is one
    itself) and comes earlier in the battery, which is what lets
    probe_outcomes tensor prime powers only.
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
    """Battery sized from the input: twice its largest entry or divisor."""
    return probe_battery(ring, 2 * _entry_bound(*objects))


# ---------------------------------------------------------------------------
# probe evaluation


def _primary_parts(probe: FpModule) -> list:
    """The summands of probe's primary decomposition, as memo keys.

    0 stands for a free summand R, q > 1 for a cyclic summand R/(q)
    with q a prime power.
    """
    free = probe.ring.modulus or 0
    parts = []
    for a in probe.invariant_factors:
        if a == free:
            parts.append(0)
        else:
            parts.extend(p ** k for p, k in _factor(a))
    return parts


def probe_outcomes(battery: ProbeBattery, failures):
    """Yield (probe, failed) for each battery probe, lazily, in battery order.

    failures(module) lists the places where tensoring with module breaks
    the property under test: the degrees where homology appears, say.
    failed is the frozenset of those places for the probe.  failures is
    only ever called on R and on cyclic prime-power modules R/(p^k), at
    most once each (memoised by invariant factor); every other probe is
    read off those parts.

    Why that is exact.  Write d = p_1^k_1 ... p_r^k_r.  The ideals
    (p_i^k_i) are pairwise comaximal, so the Chinese remainder theorem
    gives R/(d) = R/(p_1^k_1) (+) ... (+) R/(p_r^k_r) as R-modules, over
    Z and over Z/m alike (there d is an invariant factor, so d | m and
    each R/(p_i^k_i) is Z/p_i^k_i).  A probe with several invariant
    factors splits the same way, factor by factor.  Tensoring with a
    direct sum gives the direct sum of the tensors, and homology and
    kernels are additive over direct sums, so a probe fails at a place
    exactly when one of its parts does: its failed set is the union of
    its parts' sets.

    In an ascending standard battery the first failing probe is free or
    a prime power: a failing composite d has a failing part p^k, a proper
    divisor of d that sits earlier in the battery (see probe_battery).
    So the first failing probe, and its failed set, come from a direct
    tensor, exactly as probe-by-probe evaluation would report them.
    """
    memo = {}
    for probe in battery.probes:
        failed = frozenset()
        for q in _primary_parts(probe):
            if q not in memo:
                part = free_module(probe.ring, 1) if q == 0 else cyclic_module(probe.ring, q)
                memo[q] = frozenset(failures(part))
            failed |= memo[q]
        yield probe, failed


def failing_probe_for_mono(f: ModuleMap, battery: ProbeBattery):
    """(probe, induced map with nonzero kernel) or None."""

    def failures(probe):
        return () if is_injective(tensor_map(identity_map(probe), f)) else ("kernel",)

    for probe, failed in probe_outcomes(battery, failures):
        if failed:
            return probe, tensor_map(identity_map(probe), f)
    return None


def failing_probe_for_acyclic(cx: Complex, battery: ProbeBattery):
    """(probe, least degree where probe (x) cx has homology) or None.

    Each probe tensor is decided by homology_degrees: from module orders
    wherever the terms are finite, which covers every torsion probe and
    every probe over Z/m, and by computing homology only in the degrees
    where the free probe meets a free term over Z.
    """

    def failures(probe):
        return homology_degrees(tensor_module_complex(cx, probe))

    for probe, failed in probe_outcomes(battery, failures):
        if failed:
            return probe, min(failed)
    return None


# ---------------------------------------------------------------------------
# decisions


def is_pure_mono(f: ModuleMap, battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide purity of a monomorphism; the split criterion is exact here."""
    retraction = has_retraction(f)
    if retraction is not None:
        return PurityVerdict(PURE, witness=retraction)
    if battery is None:
        battery = default_battery(f.src.ring, f)
    hit = failing_probe_for_mono(f, battery)
    if hit is not None:
        probe, induced = hit
        return PurityVerdict(
            NOT_PURE, witness=induced, probe=probe,
            detail="tensoring with the probe is not injective",
        )
    return PurityVerdict(
        NOT_PURE,
        detail="no retraction exists; no battery probe exhibits the failure",
    )


def is_pure_acyclic(cx: Complex, battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide pure acyclicity via one contraction system over all degrees."""
    contraction = null_homotopy(identity_chain_map(cx))
    if contraction is not None:
        return PurityVerdict(PURE, witness=contraction)
    if battery is None:
        battery = default_battery(cx.ring, cx)
    hit = failing_probe_for_acyclic(cx, battery)
    if hit is not None:
        probe, degree = hit
        return PurityVerdict(
            NOT_PURE, witness=degree, probe=probe,
            detail=f"probe tensor has homology in degree {degree}",
        )
    return PurityVerdict(
        NOT_PURE,
        detail="no contraction exists; no battery probe exhibits the failure",
    )


def is_pure_acyclic_at(cx: Complex, n: int,
                       battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide purity of the cycle inclusion at one exact degree."""
    if not homology(cx, n).is_zero():
        raise NotAcyclicAt(n)
    _, incl = kernel(cx.differential(n))
    return is_pure_mono(incl, battery)


def is_pure_qis(f: ChainMap, battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide whether the cone of f is pure acyclic."""
    return is_pure_acyclic(cone(f).complex, battery)
