"""Purity decisions: batteries, split criteria, probe witnesses."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from purcat import complexes, exact_linalg, purity as purity_layer
from purcat.exact_linalg import InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import (
    cokernel,
    cyclic_module,
    direct_sum,
    free_module,
    has_retraction,
    identity_map,
    kernel,
    make_map,
    make_module,
    zero_map,
    zero_module,
)
from purcat.complexes import (
    Complex,
    cone,
    direct_sum_complexes,
    homology,
    homology_degrees,
    identity_chain_map,
    module_complex,
    tensor_module_complex,
    zero_complex,
)
from purcat.purity import (
    _factor,
    ProbeBattery,
    default_battery,
    failing_probe_for_acyclic,
    is_pure_acyclic,
    is_pure_qis,
    probe_battery,
    smith_battery,
)
from purcat.homotopy import contract_complex
from purcat.randgen import (
    random_complex,
    random_contractible,
    random_module,
    random_pure_acyclic,
    random_pure_qis,
)
from helpers import (
    hom_module_complex,
    make_complex,
    mat,
    probe_homology_degrees,
    probe_outcomes,
    slow_factor,
    slow_failing_probe_for_acyclic,
    slow_homology_degrees,
    slow_probe_battery,
    uncapped_smith_battery,
)


def ses_complex():
    """0 -> Z -(x2)-> Z -> Z/2 -> 0 as a complex in degrees 0..2."""
    z = free_module(ZZ, 1)
    z2 = cyclic_module(ZZ, 2)
    return make_complex(ZZ, 0, [z, z, z2], [mat([[2]]), mat([[1]])])


# ---------------------------------------------------------------------------
# batteries


def test_probe_battery_frozen_z6():
    bat = probe_battery(Zmod(6), 10)
    facts = sorted(p.invariant_factors for p in bat.probes)
    assert facts == [(2,), (3,), (6,)]


def test_probe_battery_frozen_z_bound_4():
    bat = probe_battery(ZZ, 4)
    facts = sorted(p.invariant_factors for p in bat.probes)
    assert facts == [(0,), (2,), (3,), (4,)]


def test_probe_battery_frozen_z_bound_1():
    bat = probe_battery(ZZ, 1)
    assert len(bat.probes) == 1
    assert bat.probes[0].invariant_factors == (0,)


def test_probe_battery_invariants():
    with pytest.raises(InputError):
        ProbeBattery(ZZ, ())
    with pytest.raises(InputError):
        ProbeBattery(ZZ, (cyclic_module(ZZ, 2),))
    with pytest.raises(InputError):
        probe_battery(ZZ, 0)


def test_default_battery_scales_with_input():
    f = make_map(free_module(ZZ, 1), free_module(ZZ, 1), mat([[5]]))
    bat = default_battery(ZZ, f)
    torsion = [p.invariant_factors[0] for p in bat.probes[1:]]
    assert max(torsion) == 10


# ---------------------------------------------------------------------------
# split monomorphisms, the degreewise criterion for pure acyclicity


def split_exact_at(cx, n):
    """Is cx exact at n with a split cycle inclusion Z^n -> C^n?"""
    if not homology(cx, n).is_zero():
        return False
    return has_retraction(kernel(cx.differential(n))[1]) is not None


def test_summand_inclusion_is_pure():
    a = cyclic_module(Zmod(8), 4)
    b = cyclic_module(Zmod(8), 8)
    total, injs, _ = direct_sum([a, b])
    r = has_retraction(injs[0])
    assert r is not None
    assert (r @ injs[0]).equals(identity_map(a))


def test_identity_is_pure():
    m = make_module(Zmod(12), 2, mat([[4, 0], [0, 6]]))
    assert has_retraction(identity_map(m)) is not None


# ---------------------------------------------------------------------------
# pure acyclic complexes


def test_zero_complex_pure_acyclic():
    assert is_pure_acyclic(zero_complex(ZZ)).is_pure()


def test_cone_of_identity_pure_with_homotopy():
    m = make_module(Zmod(12), 2, mat([[4, 0], [0, 6]]))
    cx = cone(identity_chain_map(module_complex(m, 0))).complex
    verdict = is_pure_acyclic(cx)
    assert verdict.is_pure()
    assert verdict.witness.witnesses(identity_chain_map(cx))


def test_ses_acyclic_but_not_pure():
    cx = ses_complex()
    assert not homology_degrees(cx)
    verdict = is_pure_acyclic(cx)
    assert not verdict.is_pure()
    assert verdict.probe is not None
    assert verdict.probe.invariant_factors == (2,)
    tensored = tensor_module_complex(cx, verdict.probe)
    assert not homology(tensored, verdict.witness).is_zero()


def test_pure_acyclic_at_rejects_homology():
    cx = module_complex(cyclic_module(ZZ, 2), 0)
    assert not split_exact_at(cx, 0)
    verdict = is_pure_acyclic(cx)
    assert not verdict.is_pure()
    assert verdict.witness == 0


def test_pure_acyclic_at_ses():
    cx = ses_complex()
    assert not split_exact_at(cx, 1)


def test_pure_acyclic_at_split_middle():
    a = cyclic_module(ZZ, 4)
    b = cyclic_module(ZZ, 9)
    total, injs, projs = direct_sum([a, b])
    cx = make_complex(ZZ, 0, [a, total, b], [injs[0].matrix, projs[1].matrix])
    assert split_exact_at(cx, 1)


def test_contractible_pure_at_every_degree():
    rng = random.Random(3)
    cx = random_contractible(rng, Zmod(12))
    for n in range(cx.lo, cx.hi + 1):
        assert split_exact_at(cx, n)


# ---------------------------------------------------------------------------
# pure quasi-isomorphisms


def test_identity_is_pure_qis():
    rng = random.Random(5)
    cx = random_complex(rng, Zmod(8), 0, 3)
    assert is_pure_qis(identity_chain_map(cx)).is_pure()


def test_map_to_zero_not_pure_qis():
    from purcat.complexes import zero_chain_map

    cx = module_complex(cyclic_module(ZZ, 2), 0)
    assert not is_pure_qis(zero_chain_map(cx, zero_complex(ZZ))).is_pure()


def test_no_contraction_and_no_failing_probe_raises(monkeypatch):
    # the contraction and the complete battery check each other: no
    # contraction and no failing probe is an error, not a NotPure verdict
    from purcat.complexes import zero_chain_map

    cx = ses_complex()
    assert contract_complex(cx) is None
    monkeypatch.setattr(purity_layer, "failing_probe_for_acyclic", lambda *args: None)
    with pytest.raises(WorkbenchError, match="no probe of the complete battery fails"):
        is_pure_acyclic(cx)
    with pytest.raises(WorkbenchError, match="no probe of the complete battery fails"):
        is_pure_qis(zero_chain_map(cx, zero_complex(ZZ)))


# ---------------------------------------------------------------------------
# agreement properties


def test_degreewise_equivalence_random():
    rng = random.Random(7)
    for _ in range(25):
        cx = random_complex(rng, Zmod(12), -1, rng.randint(1, 4), max_gens=2)
        total = is_pure_acyclic(cx).is_pure()
        degreewise = all(split_exact_at(cx, n) for n in range(cx.lo, cx.hi + 1))
        assert total == degreewise


def test_pure_verdict_probe_soundness():
    rng = random.Random(11)
    bat = probe_battery(Zmod(12), 1)
    checked = 0
    for _ in range(40):
        cx = random_pure_acyclic(rng, Zmod(12))
        verdict = is_pure_acyclic(cx)
        if not verdict.is_pure():
            continue
        checked += 1
        for probe in bat.probes:
            assert not homology_degrees(tensor_module_complex(cx, probe))
            assert not homology_degrees(hom_module_complex(probe, cx))
    assert checked >= 30


def test_contraction_and_probe_criteria_agree_micro():
    rng = random.Random(13)
    bat = probe_battery(Zmod(4), 1)
    seen_pure = 0
    seen_not = 0
    for _ in range(60):
        cx = random_complex(rng, Zmod(4), 0, rng.randint(1, 3), max_gens=2)
        verdict = is_pure_acyclic(cx)
        by_probes = all(
            not homology_degrees(tensor_module_complex(cx, p)) for p in bat.probes
        )
        assert verdict.is_pure() == by_probes == (failing_probe_for_acyclic(cx, bat) is None)
        if verdict.is_pure():
            seen_pure += 1
        else:
            seen_not += 1
            failed = homology_degrees(tensor_module_complex(cx, verdict.probe))
            assert min(failed) == verdict.witness
    assert seen_not >= 10


# ---------------------------------------------------------------------------
# arithmetic batteries and prime-power probe evaluation

RINGS = (ZZ, Zmod(12), Zmod(72))
SAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def nonsplit_ses(rng, ring):
    """A non-split short exact sequence 0 -> A -> B -> C -> 0 in degrees 0..2.

    Either 0 -> Z -n-> Z -> Z/n -> 0 over Z, or
    0 -> R/(p^a) -> R/(p^(a+b)) -> R/(p^b) -> 0 with p^(a+b) exactly
    dividing m (p^(a+b) = 8 or 9 over Z).
    """
    if ring.modulus is None and rng.random() < 0.5:
        n = rng.randint(2, 12)
        z = free_module(ring, 1)
        return make_complex(ring, 0, [z, z, cyclic_module(ring, n)],
                            [mat([[n]]), mat([[1]])])
    if ring.modulus is None:
        p, top = rng.choice([(2, 3), (3, 2)])
    else:
        p, top = rng.choice([(p, k) for p, k in slow_factor(ring.modulus) if k > 1])
    a = rng.randint(1, top - 1)
    b = top - a
    mods = [cyclic_module(ring, p ** a), cyclic_module(ring, p ** top),
            cyclic_module(ring, p ** b)]
    return make_complex(ring, 0, mods, [mat([[p ** b]]), mat([[1]])])


# 7^2 * 101 * 263, about 1.3e6: a large modulus with a square prime power
BIG = Zmod(7 ** 2 * 101 * 263)
ORDER_RINGS = RINGS + (BIG,)
SHAPES = ("random", "nonsplit", "pure", "one-term", "zero-terms")


def prime_power_probe(rng, ring):
    """A cyclic prime-power probe R/(p^e), as probe_outcomes tensors with."""
    if ring.modulus is None:
        return cyclic_module(ring, rng.choice([2, 3, 4, 5, 8, 9]))
    p, k = rng.choice(slow_factor(ring.modulus))
    return cyclic_module(ring, p ** rng.randint(1, k))


def with_zero_terms(rng, ring):
    """Two random complexes joined by a zero term, zero terms at both ends."""
    a = random_complex(rng, ring, 0, rng.randint(1, 2), max_gens=2)
    b = random_complex(rng, ring, 0, rng.randint(1, 2), max_gens=2)
    z = zero_module(ring)
    return Complex(ring, -2, (z,) + a.modules + (z,) + b.modules + (z,), (
        (zero_map(z, a.modules[0]),) + a.diffs
        + (zero_map(a.modules[-1], z), zero_map(z, b.modules[0])) + b.diffs
        + (zero_map(b.modules[-1], z),)))


def shaped_complex(rng, ring, shape):
    """A random complex of the named shape; "nonsplit" hides a non-split
    sequence in a pure acyclic sum, and "qis-cone" is the cone of a
    random pure quasi-isomorphism."""
    if shape == "random":
        return random_complex(rng, ring, -1, rng.randint(1, 4), max_gens=2)
    if shape == "nonsplit":
        total, _, _ = direct_sum_complexes([nonsplit_ses(rng, ring),
                                            random_pure_acyclic(rng, ring)])
        return total
    if shape == "pure":
        return random_pure_acyclic(rng, ring)
    if shape == "qis-cone":
        return cone(random_pure_qis(rng, random_complex(rng, ring, 0, 2))).complex
    if shape == "one-term":
        return module_complex(random_module(rng, ring, max_gens=3), rng.randint(-2, 2))
    if shape == "square":
        # Z/p^2 -> Z/p^3 (+) Z/p by (p, 1) onto its cokernel, in a pure
        # acyclic sum: R/(p) passes and R/(p^2) is the first failing probe;
        # over Z/m that needs p^3 | m, else the draw is a "nonsplit" one
        cubes = [p for p in (2, 3, 5) if ring.modulus is None or ring.modulus % p ** 3 == 0]
        if not cubes:
            return shaped_complex(rng, ring, "nonsplit")
        p = rng.choice(cubes)
        a = make_module(ring, 1, [[p ** 2]])
        f = make_map(a, make_module(ring, 2, [[p ** 3, 0], [0, p]]), [[p], [1]])
        c, g = cokernel(f)
        return direct_sum_complexes([Complex(ring, 0, (a, f.tgt, c), (f, g)),
                                     random_pure_acyclic(rng, ring)])[0]
    return with_zero_terms(rng, ring)


def test_probe_battery_matches_divisor_walk():
    for m in range(2, 501):
        assert probe_battery(Zmod(m)) == slow_probe_battery(Zmod(m)), m


def test_probe_battery_large_modulus():
    m = 10 ** 12
    bat = probe_battery(Zmod(m))
    assert len(bat.probes) == 168
    facts = [p.invariant_factors for p in bat.probes]
    assert facts[:5] == [(m,), (2,), (4,), (5,), (8,)]
    assert facts[-1] == (m // 2,)
    assert facts[1:] == sorted(facts[1:])


@pytest.mark.parametrize("battery, tensored", [
    (probe_battery(Zmod(72)), [72, 2, 3, 4, 8, 9]),
    (probe_battery(ZZ, 17), [0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17]),
    (probe_battery(Zmod(60)), [60, 2, 3, 4, 5]),
])
def test_probe_outcomes_tensor_each_prime_power_once(battery, tensored):
    seen = []

    def failures(module):
        seen.append(module.invariant_factors)
        return ()

    outcomes = list(probe_outcomes(battery, failures))
    assert [p for p, _ in outcomes] == list(battery.probes)
    assert all(failed == frozenset() for _, failed in outcomes)
    assert seen == [(q,) for q in tensored]


def test_probe_outcomes_are_lazy():
    seen = []

    def failures(module):
        seen.append(module)
        return (0,)

    first = next(probe_outcomes(probe_battery(Zmod(72)), failures))
    assert first[1] == frozenset({0})
    assert len(seen) == 1


def test_probe_outcomes_read_composites_off_parts():
    # 0 -> Z -6-> Z -> Z/6 -> 0 fails exactly at the probes Z/d, gcd(d, 6) > 1
    z = free_module(ZZ, 1)
    cx = make_complex(ZZ, 0, [z, z, cyclic_module(ZZ, 6)], [mat([[6]]), mat([[1]])])
    bat = probe_battery(ZZ, 12)
    outcomes = list(probe_outcomes(bat, lambda p: probe_homology_degrees(cx, p)))
    failing = [p.invariant_factors[0] for p, failed in outcomes if failed]
    assert failing == [2, 3, 4, 6, 8, 9, 10, 12]
    assert failing_probe_for_acyclic(cx, bat) == (bat.probes[1], 0)


@SAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(ORDER_RINGS),
       shape=st.sampled_from(SHAPES))
def test_probe_outcomes_match_direct_tensors(seed, ring, shape):
    cx = shaped_complex(random.Random(seed), ring, shape)
    bat = probe_battery(ring, 12)
    outcomes = list(probe_outcomes(bat, lambda p: probe_homology_degrees(cx, p)))
    assert [p for p, _ in outcomes] == list(bat.probes)
    for probe, failed in outcomes:
        assert failed == frozenset(probe_homology_degrees(cx, probe))
    assert failing_probe_for_acyclic(cx, bat) == slow_failing_probe_for_acyclic(cx, bat)


# ---------------------------------------------------------------------------
# probe tensors decided by module orders


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(ORDER_RINGS),
       shape=st.sampled_from(SHAPES), free=st.booleans())
def test_homology_degrees_match_homology_modules(seed, ring, shape, free):
    rng = random.Random(seed)
    cx = shaped_complex(rng, ring, shape)
    probe = free_module(ring, 1) if free else prime_power_probe(rng, ring)
    tensored = tensor_module_complex(cx, probe)
    assert homology_degrees(tensored) == slow_homology_degrees(tensored)


def test_homology_degrees_build_homology_only_at_free_terms(monkeypatch):
    built = []

    def counted(cx, i):
        built.append(i)
        return homology(cx, i)

    monkeypatch.setattr(complexes, "homology", counted)
    # Z -2-> Z -> Z/2: degrees 0 and 1 touch a free term, degree 2 does not
    cx = ses_complex()
    assert homology_degrees(cx) == []
    assert built == [0, 1]
    assert homology_degrees(tensor_module_complex(cx, cyclic_module(ZZ, 2))) == [0]
    assert built == [0, 1]


# ---------------------------------------------------------------------------
# every probe read off the complex's own Smith diagonals


def mixed_battery(rng, ring):
    """The free probe, then cyclic probes R/(d) with d composite, prime
    power or (over Z/m) not dividing m, and probes with several invariant
    factors, R/(2) (+) R/(6) among them, in random order."""
    cyclic = [cyclic_module(ring, d) for d in
              rng.sample([2, 4, 6, 8, 9, 10, 12, 14, 27, 36, 49, 98, 343, 202], 6)]
    sums = [direct_sum([cyclic_module(ring, 2), cyclic_module(ring, 6)])[0]]
    sums += [direct_sum([cyclic_module(ring, rng.choice([3, 4, 7, 12, 49])),
                         cyclic_module(ring, rng.choice([2, 9, 14, 101]))])[0]]
    if rng.random() < 0.5:
        sums += [direct_sum([free_module(ring, 1), cyclic_module(ring, 4)])[0]]
    probes = cyclic + sums
    rng.shuffle(probes)
    return ProbeBattery(ring, (free_module(ring, 1),) + tuple(probes))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(ORDER_RINGS),
       shape=st.sampled_from(SHAPES))
def test_probe_pass_matches_direct_tensors(seed, ring, shape):
    rng = random.Random(seed)
    cx = shaped_complex(rng, ring, shape)
    bat = mixed_battery(rng, ring)
    assert failing_probe_for_acyclic(cx, bat) == slow_failing_probe_for_acyclic(cx, bat)


def test_composite_and_multi_factor_probes_fail_through_a_summand():
    # 0 -> Z -6-> Z -> Z/6 -> 0 fails at R/(d) exactly when gcd(d, 6) > 1
    z = free_module(ZZ, 1)
    cx = make_complex(ZZ, 0, [z, z, cyclic_module(ZZ, 6)], [mat([[6]]), mat([[1]])])
    free, z35, z10 = free_module(ZZ, 1), cyclic_module(ZZ, 35), cyclic_module(ZZ, 10)
    sum_ = direct_sum([cyclic_module(ZZ, 5), cyclic_module(ZZ, 4)])[0]
    assert failing_probe_for_acyclic(cx, ProbeBattery(ZZ, (free, z35, z10))) == (z10, 0)
    assert failing_probe_for_acyclic(cx, ProbeBattery(ZZ, (free, z35, sum_))) == (sum_, 0)
    assert failing_probe_for_acyclic(cx, ProbeBattery(ZZ, (free, z35))) is None
    # over Z/12 the probes R/(5), R/(8) and R/(10) are 0, R/(4) and R/(2);
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 stays exact under R/(4), not under R/(2)
    ring = Zmod(12)
    cx = make_complex(ring, 0, [cyclic_module(ring, 2), cyclic_module(ring, 4),
                                cyclic_module(ring, 2)], [mat([[2]]), mat([[1]])])
    z5, z8, z10 = (cyclic_module(ring, d) for d in (5, 8, 10))
    bat = ProbeBattery(ring, (free_module(ring, 1), z5, z8, z10))
    assert failing_probe_for_acyclic(cx, bat) == (z10, 0)


def pure_z_complex():
    """The cone of the identity on Z (+) Z/6, Pure with free and torsion terms."""
    mod = direct_sum([free_module(ZZ, 1), cyclic_module(ZZ, 6)])[0]
    return cone(identity_chain_map(module_complex(mod))).complex


def test_probe_pass_eliminates_the_same_for_any_battery_size(monkeypatch):
    assert is_pure_acyclic(pure_z_complex()).is_pure()
    calls = []
    real = exact_linalg._eliminate

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(exact_linalg, "_eliminate", counted)
    counts = []
    for bound in (18, 400):
        bat = probe_battery(ZZ, bound)
        # CLI purity lists every probe's invariant factors before the pass
        for probe in bat.probes:
            probe.invariant_factors
        # a fresh complex, whose modules have cached no decomposition yet
        cx = pure_z_complex()
        exact_linalg.smith_normal_form.cache_clear()
        calls.clear()
        assert failing_probe_for_acyclic(cx, bat) is None
        counts.append((len(bat.probes), len(calls)))
    assert counts[0][0] == 18 and counts[1][0] == 400
    assert counts[0][1] == counts[1][1] > 0


# ---------------------------------------------------------------------------
# the battery read off the Smith diagonals


def test_smith_battery_lists_prime_powers_of_the_entries():
    def listed(cx):
        return [p.invariant_factors for p in smith_battery(cx).probes]

    # Z -2-> Z -> Z/2: entries 2 and 1, so Z/2 after the free probe
    assert listed(ses_complex()) == [(0,), (2,)]
    # 12 = 2^2 3 and 18 = 2 3^2 over Z: 2^k and 3^k for k <= 2
    z = free_module(ZZ, 1)
    cx = make_complex(ZZ, 0, [z, z, z], [mat([[12]]), mat([[0]])])
    cx = direct_sum_complexes([cx, module_complex(cyclic_module(ZZ, 18), 0)])[0]
    assert listed(cx) == [(0,), (2,), (3,), (4,), (9,)]
    # over Z/72 = Z/(2^3 3^2) the entry 6 gives k <= 1 for both primes; over
    # Z/8 the entry 4 gives k <= 2, and over Z/4 R/(4) is the free probe,
    # not listed again
    ring = Zmod(72)
    cx = module_complex(direct_sum([cyclic_module(ring, 2), cyclic_module(ring, 3)])[0])
    assert listed(cx) == [(72,), (2,), (3,)]
    assert listed(module_complex(cyclic_module(Zmod(8), 4))) == [(8,), (2,), (4,)]
    z4 = Zmod(4)
    cx = make_complex(z4, 0, [free_module(z4, 1)] * 2, [mat([[2]])])
    assert listed(cx) == [(4,), (2,)]


@pytest.mark.parametrize("ring", [ZZ, Zmod(54), Zmod(81)])
def test_the_first_failing_probe_can_be_a_square(ring):
    # Z/9 -> Z/27 + Z/3 by (3, 1) onto its cokernel: A n 3B = 3A but
    # A n 9B != 9A, so R/(3) passes and R/(9) is the first failing probe
    a = make_module(ring, 1, [[9]])
    b = make_module(ring, 2, [[27, 0], [0, 3]])
    f = make_map(a, b, [[3], [1]])
    c, g = cokernel(f)
    cx = Complex(ring, 0, (a, b, c), (f, g))
    verdict = is_pure_acyclic(cx)
    assert verdict.probe.invariant_factors == (9,) and verdict.witness == 0
    assert probe_homology_degrees(cx, cyclic_module(ring, 3)) == []
    assert probe_homology_degrees(cx, verdict.probe) == [0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(ORDER_RINGS),
       shape=st.sampled_from(("random", "pure", "nonsplit", "qis-cone", "square")))
def test_smith_battery_agrees_with_the_entry_bound_battery(seed, ring, shape):
    rng = random.Random(seed)
    cx = shaped_complex(rng, ring, shape)
    verdict = is_pure_acyclic(cx)
    new = failing_probe_for_acyclic(cx, smith_battery(cx))
    # the entry-bound battery and the one with exponents up to K_p + 1
    # find the same first failing probe, in the same degree, where they find one
    for oracle in (default_battery(ring, cx), uncapped_smith_battery(cx)):
        old = failing_probe_for_acyclic(cx, oracle)
        assert (old is None) == (new is None)
        if old is not None:
            assert (new[0].invariant_factors, new[1]) == (old[0].invariant_factors, old[1])
    if contract_complex(cx) is None:
        # complete: some probe fails, and a direct tensor confirms it
        assert not verdict.is_pure() and new is not None
        assert (verdict.probe, verdict.witness) == new
        assert min(probe_homology_degrees(cx, new[0])) == new[1]
    else:
        assert verdict.is_pure() and new is None


# ---------------------------------------------------------------------------
# factoring


def test_factor_matches_trial_division():
    for m in range(2, 10 ** 5 + 1):
        assert _factor(m) == slow_factor(m)


def test_factor_splits_large_composites():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert _factor(p * q) == [(p, 1), (q, 1)]
    assert _factor(12 * p ** 2) == [(2, 2), (3, 1), (p, 2)]
    assert _factor(1009 ** 3) == [(1009, 3)]
    # above the Miller-Rabin bound, split by rho under its work budget
    p, q = 2 ** 31 - 1, 2 ** 61 - 1
    assert _factor(p * q) == [(p, 1), (q, 1)]
    assert _factor(5 * p ** 2 * q) == [(5, 1), (p, 2), (q, 1)]


def test_factor_prime_near_10_to_18_is_fast():
    p = 10 ** 18 + 3
    start = time.perf_counter()
    assert _factor(p) == [(p, 1)]
    assert time.perf_counter() - start < 0.1


def test_factor_rejects_factor_beyond_primality_proofs():
    # 2^89 - 1 is prime, but above the bound where 13 Miller-Rabin bases prove it
    with pytest.raises(WorkbenchError, match="cannot factor"):
        _factor(3 * (2 ** 89 - 1))
