"""Purity decisions: batteries, split criteria, probe witnesses."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import (
    NotMono,
    cyclic_module,
    direct_sum,
    free_module,
    identity_map,
    kernel,
    make_map,
    make_module,
)
from purcat.complexes import (
    cone,
    direct_sum_complexes,
    homology,
    hom_module_complex,
    identity_chain_map,
    is_acyclic,
    make_complex,
    module_complex,
    tensor_module_complex,
    zero_complex,
)
from purcat.purity import (
    _factor,
    NotAcyclicAt,
    ProbeBattery,
    default_battery,
    failing_probe_for_acyclic,
    failing_probe_for_mono,
    is_pure_acyclic,
    is_pure_acyclic_at,
    is_pure_mono,
    is_pure_qis,
    probe_battery,
    probe_outcomes,
)
from purcat.randgen import random_complex, random_contractible, random_pure_acyclic
from helpers import (
    homology_degrees,
    mat,
    slow_failing_probe_for_acyclic,
    slow_factor,
    slow_failing_probe_for_mono,
    slow_probe_battery,
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
# pure monomorphisms


def test_times_two_not_pure_witness_z2():
    z = free_module(ZZ, 1)
    f = make_map(z, z, mat([[2]]))
    verdict = is_pure_mono(f)
    assert not verdict.is_pure()
    assert verdict.probe is not None
    assert verdict.probe.invariant_factors == (2,)
    induced = verdict.witness
    assert induced.matrix.at(0, 0) % 2 == 0


def test_summand_inclusion_is_pure():
    a = cyclic_module(Zmod(8), 4)
    b = cyclic_module(Zmod(8), 8)
    total, injs, _ = direct_sum([a, b])
    verdict = is_pure_mono(injs[0])
    assert verdict.is_pure()
    r = verdict.witness
    assert (r @ injs[0]).equals(identity_map(a))


def test_identity_is_pure():
    m = make_module(Zmod(12), 2, mat([[4, 0], [0, 6]]))
    assert is_pure_mono(identity_map(m)).is_pure()


def test_is_pure_mono_requires_mono():
    z = free_module(ZZ, 1)
    f = make_map(z, cyclic_module(ZZ, 2), mat([[1]]))
    with pytest.raises(NotMono):
        is_pure_mono(f)


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
    assert is_acyclic(cx)
    verdict = is_pure_acyclic(cx)
    assert not verdict.is_pure()
    assert verdict.probe is not None
    assert verdict.probe.invariant_factors == (2,)
    tensored = tensor_module_complex(cx, verdict.probe)
    assert not homology(tensored, verdict.witness).is_zero()


def test_pure_acyclic_at_rejects_homology():
    cx = module_complex(cyclic_module(ZZ, 2), 0)
    with pytest.raises(NotAcyclicAt) as err:
        is_pure_acyclic_at(cx, 0)
    assert err.value.degree == 0


def test_pure_acyclic_at_ses():
    cx = ses_complex()
    assert not is_pure_acyclic_at(cx, 1).is_pure()


def test_pure_acyclic_at_split_middle():
    a = cyclic_module(ZZ, 4)
    b = cyclic_module(ZZ, 9)
    total, injs, projs = direct_sum([a, b])
    cx = make_complex(ZZ, 0, [a, total, b], [injs[0].matrix, projs[1].matrix])
    assert is_pure_acyclic_at(cx, 1).is_pure()


def test_contractible_pure_at_every_degree():
    rng = random.Random(3)
    cx = random_contractible(rng, Zmod(12))
    for n in range(cx.lo, cx.hi + 1):
        assert is_pure_acyclic_at(cx, n).is_pure()


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


# ---------------------------------------------------------------------------
# agreement properties


def test_degreewise_equivalence_random():
    rng = random.Random(7)
    bat = probe_battery(Zmod(12), 1)
    for _ in range(25):
        cx = random_complex(rng, Zmod(12), -1, rng.randint(1, 4), max_gens=2)
        total = is_pure_acyclic(cx, bat).is_pure()
        degreewise = True
        for n in range(cx.lo, cx.hi + 1):
            try:
                if not is_pure_acyclic_at(cx, n, bat).is_pure():
                    degreewise = False
            except NotAcyclicAt:
                degreewise = False
        assert total == degreewise


def test_pure_verdict_probe_soundness():
    rng = random.Random(11)
    bat = probe_battery(Zmod(12), 1)
    checked = 0
    for _ in range(40):
        cx = random_pure_acyclic(rng, Zmod(12))
        verdict = is_pure_acyclic(cx, bat)
        if not verdict.is_pure():
            continue
        checked += 1
        for probe in bat.probes:
            assert is_acyclic(tensor_module_complex(cx, probe))
            assert is_acyclic(hom_module_complex(probe, cx))
    assert checked >= 30


def test_contraction_and_probe_criteria_agree_micro():
    rng = random.Random(13)
    bat = probe_battery(Zmod(4), 1)
    seen_pure = 0
    seen_not = 0
    for _ in range(60):
        cx = random_complex(rng, Zmod(4), 0, rng.randint(1, 3), max_gens=2)
        by_contraction = is_pure_acyclic(cx, bat).is_pure()
        by_probes = all(
            is_acyclic(tensor_module_complex(cx, p)) for p in bat.probes
        )
        assert by_contraction == by_probes
        if by_contraction:
            seen_pure += 1
        else:
            seen_not += 1
    assert seen_not >= 10


# ---------------------------------------------------------------------------
# arithmetic batteries and prime-power probe evaluation

RINGS = (ZZ, Zmod(12), Zmod(72))
SAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def nonsplit_ses(rng, ring):
    """A non-split short exact sequence 0 -> A -> B -> C -> 0 in degrees 0..2.

    Either 0 -> Z -n-> Z -> Z/n -> 0 over Z, or
    0 -> R/(p^a) -> R/(p^(a+b)) -> R/(p^b) -> 0 with p^(a+b) dividing m.
    """
    if ring.modulus is None and rng.random() < 0.5:
        n = rng.randint(2, 12)
        z = free_module(ring, 1)
        return make_complex(ring, 0, [z, z, cyclic_module(ring, n)],
                            [mat([[n]]), mat([[1]])])
    p, top = rng.choice([(2, 2)] if ring.modulus == 12 else [(2, 3), (3, 2)])
    a = rng.randint(1, top - 1)
    b = top - a
    mods = [cyclic_module(ring, p ** a), cyclic_module(ring, p ** top),
            cyclic_module(ring, p ** b)]
    return make_complex(ring, 0, mods, [mat([[p ** b]]), mat([[1]])])


def sample_complex(rng, ring, nonsplit):
    """A random complex, or a non-split sequence hidden in a pure acyclic sum."""
    if not nonsplit:
        return random_complex(rng, ring, -1, rng.randint(1, 3), max_gens=2)
    total, _, _ = direct_sum_complexes([nonsplit_ses(rng, ring),
                                        random_pure_acyclic(rng, ring)])
    return total


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
    outcomes = list(probe_outcomes(bat, lambda p: homology_degrees(cx, p)))
    failing = [p.invariant_factors[0] for p, failed in outcomes if failed]
    assert failing == [2, 3, 4, 6, 8, 9, 10, 12]
    assert failing_probe_for_acyclic(cx, bat) == (bat.probes[1], 0)


@SAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(RINGS),
       nonsplit=st.booleans())
def test_probe_outcomes_match_direct_tensors(seed, ring, nonsplit):
    rng = random.Random(seed)
    cx = sample_complex(rng, ring, nonsplit)
    bat = probe_battery(ring, 12)
    outcomes = list(probe_outcomes(bat, lambda p: homology_degrees(cx, p)))
    assert [p for p, _ in outcomes] == list(bat.probes)
    for probe, failed in outcomes:
        assert failed == frozenset(homology_degrees(cx, probe))
    assert failing_probe_for_acyclic(cx, bat) == slow_failing_probe_for_acyclic(cx, bat)


@SAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(RINGS),
       nonsplit=st.booleans())
def test_failing_probe_for_mono_matches_direct(seed, ring, nonsplit):
    rng = random.Random(seed)
    if nonsplit:
        f = nonsplit_ses(rng, ring).differential(0)
    else:
        cx = random_complex(rng, ring, 0, 3, max_gens=2)
        _, f = kernel(cx.differential(1))
    bat = probe_battery(ring, 12)
    assert failing_probe_for_mono(f, bat) == slow_failing_probe_for_mono(f, bat)


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
