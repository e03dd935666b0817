"""Pinned resolution certificates and the number of contractions behind them.

The digests are sha256 prefixes of the sorted JSON encoding of each
certificate; a change to any map, target window or contraction shows up
here.  The counts pin that each resolution is certified once, where its
certificate is kept, and that no contraction is solved for: every one is
written down from reduce_complex's homotopy or recast from a cone
certificate.  `resolve` builds no tower and certifies only its own cone,
and the command ignores any depth it is given; a tower of depth d with
its (co)limit certifies d cone resolutions plus the (co)limit's cone,
and a lift certifies only the lifted resolution's cone.  The paddings are certified by the solving
oracle, helpers.solved_certificate.  One command line run checks the
contraction of each certificate it makes once, and no other.
"""

import contextlib
import functools
import hashlib
import io
import json
import random

import pytest

from purcat import cli, homotopy, resolutions
from purcat.exact_linalg import ZZ, Zmod
from purcat.complexes import Homotopy, cone, trim, zero_complex
from purcat.randgen import random_chain_map, random_complex
from purcat.resolutions import (
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
    resolve,
    validate_certificate,
)
from purcat.serialize import WorkbenchInput, encode_certificate, serialize_input
import helpers
from helpers import lift_injective, lift_projective, pad_resolution

RINGS = {"Z": ZZ, "Z12": Zmod(12), "Z72": Zmod(72)}
SIDES = ("injective", "projective")


def digest(certs) -> str:
    h = hashlib.sha256()
    for cert in certs:
        h.update(json.dumps(encode_certificate(cert), sort_keys=True).encode())
    return h.hexdigest()[:16]


def sample(rng, ring, side, lo, length, need=0, max_gens=2):
    """A random complex on [lo, lo + length - 1] whose resolution on this side
    needs a tower of depth `need`; torsion where the side needs it."""
    while True:
        m = random_complex(rng, ring, lo, length, max_gens=max_gens)
        if side == "injective" and not all(x.is_torsion() for x in m.modules):
            continue
        if trim(m).modules and required_depth(m, side) == need:
            return m


# seeds of one-level draws whose tower top is not minimal, found by search
# on towers whose cones were not reduced; with every cone reduced
# completely the (co)limit still keeps contractible summands on three of
# the six (Z-injective, Z12-injective and Z72-projective), which
# reduce_complex cancels, and both certificates are pinned on each side
TOP_SEEDS = {"Z-injective": 6, "Z-projective": 23, "Z12-injective": 0,
             "Z12-projective": 2, "Z72-injective": 8, "Z72-projective": 1}


@functools.lru_cache(maxsize=None)
def inputs(ring_name, side):
    """Name -> (complex, tower depth it needs): draws needing no tower, one
    level and two levels (the costliest, with smaller terms), and the
    TOP_SEEDS draw."""
    ring = RINGS[ring_name]
    step = -1 if side == "injective" else 1

    def draw(rng, need, max_gens):
        return sample(rng, ring, side, min(0, step * need), 2 + need, need, max_gens), need

    rng = random.Random(f"{ring_name}-{side}")
    out = {f"{kind}-{k}": draw(rng, need, max_gens)
           for kind, need, draws, max_gens in (("bounded", 0, 2, 3), ("tower", 1, 2, 3),
                                               ("deep", 2, 1, 2))
           for k in range(draws)}
    seed = TOP_SEEDS[f"{ring_name}-{side}"]
    out["top"] = draw(random.Random(f"{ring_name}-{side}-top-{seed}"), 1, 3)
    return out


def tower_certs(m, side, depth):
    if side == "injective":
        tower, fs = injective_tower(m, depth)
        top = limit_tower(tower, fs)
    else:
        tower, fs = projective_tower(m, depth)
        top = colimit_tower(tower, fs)
    return list(tower.cone_certificates) + [top]


def lift_input(ring_name, side):
    """(lift, f: M2 -> M1, the given resolution) for lift_injective / lift_projective."""
    rng = random.Random(f"lift-{ring_name}-{side}")
    ring = RINGS[ring_name]
    m1 = trim(sample(rng, ring, "injective", 0, 2))
    m2 = trim(sample(rng, ring, "injective", 0, 2))
    f = random_chain_map(rng, m2, m1)
    if side == "injective":
        return lift_injective, f, resolve(m1, side)
    return lift_projective, f, resolve(m2, side)


def lift_cert(ring_name, side):
    lift, f, given = lift_input(ring_name, side)
    return lift(f, given)[0]


def pinned(m, side, need):
    """resolve; the tower of depth need + 1 with its cone certificates and
    (co)limit; two paddings of resolve's certificate."""
    cert = resolve(m, side)
    return ([cert] + tower_certs(m, side, need + 1)
            + [pad_resolution(cert, seed) for seed in (1, 2)])


def cases():
    """Case name -> a thunk giving the certificates that case pins."""
    out = {}
    for ring_name in RINGS:
        for side in SIDES:
            for name, (m, need) in inputs(ring_name, side).items():
                out[f"{ring_name}-{side}-{name}"] = (
                    lambda m=m, side=side, need=need: pinned(m, side, need))
            out[f"lift-{ring_name}-{side}"] = (
                lambda ring_name=ring_name, side=side: [lift_cert(ring_name, side)])
    z = zero_complex(Zmod(6))
    for side in SIDES:
        out[f"zero-{side}"] = lambda side=side: pinned(z, side, 0)
    return out


DIGESTS = {
    "Z-injective-bounded-0": "317e17fcecc3065a",
    "Z-injective-bounded-1": "4ac9e225b9b4aefa",
    "Z-injective-deep-0": "d96fb954a8c6b00b",
    "Z-injective-top": "0f352c69aac5fd19",
    "Z-injective-tower-0": "481a070cfa20f723",
    "Z-injective-tower-1": "ceabee259ac6413a",
    "Z-projective-bounded-0": "961cf22c2961af91",
    "Z-projective-bounded-1": "a61e0ddd5aeef1b2",
    "Z-projective-deep-0": "10f4a2df3fe0d88a",
    "Z-projective-top": "4f7bee98eaf0cf4a",
    "Z-projective-tower-0": "6ca47278532d4f07",
    "Z-projective-tower-1": "f210a271da865033",
    "Z12-injective-bounded-0": "56ea7888c336e3bf",
    "Z12-injective-bounded-1": "9a252f6ef1bc40b5",
    "Z12-injective-deep-0": "a5e8d7e5b0b7ce39",
    "Z12-injective-top": "36004a1289496bd6",
    "Z12-injective-tower-0": "ff155a816499967a",
    "Z12-injective-tower-1": "cc2ace7d355c4306",
    "Z12-projective-bounded-0": "25b9e09c96937b08",
    "Z12-projective-bounded-1": "4bed1e8158064c8a",
    "Z12-projective-deep-0": "20b929f37938d121",
    "Z12-projective-top": "9c382f8d9f9d8711",
    "Z12-projective-tower-0": "0556e5d1f5c696ff",
    "Z12-projective-tower-1": "fc23067b8ea7316d",
    "Z72-injective-bounded-0": "8bb61e500d3c81a3",
    "Z72-injective-bounded-1": "fbc018ae8f169131",
    "Z72-injective-deep-0": "30a3b33327cf1b1a",
    "Z72-injective-top": "67531d4e4c3d9c2c",
    "Z72-injective-tower-0": "9034979ad48f8731",
    "Z72-injective-tower-1": "770720166c5eca52",
    "Z72-projective-bounded-0": "96dd316d493b8a6e",
    "Z72-projective-bounded-1": "02dd807c12a844e4",
    "Z72-projective-deep-0": "3c6768f1da6dc2e4",
    "Z72-projective-top": "9a2a8bbd2ea56913",
    "Z72-projective-tower-0": "4292384f476ddd3e",
    "Z72-projective-tower-1": "5d343364ca3347ca",
    "lift-Z-injective": "e5b0ca53cf2e65e6",
    "lift-Z-projective": "a0cb64c736f8003f",
    "lift-Z12-injective": "ac7731ee72cedfb7",
    "lift-Z12-projective": "a3c8b9edc85d75da",
    "lift-Z72-injective": "f2c0c878de673a56",
    "lift-Z72-projective": "c4d643d57f09d333",
    "zero-injective": "e692603c1a833503",
    "zero-projective": "79d502507548d2ba",
}


@pytest.mark.parametrize("name", sorted(cases()))
def test_certificate_digest_is_pinned(name):
    certs = cases()[name]()
    assert all(validate_certificate(c) for c in certs)
    assert digest(certs) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(cases())


@pytest.fixture
def contractions(monkeypatch):
    """The cone of every certificate made; solving a contraction fails."""
    calls = []
    real = resolutions._certificate

    def counted(source, target, res_map, side, witness):
        calls.append(cone(res_map).complex)
        return real(source, target, res_map, side, witness)

    def refuse(cx):
        raise AssertionError("a contraction was solved for")

    monkeypatch.setattr(resolutions, "_certificate", counted)
    monkeypatch.setattr(helpers, "_certificate", counted)
    monkeypatch.setattr(homotopy, "contract_complex", refuse)
    return calls


def test_resolutions_do_not_import_the_solver():
    assert not hasattr(resolutions, "contract_complex")


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_resolve_builds_no_tower_and_contracts_once_at_every_depth(
        tmp_path, monkeypatch, contractions, ring_name, side):
    """The resolve command, with no depth, a depth below the need and one
    above it, certifies resolve's certificate and contracts once."""
    def refuse(*args):
        raise AssertionError("a tower was built")

    for name in ("_tower", "injective_tower", "projective_tower", "_check_tower"):
        monkeypatch.setattr(resolutions, name, refuse)
    path = tmp_path / "ws.json"
    for m, need in inputs(ring_name, side).values():
        want = json.loads(json.dumps(encode_certificate(resolve(m, side))))
        path.write_text(serialize_input(WorkbenchInput(
            m.ring, complexes={"c": m}, parameters={"complex": "c", "side": side})))
        for flags in ((), ("--depth", str(need - 1)), ("--depth", str(need + 1))):
            contractions.clear()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["resolve", "--json", *flags, str(path)]) == 0
            assert len(contractions) == 1
            assert json.loads(out.getvalue())["results"]["certificate"] == want


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_tower_resolve_contracts_once_per_level_and_once_at_the_top(
        contractions, ring_name, side):
    for m, need in inputs(ring_name, side).values():
        contractions.clear()
        tower_certs(m, side, need + 1)
        assert len(contractions) == need + 2


# the towers certificates of the two bounded draws of each ring and side,
# which need no tower: the same as when the base was reduced twice
DEPTH_ZERO_DIGESTS = {
    "Z-injective": "5cb9eda3288ff54e",
    "Z-projective": "7000bd739565c5f0",
    "Z12-injective": "566b94f52cf23712",
    "Z12-projective": "067741c26f2e9cf0",
    "Z72-injective": "6497ef43cd02ffdb",
    "Z72-projective": "b5bc6963c40b79e9",
}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_depth_zero_towers_reduce_their_base_once(tmp_path, monkeypatch, ring_name, side):
    """The base, its map and the contraction of its cone, the top's
    witness at depth 0, come from one reduce_complex, and the certificate
    is resolve's."""
    calls = []
    real = resolutions.reduce_complex
    monkeypatch.setattr(resolutions, "reduce_complex", lambda cx: calls.append(cx) or real(cx))
    h = hashlib.sha256()
    for name in ("bounded-0", "bounded-1"):
        m, need = inputs(ring_name, side)[name]
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_input(WorkbenchInput(
            m.ring, complexes={"c": m}, parameters={"complex": "c", "side": side})))
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["towers", "--json", str(path)]) == 0
        results = json.loads(out.getvalue())["results"]
        assert need == results["depth"] == 0
        assert len(calls) == 1
        cert = results["certificate"]
        assert cert == json.loads(json.dumps(encode_certificate(resolve(m, side))))
        h.update(json.dumps(cert, sort_keys=True).encode())
    assert h.hexdigest()[:16] == DEPTH_ZERO_DIGESTS[f"{ring_name}-{side}"]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_lift_contracts_only_the_lifted_resolution(contractions, ring_name, side):
    lift, f, given = lift_input(ring_name, side)
    contractions.clear()
    lifted, _, _ = lift(f, given)
    assert contractions == [cone(lifted.map).complex]


# the complexes each command reads, and Homotopy.witnesses calls behind one
# run: one per certificate made, none again before the report is written
WITNESS_RUNS = {
    "resolve-injective": ("resolve", {"complex": "c", "side": "injective"}, (), 1),
    "resolve-projective": ("resolve", {"complex": "c", "side": "projective"}, (), 1),
    # the default depth is the need: 1 injective, 2 projective
    "towers-injective": ("towers", {"complex": "c", "side": "injective"}, (), 2),
    "towers-projective": ("towers", {"complex": "c", "side": "projective"}, (), 3),
    "towers-injective-depth-4": ("towers", {"complex": "c", "side": "injective"},
                                 ("--depth", "4"), 5),
    "towers-projective-depth-4": ("towers", {"complex": "c", "side": "projective"},
                                  ("--depth", "4"), 5),
    "phom": ("phom", {"a": "c", "b": "c"}, (), 2),
    "adjunction": ("adjunction", {"a": "c", "b": "c", "c": "c"}, (), 3),
}


@pytest.mark.parametrize("command,parameters,flags,count", WITNESS_RUNS.values(),
                         ids=WITNESS_RUNS.keys())
def test_each_certificate_is_checked_once(tmp_path, monkeypatch, command, parameters,
                                          flags, count):
    """resolve checks 1 certificate, a tower of depth d with its (co)limit
    d + 1, phom 2 and adjunction 3 (the resolutions of a, b and c)."""
    ring = Zmod(12)
    cx = random_complex(random.Random(7), ring, -1, 4, max_gens=3)
    path = tmp_path / "ws.json"
    path.write_text(serialize_input(WorkbenchInput(ring, complexes={"c": cx},
                                                   parameters=parameters)))
    calls = []
    real = Homotopy.witnesses

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(Homotopy, "witnesses", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, "--json", *flags, str(path)])
    assert code == 0
    report = json.loads(out.getvalue())["results"]
    if command == "towers":
        assert count == report["depth"] + 1
    assert len(calls) == count
