"""Pinned resolution certificates and the number of contractions behind them.

The digests are sha256 prefixes of the sorted JSON encoding of each
certificate; a change to any map, target window or contraction shows up
here.  The counts pin that each resolution is certified once, where its
certificate is kept, and that no contraction is solved for: every one is
written down from reduce_complex's homotopy or recast from a cone
certificate.  `resolve` builds no tower and certifies only its own cone at
every depth, a tower of depth d with its (co)limit certifies d cone
resolutions plus the (co)limit's cone, and a lift certifies only the
lifted resolution's cone.  The paddings are certified by the solving
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
    """resolve at depth None, need and need + 1; the tower of depth need + 1
    with its cone certificates and (co)limit; two paddings."""
    certs = [resolve(m, side, depth=depth) for depth in (None, need, need + 1)]
    return (certs + tower_certs(m, side, need + 1)
            + [pad_resolution(certs[0], seed) for seed in (1, 2)])


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
    "Z-injective-bounded-0": "eb3d7133c3b63f46",
    "Z-injective-bounded-1": "a4b12b40eaa31d8f",
    "Z-injective-deep-0": "3fd2db844f975cdf",
    "Z-injective-top": "a12b5ce054c54aa3",
    "Z-injective-tower-0": "781c25258ab7b353",
    "Z-injective-tower-1": "8e95c3d89399051d",
    "Z-projective-bounded-0": "026cf11b6dd505ab",
    "Z-projective-bounded-1": "914ba2bfcaceac86",
    "Z-projective-deep-0": "6ae474fbd6aa37c5",
    "Z-projective-top": "eb5b0cfe4a170d37",
    "Z-projective-tower-0": "6c4fe18b445b3c1c",
    "Z-projective-tower-1": "ef05ccd6f7da3bd7",
    "Z12-injective-bounded-0": "5cde03fca598549f",
    "Z12-injective-bounded-1": "91720a6b7b9bc3bf",
    "Z12-injective-deep-0": "32dcd585196474a5",
    "Z12-injective-top": "11b8ea0cb035fa24",
    "Z12-injective-tower-0": "5ea8839970fe3d16",
    "Z12-injective-tower-1": "539f52228a4340bc",
    "Z12-projective-bounded-0": "caa252b23cabca97",
    "Z12-projective-bounded-1": "bfe214fb0ff66551",
    "Z12-projective-deep-0": "b4f6dcb213d99cb6",
    "Z12-projective-top": "ac86b62d1b62f0c3",
    "Z12-projective-tower-0": "a1b78a37107e3a44",
    "Z12-projective-tower-1": "7afb1d8600ae7410",
    "Z72-injective-bounded-0": "4ede60018f21d58e",
    "Z72-injective-bounded-1": "6355e44ba1d6c63b",
    "Z72-injective-deep-0": "d19587cb6bcc1be5",
    "Z72-injective-top": "554d066652b72883",
    "Z72-injective-tower-0": "31abf0b69424ae64",
    "Z72-injective-tower-1": "2d50751b97d92585",
    "Z72-projective-bounded-0": "02a1124b0ec5ccdc",
    "Z72-projective-bounded-1": "01abb06cede64ee3",
    "Z72-projective-deep-0": "33c4ce64070ec27e",
    "Z72-projective-top": "21082f79d25a5d49",
    "Z72-projective-tower-0": "54fa1e44b4e94a86",
    "Z72-projective-tower-1": "5bc1b87d4a4d7764",
    "lift-Z-injective": "e5b0ca53cf2e65e6",
    "lift-Z-projective": "a0cb64c736f8003f",
    "lift-Z12-injective": "ac7731ee72cedfb7",
    "lift-Z12-projective": "a3c8b9edc85d75da",
    "lift-Z72-injective": "f2c0c878de673a56",
    "lift-Z72-projective": "c4d643d57f09d333",
    "zero-injective": "122454b534e453bc",
    "zero-projective": "184f0f5035726bec",
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
        monkeypatch, contractions, ring_name, side):
    def refuse(*args):
        raise AssertionError("a tower was built")

    for name in ("_tower", "injective_tower", "projective_tower", "_check_tower"):
        monkeypatch.setattr(resolutions, name, refuse)
    for m, need in inputs(ring_name, side).values():
        certs = []
        for depth in (None, need, need + 1):
            contractions.clear()
            certs.append(encode_certificate(resolve(m, side, depth=depth)))
            assert len(contractions) == 1
        assert certs[0] == certs[1] == certs[2]


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
