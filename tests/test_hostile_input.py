"""Hostile JSON for the input codecs: every case is a clean error or an answer.

Valid documents (a workspace and a resolution certificate) are mutated
at random places: values replaced by wrong types, bools where ints
belong, ragged or negative shapes, huge windows and moduli; keys
dropped; list entries removed or added.  parse_input and
decode_certificate may only raise InputError, validation may only
answer or raise a WorkbenchError, and the command line must always
write a report and exit 0, 1 or 2, never raise.  Generator counts are
set to huge values too; decode_module rejects those before allocating.
"""

import contextlib
import copy
import io
import json
import random
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from purcat import cli
from purcat.exact_linalg import InputError, WorkbenchError, Zmod
from purcat.complexes import identity_chain_map
from purcat.randgen import random_complex
from purcat.resolutions import resolve, validate_certificate
from purcat.serialize import (
    WorkbenchInput,
    decode_certificate,
    encode_certificate,
    encode_input,
    parse_input,
)

RING = Zmod(12)
CX = random_complex(random.Random(3), RING, 0, 1, max_gens=2)
WORKSPACE = encode_input(WorkbenchInput(
    RING, modules={"m": CX.module(0)}, complexes={"c": CX},
    maps={"id": identity_chain_map(CX)},
    parameters={"complex": "c", "map": "id", "side": "projective"},
))
CERTIFICATE = encode_certificate(resolve(CX, "projective"))

HUGE = (10 ** 18, -10 ** 18, 2 ** 64 + 1)
WINDOW_KEYS = ("lo", "hi", "m")
# values that may be replaced by a huge one
SIZE_KEYS = WINDOW_KEYS + ("generators",)
# where hostile edits do the most damage; half of all edits land here
FOCUS = SIZE_KEYS + ("components", "modules", "differentials", "relations")

small_ints = st.integers(-3, 3)
hostile = st.one_of(
    st.booleans(), st.none(), small_ints, st.floats(allow_nan=False, width=16),
    st.text(max_size=3), st.just([]), st.just({}), st.just([[]]),
    st.just([[1, 2], [3]]), st.just([[True]]), st.just([[1.5]]),
    st.lists(small_ints, max_size=3), st.lists(st.lists(small_ints, max_size=3), max_size=3),
    st.fixed_dictionaries({"kind": st.sampled_from(["Z", "Zmod", "Q"]),
                           "m": st.one_of(small_ints, st.booleans(), st.sampled_from(HUGE))}),
)


def _paths(node, prefix=()):
    """Every (path, value) below node, containers first."""
    out = []
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return out
    for key, value in items:
        out.append((prefix + (key,), value))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, base):
    """base with one to three hostile edits.

    An edit replaces, drops or appends to a value, or shifts a whole
    window (lo and hi together) by a huge offset, so that windows far
    apart still decode."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if draw(st.booleans()):
            paths = [p for p in paths if p[0][-1] in FOCUS] or paths
        windows = [p for p, v in paths if isinstance(v, dict) and "lo" in v]
        if not paths:
            break
        op = draw(st.sampled_from(["replace", "replace", "drop", "grow", "shift"]))
        if op == "shift" and windows:
            window = _at(doc, draw(st.sampled_from(windows)))
            offset = draw(st.sampled_from(HUGE))
            for key in ("lo", "hi"):
                if isinstance(window.get(key), int):
                    window[key] += offset
            continue
        path, _ = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "drop":
            del parent[key]
        elif op == "grow" and isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(draw(hostile)))
        elif key in SIZE_KEYS:
            parent[key] = copy.deepcopy(draw(st.one_of(st.sampled_from(HUGE), hostile)))
        else:
            parent[key] = copy.deepcopy(draw(hostile))
    return doc


def run_cli(command, text):
    """Exit status and report of one in-process run reading text from stdin."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--json", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    return code, json.loads(out.getvalue())


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def test_the_unmutated_documents_are_accepted():
    parse_input(json.dumps(WORKSPACE))
    assert validate_certificate(decode_certificate(CERTIFICATE))
    assert run_cli("validate-cert", json.dumps(CERTIFICATE))[0] == 0
    assert run_cli("homology", json.dumps(WORKSPACE))[0] == 0


@FUZZ
@given(mutated(WORKSPACE))
def test_hostile_workspaces_are_rejected_cleanly(doc):
    text = json.dumps(doc)
    try:
        parse_input(text)
    except InputError:
        pass
    code, report = run_cli("homology", text)
    assert (code == 2) == (report["status"] == "error")


@FUZZ
@given(mutated(CERTIFICATE))
def test_hostile_certificates_are_rejected_cleanly(doc):
    try:
        cert = decode_certificate(doc)
    except InputError:
        cert = None
    if cert is not None:
        try:
            assert validate_certificate(cert) in (True, False)
        except WorkbenchError:
            pass
    for payload in (doc, {"results": {"certificate": doc}}):
        code, report = run_cli("validate-cert", json.dumps(payload))
        assert (code == 2) == (report["status"] == "error")
