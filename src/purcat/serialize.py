"""JSON workspace files and object codecs for the command line.

A workspace file is a single JSON object holding a ring, named modules,
named complexes, named chain maps, and a parameters block with the
arguments of the command being run.  Reports embed complexes and
resolution certificates inline, and every certificate a report embeds
decodes back into an object that can be re-validated from scratch.

Matrices are row-major integer arrays.  A map matrix has one row per
target generator and one column per source generator; a relation matrix
has one row per generator and one column per relation.

A module may have at most MAX_GENERATORS generators.  The generator
count is the one field whose size the document does not pay for:
relations left out stand for an empty relation matrix of full height,
so a short document could ask for any amount of memory.  A larger count
is rejected before anything is allocated.  The bound sits far above the
modules of the tests and the benchmark corpora, which have a handful of
generators each.

A tower depth, from a workspace's "depth" parameter or the command
line, may be at most MAX_DEPTH for the same reason: towers builds one
level per unit of depth, past the depth the input needs too, so a short
document or flag could ask for any amount of work.  The bound sits far
above the depth of any tower the tests and corpora build (at most 11).
"""

from __future__ import annotations

import json
from typing import Optional

from purcat.exact_linalg import IntMatrix, InputError, Record, Ring, WorkbenchError
from purcat.fpmod import FpModule, lincomb_in_relations, make_map, make_module
from purcat.complexes import ChainMap, Complex, Homotopy, cone
from purcat.resolutions import INJECTIVE, PROJECTIVE, ResolutionCertificate

FORMAT = 1
MAX_GENERATORS = 1000
MAX_DEPTH = 256


# ---------------------------------------------------------------------------
# scalars and matrices


def _as_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}: expected an integer")
    return value


def encode_matrix(mat: IntMatrix) -> list:
    return [list(row) for row in mat.data]


def decode_matrix(data, where: str) -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise InputError(f"{where}: a matrix is a list of integer rows")
    widths = {len(r) for r in data}
    if len(widths) > 1:
        raise InputError(f"{where}: matrix rows have unequal lengths")
    for row in data:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"{where}: matrix entries must be integers")
    return IntMatrix.from_rows(data)


def _shaped(mat: IntMatrix, rows: int, cols: int, where: str) -> IntMatrix:
    """Fix up empty matrices whose shape a bare row list cannot express."""
    if mat.rows == rows and mat.cols == cols:
        return mat
    if mat.rows * mat.cols == 0 and rows * cols == 0:
        return IntMatrix.zeros(rows, cols)
    raise InputError(
        f"{where}: expected a {rows} x {cols} matrix, got {mat.rows} x {mat.cols}"
    )


# ---------------------------------------------------------------------------
# rings and modules


def encode_ring(ring: Ring) -> dict:
    if ring.modulus is None:
        return {"kind": "Z"}
    return {"kind": "Zmod", "m": ring.modulus}


def decode_ring(data, where: str = "ring") -> Ring:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError(f'{where}: expected an object with a "kind" field')
    kind = data["kind"]
    if kind == "Z":
        return Ring()
    if kind == "Zmod":
        m = data.get("m")
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise InputError(f"{where}: Zmod needs an integer modulus m >= 2")
        return Ring(m)
    raise InputError(f"{where}: unknown ring kind {kind!r}")


def encode_module(mod: FpModule) -> dict:
    return {
        "generators": mod.generators,
        "relations": encode_matrix(mod.relations),
    }


def decode_module(ring: Ring, data, where: str) -> FpModule:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    g = _as_int(data.get("generators"), f"{where}: generators")
    if g < 0:
        raise InputError(f"{where}: generators must be nonnegative")
    if g > MAX_GENERATORS:
        raise InputError(f"{where}: generators must be at most {MAX_GENERATORS}")
    rel = data.get("relations")
    if rel is None:
        return make_module(ring, g)
    mat = decode_matrix(rel, f"{where}: relations")
    if mat.rows != g:
        if mat.rows * mat.cols == 0:
            mat = IntMatrix.zeros(g, 0)
        else:
            raise InputError(f"{where}: relations need one row per generator")
    return make_module(ring, g, mat)


# ---------------------------------------------------------------------------
# complexes and chain maps


def encode_complex(cx: Complex) -> dict:
    return {
        "lo": cx.lo,
        "hi": cx.hi,
        "modules": [encode_module(m) for m in cx.modules],
        "differentials": [encode_matrix(d.matrix) for d in cx.diffs],
    }


def decode_complex(ring: Ring, data, where: str, modules=None) -> Complex:
    """Rebuild a complex, checking shapes and d.d = 0 degree by degree.

    Module entries are either inline presentations or names resolved in
    the modules namespace.  The window is preserved exactly, zero end
    terms included, so embedded objects round-trip literally.
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    lo = _as_int(data.get("lo", 0), f"{where}: lo")
    entries = data.get("modules", [])
    if not isinstance(entries, list):
        raise InputError(f"{where}: modules must be a list")
    mods = []
    for k, entry in enumerate(entries):
        if isinstance(entry, str):
            if modules is None or entry not in modules:
                raise InputError(
                    f"{where}: unknown module name {entry!r} in degree {lo + k}"
                )
            mods.append(modules[entry])
        else:
            mods.append(decode_module(ring, entry, f"{where}: module in degree {lo + k}"))
    if "hi" in data:
        hi = _as_int(data["hi"], f"{where}: hi")
        if hi != lo + len(mods) - 1:
            raise InputError(
                f"{where}: window [{lo}, {hi}] does not match {len(mods)} modules"
            )
    raw = data.get("differentials", [])
    if not isinstance(raw, list):
        raise InputError(f"{where}: differentials must be a list")
    if len(raw) != max(len(mods) - 1, 0):
        raise InputError(f"{where}: need one differential per adjacent pair")
    diffs = []
    for k, d in enumerate(raw):
        dwhere = f"{where}: differential at degree {lo + k}"
        mat = _shaped(
            decode_matrix(d, dwhere),
            mods[k + 1].generators, mods[k].generators, dwhere,
        )
        try:
            diffs.append(make_map(mods[k], mods[k + 1], mat))
        except WorkbenchError as exc:
            raise InputError(f"{dwhere}: {exc}")
    for k in range(len(diffs) - 1):
        if not lincomb_in_relations(mods[k + 2], mods[k].generators,
                                    ((1, diffs[k + 1].matrix, diffs[k].matrix),)):
            raise InputError(
                f"{where}: d.d is nonzero between degrees {lo + k} and {lo + k + 2}"
            )
    return Complex(ring, lo, tuple(mods), tuple(diffs))


def _decode_components(data, where: str, lo_default: int, src: Complex, tgt: Complex,
                       step: int) -> tuple:
    """(lo, maps src^i -> tgt^(i - step)) from {"lo", "components"}.

    step is 0 for a chain map and 1 for a homotopy.
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    lo = _as_int(data.get("lo", lo_default), f"{where}: lo")
    raw = data.get("components", [])
    if not isinstance(raw, list):
        raise InputError(f"{where}: components must be a list")
    comps = []
    for k, entry in enumerate(raw):
        i = lo + k
        cwhere = f"{where}: component at degree {i}"
        a, b = src.module(i), tgt.module(i - step)
        mat = _shaped(decode_matrix(entry, cwhere), b.generators, a.generators, cwhere)
        try:
            comps.append(make_map(a, b, mat))
        except WorkbenchError as exc:
            raise InputError(f"{cwhere}: {exc}")
    return lo, tuple(comps)


def _decode_map_between(src: Complex, tgt: Complex, data, where: str,
                        check_chain: bool = True) -> ChainMap:
    lo, comps = _decode_components(data, where, min(src.lo, tgt.lo), src, tgt, 0)
    f = ChainMap(src, tgt, lo, comps)
    # every map operation walks f.degrees(); windows far apart would make
    # that walk unbounded in the size of the input
    listed = len(src.modules) + len(tgt.modules) + len(comps)
    degrees = f.degrees()
    span = degrees.stop - degrees.start  # len() overflows past sys.maxsize
    if span > listed + 2:
        raise InputError(
            f"{where}: source, target and components span {span} degrees "
            f"but list only {listed}; their windows must overlap or nearly touch"
        )
    if check_chain and not f.is_chain_map():
        raise InputError(f"{where}: components do not commute with the differentials")
    return f


def encode_chain_map(f: ChainMap, complex_names=None) -> dict:
    """Encode a chain map; endpoints become names when the caller has them."""
    names = complex_names or {}
    return {
        "src": names.get(f.src, None) or encode_complex(f.src),
        "tgt": names.get(f.tgt, None) or encode_complex(f.tgt),
        "lo": f.lo,
        "components": [encode_matrix(c.matrix) for c in f.components],
    }


def decode_chain_map(ring: Ring, data, where: str,
                     complexes=None, modules=None) -> ChainMap:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")

    def endpoint(key):
        entry = data.get(key)
        if isinstance(entry, str):
            if complexes is None or entry not in complexes:
                raise InputError(f"{where}: unknown complex name {entry!r} as {key}")
            return complexes[entry]
        if entry is None:
            raise InputError(f"{where}: missing {key}")
        return decode_complex(ring, entry, f"{where}: {key}", modules=modules)

    src = endpoint("src")
    tgt = endpoint("tgt")
    return _decode_map_between(src, tgt, data, where)


# ---------------------------------------------------------------------------
# certificates


def _encode_homotopy(h: Homotopy) -> dict:
    return {
        "lo": h.lo,
        "components": [encode_matrix(c.matrix) for c in h.components],
    }


def _decode_homotopy(c: Complex, data, where: str) -> Homotopy:
    """Rebuild a contraction of c from its component matrices."""
    return Homotopy(c, c, *_decode_components(data, where, 0, c, c, 1))


def encode_certificate(cert: ResolutionCertificate) -> dict:
    return {
        "ring": encode_ring(cert.source.ring),
        "side": cert.side,
        "source": encode_complex(cert.source),
        "target": encode_complex(cert.target),
        "map": {
            "lo": cert.map.lo,
            "components": [encode_matrix(c.matrix) for c in cert.map.components],
        },
        "qis_witness": _encode_homotopy(cert.qis_witness),
        "termwise_flags": [bool(flag) for flag in cert.termwise_flags],
    }


def decode_certificate(data, where: str = "certificate") -> ResolutionCertificate:
    """Rebuild a certificate so validate_certificate can re-check it.

    The witness endpoints are recomputed as the cone of the decoded
    resolution map, which is exactly what validation compares against.
    """
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    for key in ("ring", "side", "source", "target", "map", "qis_witness"):
        if key not in data:
            raise InputError(f"{where}: missing field {key!r}")
    ring = decode_ring(data["ring"], f"{where}: ring")
    side = data["side"]
    if side not in (INJECTIVE, PROJECTIVE):
        raise InputError(f"{where}: side must be injective or projective")
    source = decode_complex(ring, data["source"], f"{where}: source")
    target = decode_complex(ring, data["target"], f"{where}: target")
    if side == INJECTIVE:
        msrc, mtgt = source, target
    else:
        msrc, mtgt = target, source
    # the chain map law is validation's job, so a tampered certificate
    # still decodes and gets refuted instead of erroring out
    res_map = _decode_map_between(msrc, mtgt, data["map"], f"{where}: map",
                                  check_chain=False)
    c = cone(res_map).complex
    witness = _decode_homotopy(c, data["qis_witness"], f"{where}: qis_witness")
    flags = data.get("termwise_flags", [])
    if not isinstance(flags, list) or any(not isinstance(b, bool) for b in flags):
        raise InputError(f"{where}: termwise_flags must be a list of booleans")
    return ResolutionCertificate(source, target, res_map, side, witness, tuple(flags))


# ---------------------------------------------------------------------------
# workspace files


class WorkbenchInput(Record):
    """One parsed workspace: a ring, named objects, command parameters.

    Unlike the other records it is mutable, so it compares by its fields
    but has no hash; a section left out starts as a new empty dict.
    """

    __slots__ = ("ring", "modules", "complexes", "maps", "parameters")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, ring: Ring, modules: Optional[dict] = None,
                 complexes: Optional[dict] = None, maps: Optional[dict] = None,
                 parameters: Optional[dict] = None) -> None:
        self.ring = ring
        self.modules = {} if modules is None else modules
        self.complexes = {} if complexes is None else complexes
        self.maps = {} if maps is None else maps
        self.parameters = {} if parameters is None else parameters


def decode_input(data) -> WorkbenchInput:
    if not isinstance(data, dict):
        raise InputError("input: expected a JSON object")
    fmt = data.get("format", FORMAT)
    if fmt != FORMAT:
        raise InputError(f"input: unsupported format {fmt!r}")
    if "ring" not in data:
        raise InputError("input: missing ring")
    ring = decode_ring(data["ring"])
    sections = {}
    for key in ("modules", "complexes", "maps", "parameters"):
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise InputError(f"input: {key} must be an object")
        sections[key] = section
    modules = {}
    for name, entry in sections["modules"].items():
        modules[name] = decode_module(ring, entry, f"module {name!r}")
    complexes = {}
    for name, entry in sections["complexes"].items():
        complexes[name] = decode_complex(ring, entry, f"complex {name!r}",
                                         modules=modules)
    maps = {}
    for name, entry in sections["maps"].items():
        maps[name] = decode_chain_map(ring, entry, f"map {name!r}",
                                      complexes=complexes, modules=modules)
    return WorkbenchInput(ring, modules, complexes, maps, sections["parameters"])


def load_json(text: str):
    """The JSON value of text; text that does not parse is an InputError.

    Besides malformed text that covers nesting too deep for the decoder
    (a RecursionError) and integers past the interpreter's digit limit
    (a ValueError).
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("input is not valid JSON: nested too deeply")
    except ValueError as exc:
        raise InputError(f"input is not valid JSON: {exc}")


def parse_input(text: str) -> WorkbenchInput:
    return decode_input(load_json(text))


def encode_input(wi: WorkbenchInput) -> dict:
    module_names = {}
    for name, mod in wi.modules.items():
        module_names.setdefault(mod, name)
    complex_names = {}
    for name, cx in wi.complexes.items():
        complex_names.setdefault(cx, name)
    out = {"format": FORMAT, "ring": encode_ring(wi.ring)}
    if wi.modules:
        out["modules"] = {n: encode_module(m) for n, m in wi.modules.items()}
    if wi.complexes:
        table = {}
        for name, cx in wi.complexes.items():
            enc = encode_complex(cx)
            enc["modules"] = [
                module_names.get(m) or encode_module(m) for m in cx.modules
            ]
            table[name] = enc
        out["complexes"] = table
    if wi.maps:
        out["maps"] = {
            n: encode_chain_map(f, complex_names) for n, f in wi.maps.items()
        }
    if wi.parameters:
        out["parameters"] = wi.parameters
    return out


def serialize_input(wi: WorkbenchInput) -> str:
    """Canonical text form: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(encode_input(wi), indent=2, sort_keys=True) + "\n"
