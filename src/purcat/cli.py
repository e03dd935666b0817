"""Command line front end: one workspace file in, one report out.

    purcat <command> <input> [--json] [--depth N]

The input is a JSON workspace file (or - for stdin); the report goes to
stdout as text, or as JSON with --json.  Exit status is 0 for a clean
run, 1 for a refuted claim (a NotPure verdict, a failing adjunction
link, an invalid certificate), and 2 for an error.  Runs are
deterministic: the same input produces the same report up to the
timing figure.

--depth N (or a "depth" parameter in the workspace) sets the depth of the
semi-split tower that towers builds; without it towers builds the depth
the input needs, and a depth below that is an error (exit 2), as is,
for any command, a negative depth or one above serialize.MAX_DEPTH
(given or needed).  resolve, phom and adjunction build no tower at
any depth: they resolve by reducing each input
(complexes.reduce_complex, which cancels its contractible summands; the
reduced complex is its own resolution on either side), and only check a
depth against the one towers would need for each input (exit 2 below
it).  Any allowed depth gives the report of none.

The grammar is fixed, so it is parsed by hand rather than with argparse,
whose set-up would cost a cold run more than many commands' algebra.
Options may come before, between or after the two positionals, a value
is given as --depth N or --depth=N (a later option wins), and -h or --help
anywhere prints the usage to stdout and exits 0.  Anything else (an
unknown command or option, a missing or extra positional, a missing or
non-integer value) writes the usage and a one-line reason to stderr and
exits 2.  Options must be spelt in full (no --js for --json), there is no
-- separator, and an input other than - must not begin with a dash
(write ./-name).

For the same cold-start reason the value types are slotted records
(exact_linalg.Record), not generated data classes, whose module would
import inspect, ast, dis and tokenize at every start.  --json writes
compact JSON, which the json module encodes in C; indented output would
go through its Python encoder.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

from purcat.exact_linalg import InputError, WorkbenchError
from purcat.complexes import (
    cone,
    homology,
    homology_invariants,
    smith_diagonals,
    truncate_geq,
    truncate_leq,
)
from purcat.purity import is_pure_acyclic, smith_battery
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    DepthInsufficient,
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
    resolve,
    validate_certificate,
)
from purcat.monoidal import check_dpur_adjunction, phom
from purcat.serialize import (
    FORMAT,
    MAX_DEPTH,
    WorkbenchInput,
    decode_certificate,
    encode_certificate,
    encode_complex,
    load_json,
    parse_input,
)

COMMANDS = (
    "homology",
    "cone",
    "truncate",
    "purity",
    "qis",
    "resolve",
    "towers",
    "phom",
    "adjunction",
    "validate-cert",
)


# ---------------------------------------------------------------------------
# parameter plumbing


def _window(cx) -> list:
    if not cx.modules:
        return []
    return [cx.lo, cx.hi]


def _homology_table(cx) -> dict:
    table = homology_invariants(cx)
    return {f"H^{i}": list(table[i]) for i in sorted(table)}


def _complex_arg(wi: WorkbenchInput, key: str = "complex"):
    name = wi.parameters.get(key)
    if not isinstance(name, str):
        raise InputError(f"parameters must name a complex under {key!r}")
    if name not in wi.complexes:
        raise InputError(f"unknown complex {name!r}")
    return name, wi.complexes[name]


def _map_arg(wi: WorkbenchInput, key: str = "map"):
    name = wi.parameters.get(key)
    if not isinstance(name, str):
        raise InputError(f"parameters must name a chain map under {key!r}")
    if name not in wi.maps:
        raise InputError(f"unknown map {name!r}")
    return name, wi.maps[name]


def _side_arg(wi: WorkbenchInput) -> str:
    side = wi.parameters.get("side")
    if side not in (INJECTIVE, PROJECTIVE):
        raise InputError('parameters must set "side" to injective or projective')
    return side


def _bounded_depth(depth: int) -> int:
    if depth < 0:
        raise InputError("tower depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise InputError(f"tower depth {depth} exceeds the limit of {MAX_DEPTH}")
    return depth


def _depth_arg(wi: WorkbenchInput, args):
    if args.depth is not None:
        return _bounded_depth(args.depth)
    depth = wi.parameters.get("depth")
    if depth is None:
        return None
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise InputError("depth must be an integer")
    return _bounded_depth(depth)


def _purity_results(head: dict, cx):
    """Decide pure acyclicity of cx; report it after the head keys.

    Both verdicts list smith_battery, the free probe and the powers of
    the coprime base of the entries of one Smith diagonal per term and
    differential (smith_diagonals), found by gcds alone, so no entry is
    factored and none is refused for its size.  is_pure_acyclic reuses
    those diagonals on a NotPure verdict to find the battery's first
    failing probe; the battery is complete, so it always names one.  A Pure
    verdict's contraction is checked where it is made and proves every
    listed probe acyclic (is_pure_acyclic), so no probe is evaluated
    for it and probes_checked counts them all."""
    diagonals = smith_diagonals(cx)
    battery = smith_battery(cx, diagonals)
    verdict = is_pure_acyclic(cx, diagonals)
    results = {
        **head,
        "verdict": verdict.verdict,
        "probes": [list(p.invariant_factors) for p in battery.probes],
    }
    if verdict.is_pure():
        results["probes_checked"] = len(battery.probes)
        return "ok", results
    results["failing_probe"] = list(verdict.probe.invariant_factors)
    results["failing_degree"] = verdict.witness
    return "refuted", results


# ---------------------------------------------------------------------------
# command handlers


def cmd_homology(wi, args):
    name, cx = _complex_arg(wi)
    degree = wi.parameters.get("degree")
    if degree is not None:
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise InputError("degree must be an integer")
        table = {f"H^{degree}": list(homology(cx, degree).invariant_factors)}
    else:
        table = _homology_table(cx)
    return "ok", {"complex": name, "window": _window(cx), "homology": table}


def cmd_cone(wi, args):
    name, f = _map_arg(wi)
    c = cone(f).complex
    return "ok", {
        "map": name,
        "window": _window(c),
        "homology": _homology_table(c),
        "complex": encode_complex(c),
    }


def cmd_truncate(wi, args):
    name, cx = _complex_arg(wi)
    degree = wi.parameters.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise InputError("truncate needs an integer degree")
    keep = wi.parameters.get("keep", "leq")
    if keep == "leq":
        t, _ = truncate_leq(cx, degree)
    elif keep == "geq":
        t, _ = truncate_geq(cx, degree)
    else:
        raise InputError('truncation keep must be "leq" or "geq"')
    return "ok", {
        "complex": name,
        "keep": keep,
        "degree": degree,
        "window": _window(t),
        "homology": _homology_table(t),
        "truncation": encode_complex(t),
    }


def cmd_purity(wi, args):
    name, cx = _complex_arg(wi)
    return _purity_results({"complex": name}, cx)


def cmd_qis(wi, args):
    # decode_chain_map rejected every workspace map that breaks d f = f d
    name, f = _map_arg(wi)
    c = cone(f).complex
    return _purity_results({"map": name, "cone_window": _window(c)}, c)


def cmd_resolve(wi, args):
    name, cx = _complex_arg(wi)
    side = _side_arg(wi)
    cert = resolve(cx, side, depth=_depth_arg(wi, args))
    return "ok", {
        "complex": name,
        "side": side,
        "resolution_window": _window(cert.target),
        "resolution_homology": _homology_table(cert.target),
        "revalidated": True,
        "certificate": encode_certificate(cert),
    }


def cmd_towers(wi, args):
    """Build the side's semi-split tower, take its (co)limit and report both.

    One tower record serves both sides (resolutions.SemiSplitTower):
    limit_tower or colimit_tower checks its sum formula and validates it
    once, and _certificate checks every certificate where it is made;
    each raises on a failure (exit 2), so every flag in a report written
    here is true.  At depth 0 the (co)limit is the base's resolution,
    certified with the contraction of the base's one reduction.
    """
    name, cx = _complex_arg(wi)
    side = _side_arg(wi)
    depth = _depth_arg(wi, args)
    if depth is None:
        depth = _bounded_depth(required_depth(cx, side))
    if side == INJECTIVE:
        tower, fs = injective_tower(cx, depth)
        formula_key = "limit_product_formula"
        cert = limit_tower(tower, fs)
    else:
        tower, fs = projective_tower(cx, depth)
        formula_key = "colimit_sum_formula"
        cert = colimit_tower(tower, fs)
    levels = []
    for n, level in enumerate(tower.levels):
        levels.append({
            "level": n,
            "window": _window(level),
            "generators": [
                level.module(i).generators for i in range(level.lo, level.hi + 1)
            ],
        })
    results = {
        "complex": name,
        "side": side,
        "depth": tower.depth,
        "levels": levels,
        "tower_valid": True,
        formula_key: True,
        "certificate_valid": True,
        "certificate": encode_certificate(cert),
    }
    return "ok", results


def cmd_phom(wi, args):
    """The derived hom of a and b from their resolutions, as resolve makes
    them: a depth is checked against a, then b (exit 2 below the need).
    resolve checks both certificates where it makes them and raises on a
    failure (exit 2), so revalidated is always true."""
    aname, a = _complex_arg(wi, "a")
    bname, b = _complex_arg(wi, "b")
    result = phom(a, b, depth=_depth_arg(wi, args))
    return "ok", {
        "a": aname,
        "b": bname,
        "value_window": _window(result.value),
        "value_homology": _homology_table(result.value),
        "revalidated": True,
        "projective_certificate": encode_certificate(result.proj_res),
        "injective_certificate": encode_certificate(result.inj_res),
    }


def cmd_adjunction(wi, args):
    aname, a = _complex_arg(wi, "a")
    bname, b = _complex_arg(wi, "b")
    cname, c = _complex_arg(wi, "c")
    report = check_dpur_adjunction(a, b, c, depth=_depth_arg(wi, args))
    links = {}
    for link in report.links:
        links[link.name] = {
            "left": list(link.left),
            "right": list(link.right),
            "ok": link.ok,
        }
    results = {
        "a": aname,
        "b": bname,
        "c": cname,
        "witness_ok": report.witness_ok,
        "links": links,
    }
    return ("ok" if report.ok else "refuted"), results


def cmd_validate_cert(text, args):
    """Validate certificates from a bare object, a wrapper, or a report."""
    data = load_json(text)
    found = []
    if isinstance(data, dict):
        if "side" in data and "map" in data:
            found.append(("certificate", data))
        elif isinstance(data.get("certificate"), dict) and "results" not in data:
            found.append(("certificate", data["certificate"]))
        elif isinstance(data.get("results"), dict):
            for key, value in data["results"].items():
                if key.endswith("certificate") and isinstance(value, dict):
                    found.append((key, value))
    if not found:
        raise InputError("no certificate found in the input")
    table = {}
    all_ok = True
    for label, payload in found:
        cert = decode_certificate(payload, where=label)
        ok = validate_certificate(cert)
        all_ok = all_ok and ok
        table[label] = {
            "side": cert.side,
            "source_window": _window(cert.source),
            "resolution_window": _window(cert.target),
            "valid": ok,
        }
    results = {"checked": len(found), "certificates": table}
    return ("ok" if all_ok else "refuted"), results


HANDLERS = {
    "homology": cmd_homology,
    "cone": cmd_cone,
    "truncate": cmd_truncate,
    "purity": cmd_purity,
    "qis": cmd_qis,
    "resolve": cmd_resolve,
    "towers": cmd_towers,
    "phom": cmd_phom,
    "adjunction": cmd_adjunction,
}


# ---------------------------------------------------------------------------
# report rendering


def serialize_report(report: dict) -> str:
    return json.dumps(report) + "\n"


def _text_lines(key, value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append(f"{pad}{key}: none")
            return
        out.append(f"{pad}{key}:")
        for k, v in value.items():
            _text_lines(k, v, indent + 1, out)
    elif isinstance(value, bool):
        out.append(f"{pad}{key}: {'true' if value else 'false'}")
    elif isinstance(value, list):
        if not value:
            out.append(f"{pad}{key}: none")
        elif all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            out.append(f"{pad}{key}: " + " ".join(str(x) for x in value))
        elif all(isinstance(x, dict) for x in value):
            out.append(f"{pad}{key}:")
            label = key[:-1] if key.endswith("s") else key
            for j, item in enumerate(value):
                _text_lines(f"{label} {j}", item, indent + 1, out)
        else:
            out.append(f"{pad}{key}: " + json.dumps(value, separators=(",", ":")))
    else:
        out.append(f"{pad}{key}: {value}")


def render_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key in ("format", "timing"):
            continue
        _text_lines(key, value, 0, lines)
    lines.append(f"elapsed: {report['timing']['seconds']:.6f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


USAGE = "usage: purcat [-h] [--json] [--depth DEPTH] command input\n"

HELP = f"""{USAGE}
pure homological algebra workbench for complexes over Z and Z/m

positional arguments:
  command        one of: {", ".join(COMMANDS)}
  input          path to a JSON workspace file, or - for stdin

options:
  -h, --help     show this help message and exit
  --json         emit the report as JSON
  --depth DEPTH  tower depth for towers, at most {MAX_DEPTH} (default: the
                 depth the input needs); resolve, phom and adjunction only
                 check it
"""


class _UsageError(Exception):
    """A command line outside the grammar; the message says why."""


def _parse_args(argv: list) -> SimpleNamespace:
    """command, input, json and depth from argv (no -h / --help in it)."""
    args = SimpleNamespace(json=False, depth=None)
    positionals = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--json":
            args.json = True
        elif arg == "-" or not arg.startswith("-"):
            positionals.append(arg)
        else:
            name, eq, value = arg.partition("=")
            if name != "--depth":
                raise _UsageError(f"unrecognized argument: {arg}")
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise _UsageError(f"argument {name}: expected one argument")
            try:
                args.depth = int(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid int value: {value!r}") from None
    if len(positionals) < 2:
        missing = ("command", "input")[len(positionals):]
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(positionals) > 2:
        raise _UsageError(f"unrecognized arguments: {' '.join(positionals[2:])}")
    args.command, args.input = positionals
    if args.command not in COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {args.command!r} "
                          f"(choose from {', '.join(COMMANDS)})")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        return 0
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{USAGE}purcat: error: {exc}\n")
        return 2

    started = time.perf_counter()
    # frozen, the imported heap is never walked (or, forked, copied) by the gc
    thaw = not gc.get_freeze_count()
    if thaw:
        gc.freeze()
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        if args.command == "validate-cert":
            status, results = cmd_validate_cert(text, args)
        else:
            status, results = HANDLERS[args.command](parse_input(text), args)
    except DepthInsufficient as exc:
        status, results = "error", {"error": str(exc), "required_depth": exc.required}
    except WorkbenchError as exc:
        status, results = "error", {"error": str(exc)}
    except (OSError, UnicodeDecodeError) as exc:
        status, results = "error", {"error": f"cannot read input: {exc}"}
    finally:
        if thaw:
            gc.unfreeze()

    report = {
        "format": FORMAT,
        "command": args.command,
        "status": status,
        "results": results,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    sys.stdout.write(serialize_report(report) if args.json else render_text(report))
    return {"ok": 0, "refuted": 1, "error": 2}[status]


if __name__ == "__main__":
    raise SystemExit(main())
