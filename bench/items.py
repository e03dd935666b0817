"""One item = one CLI invocation in a fresh process, plus its known-answer check.

Each item runs in a child forked from a parent that has imported
purcat.cli and run nothing, so the child starts the way a ``purcat``
invocation does: the lru_caches of smith_normal_form and hom_k are empty,
and nothing one item computes is seen by the next.  The parent waits on
a pidfd with the per-item time limit and kills a child that runs past it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field

import spans

# An item that runs past this is killed and counted as failed.  The
# heaviest generated item takes well under a second on a 2-core 2.1 GHz VM.
ITEM_LIMIT_S = 30.0

# exit status of a child whose CLI call raised instead of reporting
CRASHED = 70


@dataclass
class Outcome:
    """What the parent saw of one child."""

    wall_s: float
    exit: int
    rss_kb: int
    timed_out: bool
    report_path: str
    summary: dict = field(default_factory=dict)  # traced runs only


def _child(argv: list, report_path: str, trace_id) -> None:
    code = CRASHED
    try:
        with open(report_path, "w", encoding="utf-8") as out, \
                open(report_path + ".err", "w", encoding="utf-8") as err:
            sys.stdout, sys.stderr = out, err
            try:
                import purcat.cli  # already loaded by the parent
                rec = spans.install(trace_id) if trace_id is not None else None
                code = purcat.cli.main(argv)
                out.flush()
                if rec is not None:
                    with open(report_path + ".trace", "w", encoding="utf-8") as fh:
                        json.dump(spans.item_summary(rec), fh)
            except BaseException:
                code = CRASHED
                traceback.print_exc(file=err)
                raise
    finally:
        os._exit(code)


def run_item(argv: list, report_path: str, trace_id=None,
             limit_s: float = ITEM_LIMIT_S) -> Outcome:
    """Fork, run ``purcat.cli.main(argv)`` with stdout to report_path, reap."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, report_path, trace_id)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], limit_s)
        timed_out = not ready
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    code = -1 if timed_out else os.waitstatus_to_exitcode(status)
    outcome = Outcome(wall, code, usage.ru_maxrss, timed_out, report_path)
    if trace_id is not None and os.path.exists(report_path + ".trace"):
        with open(report_path + ".trace", encoding="utf-8") as fh:
            outcome.summary = json.load(fh)
    return outcome


# ---------------------------------------------------------------------------
# known-answer checks


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _nonzero(table: dict) -> dict:
    return {k: v for k, v in table.items() if v}


def check(expect: dict, ran: Outcome, recheck) -> list:
    """Reasons an item failed against its known answer; empty when it passed.

    Only what is fixed by construction is compared: exit status, verdict,
    the flags a report must assert, and homology.  Reports are never compared
    byte for byte, since a different valid certificate or a smaller probe
    battery is not a failure.
    """
    if ran.timed_out:
        return [f"killed after the {ITEM_LIMIT_S:g} s item limit"]
    problems = []
    if ran.exit != expect["exit"]:
        problems.append(f"exit {ran.exit}, expected {expect['exit']}")
    report = _load(ran.report_path)
    if report is None:
        return problems + ["no JSON report"]
    res = report.get("results", {})
    want_status = {0: "ok", 1: "refuted", 2: "error"}[expect["exit"]]
    if report.get("status") != want_status:
        problems.append(f"status {report.get('status')!r}, expected {want_status!r}")
    if "verdict" in expect:
        if res.get("verdict") != expect["verdict"]:
            problems.append(f"verdict {res.get('verdict')!r}, expected {expect['verdict']!r}")
        if expect["verdict"] == "Pure" and res.get("probes_checked") != len(res.get("probes", ())):
            problems.append("not every probe was re-checked")
    if "homology" in expect:
        got = _nonzero(res.get("resolution_homology", {}))
        if got != expect["homology"]:
            problems.append(f"resolution homology {got} != source homology {expect['homology']}")
    for flag in expect.get("flags", ()):
        if res.get(flag) is not True:
            problems.append(f"{flag} is not true")
    if expect.get("links_ok"):
        bad = [k for k, v in res.get("links", {}).items() if not v.get("ok")]
        if bad or not res.get("links"):
            problems.append(f"adjunction links failed: {bad}")
    if expect.get("validate"):
        problems += check_validation(recheck)
    return problems


def check_validation(ran) -> list:
    """validate-cert on a producing item's report must accept every certificate."""
    if ran is None:
        return ["certificate was not re-validated"]
    if ran.timed_out:
        return [f"validate-cert killed after the {ITEM_LIMIT_S:g} s item limit"]
    report = _load(ran.report_path)
    if ran.exit != 0 or report is None:
        return [f"validate-cert exit {ran.exit}"]
    table = report.get("results", {}).get("certificates", {})
    if not table or not all(v.get("valid") is True for v in table.values()):
        return ["validate-cert rejected a certificate"]
    return []
