"""Command-line front end.

Commands: classify, dim, polarizations, chambers, twistor, verify, each
declared once by the ``_command`` decorator on its result builder.
Exit codes: 0 success (an Unknown classification verdict is a valid
answer, not a failure), 1 domain error or failed verification, 2 usage.

JSON output is deterministic byte for byte for a fixed request and seed:
keys are sorted, all randomness is derived from the request seed, and no
timestamps or environment data are embedded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import ContactresError
from .lie_core import flag_dimension, parse_parabolic, poincare_polynomial
from .orbits import orbit_record, parse_orbit, table_version
from .report import (
    chamber_complex_dict,
    orbit_record_dict,
    polarization_dict,
    resolution_report_dict,
    to_json,
    verify_row_dict,
)
from .resolutions import (
    contact_resolution_exists,
    is_twistor_space,
    movable_chambers,
    polarizations,
)
from .verify import oracle_block, run_suite, suite_caps, suite_names

SCHEMA_ID = "contactres-report/1"


def _yn(flag) -> str:
    return {True: "yes", False: "no", None: "unknown"}[flag]


def _render_report(r: dict, out) -> None:
    """Text of an orbit report: every section the result carries, in
    ``classify``'s order (``dim``, ``polarizations`` and ``chambers``
    carry the orbit and at most one more section)."""
    orbit = r["orbit"]
    out.write(f"orbit: {orbit['orbit']}\n")
    out.write(f"dimension: {orbit['dimension']}")
    if orbit["contact_n"] is not None:
        out.write(f"  contact n: {orbit['contact_n']}")
    out.write("\n")
    out.write(f"minimal: {_yn(orbit['is_minimal'])}"
              f"  zero: {_yn(orbit['is_zero'])}"
              f"  smooth projectivised normalization: "
              f"{_yn(orbit['proj_normalization_smooth'])}\n")
    if "verdict" in r:
        out.write(f"verdict: {r['verdict']} (reason: {r['reason']})\n")
        if r["canonical_bundle_exponent"] is not None:
            out.write("canonical bundle exponent: "
                      f"{r['canonical_bundle_exponent']}\n")
        out.write("affine closure admits symplectic resolution: "
                  f"{_yn(r['affine_closure_admits_symplectic_resolution'])}\n")
    if "polarizations" in r:
        out.write(f"polarizations: {len(r['polarizations'])}\n")
        for p in r["polarizations"]:
            comp = ("composition (" + ",".join(map(str, p["composition"]))
                    + ")" if p["composition"] is not None
                    else "non-A parabolic")
            marks = "{" + ",".join(map(str, p["marked_roots"])) + "}"
            deg = p["springer_degree"] if p["springer_degree"] is not None \
                else "unknown"
            out.write(f"  {comp}  marked {marks}  flag dim "
                      f"{p['flag_dimension']}  degree {deg}\n")
    if "chamber_complex" in r:
        cc = r["chamber_complex"]
        if cc is None:
            out.write("chambers: 0  walls: 0\n")
        else:
            out.write(f"chambers: {cc['chamber_count']}  walls: "
                      f"{len(cc['walls'])}  connected: "
                      f"{_yn(cc['connected'])}\n")
            for ch in cc["chambers"]:
                rays = " ".join(str(tuple(ray)) for ray in
                                ch["ample_cone"]["extreme_rays"])
                out.write(f"  chamber {tuple(ch['label'])}: ample rays "
                          f"{rays}\n")
            for w in cc["walls"]:
                out.write(f"  wall {tuple(w['chamber_a'])} <-> "
                          f"{tuple(w['chamber_b'])}: swap entries "
                          f"{tuple(w['entries'])} at position "
                          f"{w['position']}\n")
    if "oracle_checks" in r:
        agree = sum(1 for c in r["oracle_checks"] if c["agrees_with_formula"])
        out.write(f"oracle checks: {len(r['oracle_checks'])} run, "
                  f"{agree} agree\n")
    for note in r.get("notes", ()):
        out.write(f"note: {note}\n")


def _render_error(err: dict, out) -> None:
    out.write(f"error [{err['type']}]: {err['message']}\n")


# --- the commands -------------------------------------------------------------

# command name -> (summary, arguments, build, render); filled by ``_command``
# in declaration order, which is the order of the subcommand listing
_COMMANDS: dict[str, tuple] = {}


def _arg(*flags, **options):
    """One ``add_argument`` call, as data."""
    return flags, options


def _command(name, summary, *arguments, render=_render_report):
    """Declare a command: ``arguments`` for its subparser, the decorated
    function as its result builder and ``render`` as its text output."""
    def declare(build):
        _COMMANDS[name] = (summary, arguments, build, render)
        return build
    return declare


def _non_negative_int(text: str) -> int:
    """argparse type of a size cap: a negative cap would pass vacuously."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


_ORBIT = _arg("orbit", help='orbit label, e.g. "A3:2,1,1" or "G2:dim8"')
_JSON = _arg("--json", action="store_true",
             help="emit the JSON report instead of text")


@_command("classify", "existence verdict and full report", _ORBIT, _JSON,
          _arg("--seed", type=int, default=0,
               help="seed for the oracle cross-checks (default 0)"),
          _arg("--no-oracles", action="store_true",
               help="skip the oracle cross-check block"))
def _classify(args) -> dict:
    report = contact_resolution_exists(parse_orbit(args.orbit))
    checks = () if args.no_oracles else oracle_block(report, args.seed)
    return resolution_report_dict(report, checks)


@_command("dim", "orbit dimension and flags", _ORBIT, _JSON)
def _dim(args) -> dict:
    return {"orbit": orbit_record_dict(orbit_record(parse_orbit(args.orbit)))}


@_command("polarizations", "enumerate polarizations", _ORBIT, _JSON)
def _polarizations(args) -> dict:
    o = parse_orbit(args.orbit)
    pols = [polarization_dict(p) for p in polarizations(o)]
    return {"orbit": orbit_record_dict(orbit_record(o)),
            "polarizations": pols}


@_command("chambers", "movable-cone chamber complex", _ORBIT, _JSON)
def _chambers(args) -> dict:
    o = parse_orbit(args.orbit)
    cc = chamber_complex_dict(movable_chambers(o))
    return {"orbit": orbit_record_dict(orbit_record(o)),
            "chamber_complex": cc}


def _render_twistor(r: dict, out) -> None:
    out.write(f"parabolic: {r['parabolic']}\n")
    out.write(f"flag dimension: {r['flag_dimension']}\n")
    out.write("poincare polynomial: "
              + " + ".join(f"{c}q^{i}" for i, c in
                           enumerate(r["poincare_polynomial"])) + "\n")
    out.write(f"twistor space: {_yn(r['is_twistor_space'])}\n")


@_command("twistor", "twistor-space predicate for a parabolic",
          _arg("parabolic", help='parabolic label, e.g. "A3:{1,3}"'), _JSON,
          render=_render_twistor)
def _twistor(args) -> dict:
    p = parse_parabolic(args.parabolic)
    return {
        "parabolic": str(p),
        "marked_roots": list(p.marked),
        "flag_dimension": flag_dimension(p),
        "poincare_polynomial": list(poincare_polynomial(p)),
        "is_twistor_space": is_twistor_space(p),
    }


def _render_verify(r: dict, out) -> None:
    for row in r["rows"]:
        status = "ok " if row["agrees"] else "FAIL"
        out.write(f"[{status}] {row['case']}: formula="
                  f"{row['formula_value']} oracle={row['oracle_value']}\n")
    out.write(f"suite {r['suite']}: {r['total']} cases, "
              f"{r['failures']} failures, "
              f"{'all pass' if r['all_pass'] else 'FAILED'}\n")


@_command("verify", "run a verification suite",
          _arg("--suite", required=True, choices=suite_names()),
          _arg("--max-n", type=_non_negative_int, default=None,
               help="override the suite size cap"),
          _arg("--count", type=_non_negative_int, default=None,
               help="number of random cones (cones suite)"),
          _arg("--seed", type=int, default=0),
          _arg("--json", action="store_true"),
          render=_render_verify)
def _verify(args) -> dict:
    checks = run_suite(args.suite, max_n=args.max_n, seed=args.seed,
                       count=args.count)
    failures = sum(1 for c in checks if not c.agrees)
    return {
        "suite": args.suite,
        "caps": suite_caps(args.suite, args.max_n, args.count),
        "rows": [verify_row_dict(args.suite, c) for c in checks],
        "total": len(checks),
        "failures": failures,
        # a cap that admits no case checked nothing, which is no pass
        "all_pass": failures == 0 and len(checks) > 0,
    }


# --- parsing and dispatch -----------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process (``parse_args`` keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="contactres",
        description="Contact resolutions of projectivised nilpotent orbit "
                    "closures: existence, polarizations, movable-cone "
                    "chambers, and oracle verification.")
    parser.add_argument("--version", action="version",
                        version=f"contactres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def _request_dict(args) -> dict:
    req = {"output_format": "json" if args.json else "text"}
    for key in ("orbit", "parabolic", "suite", "seed", "max_n", "count"):
        if hasattr(args, key) and getattr(args, key) is not None:
            req[key] = getattr(args, key)
    return req


def _emit(args, out, key: str, payload: dict, render) -> None:
    """Write one answer (``key`` is "result" or "error"): its JSON
    envelope with ``--json``, else its text rendering."""
    if not args.json:
        render(payload, out)
        return
    env = {
        "schema": SCHEMA_ID,
        "artifact_version": __version__,
        "table_version": table_version(),
        "command": args.command,
        "request": _request_dict(args),
        key: payload,
    }
    out.write(to_json(env) + "\n")


def main(argv=None) -> int:
    """Build the command's result, then emit it: exit 1 on a domain error
    or a failed verification row, else 0."""
    args = _build_parser().parse_args(argv)
    _, _, build, render = _COMMANDS[args.command]
    try:
        result = build(args)
        _emit(args, sys.stdout, "result", result, render)
    except ContactresError as exc:
        _emit(args, sys.stdout, "error",
              {"type": type(exc).__name__, "message": str(exc)},
              _render_error)
        return 1
    return 0 if result.get("all_pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
