"""Command-line front end.

Commands: classify, dim, polarizations, chambers, twistor, verify.
Exit codes: 0 success (an Unknown classification verdict is a valid
answer, not a failure), 1 domain error or failed verification, 2 usage.

JSON output is deterministic byte for byte for a fixed request and seed:
keys are sorted, all randomness is derived from the request seed, and no
timestamps or environment data are embedded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ContactresError, InternalInvariantError
from .lie_core import flag_dimension, parse_parabolic, poincare_polynomial
from .orbits import orbit_record, parse_orbit, table_version
from .report import (
    chamber_complex_dict,
    orbit_record_dict,
    polarization_dict,
    resolution_report_dict,
    verify_row_dict,
)
from .resolutions import (
    contact_resolution_exists,
    is_twistor_space,
    movable_chambers,
    polarizations,
)
from .verify import run_suite, suite_caps, suite_names

SCHEMA_ID = "contactres-report/1"


def _envelope(command: str, request: dict, result=None, error=None) -> dict:
    env = {
        "schema": SCHEMA_ID,
        "artifact_version": __version__,
        "table_version": table_version(),
        "command": command,
        "request": request,
    }
    if error is not None:
        env["error"] = error
    else:
        env["result"] = result
    return env


def _emit(env: dict, as_json: bool, render, out) -> None:
    if as_json:
        out.write(json.dumps(env, indent=2, sort_keys=True) + "\n")
    else:
        render(env, out)


def _yn(flag) -> str:
    return {True: "yes", False: "no", None: "unknown"}[flag]


def _render_orbit_lines(orbit: dict, out) -> None:
    out.write(f"orbit: {orbit['orbit']}\n")
    out.write(f"dimension: {orbit['dimension']}")
    if orbit["contact_n"] is not None:
        out.write(f"  contact n: {orbit['contact_n']}")
    out.write("\n")
    out.write(f"minimal: {_yn(orbit['is_minimal'])}"
              f"  zero: {_yn(orbit['is_zero'])}"
              f"  smooth projectivised normalization: "
              f"{_yn(orbit['proj_normalization_smooth'])}\n")


def _render_polarization_lines(pols: list, out) -> None:
    out.write(f"polarizations: {len(pols)}\n")
    for p in pols:
        comp = ("composition (" + ",".join(map(str, p["composition"])) + ")"
                if p["composition"] is not None else "non-A parabolic")
        marks = "{" + ",".join(map(str, p["marked_roots"])) + "}"
        deg = p["springer_degree"] if p["springer_degree"] is not None \
            else "unknown"
        out.write(f"  {comp}  marked {marks}  flag dim "
                  f"{p['flag_dimension']}  degree {deg}\n")


def _render_chambers_lines(cc: dict | None, out) -> None:
    if cc is None:
        out.write("chambers: 0  walls: 0\n")
        return
    out.write(f"chambers: {cc['chamber_count']}  walls: {len(cc['walls'])}"
              f"  connected: {_yn(cc['connected'])}\n")
    for ch in cc["chambers"]:
        rays = " ".join(str(tuple(r)) for r in
                        ch["ample_cone"]["extreme_rays"])
        out.write(f"  chamber {tuple(ch['label'])}: ample rays {rays}\n")
    for w in cc["walls"]:
        out.write(f"  wall {tuple(w['chamber_a'])} <-> "
                  f"{tuple(w['chamber_b'])}: swap entries "
                  f"{tuple(w['entries'])} at position {w['position']}\n")


def _render_classify(env: dict, out) -> None:
    r = env["result"]
    _render_orbit_lines(r["orbit"], out)
    out.write(f"verdict: {r['verdict']} (reason: {r['reason']})\n")
    if r["canonical_bundle_exponent"] is not None:
        out.write("canonical bundle exponent: "
                  f"{r['canonical_bundle_exponent']}\n")
    out.write("affine closure admits symplectic resolution: "
              f"{_yn(r['affine_closure_admits_symplectic_resolution'])}\n")
    _render_polarization_lines(r["polarizations"], out)
    _render_chambers_lines(r["chamber_complex"], out)
    agree = sum(1 for c in r["oracle_checks"] if c["agrees_with_formula"])
    out.write(f"oracle checks: {len(r['oracle_checks'])} run, "
              f"{agree} agree\n")
    for note in r["notes"]:
        out.write(f"note: {note}\n")


def _render_dim(env, out):
    _render_orbit_lines(env["result"]["orbit"], out)


def _render_polarizations(env, out):
    _render_orbit_lines(env["result"]["orbit"], out)
    _render_polarization_lines(env["result"]["polarizations"], out)


def _render_chambers(env, out):
    _render_orbit_lines(env["result"]["orbit"], out)
    _render_chambers_lines(env["result"]["chamber_complex"], out)


def _render_twistor(env, out):
    r = env["result"]
    out.write(f"parabolic: {r['parabolic']}\n")
    out.write(f"flag dimension: {r['flag_dimension']}\n")
    out.write("poincare polynomial: "
              + " + ".join(f"{c}q^{i}" for i, c in
                           enumerate(r["poincare_polynomial"])) + "\n")
    out.write(f"twistor space: {_yn(r['is_twistor_space'])}\n")


def _render_verify(env, out):
    r = env["result"]
    for row in r["rows"]:
        status = "ok " if row["agrees"] else "FAIL"
        out.write(f"[{status}] {row['case']}: formula="
                  f"{row['formula_value']} oracle={row['oracle_value']}\n")
    out.write(f"suite {r['suite']}: {r['total']} cases, "
              f"{r['failures']} failures, "
              f"{'all pass' if r['all_pass'] else 'FAILED'}\n")


def _render_error(env, out):
    err = env["error"]
    out.write(f"error [{err['type']}]: {err['message']}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactres",
        description="Contact resolutions of projectivised nilpotent orbit "
                    "closures: existence, polarizations, movable-cone "
                    "chambers, and oracle verification.")
    parser.add_argument("--version", action="version",
                        version=f"contactres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, orbit=False, parab=False):
        if orbit:
            p.add_argument("orbit", help='orbit label, e.g. "A3:2,1,1" or '
                                         '"G2:dim8"')
        if parab:
            p.add_argument("parabolic",
                           help='parabolic label, e.g. "A3:{1,3}"')
        p.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of text")

    p = sub.add_parser("classify", help="existence verdict and full report")
    add_common(p, orbit=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the oracle cross-checks (default 0)")
    p.add_argument("--no-oracles", action="store_true",
                   help="skip the oracle cross-check block")

    p = sub.add_parser("dim", help="orbit dimension and flags")
    add_common(p, orbit=True)

    p = sub.add_parser("polarizations", help="enumerate polarizations")
    add_common(p, orbit=True)

    p = sub.add_parser("chambers", help="movable-cone chamber complex")
    add_common(p, orbit=True)

    p = sub.add_parser("twistor", help="twistor-space predicate for a "
                                       "parabolic")
    add_common(p, parab=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=suite_names())
    p.add_argument("--max-n", type=int, default=None,
                   help="override the suite size cap")
    p.add_argument("--count", type=int, default=None,
                   help="number of random cones (cones suite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def _request_dict(args) -> dict:
    req = {"output_format": "json" if args.json else "text"}
    for key in ("orbit", "parabolic", "suite", "seed", "max_n", "count"):
        if hasattr(args, key) and getattr(args, key) is not None:
            req[key] = getattr(args, key)
    return req


def _run_command(args, out) -> int:
    request = _request_dict(args)
    cmd = args.command

    if cmd == "classify":
        o = parse_orbit(args.orbit)
        rep = contact_resolution_exists(o, seed=args.seed,
                                        with_oracles=not args.no_oracles)
        env = _envelope(cmd, request, resolution_report_dict(rep))
        _emit(env, args.json, _render_classify, out)
        return 0

    if cmd == "dim":
        rec = orbit_record(parse_orbit(args.orbit))
        env = _envelope(cmd, request, {"orbit": orbit_record_dict(rec)})
        _emit(env, args.json, _render_dim, out)
        return 0

    if cmd == "polarizations":
        o = parse_orbit(args.orbit)
        pols = polarizations(o)
        env = _envelope(cmd, request, {
            "orbit": orbit_record_dict(orbit_record(o)),
            "polarizations": [polarization_dict(p) for p in pols],
        })
        _emit(env, args.json, _render_polarizations, out)
        return 0

    if cmd == "chambers":
        o = parse_orbit(args.orbit)
        cc = movable_chambers(o)
        env = _envelope(cmd, request, {
            "orbit": orbit_record_dict(orbit_record(o)),
            "chamber_complex": chamber_complex_dict(cc),
        })
        _emit(env, args.json, _render_chambers, out)
        return 0

    if cmd == "twistor":
        p = parse_parabolic(args.parabolic)
        env = _envelope(cmd, request, {
            "parabolic": str(p),
            "marked_roots": list(p.marked),
            "flag_dimension": flag_dimension(p),
            "poincare_polynomial": list(poincare_polynomial(p)),
            "is_twistor_space": is_twistor_space(p),
        })
        _emit(env, args.json, _render_twistor, out)
        return 0

    if cmd == "verify":
        checks = run_suite(args.suite, max_n=args.max_n, seed=args.seed,
                           count=args.count)
        failures = sum(1 for c in checks if not c.agrees)
        env = _envelope(cmd, request, {
            "suite": args.suite,
            "caps": suite_caps(args.suite, args.max_n, args.count),
            "rows": [verify_row_dict(args.suite, c) for c in checks],
            "total": len(checks),
            "failures": failures,
            "all_pass": failures == 0,
        })
        _emit(env, args.json, _render_verify, out)
        return 0 if failures == 0 else 1

    raise InternalInvariantError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return _run_command(args, out)
    except ContactresError as exc:
        env = _envelope(args.command, _request_dict(args),
                        error={"type": type(exc).__name__,
                               "message": str(exc)})
        _emit(env, args.json, _render_error, out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
