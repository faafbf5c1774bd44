"""Command-line front end.

Commands: classify, dim, polarizations, chambers, twistor, verify, each
declared once by the ``_command`` decorator on its result builder, whose
``_arg`` declarations are the one statement of its arguments.

Reading argv: a well-formed request (the command, then whole declared
option strings, their values and the positional) is read off those
declarations in one pass. Every other argv goes to the argparse parser
built from the same declarations, which alone answers ``-h``,
``--version``, abbreviated options, ``--opt=value`` and usage errors.

Start-up pays only for what the command runs. ``argparse`` is imported
only to build that parser (or to word a bad size cap), and the oracles
(``verify``, hence ``oracle_lab``) only by ``verify`` and by ``classify``
without ``--no-oracles``. ``resolutions`` and the layers under it are
imported at the top, since every other command uses them.

Exit codes: 0 success (an Unknown classification verdict is a valid
answer, not a failure), 1 domain error or failed verification, 2 usage.

JSON output is deterministic byte for byte for a fixed request and seed:
keys are sorted, all randomness is derived from the request seed, and no
timestamps or environment data are embedded.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import __version__
from .errors import ContactresError
from .lie_core import (
    flag_dimension,
    is_projective_space,
    parse_parabolic,
    poincare_polynomial,
)
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
    chamber_complex_for,
    contact_resolution_exists,
    polarizations_of,
)

SCHEMA_ID = "contactres-report/1"

# ``verify.suite_names()``, written out so that the command table does not
# import the oracles
SUITE_NAMES = ("ad-rank", "kks", "contact", "richardson", "fibers",
               "chambers", "cones")


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
            out.write(f"  {comp}  marked {marks}  flag dim "
                      f"{p['flag_dimension']}  degree "
                      f"{p['springer_degree']}\n")
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


@functools.cache
def _oracles():
    """The ``verify`` module (and with it ``oracle_lab``), imported by the
    first request that runs an oracle: no other command loads them, and
    no request after it runs an import statement."""
    from . import verify
    return verify


def _non_negative_int(text: str) -> int:
    """argparse type of a size cap: a negative cap would pass vacuously.
    ``argparse`` is imported only to word a refusal."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is not None and value >= 0:
        return value
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"invalid int value: {text!r}" if value is None
                            else f"must be non-negative: {value}")


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
    checks = (() if args.no_oracles
              else _oracles().oracle_block(report, args.seed))
    return resolution_report_dict(report, checks)


@_command("dim", "orbit dimension and flags", _ORBIT, _JSON)
def _dim(args) -> dict:
    return {"orbit": orbit_record_dict(orbit_record(parse_orbit(args.orbit)))}


@_command("polarizations", "enumerate polarizations", _ORBIT, _JSON)
def _polarizations(args) -> dict:
    record = orbit_record(parse_orbit(args.orbit))
    pols = [polarization_dict(p) for p in polarizations_of(record)]
    return {"orbit": orbit_record_dict(record), "polarizations": pols}


@_command("chambers", "movable-cone chamber complex", _ORBIT, _JSON)
def _chambers(args) -> dict:
    record = orbit_record(parse_orbit(args.orbit))
    cc = chamber_complex_for(record.label, polarizations_of(record))
    return {"orbit": orbit_record_dict(record),
            "chamber_complex": chamber_complex_dict(cc)}


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
        # P(T*(G/P)) is a twistor space exactly when G/P is P^n
        "is_twistor_space": is_projective_space(p),
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
          _arg("--suite", required=True, choices=SUITE_NAMES),
          _arg("--max-n", type=_non_negative_int, default=None,
               help="override the suite size cap"),
          _arg("--count", type=_non_negative_int, default=None,
               help="number of random cones (cones suite)"),
          _arg("--seed", type=int, default=0),
          _arg("--json", action="store_true"),
          render=_render_verify)
def _verify(args) -> dict:
    verify = _oracles()
    checks = verify.run_suite(args.suite, max_n=args.max_n, seed=args.seed,
                              count=args.count)
    failures = sum(1 for c in checks if not c.agrees)
    return {
        "suite": args.suite,
        "caps": verify.suite_caps(args.suite, args.max_n, args.count),
        "rows": [verify_row_dict(args.suite, c) for c in checks],
        "total": len(checks),
        "failures": failures,
        # a cap that admits no case checked nothing, which is no pass
        "all_pass": failures == 0 and len(checks) > 0,
    }


# --- parsing and dispatch -----------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every later
    call in the process (``parse_args`` keeps no state between calls)."""
    import argparse
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


@functools.cache
def _declared(command: str) -> tuple:
    """A command's ``_arg`` declarations as lookups: the namespace of
    defaults (``command`` first, then each dest in declared order, as
    argparse orders it), option string -> (dest, spec), the positional's
    dest, and the dests that must be given."""
    defaults = {"command": command}
    options, positional, required = {}, None, set()
    for flags, spec in _COMMANDS[command][1]:
        if not flags[0].startswith("-"):
            positional = flags[0]
            defaults[positional] = None
            required.add(positional)
            continue
        # argparse's dest: the first long flag, "-" read as "_"
        long = next((f for f in flags if f.startswith("--")), flags[0])
        dest = spec.get("dest", long.lstrip("-").replace("-", "_"))
        flag = spec.get("action") == "store_true"
        defaults[dest] = spec.get("default", False if flag else None)
        if spec.get("required"):
            required.add(dest)
        options.update(dict.fromkeys(flags, (dest, spec)))
    return defaults, options, positional, required


def _parse_declared(argv) -> SimpleNamespace | None:
    """The items of the namespace ``_build_parser().parse_args(argv)``
    returns, in its order, read off the command's declarations in one
    pass, when ``argv`` is well formed: a command, then whole declared
    options (each at most once), a value not starting with "-" after each
    value option (converted by its ``type`` and among its ``choices``),
    and the one positional, with the positional and every ``required``
    option present. None for any other argv, a value its converter
    refuses included, so argparse alone answers help, version,
    abbreviations and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    defaults, options, positional, required = _declared(argv[0])
    values, given = dict(defaults), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if positional is None or positional in given:
                return None
            dest, value = positional, token
        elif token in options and options[token][0] not in given:
            dest, spec = options[token]
            if spec.get("action") == "store_true":
                value = True
            else:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
                try:
                    value = spec.get("type", str)(text)
                except Exception:
                    # argparse words any refusal of a ``type``; its own
                    # ArgumentTypeError cannot be named without importing it
                    return None
                if "choices" in spec and value not in spec["choices"]:
                    return None
        else:
            return None
        given.add(dest)
        values[dest] = value
    return SimpleNamespace(**values) if required <= given else None


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_declared(argv) or _build_parser().parse_args(argv)
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
