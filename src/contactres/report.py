"""JSON-ready dictionaries for every answer object.

One function per object. The CLI builds every result from these, and
its text output renders the same dictionaries its JSON output
serializes, so the two can never drift apart. Everything returned is
plain JSON types: dicts with ``str`` keys, lists, tuples, ``str``,
``int``, ``bool`` and ``None``.

``to_json`` is the one serializer. Its output is, byte for byte, that of
``json.dumps(obj, indent=2, sort_keys=True)``: keys sorted, two-space
indent, ASCII-escaped strings. It refuses floats (a report is exact) and
every other type with ``TypeError``. That includes the package's
records: they are named tuples, but the exact ``type(obj) is tuple``
test keeps them from being written as arrays.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .cones import RationalCone
from .orbits import OrbitRecord
from .resolutions import (
    ChamberComplex,
    OracleCheck,
    Polarization,
    ResolutionReport,
)


def orbit_record_dict(rec: OrbitRecord) -> dict:
    label = rec.label
    return {
        "orbit": str(label),
        "simple_type": str(label.simple_type),
        "partition": list(label.partition) if label.partition else None,
        "exceptional_key": label.exceptional_key,
        "very_even_tag": label.very_even_tag,
        "dimension": rec.dim_orbit,
        "is_minimal": rec.is_minimal,
        "is_zero": rec.is_zero,
        "contact_n": rec.contact_n,
        "proj_normalization_smooth": rec.proj_normalization_smooth,
        "singularity_flags": rec.singularity_flags,
    }


def polarization_dict(pol: Polarization) -> dict:
    comp = pol.composition
    return {
        "composition": list(comp) if comp is not None else None,
        "marked_roots": list(pol.parabolic.marked),
        "flag_dimension": pol.flag_dimension,
        "springer_degree": pol.springer_degree,
        "is_birational": pol.is_birational,
    }


def cone_dict(c: RationalCone) -> dict:
    return {
        "ambient_dim": c.ambient_dim,
        "extreme_rays": [list(r) for r in c.extreme_rays],
        "lineality_basis": [list(r) for r in c.lineality_basis],
    }


def chamber_complex_dict(cc: ChamberComplex | None) -> dict | None:
    if cc is None:
        return None
    return {
        "chamber_count": cc.chamber_count,
        "chambers": [
            {
                "label": list(ch.label),
                "composition": list(ch.composition)
                               if ch.composition is not None else None,
                "marked_roots": list(ch.marked_roots),
                "ample_cone": cone_dict(ch.ample),
            }
            for ch in cc.chambers
        ],
        "walls": [
            {
                "chamber_a": list(w.chamber_a),
                "chamber_b": list(w.chamber_b),
                "position": w.position,
                "entries": list(w.entries),
            }
            for w in cc.walls
        ],
        "connected": cc.is_connected,
    }


def oracle_check_dict(check: OracleCheck) -> dict:
    """A check in the oracle block of a ``classify`` report."""
    return {
        "oracle_name": check.oracle,
        "inputs": check.case,
        "seeds": list(check.seeds),
        "value": check.oracle_value,
        "formula_value": check.formula_value,
        "agrees_with_formula": check.agrees,
    }


def verify_row_dict(suite: str, check: OracleCheck) -> dict:
    """A check as one row of a ``verify`` report."""
    return {
        "suite": suite,
        "case": check.case,
        "formula_value": check.formula_value,
        "oracle_value": check.oracle_value,
        "agrees": check.agrees,
        "seeds": list(check.seeds),
    }


def resolution_report_dict(r: ResolutionReport) -> dict:
    return {
        "orbit": orbit_record_dict(r.orbit),
        "verdict": r.verdict,
        "reason": r.reason,
        "resolution_exists": r.resolution_exists,
        "crepant_equals_contact_equals_minimal":
            r.crepant_equals_contact_equals_minimal,
        "canonical_bundle_exponent": r.canonical_bundle_exponent,
        "affine_closure_admits_symplectic_resolution":
            r.affine_closure_admits_symplectic_resolution,
        "polarizations": [polarization_dict(p) for p in r.polarizations],
        "chamber_complex": chamber_complex_dict(r.chamber_complex),
        "oracle_checks": [oracle_check_dict(c) for c in r.oracle_checks],
        "notes": list(r.notes),
    }


# --- serialization ----------------------------------------------------------


def to_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys; see the module doc."""
    chunks: list[str] = []
    _encode(obj, "\n", chunks.append)
    return "".join(chunks)


def _encode(obj, newline: str, out) -> None:
    """Append ``obj`` to ``out``; ``newline`` is the line break plus the
    indent of the line the value starts on."""
    kind = type(obj)
    if kind is str:
        out(_quote(obj))
    elif kind is int:
        out(int.__repr__(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif kind is list or kind is tuple:
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if all([type(x) is int for x in obj]):
            out("[" + inner + sep.join(map(int.__repr__, obj)) + newline + "]")
            return
        lead = "[" + inner
        for item in obj:
            out(lead)
            lead = sep
            _encode(item, inner, out)
        out(newline + "]")
    elif kind is dict:
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        lead = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            out(lead + _quote(key) + ": ")
            lead = sep
            _encode(obj[key], inner, out)
        out(newline + "}")
    else:
        raise TypeError(f"{kind.__name__} is not a report type")
