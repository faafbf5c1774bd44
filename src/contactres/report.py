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

The functions hand ``to_json`` the records' own plain tuples (rays,
compositions, markings, wall ends), not copies, and within one call
``to_json`` writes each shared tuple once per indent and then reuses
that text. That is safe because a tuple cannot change and the tree
keeps every node, hence every id, alive for the whole call.

The functions read the records by field name only, so this module
imports nothing from the package: ``rec`` is an ``orbits.OrbitRecord``,
``pol`` a ``resolutions.Polarization``, ``c`` a ``cones.RationalCone``,
``cc`` a ``resolutions.ChamberComplex`` or None (its chambers ``ch`` are
polarizations too), ``check`` a ``verify.OracleCheck`` and ``r`` a
``resolutions.ResolutionReport``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


def orbit_record_dict(rec) -> dict:
    label = rec.label
    return {
        "orbit": str(label),
        "simple_type": str(label.simple_type),
        "partition": label.partition or None,
        "exceptional_key": label.exceptional_key,
        "very_even_tag": label.very_even_tag,
        "dimension": rec.dim_orbit,
        "is_minimal": rec.is_minimal,
        "is_zero": rec.is_zero,
        "contact_n": rec.contact_n,
        "proj_normalization_smooth": rec.proj_normalization_smooth,
        "singularity_flags": rec.singularity_flags,
    }


def polarization_dict(pol) -> dict:
    return {
        "composition": pol.composition,
        "marked_roots": pol.parabolic.marked,
        "flag_dimension": pol.flag_dimension,
        "springer_degree": pol.springer_degree,
        # a polarization is one whose Springer map is birational
        "is_birational": True,
    }


def cone_dict(c) -> dict:
    return {
        "ambient_dim": c.ambient_dim,
        "extreme_rays": c.extreme_rays,
        "lineality_basis": c.lineality_basis,
    }


def chamber_complex_dict(cc) -> dict | None:
    if cc is None:
        return None
    return {
        "chamber_count": cc.chamber_count,
        "chambers": [
            {
                "label": ch.label,
                "composition": ch.composition,
                "marked_roots": ch.parabolic.marked,
                "ample_cone": cone_dict(ch.ample),
            }
            for ch in cc.chambers
        ],
        "walls": [
            {
                "chamber_a": w.chamber_a,
                "chamber_b": w.chamber_b,
                "position": w.position,
                "entries": w.entries,
            }
            for w in cc.walls
        ],
        "connected": cc.is_connected,
    }


def oracle_check_dict(check) -> dict:
    """A check in the oracle block of a ``classify`` report."""
    return {
        "oracle_name": check.oracle,
        "inputs": check.case,
        "seeds": list(check.seeds),
        "value": check.oracle_value,
        "formula_value": check.formula_value,
        "agrees_with_formula": check.agrees,
    }


def verify_row_dict(suite: str, check) -> dict:
    """A check as one row of a ``verify`` report."""
    return {
        "suite": suite,
        "case": check.case,
        "formula_value": check.formula_value,
        "oracle_value": check.oracle_value,
        "agrees": check.agrees,
        "seeds": list(check.seeds),
    }


def resolution_report_dict(r, oracle_checks) -> dict:
    """A ``classify`` report: the decision ``r`` and the rows of its
    oracle block (``verify.oracle_block``; empty with ``--no-oracles``)."""
    return {
        "orbit": orbit_record_dict(r.orbit),
        "verdict": r.verdict,
        "reason": r.reason,
        "resolution_exists": r.resolution_exists,
        # crepant = minimal model = contact: the paper makes them one
        # notion, so a report carries one predicate, never three
        "crepant_equals_contact_equals_minimal": True,
        "canonical_bundle_exponent": r.orbit.canonical_bundle_exponent,
        "affine_closure_admits_symplectic_resolution":
            r.affine_closure_admits_symplectic_resolution,
        "polarizations": [polarization_dict(p) for p in r.polarizations],
        "chamber_complex": chamber_complex_dict(r.chamber_complex),
        "oracle_checks": [oracle_check_dict(c) for c in oracle_checks],
        "notes": list(r.notes),
    }


# --- serialization ----------------------------------------------------------


def to_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys; see the module doc."""
    chunks: list[str] = []
    _encode(obj, "\n", chunks, {})
    return "".join(chunks)


def _encode(obj, newline: str, chunks: list, memo: dict) -> None:
    """Append ``obj`` to ``chunks``; ``newline`` is the line break plus
    the indent of the line the value starts on. ``memo``, made anew by
    each ``to_json`` call, maps the id of each plain tuple written so far
    to the indent it was last written at and its text there."""
    kind = type(obj)
    if kind is str:
        chunks.append(_quote(obj))
    elif kind is int:
        chunks.append(int.__repr__(obj))
    elif obj is None:
        chunks.append("null")
    elif obj is True:
        chunks.append("true")
    elif obj is False:
        chunks.append("false")
    elif kind is list or kind is tuple:
        if not obj:
            chunks.append("[]")
            return
        if kind is tuple:
            seen = memo.get(id(obj))
            if seen is not None and seen[0] == newline:
                chunks.append(seen[1])
                return
        inner = newline + "  "
        sep = "," + inner
        if all([type(x) is int for x in obj]):
            text = ("[" + inner + sep.join(map(int.__repr__, obj))
                    + newline + "]")
            chunks.append(text)
            if kind is tuple:
                memo[id(obj)] = (newline, text)
            return
        start = len(chunks)
        lead = "[" + inner
        for item in obj:
            chunks.append(lead)
            lead = sep
            _encode(item, inner, chunks, memo)
        chunks.append(newline + "]")
        if kind is tuple:
            memo[id(obj)] = (newline, "".join(chunks[start:]))
    elif kind is dict:
        if not obj:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        lead = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            chunks.append(lead + _quote(key) + ": ")
            lead = sep
            _encode(obj[key], inner, chunks, memo)
        chunks.append(newline + "}")
    else:
        raise TypeError(f"{kind.__name__} is not a report type")
