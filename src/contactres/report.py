"""JSON-ready dictionaries for every answer object.

One function per object. The CLI builds every result from these, and
its text output renders the same dictionaries its JSON output
serializes, so the two can never drift apart. Everything returned is
plain JSON types: dicts with ``str`` keys, lists, tuples, ``str``,
``int``, ``bool`` and ``None``. Each value the decision guarantees is a
literal: ``springer_degree`` 1, ``is_birational`` and ``connected`` true,
and both ``singularity_flags`` true.

``to_json`` is the one serializer. Its output is, byte for byte, that of
``json.dumps(obj, indent=2, sort_keys=True)``: keys sorted, two-space
indent, ASCII-escaped strings. It refuses floats (a report is exact) and
every other type with ``TypeError``. That includes the package's
records: they are named tuples, but the exact ``type(obj) is tuple``
test keeps them from being written as arrays.

The functions hand ``to_json`` the records' own plain tuples (rays,
compositions, markings, wall ends and entries), not copies, and within
one call ``to_json`` writes each shared tuple once and reuses that text
wherever the tuple comes back. That is safe because a tuple cannot
change and the tree keeps every node, hence every id, alive for the
whole call. At another depth the text is shifted by one ``str.replace``
of its line breaks: ``_quote`` escapes every line break inside a
string, and every later line of a value written at depth d starts with
at least 2 d spaces, so each line break gains or loses the same indent.
The indent, separator and bracket strings of each depth are built once
per process, not once per container, and so is each key's prefix (the
dict opener or the separator, then the quoted key and ": ") in the key
table of each depth; a report's keys are a fixed set of literals. Every
key still passes the exact ``type(key) is str`` test before the table
is read, so a ``str`` subclass equal to a known key is refused.

The functions read the records by field name only, so this module
imports nothing from the package: ``rec`` is an ``orbits.OrbitRecord``,
``pol`` a ``resolutions.Polarization``, ``c`` a ``resolutions.RationalCone``,
``cc`` a ``resolutions.ChamberComplex`` or None (its chambers ``ch`` are
polarizations too), ``check`` a ``verify.OracleCheck`` and ``r`` a
``resolutions.ResolutionReport``.
"""

from __future__ import annotations

try:  # the C quoter of json.encoder, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
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
        # theorems for every orbit: the normalized closure is normal and has
        # rational Gorenstein singularities (Hinich; Panyushev, 1991)
        "singularity_flags": {"projectively_normal": True,
                              "rational_gorenstein": True},
    }


def polarization_dict(pol) -> dict:
    return {
        "composition": pol.composition,
        "marked_roots": pol.parabolic.marked,
        "flag_dimension": pol.flag_dimension,
        # a polarization is one whose Springer map is birational (degree 1)
        "springer_degree": 1,
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
        "connected": True,  # chamber_complex_for refuses any other complex
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
    _encode(obj, 0, chunks, {})
    return "".join(chunks)


# Per depth d, the strings a container that starts on a line of depth d
# writes: the separator, the list opener (it ends with the line break and
# indent of depth d + 1), the list and dict closers (the line break and
# indent of depth d, then the bracket) and the key table. The table maps
# each key a dict of depth d has met to its two prefixes: the dict opener
# and then the separator, each followed by the quoted key and ": ".
# Filled on demand and shared by every call; each entry depends on d and
# the key alone, so a concurrent fill stores the same strings.
_LEVELS: dict[int, tuple[str, str, str, str, dict]] = {}


def _level(depth: int) -> tuple[str, str, str, str, dict]:
    newline = "\n" + "  " * depth
    inner = newline + "  "
    level = _LEVELS[depth] = ("," + inner, "[" + inner, newline + "]",
                              newline + "}", {})
    return level


def _prefixes(keys: dict, sep: str, key: str) -> tuple[str, str]:
    quoted = _quote(key) + ": "
    texts = keys[key] = ("{" + sep[1:] + quoted, sep + quoted)
    return texts


def _encode(obj, depth: int, chunks: list, memo: dict) -> None:
    """Append ``obj`` to ``chunks``; ``depth`` is the indent depth of the
    line the value starts on. ``memo``, made anew by each ``to_json``
    call, maps the id of each plain tuple written so far to the depth it
    was first written at and its text there."""
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
            if seen is not None:
                first, text = seen
                if depth > first:
                    text = text.replace("\n", "\n" + "  " * (depth - first))
                elif depth < first:
                    text = text.replace("\n" + "  " * (first - depth), "\n")
                chunks.append(text)
                return
        sep, lead, close, _, _ = _LEVELS.get(depth) or _level(depth)
        if all([type(x) is int for x in obj]):
            text = lead + sep.join(map(int.__repr__, obj)) + close
            chunks.append(text)
            if kind is tuple:
                memo[id(obj)] = (depth, text)
            return
        start = len(chunks)
        inner = depth + 1
        for item in obj:
            chunks.append(lead)
            lead = sep
            _encode(item, inner, chunks, memo)
        chunks.append(close)
        if kind is tuple:
            memo[id(obj)] = (depth, "".join(chunks[start:]))
    elif kind is dict:
        if not obj:
            chunks.append("{}")
            return
        sep, _, _, close, keys = _LEVELS.get(depth) or _level(depth)
        inner = depth + 1
        later = False
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            chunks.append((keys.get(key) or _prefixes(keys, sep, key))[later])
            later = True
            _encode(obj[key], inner, chunks, memo)
        chunks.append(close)
    else:
        raise TypeError(f"{kind.__name__} is not a report type")
