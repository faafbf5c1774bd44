"""Value semantics of the package's records: one sample of each class is
hashed as the tuple of its fields, refuses assignment, prints as
``Name(field=value, ...)``, and validates its input on construction."""

import pytest

from contactres import resolutions
from contactres.cones import RationalCone
from contactres.errors import InternalInvariantError
from contactres.lie_core import (
    ParabolicType,
    SimpleType,
    build_root_system,
    flag_dimension,
    parabolic,
)
from contactres.oracle_lab import (
    ContactCheckResult,
    MatrixModel,
    contact_check,
    jordan_nilpotent,
)
from contactres.orbits import (
    ExceptionalOrbitEntry,
    OrbitLabel,
    orbit_record,
    parse_orbit,
)
from contactres.resolutions import (
    Polarization,
    ResolutionReport,
    Wall,
    contact_resolution_exists,
    movable_chambers,
    polarizations,
)
from contactres.verify import OracleCheck

A1 = "SimpleType(family='A', rank=1)"
LABEL = (f"OrbitLabel(simple_type={A1}, partition=(2,), exceptional_key=None,"
         " very_even_tag=None)")
RECORD = (f"OrbitRecord(label={LABEL}, dim_orbit=2, is_minimal=True,"
          " is_zero=False, contact_n=0, proj_normalization_smooth=True)")
POLARIZATION = (
    f"Polarization(parabolic=ParabolicType(simple_type={A1}, marked=(1,)),"
    f" composition=(1, 1), flag_dimension=1)")
COMPLEX = f"ChamberComplex(chambers=({POLARIZATION},), walls=())"


def _sl2_minimal():
    return parse_orbit("A1:2")


# (record, its field names in order, the repr the dataclass version printed)
SAMPLES = [
    pytest.param(
        lambda: SimpleType("A", 2), ("family", "rank"),
        "SimpleType(family='A', rank=2)", id="SimpleType"),
    pytest.param(
        lambda: build_root_system(SimpleType("A", 1)),
        ("simple_type", "cartan_matrix", "positive_roots", "node_roots"),
        f"RootSystemData(simple_type={A1}, cartan_matrix=((2,),),"
        " positive_roots=((1,),), node_roots=(1,))", id="RootSystemData"),
    pytest.param(
        lambda: parabolic(SimpleType("A", 3), (3, 1)), ("simple_type", "marked"),
        "ParabolicType(simple_type=SimpleType(family='A', rank=3),"
        " marked=(1, 3))", id="ParabolicType"),
    pytest.param(
        _sl2_minimal,
        ("simple_type", "partition", "exceptional_key", "very_even_tag"),
        LABEL, id="OrbitLabel"),
    pytest.param(
        lambda: orbit_record(_sl2_minimal()),
        ("label", "dim_orbit", "is_minimal", "is_zero", "contact_n",
         "proj_normalization_smooth"),
        RECORD, id="OrbitRecord"),
    pytest.param(
        lambda: ExceptionalOrbitEntry("G", 2, "dim8", 8),
        ("family", "rank", "key", "dimension", "note", "provenance"),
        "ExceptionalOrbitEntry(family='G', rank=2, key='dim8', dimension=8,"
        " note=None, provenance=None)", id="ExceptionalOrbitEntry"),
    pytest.param(
        lambda: polarizations(_sl2_minimal())[0],
        ("parabolic", "composition", "flag_dimension"),
        POLARIZATION, id="Polarization"),
    pytest.param(
        lambda: Wall((1, 2), (2, 1), 1, (1, 2)),
        ("chamber_a", "chamber_b", "position", "entries"),
        "Wall(chamber_a=(1, 2), chamber_b=(2, 1), position=1, entries=(1, 2))",
        id="Wall"),
    pytest.param(
        lambda: movable_chambers(_sl2_minimal()),
        ("chambers", "walls"), COMPLEX, id="ChamberComplex"),
    pytest.param(
        lambda: OracleCheck("ad-rank", "A1:2", 2, 2),
        ("oracle", "case", "formula_value", "oracle_value", "seeds"),
        "OracleCheck(oracle='ad-rank', case='A1:2', formula_value=2,"
        " oracle_value=2, seeds=())", id="OracleCheck"),
    pytest.param(
        lambda: contact_resolution_exists(_sl2_minimal()),
        ("orbit", "verdict", "reason", "chamber_complex",
         "affine_closure_admits_symplectic_resolution", "notes"),
        f"ResolutionReport(orbit={RECORD}, verdict='SmoothAlready',"
        f" reason='Minimal', chamber_complex={COMPLEX},"
        " affine_closure_admits_symplectic_resolution=True, notes=())",
        id="ResolutionReport"),
    pytest.param(
        lambda: jordan_nilpotent((2,)), ("n", "e"),
        "MatrixModel(n=2, e=((0, 1), (0, 0)))", id="MatrixModel"),
    pytest.param(
        lambda: contact_check(jordan_nilpotent((2,))),
        ("dim_orbit", "theta_kernel_dim", "omega_rank_on_kernel",
         "radical_is_euler_line"),
        "ContactCheckResult(dim_orbit=2, theta_kernel_dim=1,"
        " omega_rank_on_kernel=0, radical_is_euler_line=True)",
        id="ContactCheckResult"),
    pytest.param(
        lambda: RationalCone(2, ((0, 1), (1, 0)), (), ((0, 1), (1, 0))),
        ("ambient_dim", "extreme_rays", "lineality_basis", "facet_normals"),
        "RationalCone(ambient_dim=2, extreme_rays=((0, 1), (1, 0)),"
        " lineality_basis=(), facet_normals=((0, 1), (1, 0)))",
        id="RationalCone"),
]


@pytest.mark.parametrize("make, fields, text", SAMPLES)
class TestRecordValue:
    def test_hash_is_the_tuple_hash_of_the_fields(self, make, fields, text):
        r = make()
        assert hash(r) == hash(tuple(getattr(r, f) for f in fields))
        assert r == make() and hash(r) == hash(make())

    def test_fields_refuse_assignment(self, make, fields, text):
        r = make()
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(r, f, getattr(r, f))

    def test_repr(self, make, fields, text):
        assert repr(make()) == text


class TestKeywordConstruction:
    def test_orbit_label_defaults(self):
        t = SimpleType("E", 6)
        o = OrbitLabel(t, exceptional_key="A1")
        assert (o.simple_type, o.partition, o.exceptional_key,
                o.very_even_tag) == (t, None, "A1", None)
        assert OrbitLabel(simple_type=t) == OrbitLabel(t, None, None, None)

    def test_exceptional_entry_defaults(self):
        e = ExceptionalOrbitEntry(family="G", rank=2, key="dim8", dimension=8,
                                  note="n")
        assert e.note == "n" and e.provenance is None

    def test_oracle_check_seeds_default(self):
        c = OracleCheck(oracle="kks-rank", case="A2:3", formula_value=6,
                        oracle_value=6)
        assert c.seeds == () and c.agrees
        assert OracleCheck("x", "y", 1, 2, seeds=("s",)).seeds == ("s",)

    def test_resolution_report_default(self):
        base = contact_resolution_exists(_sl2_minimal())
        kw = {f: getattr(base, f) for f in (
            "orbit", "verdict", "reason", "chamber_complex",
            "affine_closure_admits_symplectic_resolution", "notes")}
        r = ResolutionReport(**kw)
        assert r == base and r.resolution_exists

    def test_rational_cone_facets_keyword(self):
        units = ((0, 1), (1, 0))
        c = RationalCone(ambient_dim=2, extreme_rays=units, lineality_basis=(),
                         facet_normals=units)
        assert c.facet_normals == units and c == RationalCone(2, units, (),
                                                              units)

    @pytest.mark.parametrize("cls, kw", [
        (SimpleType, {"family": "A", "rank": 1}),
        (ParabolicType, {"simple_type": SimpleType("A", 1), "marked": ()}),
        (OrbitLabel, {"simple_type": SimpleType("A", 1)}),
        (ExceptionalOrbitEntry,
         {"family": "G", "rank": 2, "key": "dim8", "dimension": 8}),
        (OracleCheck, {"oracle": "o", "case": "c", "formula_value": 1,
                       "oracle_value": 1}),
        (Polarization, {"parabolic": parabolic(SimpleType("G", 2), (1, 2)),
                        "composition": None, "flag_dimension": 6}),
        (Wall, {"chamber_a": (), "chamber_b": (), "position": 1,
                "entries": (1, 2)}),
        (MatrixModel, {"n": 1, "e": ((0,),)}),
        (ContactCheckResult, {"dim_orbit": 0, "theta_kernel_dim": 0,
                              "omega_rank_on_kernel": 0,
                              "radical_is_euler_line": False}),
        (RationalCone, {"ambient_dim": 1, "extreme_rays": (),
                        "lineality_basis": (), "facet_normals": ()}),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_unknown_keyword_is_a_type_error(self, cls, kw):
        cls(**kw)
        with pytest.raises(TypeError):
            cls(**kw, colour="red")


# InvalidRank and DimensionMismatch on bad input are checked in
# tests/test_lie_core.py (test_invalid_ranks, test_out_of_range_mark)
def test_birational_polarization_needs_matching_dimension(monkeypatch):
    # each polarization's flag dimension is checked against dim O as it
    # is built: a wrong one is a bug, in every branch of the decision
    monkeypatch.setattr(resolutions, "flag_dimension",
                        lambda p: flag_dimension(p) + 1)
    for text in ("A2:3", "A3:2,1,1", "B2:5", "G2:dim12"):
        with pytest.raises(InternalInvariantError, match="birational"):
            polarizations(parse_orbit(text))
