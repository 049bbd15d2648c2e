"""Value records compare by fields; identity classes compare by identity."""

import numpy as np
import pytest

import chgeom.bending as bd
import chgeom.core as core
import chgeom.dirichlet as dm
import chgeom.groups as gr
import chgeom.heisenberg as hb
import chgeom.presets as ps
from chgeom.errors import DegenerateInputError, InvalidPackingError, ParameterError


def _boundary_triple():
    return bd.BoundaryTriple(
        hb.horo_to_projective(hb.HeisPoint(0.0, 0.0)),
        hb.horo_to_projective(hb.HeisPoint(1.0, 0.5)),
        core.infinity_point(2))


def _sweep_row():
    cloud = gr.HeisCloud(np.zeros((2, 1)), np.zeros(2))
    return bd.SweepRow(0.1, 0.2, True, 0.5, hb.HeisPoint(1.0, 0.0), cloud)


RECORDS = {
    "SideCensus": lambda: dm.SideCensus(("A", "a"), {"A": 0.5, "a": 0.25}, 400, 3,
                                        0.5),
    "PingPongCertificate": lambda: gr.PingPongCertificate(2, 0.5),
    "BoxDimFit": lambda: gr.BoxDimFit(1.0, 0.1, (4, 9, 17)),
    "SweepRow": _sweep_row,
    "SweepReport": lambda: bd.SweepReport((), True, False),
    "BendParams": lambda: bd.BendParams(0.1, np.pi / 4),
    "AmalgamSpec": lambda: ps.bend_preset("hnn-bend"),
    "BoundaryTriple": _boundary_triple,
    "SpherePacking": lambda: ps.packing_preset("two-sphere"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_records_compare_and_hash_by_fields(name):
    record = RECORDS[name]()
    twin = type(record)(*record)  # validated again, same field values
    assert twin is not record and twin == record
    if name != "SideCensus":  # its margins are a dict
        assert hash(twin) == hash(record)
    assert record._replace() == record
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_value_record_replace():
    census = RECORDS["SideCensus"]()
    stable = census._replace(stable=True)
    assert stable.stable is True and census.stable is None
    assert stable != census and stable._replace(stable=None) == census
    assert gr.PingPongCertificate(2, 0.5)._replace(min_margin=0.25) == (2, 0.25)


def test_validated_records_validate_on_replace():
    with pytest.raises(ParameterError):
        bd.BendParams(0.1, np.pi / 4)._replace(zeta=2.0)
    spec = ps.bend_preset("hnn-bend")
    with pytest.raises(ParameterError):
        spec._replace(hnn_label="a")
    with pytest.raises(InvalidPackingError):
        ps.packing_preset("two-sphere")._replace(spheres=[((0.0, 0.0), -1.0)])
    triple = _boundary_triple()
    with pytest.raises(DegenerateInputError):
        triple._replace(p1=triple.p0)


def test_side_census_repr_names_its_fields():
    assert repr(RECORDS["SideCensus"]()) == (
        "SideCensus(sides=('A', 'a'), margins={'A': 0.5, 'a': 0.25}, "
        "rays_used=400, enumeration_radius=3, unbounded_ray_fraction=0.5, "
        "stable=None)")


def _orbit():
    return gr.orbit_enumerate(ps.group_preset("z2-lattice"), 2,
                              core.ProjectivePoint([0, 0, 1]))


IDENTITY_CLASSES = {
    "Isometry": lambda: core.Isometry(np.eye(3)),
    "HeisPoint": lambda: hb.HeisPoint(np.zeros(1), 0.0),
    "HoroPoint": lambda: hb.HoroPoint(np.zeros(1), 0.0, 1.0),
    "HeisSimilarity": lambda: hb.HeisSimilarity(),
    "GroupGens": lambda: ps.group_preset("z2-lattice"),
    "Orbit": _orbit,
}


@pytest.mark.parametrize("name", IDENTITY_CLASSES)
def test_identity_classes_compare_by_identity(name):
    a, b = IDENTITY_CLASSES[name](), IDENTITY_CLASSES[name]()
    # equal arrays inside, yet == is a plain bool, never an elementwise array
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert len({a, b, a}) == 2


def test_orbit_caches_its_words():
    orbit = _orbit()
    assert orbit.words is orbit.words
    assert orbit.words[0] == "" and len(orbit.words) == len(orbit)
