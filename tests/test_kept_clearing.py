"""The one state a ``PolyField`` keeps: its clearing (``PolyField._clearing``,
the ints of ``polyfields._cleared_terms``), formed on its first Taylor call
and reused at every point.  It is formed once per field over ``lie_flag``,
``jet_of_frame``, ``PolyField.taylor`` and ``slice_report``, and a used
field compares, hashes, prints and pickles as it did before use.  That a
frame reused across points answers as a freshly parsed copy does is a
hypothesis property in ``test_taylor_hypothesis.py``."""

import dataclasses
import pickle
from fractions import Fraction

from liegrowth import ampleness, catalog, flags, jetalg, polyfields
from liegrowth.polyfields import Poly, PolyField

from helpers import F


def test_the_clearing_runs_once_per_field(monkeypatch):
    cleared = []

    def counted(polys):
        cleared.append(polys)
        return clearing(polys)

    clearing = polyfields._cleared_terms
    monkeypatch.setattr(polyfields, "_cleared_terms", counted)
    engel = catalog.engel_frame()
    for point in ((0, 0, 0, 0), (1, F(1, 2), -2, 3), (F(2, 3), -1, 0, F(5, 7))):
        assert flags.lie_flag(engel, point, 3).dims == (2, 3, 4)
    jetalg.jet_of_frame(engel, (F(1, 3), 2, 0, -1), 3)
    for f in engel.fields:
        f.taylor((3, F(-1, 4), 1, 0), 2)
    ampleness.slice_report(engel, (0,) * 4, (1, 0, 2, 0), 3)
    assert len(cleared) == engel.k
    assert {id(polys) for polys in cleared} == {id(f.comps) for f in engel.fields}


def test_a_used_field_looks_as_it_did():
    engel = catalog.engel_frame()
    f = engel.fields[1]
    before = (hash(f), repr(f), pickle.dumps(f))
    twin = PolyField(tuple(Poly(p.n, dict(p.terms)) for p in f.comps))
    flags.lie_flag(engel, (0,) * 4, 3)
    f.taylor((1, F(1, 2), 0, 3), 2)
    assert "_clearing" in vars(f)
    assert f == twin and twin == f
    assert (hash(f), repr(f), pickle.dumps(f)) == before
    back = pickle.loads(pickle.dumps(f))
    assert back == f and "_clearing" not in vars(back)
    assert back.taylor((1, F(1, 2), 0, 3), 2) == f.taylor((1, F(1, 2), 0, 3), 2)
    assert [fld.name for fld in dataclasses.fields(PolyField)] == ["comps"]
    assert f.comps[3].terms == {(2, 0, 0, 0): Fraction(1, 2)}
