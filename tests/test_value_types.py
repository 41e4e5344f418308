"""Value semantics of every value type: repr text, ==, hash, keyword construction,
read-only fields and pickling, pinned as literals."""

import math
import pickle
from fractions import Fraction

import pytest

from polyslip.compat import LaminateSplit, RankOneConnection
from polyslip.geometry import (Arc, BoundaryAnalysis, Grain, OuterBound, Polycrystal, Segment,
                               _BoundarySamples, analyze_boundary)
from polyslip.mat2 import Mat2, ShearFrame, Vec2
from polyslip.random_textures import McConfig, McResult
from polyslip.shear_square import Cell, PwAffineMap, ShearSquareBuild, VerificationReport
from polyslip.taylor import AngleSet, TaylorBound

O = Vec2(0.0, 0.0)
I2 = Mat2(1, 0, 0, 1)
CIRCLE = Arc(O, 1.0, 0.0, 2 * math.pi)
CIRCLE_REPR = ("Arc(center=Vec2(x=0.0, y=0.0), radius=1.0, from_angle=0.0, "
               "to_angle=6.283185307179586, ccw=True)")

# name -> (keyword construction, repr, compared fields, read-only)
VALUES = {
    "Vec2": (lambda: Vec2(x=1, y=2), "Vec2(x=1, y=2)", ("x", "y"), False),
    "Mat2": (lambda: Mat2(a11=1, a12=0, a21=0, a22=1), "Mat2(a11=1, a12=0, a21=0, a22=1)",
             ("a11", "a12", "a21", "a22"), False),
    "ShearFrame": (lambda: ShearFrame(rho=0.5, beta=1.0, gamma=0.0),
                   "ShearFrame(rho=0.5, beta=1.0, gamma=0.0, s=Vec2(x=1.0, y=0.0))",
                   ("rho", "beta", "gamma", "s"), False),
    "AngleSet": (lambda: AngleSet(thetas=(0.0, 1.0), shift=0.25),
                 "AngleSet(thetas=(0.0, 1.0), shift=0.25)", ("thetas", "shift"), True),
    "TaylorBound": (lambda: TaylorBound(kind="pair", angles=(0.0, 1.0)),
                    "TaylorBound(kind='pair', angles=(0.0, 1.0))", ("kind", "angles"), True),
    "RankOneConnection": (
        lambda: RankOneConnection(a=Vec2(0.0, 0.0), nu=Vec2(0.0, 1.0), target=I2),
        "RankOneConnection(a=Vec2(x=0.0, y=0.0), nu=Vec2(x=0.0, y=1.0), "
        "target=Mat2(a11=1, a12=0, a21=0, a22=1))", ("a", "nu", "target"), False),
    "LaminateSplit": (
        lambda: LaminateSplit(F_plus=I2, F_minus=I2, lam=1.0, t_plus=0.0, t_minus=0.0),
        "LaminateSplit(F_plus=Mat2(a11=1, a12=0, a21=0, a22=1), "
        "F_minus=Mat2(a11=1, a12=0, a21=0, a22=1), lam=1.0, t_plus=0.0, t_minus=0.0)",
        ("F_plus", "F_minus", "lam", "t_plus", "t_minus"), False),
    "Segment": (lambda: Segment(p=O, q=Vec2(1.0, 0.0)),
                "Segment(p=Vec2(x=0.0, y=0.0), q=Vec2(x=1.0, y=0.0))", ("p", "q"), True),
    "Arc": (lambda: Arc(center=O, radius=1.0, from_angle=0.0, to_angle=math.pi),
            "Arc(center=Vec2(x=0.0, y=0.0), radius=1.0, from_angle=0.0, "
            "to_angle=3.141592653589793, ccw=True)",
            ("center", "radius", "from_angle", "to_angle", "ccw"), True),
    "Grain": (lambda: Grain(id=1, boundary=(Segment(O, Vec2(1.0, 0.0)),), theta=0.5),
              "Grain(id=1, boundary=(Segment(p=Vec2(x=0.0, y=0.0), q=Vec2(x=1.0, y=0.0)),), "
              "theta=0.5)", ("id", "boundary", "theta"), True),
    "Polycrystal": (
        lambda: Polycrystal(domain=(CIRCLE,),
                            grains=(Grain(id=1, boundary=(CIRCLE,), theta=0.0),)),
        f"Polycrystal(domain=({CIRCLE_REPR},), "
        f"grains=(Grain(id=1, boundary=({CIRCLE_REPR},), theta=0.0),))",
        ("domain", "grains"), True),
    "BoundaryAnalysis": (
        lambda: BoundaryAnalysis(boundary_grains=(1,), dual_points=(), perp_points=(),
                                 J=frozenset({1}), J_prime=frozenset(), outer_curves={1: []},
                                 grain_rows=((1.0, 0.0, True, (), ()),)),
        "BoundaryAnalysis(boundary_grains=(1,), dual_points=(), perp_points=(), J=frozenset({1}), "
        "J_prime=frozenset(), outer_curves={1: []}, grain_rows=((1.0, 0.0, True, (), ()),))",
        ("boundary_grains", "dual_points", "perp_points", "J", "J_prime"), True),
    "OuterBound": (lambda: OuterBound(slip_directions=(Vec2(1.0, 0.0),), trivial_flag=False),
                   "OuterBound(slip_directions=(Vec2(x=1.0, y=0.0),), trivial_flag=False)",
                   ("slip_directions", "trivial_flag"), True),
    "_BoundarySamples": (lambda: _BoundarySamples(normals={}, analysis=None),
                         "_BoundarySamples(normals={}, analysis=None)",
                         ("normals", "analysis"), True),
    "McConfig": (lambda: McConfig(k=3, n_samples=10, seed=1),
                 "McConfig(k=3, n_samples=10, seed=1)", ("k", "n_samples", "seed"), True),
    "McResult": (lambda: McResult(estimate=0.5, std_error=0.1, analytic=0.5),
                 "McResult(estimate=0.5, std_error=0.1, analytic=0.5)",
                 ("estimate", "std_error", "analytic"), True),
    "Cell": (lambda: Cell(name="S", vertices=(Vec2(0, 0),), A=I2, b=Vec2(0, 0)),
             "Cell(name='S', vertices=(Vec2(x=0, y=0),), A=Mat2(a11=1, a12=0, a21=0, a22=1), "
             "b=Vec2(x=0, y=0))", ("name", "vertices", "A", "b"), True),
    "PwAffineMap": (lambda: PwAffineMap(cells=()), "PwAffineMap(cells=())", ("cells",), True),
    "ShearSquareBuild": (
        lambda: ShearSquareBuild(gamma=Fraction(1, 2), map=PwAffineMap(cells=()), F_gamma=I2),
        "ShearSquareBuild(gamma=Fraction(1, 2), map=PwAffineMap(cells=()), "
        "F_gamma=Mat2(a11=1, a12=0, a21=0, a22=1))", ("gamma", "map", "F_gamma"), True),
    "VerificationReport": (
        lambda: VerificationReport(continuity=True, determinant=True, membership=True,
                                   boundary_trace=True, rank_one_jumps=False),
        "VerificationReport(continuity=True, determinant=True, membership=True, "
        "boundary_trace=True, rank_one_jumps=False, failures=())",
        ("continuity", "determinant", "membership", "boundary_trace", "rank_one_jumps",
         "failures"), True),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    make, text, compared, read_only = VALUES[name]
    v, w = make(), make()
    assert type(v).__name__ == name and repr(v) == text
    key = tuple(getattr(v, f) for f in compared)
    assert v == w and not v != w and v.__eq__(key) is NotImplemented
    if name == "_BoundarySamples":  # its normals are a dict
        with pytest.raises(TypeError):
            hash(v)
    else:
        assert hash(v) == hash(w) == hash(key)
    if read_only:
        for field in compared:
            with pytest.raises(AttributeError):
                setattr(v, field, getattr(w, field))
            with pytest.raises(AttributeError):
                delattr(v, field)
        assert v == w


def test_cached_slots_neither_compare_nor_print():
    a, b = AngleSet((0.0, 1.0), 0.25), AngleSet((0.0, 1.0), 0.25)
    object.__setattr__(a, "_bound", None)
    assert a == b and hash(a) == hash(b) and "_bound" not in repr(a)
    bound, fresh = TaylorBound("pair", (0.0, 1.0)), TaylorBound("pair", (0.0, 1.0))
    assert bound.member(Mat2(1.0, 0.0, 0.0, 1.0), 0.0) and bound._trivial_at == (0.0, False)
    object.__setattr__(bound, "_angles", ())
    assert bound == fresh and hash(bound) == hash(fresh)
    assert "_angles" not in repr(bound) and "_trivial_at" not in repr(bound)
    arc = Arc(O, 1.0, 0.0, math.pi)
    object.__setattr__(arc, "_sweep", 0.0)
    assert arc == Arc(O, 1.0, 0.0, math.pi) and "_sweep" not in repr(arc)
    pc, fresh = VALUES["Polycrystal"][0](), VALUES["Polycrystal"][0]()
    analyze_boundary(pc)
    assert pc._analyses and pc == fresh and hash(pc) == hash(fresh)
    make = VALUES["BoundaryAnalysis"][0]
    assert make() == BoundaryAnalysis((1,), (), (), frozenset({1}), frozenset())


def test_values_of_other_classes_differ():
    assert Vec2(1, 2) != (1, 2) and Vec2(1, 2) != Mat2(1, 2, 0, 0)
    assert Segment(O, O) != Grain(1, (), 0.0)


@pytest.mark.parametrize("name", ["AngleSet", "McConfig", "ShearSquareBuild", "BoundaryAnalysis"])
def test_pickle_round_trip(name):
    v = VALUES[name][0]()
    copy = pickle.loads(pickle.dumps(v))
    assert copy == v and repr(copy) == repr(v)
    if name == "AngleSet":
        assert copy._bound == v._bound
