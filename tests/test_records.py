"""The slotted records behave as the frozen dataclasses they replaced.

Every exact_linalg.Record subclass of the package is compared with a
dataclass twin built here from its fields: equal records have equal
twins, and ==, hash and repr agree with the twin's.  Assignment and
deletion raise, a filled FpModule decomposition cache and the cone
complex kept on a ChainMap stay outside equality and hash, and copies
and pickles come back equal.  WorkbenchInput is the one mutable record: it
compares by its fields and has no hash, like a plain dataclass.
"""

import copy
import dataclasses
import inspect
import pickle
import random
from functools import cache

import pytest

from purcat.exact_linalg import IntMatrix, Record, ZZ, Zmod
from purcat.fpmod import FpModule, hom_modules, make_map
from purcat.complexes import ChainMap, cone, hom_complex, tensor_complex
from purcat.homotopy import hom_k
from purcat.purity import default_battery, is_pure_acyclic
from purcat.randgen import random_chain_map, random_complex
from purcat.resolutions import SemiSplitTower, injective_tower, resolve
from purcat.monoidal import check_dpur_adjunction, phom
from purcat.serialize import WorkbenchInput


def record_classes() -> list:
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("purcat."):
                found.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


CLASSES = record_classes()

# The tower record serves both of the paper's towers, told apart by its side
# field: each side is a case of its own, under the name of its tower.
TOWER_SIDES = {SemiSplitTower: [("SemiSplitInverseTower", "injective"),
                                ("SemiSplitDirectTower", "projective")]}
CASES = [pytest.param(cls, side, id=name)
         for cls in CLASSES
         for name, side in TOWER_SIDES.get(cls, [(cls.__name__, None)])]


@cache
def twin(cls):
    """The dataclass a record class stands for: frozen unless the record is
    mutable (has no hash)."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields,
                                      frozen=cls.__hash__ is not None)


def twin_of(obj):
    return twin(type(obj))(*(getattr(obj, name) for name in obj._fields))


def filled(cls, values):
    """An instance with the given field values, past __init__'s checks."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


def test_every_defining_module_has_records():
    modules = {cls.__module__.split(".")[1] for cls in CLASSES}
    assert modules == {"exact_linalg", "fpmod", "complexes", "homotopy", "purity",
                       "resolutions", "monoidal", "serialize"}


def case_values(cls, side) -> list:
    """Distinct stand-ins for the fields, with the side in its own field."""
    return [side if name == "side" else (k, f"v{k}")
            for k, name in enumerate(cls._fields)]


@pytest.mark.parametrize("cls, side", CASES)
def test_init_takes_the_fields_in_order(cls, side):
    assert cls._fields
    params = list(inspect.signature(cls.__init__).parameters)
    assert params == ["self", *cls._fields]
    if side is not None:
        # the tower record only stores its arguments: each lands in its field
        values = case_values(cls, side)
        obj = cls(*values)
        assert [getattr(obj, name) for name in cls._fields] == values
        assert obj.side == side


@pytest.mark.parametrize("cls, side", CASES)
def test_records_agree_with_their_dataclass_twins(cls, side):
    values = case_values(cls, side)
    other = values[:-1] + [("other",)]
    a, b, c = filled(cls, values), filled(cls, list(values)), filled(cls, other)
    ta, tb, tc = twin_of(a), twin_of(b), twin_of(c)
    assert (a == b, a == c, a != c) == (ta == tb, ta == tc, ta != tc) == (True, False, True)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    # a record equals nothing of another class, its twin included
    assert a != ta and ta != a
    name = cls._fields[0]
    if cls.__hash__ is None:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, "changed")
        assert a != b
        return
    assert hash(a) == hash(b) == hash(ta) == hash(tb)
    assert hash(c) == hash(tc)
    with pytest.raises(AttributeError):
        setattr(a, name, "changed")
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b


def sample_records() -> list:
    """Records as the program makes them, nested and cached."""
    rng = random.Random(7)
    ring = Zmod(12)
    a = random_complex(rng, ring, -1, 3, max_gens=2)
    b = random_complex(rng, ring, -1, 3, max_gens=2)
    f = random_chain_map(rng, a, a)
    x = FpModule(ZZ, 2, IntMatrix.from_rows([[4, 0], [0, 6]]))
    tower, _ = injective_tower(a, 1)
    return [
        ZZ, ring, x, x.decomposition(), make_map(x, x, [[1, 0], [0, 1]]),
        hom_modules(x, x), a, f, cone(f), hom_complex(a, b), tensor_complex(a, b),
        hom_k(a, b), default_battery(ring, a), is_pure_acyclic(a), resolve(a, "injective"),
        tower, phom(a, b), check_dpur_adjunction(a, b, a),
    ]


SAMPLES = sample_records()


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda o: type(o).__name__)
def test_made_records_hash_and_print_as_their_twins(obj):
    assert isinstance(obj, Record)
    ta = twin_of(obj)
    assert obj != ta
    assert repr(obj) == repr(ta)
    if not any(isinstance(v, dict) for v in dataclasses.astuple(ta)):
        assert hash(obj) == hash(ta)
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_module_cache_is_not_a_field():
    rel = [[4, 0], [0, 6]]
    x = FpModule(ZZ, 2, IntMatrix.from_rows(rel))
    fresh = FpModule(ZZ, 2, IntMatrix.from_rows(rel))
    before = hash(x)
    assert x._decomp is None
    x.decomposition()
    assert x._decomp is not None and fresh._decomp is None
    assert x == fresh and fresh == x
    assert hash(x) == hash(fresh) == before
    assert repr(x) == repr(fresh)
    with pytest.raises(AttributeError):
        x._decomp = None


def test_cone_cache_is_not_a_field():
    rng = random.Random(3)
    f = random_chain_map(rng, *(random_complex(rng, ZZ, 0, 2) for _ in range(2)))
    twin_map = ChainMap(f.src, f.tgt, f.lo, f.components)
    before = hash(f)
    c, fresh = cone(f), cone(f)
    # the cone complex is kept on f, outside its fields
    assert f._cone is c.complex and twin_map._cone is None
    assert f == twin_map and hash(f) == hash(twin_map) == before
    assert repr(f) == repr(twin_map)
    # a Cone keeps nothing beyond its fields: its structure maps are read off them
    assert not hasattr(c, "__dict__")
    assert c.inclusion.tgt == c.complex
    assert c == fresh and hash(c) == hash(fresh)
    assert repr(c) == repr(fresh)


def test_workspace_is_mutable_with_empty_sections_of_its_own():
    one, two = WorkbenchInput(ZZ), WorkbenchInput(ZZ)
    assert one == two and one.modules is not two.modules
    one.parameters["complex"] = "c"
    assert one != two
    one.ring = Zmod(4)
    assert one.ring == Zmod(4)
    with pytest.raises(TypeError):
        hash(one)
