"""The package root's public names and the value classes' behaviour, pinned
as they were while the names were imported eagerly and the value classes
were dataclasses."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc import (
    AParameterShape,
    Bipartition,
    GroupType,
    PairType,
    Partition,
    SelfDualType,
    Summand,
    Symbol,
    xi_vector,
)

# The package root's public names, by the module that defines each.
PUBLIC = {
    "aparams": [
        "AParameterShape", "SelfDualType", "Summand", "dual_shape",
        "npsi_partition", "pair_type_of", "parse_summands", "parse_target",
        "predicted_wavefront", "split_by_signs",
    ],
    "duality": ["dual_partition", "lie_algebra_dim", "orbit_dim"],
    "partitions": [
        "Classification", "GroupType", "Partition", "add", "classify",
        "collapse", "dominance_leq", "enumerate_partitions", "is_orthogonal",
        "is_symplectic", "parse_partition", "partitions_of", "transpose",
        "union",
    ],
    "symbols": [
        "Bipartition", "Symbol", "bipartition_leq", "bipartition_of_symbol",
        "family_key", "is_special_symbol", "normalize_symbol",
        "parse_bipartition", "partition_of_special_symbol", "special_closure",
        "specialize_sum", "springer_bipartition", "symbol_of",
    ],
    "waldspurger": ["PairType", "XiVector", "waldspurger", "xi_vector"],
}
NAMES = {name for names in PUBLIC.values() for name in names}

# Run in a fresh process, so that no deferred name is resolved before dir().
_FRESH = """
import json, sys, types
import orbitcalc
listed = dir(orbitcalc)
import orbitcalc.symbols, orbitcalc.aparams
transfer = orbitcalc.waldspurger
star = {}
exec("from orbitcalc import *", star)
print(json.dumps({
    "dir": [n for n in listed if not n.startswith("_")
            and not isinstance(getattr(orbitcalc, n), types.ModuleType)],
    "version": "__version__" in listed,
    "star": sorted(star.keys() - {"__builtins__"}),
    "waldspurger": transfer is sys.modules["orbitcalc.waldspurger"].waldspurger,
}))
"""


def test_public_names_in_a_fresh_process():
    src = str(Path(orbitcalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert set(seen["dir"]) == NAMES and seen["version"]
    assert set(seen["star"]) == NAMES | {"__version__"}
    assert seen["waldspurger"]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_the_modules_objects(module):
    defining = import_module(f"orbitcalc.{module}")
    for name in PUBLIC[module]:
        assert getattr(orbitcalc, name) is getattr(defining, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        orbitcalc.no_such_name


_O, _P = SelfDualType.ORTHOGONAL, SelfDualType.PAIR
_SO5 = (Summand(1, _O, 1, 2), Summand(1, _O, 1, 2))

# A call that builds one instance of a value class, the instance's repr as
# the dataclasses printed it, and the tuple whose hash is its hash.
SAMPLES = [
    (lambda: Bipartition((1, 2), (1,)),
     "Bipartition(alpha=(1, 2), beta=(1,), type_d=False)",
     (False, (1, 2), (1,))),
    (lambda: Bipartition((0, 2), (1,), type_d=True),
     "Bipartition(alpha=(0, 2), beta=(1,), type_d=True)",
     (True, (0, 2), (1,))),
    (lambda: Bipartition((0, 1), (2,), True).padded(2),
     "Bipartition(alpha=(0, 0, 2), beta=(0, 1), type_d=True)",
     (True, (0, 2), (1,))),
    (lambda: Symbol((0, 2), (1,)),
     "Symbol(top=(0, 2), bottom=(1,), type_d=False)",
     (False, (0, 2), (1,))),
    (lambda: Symbol((1, 3), (2, 4), True),
     "Symbol(top=(2, 4), bottom=(1, 3), type_d=True)",
     (True, (2, 4), (1, 3))),
    (lambda: Summand(1, _O, 1, 2),
     "Summand(rho_dim=1, rho_type=<SelfDualType.ORTHOGONAL: 'O'>, a=1, b=2)",
     (1, _O, 1, 2)),
    (lambda: Summand(2, _P, 3, 1),
     "Summand(rho_dim=2, rho_type=<SelfDualType.PAIR: 'P'>, a=3, b=1)",
     (2, _P, 3, 1)),
    (lambda: AParameterShape(GroupType.B, 2, _SO5),
     "AParameterShape(target=<GroupType.B: 'B'>, rank=2, summands=("
     "Summand(rho_dim=1, rho_type=<SelfDualType.ORTHOGONAL: 'O'>, a=1, b=2), "
     "Summand(rho_dim=1, rho_type=<SelfDualType.ORTHOGONAL: 'O'>, a=1, b=2)))",
     (GroupType.B, 2, _SO5)),
    (lambda: AParameterShape(
        GroupType.C, 1, (Summand(1, _P, 1, 1), Summand(1, _O, 1, 1))),
     "AParameterShape(target=<GroupType.C: 'C'>, rank=1, summands=("
     "Summand(rho_dim=1, rho_type=<SelfDualType.ORTHOGONAL: 'O'>, a=1, b=1), "
     "Summand(rho_dim=1, rho_type=<SelfDualType.PAIR: 'P'>, a=1, b=1)))",
     (GroupType.C, 1, (Summand(1, _O, 1, 1), Summand(1, _P, 1, 1)))),
    (lambda: xi_vector(Partition((3, 3, 3)), Partition((1, 1, 1)), PairType.BB),
     "XiVector(entries=(0, 0, -1), j_plus=(), j_minus=(3,))",
     ((0, 0, -1), (), (3,))),
]
_IDS = [f"{text.partition('(')[0]}-{i}" for i, (_, text, _) in enumerate(SAMPLES)]


@pytest.mark.parametrize("make,text,key", SAMPLES, ids=_IDS)
def test_repr_equality_and_hash(make, text, key):
    value, twin = make(), make()
    assert value is not twin
    assert repr(value) == text
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(key)


def test_no_equality_across_classes():
    assert Bipartition((0, 2), (1,)) != Symbol((0, 2), (1,))
    assert Summand(1, _O, 1, 2) != (1, _O, 1, 2)
    assert Bipartition((1, 2), (1,)) == Bipartition((0, 1, 2), (0, 1))
    assert Bipartition((1, 2), (1,)) != Bipartition((1, 2), (2,))


@pytest.mark.parametrize("make,text,key", SAMPLES, ids=_IDS)
def test_fields_cannot_change(make, text, key):
    value = make()
    field = text.partition("(")[2].partition("=")[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, ())
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_fields_and_derived_values_live_in_the_instance_dict():
    assert vars(Bipartition((0, 2), (1,), True)) == {
        "alpha": (0, 2), "beta": (1,), "type_d": True
    }
    assert vars(Symbol((1, 3), (2, 4), True)) == {
        "top": (2, 4), "bottom": (1, 3), "type_d": True
    }
    assert vars(Summand(2, _P, 3, 1)) == {
        "rho_dim": 2, "rho_type": _P, "a": 3, "b": 1,
        "copies": 12, "weight": 12, "symplectic": None,
    }
    assert vars(AParameterShape(GroupType.B, 2, _SO5)) == {
        "target": GroupType.B, "rank": 2, "summands": _SO5
    }


def test_shape_constructor_runs_init_once(monkeypatch):
    """The count the chain tests rely on when they assert that a sweep
    builds no shape: one public construction, one ``__init__``."""
    built = []
    original = AParameterShape.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(AParameterShape, "__init__", counting)
    shape = AParameterShape(GroupType.B, 2, _SO5)
    assert built == [shape]
