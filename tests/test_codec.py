import json
import re
import typing
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import pytest

from tscausal.codec import DecodeError, from_doc, to_doc


class Color(str, Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Leaf:
    color: Color
    size: int = 1
    weight: float = 0.5

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    @classmethod
    def from_name(cls, name: str) -> "Leaf":
        if name != "small":
            raise ValueError(f"unknown leaf {name!r}")
        return cls(Color.RED)


@dataclass(frozen=True)
class Tree:
    name: str
    leaves: tuple[Leaf, ...] = ()
    pairs: tuple[tuple[int, float], ...] = ()
    best: Leaf | None = None
    scores: tuple[float | None, float | None] = (None, None)
    flag: bool = False


@dataclass(frozen=True)
class Holder:
    values: np.ndarray = field(repr=False)
    label: str | None = None


TREE = Tree(
    name="t",
    leaves=(Leaf(Color.BLUE, 3, 0.25), Leaf(Color.RED)),
    pairs=((0, 1.0), (7, -0.5)),
    best=Leaf(Color.RED, 2),
    scores=(0.75, None),
    flag=True,
)


def test_to_doc_encodes_in_field_order_with_plain_json_values():
    doc = to_doc(TREE)
    assert list(doc) == ["name", "leaves", "pairs", "best", "scores", "flag"]
    assert doc["leaves"][0] == {"color": "blue", "size": 3, "weight": 0.25}
    assert doc["pairs"] == [[0, 1.0], [7, -0.5]]
    assert doc["scores"] == [0.75, None]
    assert to_doc(Holder(np.array([1.5, -2.0]))) == {"values": [1.5, -2.0], "label": None}


def test_round_trip_through_json_text():
    assert from_doc(Tree, json.loads(json.dumps(to_doc(TREE)))) == TREE
    held = from_doc(Holder, {"values": [1, 2.5]})
    assert held.values.dtype == np.float64
    np.testing.assert_array_equal(held.values, [1.0, 2.5])


def test_defaults_fill_missing_optional_keys():
    assert from_doc(Tree, {"name": "bare"}) == Tree(name="bare")


def test_named_instance_stands_in_for_an_object():
    assert from_doc(Tree, {"name": "t", "best": "small"}).best == Leaf(Color.RED)
    with pytest.raises(DecodeError, match=re.escape("key 'best': unknown leaf 'big'")):
        from_doc(Tree, {"name": "t", "best": "big"})


@pytest.mark.parametrize("doc, path, reason", [
    ({"name": "t", "flag": "false"}, "flag", "expected a boolean, got a string"),
    ({"name": "t", "flag": 1}, "flag", "expected a boolean, got an integer"),
    ({"name": 5}, "name", "expected a string, got an integer"),
    ({"name": "t", "leaves": [{"color": "red", "size": 2.0}]}, "leaves[0].size",
     "expected an integer, got a number"),
    ({"name": "t", "leaves": [{"color": "red", "size": True}]}, "leaves[0].size",
     "expected an integer, got a boolean"),
    ({"name": "t", "leaves": [{"color": "red", "weight": "0.5"}]}, "leaves[0].weight",
     "expected a number, got a string"),
    ({"name": "t", "leaves": [{"color": "green"}]}, "leaves[0].color",
     "expected one of ['red', 'blue'], got 'green'"),
    ({"name": "t", "leaves": {"color": "red"}}, "leaves", "expected an array, got an object"),
    ({"name": "t", "pairs": [[1, 0.5, 2]]}, "pairs[0]", "expected 2 items, got 3"),
    ({"name": "t", "pairs": [[1.0, 0.5]]}, "pairs[0][0]", "expected an integer, got a number"),
    ({"name": "t", "best": 3}, "best", "expected an object, got an integer"),
    ({"name": "t", "scores": [None, "x"]}, "scores[1]", "expected a number, got a string"),
    ({"leaves": []}, "name", "required key is missing"),
    ({"name": "t", "best": {"color": "red", "size": 0}}, "best", "size must be >= 1, got 0"),
])
def test_rejects_misfits_naming_the_key_path(doc, path, reason):
    with pytest.raises(DecodeError) as exc:
        from_doc(Tree, doc)
    assert (exc.value.path, exc.value.reason) == (path, reason)
    assert str(exc.value) == f"key {path!r}: {reason}"


def test_rejects_unknown_keys_at_any_depth():
    with pytest.raises(DecodeError, match=re.escape("unknown key 'best.colour'")):
        from_doc(Tree, {"name": "t", "best": {"colour": "red"}})
    with pytest.raises(DecodeError) as exc:
        from_doc(Tree, {"nme": "t"}, "config")
    assert exc.value.render("config key") == "unknown config key 'config.nme'"


def test_array_field_accepts_only_numbers():
    with pytest.raises(DecodeError, match=re.escape("'values[1]': expected a number, got a string")):
        from_doc(Holder, {"values": [1.0, "2"]})
    with pytest.raises(DecodeError, match=re.escape("'values[0]': expected a number, got a boolean")):
        from_doc(Holder, {"values": [True]})
    with pytest.raises(DecodeError, match=re.escape("'values': expected an array, got a number")):
        from_doc(Holder, {"values": 1.0})


@pytest.mark.parametrize("text, cls, path", [
    ('{"color": "red", "weight": NaN}', Leaf, "weight"),
    ('{"name": "t", "scores": [Infinity, null]}', Tree, "scores[0]"),
    ('{"values": [1.0, -Infinity]}', Holder, "values[1]"),
])
def test_rejects_non_finite_numbers(text, cls, path):
    # json.loads accepts these tokens, so the codec must refuse them itself
    with pytest.raises(DecodeError) as exc:
        from_doc(cls, json.loads(text))
    assert (exc.value.path, exc.value.reason) == (path, "expected a finite number")


def test_root_post_init_errors_pass_through_unwrapped():
    with pytest.raises(ValueError, match="^size must be >= 1, got 0$"):
        from_doc(Leaf, {"color": "red", "size": 0})


def test_field_types_are_resolved_once_per_class(monkeypatch):
    @dataclass(frozen=True)
    class Fresh:
        n: int = 0

    calls = []
    real = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: calls.append(cls) or real(cls))
    for n in range(3):
        assert from_doc(Fresh, {"n": n}) == Fresh(n)
    assert calls == [Fresh]
