"""The JSON loader and writer: annotation-checked dataclasses, strict output, and a fuzz
of every loader built on them."""

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources

import pytest

from hypersense import classify, wavegen
from hypersense.errors import ParameterError, UnsupportedMethodError
from hypersense.pipeline import PipelineConfig
from hypersense.schema import dump_json, from_json, load_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@dataclass
class Inner:
    rate: float
    count: int = 1


@dataclass
class Outer:
    name: str
    span: tuple[float, float]
    inners: list[Inner] = field(default_factory=list)
    extra: Inner | None = None
    flag: bool = False
    meta: dict | None = None


class TestFromJson:
    def test_builds_nested_dataclasses(self):
        out = from_json(Outer, {"name": "a", "span": [1, 2.5], "inners": [{"rate": 3}],
                                "extra": {"rate": 1.0, "count": 4}, "meta": {"k": [1]}}, "doc")
        assert out == Outer("a", (1.0, 2.5), [Inner(3.0)], Inner(1.0, 4), False, {"k": [1]})
        # an int given for a float becomes a float
        assert type(out.span[0]) is float and type(out.inners[0].rate) is float

    @pytest.mark.parametrize("data, message", [
        ([1], "doc: the top level must be an object, got [1]"),
        ({"span": [1, 2]}, "doc: the top level is missing field 'name'"),
        ({"name": "a", "span": [1, 2], "colour": 1}, "doc: the top level has unknown field 'colour'"),
        ({"name": 5, "span": [1, 2]}, "doc: name must be a string, got 5"),
        ({"name": "a", "span": [1]}, "doc: span must be a list of 2, got [1]"),
        ({"name": "a", "span": [1, "2"]}, "doc: span[1] must be a finite number, got '2'"),
        ({"name": "a", "span": [1, float("nan")]}, "doc: span[1] must be a finite number, got nan"),
        ({"name": "a", "span": [1, float("inf")]}, "doc: span[1] must be a finite number"),
        ({"name": "a", "span": [1, True]}, "doc: span[1] must be a finite number, got True"),
        ({"name": "a", "span": [1, 10**400]}, "doc: span[1] must be a finite number"),
        ({"name": "a", "span": [1, 2], "inners": [{"rate": 1, "count": 2.0}]},
         "doc: inners[0].count must be an integer, got 2.0"),
        ({"name": "a", "span": [1, 2], "inners": [{"rate": 1, "count": True}]},
         "doc: inners[0].count must be an integer, got True"),
        ({"name": "a", "span": [1, 2], "inners": {"rate": 1}}, "doc: inners must be a list"),
        ({"name": "a", "span": [1, 2], "extra": {"count": 1}},
         "doc: extra is missing field 'rate'"),
        ({"name": "a", "span": [1, 2], "flag": 1}, "doc: flag must be a bool, got 1"),
        ({"name": "a", "span": [1, 2], "meta": [1]}, "doc: meta must be an object, got [1]"),
        ({"name": "a", "span": [1, 2], "meta": {"k": [float("inf")]}},
         "doc: meta must hold only finite numbers, got {'k': [inf]}"),
    ])
    def test_rejects_with_the_path(self, data, message):
        with pytest.raises(ParameterError) as info:
            from_json(Outer, data, "doc")
        assert str(info.value).startswith(message)

    def test_ignore_unknown_at_every_level(self):
        data = {"name": "a", "span": [1, 2], "colour": 1, "inners": [{"rate": 1, "shade": 2}]}
        assert from_json(Outer, data, "doc", ignore_unknown=True).inners == [Inner(1.0)]


class TestLoadJson:
    def test_parse_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(ParameterError, match=f"{path}:3:"):
            load_json(path, "doc")

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"1" * 5000, b"[" * 100000],
                             ids=["missing", "not_utf8", "integer_too_long", "nested_too_deep"])
    def test_unreadable_is_a_parameter_error(self, tmp_path, content):
        path = tmp_path / "x.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParameterError, match=f"doc {path}"):
            load_json(path, "doc")


class TestDumpJson:
    def test_indented_with_a_trailing_newline(self):
        assert dump_json({"a": [1, 2.5]}) == '{\n  "a": [\n    1,\n    2.5\n  ]\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_a_parameter_error(self, value):
        with pytest.raises(ParameterError, match="cannot write JSON"):
            dump_json({"nested": [1.0, value]})


# -- fuzz of the three loaders ------------------------------------------------

def _shipped(name):
    return json.loads((resources.files("hypersense.data") / name).read_text())


LOADERS = {
    "config": (PipelineConfig.from_dict, [PipelineConfig().to_dict()]),
    "scenario": (wavegen.scenario_from_dict,
                 [_shipped("ism_burst_scenario.json"), _shipped("pcs_multicarrier_scenario.json")]),
    "plan": (classify.plan_from_dict, [_shipped("ism24_plan.json"), _shipped("pcs1900_plan.json")]),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _leaf_paths(doc, path=()):
    """Paths to the leaves, skipping list items past the third (the ISM bursts)."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else list(enumerate(doc))[:3]
        return [p for key, value in items for p in _leaf_paths(value, path + (key,))]
    return [path]


@st.composite
def one_leaf_replaced(draw, documents):
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    path = draw(st.sampled_from(_leaf_paths(doc)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(json_values)
    return doc


def _load_or_reject(loader, data):
    """The loader returns a valid object of finite numbers or raises a documented error."""
    try:
        obj = loader(data)
    except (ParameterError, UnsupportedMethodError):
        return
    obj.validate()
    json.dumps(dataclasses.asdict(obj), allow_nan=False)


FUZZ = hypothesis.settings(max_examples=200, deadline=None, database=None)


@pytest.mark.parametrize("name", LOADERS)
def test_shipped_documents_load(name):
    loader, documents = LOADERS[name]
    for doc in documents:
        loader(doc).validate()


@pytest.mark.parametrize("name", LOADERS)
def test_fuzz_any_json_value(name):
    loader, _ = LOADERS[name]

    @FUZZ
    @hypothesis.given(json_values)
    def check(data):
        _load_or_reject(loader, data)

    check()


@pytest.mark.parametrize("name", LOADERS)
def test_fuzz_one_leaf_of_a_shipped_document(name):
    loader, documents = LOADERS[name]

    @FUZZ
    @hypothesis.given(one_leaf_replaced(documents))
    def check(data):
        _load_or_reject(loader, data)

    check()
