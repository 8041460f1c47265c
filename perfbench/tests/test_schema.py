import copy
import json
import os

import pytest

import layers
import schema
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


@pytest.fixture
def doc():
    return schema.load(BENCHMARK)


def test_committed_file_round_trips(doc):
    text = schema.dump(doc)
    assert json.loads(text) == doc
    assert schema.validate(json.loads(text)) == doc


def test_committed_file_matches_the_code(doc):
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(m["name"] in layers.UNITS and m["unit"] == layers.UNITS[m["name"]]
               for m in doc["per_layer"])


@pytest.mark.parametrize("name", [
    "campaign_s", "restore.p50_us", "df-ia-5k", "9lives", "a" * 64])
def test_name_grammar_accepts(name):
    assert schema.NAME.fullmatch(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "-lead", "has space", "slash/no", "a" * 65,
    "ünï", "semi;colon"])
def test_name_grammar_rejects(name):
    assert not schema.NAME.fullmatch(name)


def _broken(doc, mutate):
    bad = copy.deepcopy(doc)
    mutate(bad)
    with pytest.raises(schema.SchemaError):
        schema.validate(bad)


def test_rejects_contract_violations(doc):
    _broken(doc, lambda d: d.update(extra=1))
    _broken(doc, lambda d: d["end_to_end"][0].update(bound=0.3))
    _broken(doc, lambda d: d["end_to_end"][0].update(better="faster"))
    _broken(doc, lambda d: d["per_layer"].append(dict(d["per_layer"][0])))
    _broken(doc, lambda d: d["workloads"][0].update(why="two\nlines"))
    _broken(doc, lambda d: d.update(run_seconds=61))
    _broken(doc, lambda d: d.update(paths=["../elsewhere"]))
    _broken(doc, lambda d: d.update(paths=["/abs"]))
    _broken(doc, lambda d: d.update(
        end_to_end=[m for m in d["end_to_end"] if m["name"] != "setup_s"]))
    _broken(doc, lambda d: d["per_layer"][0].update(unit="much too long unit"))


def test_result_line_must_match_the_listed_metrics(doc):
    wanted = {m["name"]: 1.5 for m in doc["end_to_end"]}
    line = json.loads(schema.result_line(True, 10, 0, wanted, doc,
                                         "end_to_end"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    wanted.pop("setup_s")
    with pytest.raises(schema.SchemaError):
        schema.result_line(True, 10, 0, wanted, doc, "end_to_end")
