"""Validation of ``BENCHMARK.json`` and of the run's result line.

The benchmark refuses to run against a malformed description, and
``run.py`` checks that the metrics it prints are exactly the ones the
description lists, so the two cannot drift apart.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BOUND = 0.25
MAX_BYTES = 64 * 1024


class SchemaError(ValueError):
    """The benchmark description breaks its contract."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _check_name(name: Any, seen: set, where: str) -> None:
    _require(isinstance(name, str) and NAME.fullmatch(name) is not None,
             f"{where}: bad name {name!r}")
    _require(name not in seen, f"{where}: name {name!r} used twice")
    seen.add(name)


def validate(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Raise :class:`SchemaError` unless *doc* meets the contract."""
    _require(isinstance(doc, dict) and set(doc) == TOP_KEYS,
             f"top-level keys must be exactly {sorted(TOP_KEYS)}")
    _require(len(json.dumps(doc).encode()) <= MAX_BYTES, "file too large")

    command = doc["command"]
    _require(isinstance(command, list) and 1 <= len(command) <= 32
             and all(isinstance(a, str) and 0 < len(a) <= 200
                     for a in command), "command: 1-32 strings of <= 200")
    paths = doc["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16,
             "paths: 1-16 entries")
    for path in paths:
        _require(isinstance(path, str) and PATH.fullmatch(path) is not None
                 and not path.startswith("/")
                 and ".." not in path.split("/"), f"paths: bad path {path!r}")
    seconds = doc["run_seconds"]
    _require(isinstance(seconds, int) and not isinstance(seconds, bool)
             and 1 <= seconds <= 60, "run_seconds: whole number 1-60")

    seen: set = set()
    workloads = doc["workloads"]
    _require(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
             "workloads: 2-8 entries")
    for entry in workloads:
        _require(isinstance(entry, dict) and set(entry) == {"name", "why"},
                 "workloads: keys must be name, why")
        _check_name(entry["name"], seen, "workloads")
        why = entry["why"]
        _require(isinstance(why, str) and 0 < len(why) <= 200
                 and "\n" not in why, "workloads: why is one line <= 200")

    for section, keys, limit in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 16),
            ("per_layer", {"name", "unit", "better"}, 128)):
        metrics = doc[section]
        _require(isinstance(metrics, list) and 1 <= len(metrics) <= limit,
                 f"{section}: 1-{limit} metrics")
        for metric in metrics:
            _require(isinstance(metric, dict) and set(metric) == keys,
                     f"{section}: keys must be {sorted(keys)}")
            _check_name(metric["name"], seen, section)
            _require(isinstance(metric["unit"], str)
                     and UNIT.fullmatch(metric["unit"]) is not None,
                     f"{section}: bad unit {metric['unit']!r}")
            _require(metric["better"] in ("higher", "lower"),
                     f"{section}: better must be higher or lower")
            if "bound" in keys:
                bound = metric["bound"]
                _require(isinstance(bound, (int, float))
                         and not isinstance(bound, bool)
                         and 0 < bound <= MAX_BOUND,
                         f"{section}: bound must be in (0, {MAX_BOUND}]")

    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s"
             and setup[0]["better"] == "lower",
             "end_to_end must hold setup_s in s, lower is better")
    return doc


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return validate(json.load(handle))


def dump(doc: Dict[str, Any]) -> str:
    return json.dumps(validate(doc), indent=2) + "\n"


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Any], doc: Dict[str, Any],
                section: str) -> str:
    """The run's final JSON line; its metrics must match *section*."""
    wanted = {m["name"]: m["unit"] for m in doc[section]}
    _require(set(metrics) == set(wanted),
             f"metrics {sorted(set(metrics) ^ set(wanted))} do not match "
             f"BENCHMARK.json {section}")
    _require(attempted >= 1, "attempted must be at least 1")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": wanted[name]}
                    for name, value in metrics.items()},
    })
