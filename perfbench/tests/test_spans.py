import json
import sys
import threading
import types

import pytest

from spans import Span, Tracer, self_times, summarize


def span(span_id, parent, start, end, name="x"):
    s = Span(span_id, parent, name, start, thread=0)
    s.end = end
    return s


def test_self_time_without_children_is_duration():
    assert self_times([span(1, None, 0.0, 2.5)]) == {1: 2.5}


def test_self_time_subtracts_sibling_children():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 3.0),
             span(3, 1, 5.0, 6.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_counts_only_direct_children():
    # 1 ⊃ 2 ⊃ 3: the grandchild is already inside the child's interval.
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 2.0, 8.0),
             span(3, 2, 3.0, 5.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(2.0)


def test_self_time_takes_the_union_of_overlapping_children():
    # Two worker threads under one dispatch span overlap in [3, 4].
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 4.0),
             span(3, 1, 3.0, 6.0),
             span(4, 1, 3.5, 3.8)]   # inside both
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, None, 2.0, 4.0), span(2, 1, 1.0, 3.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_summarize_groups_by_name():
    spans = [span(1, None, 0.0, 4.0, "outer"),
             span(2, 1, 0.0, 1.0, "inner"),
             span(3, 1, 2.0, 3.0, "inner")]
    spans[1].items = 5
    summary = summarize(spans)
    assert summary["inner"].count == 2
    assert summary["inner"].total_s == pytest.approx(2.0)
    assert summary["inner"].items == 5
    assert summary["outer"].self_s == pytest.approx(2.0)


def _module():
    module = types.ModuleType("fakepkg.layer")

    def work(x):
        return x * 2

    module.work = work
    user = types.ModuleType("fakepkg.user")
    user.work = work          # a by-name import of the same function

    class Box:
        def step(self, n, profile=False):
            return module.work(n)

    module.Box = Box
    return module, user


def test_wrappers_record_nested_spans_and_uninstall(monkeypatch):
    module, user = _module()
    monkeypatch.setitem(sys.modules, "fakepkg.layer", module)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    original_step = module.Box.__dict__["step"]
    tracer = Tracer("c1")
    assert tracer.patch_function("fakepkg.layer", "work", "work",
                                 prefix="fakepkg") == 2
    tracer.patch_method(
        module.Box, "step",
        lambda args, kwargs: "traced" if kwargs.get("profile") else "plain",
        items=lambda args, kwargs, result: result)
    assert module.Box().step(3, profile=True) == 6
    assert user.work(1) == 2
    tracer.uninstall()
    assert module.Box.__dict__["step"] is original_step
    assert user.work is module.work

    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"traced", "work"}
    assert by_name["traced"].items == 6
    works = [s for s in tracer.spans if s.name == "work"]
    assert [s.parent for s in works] == [by_name["traced"].id, None]


def test_worker_thread_spans_attach_to_the_main_threads_open_span():
    tracer = Tracer("c2")
    outer = tracer.open("dispatch")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("job")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    job = next(s for s in tracer.spans if s.name == "job")
    assert job.parent == outer.id


def test_jsonl_has_one_ordered_span_per_line(tmp_path):
    tracer = Tracer("camp")
    outer = tracer.open("a")
    tracer.close(tracer.open("b"))
    tracer.close(outer)
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["a", "b"]
    assert {r["campaign"] for r in rows} == {"camp"}
    assert rows[1]["parent"] == rows[0]["id"]
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] \
        <= rows[0]["end"]
