"""Unit tests for the ring-buffered structured tracer."""

import itertools
import json
import sys
import threading

import pytest

from repro.obs import Tracer


def ticking_clock():
    """Deterministic clock: 0.0, 1.0, 2.0, ..."""
    counter = itertools.count()
    return lambda: float(next(counter))


@pytest.fixture()
def tracer():
    return Tracer(capacity=8, clock=ticking_clock())


class TestSpans:
    def test_span_records_duration_and_attrs(self, tracer):
        with tracer.span("syscall:read", comm="bash") as span:
            span.set(path="/etc/passwd")
        (record,) = tracer.records
        assert record.name == "syscall:read"
        assert record.attrs == {"comm": "bash", "path": "/etc/passwd"}
        assert record.duration == 1.0  # clock ticked once between open/close
        assert record.status == "ok"

    def test_nesting_follows_with_blocks(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record.status == "error"
        assert record.error == "ValueError: boom"

    def test_exception_pops_abandoned_children(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                inner = tracer.span("inner")  # opened, never exited
                assert inner.record.name == "inner"
                raise RuntimeError("skip inner exit")
        # the open stack is clean: a new span must be a root again
        with tracer.span("after"):
            pass
        assert tracer.records[-1].parent_id is None

    def test_point_events_are_zero_duration_spans(self, tracer):
        tracer.event("netmon:block", rule="doc")
        (record,) = tracer.records
        assert record.duration == 0.0
        assert record.attrs == {"rule": "doc"}

    def test_span_events_attach_to_the_open_span(self, tracer):
        with tracer.span("op") as span:
            span.event("milestone", step=1)
        (record,) = tracer.records
        assert [(name, attrs) for _, name, attrs in record.events] == \
            [("milestone", {"step": 1})]


class TestRingBuffer:
    def test_oldest_spans_are_evicted(self):
        tracer = Tracer(capacity=3, clock=ticking_clock())
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.records] == ["s2", "s3", "s4"]
        assert tracer.spans_started == 5
        assert tracer.spans_dropped == 2

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as span:
            span.set(x=1)
            span.event("e")
        tracer.event("also-ignored")
        assert len(tracer) == 0
        assert tracer.spans_started == 0


class TestExport:
    def test_jsonl_is_one_object_per_line(self, tracer):
        with tracer.span("a"):
            pass
        tracer.event("b")
        lines = tracer.to_jsonl().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_format_tree_indents_children(self, tracer):
        with tracer.span("syscall:read", comm="bash"):
            with tracer.span("itfs:check"):
                pass
        tree = tracer.format_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("syscall:read")
        assert lines[1].startswith("  itfs:check")
        assert "comm=bash" in lines[0]

    def test_format_tree_orphans_render_as_roots(self, tracer):
        # an event recorded under a *still-open* span has a parent_id with
        # no finished record yet; the tree must render it as a root
        with tracer.span("still-open"):
            tracer.event("orphan-event")
            tree = tracer.format_tree()
        assert tree.startswith("orphan-event")
        assert Tracer().format_tree() == "(no spans recorded)"

    def test_filter_by_prefix_and_status(self, tracer):
        with tracer.span("syscall:read"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("syscall:write"):
                raise ValueError("denied")
        with tracer.span("broker:exec"):
            pass
        assert len(tracer.filter("syscall:")) == 2
        assert [r.name for r in tracer.filter(status="error")] == \
            ["syscall:write"]

    def test_reset_clears_everything(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.spans_started == 0


class TestThreads:
    def test_parentage_is_per_thread(self):
        """Interleave two threads' spans step by step: each thread's spans
        nest under its own open spans only, and closing one thread's span
        pops nothing off the other's stack."""
        tracer = Tracer(capacity=16)
        a1_open, b1_open, a2_open, b1_closed = (threading.Event()
                                                for _ in range(4))
        errors = []

        def step(event):
            if not event.wait(timeout=10):
                raise TimeoutError("the other thread never reached its step")

        def thread_a():
            try:
                with tracer.span("a1"):
                    a1_open.set()
                    step(b1_open)
                    with tracer.span("a2"):
                        a2_open.set()
                        step(b1_closed)
                        with tracer.span("a3"):
                            pass
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        def thread_b():
            try:
                step(a1_open)
                with tracer.span("b1"):
                    b1_open.set()
                    step(a2_open)
                b1_closed.set()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        spans = {r.name: r for r in tracer.records}
        assert spans["a1"].parent_id is None
        assert spans["b1"].parent_id is None
        assert spans["a2"].parent_id == spans["a1"].span_id
        assert spans["a3"].parent_id == spans["a2"].span_id

    def test_threads_never_parent_each_other_under_preemption(self):
        tracer = Tracer(capacity=4096)
        errors = []

        def worker(tag):
            try:
                for _ in range(200):
                    with tracer.span(f"{tag}:outer"):
                        with tracer.span(f"{tag}:inner"):
                            pass
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        records = tracer.records
        assert len(records) == 4 * 200 * 2
        by_id = {r.span_id: r for r in records}
        for record in records:
            tag, kind = record.name.split(":")
            if kind == "outer":
                assert record.parent_id is None, record
            else:
                assert by_id[record.parent_id].name == f"{tag}:outer", record
