"""The benchmark's own tests: inputs, percentiles, output check, open loop.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the root
of the repository.
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import check
import inputs
import load
import run
import stats
import tracing
from workloads import WORKLOADS, operations

SOURCES = {name: f"# source of {name}\n" for name in inputs.TARGETS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    workload = WORKLOADS[name]
    first = operations(workload, 7, 40, False, SOURCES)
    assert first == operations(workload, 7, 40, False, SOURCES)
    assert first != operations(workload, 8, 40, False, SOURCES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_inputs_are_disjoint_from_measured_ones(name):
    workload = WORKLOADS[name]

    def texts(ops):
        found = set()
        for op in ops:
            for body in op.bodies:
                found.update(body.get("scenarios") or body.get("descriptions") or [body["description"]])
        return found

    measured = texts(operations(workload, 3, 200, False, SOURCES))
    warmup = texts(operations(workload, 3, 50, True, SOURCES))
    assert measured.isdisjoint(warmup)


def test_slow_families_keep_their_share():
    # Every cycle of the schedule meets each phrasing once, hangs included.
    source = inputs.DescriptionSource(random.Random(1))
    families = [source.draw().family for _ in range(2 * len(inputs.PHRASINGS))]
    share = {family: families.count(family) / len(families) for family, _ in inputs.PHRASINGS}
    for family, _ in inputs.PHRASINGS:
        natural = sum(1 for f, _ in inputs.PHRASINGS if f == family) / len(inputs.PHRASINGS)
        assert share[family] == natural


def test_the_seed_picks_wording_not_which_faults_a_campaign_meets():
    # Fixed phrasing and function orders put the same hangs (and so the same
    # sandbox timeouts) into every run of a given length.
    def draws(seed):
        source = inputs.DescriptionSource(random.Random(seed))
        return [source.draw(target) for target in inputs.TARGETS * 6]

    first, second = draws(1), draws(2)
    assert [(d.target, d.function, d.family) for d in first] == [(d.target, d.function, d.family) for d in second]
    assert [d.text for d in first] != [d.text for d in second]


def test_generate_open_repeats_a_quarter_and_only_earlier_descriptions():
    ops = inputs.generate_open(random.Random(5), 2000)
    seen = set()
    for op in ops:
        text = op.bodies[0]["description"]
        assert (text in seen) == op.repeat
        seen.add(text)
    assert sum(op.repeat for op in ops) == len(ops) // inputs.REPEAT_EVERY


@pytest.mark.parametrize("name", ["campaign-closed", "feedback-closed"])
def test_closed_loop_windows_cut_one_fixed_stream(name):
    workload = WORKLOADS[name]
    plan = run.Plan(workload, 4, 10.0, 3)
    again = run.Plan(workload, 4, 10.0, 3)
    sizes = [len(part.operations) for part in plan.parts]
    assert sum(sizes) == round(workload.rate * 10.0) and max(sizes) - min(sizes) <= 1
    assert [part.sent for part in plan.parts] == [part.sent for part in again.parts]
    # Later windows continue the phrasing schedule instead of restarting it.
    stream = operations(workload, 4, sum(sizes), False, plan.sources)
    assert [op for part in plan.parts for op in part.operations] == stream


def test_closed_loop_sends_every_operation(stub_server):
    ops = [inputs.Operation(("/v1/generate",), ({"description": "d"},)) for _ in range(7)]
    _start, records = load.run_closed(stub_server[0], stub_server[1], ops, clients=2)
    assert sorted(r.index for r in records) == list(range(7))
    assert all(r.ok for r in records)


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.supported(100, 0.9)
    assert not stats.supported(99, 0.9)
    assert stats.supported(20, 0.5)
    assert not stats.supported(19, 0.5)
    assert stats.highest_supported(19) is None
    assert stats.highest_supported(20) == 0.5
    assert stats.highest_supported(199) == 0.9
    assert stats.highest_supported(200) == 0.95
    assert stats.highest_supported(10_000) == 0.999


def test_percentile_interpolates_between_samples():
    values = list(range(1, 11))
    assert stats.percentile(values, 0.5) == pytest.approx(5.5)
    assert stats.percentile(values, 0.9) == pytest.approx(9.1)
    assert stats.percentile([3.0], 0.9) == 3.0


def _timed(latencies_ms, start=0.0):
    """Records sent back to back, each taking its latency."""
    records, now = [], start
    for index, latency in enumerate(latencies_ms):
        record = load.Record(index, due=now, sent=now, statuses=[200])
        now += latency / 1000.0
        record.done = now
        records.append(record)
    return records


def test_a_stalled_slice_does_not_move_the_sliced_figures():
    steady = [10.0] * 30
    stalled = [10.0] * 20 + [40.0] * 10
    windows = [(0.0, _timed(steady)), (0.0, _timed(stalled))]
    assert stats.pooled_metrics(windows, 50.0)["latency_p50_ms"] == pytest.approx(10.0)
    assert stats.sliced_p50([(0.0, _timed(stalled))] * 2 + [(0.0, _timed(steady))], 3) == pytest.approx(10.0)
    assert stats.sliced_throughput([(0.0, _timed(stalled)), (0.0, _timed(steady))], 3) == pytest.approx(100.0)
    # A stall across most slices does move them.
    assert stats.sliced_p50([(0.0, _timed([40.0] * 30))], 3) == pytest.approx(40.0)


def _generate_reply(description: str) -> tuple[list[str], dict]:
    """An in-process reference reply and the same reply as a wire envelope."""
    from repro import PipelineConfig
    from repro.api import FaultInjectionEngine, GenerateRequest

    with FaultInjectionEngine(PipelineConfig()) as engine:
        response = engine.run(GenerateRequest(description=description, target="bank"))
    return [check.canonical(check.reference_view(response))], json.loads(json.dumps(response.to_dict()))


def test_output_check_catches_a_one_byte_payload_change():
    op = inputs.Operation(("/v1/generate",), ({"description": "x", "target": "bank"},))
    reference, envelope = _generate_reply("Make deposit forget to return its result")
    record = load.Record(0, due=0.0, statuses=[200], envelopes=[envelope])
    assert check.compare([op], [record], [reference]) == []

    code = envelope["payload"]["fault"]["code"]
    changed = json.loads(json.dumps(envelope))
    changed["payload"]["fault"]["code"] = code[:-2] + chr(ord(code[-2]) ^ 1) + code[-1:]
    bad = load.Record(0, due=0.0, statuses=[200], envelopes=[changed])
    mismatches = check.compare([op], [bad], [reference])
    assert len(mismatches) == 1 and "fault.code" in mismatches[0]


def test_output_check_ignores_only_measured_fields():
    reference, envelope = _generate_reply("Add a large delay to the deposit function")
    view = json.loads(reference[0])
    envelope["payload"]["batch_size"] = 7
    assert check.deterministic("generate", envelope["payload"]) == view
    envelope["payload"]["logprob"] += 1e-6
    assert check.deterministic("generate", envelope["payload"]) != view


class _Ok(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - stdlib signature
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"status": "ok", "kind": "generate", "payload": {}}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Ok)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _open_loop(address, count=20, spacing=0.01):
    ops = [inputs.Operation(("/v1/generate",), ({"description": "d"},)) for _ in range(count)]
    offsets = [spacing * index for index in range(count)]
    return load.run_open(address[0], address[1], ops, offsets, clients=2)


def test_open_loop_records_lateness_and_keeps_schedule(stub_server):
    start, records = _open_loop(stub_server)
    assert all(r.ok for r in records)
    assert [r.due - start for r in records] == pytest.approx([0.01 * i for i in range(len(records))])
    assert all(r.lateness >= 0.0 for r in records)
    assert stats.lateness_ok(records)


def test_a_late_generator_is_rejected(stub_server, monkeypatch):
    real_sleep = time.sleep
    monkeypatch.setattr(load.time, "sleep", lambda seconds: real_sleep(seconds + 0.02))
    start, records = _open_loop(stub_server, count=10, spacing=0.05)
    assert min(r.lateness for r in records) >= 0.02
    assert not stats.lateness_ok(records)
    window = run.Window(None, start, records, None, {}, {}, 0.0, [])
    assert run.fell_behind(WORKLOADS["generate-open"], [window])


def test_recorder_self_time_excludes_wrapped_children():
    recorder = tracing.Recorder()
    child = recorder.wrap(lambda: time.sleep(0.02), "child")

    def parent_body():
        time.sleep(0.01)
        child()

    recorder.wrap(parent_body, "parent")()
    spans = {layer: (end - begin, own) for layer, begin, end, own, _count in recorder.spans}
    assert spans["child"][1] == pytest.approx(spans["child"][0])
    assert spans["parent"][1] == pytest.approx(spans["parent"][0] - spans["child"][0])
    totals = tracing.layer_totals(recorder.spans, 0.0, time.monotonic())
    assert set(totals) == {"parent", "child"}
