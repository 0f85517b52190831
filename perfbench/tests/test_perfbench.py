"""Self-tests for the benchmark's own arithmetic: tail selection, span self
time, and the correctness gate.  Run with ``python -m pytest perfbench/tests``."""

import json
import os
import struct
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# ---------------------------------------------------------------------------
# Tail percentile and its sample count

def test_tail_needs_ten_samples_beyond():
    assert stats.tail([float(i) for i in range(99)]) is None
    level, value, n = stats.tail([float(i) for i in range(1, 101)])
    assert (level, value, n) == (0.9, 90.0, 100)


def test_tail_picks_highest_level_with_enough_samples():
    level, value, n = stats.tail([float(i) for i in range(1, 1001)])
    assert (level, value, n) == (0.99, 990.0, 1000)
    level, _, _ = stats.tail([float(i) for i in range(1, 1000)])
    assert level == 0.9                      # 0.99 leaves only 9 beyond


def test_percentile_nearest_rank_and_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 1.0) == 5.0
    assert stats.percentile(values, 0.2) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


# ---------------------------------------------------------------------------
# Spans: self time with nested and recursive spans

def _span(name, parent, start, end):
    s = spans.Span(name, "op", parent, start)
    s.end = end
    return s


def test_self_time_nested_and_recursive():
    # root contains an outer surface call, which recurses once; the inner
    # call contains one factorization
    tree = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("frames.surface_from_potential", 0, 1.0, 9.0),
        _span("frames.surface_from_potential", 1, 2.0, 8.0),
        _span("factor.iwasawa_batch", 2, 3.0, 6.0),
        _span("factor.iwasawa_batch", 2, 6.5, 7.5),
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 2.0, 3.0, 1.0]
    # the recursive call is counted once in inclusive time
    assert spans.inclusive(tree, "frames.surface_from_potential") == 8.0
    assert spans.inclusive(tree, "factor.iwasawa_batch") == 4.0
    split = spans.op_split(tree)["op"]
    assert split["frames.assemble.self_s"] == 4.0
    assert split["frames.surface_from_potential"] == 8.0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_links_recursive_calls_through_wrapped_name(monkeypatch):
    monkeypatch.setattr(spans, "perf_counter", _Clock())
    tracer = spans.Tracer()
    table = {}

    def surface(depth):
        # looks its own name up at call time, like the library's recursion
        return table["surface"](depth - 1) + 1 if depth else 0

    table["surface"] = tracer.wrap("surface", surface,
                                   count=lambda a, k, r: {"depth": a[0]})
    tracer.op = "op1"
    assert tracer.call("root", table["surface"], 2) == 2
    names = [(s.name, s.parent, s.counts) for s in tracer.spans]
    assert names == [("root", -1, None), ("surface", 0, {"depth": 2}),
                     ("surface", 1, {"depth": 1}), ("surface", 2, {"depth": 0})]
    assert all(s.op == "op1" for s in tracer.spans)
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(tracer.spans[0].dur)
    assert spans.inclusive(tracer.spans, "surface") == tracer.spans[1].dur


def test_layer_metrics_cover_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    extras = {"trace.wall_s", "trace.overhead_s", "meshio.golden_max_delta",
              "meshio.golden_files", "h_rel_err.max"}
    assert per_layer == set(spans.layer_metrics([])) | extras
    fake = {"passes": [{"wall_s": 2.0, "nodes": 10,
                        "ops": [{"s": 1.0}, {"s": 1.0}]}],
            "peak_rss_mb": 100.0}
    assert {m["name"] for m in bench["end_to_end"]} == \
        set(run.end_to_end(fake, [0.5]))


# ---------------------------------------------------------------------------
# The correctness gate

def _write_obj(path, verts):
    with open(path, "w") as fh:
        fh.write(f"# vertices {len(verts)} faces 0\n")
        for v in verts:
            fh.write("v %.12e %.12e %.12e\n" % v)


def _gallery_report(**item_overrides):
    item = {"mesh": "m_h1.obj", "h": 1.0, "max_unitary_residual": 1e-15,
            "curvature": {"valid_nodes": 9, "h_num_max_err": 1e-4,
                          "kappa_scale_median": 1.0,
                          "conformality_dot": 1e-12,
                          "conformality_ratio": 1e-12}}
    item.update(item_overrides)
    return {"command": "gallery", "items": [item]}


def _gallery_dir(tmp_path, report_text, verts=((0.0, 0.0, 0.0),)):
    (tmp_path / "report.json").write_text(report_text)
    _write_obj(tmp_path / "m_h1.obj", list(verts))
    return str(tmp_path)


def test_gate_passes_good_gallery_report(tmp_path):
    d = _gallery_dir(tmp_path, json.dumps(_gallery_report()))
    v = gate.check_op("gallery", d, 0)
    assert v.ok, v.problems
    assert v.nodes == 1 and v.h_rel_err == [1e-4]


def test_gate_rejects_nan_in_report(tmp_path):
    text = json.dumps(_gallery_report(max_unitary_residual=float("nan")))
    assert "NaN" in text
    with pytest.raises(gate.GateError):
        gate.strict_json(text)
    v = gate.check_op("gallery", _gallery_dir(tmp_path, text), 0)
    assert not v.ok and "non-finite" in v.problems[0]


def test_gate_rejects_tolerance_misses(tmp_path):
    bad_unit = _gallery_report(max_unitary_residual=2e-10)
    v = gate.check_op("gallery", _gallery_dir(tmp_path, json.dumps(bad_unit)), 0)
    assert len(v.problems) == 1 and "unitary" in v.problems[0]
    bad_h = _gallery_report()
    bad_h["items"][0]["curvature"]["h_num_max_err"] = 0.011
    v = gate.check_op("gallery", _gallery_dir(tmp_path, json.dumps(bad_h)), 0)
    assert len(v.problems) == 1 and "H error" in v.problems[0]


def test_gate_rejects_nonzero_exit_and_nonfinite_vertex(tmp_path):
    d = _gallery_dir(tmp_path, json.dumps(_gallery_report()),
                     verts=[(0.0, float("nan"), 0.0)])
    assert not gate.check_op("gallery", d, 1).ok
    v = gate.check_op("gallery", d, 0)
    assert v.problems == ["non-finite vertex in m_h1.obj"]


def test_gate_minimal_vertex_count(tmp_path):
    report = {"config": {"grid": [2]},
              "items": [{"mesh": "m_h0.obj", "h": 0.0,
                         "masked_fraction": 0.25}]}
    (tmp_path / "report.json").write_text(json.dumps(report))
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    _write_obj(tmp_path / "m_h0.obj", verts)
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
              "end_header\n").encode()
    body = b"".join(struct.pack("<6d", *v, 0.0, 0.0, 1.0) for v in verts)
    (tmp_path / "m_h0.ply").write_bytes(header + body)
    assert gate.check_op("minimal", str(tmp_path), 0).ok
    report["items"][0]["masked_fraction"] = 0.0
    (tmp_path / "report.json").write_text(json.dumps(report))
    v = gate.check_op("minimal", str(tmp_path), 0)
    assert len(v.problems) == 2            # OBJ and PLY both short


def test_gate_dressing_checks(tmp_path):
    report = {"h_independent": {"verdict": True},
              "wu_recursion": {"h=1": {"max_higher_coefficient": 1e-12}},
              "cross_check": {"max_deviation": 1e-6}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    for name in ("dressed.obj", "direct.obj"):
        _write_obj(tmp_path / name, [(0.0, 0.0, 0.0)])
    v = gate.check_op("dressing", str(tmp_path), 0)
    assert v.ok and v.nodes == 2
    report["cross_check"]["max_deviation"] = 2e-4
    report["h_independent"]["verdict"] = False
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert len(gate.check_op("dressing", str(tmp_path), 0).problems) == 2
