"""The benchmark in ``perfbench/`` traces the library by wrapping functions at
the names its callers look up.  Installing its tracer here makes a renamed
or dropped name fail the test suite instead of the benchmark run."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans
    import loopcmc.frames as frames

    original = frames.integrate_frame
    restore = spans.install(spans.Tracer())
    try:
        assert frames.integrate_frame is not original
    finally:
        restore()
        sys.modules.pop("spans", None)
        sys.modules.pop("stats", None)
    assert frames.integrate_frame is original
