"""The benchmark in ``perfbench/`` traces the library by wrapping functions at
the names its callers look up, and counts from their return values.
Installing its tracer here makes a renamed or dropped name, or a dropped
output key, fail the test suite instead of the benchmark run."""

import contextlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def installed_tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        yield spans, tracer
    finally:
        restore()
        sys.modules.pop("spans", None)
        sys.modules.pop("stats", None)


def test_traced_names_resolve(monkeypatch):
    import loopcmc.frames as frames

    original = frames.integrate_frame
    with installed_tracer(monkeypatch):
        assert frames.integrate_frame is not original
    assert frames.integrate_frame is original


def _traced_sphere(monkeypatch, Q):
    # one traced 9 x 9 mesh of a = 1 and the given Q at h = 1: the mesh,
    # the spans and the per-layer metrics
    import loopcmc.frames as frames
    from loopcmc.grid import DomainGrid

    pot = frames.PotentialSpec.normalized("1", Q, 1.0)
    with installed_tracer(monkeypatch) as (spans, tracer):
        mesh = frames.surface_from_potential(pot, DomainGrid.square(0.5, 9))
        metrics = spans.layer_metrics(tracer.spans)
    return mesh, tracer.spans, metrics


def _factored_nodes(monkeypatch, Q):
    # the counter of every factorization call reads the output keys of
    # iwasawa_batch that the per-layer metrics use; the traced factored
    # nodes, and the mesh
    mesh, traced, metrics = _traced_sphere(monkeypatch, Q)
    calls = [s for s in traced if s.name == "factor.iwasawa_batch"]
    assert calls
    for s in calls:
        assert {"good", "max_residual", "max_unitary",
                "max_condition"} <= set(s.counts)
    assert metrics["frames.integrate_frame.nodes"][0] == 81
    assert metrics["factor.ok_ratio"][0] == 1.0
    assert metrics["factor.max_unitary_residual"][0] \
        == mesh.meta["max_unitary_residual"]
    assert metrics["factor.max_residual"][0] \
        == mesh.meta["max_iwasawa_residual"]
    assert metrics["factor.max_condition"][0] == mesh.meta["max_condition"]
    assert mesh.mask.all()
    return metrics["factor.iwasawa_batch.nodes"][0], mesh


# Q with neither reflection of the grid through the basepoint: Q(zbar) is
# not a constant phase times conj Q(z), nor is Q(-zbar)
ASYMMETRIC_Q = "0.5*i + 0.25*z + 0.125*z^2"


def _axes(mesh):
    return [r["axis"] for r in mesh.meta.get("mirrored", [])]


def test_iwasawa_counter_reads_the_factor_output(monkeypatch):
    # sphere data, symmetric about the basepoint row and column: the
    # fundamental domain, rows and columns j0 - 1 = 3 to 8, is factored,
    # 6 x 6 nodes
    nodes, mesh = _factored_nodes(monkeypatch, "0")
    assert _axes(mesh) == ["row", "col"]
    assert nodes == mesh.meta["factored_nodes"] == 6 * 6


def test_iwasawa_counter_reads_the_factor_output_non_reflective(monkeypatch):
    # data that neither reflection keeps: every node is factored
    import loopcmc.frames as frames
    from loopcmc import expr as ex
    from loopcmc.grid import DomainGrid

    grid = DomainGrid.square(0.5, 9)
    pot = frames.PotentialSpec.normalized("1", ASYMMETRIC_Q, 1.0)
    entries = ex.evaluate(frames.potential_entries(pot), grid.zz)
    assert frames._reflections(grid, grid.mask, entries) == ()
    nodes, mesh = _factored_nodes(monkeypatch, ASYMMETRIC_Q)
    assert "mirrored" not in mesh.meta
    assert nodes == mesh.meta["factored_nodes"] == 81


def test_iwasawa_counter_reads_the_compact_input(monkeypatch):
    # the counter takes nodes and band from axes 0 and 1 of the compact
    # (n, nk, 2) input of every call, and factor.band.max is the widest
    # chunk band the mesh factored
    import loopcmc.frames as frames
    from loopcmc.grid import DomainGrid

    inputs = []
    batch = frames.iwasawa_batch

    def record(lo, coeffs):
        inputs.append(coeffs.shape)
        return batch(lo, coeffs)
    monkeypatch.setattr(frames, "iwasawa_batch", record)
    pot = frames.PotentialSpec.normalized("1", "0", 1.0)
    with installed_tracer(monkeypatch) as (spans, tracer):
        frames.surface_from_potential(pot, DomainGrid.square(0.5, 9))
        metrics = spans.layer_metrics(tracer.spans)
    calls = [s for s in tracer.spans if s.name == "factor.iwasawa_batch"]
    assert len(calls) == len(inputs) > 0
    for s, shape in zip(calls, inputs):
        assert len(shape) == 3 and shape[2] == 2
        assert (s.counts["nodes"], s.counts["band"]) == shape[:2]
    assert metrics["factor.band.max"][0] == max(n[1] for n in inputs)


def _traced_prim_mesh(monkeypatch, Q):
    # one traced 9 x 9 h = 0 mesh of a = 2 + z and the given Q, whose nu =
    # -int Q/a is a Prim: the mesh, the points of every expr.evaluate
    # call and the per-layer metrics
    import loopcmc.weier as weier
    from loopcmc.convert import limit_member_data
    from loopcmc.frames import PotentialSpec
    from loopcmc.grid import DomainGrid

    w = limit_member_data(PotentialSpec.normalized("2+z", Q, 0.0))
    with installed_tracer(monkeypatch) as (spans, tracer):
        mesh = weier.minimal_surface(w, DomainGrid.square(0.5, 9))
        metrics = spans.layer_metrics(tracer.spans)
    calls = [s.counts["points"] for s in tracer.spans
             if s.name == "expr.evaluate"]
    return mesh, calls, metrics


def test_walk_primitive_work_is_counted(monkeypatch):
    # a Prim in minimal data: the one cumulative pass evaluates the
    # integrand through expr.evaluate, so the traced minimal counters see
    # it beside the node and sweep evaluations of mu and nu, one call for
    # both.  The pass takes every edge of the lattice, 8 along the
    # basepoint row and 8 down each column, for the values at every node;
    # exp(z)/(2 + z) is real on the real axis, so the mesh keeps the row
    # reflection and the sweep takes the fundamental domain's edges only,
    # rows j0 - 1 = 3 to 8: 8 along the basepoint row and 5 down each
    # column
    from loopcmc import expr as ex

    mesh, calls, metrics = _traced_prim_mesh(monkeypatch, "exp(z)")
    assert _axes(mesh) == ["row"]
    lattice, sweep = 8 + 9 * 8, 8 + 9 * 5
    assert 12 * lattice in calls
    assert metrics["expr.evaluate.points"][0] \
        == 12 * lattice + 81 + ex.WALK_GL_N * sweep


def test_walk_primitive_work_is_counted_non_reflective(monkeypatch):
    # Q/a not real on the real axis: neither reflection holds, and the
    # sweep takes every lattice edge too
    from loopcmc import expr as ex

    mesh, calls, metrics = _traced_prim_mesh(monkeypatch, "exp((1+i)*z)")
    assert "mirrored" not in mesh.meta
    edges = 8 + 9 * 8
    assert 12 * edges in calls
    assert metrics["expr.evaluate.points"][0] \
        == 12 * edges + 81 + ex.WALK_GL_N * edges


def _minimal_evaluations(monkeypatch, w, n, edges):
    # mu and nu are evaluated in one call at the n x n nodes and in one
    # call per slice of the given number of swept edges, of at most
    # BLOCK_POINTS points, so expr.evaluate.points counts both while the
    # calls stay at one per slice; a sweep that evaluates once per step
    # makes about 4 n calls and fails
    from loopcmc import expr as ex
    import loopcmc.weier as weier
    from loopcmc.grid import DomainGrid

    slices = -(-ex.WALK_GL_N * edges // weier.BLOCK_POINTS)
    with installed_tracer(monkeypatch) as (spans, tracer):
        mesh = weier.minimal_surface(w, DomainGrid.square(1.0, n))
        metrics = spans.layer_metrics(tracer.spans)
    assert mesh.mask.all()
    assert metrics["expr.evaluate.points"][0] \
        == n * n + ex.WALK_GL_N * edges
    assert metrics["expr.evaluate.calls"][0] <= 1 + slices
    return mesh


def test_minimal_evaluate_calls_stay_per_block(monkeypatch):
    # Enneper's h = 0 mesh (no Prim) keeps both reflections: the quadrant
    # of m = n - j0 + 1 = (n + 3) / 2 rows and columns is swept, m - 1
    # edges along the basepoint row and m - 1 down each of its m columns
    import loopcmc.weier as weier

    for n in (51, 201):
        m = (n + 3) // 2
        mesh = _minimal_evaluations(monkeypatch, weier.WeierstrassData(
            "1", "z^2"), n, (m - 1) + (m - 1) * m)
        assert _axes(mesh) == ["row", "col"]


def test_minimal_evaluate_calls_stay_per_block_non_reflective(monkeypatch):
    # data that neither reflection keeps: the whole grid is swept, n - 1
    # edges along the basepoint row and n - 1 down each column
    import loopcmc.weier as weier

    w = weier.WeierstrassData("1 + 0.3*z + 0.2*i*z^2", "z + 0.1*i")
    for n in (51, 201):
        mesh = _minimal_evaluations(monkeypatch, w, n, (n - 1) + (n - 1) * n)
        assert "mirrored" not in mesh.meta


def _evaluated_points(monkeypatch, Q, edges):
    # the frame integrator evaluates both potential entries at its
    # collocation points, those of the given number of walked edges, and
    # at the points of the rule one point finer for its quadrature
    # estimate, in one call, and expr.evaluate.points counts that call's
    # points once, beside the one grid evaluation of the entries and of a
    # for the tail bound and the metric; an integrator that bypassed
    # expr.evaluate would leave the collocation points out of the traced
    # counters
    from loopcmc import expr as ex
    from loopcmc.frames import SurfaceOptions

    lattice = edges * (2 * ex.WALK_GL_N + 1) * SurfaceOptions().substeps
    mesh, traced, metrics = _traced_sphere(monkeypatch, Q)
    calls = [s.counts["points"] for s in traced if s.name == "expr.evaluate"]
    assert lattice in calls
    assert metrics["expr.evaluate.points"][0] == lattice + 81
    assert metrics["expr.evaluate.calls"][0] == 2
    return mesh


def test_potential_evaluation_is_counted(monkeypatch):
    # sphere data, mirrored: the fundamental domain, rows and columns
    # j0 - 1 = 3 to 8, is walked, 5 edges along the basepoint row and 5
    # down each of its 6 columns
    mesh = _evaluated_points(monkeypatch, "0", 5 + 6 * 5)
    assert _axes(mesh) == ["row", "col"]


def test_potential_evaluation_is_counted_non_reflective(monkeypatch):
    # data that neither reflection keeps: the whole grid is walked, 8
    # edges along the basepoint row and 8 down each column
    mesh = _evaluated_points(monkeypatch, ASYMMETRIC_Q, 8 + 9 * 8)
    assert "mirrored" not in mesh.meta
