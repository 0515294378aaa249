"""The benchmark's own tests: small passes of every workload, the tracer's
wrap/restore contract, counter determinism and the incomplete-checkout exit.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
import workloads
import loopalg
from loopalg import errors, hitchin, laurent, opers, ring, rootdata

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small(name, seed=3):
    if name == "containment":
        return workloads.Containment(seed, types=("A1", "G2"), samples=5, levels=(2,))
    if name == "residue-slice":
        return workloads.ResidueSlice(seed, types=("A1", "A2"), samples=10, trials=5)
    if name == "rigid-connection":
        return workloads.RigidConnection(seed, types=("A1", "C2"), coefficients=(Fraction(3, 5),))
    manifest = {"degrees_A2.json": ["degrees", "A2"], "fg_A1_1.json": ["fg", "A1", "1", "--ode"]}
    return workloads.Cli(seed, ROOT, manifest=manifest, samples=10)


@pytest.mark.parametrize("name", run.NAMES)
def test_small_pass_passes_every_check(name):
    wl = small(name)
    wl.setup()
    first, second = wl.run_pass(), wl.run_pass()
    assert first and all(r.ok for r in first + second), [(r.name, r.note) for r in first + second]
    assert [r.digest for r in first] == [r.digest for r in second]


def test_a_failed_check_counts_and_the_pass_goes_on():
    wl = small("rigid-connection")
    wl.setup()
    wl.cases[0].check = lambda out: "forced failure"
    reports = wl.run_pass()
    assert [r.ok for r in reports] == [False] + [True] * (len(reports) - 1)
    assert reports[0].note == "forced failure"


def snapshot():
    """Every attribute of every loopalg module and of the classes the tracer patches."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "loopalg" or name.startswith("loopalg.")):
            out.update(((name, k), v) for k, v in vars(mod).items())
    for cls in (laurent.LaurentPoly, hitchin.InvariantSystem, errors.WindowUnderflowError):
        out.update(((cls.__qualname__, k), v) for k, v in vars(cls).items())
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    before = snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.active():
            # callers that imported the name directly are wrapped too
            assert opers.is_regular_semisimple is not before[("loopalg.opers", "is_regular_semisimple")]
            assert rootdata.is_regular_semisimple is not before[
                ("loopalg.rootdata", "is_regular_semisimple")]
            assert loopalg.chevalley_map is not before[("loopalg", "chevalley_map")]
            assert ring.kernel_basis is not before[("loopalg.ring", "kernel_basis")]
            assert laurent.LaurentPoly.__init__ is not before[("LaurentPoly", "__init__")]
            assert "__init__" in vars(errors.WindowUnderflowError)
            during = snapshot()
            changed = {k for k in during if k not in before or during[k] is not before[k]}
            assert len(changed) >= len(tracing.SPANNED) + len(tracing.COUNTED)
            raise KeyError("leave the traced block by an error")
    assert not tracer.installed
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_become_nested_spans_and_untraced_calls_do_not():
    rd = rootdata.build_root_datum(rootdata.CartanType.parse("A2"))
    tracer = tracing.Tracer()
    opers.slope_certificate(opers.fg_connection(rd, Fraction(1)))
    assert tracer.spans == []
    with tracer.active():
        with tracer.span("bench.report"):
            opers.slope_certificate(opers.fg_connection(rd, Fraction(1)))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bench.report" and "rootdata.is_regular_semisimple" in names
    cert = names.index("opers.slope_certificate")
    assert tracer.spans[cert][3] == 0 and tracer.spans[names.index("opers.fg_connection")][3] == 0
    view = tracing.SpanView(tracer.spans, 0, len(tracer.spans))
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        assert end >= start and parent < i
        if name == "rootdata.is_regular_semisimple":
            assert tracer.spans[parent][0] == "opers.slope_certificate"
    whole = view.total_ms("opers.slope_certificate")
    assert 0 <= view.self_ms("opers.slope_certificate") <= whole
    assert view.total_ms("rootdata.is_regular_semisimple") <= whole
    assert tracer.counts["laurent.objects"] > 0


def test_span_view_self_time_and_path_share():
    spans = [
        ["hitchin.InvariantSystem.invariant_values", 0, 100, -1],
        ["ring.charpoly_esym", 10, 60, 0],
        ["ring.mat_mul", 20, 30, 1],
        ["hitchin.InvariantSystem.invariant_values", 100, 150, -1],
    ]
    view = tracing.SpanView(spans, 0, len(spans))
    assert view.self_ms("hitchin.InvariantSystem.invariant_values") == (100 - 50 + 50) / 1e6
    assert view.self_ms("ring.charpoly_esym") == 40 / 1e6
    assert view.share_without_child("hitchin.InvariantSystem.invariant_values",
                                     "ring.mat_mul") == 0.5
    assert view.share_without_child("ring.kernel_basis", "ring.mat_mul") is None


def _traced_counts(name, seed):
    wl = small(name, seed)
    wl.setup()
    wl.run_pass()
    tracer = tracing.Tracer()
    with tracer.active():
        wl.run_pass(tracer)
    layers = run.pass_layers(tracing.SpanView(tracer.spans, 0, len(tracer.spans)), tracer.counts)
    return {k: layers[k] for k in run.DETERMINISTIC}


@pytest.mark.parametrize("name", ["containment", "residue-slice"])
def test_path_and_work_counters_repeat_exactly(name):
    first, second = _traced_counts(name, 11), _traced_counts(name, 11)
    assert first == second
    assert first["laurent.objects"] > 0


def test_integer_path_share_tells_the_workloads_apart():
    assert _traced_counts("containment", 11)["hitchin.int_path_frac"] == 1
    assert _traced_counts("residue-slice", 11)["hitchin.int_path_frac"] < 0.5


def test_percentile_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 51
    assert run.percentile(values, 0.9) == 91
    assert run.beyond(100, 0.9) == 9 and run.beyond(108, 0.9) == 10
    assert run.percentile(list(range(1, 12)), 0.5) == 6
    assert run.percentile([7.0], 0.9) == 7.0


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_untraced_run_gives_every_end_to_end_metric():
    passes, values, problems = run.untraced_run(small("rigid-connection"), seconds=1)
    assert set(values) == declared("end_to_end") and not problems
    assert values["pass_frac"] == 1 and all(v > 0 for v in values.values())
    assert run.beyond(sum(len(p.reports) for p in passes), 0.9) >= run.MIN_BEYOND_P90


def test_traced_run_gives_every_per_layer_metric(tmp_path):
    passes, values, problems = run.traced_run(small("residue-slice"), 1, str(tmp_path / "t.jsonl"))
    assert set(values) == declared("per_layer") and not problems
    assert sum(p.traced for p in passes) >= 2 and any(not p.traced for p in passes)
    assert values["hitchin.chevalley_calls"] == 2 * 10 + 2 * 5
    with open(tmp_path / "t.jsonl") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"id", "name", "start_ns", "end_ns", "parent"} == set(spans[0])


def test_incomplete_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "containment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
