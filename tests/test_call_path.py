"""Tests for the call path (DESIGN.md "Call path"): argument binding through
a per-module :class:`ArgumentPlan`, its error parity between the
interpreter and compiled modules on cold and warm calls, the warm-call
guard against re-walking the graph, and return-value order."""

import numpy as np
import pytest

import repro
from repro import Budget
from repro.codegen import compile_sdfg
from repro.codegen.compiled import CompiledSDFG
from repro.config import Config
from repro.frontend import decorator
from repro.governor import budget as governor_budget
from repro.instrumentation import current as current_collector
from repro.ir import SDFG, Memlet
from repro.runtime import parallel
from repro.runtime.executor import ArgumentPlan, ExecutionError, run_sdfg
from repro.sanitizer.guards import active_modes
from repro.symbolic import Symbol

N = Symbol("N")
M = Symbol("M")


# ---------------------------------------------------------------------------
# binder error parity: every ExecutionError path, same message everywhere
# ---------------------------------------------------------------------------

def _copy_sdfg(shapes=None):
    """B[i] = A[i] + 1 over the arrays' symbolic shapes."""
    shapes = shapes or {"A": (N,), "B": (N,)}
    sdfg = SDFG("copy")
    for name, shape in shapes.items():
        sdfg.add_array(name, shape, repro.float64)
    state = sdfg.add_state()
    state.add_mapped_tasklet("m", {"i": "0:N"}, {"__in": Memlet("A", "i")},
                             "__out = __in + 1", {"__out": Memlet("B", "i")})
    return sdfg


def _map_bound_sdfg():
    """A[i] = i over 0:M: M appears in no shape, so it must be passed."""
    sdfg = SDFG("fill")
    sdfg.add_array("A", (N,), repro.float64)
    state = sdfg.add_state()
    state.add_mapped_tasklet("m", {"i": "0:M"}, {}, "__out = 1.0 * i",
                             {"__out": Memlet("A", "i")})
    return sdfg


def _scalar_symbol_sdfg():
    sdfg = SDFG("agree")
    sdfg.add_scalar("N", repro.int32)
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_state()
    return sdfg


def _composite_sdfg():
    sdfg = SDFG("composite")
    sdfg.add_array("A", (N, N * 2), repro.float64)
    sdfg.add_state()
    return sdfg


#: (case id, SDFG builder, positional args, keyword args, exact message)
BINDER_ERRORS = [
    ("dtype", _copy_sdfg, (),
     {"A": np.zeros(3, dtype=np.int32), "B": np.zeros(3)},
     "argument 'A' has dtype int32, expected float64 "
     "(static symbolic typing)"),
    ("ndim", _copy_sdfg, (), {"A": np.zeros((2, 2)), "B": np.zeros(2)},
     "argument 'A' has 2 dimensions, expected 1"),
    ("inconsistent-symbol", _copy_sdfg, (),
     {"A": np.zeros(3), "B": np.zeros(4)},
     "inconsistent value for symbol N: 3 vs 4 (argument 'B')"),
    ("inconsistent-scalar-symbol", _scalar_symbol_sdfg, (),
     {"N": 7, "A": np.zeros(4)},
     "inconsistent value for symbol N: shape-derived 4 vs scalar argument 7"),
    ("composite-dimension", _composite_sdfg, (), {"A": np.zeros((3, 5))},
     "argument 'A': dimension 2*N evaluates to 6 but actual size is 5"),
    ("unknown-argument", _copy_sdfg, (),
     {"A": np.zeros(3), "B": np.zeros(3), "C": np.zeros(3)},
     "unknown argument 'C'"),
    ("unbound-symbols", _map_bound_sdfg, (), {"A": np.zeros(3)},
     "unbound symbols: ['M']"),
    ("missing-arguments", _copy_sdfg, (), {"A": np.zeros(3)},
     "missing arguments: ['B']"),
    ("too-many-positionals", _copy_sdfg,
     (np.zeros(3), np.zeros(3), np.zeros(3)), {},
     "too many positional arguments: got 3, expected at most 2"),
]


def _expect(message, call, *args, **kwargs):
    with pytest.raises(ExecutionError) as info:
        call(*args, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("build,args,kwargs,message",
                         [case[1:] for case in BINDER_ERRORS],
                         ids=[case[0] for case in BINDER_ERRORS])
class TestBinderErrorParity:
    def test_interpreter(self, build, args, kwargs, message):
        _expect(message, run_sdfg, build(), *args, **kwargs)

    def test_compiled_first_and_warm_call(self, build, args, kwargs,
                                          message):
        compiled = compile_sdfg(build(), cache=False)
        assert compiled._plan is None
        _expect(message, compiled, *args, **kwargs)
        plan = compiled._plan
        assert plan is not None  # built by the first call, errors or not
        _expect(message, compiled, *args, **kwargs)
        assert compiled._plan is plan


def test_compiled_module_binds_after_a_failed_call():
    compiled = compile_sdfg(_copy_sdfg(), cache=False)
    _expect("missing arguments: ['B']", compiled, A=np.zeros(3))
    A, B = np.arange(4.0), np.zeros(4)
    compiled(A, B)
    np.testing.assert_array_equal(B, A + 1)


def test_map_bound_symbol_binds_by_keyword():
    A = np.zeros(5)
    compiled = compile_sdfg(_map_bound_sdfg(), cache=False)
    compiled(A=A, M=3)
    np.testing.assert_array_equal(A, [0.0, 1.0, 2.0, 0.0, 0.0])


def test_plan_records_the_calling_convention():
    sdfg = _scalar_symbol_sdfg()
    plan = ArgumentPlan(sdfg)
    assert plan.positional == ("A", "N")
    assert plan.scalar_symbols == ("N",)
    assert plan.containers["A"] == ("array", np.dtype(np.float64))
    assert plan.returns == ()


# ---------------------------------------------------------------------------
# return order: by numeric suffix, top-level and through nested calls
# ---------------------------------------------------------------------------

@repro.program
def twelve(a: repro.int64[N]):
    return (a[0], a[1], a[2], a[3], a[0] + 1, a[1] + 1, a[2] + 1, a[3] + 1,
            a[0] + 2, a[1] + 2, a[2] + 2, a[3] + 2)


@repro.program
def twelve_nested(a: repro.int64[N]):
    return twelve(a)


@repro.program
def twelve_unpacked(a: repro.int64[N]):
    r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11 = twelve(a)
    return r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11


TWELVE = (0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5)


class TestReturnOrder:
    @pytest.mark.parametrize("prog", [twelve, twelve_nested, twelve_unpacked],
                             ids=["top-level", "nested", "nested-unpacked"])
    def test_twelve_values_in_order(self, prog):
        result = prog(np.arange(4, dtype=np.int64))
        assert tuple(int(v) for v in result) == TWELVE

    def test_interpreter_order(self):
        result = run_sdfg(twelve.to_sdfg(), a=np.arange(4, dtype=np.int64))
        assert tuple(int(v) for v in result) == TWELVE

    def test_return_names_sort_numerically(self):
        names = twelve.to_sdfg().return_names()
        assert names == [f"__return_{i}" for i in range(12)]


# ---------------------------------------------------------------------------
# warm path: no graph walks, no descriptor rebuilds, config still re-read
# ---------------------------------------------------------------------------

@repro.program
def scale(A: repro.float64[N], B: repro.float64[N]):
    for i in repro.map[0:N]:
        B[i] = A[i] * 2.0


@repro.program
def scale_jit(A, B):
    B[:] = A * 2.0


@pytest.fixture
def counters(monkeypatch):
    """Counts SDFG.free_symbols reads and descriptor constructions."""
    counts = {"free_symbols": 0, "annotation_to_desc": 0, "value_to_desc": 0}
    free_symbols = SDFG.free_symbols.fget

    def counted_free_symbols(self):
        counts["free_symbols"] += 1
        return free_symbols(self)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SDFG, "free_symbols", property(counted_free_symbols))
    monkeypatch.setattr(decorator, "_annotation_to_desc",
                        counting("annotation_to_desc",
                                 decorator._annotation_to_desc))
    monkeypatch.setattr(decorator, "_value_to_desc",
                        counting("value_to_desc", decorator._value_to_desc))
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Records, for every compiled-module run, which of the sanitized,
    instrumented and governed paths it went through."""
    seen = []
    run_prepared = CompiledSDFG.run_prepared

    def recording(self, containers, symbols, start_state=None):
        armed = governor_budget.current()
        seen.append({
            "sanitized": self.sanitized and active_modes() is not None,
            "instrumented": (self.instrumented
                             and current_collector() is not None),
            "deadline": armed.budget.deadline_s if armed else None,
        })
        return run_prepared(self, containers, symbols, start_state)

    monkeypatch.setattr(CompiledSDFG, "run_prepared", recording)
    return seen


class TestWarmPath:
    @pytest.mark.parametrize("prog", [scale, scale_jit],
                             ids=["annotated", "unannotated"])
    def test_second_call_walks_no_graph(self, prog, counters, tmp_path):
        A, B = np.arange(6.0), np.zeros(6)
        with Config.override(cache__dir=str(tmp_path)):
            prog(A, B)
            counters.update(dict.fromkeys(counters, 0))
            prog(A, B)
        assert counters == {"free_symbols": 0, "annotation_to_desc": 0,
                            "value_to_desc": 0}
        np.testing.assert_array_equal(B, 2 * A)

    def test_call_key_matches_descriptor_key(self):
        args = (np.zeros((2, 3), dtype=np.float32), 1.5)

        @repro.program
        def mixed(A, x: repro.float64):
            A[:] = x

        for prog, call in ((scale_jit, (np.zeros(4), np.zeros(4))),
                           (mixed, args)):
            descs = prog._descs_from_args(call, {})
            assert prog._call_key(call, {}) == prog._desc_key(descs)

    def test_configuration_is_reread_on_every_call(self, calls, tmp_path):
        A, B = np.arange(6.0), np.zeros(6)
        with Config.override(cache__dir=str(tmp_path)):
            scale(A, B)
            with Config.override(sanitize__mode="bounds"):
                scale(A, B)
            with Config.override(instrument__mode="timers"):
                scale(A, B)
            scale(A, B, __budget=Budget(deadline_s=60.0))
            scale(A, B)
        assert [(c["sanitized"], c["instrumented"], c["deadline"])
                for c in calls] == [(False, False, None),
                                    (True, False, None),
                                    (False, True, None),
                                    (False, False, 60.0),
                                    (False, False, None)]
        np.testing.assert_array_equal(B, 2 * A)

    def test_degrade_mode_is_reread(self, tmp_path):
        A, B = np.arange(6.0), np.zeros(6)
        with Config.override(cache__dir=str(tmp_path)):
            scale(A, B)
            scale.last_attempts = []
            with Config.override(resilience__mode="degrade"):
                scale(A, B)
        assert [a["stage"] for a in scale.last_attempts] == ["compiled"]

    def test_cpu_threads_is_reread(self, monkeypatch):
        monkeypatch.delenv("REPRO_CPU_THREADS", raising=False)
        with Config.override(device__cpu_threads=3):
            assert parallel.configured_threads() == 3
        with Config.override(device__cpu_threads=0):
            monkeypatch.setenv("REPRO_CPU_THREADS", "5")
            assert parallel.configured_threads() == 5
            monkeypatch.delenv("REPRO_CPU_THREADS")
            assert parallel.configured_threads() >= 1
