"""Unit tests for the SDFG IR: descriptors, memlets, states, validation,
serialization, and Graphviz export."""

import json

import numpy as np
import pytest

import repro
from repro.ir import (SDFG, AccessNode, InterstateEdge, InvalidSDFGError,
                      Memlet, ScheduleType, Tasklet, sdfg_to_dot)
from repro.ir.data import (AllocationLifetime, Array, Scalar, StorageType,
                           Stream)
from repro.ir.serialize import sdfg_from_json
from repro.symbolic import Integer, Range, Symbol

N = Symbol("N")


def simple_sdfg():
    sdfg = SDFG("simple")
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_array("B", (N,), repro.float64)
    state = sdfg.add_state("s0")
    state.add_mapped_tasklet(
        "scale", {"i": "0:N"},
        {"__in": Memlet("A", "i")}, "__out = 2 * __in",
        {"__out": Memlet("B", "i")})
    return sdfg


class TestDataDescriptors:
    def test_array_shape_and_size(self):
        arr = Array(repro.float64, (N, 4))
        assert arr.total_size() == 4 * N
        assert arr.size_bytes() == 32 * N

    def test_scalar_ndim(self):
        assert Scalar(repro.int32).ndim == 0

    def test_contiguous_strides(self):
        arr = Array(repro.float64, (N, 8))
        assert arr.strides == (Integer(8), Integer(1))

    def test_stream_buffer(self):
        stream = Stream(repro.float64, buffer_size=16)
        assert stream.buffer_size == 16
        assert stream.transient

    def test_clone_is_deep(self):
        arr = Array(repro.float64, (N,))
        clone = arr.clone()
        clone.transient = True
        assert not arr.transient

    def test_json_roundtrip(self):
        from repro.ir.data import Data

        arr = Array(repro.float64, (N, 3), transient=True,
                    storage=StorageType.GPU_Global)
        back = Data.from_json(arr.to_json())
        assert back.transient
        assert back.storage is StorageType.GPU_Global
        assert str(back.shape[0]) == "N"


class TestMemlets:
    def test_volume(self):
        assert Memlet("A", "0:N").volume() == N

    def test_empty(self):
        memlet = Memlet.empty()
        assert memlet.is_empty()
        assert memlet.num_elements() == 0

    def test_bad_wcr_rejected(self):
        with pytest.raises(ValueError):
            Memlet("A", "0:N", wcr="xor")

    def test_equality_and_clone(self):
        a = Memlet("A", "0:N", wcr="sum")
        assert a == a.clone()
        assert a != Memlet("A", "0:N")

    def test_subs(self):
        memlet = Memlet("A", "i")
        assert memlet.subs({"i": 3}).subset.is_point() is True


class TestSDFGStructure:
    def test_duplicate_container_rejected(self):
        sdfg = SDFG("x")
        sdfg.add_array("A", (N,), repro.float64)
        with pytest.raises(NameError):
            sdfg.add_array("A", (N,), repro.float64)

    def test_invalid_container_name(self):
        sdfg = SDFG("x")
        with pytest.raises(NameError):
            sdfg.add_array("not valid!", (N,), repro.float64)

    def test_temp_data_name_unique(self):
        sdfg = SDFG("x")
        name1 = sdfg.temp_data_name()
        sdfg.add_scalar(name1, repro.float64, transient=True)
        assert sdfg.temp_data_name() != name1

    def test_state_label_dedup(self):
        sdfg = SDFG("x")
        s1 = sdfg.add_state("foo")
        s2 = sdfg.add_state("foo")
        assert s1.label != s2.label

    def test_start_state(self):
        sdfg = SDFG("x")
        first = sdfg.add_state()
        sdfg.add_state()
        assert sdfg.start_state is first

    def test_add_state_before_updates_start(self):
        sdfg = SDFG("x")
        s = sdfg.add_state()
        before = sdfg.add_state_before(s)
        assert sdfg.start_state is before
        assert sdfg.successors(before) == [s]

    def test_add_state_after_reroutes(self):
        sdfg = SDFG("x")
        a = sdfg.add_state()
        b = sdfg.add_state()
        sdfg.add_edge(a, b, InterstateEdge())
        mid = sdfg.add_state_after(a)
        assert sdfg.successors(a) == [mid]
        assert sdfg.successors(mid) == [b]

    def test_arglist_excludes_transients(self):
        sdfg = simple_sdfg()
        sdfg.add_transient("tmp", (N,), repro.float64)
        assert set(sdfg.arglist()) == {"A", "B"}

    def test_free_symbols(self):
        sdfg = simple_sdfg()
        assert sdfg.free_symbols == {"N"}

    def test_scope_dict(self):
        sdfg = simple_sdfg()
        state = sdfg.states()[0]
        scope = state.scope_dict()
        from repro.ir import MapEntry, MapExit

        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        tasklet = next(n for n in state.nodes() if isinstance(n, Tasklet))
        assert scope[tasklet] is entry
        assert scope[entry] is None
        assert scope[entry.exit_node] is entry

    def test_scope_dict_ignores_in_edge_order(self):
        # an empty-memlet ordering edge from outside a map into its body
        # (state fusion adds these) must not pull the node out of the map,
        # whichever in-edge comes first
        from repro.ir import MapEntry

        for ordering_first in (True, False):
            sdfg = simple_sdfg()
            state = sdfg.states()[0]
            entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
            tasklet = next(n for n in state.nodes() if isinstance(n, Tasklet))
            data = state.in_edges(tasklet)[0]
            if ordering_first:
                state.remove_edge(data)
            state.add_nedge(state.add_access("A"), tasklet)
            if ordering_first:
                state.add_edge(entry, data.src_conn, tasklet, data.dst_conn,
                               data.memlet)
            assert isinstance(state.in_edges(tasklet)[0].src,
                              AccessNode) == ordering_first
            assert state.scope_dict()[tasklet] is entry

    def test_memlet_path(self):
        sdfg = simple_sdfg()
        state = sdfg.states()[0]
        tasklet = next(n for n in state.nodes() if isinstance(n, Tasklet))
        inner = state.in_edges(tasklet)[0]
        path = state.memlet_path(inner)
        assert isinstance(path[0].src, AccessNode)
        assert path[-1].dst is tasklet


class TestValidation:
    def test_valid_graph(self):
        simple_sdfg().validate()

    def test_undeclared_container(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state()
        state.add_access("ghost")
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_dangling_connector(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        tasklet = state.add_tasklet("t", {"__in"}, {"__out"}, "__out = __in")
        state.add_edge(state.add_read("A"), None, tasklet, "__in",
                       Memlet("A", "0"))
        # __out never connected
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_dimension_mismatch(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", (N, N), repro.float64)
        sdfg.add_scalar("x", repro.float64)
        state = sdfg.add_state()
        tasklet = state.add_tasklet("t", {"__in"}, {"__out"}, "__out = __in")
        state.add_edge(state.add_read("A"), None, tasklet, "__in",
                       Memlet("A", "0"))  # 1-D subset on 2-D array
        state.add_edge(tasklet, "__out", state.add_write("x"), None,
                       Memlet("x", "0"))
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_cyclic_state_rejected(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        a = state.add_access("A")
        b = state.add_access("A")
        state.add_nedge(a, b, Memlet("A", "0:N"))
        state.add_nedge(b, a, Memlet("A", "0:N"))
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()


class TestInterstate:
    def test_condition_evaluation(self):
        edge = InterstateEdge("i < N")
        assert edge.evaluate_condition({"i": 2, "N": 5}) is True
        assert edge.evaluate_condition({"i": 5, "N": 5}) is False

    def test_simultaneous_assignments(self):
        edge = InterstateEdge(assignments={"a": "b", "b": "a"})
        env = {"a": 1, "b": 2}
        edge.apply_assignments(env)
        assert env == {"a": 2, "b": 1}

    def test_free_symbols(self):
        edge = InterstateEdge("i < N", {"i": "i + k"})
        assert edge.free_symbols == {"i", "N", "k"}


class TestSerialization:
    def test_roundtrip_executes(self):
        sdfg = simple_sdfg()
        restored = sdfg_from_json(json.loads(json.dumps(sdfg.to_json())))
        restored.validate()
        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        restored(A=A, B=B)
        assert np.allclose(B, 2 * A)

    def test_roundtrip_interstate(self):
        sdfg = SDFG("loop")
        sdfg.add_array("C", (N,), repro.float64)
        init = sdfg.add_state("init")
        body = sdfg.add_state("body")
        sdfg.add_edge(init, body, InterstateEdge("N > 0", {"i": "0"}))
        restored = sdfg_from_json(sdfg.to_json())
        edge = restored.edges()[0]
        assert edge.data.condition == "N > 0"
        assert edge.data.assignments == {"i": "0"}


class TestDotExport:
    def test_dot_contains_nodes(self):
        dot = sdfg_to_dot(simple_sdfg())
        assert "digraph" in dot
        assert "trapezium" in dot      # map entry shape
        assert "octagon" in dot        # tasklet shape

    def test_dot_marks_wcr_dashed(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_scalar("s", repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet(
            "red", {"i": "0:N"}, {"__v": Memlet("A", "i")}, "__out = __v",
            {"__out": Memlet("s", "0", wcr="sum")})
        assert "dashed" in sdfg_to_dot(sdfg)


class TestMalformedSDFGs:
    """Validation on deliberately corrupted graphs (resilience layer)."""

    def test_missing_map_exit(self):
        from repro.ir.nodes import make_map_scope

        sdfg = SDFG("broken_scope")
        state = sdfg.add_state()
        entry, _exit = make_map_scope("m", ["i"], Range.from_string("0:4"))
        state.add_node(entry)  # MapExit never added
        with pytest.raises(InvalidSDFGError, match="MapExit"):
            sdfg.validate()

    def test_empty_tasklet_code(self):
        sdfg = SDFG("empty_code")
        state = sdfg.add_state()
        state.add_node(Tasklet("t", set(), set(), ""))
        with pytest.raises(InvalidSDFGError, match="empty code"):
            sdfg.validate()

    def test_interstate_unknown_symbol(self):
        sdfg = SDFG("bad_edge")
        first = sdfg.add_state("a")
        second = sdfg.add_state("b")
        sdfg.add_edge(first, second, InterstateEdge("mystery > 0"))
        with pytest.raises(InvalidSDFGError, match="mystery"):
            sdfg.validate()

    def test_nested_connector_without_container(self):
        from repro.ir.nodes import NestedSDFG

        inner = SDFG("inner")
        inner.add_array("x", (1,), repro.float64)
        inner.add_state()
        sdfg = SDFG("outer")
        sdfg.add_array("A", (1,), repro.float64)
        state = sdfg.add_state()
        state.add_node(NestedSDFG("call", inner, {"ghost_conn"}, set()))
        with pytest.raises(InvalidSDFGError, match="ghost_conn"):
            sdfg.validate()

    def test_collect_validation_errors_reports_all(self):
        from repro.ir import collect_validation_errors

        sdfg = SDFG("multi")
        bad1 = sdfg.add_state("bad1")
        bad1.add_node(AccessNode("ghost1"))
        bad2 = sdfg.add_state("bad2")
        bad2.add_node(AccessNode("ghost2"))
        errors = collect_validation_errors(sdfg)
        assert len(errors) == 2
        messages = " ".join(str(e) for e in errors)
        assert "ghost1" in messages and "ghost2" in messages
        # validate_sdfg stops at the first of the same violations
        with pytest.raises(InvalidSDFGError, match="ghost1"):
            sdfg.validate()

    def test_collect_validation_errors_clean_graph(self):
        from repro.ir import collect_validation_errors

        assert collect_validation_errors(simple_sdfg()) == []
