"""Frontend tests: translation of annotated Python to SDFGs (§2, Table 1)."""

import numpy as np
import pytest

import repro
from repro.frontend.astutils import UnsupportedFeature
from repro.ir import MapEntry, Tasklet

N = repro.symbol("N")
M = repro.symbol("M")


def run(prog, **kwargs):
    return prog(**kwargs)


class TestAssignments:
    def test_full_array_assign(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        prog(A=A, B=B)
        assert np.allclose(B, A * 3)

    def test_subset_store(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A[1:-1] = 7.0

        A = np.zeros(6)
        prog(A=A)
        assert np.allclose(A, [0, 7, 7, 7, 7, 0])

    def test_point_store_with_symbolic_index(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A[N - 1] = 5.0

        A = np.zeros(4)
        prog(A=A)
        assert A[3] == 5.0

    def test_negative_literal_index(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A[-1] = 2.0
            A[-2] = 1.0

        A = np.zeros(5)
        prog(A=A)
        assert A[4] == 2.0 and A[3] == 1.0

    def test_strided_slice(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A[0:N:2] = 1.0

        A = np.zeros(6)
        prog(A=A)
        assert np.allclose(A, [1, 0, 1, 0, 1, 0])

    def test_row_assignment(self):
        @repro.program
        def prog(A: repro.float64[N, M], v: repro.float64[M]):
            A[2, :] = v

        A = np.zeros((4, 3))
        v = np.arange(3, dtype=np.float64)
        prog(A=A, v=v)
        assert np.allclose(A[2], v)
        assert np.allclose(A[0], 0)

    def test_column_assignment(self):
        @repro.program
        def prog(A: repro.float64[N, M], v: repro.float64[N]):
            A[:, 1] = v

        A = np.zeros((3, 4))
        v = np.arange(3, dtype=np.float64)
        prog(A=A, v=v)
        assert np.allclose(A[:, 1], v)

    def test_broadcast_scalar_into_subset(self):
        @repro.program
        def prog(A: repro.float64[N, N]):
            A[1:-1, 1:-1] = 9.0

        A = np.zeros((4, 4))
        prog(A=A)
        assert A[1, 1] == 9 and A[0, 0] == 0

    def test_chained_targets(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            A[:] = B[:] = 4.0

        A, B = np.zeros(3), np.zeros(3)
        prog(A=A, B=B)
        assert np.allclose(A, 4) and np.allclose(B, 4)


class TestExpressions:
    def test_operator_chain(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = (A + 1.0) * (A - 1.0) / 2.0

        A = np.linspace(1, 2, 5)
        B = np.zeros(5)
        prog(A=A, B=B)
        assert np.allclose(B, (A + 1) * (A - 1) / 2)

    def test_broadcasting_vector_matrix(self):
        @repro.program
        def prog(A: repro.float64[N, M], v: repro.float64[M],
                 B: repro.float64[N, M]):
            B[:] = A + v

        A = np.ones((3, 4))
        v = np.arange(4, dtype=np.float64)
        B = np.zeros((3, 4))
        prog(A=A, v=v, B=B)
        assert np.allclose(B, A + v)

    def test_broadcast_column_row(self):
        @repro.program
        def prog(A: repro.float64[N, 1], B: repro.float64[1, M],
                 C: repro.float64[N, M]):
            C[:] = A + B

        A = np.arange(3, dtype=np.float64).reshape(3, 1)
        B = np.arange(4, dtype=np.float64).reshape(1, 4)
        C = np.zeros((3, 4))
        prog(A=A, B=B, C=C)
        assert np.allclose(C, A + B)

    def test_integer_division_promotes(self):
        @repro.program
        def prog(A: repro.int64[N], B: repro.float64[N]):
            B[:] = A / 2

        A = np.arange(4, dtype=np.int64)
        B = np.zeros(4)
        prog(A=A, B=B)
        assert np.allclose(B, A / 2)

    def test_comparison_produces_bool(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = np.where(A > 2.0, 1.0, 0.0)

        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        prog(A=A, B=B)
        assert np.allclose(B, (A > 2).astype(float))

    def test_matmul_operator(self):
        @repro.program
        def prog(A: repro.float64[N, M], B: repro.float64[M, N],
                 C: repro.float64[N, N]):
            C[:] = A @ B

        A = np.random.default_rng(0).random((3, 5))
        B = np.random.default_rng(1).random((5, 3))
        C = np.zeros((3, 3))
        prog(A=A, B=B, C=C)
        assert np.allclose(C, A @ B)

    def test_dot_product_return(self):
        @repro.program
        def prog(a: repro.float64[N], b: repro.float64[N]):
            return a @ b

        a = np.arange(4, dtype=np.float64)
        b = np.ones(4)
        assert prog(a=a, b=b) == pytest.approx(6.0)

    def test_transpose_attribute(self):
        @repro.program
        def prog(A: repro.float64[N, M], B: repro.float64[M, N]):
            B[:] = A.T

        A = np.arange(6, dtype=np.float64).reshape(2, 3)
        B = np.zeros((3, 2))
        prog(A=A, B=B)
        assert np.allclose(B, A.T)

    def test_constant_folding_scalars(self):
        @repro.program
        def prog(A: repro.float64[N]):
            c = 2 * 3 + 1
            A[:] = A * c

        A = np.ones(3)
        prog(A=A)
        assert np.allclose(A, 7)


class TestAugmentedAssignment:
    def test_array_augassign(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A += 1.0
            A *= 2.0

        A = np.zeros(3)
        prog(A=A)
        assert np.allclose(A, 2)

    def test_subset_augassign(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            A[1:-1] += B[1:-1] * 2.0

        A = np.ones(5)
        B = np.arange(5, dtype=np.float64)
        prog(A=A, B=B)
        assert np.allclose(A, [1, 3, 5, 7, 1])

    def test_scalar_accumulator_loop(self):
        @repro.program
        def prog(A: repro.float64[N]):
            total = 0.0
            for i in range(N):
                total += A[i]
            return total

        A = np.arange(5, dtype=np.float64)
        assert prog(A=A) == pytest.approx(10.0)


class TestControlFlow:
    def test_sequential_dependence(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(1, N):
                A[i] = A[i - 1] * 2.0

        A = np.ones(5)
        prog(A=A)
        assert np.allclose(A, [1, 2, 4, 8, 16])

    def test_reverse_loop(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N - 2, -1, -1):
                A[i] = A[i + 1] + 1.0

        A = np.zeros(4)
        prog(A=A)
        assert np.allclose(A, [3, 2, 1, 0])

    def test_while_loop(self):
        @repro.program
        def prog(A: repro.float64[1]):
            count = 0.0
            while count < 5.0:
                count += 1.0
            A[0] = count

        A = np.zeros(1)
        prog(A=A)
        assert A[0] == 5.0

    def test_break(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N):
                if i >= 3:
                    break
                A[i] = 1.0

        A = np.zeros(6)
        prog(A=A)
        assert np.allclose(A, [1, 1, 1, 0, 0, 0])

    def test_continue(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N):
                if i % 2 == 0:
                    continue
                A[i] = 1.0

        A = np.zeros(6)
        prog(A=A)
        assert np.allclose(A, [0, 1, 0, 1, 0, 1])

    def test_if_else(self):
        @repro.program
        def prog(A: repro.float64[N], flag: repro.int32):
            if flag > 0:
                A[:] = 1.0
            else:
                A[:] = -1.0

        A = np.zeros(3)
        prog(A=A, flag=1)
        assert np.allclose(A, 1)
        prog(A=A, flag=0)
        assert np.allclose(A, -1)

    def test_iterate_over_array(self):
        @repro.program
        def prog(data: repro.float64[N]):
            total = 0.0
            for value in data:
                total += value * value
            return total

        data = np.arange(4, dtype=np.float64)
        assert prog(data=data) == pytest.approx(14.0)

    def test_data_dependent_bound(self):
        @repro.program
        def prog(counts: repro.int64[N], A: repro.float64[N]):
            for i in range(N):
                for r in range(counts[i]):
                    A[i] += 1.0

        counts = np.array([0, 1, 2, 3], dtype=np.int64)
        A = np.zeros(4)
        prog(counts=counts, A=A)
        assert np.allclose(A, counts)


class TestMapsAndReturns:
    def test_explicit_map(self):
        @repro.program
        def prog(A: repro.float64[N, N], B: repro.float64[N, N]):
            for i, j in repro.map[0:N, 0:N]:
                B[i, j] = A[i, j] * A[i, j]

        A = np.arange(9, dtype=np.float64).reshape(3, 3)
        B = np.zeros((3, 3))
        prog(A=A, B=B)
        assert np.allclose(B, A * A)

    def test_map_wcr_scalar(self):
        @repro.program
        def prog(C: repro.float64[N, N]):
            alpha = 0.0
            for i, j in repro.map[0:N, 0:N]:
                alpha += C[i, j]
            return alpha

        C = np.ones((3, 3))
        assert prog(C=C) == pytest.approx(9.0)

    def test_map_read_modify_write_no_race(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in repro.map[0:N]:
                A[i] += 1.0

        A = np.zeros(4)
        prog(A=A)
        assert np.allclose(A, 1)

    def test_map_generates_map_node(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in repro.map[0:N]:
                A[i] = 0.0

        sdfg = prog.to_sdfg()
        maps = [n for n, s in sdfg.all_nodes_recursive()
                if isinstance(n, MapEntry)]
        assert len(maps) == 1

    def test_tuple_return(self):
        @repro.program
        def prog(A: repro.float64[N]):
            return np.sum(A), np.max(A)

        A = np.array([1.0, 5.0, 2.0])
        total, biggest = prog(A=A)
        assert total == 8.0 and biggest == 5.0

    def test_array_return(self):
        @repro.program
        def prog(A: repro.float64[N]):
            return A * 2.0

        A = np.arange(3, dtype=np.float64)
        out = prog(A=A)
        assert np.allclose(out, A * 2)


class TestJITAndAOT:
    def test_unannotated_jit(self):
        @repro.program
        def prog(A, B):
            B[:] = A + 1.0

        A = np.zeros(4)
        B = np.zeros(4)
        prog(A, B)
        assert np.allclose(B, 1)

    def test_jit_cache_per_shape(self):
        @repro.program
        def prog(A):
            return np.sum(A)

        assert prog(np.ones(4)) == 4.0
        assert prog(np.ones((2, 2))) == 4.0
        assert len(prog._sdfg_cache) == 2

    def test_default_arguments(self):
        @repro.program
        def prog(A: repro.float64[N], factor=3.0):
            A *= factor

        A = np.ones(3)
        prog(A=A)
        assert np.allclose(A, 3.0)

    def test_annotated_aot_no_args(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A += 1.0

        sdfg = prog.to_sdfg()  # no example arguments needed
        assert "A" in sdfg.arglist()

    def test_decorator_and_call_forms_carry_the_same_options(self):
        def func(A: repro.float64[N]):
            A += 1.0

        options = dict(auto_optimize=True, device="GPU", fallback=True,
                       instrument="timers", sanitize="bounds",
                       budget=repro.Budget(deadline_s=5.0))
        called = repro.program(func, **options)
        decorated = repro.program(**options)(func)
        for prog in (called, decorated):
            for name, value in options.items():
                assert getattr(prog, name) == value, name


class TestNestedCalls:
    def test_nested_program_call(self):
        @repro.program
        def callee(X: repro.float64[N]):
            X += 1.0

        @repro.program
        def caller(A: repro.float64[N]):
            callee(A)
            callee(A)

        A = np.zeros(4)
        caller(A=A)
        assert np.allclose(A, 2)

    def test_nested_with_return(self):
        @repro.program
        def square_sum(X: repro.float64[N]):
            return np.sum(X * X)

        @repro.program
        def caller(A: repro.float64[N]):
            return square_sum(A) + 1.0

        A = np.arange(3, dtype=np.float64)
        assert caller(A=A) == pytest.approx(6.0)

    def test_plain_function_autowrapped(self):
        def helper(X):
            X *= 2.0

        @repro.program
        def caller(A: repro.float64[N]):
            helper(A)

        A = np.ones(3)
        caller(A=A)
        assert np.allclose(A, 2)


class TestDynamicIndexing:
    def test_indirect_read(self):
        @repro.program
        def prog(idx: repro.int64[N], src: repro.float64[M],
                 out: repro.float64[N]):
            for i in range(N):
                out[i] = src[idx[i]]

        idx = np.array([2, 0, 1], dtype=np.int64)
        src = np.array([10.0, 20.0, 30.0, 40.0])
        out = np.zeros(3)
        prog(idx=idx, src=src, out=out)
        assert np.allclose(out, [30, 10, 20])

    def test_indirect_accumulate(self):
        @repro.program
        def prog(idx: repro.int64[N], out: repro.float64[M]):
            for i in range(N):
                out[idx[i]] += 1.0

        idx = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
        out = np.zeros(3)
        prog(idx=idx, out=out)
        assert np.allclose(out, [1, 2, 3])


class TestRestrictions:
    def test_list_argument_rejected(self):
        @repro.program
        def prog(A):
            return A[0]

        with pytest.raises((UnsupportedFeature, TypeError)):
            prog([1, 2, 3])

    def test_unsupported_statement(self):
        @repro.program
        def prog(A: repro.float64[N]):
            with open("/dev/null") as fh:  # noqa
                pass

        with pytest.raises(UnsupportedFeature):
            prog.to_sdfg()

    def test_recursion_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            prog(A)

        with pytest.raises((UnsupportedFeature, RecursionError)):
            prog.to_sdfg()

    def test_fallback_mode(self):
        @repro.program(fallback=True)
        def prog(A):
            return {"a": A.sum()}  # dicts are unsupported

        with pytest.warns(RuntimeWarning):
            result = prog(np.ones(3))
        assert result["a"] == 3.0

    def test_gemm_state_count_matches_paper(self):
        """§2.3: gemm decomposes into the four SSA steps before coarsening."""
        @repro.program
        def gemm(alpha: repro.float64, beta: repro.float64,
                 C: repro.float64[4, 4], A: repro.float64[4, 4],
                 B: repro.float64[4, 4]):
            C[:] = alpha * A @ B + beta * C

        uncoarsened = gemm.to_sdfg(simplify=False)
        # init + four operation states (tmp0, tmp1, tmp2, sum) + copy
        assert uncoarsened.number_of_states() >= 5
        coarsened = gemm.to_sdfg(simplify=True)
        assert coarsened.number_of_states() < uncoarsened.number_of_states()
