"""Unit and property tests for the IR optimization passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelc import nvcc
from repro.kernelc import typesys as T
from repro.kernelc.ir import Imm, Instr, Reg
from repro.kernelc.passes.constfold import fold_instr, fold_mul24
from tests.helpers import run_kernel

rng = np.random.default_rng(5)

ints = st.integers(-(2**31), 2**31 - 1)


class TestFoldInstr:
    def _imm(self, v, t=T.S32):
        return Imm(T.convert_const(v, t), t)

    @settings(max_examples=200)
    @given(a=ints, b=ints,
           op=st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]))
    def test_fold_matches_numpy_wraparound(self, a, b, op):
        instr = Instr(op, T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(b)])
        folded = fold_instr(instr)
        fn = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
              "and": np.bitwise_and, "or": np.bitwise_or,
              "xor": np.bitwise_xor}[op]
        with np.errstate(over="ignore"):
            expected = fn(np.int32(a), np.int32(b))
        assert folded is not None
        assert folded.value == int(expected)

    @settings(max_examples=100)
    @given(a=ints, b=ints.filter(lambda v: v != 0))
    def test_fold_division_truncates(self, a, b):
        instr = Instr("div", T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(b)])
        folded = fold_instr(instr)
        expected = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected = -expected
        assert folded.value == T.convert_const(expected, T.S32)

    @given(a=ints)
    def test_fold_div_by_zero_stays_runtime(self, a):
        instr = Instr("div", T.S32, Reg("r1", T.S32),
                      [self._imm(a), self._imm(0)])
        assert fold_instr(instr) is None

    @settings(max_examples=100)
    @given(a=ints, b=ints)
    def test_fold_mul24_semantics(self, a, b):
        def ext24(x):
            x &= 0xFFFFFF
            return x - 0x1000000 if x & 0x800000 else x
        assert fold_mul24(a, b, T.S32) == T.convert_const(
            ext24(a) * ext24(b), T.S32)

    @settings(max_examples=100)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_fold_float_matches_f32(self, a, b):
        instr = Instr("add", T.F32, Reg("f1", T.F32),
                      [self._imm(a, T.F32), self._imm(b, T.F32)])
        folded = fold_instr(instr)
        assert folded.value == float(np.float32(np.float32(a)
                                                + np.float32(b)))

    def test_fold_setp(self):
        instr = Instr("setp", T.S32, Reg("p1", T.BOOL),
                      [self._imm(3), self._imm(5)], cmp="lt")
        assert fold_instr(instr).value is True

    def test_fold_selp(self):
        instr = Instr("selp", T.S32, Reg("r1", T.S32),
                      [self._imm(10), self._imm(20), Imm(False, T.BOOL)])
        assert fold_instr(instr).value == 20

    def test_no_fold_with_register_operand(self):
        instr = Instr("add", T.S32, Reg("r1", T.S32),
                      [Reg("r2", T.S32), self._imm(1)])
        assert fold_instr(instr) is None


class TestStrengthReduction:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(0, 10), seed=st.integers(0, 1000))
    def test_unsigned_divrem_pow2_equivalence(self, k, seed):
        """Strength-reduced div/rem must be bit-exact with hardware."""
        d = 1 << k
        src = """
        __global__ void dr(const unsigned int* x, unsigned int* q,
                           unsigned int* r) {
            int i = threadIdx.x;
            q[i] = x[i] / %du;
            r[i] = x[i] %% %du;
        }
        """ % (d, d)
        local = np.random.default_rng(seed)
        x = local.integers(0, 2**32, 32, dtype=np.uint32)
        q = np.zeros(32, np.uint32)
        r = np.zeros(32, np.uint32)
        (_, q_, r_), _ = run_kernel(src, 1, 32, x, q, r)
        np.testing.assert_array_equal(q_, x // d)
        np.testing.assert_array_equal(r_, x % d)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 8), seed=st.integers(0, 1000))
    def test_signed_div_pow2_fixup(self, k, seed):
        """The signed round-toward-zero fixup sequence must match C."""
        d = 1 << k
        src = """
        __global__ void sd(const int* x, int* q, int* r) {
            int i = threadIdx.x;
            q[i] = x[i] / %d;
            r[i] = x[i] %% %d;
        }
        """ % (d, d)
        local = np.random.default_rng(seed)
        x = local.integers(-(2**20), 2**20, 32, dtype=np.int32)
        q = np.zeros(32, np.int32)
        r = np.zeros(32, np.int32)
        (_, q_, r_), _ = run_kernel(src, 1, 32, x, q, r)
        expected_q = np.where(x >= 0, x // d, -((-x) // d))
        np.testing.assert_array_equal(q_, expected_q.astype(np.int32))
        np.testing.assert_array_equal(r_, (x - expected_q * d)
                                      .astype(np.int32))

    def test_div_pow2_emits_no_divide(self):
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 16u;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "shr" in ptx

    def test_non_pow2_divide_becomes_mulhi(self):
        """Non-power-of-two constants take the magic-number path."""
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 7u;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "mulhi" in ptx

    def test_non_pow2_divide_survives_at_o1(self):
        """Magic division is an -O2 optimization; -O1 keeps the div."""
        src = """
        __global__ void k(const unsigned int* x, unsigned int* o) {
            o[threadIdx.x] = x[threadIdx.x] / 7u;
        }
        """
        assert "div" in nvcc(src, opt_level=1).kernel("k").to_ptx()

    def test_float_div_pow2_becomes_mul(self):
        src = """
        __global__ void k(const float* x, float* o) {
            o[threadIdx.x] = x[threadIdx.x] / 8.0f;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "div" not in ptx and "mul" in ptx

    def test_mul_pow2_becomes_shift(self):
        src = """
        __global__ void k(const int* x, int* o) {
            o[threadIdx.x] = x[threadIdx.x] * 32;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "shl" in ptx


class TestUnrolling:
    def test_constant_trip_count_unrolls(self):
        src = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            for (int i = 0; i < 8; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        ptx = nvcc(src).kernel("k").to_ptx()
        assert "bra" not in ptx

    def test_runtime_trip_count_stays_rolled(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            float acc = 0.0f;
            for (int i = 0; i < n; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        assert "bra" in nvcc(src).kernel("k").to_ptx()

    def test_pragma_unroll_budget(self):
        """'#pragma unroll 1' disables unrolling of a constant loop."""
        src = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            #pragma unroll 1
            for (int i = 0; i < 8; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        # trip count 8 > budget 1 -> stays a loop
        assert "bra" in nvcc(src).kernel("k").to_ptx()

    def test_loop_with_break_not_unrolled_but_correct(self):
        src = """
        __global__ void k(const int* x, int* o) {
            int acc = 0;
            for (int i = 0; i < 8; i++) {
                if (x[i] == 0) break;
                acc += x[i];
            }
            o[threadIdx.x] = acc;
        }
        """
        x = np.array([1, 2, 3, 0, 9, 9, 9, 9], dtype=np.int32)
        o = np.zeros(1, np.int32)
        (_, o_), _ = run_kernel(src, 1, 1, x, o)
        assert o_[0] == 6

    def test_downward_loop_unrolls(self):
        src = """
        __global__ void k(int* o) {
            int acc = 0;
            for (int i = 8; i > 0; i--) acc += i;
            o[threadIdx.x] = acc;
        }
        """
        mod = nvcc(src)
        assert "bra" not in mod.kernel("k").to_ptx()
        o = np.zeros(1, np.int32)
        (o_,), _ = run_kernel(src, 1, 1, o)
        assert o_[0] == 36

    def test_const_local_bound_unrolls(self):
        """const int n = MACRO*2; for(i<n) — folds through const locals."""
        src = """
        __global__ void k(const float* x, float* o) {
            const int n = 3 * 2;
            float acc = 0.0f;
            for (int i = 0; i < n; i++) acc += x[i];
            o[threadIdx.x] = acc;
        }
        """
        assert "bra" not in nvcc(src).kernel("k").to_ptx()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 30), seed=st.integers(0, 100))
    def test_unrolled_equals_rolled(self, n, seed):
        """Property: unrolling never changes results."""
        src_template = """
        __global__ void k(const float* x, float* o) {
            float acc = 0.0f;
            for (int i = 0; i < %s; i++) acc += x[i] * (float)(i + 1);
            o[threadIdx.x] = acc;
        }
        """
        local = np.random.default_rng(seed)
        x = local.random(max(n, 1)).astype(np.float32)
        o1 = np.zeros(1, np.float32)
        o2 = np.zeros(1, np.float32)
        (_, r1), _ = run_kernel(src_template % n, 1, 1, x, o1)
        # force rolled via a runtime bound
        src_rt = src_template % "nn"
        src_rt = src_rt.replace("float* o)", "float* o, int nn)")
        (_, r2), _ = run_kernel(src_rt, 1, 1, x, o2, n)
        np.testing.assert_array_equal(r1, r2)


class TestDCEAndRegisters:
    def test_dead_code_removed(self):
        src = """
        __global__ void k(const float* x, float* o) {
            float unused = x[0] * 3.0f + 7.0f;
            float kept = x[1];
            o[threadIdx.x] = kept;
        }
        """
        mod = nvcc(src)
        # Only one global load should remain.
        loads = [i for i in mod.kernel("k").ir.instructions()
                 if i.op == "ld" and i.space == "global"]
        assert len(loads) == 1

    def test_cse_shares_address_math(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            o[i] = x[i] + x[i];
        }
        """
        kernel = nvcc(src).kernel("k")
        loads = [i for i in kernel.ir.instructions()
                 if i.op == "ld" and i.space == "global"]
        # x[i] twice: CSE shares the address; both loads remain (memory
        # ops are not merged) but address math is computed once.
        adds64 = [i for i in kernel.ir.instructions()
                  if i.op == "add" and i.dtype.bits == 64]
        assert len(adds64) <= 2  # one per distinct base pointer

    def test_unreachable_branch_removed(self):
        src = """
        __global__ void k(float* o) {
            if (0) { o[0] = 1.0f; }
            else { o[1] = 2.0f; }
        }
        """
        kernel = nvcc(src).kernel("k")
        stores = [i for i in kernel.ir.instructions() if i.op == "st"]
        assert len(stores) == 1

    def test_register_count_grows_with_blocking(self):
        src = """
        __global__ void k(const float* x, float* o, int n) {
            float acc[RB];
            for (int r = 0; r < RB; r++) acc[r] = 0.0f;
            for (int i = 0; i < n; i++)
                for (int r = 0; r < RB; r++)
                    acc[r] += x[i * RB + r];
            for (int r = 0; r < RB; r++) o[r] = acc[r];
        }
        """
        regs = [nvcc(src, defines={"RB": rb}).kernel("k").reg_count
                for rb in (2, 4, 8, 16)]
        assert regs == sorted(regs)
        assert regs[-1] - regs[0] >= 10


class TestSparseMiddleEnd:
    """The def-use worklist pass (``propagate_kernel``) on hand-written IR."""

    S32 = T.S32

    def reg(self, name, ctype=None):
        return Reg(name, ctype or self.S32)

    def imm(self, value, ctype=None):
        return Imm(value, ctype or self.S32)

    def kernel(self, *body):
        from repro.kernelc.ir import IRKernel
        return IRKernel("k", [], list(body))

    def load(self, dst, addr):
        return Instr("ld", self.S32, dst, [self.imm(addr, T.U64)],
                     space="global")

    def store(self, addr, value):
        return Instr("st", self.S32, None, [self.imm(addr, T.U64), value],
                     space="global")

    def stores(self, kernel):
        return [i.srcs[1] for i in kernel.instructions() if i.op == "st"]

    def test_loop_carried_register_stays_non_constant(self):
        from repro.kernelc.ir import Label
        from repro.kernelc.passes import propagate_kernel
        r1, p2 = self.reg("r1"), self.reg("p2", T.BOOL)
        k = self.kernel(
            Instr("mov", self.S32, r1, [self.imm(0)]),
            Label("L"),
            Instr("add", self.S32, r1, [r1, self.imm(1)]),
            Instr("setp", self.S32, p2, [r1, self.imm(10)], cmp="lt"),
            Instr("bra", T.VOID, target="L", pred=p2),
            self.store(0, r1),
            Instr("exit", T.VOID))
        propagate_kernel(k)
        assert self.stores(k) == [r1]
        adds = [i for i in k.instructions() if i.op == "add"]
        assert adds and adds[0].srcs[0] == r1

    def test_redefinition_kills_the_back_edge_definition(self):
        # r1 = r0 flows around the loop, but L redefines r1 = 5 before
        # the store reads it: only the 5 reaches the store.
        from repro.kernelc.ir import Label
        from repro.kernelc.passes import propagate_kernel
        r0, r1, p9 = self.reg("r0"), self.reg("r1"), self.reg("p9", T.BOOL)
        k = self.kernel(
            self.load(r0, 0),
            Instr("setp", self.S32, p9, [r0, self.imm(0)], cmp="eq"),
            Label("L"),
            Instr("mov", self.S32, r1, [self.imm(5)]),
            Instr("bra", T.VOID, target="X", pred=p9),
            self.store(4, r1),
            Label("X"),
            Instr("mov", self.S32, r1, [r0]),
            self.store(8, r1),
            Instr("bra", T.VOID, target="L", pred=p9),
            Instr("exit", T.VOID))
        propagate_kernel(k)
        assert self.stores(k) == [self.imm(5), r1]

    def test_identity_does_not_prove_its_own_trigger_in_a_loop(self):
        # acc stays 0 only if acc * x[i] is 0 because acc is: a fixpoint
        # this pass, like its fold rounds before, must not assume.
        src = """
        __global__ void k(const int* x, int* o, int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) acc = acc * x[i];
            o[0] = acc;
        }
        """
        kernel = nvcc(src).kernel("k")
        assert [i for i in kernel.ir.instructions() if i.op == "mul"]
        assert self.stores(kernel.ir)[0].__class__ is Reg

    def test_predicated_definition_is_bottom(self):
        from repro.kernelc.passes import propagate_kernel
        r0, r2, p1 = self.reg("r0"), self.reg("r2"), self.reg("p1", T.BOOL)
        k = self.kernel(
            self.load(r0, 0),
            Instr("setp", self.S32, p1, [r0, self.imm(0)], cmp="eq"),
            Instr("mov", self.S32, r2, [self.imm(1)]),
            Instr("mov", self.S32, r2, [self.imm(2)], pred=p1),
            self.store(4, r2),
            Instr("exit", T.VOID))
        propagate_kernel(k)
        assert self.stores(k) == [r2]
        assert len([i for i in k.instructions() if i.dst == r2]) == 2

    def test_constant_predicate_folds_branch_and_dead_arm(self):
        from repro.kernelc.ir import Label
        from repro.kernelc.passes import propagate_kernel
        r1, p2 = self.reg("r1"), self.reg("p2", T.BOOL)
        k = self.kernel(
            Instr("mov", self.S32, r1, [self.imm(5)]),
            Instr("setp", self.S32, p2, [r1, self.imm(3)], cmp="gt"),
            Instr("bra", T.VOID, target="ELSE", pred=p2, pred_neg=True),
            self.store(0, self.imm(1)),
            Instr("bra", T.VOID, target="END"),
            Label("ELSE"),
            self.store(0, self.imm(2)),
            Label("END"),
            Instr("exit", T.VOID))
        assert propagate_kernel(k)
        assert [i.op for i in k.instructions()] == ["st", "exit"]
        assert self.stores(k) == [self.imm(1)]

    def test_dead_load_is_deleted(self):
        from repro.kernelc.passes import propagate_kernel
        k = self.kernel(self.load(self.reg("r1"), 0), Instr("exit", T.VOID))
        assert propagate_kernel(k)
        assert [i.op for i in k.instructions()] == ["exit"]

    def test_cross_block_chain_converges_in_one_call(self):
        # The old fold/propagate fixpoint needed three rounds for this:
        # substitute r1 = 0, fold the identity r2 = r0 * 0, fold r3.
        from repro.kernelc.ir import Label
        from repro.kernelc.passes import propagate_kernel
        r0, r1, r2, r3 = (self.reg(n) for n in ("r0", "r1", "r2", "r3"))
        p9 = self.reg("p9", T.BOOL)
        k = self.kernel(
            self.load(r0, 0),
            Instr("mov", self.S32, r1, [self.imm(0)]),
            Instr("setp", self.S32, p9, [r0, self.imm(0)], cmp="eq"),
            Instr("bra", T.VOID, target="B1", pred=p9),
            Label("B1"),
            Instr("mul", self.S32, r2, [r0, r1]),
            Instr("bra", T.VOID, target="B2", pred=p9),
            Label("B2"),
            Instr("add", self.S32, r3, [r2, self.imm(7)]),
            self.store(4, r3),
            Instr("exit", T.VOID))
        assert propagate_kernel(k)
        assert self.stores(k) == [self.imm(7)]
        assert not [i for i in k.instructions() if i.op in ("mul", "add")]
        listing = k.to_ptx()
        assert not propagate_kernel(k)
        assert k.to_ptx() == listing

    def test_nan_mov_is_a_fixpoint(self):
        from repro.kernelc.passes.constfold import simplify
        nan = Imm(T.convert_const(float("nan"), T.F32), T.F32)
        assert simplify(Instr("mov", T.F32, Reg("f1", T.F32), [nan])) is None

    @pytest.mark.parametrize("opt_level", [1, 2, 3])
    def test_nan_constant_folds_to_a_fixpoint(self, opt_level):
        # nan != nan, yet folding ``mov q, nan`` must stop; the listing
        # is the one the fold/propagate rounds produced before.
        src = ("__global__ void k(float* o) "
               "{ float q = 0.0f / 0.0f; o[0] = q; }")
        store = ("\tmov.u64 %rd2, %rd1;\n\tst.global.f32 [%rd2], 0Fnan;\n"
                 if opt_level == 1 else "\tst.global.f32 [%rd1], 0Fnan;\n")
        expected = (".entry k (.param u64 o)\n{\n"
                    "\tld.param.u64 %rd1, [%o];\n" + store + "\texit;\n}")
        assert nvcc(src, opt_level=opt_level).kernel("k").to_ptx() \
            == expected

    @pytest.mark.parametrize("defines", [{}, {"RB": 4}])
    def test_reoptimizing_is_byte_identical(self, defines):
        from repro.kernelc.passes import optimize_kernel
        src = """
        __global__ void k(const float* x, float* o, int n) {
        #ifdef RB
            float acc[RB];
            for (int r = 0; r < RB; r++) acc[r] = 0.0f;
            for (int i = 0; i < n; i++)
                for (int r = 0; r < RB; r++) acc[r] += x[i * RB + r];
            for (int r = 0; r < RB; r++) o[r] = acc[r] / (r + 3);
        #else
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) o[i] = x[i] * 2.0f + x[i % 7];
        #endif
        }
        """
        kernel = nvcc(src, defines=defines).kernel("k")
        listing, regs = kernel.to_ptx(), kernel.reg_count
        optimize_kernel(kernel.ir)
        assert kernel.to_ptx() == listing
        assert kernel.reg_count == regs
