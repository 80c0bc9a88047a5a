"""The semantics core against independent scalar references.

Every engine runs its instructions through :mod:`repro.gpusim.semantics`,
so the serial ≡ batched ≡ traced suites cannot catch a wrong op value:
all three would agree on it.  Here each op of the core's tables (plus
the arithmetic ``_execute`` handles inline, and ``cvt``) runs on random
and edge-case lane vectors through ``LaneCore._execute`` and is checked
lane by lane against a pure-Python scalar model of the instruction:
integers wrap modulo 2**bits, float32 results are Python doubles
rounded once to single precision (exact for + - * / and sqrt), and
``fma`` is evaluated unfused, as the engines model it.

The gang-wide ordered ``atomicAdd`` is checked the same way against a
member-by-member ``np.add.at`` loop.
"""

import math
import struct
import zlib

import numpy as np
import pytest

from repro.gpusim.executor import PlannedInstr
from repro.gpusim.semantics import (_BINARY, _CMP_FN, _UNARY, LaneCore,
                                    _ordered_atomic_add)
from repro.kernelc import typesys as T

INTS = [T.S32, T.U32]
FLOATS = [T.F32, T.F64]
NUMERIC = INTS + FLOATS


# -- scalar model ------------------------------------------------------


def _wrap(v: int, t) -> int:
    v &= (1 << t.bits) - 1
    if t.signed and v >> (t.bits - 1):
        v -= 1 << t.bits
    return v


def _f32(x: float) -> float:
    """Round a double to the nearest float32 (ties to even)."""
    if math.isnan(x) or math.isinf(x):
        return x
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def _round_to(t, x: float) -> float:
    return _f32(x) if t.bits == 32 else x


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _keep_zero_sign(fn):
    """floor/ceil/round/trunc: integral result, signed zero kept."""
    def rounded(a: float) -> float:
        if not math.isfinite(a):
            return a
        r = float(fn(a))
        return math.copysign(0.0, a) if r == 0.0 else r
    return rounded


def _fmin(a, b):
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def _fmax(a, b):
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _sqrt(a: float) -> float:
    return math.nan if a < 0 or math.isnan(a) else math.sqrt(a)


def _mul24(a: int, b: int, t) -> int:
    a &= 0xFFFFFF
    b &= 0xFFFFFF
    if t.signed:
        a = a - 0x1000000 if a & 0x800000 else a
        b = b - 0x1000000 if b & 0x800000 else b
    return _wrap(a * b, t)


def _shift(a: int, b: int, t, left: bool) -> int:
    s = b & (t.bits - 1)
    return _wrap(a << s, t) if left else a >> s


def _binary(op, a, b, t):
    """Scalar reference for a two-operand op of type *t*."""
    if t.is_bool:
        return {"and": a and b, "or": a or b, "xor": a != b}[op]
    if t.is_integer:
        if op == "add":
            return _wrap(a + b, t)
        if op == "sub":
            return _wrap(a - b, t)
        if op == "mul":
            return _wrap(a * b, t)
        if op == "div":
            return _wrap(_trunc_div(a, b or 1), t)
        if op == "rem":
            b = b or 1
            return _wrap(a - _wrap(_trunc_div(a, b), t) * b, t)
        if op == "mulhi":
            return _wrap((a * b) >> 32, t)
        if op == "mul24":
            return _mul24(a, b, t)
        if op in ("shl", "shr"):
            return _shift(a, b, t, op == "shl")
        if op == "and":
            return _wrap(a & b, t)
        if op == "or":
            return _wrap(a | b, t)
        if op == "xor":
            return _wrap(a ^ b, t)
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
    else:
        if op == "add":
            return _round_to(t, a + b)
        if op == "sub":
            return _round_to(t, a - b)
        if op == "mul":
            return _round_to(t, a * b)
        if op == "div":
            return _round_to(t, _fdiv(a, b))
        if op == "min":
            return _fmin(a, b)
        if op == "max":
            return _fmax(a, b)
    raise AssertionError(f"no reference for {op} on {t.name}")


_FLOAT_UNARY = {
    "neg": lambda a: -a,
    "abs": abs,
    "sqrt": _sqrt,
    "floor": _keep_zero_sign(math.floor),
    "ceil": _keep_zero_sign(math.ceil),
    "round": _keep_zero_sign(round),   # half to even, like rint
    "trunc": _keep_zero_sign(math.trunc),
    "exp2": lambda a: 2.0 ** a,
    "lg2": lambda a: (math.nan if a < 0 else -math.inf if a == 0
                      else math.log2(a)),
    "sin": math.sin,
    "cos": math.cos,
}

#: Results of these are libm-accurate, not correctly rounded.
_INEXACT = {"exp2", "lg2", "sin", "cos"}


def _unary(op, a, t):
    if t.is_bool:
        assert op == "not"
        return not a
    if t.is_integer:
        if op == "neg":
            return _wrap(-a, t)
        if op == "not":
            return _wrap(~a, t)
        if op == "abs":
            return _wrap(abs(a), t)
        raise AssertionError(f"no reference for {op} on {t.name}")
    if op == "rsqrt":
        return _round_to(t, _fdiv(1.0, _round_to(t, _sqrt(a))))
    if op == "rcp":
        return _round_to(t, _fdiv(1.0, a))
    return _round_to(t, _FLOAT_UNARY[op](a))


def _cvt(a, src, dst, rn: bool):
    if dst.is_integer:
        if src.is_float:
            if not math.isfinite(a):
                return 0
            a = round(a) if rn else math.trunc(a)
        return _wrap(int(a), dst)
    return _round_to(dst, float(a))


_CMP_REF = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
            "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
            "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b}

#: Which types each table op is defined on (codegen's usage).
BINARY_TYPES = {
    "mul24": INTS, "mulhi": INTS, "rem": INTS, "shl": INTS, "shr": INTS,
    "div": NUMERIC, "min": NUMERIC, "max": NUMERIC,
    "and": INTS + [T.BOOL], "or": INTS + [T.BOOL], "xor": INTS + [T.BOOL],
}
UNARY_TYPES = {"neg": NUMERIC, "abs": NUMERIC, "not": INTS + [T.BOOL]}
UNARY_TYPES.update({op: FLOATS for op in _UNARY if op not in UNARY_TYPES})


# -- lane vectors ------------------------------------------------------


def _rng(*key) -> np.random.Generator:
    """A generator seeded from the test's parameters (stable per run)."""
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _lanes(rng, t, kind="any") -> np.ndarray:
    """32 lanes of type *t*: edge cases first, random values after."""
    dt = t.np_dtype()
    if t.is_bool:
        return rng.random(32) < 0.5
    if t.is_integer:
        info = np.iinfo(dt)
        edges = [0, 1, info.max, info.min, info.max - 1, 2, 3,
                 0x7FFFFF, 0x800000, 0xFFFFFF, 0x1000000]
        if t.signed:
            edges += [-1, -2, -0x800000, -0x800001, info.min + 1]
        if kind == "shift":
            edges = [0, 1, 31, 32, 33, 63, 64, 65, 100, 255]
            if t.signed:
                edges += [-1, -31, -32]
            rnd = rng.integers(0, 200, 32)
        else:
            rnd = rng.integers(int(info.min), int(info.max) + 1, 32,
                               dtype=np.int64)
            rnd[:6] = rng.integers(-50 if t.signed else 0, 50, 6)
        vals = np.array(edges + list(rnd), np.int64)[:32]
        return vals.astype(dt)
    if kind == "positive":
        vals = rng.uniform(0.0, 100.0, 32)
        vals[:4] = [0.0, 1.0, 0.25, 1e-3]
    else:
        vals = rng.normal(0.0, 10.0, 32)
        vals[:8] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.5, -2.5]
        vals[8:12] = rng.uniform(-1e6, 1e6, 4)
    return vals.astype(dt)


# -- one instruction through the core -----------------------------------


class _Plan:
    def __init__(self, dtype):
        self._reg_dtypes = [np.dtype(dtype)]
        self.n_regs = 1


class _Kernel:
    local_bytes = 0


class _Batch:
    kernel = _Kernel()

    def __init__(self, dtype):
        self.plan = _Plan(dtype)


class _Lanes(LaneCore):
    __slots__ = ()


def _run(op, t, *srcs, cmp=None, dst_dtype=None) -> list:
    """Execute *op* of type *t* on constant lane operands, one member."""
    p = PlannedInstr()
    p.op = op
    p.ctype = t
    p.cmp = cmp
    p.space = None
    p.is_bool = t.is_bool
    p.np_dtype = t.np_dtype()
    p.itemsize = t.size
    p.dst = 0
    p.dst_dtype = np.dtype(dst_dtype or p.np_dtype)
    p.srcs = tuple(("c", np.asarray(s), None) for s in srcs)
    p.reg_srcs = ()
    p.cost = 1.0
    w = _Lanes()
    w._init_core(_Batch(p.dst_dtype), np.zeros(1, np.int64), {})
    with np.errstate(all="ignore"):
        w._execute(p, np.ones((1, 32), bool), True)
    assert w.instructions == 1 and w.issue_cycles[0] == 1.0
    out = w.regs[0]
    assert out.dtype == p.dst_dtype
    return np.broadcast_to(out, (1, 32))[0].tolist()


def _same(got, want, inexact=False) -> bool:
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        if inexact and math.isfinite(want):
            return math.isclose(got, want, rel_tol=4e-7, abs_tol=4e-7)
        return got == want and (math.copysign(1.0, got)
                                == math.copysign(1.0, want))
    return got == want


def _check(got, want, inputs, inexact=False, signed_zero=True):
    for lane, (g, w) in enumerate(zip(got, want)):
        ok = _same(g, w, inexact) if signed_zero else (g == w or _same(g, w))
        assert ok, (f"lane {lane}: inputs {[x[lane] for x in inputs]} "
                    f"gave {g!r}, reference {w!r}")


def _params(table):
    return [pytest.param(op, t, id=f"{op}-{t.ptx_suffix()[1:]}")
            for op in sorted(table) for t in table[op]]


# -- tests ---------------------------------------------------------------


def test_every_table_op_has_a_reference():
    assert set(BINARY_TYPES) == set(_BINARY)
    assert set(UNARY_TYPES) == set(_UNARY)
    assert set(_CMP_REF) == set(_CMP_FN)


@pytest.mark.parametrize("op,t", _params(BINARY_TYPES))
def test_binary_table_ops(op, t):
    rng = _rng(op, t.name)
    a = _lanes(rng, t)
    b = _lanes(rng, t, "shift" if op in ("shl", "shr") else "any")
    if op in ("div", "rem") and t.is_integer:
        b[:6] = 0                      # zero divisors
        b[6] = -1 if t.signed else 1   # INT_MIN / -1 with a[3] below
        a[6] = a[3]
    got = _run(op, t, a, b)
    want = [_binary(op, x, y, t) for x, y in zip(a.tolist(), b.tolist())]
    _check(got, want, (a.tolist(), b.tolist()),
           signed_zero=op not in ("min", "max"))


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("t", NUMERIC, ids=lambda t: t.ptx_suffix()[1:])
def test_inline_binary_ops(op, t):
    rng = _rng(op, t.name, 1)
    a, b = _lanes(rng, t), _lanes(rng, t)
    got = _run(op, t, a, b)
    want = [_binary(op, x, y, t) for x, y in zip(a.tolist(), b.tolist())]
    _check(got, want, (a.tolist(), b.tolist()))


@pytest.mark.parametrize("op", ["mad", "fma"])
@pytest.mark.parametrize("t", NUMERIC, ids=lambda t: t.ptx_suffix()[1:])
def test_multiply_add_is_unfused(op, t):
    rng = _rng(op, t.name)
    a, b, c = _lanes(rng, t), _lanes(rng, t), _lanes(rng, t)
    got = _run(op, t, a, b, c)
    want = [_binary("add", _binary("mul", x, y, t), z, t)
            for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    _check(got, want, (a.tolist(), b.tolist(), c.tolist()))


@pytest.mark.parametrize("op,t", _params(UNARY_TYPES))
def test_unary_table_ops(op, t):
    rng = _rng(op, t.name)
    kind = "positive" if op in ("lg2",) else "any"
    a = _lanes(rng, t, kind)
    if op == "exp2":
        a = np.clip(a, -100, 100).astype(a.dtype)
    got = _run(op, t, a)
    want = [_unary(op, x, t) for x in a.tolist()]
    _check(got, want, (a.tolist(),), inexact=op in _INEXACT)


@pytest.mark.parametrize("cmp", sorted(_CMP_FN))
@pytest.mark.parametrize("t", NUMERIC, ids=lambda t: t.ptx_suffix()[1:])
def test_setp(cmp, t):
    rng = _rng(cmp, t.name)
    a, b = _lanes(rng, t), _lanes(rng, t)
    b[20:26] = a[20:26]                # equal pairs
    if t.is_float:
        a[26], b[27], a[28], b[28] = math.nan, math.nan, math.nan, math.nan
    got = _run("setp", t, a, b, cmp=cmp, dst_dtype=np.bool_)
    want = [_CMP_REF[cmp](x, y) for x, y in zip(a.tolist(), b.tolist())]
    _check(got, want, (a.tolist(), b.tolist()))


@pytest.mark.parametrize("t", NUMERIC, ids=lambda t: t.ptx_suffix()[1:])
def test_selp_and_mov(t):
    rng = _rng(t.name)
    a, b, sel = _lanes(rng, t), _lanes(rng, t), rng.random(32) < 0.5
    got = _run("selp", t, a, b, sel)
    want = [x if s else y for x, y, s in zip(a.tolist(), b.tolist(),
                                              sel.tolist())]
    _check(got, want, (a.tolist(), b.tolist(), sel.tolist()))
    _check(_run("mov", t, a), a.tolist(), (a.tolist(),))


_CVT_PAIRS = [(s, d) for s in NUMERIC for d in NUMERIC if s is not d]


@pytest.mark.parametrize("rn", [True, False], ids=["rn", "trunc"])
@pytest.mark.parametrize("src,dst", _CVT_PAIRS,
                         ids=[f"{s.ptx_suffix()[1:]}-{d.ptx_suffix()[1:]}"
                              for s, d in _CVT_PAIRS])
def test_cvt(src, dst, rn):
    rng = _rng(src.name, dst.name, rn)
    a = _lanes(rng, src)
    if src.is_float and dst.is_integer:
        # In range for the destination, plus ties and non-finite lanes
        # (NaN and ±inf convert to 0).
        lo, hi = (-2.0e9, 2.0e9) if dst.signed else (0.0, 4.0e9)
        a = rng.uniform(lo, hi, 32)
        a[:12] = [0.5, 1.5, 2.5, 3.7, 0.0, 1e-3, math.nan, math.inf,
                  -math.inf, 7.49, 7.5, 8.5]
        if dst.signed:
            a[12:16] = [-0.5, -1.5, -2.5, -3.7]
        a = a.astype(src.np_dtype())
    tag = src.ptx_suffix()[1:] + (".rn" if rn else "")
    got = _run("cvt", dst, a, cmp=tag)
    want = [_cvt(x, src, dst, rn) for x in a.tolist()]
    _check(got, want, (a.tolist(),))


# -- ordered atomics ---------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.int32])
@pytest.mark.parametrize("M", [1, 3, 64])
def test_ordered_atomic_add_matches_member_loop(dtype, M):
    rng = np.random.default_rng(M * 7 + np.dtype(dtype).itemsize)
    for trial in range(5):
        n = 24
        # Few addresses, so lanes collide within and across members.
        idx = rng.integers(0, 12, (M, 32))
        mask = rng.random((M, 32)) < 0.7
        if trial == 0:
            mask[:] = True
            idx[:] = 5                # every lane, one address
        if M > 1 and trial == 1:
            mask[1] = False           # an inactive member
        if dtype is np.float32:
            # Mixed magnitudes make the sum order-dependent.
            value = (rng.normal(0, 1, (M, 32))
                     * 10.0 ** rng.integers(-4, 5, (M, 32)))
            base = rng.normal(0, 100, n)
        else:
            value = rng.integers(-2**31, 2**31, (M, 32))
            base = rng.integers(-2**31, 2**31, n)
        value = value.astype(dtype)
        view = base.astype(dtype)
        ref = view.copy()
        ref_old = np.empty((M, 32), dtype)
        with np.errstate(all="ignore"):
            for i in range(M):
                ref_old[i] = ref[idx[i]]
                np.add.at(ref, idx[i][mask[i]], value[i][mask[i]])
            old = _ordered_atomic_add(view, idx, mask, value)
        assert old.tobytes() == ref_old.tobytes(), trial
        assert view.tobytes() == ref.tobytes(), trial
