"""Local constant folding and algebraic simplification.

Folds pure instructions whose operands are all immediates into ``mov``
of the computed constant, and applies the usual algebraic identities
(``x+0``, ``x*1``, ``x*0``, ``x<<0``...).  Constant folding is the
workhorse of kernel specialization: once ``-D`` macros pin parameter
values, whole address-computation chains collapse into immediates
(compare Appendices C and D of the dissertation).  Both rules work on
operand *values*, so the sparse propagator evaluates them directly.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.kernelc import typesys as T
from repro.kernelc.codegen import fold_binary, fold_unary_math
from repro.kernelc.ir import PURE_OPS, Imm, Instr, IRKernel

_BIN_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
            "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>"}
_CMP = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b}
_MATH = {"exp2": lambda x: 2.0 ** x, "lg2": math.log2, "sin": math.sin,
         "cos": math.cos}

#: An operand value that is not a known constant (see :func:`identity`).
UNKNOWN = object()


def fold_mul24(a: int, b: int, ctype) -> int:
    """Exact __[u]mul24 semantics: multiply the low 24 bits."""
    if ctype.signed:
        def ext(x):
            x &= 0xFFFFFF
            return x - 0x1000000 if x & 0x800000 else x
        return T.convert_const(ext(int(a)) * ext(int(b)), ctype)
    return T.convert_const((int(a) & 0xFFFFFF) * (int(b) & 0xFFFFFF), ctype)


def fold_value(op: str, t, cmp: str, vals) -> Optional[object]:
    """Value of pure *op* of type *t* over constant *vals*, or None."""
    a = vals[0]
    if op == "mov":
        return T.convert_const(a, t)
    if op == "cvt":
        if cmp.endswith(".rn") and t.is_integer:
            a = round(a)
        elif t.is_integer and isinstance(a, float):
            a = math.trunc(a)  # C float->int truncates
        return T.convert_const(a, t)
    if op in _BIN_OPS:
        if t.is_bool and op in ("and", "or", "xor"):
            a, b = bool(a), bool(vals[1])
            return {"and": a and b, "or": a or b, "xor": a != b}[op]
        return fold_binary(_BIN_OPS[op], a, vals[1], t)
    if op == "mul24":
        return fold_mul24(a, vals[1], t)
    if op == "mulhi":
        return T.convert_const((int(a) * int(vals[1])) >> 32, t)
    if op == "setp":
        return bool(_CMP[cmp](a, vals[1]))
    if op == "selp":
        return T.convert_const(a if vals[2] else vals[1], t)
    if op in ("min", "max"):
        return T.convert_const((min if op == "min" else max)(a, vals[1]), t)
    if op == "neg":
        return T.convert_const(-a, t)
    if op == "not":
        return (not a) if t.is_bool else T.convert_const(~int(a), t)
    if op in ("mad", "fma"):
        prod = fold_binary("*", a, vals[1], t)
        return None if prod is None else fold_binary("+", prod, vals[2], t)
    if op in ("sqrt", "rsqrt", "abs", "floor", "ceil", "round", "trunc"):
        return fold_unary_math(op, a, t)
    if op == "rcp":
        return None if a == 0 else T.convert_const(1.0 / a, t)
    if op in _MATH:
        try:
            return T.convert_const(_MATH[op](a), t)
        except (ValueError, OverflowError):
            return None
    return None


def fold_instr(instr: Instr) -> Optional[Imm]:
    """Fold *instr* to an immediate result, or return None."""
    op, t = instr.op, instr.dtype
    if op not in PURE_OPS or any(s.__class__ is not Imm for s in instr.srcs):
        return None
    value = fold_value(op, t, instr.cmp, [s.value for s in instr.srcs])
    return None if value is None else Imm(value, _result_type(op, t))


def _result_type(op: str, t):
    boolean = op == "setp" or (t.is_bool and op in ("and", "or", "xor",
                                                    "not"))
    return T.BOOL if boolean else t


def identity(op: str, t, vals):
    """Apply algebraic identities over operand values.

    *vals* holds each operand's constant value or :data:`UNKNOWN`.
    Returns the index of the operand the result copies, an :class:`Imm`
    the result equals, or None.
    """
    if len(vals) != 2 or t.is_bool:
        return None
    a, b = vals
    if op == "add":
        if b == 0:
            return 0
        if a == 0 and not T.is_pointer(t):
            return 1
    elif op == "sub":
        if b == 0:
            return 0
    elif op == "mul":
        if b == 1:
            return 0
        if a == 1:
            return 1
        if (b == 0 or a == 0) and t.is_integer:
            return _zero(t)
    elif op == "div":
        if b == 1:
            return 0
    elif op in ("shl", "shr"):
        if b == 0:
            return 0
    elif op == "and":
        if b == 0 or a == 0:
            return _zero(t)
        if t.is_integer and b == (1 << t.bits) - 1:
            return 0
    elif op == "or":
        if b == 0:
            return 0
        if a == 0:
            return 1
    elif op == "rem":
        if b == 1 and t.is_integer:
            return _zero(t)
    return None


def _zero(t) -> Imm:
    return Imm(T.convert_const(0, t), t)


def simplify(instr: Instr) -> Optional[Instr]:
    """One folding step on *instr*: its replacement, or None."""
    op, t, srcs = instr.op, instr.dtype, instr.srcs
    vals = [s.value if s.__class__ is Imm else UNKNOWN for s in srcs]
    folded = None
    if op in PURE_OPS and UNKNOWN not in vals:
        value = fold_value(op, t, instr.cmp, vals)
        if value is not None:
            folded = Imm(value, _result_type(op, t))
            if op == "mov" and _same_imm(srcs[0], folded):
                return None
    if folded is None and op in PURE_OPS:
        found = identity(op, t, vals)
        folded = srcs[found] if found.__class__ is int else found
    if folded is None:
        return None
    return Instr("mov", t, instr.dst, [folded], pred=instr.pred,
                 pred_neg=instr.pred_neg, line=instr.line)


def _same_imm(a: Imm, b: Imm) -> bool:
    """Whether immediate *a* already is *b*; a NaN counts as itself
    (``nan != nan``), so folding ``mov r, nan`` reaches a fixpoint."""
    value = a.value
    return a.ctype == b.ctype and (value == b.value or (
        value != value and b.value != b.value))


def fold_kernel(kernel: IRKernel) -> bool:
    """Fold constants throughout *kernel*.  Returns True if changed."""
    changed = False
    for i, item in enumerate(kernel.body):
        replacement = simplify(item) if item.__class__ is Instr else None
        if replacement is not None:
            kernel.body[i], changed = replacement, True
    return changed
