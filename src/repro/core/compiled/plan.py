"""Lowering terms into flat execution plans.

A :class:`Plan` is a preorder array of instruction tuples.  The plan of an
interned term is built once and cached by intern id in a bounded LRU (the
same shape as the intern-id memos of :mod:`repro.core.ast`); an un-interned
term is lowered on every call, uncached.  Each instruction is
``(opcode, operand...)``; binder occurrences are numbered into **slots** at
lowering time, so variable references compile to a static slot index (the
innermost enclosing binder for the name) instead of a runtime scope-dict
lookup, and free variables compile to a by-name skeleton lookup.

The instruction stream is exactly the firing order of the interpreted
engine's explicit-stack walk: leaf opcodes push a judgement, ``*_BIND``
opcodes run between a binder's value and body (peeking the value judgement
to type the slot), and ``*_EXIT`` opcodes fire the rule once the premises
sit on top of the result stack.  Plans are configuration-independent:
primitive operations are stored by name and resolved against the signature
at execution time, and the ``rnd``/case-guard grades are read from the
config when the plan runs.
"""

from __future__ import annotations

from typing import List, Tuple

from .. import ast as A
from ..errors import TypeInferenceError
from .packed import pack

__all__ = ["Plan", "plan_for", "plan_memo_stats", "clear_plan_memo"]

# Opcodes, ordered roughly by execution frequency on the benchmark families.
OP_VAR_SLOT = 0  # (slot, name)
OP_VAR_FREE = 1  # (name,)
OP_PRIM = 2  # (name,)
OP_TENSOR = 3  # ()
OP_RND = 4  # ()
OP_LETBIND_BIND = 5  # (slot,)
OP_LETBIND_EXIT = 6  # (name,)
OP_LET_BIND = 7  # (slot,)
OP_LET_EXIT = 8  # (name,)
OP_CASE_BIND_L = 9  # (slot,)
OP_CASE_BIND_R = 10  # (slot,)
OP_CASE_EXIT = 11  # (left_name, right_name)
OP_CONST = 12  # ()
OP_UNIT = 13  # ()
OP_ERR = 14  # ()
OP_WITH = 15  # ()
OP_INL = 16  # (other_type,)
OP_INR = 17  # (other_type,)
OP_LAMBDA_ENTER = 18  # (slot, parameter_type)
OP_LAMBDA_EXIT = 19  # (name, parameter_type)
OP_BOX = 20  # (packed_scale,)
OP_RET = 21  # ()
OP_APP = 22  # ()
OP_PROJ = 23  # (index,)
OP_LT_BIND = 24  # (left_slot, right_slot)
OP_LT_EXIT = 25  # (left_name, right_name)
OP_LETBOX_BIND = 26  # (slot,)
OP_LETBOX_EXIT = 27  # (name,)
# Fused superinstructions (peephole over the preorder stream): a two-variable
# pair rule collapses two variable pushes and a merge into one instruction.
OP_WITH_VV = 28  # (var_op, var_op)
OP_TENSOR_VV = 29  # (var_op, var_op)


class Plan:
    """A lowered term: flat instruction list plus the binder-slot count."""

    __slots__ = ("ops", "n_slots")

    def __init__(self, ops: List[Tuple], n_slots: int) -> None:
        self.ops = ops
        self.n_slots = n_slots


#: Plans keyed by intern id; intern ids are never reused, so entries can
#: never go stale and the only invalidation is LRU eviction.
_PLAN_MEMO = A._BoundedMemo(65_536)

#: Marks a name with no enclosing binder in the compile-time scope.
_ABSENT = object()


def plan_for(term: A.Term) -> Plan:
    """The plan of ``term``: memoized by intern id, or lowered afresh.

    A term that arrives un-interned (a fresh parser or compiler tree) is
    lowered directly: interning it only to make a memo key would copy every
    node, and that key could never hit again.
    """
    intern_id = getattr(term, "_intern_id", None)
    if intern_id is None:
        return _lower(term)
    plan = _PLAN_MEMO.get(intern_id)
    if plan is None:
        plan = _lower(term)
        _PLAN_MEMO.put(intern_id, plan)
    return plan


def plan_memo_stats():
    return _PLAN_MEMO.stats()


def clear_plan_memo() -> None:
    _PLAN_MEMO.clear()


def _lower(term: A.Term) -> Plan:
    ops: List[Tuple] = []
    emit = ops.append
    scope = {}  # name -> innermost slot index, maintained like the run scope
    n_slots = 0

    def enter(name: str):
        nonlocal n_slots
        saved = scope.get(name, _ABSENT)
        slot = n_slots
        n_slots += 1
        scope[name] = slot
        return slot, (name, saved)

    def leave(saved) -> None:
        name, previous = saved
        if previous is _ABSENT:
            del scope[name]
        else:
            scope[name] = previous

    # The frame stack mirrors the interpreted engine's walk exactly, so the
    # instruction stream fires rules in the same DFS order (same premise
    # order, same error order).
    stack: List[Tuple[A.Term, int, object]] = [(term, 0, None)]
    while stack:
        node, stage, aux = stack.pop()
        cls = type(node)
        if cls is A.Var:
            slot = scope.get(node.name, _ABSENT)
            if slot is _ABSENT:
                emit((OP_VAR_FREE, node.name))
            else:
                emit((OP_VAR_SLOT, slot, node.name))
        elif cls is A.Const:
            emit((OP_CONST,))
        elif cls is A.UnitVal:
            emit((OP_UNIT,))
        elif cls is A.Err:
            emit((OP_ERR,))
        elif cls is A.Op:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_PRIM, node.name))
        elif cls is A.TensorPair:
            if stage == 0:
                stack += ((node, 1, None), (node.right, 0, None), (node.left, 0, None))
            else:
                emit((OP_TENSOR,))
        elif cls is A.WithPair:
            if stage == 0:
                stack += ((node, 1, None), (node.right, 0, None), (node.left, 0, None))
            else:
                emit((OP_WITH,))
        elif cls is A.Inl:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_INL, node.other_type))
        elif cls is A.Inr:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_INR, node.other_type))
        elif cls is A.Lambda:
            if stage == 0:
                slot, saved = enter(node.parameter)
                emit((OP_LAMBDA_ENTER, slot, node.parameter_type))
                stack += ((node, 1, saved), (node.body, 0, None))
            else:
                leave(aux)
                emit((OP_LAMBDA_EXIT, node.parameter, node.parameter_type))
        elif cls is A.Box:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_BOX, pack(node.scale)))
        elif cls is A.Rnd:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_RND,))
        elif cls is A.Ret:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_RET,))
        elif cls is A.App:
            if stage == 0:
                stack += (
                    (node, 1, None),
                    (node.argument, 0, None),
                    (node.function, 0, None),
                )
            else:
                emit((OP_APP,))
        elif cls is A.Proj:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            else:
                emit((OP_PROJ, node.index))
        elif cls is A.LetTensor:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            elif stage == 1:
                left_slot, saved_left = enter(node.left_var)
                right_slot, saved_right = enter(node.right_var)
                emit((OP_LT_BIND, left_slot, right_slot))
                stack += ((node, 2, (saved_left, saved_right)), (node.body, 0, None))
            else:
                saved_left, saved_right = aux
                leave(saved_right)
                leave(saved_left)
                emit((OP_LT_EXIT, node.left_var, node.right_var))
        elif cls is A.Case:
            if stage == 0:
                stack += ((node, 1, None), (node.scrutinee, 0, None))
            elif stage == 1:
                slot, saved = enter(node.left_var)
                emit((OP_CASE_BIND_L, slot))
                stack += ((node, 2, saved), (node.left_body, 0, None))
            elif stage == 2:
                leave(aux)
                slot, saved = enter(node.right_var)
                emit((OP_CASE_BIND_R, slot))
                stack += ((node, 3, saved), (node.right_body, 0, None))
            else:
                leave(aux)
                emit((OP_CASE_EXIT, node.left_var, node.right_var))
        elif cls is A.LetBox:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            elif stage == 1:
                slot, saved = enter(node.variable)
                emit((OP_LETBOX_BIND, slot))
                stack += ((node, 2, saved), (node.body, 0, None))
            else:
                leave(aux)
                emit((OP_LETBOX_EXIT, node.variable))
        elif cls is A.LetBind:
            if stage == 0:
                stack += ((node, 1, None), (node.value, 0, None))
            elif stage == 1:
                slot, saved = enter(node.variable)
                emit((OP_LETBIND_BIND, slot))
                stack += ((node, 2, saved), (node.body, 0, None))
            else:
                leave(aux)
                emit((OP_LETBIND_EXIT, node.variable))
        elif cls is A.Let:
            if stage == 0:
                stack += ((node, 1, None), (node.bound, 0, None))
            elif stage == 1:
                slot, saved = enter(node.variable)
                emit((OP_LET_BIND, slot))
                stack += ((node, 2, saved), (node.body, 0, None))
            else:
                leave(aux)
                emit((OP_LET_EXIT, node.variable))
        else:
            raise TypeInferenceError(
                f"no inference rule for term node {cls.__name__}"
            )
    return Plan(_fuse(ops), n_slots)


def _fuse(ops: List[Tuple]) -> List[Tuple]:
    """Peephole pass: collapse ``Var, Var, With/Tensor`` runs into one op.

    Pairs of two variables dominate the benchmark families; fusing them
    keeps the same premise order (left variable resolved before the right,
    so unbound-variable errors fire in DFS order) while skipping two stack
    round-trips and a context merge per pair.
    """
    fused: List[Tuple] = []
    append = fused.append
    i = 0
    n = len(ops)
    while i + 2 < n:
        op = ops[i]
        code = op[0]
        if code == OP_VAR_SLOT or code == OP_VAR_FREE:
            second = ops[i + 1]
            if second[0] == OP_VAR_SLOT or second[0] == OP_VAR_FREE:
                pair = ops[i + 2][0]
                if pair == OP_WITH:
                    append((OP_WITH_VV, op, second))
                    i += 3
                    continue
                if pair == OP_TENSOR:
                    append((OP_TENSOR_VV, op, second))
                    i += 3
                    continue
        append(op)
        i += 1
    fused.extend(ops[i:])
    return fused
