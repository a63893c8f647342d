"""Tests for the language AST, builders and program validation (Fig. 3)."""

import pytest

from repro.errors import LanguageError
from repro.lang import (
    Assign,
    Atomic,
    BinOp,
    Call,
    Cmp,
    Const,
    If,
    MethodDef,
    ObjectImpl,
    Print,
    Program,
    Return,
    Seq,
    Skip,
    Var,
    While,
    seq,
)
from repro.lang.ast import structural_eq
from repro.lang.builders import (
    E,
    Record,
    add,
    assign,
    cas_cell,
    cas_var,
    eq,
    if_,
    mark_addr,
    mark_bit,
    mark_pack,
    ret,
    while_,
)


class TestExpressions:
    def test_coercion(self):
        assert E(3) == Const(3)
        assert E("x") == Var("x")
        assert E(Const(1)) == Const(1)

    def test_bad_coercion(self):
        with pytest.raises(LanguageError):
            E(3.5)

    def test_unknown_operator_rejected(self):
        with pytest.raises(LanguageError):
            BinOp("**", Const(1), Const(2))
        with pytest.raises(LanguageError):
            Cmp("~", Const(1), Const(2))

    def test_free_vars(self):
        assert add("x", add("y", 1)).free_vars() == {"x", "y"}
        assert eq("a", 3).free_vars() == {"a"}

    def test_str(self):
        assert str(add("x", 1)) == "(x + 1)"
        assert str(eq("x", 0)) == "x = 0"


class TestSeqNormalisation:
    def test_flattens(self):
        s = seq(assign("a", 1), seq(assign("b", 2), assign("c", 3)))
        assert isinstance(s, Seq)
        assert len(s.stmts) == 3

    def test_drops_skip(self):
        s = seq(Skip(), assign("a", 1), Skip())
        assert isinstance(s, Assign)

    def test_empty_is_skip(self):
        assert isinstance(seq(), Skip)


class TestStructuralEq:
    def test_statements_identity_vs_structural(self):
        a = assign("x", 1)
        b = assign("x", 1)
        assert a != b  # statements are identity-hashed
        assert structural_eq(a, b)

    def test_nested(self):
        s1 = if_(eq("x", 0), assign("y", 1), assign("y", 2))
        s2 = if_(eq("x", 0), assign("y", 1), assign("y", 2))
        s3 = if_(eq("x", 0), assign("y", 1), assign("y", 3))
        assert structural_eq(s1, s2)
        assert not structural_eq(s1, s3)

    def test_expressions_structural_by_default(self):
        assert add("x", 1) == add("x", 1)


class TestWalk:
    def test_preorder_enters_atomic_and_ghost_bodies(self):
        from repro.instrument.commands import ghost
        from repro.lang.ast import Load
        from repro.lang.walk import defined_vars, iter_stmts, stmt_vars

        a, b, c = assign("a", 1), assign("b", "x"), assign("c", 2)
        load = Load("d", add("p", 1))
        gload = Load("_g", Var("q"))
        g = ghost(gload)
        branch = if_(eq("x", 0), b, c)
        loop = while_(eq("d", 0), Atomic(load))
        body = seq(a, branch, loop, g)
        assert list(iter_stmts(body)) == [
            body, a, branch, b, c, loop, loop.body, load, g, gload]
        assert defined_vars(body) == {"a", "b", "c", "d", "_g"}
        assert stmt_vars(body) == {"a", "b", "c", "d", "_g", "x", "p", "q"}


class TestCasBuilders:
    def test_cas_var_shape(self):
        stmt = cas_var("b", "S", "t", "x")
        assert isinstance(stmt, Atomic)
        assert isinstance(stmt.body, If)

    def test_cas_cell_shape(self):
        stmt = cas_cell("b", add("x", 1), "t", "n")
        assert isinstance(stmt, Atomic)

    def test_extra_statements_included(self):
        extra = assign("z", 9)
        stmt = cas_var("b", "S", "t", "x", extra)
        assert extra in stmt.body.stmts


class TestRecord:
    def test_offsets(self):
        node = Record("node", "val", "next")
        assert node.size == 2
        assert node.offset("val") == 0
        assert node.offset("next") == 1

    def test_unknown_field(self):
        node = Record("node", "val")
        with pytest.raises(LanguageError):
            node.offset("next")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(LanguageError):
            Record("r", "a", "a")

    def test_load_store_addresses(self):
        node = Record("node", "val", "next")
        assert str(node.load("t", "x", "next")) == "t := [(x + 1)]"
        assert str(node.store("x", "val", 5)) == "[x] := 5"

    def test_alloc_defaults(self):
        node = Record("node", "val", "next")
        stmt = node.alloc("x", val="v")
        assert [str(e) for e in stmt.inits] == ["v", "0"]

    def test_alloc_unknown_field(self):
        node = Record("node", "val")
        with pytest.raises(LanguageError):
            node.alloc("x", nxt=1)


class TestMarkBits:
    def test_pack_unpack_strs(self):
        assert str(mark_pack("p", 1)) == "((p * 2) + 1)"
        assert str(mark_addr("m")) == "(m / 2)"
        assert str(mark_bit("m")) == "(m % 2)"


class TestMethodValidation:
    def test_param_shadowing_local_rejected(self):
        with pytest.raises(LanguageError):
            MethodDef("f", "x", ("x",), ret(0))

    def test_nested_calls_rejected(self):
        body = seq(Call("r", "g", Const(0)), ret(0))
        with pytest.raises(LanguageError):
            ObjectImpl({"f": MethodDef("f", "x", (), body)})

    def test_print_in_method_rejected(self):
        body = seq(Print(Const(1)), ret(0))
        with pytest.raises(LanguageError):
            ObjectImpl({"f": MethodDef("f", "x", (), body)})

    def test_nested_atomic_rejected(self):
        body = Atomic(Atomic(assign("x", 1)))
        with pytest.raises(LanguageError):
            ObjectImpl({"f": MethodDef("f", "x", (), seq(body, ret(0)))})

    def test_return_in_atomic_rejected(self):
        body = Atomic(Return(Const(0)))
        with pytest.raises(LanguageError):
            ObjectImpl({"f": MethodDef("f", "x", (), body)})

    def test_name_mismatch_rejected(self):
        with pytest.raises(LanguageError):
            ObjectImpl({"g": MethodDef("f", "x", (), ret(0))})


class TestProgramValidation:
    def _impl(self):
        return ObjectImpl({"f": MethodDef("f", "x", (), ret(0))})

    def test_client_return_rejected(self):
        with pytest.raises(LanguageError):
            Program(self._impl(), (Return(Const(0)),))

    def test_undeclared_method_rejected(self):
        with pytest.raises(LanguageError):
            Program(self._impl(), (Call("r", "g", Const(0)),))

    def test_no_clients_rejected(self):
        with pytest.raises(LanguageError):
            Program(self._impl(), ())

    def test_thread_ids(self):
        prog = Program(self._impl(), (Skip(), Skip(), Skip()))
        assert prog.thread_ids == (1, 2, 3)
