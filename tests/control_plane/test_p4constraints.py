"""Unit tests for the P4-constraints language (paper §6.1.1)."""

import pytest

from repro.control_plane.p4constraints import (
    ConstraintError,
    constraint_terms,
    parse_constraint,
)
from repro.smt import Solver, terms as T


def kv(widths: dict[str, int]):
    return {name: T.bv_var(f"key::{name}", w) for name, w in widths.items()}


def check(constraint, key_vars, assignments):
    """Solve constraint && (key == value for each pinned key)."""
    s = Solver()
    for term in constraint_terms(constraint, key_vars):
        s.add(term)
    pins = [
        T.eq(key_vars[name], T.bv_const(value, key_vars[name].width))
        for name, value in assignments.items()
    ]
    return s.check(*pins)


def test_parse_simple():
    tree = parse_constraint("type == 0xBEEF")
    assert tree[0] == "cmp"


def test_equality_constraint():
    keys = kv({"type": 16})
    assert check("type == 0xBEEF", keys, {"type": 0xBEEF}) == "sat"
    assert check("type == 0xBEEF", keys, {"type": 0x0800}) == "unsat"


def test_disjunction():
    keys = kv({"type": 16})
    c = "type == 1 || type == 2"
    assert check(c, keys, {"type": 1}) == "sat"
    assert check(c, keys, {"type": 2}) == "sat"
    assert check(c, keys, {"type": 3}) == "unsat"


def test_conjunction_and_negation():
    keys = kv({"a": 8, "b": 8})
    c = "a != 0 && !(b == 5)"
    assert check(c, keys, {"a": 1, "b": 4}) == "sat"
    assert check(c, keys, {"a": 0, "b": 4}) == "unsat"
    assert check(c, keys, {"a": 1, "b": 5}) == "unsat"


def test_ordering_operators():
    keys = kv({"port": 9})
    c = "port >= 10 && port < 100"
    assert check(c, keys, {"port": 10}) == "sat"
    assert check(c, keys, {"port": 99}) == "sat"
    assert check(c, keys, {"port": 9}) == "unsat"
    assert check(c, keys, {"port": 100}) == "unsat"


def test_qualified_names_match_last_component():
    keys = kv({"hdr.ethernet.ether_type": 16})
    c = "ether_type == 0x0800"
    assert check(c, keys, {"hdr.ethernet.ether_type": 0x0800}) == "sat"


def test_parentheses():
    keys = kv({"a": 8})
    c = "(a == 1 || a == 2) && a != 2"
    assert check(c, keys, {"a": 1}) == "sat"
    assert check(c, keys, {"a": 2}) == "unsat"


def test_true_false_literals():
    keys = kv({"a": 8})
    s = Solver()
    for term in constraint_terms("true", keys):
        s.add(term)
    assert s.check() == "sat"


def test_unknown_key_rejected():
    keys = kv({"a": 8})
    with pytest.raises(ConstraintError):
        constraint_terms("missing == 1", keys)


def test_syntax_error_rejected():
    with pytest.raises(ConstraintError):
        parse_constraint("a === 1")
    with pytest.raises(ConstraintError):
        parse_constraint("(a == 1")


def test_oracle_honours_entry_restriction():
    """End-to-end: with P4-constraints enabled, no generated entry may
    violate the middleblock ACL restriction."""
    from repro import TestGen, TestGenConfig, load_program
    from repro.targets import Preconditions, V1Model

    result = TestGen(
        load_program("middleblock"),
        target=V1Model(preconditions=Preconditions(p4constraints=True)),
        config=TestGenConfig(seed=3),
    ).run(max_tests=60)
    for test in result.tests:
        for entry in test.entries:
            if entry.table.endswith("acl_ingress_table"):
                key_values = {name: roles.get("value") for name, _k, roles in entry.keys}
                assert key_values["ether_type"] not in (0x0800, 0x86DD)
