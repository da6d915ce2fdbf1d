"""Tests for the AST helpers shared by the injection substrate."""

from __future__ import annotations

import ast
import copy
import sys
import threading

import pytest

from repro.errors import CodeAnalysisError, InjectionError
from repro.injection import InjectionPointLocator, ProgrammableInjector, all_operators, ast_utils, get_operator
from repro.rng import SeededRNG
from repro.targets import get_target, target_names


SIMPLE = """
def outer(x):
    if x:
        return x + 1
    return 0


class Service:
    def handle(self, request):
        return request
"""


class TestParsing:
    def test_parse_module_valid(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert isinstance(tree, ast.Module)

    def test_parse_module_invalid_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.parse_module("def broken(:\n    pass")

    def test_unparse_appends_newline(self):
        tree = ast_utils.parse_module("x = 1")
        assert ast_utils.unparse(tree).endswith("\n")


class TestFunctionDiscovery:
    def test_iter_functions_finds_methods_and_functions(self):
        tree = ast_utils.parse_module(SIMPLE)
        names = {(node.name, cls) for node, cls in ast_utils.iter_functions(tree)}
        assert ("outer", None) in names
        assert ("handle", "Service") in names

    def test_function_names_qualified(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert "Service.handle" in ast_utils.function_names(tree)

    def test_find_function_by_qualified_name(self):
        tree = ast_utils.parse_module(SIMPLE)
        assert ast_utils.find_function(tree, "Service.handle") is not None
        assert ast_utils.find_function(tree, "missing") is None

    def test_function_source_extracts_text(self):
        source = ast_utils.function_source(SIMPLE, "outer")
        assert source.startswith("def outer")
        assert "return x + 1" in source

    def test_function_source_missing_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.function_source(SIMPLE, "nope")


class TestReplacement:
    def test_replace_function_source(self):
        replacement = "def outer(x):\n    return 42\n"
        mutated = ast_utils.replace_function_source(SIMPLE, "outer", replacement)
        module = {}
        exec(compile(mutated, "<m>", "exec"), module)
        assert module["outer"](5) == 42
        assert "Service" in mutated

    def test_replace_function_source_wrong_name_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(SIMPLE, "outer", "def different():\n    pass\n")

    def test_replace_function_source_multiple_defs_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(
                SIMPLE, "outer", "def outer():\n    pass\n\ndef extra():\n    pass\n"
            )

    def test_replace_function_source_missing_target_raises(self):
        with pytest.raises(CodeAnalysisError):
            ast_utils.replace_function_source(SIMPLE, "ghost", "def ghost():\n    pass\n")


class TestImports:
    def test_ensure_import_adds_once(self):
        tree = ast_utils.parse_module("x = 1")
        ast_utils.ensure_import(tree, "time")
        ast_utils.ensure_import(tree, "time")
        rendered = ast_utils.unparse(tree)
        assert rendered.count("import time") == 1

    def test_ensure_import_preserves_docstring_position(self):
        tree = ast_utils.parse_module('"""doc"""\nx = 1')
        ast_utils.ensure_import(tree, "os")
        rendered = ast_utils.unparse(tree)
        assert rendered.splitlines()[0].startswith('"""') or rendered.splitlines()[0].startswith("'")


class TestStatementHelpers:
    def test_statement_slots_cover_nested_bodies(self):
        source = """
def f(x):
    try:
        if x:
            y = 1
    except ValueError:
        y = 2
    finally:
        y = 3
    return y
"""
        tree = ast_utils.parse_module(source)
        function = ast_utils.find_function(tree, "f")
        slots = list(ast_utils.iter_statement_slots(function))
        texts = [ast.unparse(stmt) for _body, _i, stmt in slots]
        assert any("y = 1" in text for text in texts)
        assert any("y = 2" in text for text in texts)
        assert any("y = 3" in text for text in texts)

    def test_call_names_dotted(self):
        tree = ast_utils.parse_module("def f():\n    a.b.c(1)\n    d()\n")
        function = ast_utils.find_function(tree, "f")
        assert "a.b.c" in ast_utils.call_names(function)
        assert "d" in ast_utils.call_names(function)

    def test_body_insert_index_skips_docstring(self):
        tree = ast_utils.parse_module('def f():\n    """doc"""\n    return 1\n')
        function = ast_utils.find_function(tree, "f")
        assert ast_utils.body_insert_index(function) == 1

    def test_contains_node_type(self):
        tree = ast_utils.parse_module("def f():\n    for i in range(3):\n        pass\n")
        function = ast_utils.find_function(tree, "f")
        assert ast_utils.contains_node_type(function, ast.For)
        assert not ast_utils.contains_node_type(function, ast.While)


class TestPerturbConstant:
    @pytest.mark.parametrize(
        "value,expected_type",
        [(3, int), (2.5, float), ("name", str), (True, bool), (None, int)],
    )
    def test_preserves_type_family(self, value, expected_type):
        assert isinstance(ast_utils.perturb_constant(value), expected_type)

    def test_changes_value(self):
        assert ast_utils.perturb_constant(3) != 3
        assert ast_utils.perturb_constant(True) is False
        assert ast_utils.perturb_constant("x") != "x"

    def test_statement_builders_produce_valid_nodes(self):
        raise_node = ast_utils.make_raise("ValueError", "boom")
        sleep_node = ast_utils.make_sleep(0.5)
        print_node = ast_utils.make_print("hello")
        module = ast.Module(body=[ast.FunctionDef(
            name="f",
            args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=[print_node, sleep_node, raise_node],
            decorator_list=[],
        )], type_ignores=[])
        rendered = ast_utils.unparse(module)
        ast.parse(rendered)
        assert "time.sleep(0.5)" in rendered
        assert "raise ValueError('boom')" in rendered


# -- statement-level rendering against the whole-module oracle -------------------

SYNTHETIC = '''"""Module docstring."""
import functools

LIMIT = 3


def traced(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)
    return wrapper


@traced
def total(values):
    """Sum the values."""
    result = 0
    for value in values:
        result += value
    if result > LIMIT:
        return result
    return LIMIT


class Store:
    """A keyed store."""

    def __init__(self):
        self.items = {}

    def put(self, key, value):
        self.items[key] = value
        return True
'''


def oracle_unparse(tree: ast.Module) -> str:
    """The whole-module render every mutation used before statement splicing."""
    text = ast.unparse(ast.fix_missing_locations(tree))
    return text if text.endswith("\n") else text + "\n"


def oracle_mutants(source: str) -> list[str]:
    """``exhaustive_mutants`` through a fresh parse and a whole-module unparse per point."""
    normal = oracle_unparse(ast.parse(source))
    rng = SeededRNG(0, namespace="injector")
    mutants = []
    for index, point in enumerate(InjectionPointLocator(all_operators()).scan(source).points):
        operator = get_operator(point.operator)
        tree = ast.parse(source)
        try:
            function = operator._locate_function(tree, point)
            operator._mutate(tree, function, point, rng.fork(f"mutant:{index}"), {})
        except InjectionError:
            continue
        mutated = oracle_unparse(tree)
        if mutated not in (source, normal):
            mutants.append(mutated)
    return mutants


def oracle_splice(source: str, function_name: str, new_function_source: str) -> str:
    tree = ast.parse(source)
    target = ast_utils.find_function(tree, function_name)
    replacement = ast.parse(new_function_source).body[0]
    target.args = replacement.args
    target.body = replacement.body
    return oracle_unparse(tree)


def spliceable(node: ast_utils.FunctionNode) -> str:
    """Source of ``node`` with one statement added at the top of its body."""
    changed = copy.deepcopy(node)
    changed.body.insert(0, ast.parse("print('spliced')").body[0])
    return ast.unparse(changed)


def shared_dump(source: str) -> str:
    return ast.dump(ast_utils.statement_model(source).tree, include_attributes=True)


def target_source(name: str) -> str:
    return SYNTHETIC if name == "synthetic" else get_target(name).build_source()


class TestStatementRender:
    @pytest.mark.parametrize("name", [*target_names(), "synthetic"])
    def test_exhaustive_mutants_match_whole_module_oracle(self, name):
        source = target_source(name)
        before = shared_dump(source)
        mutants = ProgrammableInjector().exhaustive_mutants(source)
        assert [mutant.patch.mutated for mutant in mutants] == oracle_mutants(source)
        assert shared_dump(source) == before

    @pytest.mark.parametrize("name", [*target_names(), "synthetic"])
    def test_every_function_splice_matches_whole_module_oracle(self, name):
        source = target_source(name)
        before = shared_dump(source)
        tree = ast.parse(source)
        for node, class_name in ast_utils.iter_functions(tree):
            for function_name in {node.name, f"{class_name}.{node.name}" if class_name else node.name}:
                new_source = spliceable(node)
                expected = oracle_splice(source, function_name, new_source)
                assert ast_utils.replace_function_source(source, function_name, new_source) == expected
        assert shared_dump(source) == before

    def test_threads_share_the_cached_tree_safely(self):
        source = get_target("bank").build_source()
        expected = [mutant.patch.mutated for mutant in ProgrammableInjector().exhaustive_mutants(source)]
        before = shared_dump(source)
        results: list[list[str]] = []

        def work():
            results.append([m.patch.mutated for m in ProgrammableInjector().exhaustive_mutants(source)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert shared_dump(source) == before

    def test_synthetic_mutants_cover_module_level_inserts(self):
        texts = [mutant.patch.mutated for mutant in ProgrammableInjector().exhaustive_mutants(SYNTHETIC)]
        # ensure_import keeps the docstring first ...
        assert any(text.startswith('"""Module docstring."""\nimport time\n') for text in texts)
        # ... while the corrupt-return helper is inserted ahead of it, where
        # the docstring renders as a plain string expression.
        pushed = [text for text in texts if text.startswith("def _injected_corrupt(")]
        assert pushed and all("\n'Module docstring.'\nimport functools\n" in text for text in pushed)

    def test_render_module_of_inserted_and_reordered_statements(self):
        tree = ast_utils.statement_model(SYNTHETIC).tree
        fresh = ast.parse("import os").body[0]
        for body in ([fresh, *tree.body], [*tree.body[1:], tree.body[0]], [tree.body[2], fresh], []):
            expected = oracle_unparse(ast.Module(body=copy.deepcopy(body), type_ignores=[]))
            assert ast_utils.render_module(SYNTHETIC, body) == expected

    def test_normalised_source_is_the_unchanged_render(self):
        assert ast_utils.normalised_source(SYNTHETIC) == oracle_unparse(ast.parse(SYNTHETIC))
