"""AST helpers shared by the fault operators and the code-generation grammar.

The injection engine works exclusively on :mod:`ast` trees and re-renders them
with :func:`ast.unparse`, so every mutation is guaranteed to be syntactically
valid Python — an invariant the grammar-constrained decoder relies on.
"""

from __future__ import annotations

import ast
import copy
import pickle
from typing import Iterator, NamedTuple

from ..errors import CodeAnalysisError
from ..execution.cache import get_cache

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Memoizes parsed trees by source hash.  ``misses`` counts actual parses.
PARSE_CACHE = get_cache("ast-parse")


def parse_module(source: str, path: str | None = None, *, mutable: bool = True) -> ast.Module:
    """Parse ``source`` into a module AST, raising :class:`CodeAnalysisError` on failure.

    With ``mutable=False`` the returned tree comes from a process-wide cache
    keyed on the source hash, so N analyses of one module parse it once.  The
    cached tree is shared: callers taking this path must treat it as
    read-only.  The default behaviour (``mutable=True``) returns a fresh,
    privately owned parse for callers that mutate the tree in place.
    """
    if not mutable:
        return PARSE_CACHE.get_or_compute(
            PARSE_CACHE.key_for(source), lambda: _parse(source, path)
        )
    return _parse(source, path)


def _parse(source: str, path: str | None) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise CodeAnalysisError(f"target code is not valid Python: {exc}", source_path=path) from exc


class StatementModel(NamedTuple):
    """A module's shared parse plus each top-level statement's rendered text.

    ``texts`` maps ``id(statement)`` to ``(first, later)``: its text at index 0,
    the only position where a string literal is the docstring, and at any later
    index, led by the one or two newlines that separate it from its predecessor.
    The model holds ``tree``, so no other live object can share those ids.
    """

    tree: ast.Module
    texts: dict[int, tuple[str, str]]


#: Statement models by source hash; each module's texts are rendered once.
STATEMENT_CACHE = get_cache("ast-statements")


def statement_model(source: str, path: str | None = None) -> StatementModel:
    """The cached :class:`StatementModel` of ``source`` (its tree is read-only)."""

    def build() -> StatementModel:
        tree = parse_module(source, path, mutable=False)
        texts = {id(stmt): (_render(stmt, 0), _render(stmt, 1)) for stmt in tree.body}
        return StatementModel(tree, texts)

    return STATEMENT_CACHE.get_or_compute(STATEMENT_CACHE.key_for(source), build)


def _render(statement: ast.stmt, index: int) -> str:
    if index == 0:
        return ast.unparse(ast.Module(body=[statement], type_ignores=[]))
    return ast.unparse(ast.Module(body=[ast.Pass(), statement], type_ignores=[]))[len("pass"):]


def render_module(source: str, body: list[ast.stmt]) -> str:
    """:func:`unparse` of ``ast.Module(body)``, where ``body`` may share ``source``'s statements.

    Statements of :func:`statement_model`'s tree reuse their cached text; only
    the others (a mutated copy, a fresh import) are unparsed, each on its own.
    """
    texts = statement_model(source).texts
    parts = []
    for index, statement in enumerate(body):
        cached = texts.get(id(statement))
        if cached is not None:
            parts.append(cached[0] if index == 0 else cached[1])
        else:
            parts.append(_render(ast.fix_missing_locations(statement), index))
    text = "".join(parts)
    return text if text.endswith("\n") else text + "\n"


def normalised_source(source: str, path: str | None = None) -> str:
    """``source`` round-tripped through parse/unparse; operators use it to detect no-op mutations."""
    return render_module(source, statement_model(source, path).tree.body)


def with_function(tree: ast.Module, function: FunctionNode, replacement: FunctionNode) -> ast.Module:
    """A new module sharing ``tree``'s statements but with ``function`` swapped for ``replacement``.

    ``function`` is one :func:`iter_functions` yields; a method's class is
    shallow-copied with a new body list, so ``tree`` is left untouched.
    """
    body = list(tree.body)
    for index, statement in enumerate(body):
        if statement is function:
            body[index] = replacement
        elif isinstance(statement, ast.ClassDef) and any(child is function for child in statement.body):
            body[index] = copy.copy(statement)
            body[index].body = [replacement if child is function else child for child in statement.body]
    return ast.Module(body=body, type_ignores=tree.type_ignores)


def unparse(tree: ast.AST) -> str:
    """Render an AST back to source text with a trailing newline."""
    text = ast.unparse(ast.fix_missing_locations(tree))
    return text if text.endswith("\n") else text + "\n"


def copy_tree(tree: ast.AST) -> ast.AST:
    """Deep-copy an AST so mutations never alias the caller's tree.

    A pickle round trip runs in C and is ~2.5x faster than :func:`copy.deepcopy`
    on parse trees; every node and constant an AST holds is picklable.
    """
    return pickle.loads(pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))


def iter_functions(tree: ast.Module) -> Iterator[tuple[FunctionNode, str | None]]:
    """Yield every (function node, enclosing class name) pair in the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, node.name


def find_function(tree: ast.Module, name: str) -> FunctionNode | None:
    """Find a function by bare name or ``Class.method`` qualified name."""
    for node, class_name in iter_functions(tree):
        qualified = f"{class_name}.{node.name}" if class_name else node.name
        if node.name == name or qualified == name:
            return node
    return None


def function_names(tree: ast.Module) -> list[str]:
    """Qualified names of all functions defined in the module."""
    names = []
    for node, class_name in iter_functions(tree):
        names.append(f"{class_name}.{node.name}" if class_name else node.name)
    return names


def function_source(source: str, name: str) -> str:
    """Extract the source text of a single function from a module."""
    tree = parse_module(source, mutable=False)
    node = find_function(tree, name)
    if node is None:
        raise CodeAnalysisError(f"function {name!r} not found in target code")
    segment = ast.get_source_segment(source, node)
    if segment is None:
        segment = unparse(node)
    return segment


def replace_function_source(module_source: str, function_name: str, new_function_source: str) -> str:
    """Replace one function definition inside a module with new source text.

    The replacement text must itself parse to a module containing exactly one
    function definition whose name matches ``function_name``.  Only the
    top-level statement holding the function is re-rendered.
    """
    replacement_tree = parse_module(new_function_source)
    functions = [n for n, _cls in iter_functions(replacement_tree)]
    if len(functions) != 1:
        raise CodeAnalysisError("replacement source must define exactly one function")
    replacement = functions[0]
    if replacement.name != function_name.split(".")[-1]:
        raise CodeAnalysisError(
            f"replacement defines {replacement.name!r}, expected {function_name!r}"
        )
    tree = statement_model(module_source).tree
    target = find_function(tree, function_name)
    if target is None:
        raise CodeAnalysisError(f"function {function_name!r} not found in target module")
    spliced = copy.copy(target)
    spliced.args = replacement.args
    spliced.body = replacement.body
    return render_module(module_source, with_function(tree, target, spliced).body)


def ensure_import(tree: ast.Module, module_name: str) -> ast.Module:
    """Return ``tree`` with a top-level ``import module_name`` guaranteed."""
    for node in tree.body:
        if isinstance(node, ast.Import) and any(alias.name == module_name for alias in node.names):
            return tree
        if isinstance(node, ast.ImportFrom) and node.module == module_name:
            return tree
    import_node = ast.Import(names=[ast.alias(name=module_name, asname=None)])
    insert_at = 0
    if tree.body and isinstance(tree.body[0], ast.Expr) and isinstance(tree.body[0].value, ast.Constant):
        insert_at = 1  # keep a module docstring first
    tree.body.insert(insert_at, ast.fix_missing_locations(import_node))
    return tree


def iter_statement_slots(function: FunctionNode) -> Iterator[tuple[list[ast.stmt], int, ast.stmt]]:
    """Yield (body list, index, statement) for every statement slot in a function.

    Operators that need to replace or delete a statement use the returned body
    list and index to mutate the tree in place; enumeration order is stable for
    a given source text, so slots can be re-identified after re-parsing.
    """

    def visit(body: list[ast.stmt]) -> Iterator[tuple[list[ast.stmt], int, ast.stmt]]:
        for index, statement in enumerate(body):
            yield body, index, statement
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(statement, field_name, None)
                if isinstance(nested, list) and nested:
                    yield from visit(nested)
            handlers = getattr(statement, "handlers", None)
            if handlers:
                for handler in handlers:
                    yield from visit(handler.body)

    yield from visit(function.body)


def contains_node_type(function: FunctionNode, node_type: type) -> bool:
    """Whether any node of ``node_type`` appears inside the function."""
    return any(isinstance(node, node_type) for node in ast.walk(function))


def call_names(node: ast.AST) -> list[str]:
    """Names of every function/method called anywhere under ``node``."""
    names: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            names.append(call_name(child))
    return [name for name in names if name]


def call_name(call: ast.Call) -> str:
    """Best-effort dotted name of a call expression (empty string if dynamic)."""
    func = call.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


def perturb_constant(value, magnitude: int = 1):
    """Return a plausibly wrong value of the same type as ``value``.

    Used by wrong-value / wrong-argument / off-by-one style operators so that
    mutations stay type-compatible and therefore activate rather than crash at
    the call boundary.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + magnitude
    if isinstance(value, float):
        return value * 2.0 + float(magnitude)
    if isinstance(value, str):
        return value + "_corrupted" if value else "corrupted"
    if value is None:
        return 0
    return value


def make_raise(exception_name: str, message: str) -> ast.Raise:
    """Build a ``raise ExceptionName("message")`` statement node."""
    return ast.Raise(
        exc=ast.Call(
            func=ast.Name(id=exception_name, ctx=ast.Load()),
            args=[ast.Constant(value=message)],
            keywords=[],
        ),
        cause=None,
    )


def make_print(message: str, *extra: ast.expr) -> ast.Expr:
    """Build a ``print("message", ...)`` statement node."""
    return ast.Expr(
        value=ast.Call(
            func=ast.Name(id="print", ctx=ast.Load()),
            args=[ast.Constant(value=message), *extra],
            keywords=[],
        )
    )


def make_sleep(seconds: float) -> ast.Expr:
    """Build a ``time.sleep(seconds)`` statement node."""
    return ast.Expr(
        value=ast.Call(
            func=ast.Attribute(value=ast.Name(id="time", ctx=ast.Load()), attr="sleep", ctx=ast.Load()),
            args=[ast.Constant(value=seconds)],
            keywords=[],
        )
    )


def is_docstring(statement: ast.stmt) -> bool:
    """Whether a statement is a bare string literal (function/module docstring)."""
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def body_insert_index(function: FunctionNode) -> int:
    """Index at which new statements should be inserted at the top of a body."""
    if function.body and is_docstring(function.body[0]):
        return 1
    return 0
