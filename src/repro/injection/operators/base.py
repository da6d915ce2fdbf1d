"""Fault operator framework.

A :class:`FaultOperator` knows how to (1) enumerate the locations in a piece of
Python code where it can be applied (:meth:`find_points`), (2) apply itself at
one such location to produce mutated source (:meth:`apply`), and (3) describe
the injected fault in natural language (:meth:`describe`).  The third ability
is what lets the injection engine double as the *dataset generator* of
Section IV-1: every injected fault yields an (NL description, original code,
faulty code) training triple.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ...errors import InjectionError, NoInjectionPointError
from ...rng import SeededRNG
from ...types import FaultType, Patch
from .. import ast_utils


@dataclass(frozen=True)
class InjectionPoint:
    """A concrete location where an operator can inject a fault."""

    operator: str
    function: str
    lineno: int
    node_index: int
    detail: str = ""
    class_name: str | None = None

    @property
    def qualified_function(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.function}"
        return self.function

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "function": self.function,
            "lineno": self.lineno,
            "node_index": self.node_index,
            "detail": self.detail,
            "class_name": self.class_name,
        }


@dataclass
class AppliedFault:
    """The result of applying a fault operator: a patch plus its description."""

    operator: str
    fault_type: FaultType
    point: InjectionPoint
    patch: Patch
    description: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "fault_type": self.fault_type.value,
            "point": self.point.to_dict(),
            "patch": self.patch.to_dict(),
            "description": self.description,
            "parameters": dict(self.parameters),
        }


class FaultOperator(ABC):
    """Base class for AST-level software fault operators."""

    #: unique operator identifier, e.g. ``"negate_condition"``
    name: str = "abstract"
    #: the fault-type category the operator realises
    fault_type: FaultType = FaultType.UNKNOWN
    #: one-line human summary used in documentation and reports
    summary: str = ""

    def find_points(self, source: str) -> list[InjectionPoint]:
        """Enumerate every location in ``source`` where the operator applies."""
        tree = ast_utils.parse_module(source, mutable=False)
        points: list[InjectionPoint] = []
        for function, class_name in ast_utils.iter_functions(tree):
            points.extend(self._find_in_function(function, class_name))
        return points

    @abstractmethod
    def _find_in_function(
        self, function: ast_utils.FunctionNode, class_name: str | None
    ) -> list[InjectionPoint]:
        """Enumerate injection points inside a single function."""

    @abstractmethod
    def _mutate(
        self,
        tree: ast.Module,
        function: ast_utils.FunctionNode,
        point: InjectionPoint,
        rng: SeededRNG,
        parameters: dict[str, Any],
    ) -> None:
        """Mutate ``function`` (part of ``tree``) in place at ``point``."""

    def describe(self, point: InjectionPoint, parameters: dict[str, Any]) -> str:
        """Natural-language description of the fault injected at ``point``."""
        summary = self.summary or self.name.replace("_", " ")
        return f"Introduce a {summary} in the {point.qualified_function} function."

    def apply(
        self,
        source: str,
        point: InjectionPoint,
        rng: SeededRNG | None = None,
        parameters: dict[str, Any] | None = None,
        target_path: str | None = None,
    ) -> AppliedFault:
        """Apply the operator at ``point`` and return the resulting fault."""
        if point.operator != self.name:
            raise InjectionError(
                f"point was produced by operator {point.operator!r}", operator=self.name
            )
        rng = rng or SeededRNG(0, namespace=self.name)
        parameters = dict(parameters or {})
        # Only the function is copied and only its top-level statement is
        # re-rendered; the rest of the working module shares the cached parse.
        shared = ast_utils.statement_model(source, path=target_path).tree
        original = self._locate_function(shared, point)
        function = ast_utils.copy_tree(original)
        tree = ast_utils.with_function(shared, original, function)
        self._mutate(tree, function, point, rng, parameters)
        mutated = ast_utils.render_module(source, tree.body)
        if mutated == source or mutated == ast_utils.normalised_source(source):
            raise InjectionError(
                f"operator {self.name} produced no change at {point.qualified_function}:{point.lineno}",
                operator=self.name,
            )
        patch = Patch(
            original=source,
            mutated=mutated,
            target_path=target_path,
            function=point.qualified_function,
            lineno=point.lineno,
            operator=self.name,
        )
        return AppliedFault(
            operator=self.name,
            fault_type=self.fault_type,
            point=point,
            patch=patch,
            description=self.describe(point, parameters),
            parameters=parameters,
        )

    def _locate_function(self, tree: ast.Module, point: InjectionPoint) -> ast_utils.FunctionNode:
        for function, class_name in ast_utils.iter_functions(tree):
            if function.name == point.function and class_name == point.class_name:
                return function
        raise NoInjectionPointError(
            f"function {point.qualified_function!r} not present in source", operator=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} fault_type={self.fault_type.value!r}>"

