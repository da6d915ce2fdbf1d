"""Tests for grammar-constrained rendering of decision vectors into code."""

from __future__ import annotations

import ast

import pytest

from repro.llm import CodeGrammar, DecisionVector, reference_decisions
from repro.llm.decisions import DECISION_SLOTS
from repro.nlp import PromptBuilder
from repro.targets import get_target
from repro.types import FaultType


@pytest.fixture()
def grammar():
    return CodeGrammar()


def decisions_for(template, trigger="always", handling="unhandled", placement="wrap_body", severity="medium"):
    return DecisionVector(
        template=template, trigger=trigger, handling=handling, placement=placement, severity=severity
    )


class TestScenarioTemplates:
    def test_timeout_unhandled_matches_running_example_shape(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("timeout"))
        assert "raise TimeoutError" in rendered.function_source
        assert rendered.function_source.startswith("def process_transaction")
        ast.parse(rendered.function_source)
        assert rendered.module_source is not None
        ast.parse(rendered.module_source)

    def test_retry_handling_adds_retry_loop(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("timeout", handling="retry"))
        assert "retry" in rendered.function_source.lower()
        assert "for _attempt in range(" in rendered.function_source

    def test_logged_only_mentions_missing_handling(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("timeout", handling="logged_only"))
        assert "Missing exception handling logic" in rendered.function_source

    def test_fallback_returns_default(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("network_failure", handling="fallback"))
        assert "return None" in rendered.function_source

    def test_reraise_keeps_raise(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("disk_failure", handling="reraise"))
        body_after_except = rendered.function_source.split("except", 1)[1]
        assert "raise" in body_after_except

    def test_probabilistic_trigger_uses_random(self, grammar, extractor, prompt_builder, sample_module):
        spec = extractor.extract_from_text(
            "the charge call fails with a timeout 30% of the time", sample_module
        )
        prompt = prompt_builder.build(spec, None)
        rendered = grammar.render(prompt, decisions_for("timeout", trigger="probabilistic"))
        assert "random.random() < 0.3" in rendered.function_source

    def test_nth_call_trigger_counts_calls(self, grammar, extractor, prompt_builder):
        spec = extractor.extract_from_text("every 3rd call to the gateway should time out")
        prompt = prompt_builder.build(spec, None)
        rendered = grammar.render(prompt, decisions_for("timeout", trigger="on_nth_call"))
        assert "_injected_call_counts" in rendered.function_source
        assert "% 3 == 0" in rendered.function_source

    def test_conditional_trigger_keeps_condition_comment(self, grammar, extractor, prompt_builder):
        spec = extractor.extract_from_text("raise an error when the cart is empty")
        prompt = prompt_builder.build(spec, None)
        rendered = grammar.render(prompt, decisions_for("exception", trigger="conditional"))
        assert "when" in rendered.function_source

    def test_delay_template_sleeps(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("delay", placement="body_start"))
        assert "time.sleep(" in rendered.function_source

    def test_memory_leak_template(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("memory_leak", placement="body_start"))
        assert "_injected_leak" in rendered.function_source

    def test_deadlock_template_double_acquires(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("deadlock"))
        assert rendered.function_source.count("_injected_lock.acquire()") == 2

    def test_stub_generated_when_no_code_supplied(self, grammar, extractor, prompt_builder):
        spec = extractor.extract_from_text("simulate a timeout in the payment gateway")
        prompt = prompt_builder.build(spec, None)
        rendered = grammar.render(prompt, decisions_for("timeout"))
        assert rendered.module_source is None
        ast.parse(rendered.function_source)

    def test_severity_scales_delay(self, grammar, sample_prompt):
        low = grammar.render(sample_prompt, decisions_for("delay", severity="low", placement="body_start"))
        high = grammar.render(sample_prompt, decisions_for("delay", severity="high", placement="body_start"))

        def sleep_value(source):
            marker = "time.sleep("
            fragment = source[source.index(marker) + len(marker):]
            return float(fragment.split(")")[0])

        assert sleep_value(high.function_source) > sleep_value(low.function_source)


class TestMutationTemplates:
    def test_wrong_condition_uses_operator_on_target(
        self, grammar, extractor, analyzer, prompt_builder, sample_module
    ):
        text = "negate the empty-cart condition in the validate function"
        spec = extractor.extract_from_text(text, sample_module)
        context = analyzer.analyze(sample_module)
        analyzer.select_function(context, text, hint="validate")
        prompt = prompt_builder.build(spec, context)
        rendered = grammar.render(prompt, decisions_for("wrong_condition"))
        assert rendered.operator in ("negate_condition", "relax_comparison")
        assert rendered.module_source is not None
        assert rendered.module_source != sample_module

    def test_mutation_template_falls_back_when_function_lacks_structure(self, grammar, sample_prompt):
        # process_transaction has no if/comparison, so the wrong_condition
        # template cannot be realised structurally and is approximated.
        rendered = grammar.render(sample_prompt, decisions_for("wrong_condition"))
        assert rendered.operator is None
        assert any("Approximated" in note for note in rendered.notes)

    def test_missing_call_removes_a_call(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("missing_call"))
        assert rendered.operator == "remove_call"

    def test_race_condition_prefers_lock_removal(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("race_condition"))
        assert rendered.operator in ("remove_lock", "split_atomic_update")

    def test_mutation_without_code_falls_back_to_scenario(self, grammar, extractor, prompt_builder):
        spec = extractor.extract_from_text("introduce an off-by-one error in the pagination loop")
        prompt = prompt_builder.build(spec, None)
        rendered = grammar.render(prompt, decisions_for("off_by_one"))
        assert rendered.operator is None
        assert "raise" in rendered.function_source
        assert any("Approximated" in note or "off by one" in note for note in rendered.notes)

    def test_every_template_renders_valid_python(self, grammar, sample_prompt):
        for template in DECISION_SLOTS["template"]:
            rendered = grammar.render(sample_prompt, decisions_for(template))
            ast.parse(rendered.function_source)
            if rendered.module_source is not None:
                ast.parse(rendered.module_source)

    def test_notes_are_always_present(self, grammar, sample_prompt):
        for template in ("timeout", "memory_leak", "wrong_condition", "data_corruption"):
            rendered = grammar.render(sample_prompt, decisions_for(template))
            assert rendered.notes


class TestPlacement:
    def test_before_return_places_fault_before_return(self, grammar, extractor, prompt_builder, analyzer, sample_module):
        text = "make compute_total fail with an unhandled exception"
        spec = extractor.extract_from_text(text, sample_module)
        context = analyzer.analyze(sample_module)
        analyzer.select_function(context, text, hint="compute_total")
        prompt = prompt_builder.build(spec, context)
        rendered = grammar.render(prompt, decisions_for("exception", placement="before_return"))
        lines = rendered.function_source.splitlines()
        raise_index = next(i for i, line in enumerate(lines) if "raise" in line)
        return_index = next(i for i, line in enumerate(lines) if line.strip().startswith("return"))
        assert raise_index < return_index

    @pytest.mark.parametrize("template", ["exception", "timeout", "delay"])
    def test_before_return_indents_block_to_a_nested_return(
        self, grammar, extractor, prompt_builder, analyzer, template
    ):
        # kvstore.delete's last return sits inside ``with _lock:``.
        module = get_target("kvstore").build_source()
        text = "make delete fail with an unhandled exception"
        spec = extractor.extract_from_text(text, module)
        context = analyzer.analyze(module)
        analyzer.select_function(context, text, hint="delete")
        prompt = prompt_builder.build(spec, context)
        rendered = grammar.render(prompt, decisions_for(template, placement="before_return"))
        lines = rendered.function_source.splitlines()
        return_index = max(i for i, line in enumerate(lines) if line.strip().startswith("return"))
        assert lines[return_index] == "        return True"
        block_start = return_index - 1
        while lines[block_start].strip() != "_stats['deletes'] += 1":
            block_start -= 1
        block = lines[block_start + 1 : return_index]
        assert block and all(line.startswith("        ") for line in block)
        ast.parse(rendered.function_source)
        ast.parse(rendered.module_source)

    def test_original_body_is_preserved_for_body_start(self, grammar, sample_prompt):
        rendered = grammar.render(sample_prompt, decisions_for("delay", placement="body_start"))
        assert "compute_total(cart)" in rendered.function_source
