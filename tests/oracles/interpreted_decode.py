"""The interpreted constrained decoder: the oracle for compiled-grammar decoding.

The library decodes the policy's raw distributions through each prompt's
compiled :class:`~repro.llm.compiled_grammar.DecisionAutomaton`.  This module
keeps the path that came before it, unchanged: every call re-derives the
prompt's constraints, copies the probability matrices, overwrites pinned
slots with one-hots, and samples each slot with ``Generator.choice``.  The
differential suites (``test_compiled_grammar.py``,
``test_injection_properties.py``, ``test_batched_inference.py``) and
``benchmarks/bench_compiled_decode.py`` assert that the production path
reproduces it: byte-identical faults, an identical decoder RNG stream, and
log-probabilities within 1e-9.

It also keeps the per-sample policy helpers the batched production code
replaced (:func:`distributions`, :func:`nll`, :func:`kl_divergence`,
:func:`row`) and the automaton-to-constrained-copies adapter
(:func:`constrain`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import GenerationError
from repro.llm import (
    DECISION_SLOTS,
    Decoder,
    DecisionAutomaton,
    DecisionVector,
    DecodingResult,
    FaultGenerator,
    ForwardResult,
    PolicyNetwork,
)
from repro.llm.compiled_grammar import feedback_forced_slots, spec_constraint
from repro.llm.network import BatchForwardResult
from repro.nlp.prompt_builder import GenerationPrompt

# -- per-sample policy helpers --------------------------------------------------


def distributions(policy: PolicyNetwork, features: np.ndarray) -> dict[str, np.ndarray]:
    """Per-slot probability vectors (copies safe for the decoder to modify)."""
    result = policy.forward(features)
    return {slot: probs.copy() for slot, probs in result.probabilities.items()}


def nll(policy: PolicyNetwork, features: np.ndarray, decisions: DecisionVector) -> float:
    """Negative log-likelihood of a decision assignment (training metric)."""
    return -policy.log_probability(features, decisions)


def kl_divergence(policy: PolicyNetwork, features: np.ndarray, reference: PolicyNetwork) -> float:
    """KL(policy || reference) summed over decision slots for one prompt."""
    own = policy.forward(features).probabilities
    other = reference.forward(features).probabilities
    total = 0.0
    for slot in DECISION_SLOTS:
        p = own[slot]
        q = other[slot]
        total += float(np.sum(p * (np.log(p + 1e-12) - np.log(q + 1e-12))))
    return total


def row(forward: BatchForwardResult, index: int) -> ForwardResult:
    """The per-sample view of one batch row."""
    return ForwardResult(
        features=forward.features[index],
        hidden=forward.hidden[index],
        probabilities={slot: probs[index] for slot, probs in forward.probabilities.items()},
    )


def constrain(
    automaton: DecisionAutomaton, raw: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """The interpreted constrained copies of raw distributions.

    Forced slots become exact one-hots, free slots are copied verbatim —
    byte-identical to what :meth:`InterpretedGenerator._constrained_distributions`
    produces.
    """
    constrained = {slot: probs.copy() for slot, probs in raw.items()}
    for slot, index in automaton.forced.items():
        constrained[slot][:] = 0.0
        constrained[slot][index] = 1.0
    return constrained


# -- decoder ----------------------------------------------------------------------


class InterpretedDecoder(Decoder):
    """Greedy / sampled / diverse decoding over already-constrained distributions."""

    def greedy(self, distributions: dict[str, np.ndarray]) -> DecodingResult:
        """Pick the argmax value for every slot."""
        choices = {slot: int(np.argmax(probs)) for slot, probs in distributions.items()}
        return self._interpreted_result(distributions, choices, strategy="greedy")

    def sample(
        self,
        distributions: dict[str, np.ndarray],
        temperature: float | None = None,
        top_k: int | None = None,
        top_p: float | None = None,
    ) -> DecodingResult:
        """Sample each slot with temperature / top-k / nucleus truncation."""
        temperature = temperature if temperature is not None else self._config.temperature
        top_k = top_k if top_k is not None else self._config.top_k
        top_p = top_p if top_p is not None else self._config.top_p
        if temperature <= 0:
            raise GenerationError("temperature must be positive")
        choices: dict[str, int] = {}
        for slot, probs in distributions.items():
            adjusted = self._apply_temperature(probs, temperature)
            adjusted = self._truncate(adjusted, top_k, top_p)
            choices[slot] = int(self._rng.generator.choice(len(adjusted), p=adjusted))
        return self._interpreted_result(distributions, choices, strategy="sample")

    def diverse_candidates(
        self,
        distributions: dict[str, np.ndarray],
        count: int,
        temperature: float | None = None,
    ) -> list[DecodingResult]:
        """Greedy candidate first, then sampled candidates (deduplicated)."""
        if count <= 0:
            raise GenerationError("candidate count must be positive")
        effective = temperature or max(self._config.temperature, 1.2)
        first = self.greedy(distributions)
        results = [first]
        seen = {tuple(sorted(results[0].decisions.to_dict().items()))}
        attempts = 0
        while len(results) < count and attempts < count * 10:
            attempts += 1
            candidate = self.sample(distributions, temperature=effective)
            key = tuple(sorted(candidate.decisions.to_dict().items()))
            if key not in seen:
                seen.add(key)
                results.append(candidate)
        unique = len(results)
        while len(results) < count:
            base = results[len(results) % unique]
            results.append(dataclasses.replace(base, strategy=f"{base.strategy}-duplicate"))
        return results[:count]

    def greedy_batch(self, distributions: dict[str, np.ndarray]) -> list[DecodingResult]:
        """Per-row argmax over ``(B, |slot|)`` distribution matrices."""
        choices = {slot: np.argmax(probs, axis=1) for slot, probs in distributions.items()}
        return self._interpreted_results_batch(distributions, choices, strategy="greedy")

    def sample_batch(
        self,
        distributions: dict[str, np.ndarray],
        temperature: float | None = None,
        top_k: int | None = None,
        top_p: float | None = None,
    ) -> list[DecodingResult]:
        """Sample every (row, slot) with one RNG vector per slot."""
        temperature = temperature if temperature is not None else self._config.temperature
        top_k = top_k if top_k is not None else self._config.top_k
        top_p = top_p if top_p is not None else self._config.top_p
        if temperature <= 0:
            raise GenerationError("temperature must be positive")
        choices: dict[str, np.ndarray] = {}
        for slot, probs in distributions.items():
            adjusted = self._apply_temperature_rows(probs, temperature)
            adjusted = self._truncate_rows(adjusted, top_k, top_p)
            cumulative = np.cumsum(adjusted, axis=1)
            draws = self._rng.generator.random(probs.shape[0])
            # Index of the first CDF entry strictly above the draw; the <=
            # comparison keeps zero-probability prefixes unselectable.
            indices = np.sum(cumulative <= draws[:, None], axis=1)
            choices[slot] = np.minimum(indices, probs.shape[1] - 1)
        return self._interpreted_results_batch(distributions, choices, strategy="sample")

    def diverse_candidates_batch(
        self,
        distributions: dict[str, np.ndarray],
        count: int,
        temperature: float | None = None,
    ) -> list[list[DecodingResult]]:
        """Per-row :meth:`diverse_candidates` over batched distributions, in row order."""
        batch = next(iter(distributions.values())).shape[0] if distributions else 0
        results: list[list[DecodingResult]] = []
        for index in range(batch):
            row_distributions = {slot: probs[index] for slot, probs in distributions.items()}
            results.append(self.diverse_candidates(row_distributions, count, temperature=temperature))
        return results

    def _interpreted_results_batch(
        self, distributions: dict[str, np.ndarray], choices: dict[str, np.ndarray], strategy: str
    ) -> list[DecodingResult]:
        batch = next(iter(choices.values())).shape[0] if choices else 0
        return [
            self._interpreted_result(
                {slot: probs[index] for slot, probs in distributions.items()},
                {slot: int(indices[index]) for slot, indices in choices.items()},
                strategy=strategy,
            )
            for index in range(batch)
        ]

    @staticmethod
    def _interpreted_result(
        distributions: dict[str, np.ndarray], choices: dict[str, int], strategy: str
    ) -> DecodingResult:
        values = {slot: DECISION_SLOTS[slot][index] for slot, index in choices.items()}
        decisions = DecisionVector.from_dict(values)
        logprob = 0.0
        slot_probabilities = {}
        for slot, index in choices.items():
            probability = float(distributions[slot][index])
            slot_probabilities[slot] = probability
            logprob += float(np.log(probability + 1e-12))
        return DecodingResult(
            decisions=decisions,
            logprob=logprob,
            slot_probabilities=slot_probabilities,
            strategy=strategy,
        )


# -- generator --------------------------------------------------------------------


class InterpretedGenerator(FaultGenerator):
    """A :class:`FaultGenerator` that decodes through the interpreted path.

    Encoder, policy, grammar and the decoder's RNG are built exactly as the
    production generator builds them, so for one config and seed the two
    start from the same state and differ only in how they decode.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decoder = InterpretedDecoder(self.config, rng=self.decoder._rng)

    def generate(
        self,
        prompt: GenerationPrompt,
        greedy: bool = True,
        iteration: int = 0,
        temperature: float | None = None,
    ):
        features = self.encoder.encode(prompt)
        distributions = self._constrained_distributions(prompt, features)
        if greedy:
            decoding = self.decoder.greedy(distributions)
        else:
            decoding = self.decoder.sample(distributions, temperature=temperature)
        return self._materialise(prompt, decoding, iteration)

    def candidates(
        self,
        prompt: GenerationPrompt,
        count: int,
        iteration: int = 0,
        temperature: float | None = None,
    ):
        features = self.encoder.encode(prompt)
        constrained = self._constrained_distributions(prompt, features)
        decodings = self.decoder.diverse_candidates(constrained, count, temperature=temperature)
        return [self._materialise(prompt, decoding, iteration, salt=str(i)) for i, decoding in enumerate(decodings)]

    def generate_batch(
        self,
        prompts: list[GenerationPrompt],
        greedy: bool = True,
        iteration: int = 0,
        temperature: float | None = None,
    ):
        if not prompts:
            return []
        distributions = self._constrained_distributions_batch(prompts)
        if greedy:
            decodings = self.decoder.greedy_batch(distributions)
        else:
            decodings = self.decoder.sample_batch(distributions, temperature=temperature)
        return [
            self._materialise(prompt, decoding, iteration)
            for prompt, decoding in zip(prompts, decodings)
        ]

    def candidates_batch(
        self,
        prompts: list[GenerationPrompt],
        count: int,
        iteration: int = 0,
        temperature: float | None = None,
    ):
        if not prompts:
            return []
        distributions = self._constrained_distributions_batch(prompts)
        decoding_sets = self.decoder.diverse_candidates_batch(
            distributions, count, temperature=temperature
        )
        return [
            [
                self._materialise(prompt, decoding, iteration, salt=str(i))
                for i, decoding in enumerate(decodings)
            ]
            for prompt, decodings in zip(prompts, decoding_sets)
        ]

    def prompt_distributions(self, prompts: list[GenerationPrompt]) -> dict:
        """Constrained per-slot ``(B, |slot|)`` distributions (safe to mutate)."""
        return self._constrained_distributions_batch(prompts)

    def _constrained_distributions(self, prompt: GenerationPrompt, features) -> dict:
        constrained = distributions(self.policy, features)
        constraints = spec_constraint(prompt, self.config)
        constraints.update(feedback_forced_slots(prompt))
        for slot, value in constraints.items():
            index = DECISION_SLOTS[slot].index(value)
            constrained[slot][:] = 0.0
            constrained[slot][index] = 1.0
        return constrained

    def _constrained_distributions_batch(self, prompts: list[GenerationPrompt]) -> dict:
        """Batched per-slot ``(B, |slot|)`` distributions with per-prompt constraints."""
        features = self.encoder.encode_batch(prompts)
        forward = self.policy.forward_batch(features)
        constrained = {slot: probs.copy() for slot, probs in forward.probabilities.items()}
        for index, prompt in enumerate(prompts):
            constraints = spec_constraint(prompt, self.config)
            constraints.update(feedback_forced_slots(prompt))
            for slot, value in constraints.items():
                position = DECISION_SLOTS[slot].index(value)
                constrained[slot][index, :] = 0.0
                constrained[slot][index, position] = 1.0
        return constrained
