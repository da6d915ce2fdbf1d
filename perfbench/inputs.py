"""Seeded inputs for the serving benchmark.

A description is built from target x function x fault phrasing x variant.
The phrasing table keeps the slow fault families (delay, timeout, retry,
hang) in the share they have among the tester phrasings below; they are
never filtered out, because a tester types them as often as any other.

Phrasings, and each target's functions, are drawn in fixed cycled orders;
the seed picks the variants and, where a workload does not rotate the
targets, the order of each block of four draws, one per target.  Whether a
hang phrasing hangs depends on the function it lands in (63 of the 74
target x function x hang-phrasing points did, executed in pool mode), so
with both orders fixed a run of given length meets the same hangs, and so
the same 10-second sandbox timeouts, whatever the seed.

Variants are context clauses written in words, never digits: the NLP layer
reads numbers in a description as fault parameters (a "delay of 17" would
change the fault, not just the text).  Warm-up inputs draw their clause from
a separate list, so they are disjoint from every measured input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Public functions of each built-in target (exception classes and the
#: reset helpers the workloads call are left out).
TARGET_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "bank": (
        "apply_interest", "audit_trail", "balance", "deposit", "freeze",
        "total_assets", "transfer", "withdraw",
    ),
    "kvstore": (
        "close_store", "compact", "delete", "get", "put", "replay", "size",
        "stats", "write_snapshot_to",
    ),
    "ecommerce": (
        "apply_discount", "charge_payment", "close_session", "compute_total",
        "open_session", "process_transaction", "refund_order",
        "reserve_inventory", "revenue", "send_confirmation", "validate_cart",
    ),
    "queue": (
        "acknowledge", "consume", "dead_letter_count", "delivered_ids",
        "negative_acknowledge", "pending", "process", "publish", "stats",
    ),
}

#: Target order of the campaign rotation (fixed, so every run of a given
#: length covers the same targets).
TARGETS: tuple[str, ...] = ("bank", "kvstore", "ecommerce", "queue")

#: (fault family, phrasing) pairs; ``{function}`` is the injection target.
PHRASINGS: tuple[tuple[str, str], ...] = (
    ("exception", "Simulate a scenario where the {function} function fails with an unhandled exception"),
    ("exception", "Make {function} raise an unexpected error while processing a request"),
    ("timeout", "Simulate a timeout in the {function} function causing an unhandled exception"),
    ("timeout", "Make the {function} function time out as if its backend dependency never responded"),
    ("delay", "Add a large delay to the {function} function to simulate a slow dependency"),
    ("delay", "Make {function} respond slowly, as if the downstream service is overloaded"),
    ("retry", "Make {function} fail transiently so its retry logic keeps retrying the call"),
    ("hang", "Make a loop in the {function} function spin forever, causing the operation to hang"),
    ("hang", "Introduce a deadlock in the {function} function so that it blocks forever"),
    ("race", "Introduce a race condition in the {function} function when it is called concurrently"),
    ("leak", "Introduce a memory leak in the {function} function so that memory usage grows on every call"),
    ("leak", "Make the {function} function forget to release its resources after use"),
    ("off_by_one", "Introduce an off-by-one error in the loop bounds of {function}"),
    ("wrong_value", "Introduce a logic error in {function} where an incorrect constant is used"),
    ("wrong_condition", "Introduce a wrong condition in {function} that inverts its control flow"),
    ("missing_check", "Make {function} skip its input validation entirely"),
    ("missing_return", "Make {function} forget to return its result"),
    ("wrong_return", "Introduce a fault where {function} returns an incorrect result"),
    ("swallowed", "Make the {function} function silently swallow errors instead of handling them"),
    ("corruption", "Silently corrupt the data computed by the {function} function without raising any error"),
    ("network", "Make the network dependency used by {function} unreachable, raising a connection error"),
    ("disk", "Make the storage used by {function} fail with an I/O error"),
)

#: The order phrasings are drawn in: one fixed shuffle, cycled.  Every run
#: meets each fault family at the same positions and in exactly its share,
#: whatever the seed, so the count of 10-second hangs inside a window does not
#: swing from seed to seed; the seed picks targets, functions and clauses.
SCHEDULE: tuple[int, ...] = tuple(random.Random("phrasing-order").sample(range(len(PHRASINGS)), len(PHRASINGS)))

#: The order each target's functions are drawn in: one fixed shuffle, cycled.
FUNCTION_ORDER: dict[str, tuple[str, ...]] = {
    name: tuple(random.Random(f"function-order/{name}").sample(functions, len(functions)))
    for name, functions in TARGET_FUNCTIONS.items()
}

#: Context clauses that make otherwise equal descriptions distinct.
VARIANTS: tuple[str, ...] = (
    "during the nightly batch", "under peak load", "right after a deploy",
    "for premium customers", "in the staging cluster", "when the cache is cold",
    "right after a restart", "while a backup runs", "during a failover drill",
    "on the first request of the day", "for requests from the mobile app",
    "while the audit job is running", "during a schema migration",
    "when the region is degraded", "for a customer on the legacy plan",
    "in the canary fleet",
)

#: Clauses used only by warm-up inputs (disjoint from :data:`VARIANTS`).
WARMUP_VARIANTS: tuple[str, ...] = (
    "in the warm-up environment", "before the benchmark starts",
    "on the rehearsal host", "in the dry-run sandbox",
)

#: Every ``REPEAT_EVERY``-th ``generate-open`` operation repeats an earlier
#: description: a quarter, at the same positions for every seed.  Hits and
#: misses form two latency modes, so a share that swung from seed to seed
#: would move the median with it.
REPEAT_EVERY = 4


@dataclass(frozen=True)
class Description:
    """One generated tester description and where it points."""

    target: str
    function: str
    family: str
    text: str


def describe(target: str, function: str, phrasing: int, clause: str) -> Description:
    """The description for one point of the input space."""
    family, template = PHRASINGS[phrasing]
    return Description(target, function, family, f"{template.format(function=function)} {clause}.")


class DescriptionSource:
    """Draws first-seen descriptions without replacement, seeded.

    Args:
        rng: The random stream that picks targets and variants.
        targets: Targets to draw from; ``None`` draws from all four.
        warmup: Draw from the warm-up clauses instead of the measured ones.
    """

    def __init__(self, rng: random.Random, targets=None, warmup: bool = False) -> None:
        self._rng = rng
        self._clauses = WARMUP_VARIANTS if warmup else VARIANTS
        # Warm-up exists to spawn pools, build targets and run baselines; a
        # hang there would only time the sandbox's test timeout.
        self._schedule = [i for i in SCHEDULE if not (warmup and PHRASINGS[i][0] == "hang")]
        self._drawn = 0
        self._next_function = dict.fromkeys(FUNCTION_ORDER, 0)
        self._targets = tuple(targets) if targets is not None else TARGETS
        # Unpinned draws take the targets in seeded blocks, one of each, so
        # every seed gives each target the same share: their renders differ
        # in cost (ecommerce's by about a quarter), which would otherwise
        # move the median from seed to seed.
        self._block: list[str] = []
        self._seen: set[str] = set()

    def draw(self, target: str | None = None) -> Description:
        """A description not drawn before; ``target`` pins the target."""
        phrasing = self._schedule[self._drawn % len(self._schedule)]
        self._drawn += 1
        if target is None and not self._block:
            self._block = self._rng.sample(self._targets, len(self._targets))
        name = target or self._block.pop()
        order = FUNCTION_ORDER[name]
        while True:
            function = order[self._next_function[name] % len(order)]
            self._next_function[name] += 1
            # Two targets can share a function name, so uniqueness is on the text.
            fresh = [
                clause for clause in self._clauses
                if describe(name, function, phrasing, clause).text not in self._seen
            ]
            if fresh:
                description = describe(name, function, phrasing, self._rng.choice(fresh))
                self._seen.add(description.text)
                return description


@dataclass(frozen=True)
class Operation:
    """One operation of a workload: the HTTP route and its JSON bodies.

    ``bodies`` holds one body per request the operation sends, in order
    (``feedback-closed`` sends an RLHF request, then a generate read).
    ``repeat`` marks a ``generate-open`` operation that re-sends an earlier
    description.  ``families`` lists the fault families it covers.
    """

    routes: tuple[str, ...]
    bodies: tuple[dict, ...]
    repeat: bool = False
    families: tuple[str, ...] = ()


def _generate(description: Description) -> dict:
    return {"description": description.text, "target": description.target}


def generate_open(rng: random.Random, count: int, warmup: bool = False, sources=None) -> list[Operation]:
    """Generate-only requests over all targets; a quarter repeat."""
    source = DescriptionSource(rng, warmup=warmup)
    sent: list[Description] = []
    ops = []
    for index in range(count):
        repeat = index % REPEAT_EVERY == REPEAT_EVERY - 1
        description = rng.choice(sent) if repeat else source.draw()
        if not repeat:
            sent.append(description)
        ops.append(Operation(("/v1/generate",), (_generate(description),), repeat, (description.family,)))
    return ops


#: Scenarios per campaign request.  One, so a run holds several campaigns:
#: a campaign's time turns on the faults its scenarios meet (a leak ran
#: 3.7 s where most ran 0.5-0.8 s), and the median of four four-scenario
#: campaigns moved by a quarter from seed to seed.
CAMPAIGN_SCENARIOS = 1


def campaign_closed(rng: random.Random, count: int, warmup: bool = False, sources=None) -> list[Operation]:
    """Pooled campaigns (all techniques) rotating over the four targets."""
    source = DescriptionSource(rng, warmup=warmup)
    ops = []
    for index in range(count):
        target = TARGETS[index % len(TARGETS)]
        scenarios = [source.draw(target) for _ in range(CAMPAIGN_SCENARIOS)]
        body = {"target": target, "scenarios": [s.text for s in scenarios], "mode": "pool"}
        ops.append(Operation(("/v1/campaign",), (body,), False, tuple(s.family for s in scenarios)))
    return ops


#: Descriptions per RLHF request.
RLHF_DESCRIPTIONS = 4


def feedback_closed(rng: random.Random, count: int, warmup: bool = False, sources=None) -> list[Operation]:
    """An RLHF request on one target's code, then a read of its first description.

    ``sources`` maps target name to its source text (the RLHF request sends
    ``code`` and no ``target``, so nothing is executed).
    """
    source = DescriptionSource(rng, warmup=warmup)
    ops = []
    for index in range(count):
        target = TARGETS[index % len(TARGETS)]
        descriptions = [source.draw(target) for _ in range(RLHF_DESCRIPTIONS)]
        rlhf = {"descriptions": [d.text for d in descriptions], "code": sources[target]}
        read = {"description": descriptions[0].text, "code": sources[target]}
        ops.append(
            Operation(
                ("/v1/rlhf", "/v1/generate"), (rlhf, read), False, tuple(d.family for d in descriptions)
            )
        )
    return ops
