"""Rule registry for ``repro-check`` (the project invariant linter).

Every rule has a stable ID that suppressions and the whitelist refer
to.  IDs are grouped by the invariant family they guard:

* **D-rules** — determinism: the headline guarantee of PRs 1–5 is that
  every table is byte-identical for any shard/worker count and across
  interpreter restarts.  Wall-clock reads, global RNG state, and
  hash-order-dependent iteration are the three ways Python code breaks
  that silently.
* **C-rules** — cache discipline: the content-addressed model caches
  (:mod:`repro.core.model_cache`) share frozen arrays across consumers;
  an in-place mutation of a cached array corrupts *other* patterns'
  results.  Labelling must flow through :func:`cached_labelled` so the
  cache actually sees it.
* **P-rules** — multiprocessing discipline: the sharded sweep runner
  ships work to ``spawn``/``fork`` pools; lambdas don't pickle, and
  module-global mutable state silently diverges between the parent and
  the workers.

A rule applies only in the *roles* listed: ``src`` (library code under
``src/``), ``tests``, ``benchmarks``, ``examples``.  Benchmarks time
things, so wall-clock reads are legal there; tests compare against
ground-truth ``label_grid`` runs, so the cache-routing rule does not
apply to them.

Suppressing a finding requires a justification — inline
(``# repro-check: disable=D101 -- reason``) or via the committed
whitelist file (see :mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

from dataclasses import dataclass

SRC = "src"
TESTS = "tests"
BENCHMARKS = "benchmarks"
EXAMPLES = "examples"
ALL_ROLES = frozenset({SRC, TESTS, BENCHMARKS, EXAMPLES})


@dataclass(frozen=True)
class Rule:
    """One checked invariant: stable ID, summary, and where it applies."""

    id: str
    summary: str
    rationale: str
    roles: frozenset[str]


RULES: dict[str, Rule] = {
    r.id: r
    for r in [
        Rule(
            id="D101",
            summary="wall-clock read in library code",
            rationale=(
                "time.time()/datetime.now() make results depend on when "
                "they ran; experiment outputs must be pure functions of "
                "(spec, seed).  The one sanctioned read site is "
                "repro.obs.clockio.wall_now — the telemetry shim the span "
                "tracer and WallClock import — so auditing wall-time flow "
                "means auditing that module's callers.  Benchmarks are "
                "exempt — timing is their job."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="D102",
            summary="global RNG state instead of util.rng streams",
            rationale=(
                "random.* and legacy numpy.random.* draw from hidden "
                "process-global state, so results depend on call order "
                "across the whole process.  All randomness must flow "
                "through repro.util.rng SeedSequence helpers "
                "(spawn_seed_sequences / make_rng) or an explicit "
                "Generator."
            ),
            roles=frozenset({SRC, TESTS, BENCHMARKS}),
        ),
        Rule(
            id="D103",
            summary="set iteration feeding an ordered result",
            rationale=(
                "set/frozenset iteration order depends on PYTHONHASHSEED "
                "for str/tuple keys; materializing one into a list, "
                "tuple, or appended-to sequence bakes that order into "
                "results.  Wrap in sorted() or keep the sink "
                "order-insensitive."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="C201",
            summary="re-enabling writes on a frozen array",
            rationale=(
                "setflags(write=True) / .flags.writeable = True defeats "
                "the freeze that protects content-addressed cache "
                "entries; a mutation through the re-writeable alias "
                "corrupts every other consumer of the digest."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="C202",
            summary="direct label_grid call outside sanctioned modules",
            rationale=(
                "labelling fixed points must flow through "
                "core.model_cache.cached_labelled so revisited patterns "
                "hit the content-addressed cache; only the labelling "
                "core, the cache itself, and the online dynamic-fault "
                "subsystem (which maintains labels incrementally) may "
                "call label_grid directly."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="C203",
            summary="in-place mutation of a cache-obtained object",
            rationale=(
                "values returned by cached_labelled / cached_class_assets "
                "are shared across every consumer in the process; "
                "writing into them corrupts other patterns' results.  "
                "Copy first."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="P301",
            summary="lambda or nested function submitted to a pool",
            rationale=(
                "lambdas and closures do not pickle under the spawn "
                "start method, and under fork they capture parent state "
                "invisibly.  Pool work must be module-level functions "
                "with picklable arguments (the sharded runner's "
                "contract)."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="P302",
            summary="module-global mutable state read in a worker function",
            rationale=(
                "evaluate_* worker functions run in forked/spawned "
                "processes; lowercase module-global lists/dicts/sets "
                "read there silently diverge from the parent.  Pass "
                "state through the task/spec, or make it an UPPER_CASE "
                "constant registry that is never mutated."
            ),
            roles=frozenset({SRC}),
        ),
        Rule(
            id="S001",
            summary="suppression without justification",
            rationale=(
                "every '# repro-check: disable=' comment must carry a "
                "'-- reason', and every whitelist entry a justification "
                "column; an unexplained suppression is indistinguishable "
                "from a silenced bug."
            ),
            roles=ALL_ROLES,
        ),
    ]
}
