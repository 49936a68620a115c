"""The differential oracle: N engines, one snapshot, one answer.

Every generated query runs on the flat (GES), factorized (GES_f), fused
(GES_f*), and Volcano row executors against the *same* read view, and the
de-factored result bags must be identical.  Three configuration axes ride
along as auxiliary engines: plan-cache off, tracing on, and a warm
cache-hit re-run — none of which may change a result.

Comparison reuses the LDBC cross-engine comparator
(:mod:`repro.ldbc.validation`): rows are normalized (NumPy scalars
unboxed, NaN collapsed into the one NULL class) and compared as bags,
because engines are free to order NULLs and break ties differently.  When
the plan ends in ``ORDER BY`` the oracle additionally checks each engine's
output is sorted on its keys — restricted to rows whose keys are all
non-NULL, the one regime where the ordering contract is engine-independent.

Every engine above reads the same view, so a visibility bug in the
storage kernel they share would go unseen.  On a versioned view the
oracle therefore adds one "same content, versioned" check: the baseline's
answer must equal the default engine's answer over a twin store
bulk-loaded from the live content (:func:`~repro.storage.io.copy_graph`),
which has no stamps, no tombstones and no overlay.  A versioned view
handed to :meth:`DifferentialOracle.check` must be at the latest commit,
as the fuzz loop, the shrinker and the chaos campaign all pass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..baselines.volcano import VolcanoEngine
from ..engine.config import EngineConfig
from ..engine.service import GraphEngineService
from ..ldbc.validation import normalize_value, rows_bag
from ..plan.logical import AggregateTopK, Limit, LogicalPlan, OrderBy, TopK
from ..storage.graph import GraphReadView, GraphStore
from ..storage.io import copy_graph
from .querygen import GeneratedQuery

#: Engine names whose configs the default oracle instantiates.
BASELINE = "GES"

#: Variant name of the bulk-loaded twin in "versioned" mismatches.
TWIN = "GES_f*/twin"


@dataclass
class OracleMismatch:
    """One cross-variant disagreement for a single query."""

    kind: str  # "rows" | "columns" | "error" | "order" | "cache-warm" | "versioned"
    variant: str
    detail: str

    @property
    def signature(self) -> tuple[str, str]:
        """What the shrinker must preserve while minimizing."""
        return (self.kind, self.variant)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.variant}: {self.detail}"


def _default_engines(store: GraphStore) -> dict[str, Any]:
    return {
        "GES": GraphEngineService(store, EngineConfig.ges()),
        "GES_f": GraphEngineService(store, EngineConfig.ges_f()),
        "GES_f*": GraphEngineService(store, EngineConfig.ges_f_star()),
        "GES_f*/nocache": GraphEngineService(
            store, EngineConfig.ges_f_star(plan_cache=False)
        ),
        "GES_f*/traced": GraphEngineService(
            store, EngineConfig.ges_f_star(tracing=True)
        ),
        "Volcano": VolcanoEngine(store),
    }


def _order_spec(plan: LogicalPlan) -> list[tuple[str, bool]] | None:
    """The terminal sort keys, if the plan promises an output order."""
    ops = plan.ops
    if not ops:
        return None
    last = ops[-1]
    if isinstance(last, (TopK, AggregateTopK)):
        return list(last.keys)
    if isinstance(last, OrderBy):
        return list(last.keys)
    if isinstance(last, Limit) and len(ops) >= 2 and isinstance(ops[-2], OrderBy):
        return list(ops[-2].keys)
    return None


def _sorted_violation(
    rows: list[tuple], columns: list[str], keys: list[tuple[str, bool]]
) -> str | None:
    """First out-of-order adjacent pair over all-non-NULL-key rows, if any."""
    try:
        idx = [columns.index(name) for name, _ in keys]
    except ValueError:
        return None  # keys not in the returned columns: order not checkable
    directions = [asc for _, asc in keys]
    previous: list[Any] | None = None
    for row in rows:
        values = [normalize_value(row[i]) for i in idx]
        if any(v is None for v in values):
            continue  # NULL placement is engine-specific
        if previous is not None:
            for prev, cur, asc in zip(previous, values, directions):
                if prev == cur:
                    continue
                in_order = prev < cur if asc else prev > cur
                if not in_order:
                    return f"{previous!r} before {values!r} under keys {keys!r}"
                break
        previous = values
    return None


class DifferentialOracle:
    """Runs one query on every engine over one snapshot and diffs the bags.

    ``engines`` is injectable so tests can wire in a deliberately broken
    executor and watch the oracle catch it.
    """

    def __init__(
        self,
        store: GraphStore,
        engines: Mapping[str, Any] | None = None,
        baseline: str = BASELINE,
    ) -> None:
        self.store = store
        self.engines = dict(engines) if engines is not None else _default_engines(store)
        if baseline not in self.engines:
            raise ValueError(f"baseline engine {baseline!r} not in engine map")
        self.baseline = baseline
        # (store mutation epoch, engine over the twin) — rebuilt on writes.
        self._twin: tuple[int, GraphEngineService] | None = None

    def _twin_engine(self) -> GraphEngineService:
        epoch = self.store.mutation_epoch
        if self._twin is None or self._twin[0] != epoch:
            twin = copy_graph(self.store)
            self._twin = (epoch, GraphEngineService(twin, EngineConfig.ges_f_star()))
        return self._twin[1]

    def _check_versioned(
        self, query: GeneratedQuery, runnable: Any, base: Any
    ) -> list[OracleMismatch]:
        """Same content, versioned: the baseline's versioned answer must
        equal the bulk-load path's answer over the twin."""
        try:
            twin = self._twin_engine().execute(runnable, query.params)
        except Exception as exc:  # noqa: BLE001
            return [OracleMismatch("versioned", TWIN, f"{type(exc).__name__}: {exc}")]
        if rows_bag(twin.rows) == rows_bag(base.rows):
            return []
        return [
            OracleMismatch(
                "versioned",
                TWIN,
                f"bulk-loaded twin returned {len(twin.rows)} rows, "
                f"the versioned view {len(base.rows)}",
            )
        ]

    def _check_uniform_rejection(
        self, query: GeneratedQuery, view: GraphReadView, exc: Exception
    ) -> list[OracleMismatch]:
        """Unparseable text is fine only if every frontend rejects it alike."""
        expected = type(exc).__name__
        mismatches = []
        for name, engine in self.engines.items():
            if isinstance(engine, VolcanoEngine):
                continue  # no text frontend
            try:
                engine.execute(query.cypher, query.params, view=view)
            except Exception as other:  # noqa: BLE001
                if type(other).__name__ != expected:
                    mismatches.append(
                        OracleMismatch(
                            "error", name, f"{type(other).__name__} != {expected}"
                        )
                    )
            else:
                mismatches.append(
                    OracleMismatch(
                        "error", name, f"accepted text the baseline rejects ({expected})"
                    )
                )
        return mismatches

    def check(
        self, query: GeneratedQuery, view: GraphReadView | None = None
    ) -> list[OracleMismatch]:
        """All disagreements for *query* (empty list = every engine agrees)."""
        view = view if view is not None else self.store.read_view(None)
        plan = query.plan
        if plan is None:
            assert query.cypher is not None
            # One parse+bind, engine-independent, gives Volcano its plan;
            # the GES services still execute the raw text so the string
            # path (parser + plan-cache keying) stays under test.
            try:
                plan = self.engines[self.baseline].compile(query.cypher)
            except Exception as exc:  # noqa: BLE001
                return self._check_uniform_rejection(query, view, exc)

        outcomes: dict[str, Any] = {}
        errors: dict[str, str] = {}
        for name, engine in self.engines.items():
            runnable = (
                plan
                if isinstance(engine, VolcanoEngine) or query.cypher is None
                else query.cypher
            )
            try:
                outcomes[name] = engine.execute(runnable, query.params, view=view)
            except Exception as exc:  # noqa: BLE001 — the diff IS the product
                errors[name] = f"{type(exc).__name__}: {exc}"

        mismatches: list[OracleMismatch] = []
        if errors:
            if len(errors) == len(self.engines) and len(set(errors.values())) == 1:
                # Uniform rejection is agreement (the generator emitted an
                # unplannable query); anything else is a divergence.
                return []
            for name, message in errors.items():
                mismatches.append(OracleMismatch("error", name, message))
            if not outcomes:
                return mismatches

        baseline_name = (
            self.baseline if self.baseline in outcomes else next(iter(outcomes))
        )
        base = outcomes[baseline_name]
        base_bag = rows_bag(base.rows)
        order = _order_spec(plan)
        for name, result in outcomes.items():
            if list(result.columns) != list(base.columns):
                mismatches.append(
                    OracleMismatch(
                        "columns",
                        name,
                        f"{result.columns!r} != {base.columns!r}",
                    )
                )
                continue
            if name != baseline_name:
                bag = rows_bag(result.rows)
                if bag != base_bag:
                    extra = bag - base_bag
                    missing = base_bag - bag
                    mismatches.append(
                        OracleMismatch(
                            "rows",
                            name,
                            f"{len(result.rows)} vs {len(base.rows)} rows; "
                            f"extra={_preview(extra)} missing={_preview(missing)}",
                        )
                    )
            if order is not None:
                violation = _sorted_violation(
                    result.rows, list(result.columns), order
                )
                if violation is not None:
                    mismatches.append(OracleMismatch("order", name, violation))

        # Warm cache-hit agreement: the second run of the same text/plan is
        # served from the plan cache and must not change the answer.
        if baseline_name == self.baseline and not errors:
            runnable = query.cypher if query.cypher is not None else plan
            try:
                warm = self.engines[self.baseline].execute(
                    runnable, query.params, view=view
                )
            except Exception as exc:  # noqa: BLE001
                mismatches.append(
                    OracleMismatch(
                        "cache-warm", self.baseline, f"{type(exc).__name__}: {exc}"
                    )
                )
            else:
                if rows_bag(warm.rows) != base_bag:
                    mismatches.append(
                        OracleMismatch(
                            "cache-warm",
                            self.baseline,
                            f"warm run returned {len(warm.rows)} rows, "
                            f"cold returned {len(base.rows)}",
                        )
                    )
            if view.version is not None:
                mismatches.extend(self._check_versioned(query, runnable, base))
        return mismatches


def _preview(bag, limit: int = 3) -> str:
    items = list(bag.items())[:limit]
    rendered = ", ".join(f"{row!r}x{count}" for row, count in items)
    more = sum(bag.values()) - sum(c for _, c in items)
    return "{" + rendered + (f", +{more} more" if more > 0 else "") + "}"
