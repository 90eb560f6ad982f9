"""Pairwise regression detection over ``repro.bench/v1`` documents.

Two bench documents are paired by ``(dataset, strategy)`` and each
pair's metric is classified under a noise-aware tolerance:

* **relative threshold** (``rel_tol``, default 5%): the change must
  exceed this fraction of the baseline value, and
* **minimum-effect floor** (``min_effect``): the absolute change must
  also exceed this — a 10% swing on a 40-cycle run is below the noise
  floor of any real measurement and must not page anyone.

Both conditions must hold for a pair to count as *regressed* or
*improved*; everything else is *unchanged*.  Pairs present on only one
side are *missing* (baseline-only — coverage was lost) or *new*
(current-only).  Whether "bigger is worse" is inferred from the metric:
cycles and seconds regress upward, (M)TEPS regress downward.

The grid body is deterministic, so an identical-seed rerun produces
delta == 0 for every pair — the all-unchanged verdict the CLI's
``repro bench diff`` acceptance test locks down.  A *regressed* verdict
therefore always reflects a real behaviour change (cost model, engine,
policy), and the tolerances exist for intentional-change review ("is
this 0.3% or 30%?"), not for flaky-harness suppression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BenchFormatError
from ..observability.export import load_json
from .grid import BENCH_SCHEMA

__all__ = [
    "DIFF_SCHEMA",
    "DEFAULT_METRIC",
    "DEFAULT_REL_TOL",
    "DEFAULT_MIN_EFFECT",
    "Comparison",
    "BenchDiff",
    "load_bench",
    "load_diff",
    "diff_bench",
]

DIFF_SCHEMA = "repro.bench.diff/v1"
DEFAULT_METRIC = "makespan_cycles"
DEFAULT_REL_TOL = 0.05
#: Minimum absolute change (in the metric's own units) for a pair to be
#: classified at all; defaults per metric below.
DEFAULT_MIN_EFFECT = {
    "makespan_cycles": 1e3,
    "sim_seconds": 1e-6,
    "mteps": 1.0,
    "extrapolated_mteps": 1.0,
    "levels_traced": 1.0,
    "bytes_allocated": 1024.0,
}

#: Metrics where a *larger* current value is an improvement.
_HIGHER_IS_BETTER = {"mteps", "extrapolated_mteps"}


def _read(path) -> dict:
    try:
        return load_json(path)
    except ValueError as exc:
        raise BenchFormatError(str(exc)) from exc


def load_bench(path) -> dict:
    """Load and validate a ``repro.bench/v1`` document."""
    doc = _read(path)
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise BenchFormatError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, got "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    results = doc.get("results")
    if not isinstance(results, list):
        raise BenchFormatError(f"{path}: missing or non-list 'results'")
    for i, row in enumerate(results):
        if not isinstance(row, dict) or "dataset" not in row \
                or "strategy" not in row:
            raise BenchFormatError(
                f"{path}: results[{i}] lacks dataset/strategy keys"
            )
    return doc


@dataclass(frozen=True)
class Comparison:
    """One (dataset, strategy) pair's verdict."""

    dataset: str
    strategy: str
    metric: str
    status: str            # regressed | improved | unchanged | missing | new
    baseline: float | None
    current: float | None
    delta: float | None    # current - baseline
    ratio: float | None    # current / baseline (None when baseline == 0)

    @property
    def pair(self) -> str:
        return f"{self.dataset}/{self.strategy}"

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "strategy": self.strategy,
            "metric": self.metric,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "ratio": self.ratio,
        }


@dataclass
class BenchDiff:
    """The full verdict of one baseline-vs-current comparison."""

    metric: str
    rel_tol: float
    min_effect: float
    higher_is_better: bool
    rows: list = field(default_factory=list)
    config_warnings: list = field(default_factory=list)

    def by_status(self, status: str) -> list:
        return [r for r in self.rows if r.status == status]

    @property
    def regressed(self) -> list:
        return self.by_status("regressed")

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressed)

    @property
    def exit_code(self) -> int:
        """Nonzero exactly when a regression was detected — what
        ``repro bench diff --fail-on-regression`` returns."""
        return 1 if self.has_regressions else 0

    def summary_counts(self) -> dict:
        counts = {s: 0 for s in
                  ("regressed", "improved", "unchanged", "missing", "new")}
        for r in self.rows:
            counts[r.status] += 1
        return counts

    def to_dict(self) -> dict:
        """Machine-readable ``repro.bench.diff/v1`` verdict."""
        return {
            "schema": DIFF_SCHEMA,
            "metric": self.metric,
            "rel_tol": self.rel_tol,
            "min_effect": self.min_effect,
            "higher_is_better": self.higher_is_better,
            "summary": self.summary_counts(),
            "regressions": [r.pair for r in self.regressed],
            "rows": [r.to_dict() for r in self.rows],
            "config_warnings": list(self.config_warnings),
            "verdict": "regressed" if self.has_regressions else "ok",
        }

    @classmethod
    def from_dict(cls, doc) -> "BenchDiff":
        """The verdict :meth:`to_dict` wrote; any other document raises
        :class:`~repro.errors.BenchFormatError`."""
        if not isinstance(doc, dict) or doc.get("schema") != DIFF_SCHEMA:
            got = (doc.get("schema") if isinstance(doc, dict)
                   else type(doc).__name__)
            raise BenchFormatError(
                f"expected schema {DIFF_SCHEMA!r}, got {got!r}")
        try:
            return cls(metric=doc["metric"], rel_tol=doc["rel_tol"],
                       min_effect=doc["min_effect"],
                       higher_is_better=doc["higher_is_better"],
                       rows=[Comparison(**row) for row in doc["rows"]],
                       config_warnings=list(doc.get("config_warnings", [])))
        except (KeyError, TypeError) as exc:
            raise BenchFormatError(
                f"malformed {DIFF_SCHEMA} verdict: {exc!r}") from exc

    def render_table(self) -> str:
        """Terminal table, worst news first."""
        order = {"regressed": 0, "missing": 1, "improved": 2, "new": 3,
                 "unchanged": 4}
        rows = sorted(self.rows,
                      key=lambda r: (order[r.status], r.dataset, r.strategy))
        lines = [
            f"{'dataset':<20} {'strategy':<16} {'baseline':>14} "
            f"{'current':>14} {'change':>9}  status"
        ]
        for r in rows:
            base = "-" if r.baseline is None else f"{r.baseline:,.0f}"
            curr = "-" if r.current is None else f"{r.current:,.0f}"
            if r.baseline and r.delta is not None:
                change = f"{100.0 * r.delta / abs(r.baseline):+.1f}%"
            elif r.delta is not None:
                change = f"{r.delta:+.0f}"
            else:
                change = "-"
            flag = " <<<" if r.status == "regressed" else ""
            lines.append(
                f"{r.dataset:<20} {r.strategy:<16} {base:>14} "
                f"{curr:>14} {change:>9}  {r.status}{flag}"
            )
        counts = self.summary_counts()
        lines.append("")
        lines.append(
            f"metric={self.metric} rel_tol={self.rel_tol:g} "
            f"min_effect={self.min_effect:g}: "
            + ", ".join(f"{v} {k}" for k, v in counts.items() if v)
        )
        for w in self.config_warnings:
            lines.append(f"warning: {w}")
        if self.has_regressions:
            lines.append(
                "REGRESSED: " + ", ".join(r.pair for r in self.regressed)
            )
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _index(doc: dict, metric: str, path_label: str) -> dict:
    out = {}
    for row in doc["results"]:
        key = (row["dataset"], row["strategy"])
        if key in out:
            raise BenchFormatError(
                f"{path_label}: duplicate (dataset, strategy) pair {key}"
            )
        if metric in row and row[metric] is not None:
            out[key] = float(row[metric])
        else:
            out[key] = None
    return out


def _classify(baseline: float, current: float, rel_tol: float,
              min_effect: float, higher_is_better: bool) -> str:
    delta = current - baseline
    worse = -delta if higher_is_better else delta
    if abs(delta) <= min_effect:
        return "unchanged"
    scale = abs(baseline)
    if scale == 0.0:
        # Any above-floor change from a zero baseline is a real change.
        return "regressed" if worse > 0 else "improved"
    if abs(delta) / scale <= rel_tol:
        return "unchanged"
    return "regressed" if worse > 0 else "improved"


def load_diff(path) -> BenchDiff:
    """Load a saved ``repro.bench.diff/v1`` verdict."""
    doc = _read(path)
    try:
        return BenchDiff.from_dict(doc)
    except BenchFormatError as exc:
        raise BenchFormatError(f"{path}: {exc}") from exc


def diff_bench(
    baseline: dict,
    current: dict,
    metric: str = DEFAULT_METRIC,
    rel_tol: float = DEFAULT_REL_TOL,
    min_effect: float | None = None,
    higher_is_better: bool | None = None,
) -> BenchDiff:
    """Pair ``baseline`` and ``current`` by (dataset, strategy) and
    classify every pair; see the module docstring for the rules."""
    if rel_tol < 0:
        raise BenchFormatError("rel_tol must be non-negative")
    if min_effect is None:
        min_effect = DEFAULT_MIN_EFFECT.get(metric, 0.0)
    if min_effect < 0:
        raise BenchFormatError("min_effect must be non-negative")
    if higher_is_better is None:
        higher_is_better = metric in _HIGHER_IS_BETTER

    diff = BenchDiff(metric=metric, rel_tol=float(rel_tol),
                     min_effect=float(min_effect),
                     higher_is_better=bool(higher_is_better))

    base_cfg = baseline.get("config", {})
    curr_cfg = current.get("config", {})
    for key in sorted(set(base_cfg) | set(curr_cfg)):
        if base_cfg.get(key) != curr_cfg.get(key):
            diff.config_warnings.append(
                f"config mismatch: {key} baseline={base_cfg.get(key)!r} "
                f"current={curr_cfg.get(key)!r} — deltas may reflect the "
                f"config, not the code"
            )

    base_idx = _index(baseline, metric, "baseline")
    curr_idx = _index(current, metric, "current")
    for key in sorted(set(base_idx) | set(curr_idx)):
        dataset, strategy = key
        b = base_idx.get(key)
        c = curr_idx.get(key)
        if key not in curr_idx or c is None:
            status, delta, ratio = "missing", None, None
        elif key not in base_idx or b is None:
            status, delta, ratio = "new", None, None
        else:
            status = _classify(b, c, rel_tol, min_effect, higher_is_better)
            delta = c - b
            ratio = (c / b) if b != 0 else None
        diff.rows.append(Comparison(
            dataset=dataset, strategy=strategy, metric=metric,
            status=status, baseline=b, current=c, delta=delta, ratio=ratio,
        ))
    return diff
