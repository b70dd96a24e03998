"""Plain-text rendering of experiment results (tables and series).

The paper presents its results as gnuplot figures; the benches print the
same series as aligned text tables so the trends are reviewable in a
terminal or CI log without a plotting stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value) and abs(value) < 1e6:
            return f"{int(value)}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], *, indent: str = ""
) -> str:
    """Render an aligned text table."""
    str_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(indent + header_line)
    lines.append(indent + "  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            indent
            + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


@dataclass
class ResultTable:
    """One captioned table inside an experiment result."""

    caption: str
    headers: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]

    def render(self) -> str:
        return f"{self.caption}\n{format_table(self.headers, self.rows)}"


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    description: str
    tables: List[ResultTable] = field(default_factory=list)
    #: Raw series for programmatic checks (benches assert shapes on this).
    data: Dict[str, Any] = field(default_factory=dict)
    #: The qualitative expectation from the paper, stated for the reader.
    paper_expectation: str = ""
    #: Wall-clock/throughput per phase, filled in by ``run_experiment``
    #: (``{"total_seconds": ..., "jobs": ..., "phases": {...}}``).
    timings: Dict[str, Any] = field(default_factory=dict)

    def add_table(
        self,
        caption: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
    ) -> None:
        self.tables.append(
            ResultTable(caption, tuple(headers), [tuple(r) for r in rows])
        )

    def render(self) -> str:
        parts = [
            f"=== {self.experiment_id}: {self.title} ===",
            self.description,
        ]
        if self.paper_expectation:
            parts.append(f"Paper expectation: {self.paper_expectation}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        if self.timings:
            parts.append("")
            parts.append(self._render_timings())
        return "\n".join(parts)

    def _render_timings(self) -> str:
        bits = []
        total = self.timings.get("total_seconds")
        if total is not None:
            jobs = self.timings.get("jobs")
            suffix = f" (jobs={jobs})" if jobs else ""
            bits.append(f"total {total:.2f}s{suffix}")
        for name, t in sorted(self.timings.get("phases", {}).items()):
            bits.append(
                f"{name}: {t['seconds']:.2f}s, {t['items']} users, "
                f"{t['items_per_second']:.1f} users/s"
            )
        cache = self.timings.get("cache")
        if cache is not None:
            bits.append(
                f"cache: {cache['hits']} hits, {cache['misses']} misses"
                + (f", {cache['stale']} stale" if cache.get("stale") else "")
                + (
                    f", {cache['stores']} stores"
                    if cache.get("stores")
                    else ""
                )
                + (
                    f", {cache['disk_hits']} disk hits"
                    if cache.get("disk_hits")
                    else ""
                )
                + (
                    f", {cache['disk_errors']} disk errors "
                    f"(memory-only)"
                    if cache.get("disk_errors")
                    else ""
                )
            )
        pool = self.timings.get("pool")
        if pool and pool.get("starts"):
            line = f"pool: {pool['starts']} starts"
            for counter in ("retries", "rebuilds", "timeouts", "quarantined"):
                if pool.get(counter):
                    line += f", {pool[counter]} {counter}"
            bits.append(line)
        failures = self.timings.get("failures")
        if failures:
            bits.append(
                f"failures: {len(failures.get('chunk_failures', []))} chunk "
                f"failures, {len(failures.get('quarantined', []))} quarantined"
            )
        return "[timing] " + "; ".join(bits)
