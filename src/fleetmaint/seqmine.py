"""Differential mining of per-vehicle repair sequences.

Patterns are contiguous runs of system labels. Support counts occurrences
over all length-l windows (overlaps included, multiple hits per vehicle all
count) and is normalized by the total number of length-l windows in the
group, so left/right normalized supports are comparable proportions. The
left:right ratio (i-ratio) is capped at 10000.0 when the right side has zero
support, and H0: p_left = p_right is tested with a pooled two-proportion
z-test; a right side with no window of the pattern's length gives z = 0,
p = 1.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ingest import MaintenanceRecord, RejectedRow, VehicleRecord, encode_jobs, normalize_make_model
from .knobs import Checked
from .tensor import writing

I_RATIO_CAP = 10000.0
P_FLOOR = 1e-4


@dataclass
class EventSequence:
    """One vehicle's repair history as indices into a shared label table."""

    unit_no: str
    make_model: str
    events: np.ndarray  # int32 vocabulary indices, chronological

    def __len__(self) -> int:
        return int(self.events.shape[0])


@dataclass
class SequenceSet:
    labels: tuple[str, ...]
    sequences: list[EventSequence]

    def as_label_lists(self) -> list[list[str]]:
        return [[self.labels[i] for i in s.events] for s in self.sequences]


@dataclass(frozen=True)
class MineOptions(Checked):
    """Knobs for :func:`differential`: the pattern widths mined and how many patterns are kept."""

    min_len: int = field(default=3, metadata=dict(ge=1))
    max_len: int = field(default=4, metadata=dict(ge=1))
    top_n: int = field(default=8, metadata=dict(ge=1))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_len < self.min_len:
            raise ValueError(f"max_len {self.max_len} is below min_len {self.min_len}")


@dataclass
class DiffPattern:
    pattern: tuple[str, ...]
    left_support: int
    left_norm: float
    right_support: int
    right_norm: float
    i_ratio: float
    z: float
    p: float


def extract_sequences(
    maintenance: list[MaintenanceRecord], vehicles: list[VehicleRecord]
) -> tuple[SequenceSet, list[RejectedRow]]:
    """Per-vehicle event sequences ordered by (job open date, job id), in the
    vehicle order and over the normalized systems that ``encode_jobs`` gives."""
    ranked, unit, systems, system = encode_jobs(vehicles, maintenance)
    rejects = [RejectedRow(i, "unknown_vehicle", maintenance[i].unit_no)
               for i in np.flatnonzero(unit < 0).tolist()]
    ids = [r.job_id for r in maintenance]
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    day = np.fromiter((r.job_open_date.toordinal() for r in maintenance), np.int64, len(ids))
    # stable: ties keep Job ID, then input, order; unknown vehicles (-1) lead, cut off
    order = by_id[np.lexsort((day[by_id], unit[by_id]))][len(rejects):]
    used, events = np.unique(system[order], return_inverse=True)
    units, starts = np.unique(unit[order], return_index=True)
    sequences = [
        EventSequence(unit_no=ranked[u].unit_no, make_model=ranked[u].make_model, events=ev)
        for u, ev in zip(units.tolist(), np.split(events.astype(np.int32), starts[1:]))
    ]
    return SequenceSet(tuple(systems[j] for j in used.tolist()), sequences), rejects


def window_counts(sequences: list[EventSequence], width: int, wanted: set | None = None) -> Counter:
    """Occurrences of each contiguous window of ``width`` events, keyed by its
    tuple of label indices; overlapping windows and repeats within one
    sequence all count. Only windows in ``wanted`` are kept when it is given;
    without it, ``total()`` is the number of windows."""
    counts: Counter = Counter()
    for seq in sequences:
        if len(seq) >= width:  # a shorter sequence has no window
            events = seq.events.tolist()
            windows = zip(*(events[k:] for k in range(width)))
            counts.update(windows if wanted is None else filter(wanted.__contains__, windows))
    return counts


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def two_prop_z(x1: int, n1: int, x2: int, n2: int) -> tuple[float, float]:
    """Pooled two-proportion z-test of H0: p1 = p2, for 0 <= x <= n and n >= 1
    on both sides. Returns (z, two-sided p). A degenerate pooled proportion
    (0 or 1) gives z = 0, p = 1.
    """
    p1 = x1 / n1
    p2 = x2 / n2
    pooled = (x1 + x2) / (n1 + n2)
    se_sq = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if se_sq == 0.0:
        return 0.0, 1.0
    z = (p1 - p2) / math.sqrt(se_sq)
    p = 2.0 * normal_cdf(-abs(z))
    return z, p


# ---------------------------------------------------------------------------
# differential mining
# ---------------------------------------------------------------------------


def differential(seqset: SequenceSet, target_make_model: str, **options) -> list[DiffPattern]:
    """Mine the target group's top patterns, by the :class:`MineOptions` ``options``, and
    contrast them with the rest. Output is sorted by left support descending, then by pattern.
    """
    opts = MineOptions(**options)
    target = normalize_make_model(target_make_model)
    left = [s for s in seqset.sequences if s.make_model == target]
    right = [s for s in seqset.sequences if s.make_model != target]
    if not left:
        raise ValueError(f"no sequences for target make/model {target!r}")
    if not right:
        raise ValueError("no non-target sequences to compare against")

    # one width at a time, up to the longest target sequence; ties go by label
    # indices, a total order, so this keeps the first top_n of the full sort
    mined: list = []
    for width in range(opts.min_len, min(opts.max_len, max(map(len, left))) + 1):
        mined = heapq.nsmallest(opts.top_n, [*mined, *window_counts(left, width).items()],
                                key=lambda kv: (-kv[1], kv[0]))

    # the rest is counted only for the mined patterns
    wanted = {pattern for pattern, _ in mined}
    right_counts: Counter = Counter()
    for width in set(map(len, wanted)):
        right_counts.update(window_counts(right, width, wanted))

    out = []
    for pattern_idx, left_support in mined:
        width = len(pattern_idx)
        n_left, n_right = (sum(max(len(s) - width + 1, 0) for s in g) for g in (left, right))
        right_support = right_counts[pattern_idx]
        left_norm = left_support / n_left
        if n_right > 0:
            right_norm = right_support / n_right
            z, p = two_prop_z(left_support, n_left, right_support, n_right)
        else:  # no rest window of this width: nothing to test against
            right_norm, z, p = 0.0, 0.0, 1.0
        i_ratio = left_norm / right_norm if right_norm > 0 else I_RATIO_CAP
        pattern = tuple(seqset.labels[i] for i in pattern_idx)
        out.append(
            DiffPattern(pattern, left_support, left_norm, right_support, right_norm, i_ratio, z, p)
        )
    out.sort(key=lambda d: (-d.left_support, d.pattern))
    return out


# ---------------------------------------------------------------------------
# report formatting: norm supports at fixed 4 decimals, i-ratio rounded to 2
# and z to 1 with trailing zeros trimmed, p floored at "< 0.0001"
# ---------------------------------------------------------------------------


def format_pattern(pattern: tuple[str, ...]) -> str:
    return "(" + ", ".join(pattern) + ")"


def format_norm(value: float) -> str:
    return f"{value:.4f}"


def format_ratio(value: float) -> str:
    return repr(round(value, 2))


def format_z(value: float) -> str:
    return repr(round(value, 1))


def format_p(value: float) -> str:
    return "< 0.0001" if value < P_FLOOR else f"{value:.4f}"


DIFF_CSV_COLUMNS = (
    "pattern",
    "left_support",
    "left_norm",
    "right_support",
    "right_norm",
    "i_ratio",
    "z",
    "p",
)


def write_diff_csv(patterns: list[DiffPattern], path, bonferroni: bool = False) -> None:
    """Table-style CSV of mining results; optional Bonferroni-adjusted column."""
    columns = DIFF_CSV_COLUMNS + (("p_bonferroni",) if bonferroni else ())
    n_tests = len(patterns)
    with writing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for d in patterns:
            row = [
                format_pattern(d.pattern),
                str(d.left_support),
                format_norm(d.left_norm),
                str(d.right_support),
                format_norm(d.right_norm),
                format_ratio(d.i_ratio),
                format_z(d.z),
                format_p(d.p),
            ]
            if bonferroni:
                row.append(format_p(min(1.0, d.p * n_tests)))
            writer.writerow(row)
