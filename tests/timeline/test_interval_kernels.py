"""Bit-identity of the interval kernels against their plain reference scans.

``overlap``, ``overlaps``, ``intersection``, ``union``/``union_all``
and the constructor's merge are written as tight local-variable loops;
every figure depends on them producing exactly the floats — and the
int/float endpoint objects — of the straightforward merge scans kept
below as the reference.  Endpoints
are drawn the way the online-time models produce them: fractional
``random() * length`` offsets, whole seconds, int/float twins of one
value (``3600`` vs ``3600.0``, which only ``repr`` tells apart),
touching intervals and ``DAY_SECONDS`` ends.  The property suite in
``test_intervals_properties.py`` draws int endpoints only, so it cannot
see a reordered float sum; these tests compare ``repr`` of the interval
tuples and ``float.hex`` of every measure and overlap.
"""

from typing import Iterable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeline import DAY_SECONDS, IntervalSet

Pair = Tuple[float, float]


# -- reference scans (the kernels as they were before the fast loops) -------


def _normalise(pairs: Iterable[Pair], wrap: bool) -> Tuple[Pair, ...]:
    """Sort, clip to the day, split wrapping intervals, and merge."""
    flat: List[Pair] = []
    for start, end in pairs:
        if start == end:
            continue
        if wrap:
            # An interval of a full day or more covers everything.
            if end > start and end - start >= DAY_SECONDS:
                return ((0, DAY_SECONDS),)
            start %= DAY_SECONDS
            end %= DAY_SECONDS
            if end == 0:
                end = DAY_SECONDS
            if start < end:
                flat.append((start, end))
            else:  # wraps midnight
                flat.append((start, DAY_SECONDS))
                flat.append((0, end))
        else:
            if start < 0 or end > DAY_SECONDS or start > end:
                raise ValueError(
                    f"interval [{start}, {end}) outside [0, {DAY_SECONDS}]"
                )
            flat.append((start, end))
    if not flat:
        return ()
    flat.sort()
    merged: List[Pair] = [flat[0]]
    for start, end in flat[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:  # overlapping or touching: coalesce
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return tuple(merged)


def ref_union_all(sets: Iterable[Tuple[Pair, ...]]):
    pairs: List[Pair] = []
    for s in sets:
        pairs.extend(s)
    intervals = _normalise(pairs, wrap=False)
    return intervals, sum(end - start for start, end in intervals)


def ref_intersection(a: Tuple[Pair, ...], b: Tuple[Pair, ...]):
    pairs: List[Pair] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            pairs.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(pairs), sum(end - start for start, end in pairs)


def ref_overlap(a: Tuple[Pair, ...], b: Tuple[Pair, ...]) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            total += end - start
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def ref_overlaps(a: Tuple[Pair, ...], b: Tuple[Pair, ...]) -> bool:
    i = j = 0
    while i < len(a) and j < len(b):
        if max(a[i][0], b[j][0]) < min(a[i][1], b[j][1]):
            return True
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return False


# -- strategies ---------------------------------------------------------------

#: Shared cut points make intervals of different sets touch or coincide.
_GRID = (0, 600, 3600, 7200, 43200, 86399, DAY_SECONDS)


@st.composite
def _endpoint(draw):
    kind = draw(st.sampled_from(("grid", "grid-float", "fraction", "int")))
    if kind == "grid":
        return draw(st.sampled_from(_GRID))
    if kind == "grid-float":
        return float(draw(st.sampled_from(_GRID)))
    if kind == "fraction":
        # Sporadic: a whole-second slot start plus random() * length.
        base = draw(st.integers(min_value=0, max_value=DAY_SECONDS - 600))
        frac = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        return base + frac * 600
    return draw(st.integers(min_value=0, max_value=DAY_SECONDS))


@st.composite
def interval_sets(draw, max_intervals: int = 6) -> IntervalSet:
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    pairs = []
    for _ in range(n):
        a, b = draw(_endpoint()), draw(_endpoint())
        if a == b:
            continue
        pairs.append((a, b) if a < b else (b, a))
    if draw(st.booleans()):
        return IntervalSet(pairs, wrap=False)
    # The periodic constructor: some pairs wrap midnight instead.
    return IntervalSet([(b, a) if draw(st.booleans()) else (a, b)
                        for a, b in pairs])


def _bits(x) -> Tuple[str, str]:
    """Type and exact value: ``int`` vs ``float`` and every float bit."""
    return type(x).__name__, float.hex(float(x))


def _same_set(got: IntervalSet, ref) -> None:
    intervals, measure = ref
    assert repr(got.intervals) == repr(intervals)
    assert _bits(got.measure) == _bits(measure)


# -- the kernels against the reference -----------------------------------------


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_overlap_and_overlaps(a, b):
    for x, y in ((a, b), (b, a)):
        got = x.overlap(y)
        assert _bits(got) == _bits(ref_overlap(x.intervals, y.intervals))
        assert x.overlaps(y) is ref_overlaps(x.intervals, y.intervals)
        assert _bits(x.coverage_added(y)) == _bits(
            x.measure - ref_overlap(x.intervals, y.intervals)
        )


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_intersection(a, b):
    _same_set(a & b, ref_intersection(a.intervals, b.intervals))
    _same_set(b & a, ref_intersection(b.intervals, a.intervals))


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_union(a, b):
    _same_set(a | b, ref_union_all([a.intervals, b.intervals])
              if a and b else ref_union_all([(a or b).intervals]))
    _same_set(
        IntervalSet.union_all([a, b]), ref_union_all([a.intervals, b.intervals])
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(interval_sets(), max_size=6))
def test_union_all(sets):
    _same_set(
        IntervalSet.union_all(sets), ref_union_all([s.intervals for s in sets])
    )


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_composed_kernels(a, b, c):
    # Kernel outputs feed kernels: a group union intersected with a
    # universe, and the overlap of an intersection with a third set.
    union, _ = ref_union_all([a.intervals, b.intervals])
    _same_set(
        IntervalSet.union_all([a, b]) & c, ref_intersection(union, c.intervals)
    )
    inter, _ = ref_intersection(a.intervals, b.intervals)
    assert _bits((a & b).overlap(c)) == _bits(ref_overlap(inter, c.intervals))
    assert _bits(c.overlap(IntervalSet.union_all([a, b]))) == _bits(
        ref_overlap(c.intervals, union)
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_endpoint(), _endpoint()), max_size=8), st.booleans())
def test_constructor(pairs, wrap):
    if not wrap:
        pairs = [(a, b) if a <= b else (b, a) for a, b in pairs]
    _same_set(
        IntervalSet(pairs, wrap=wrap),
        (_normalise(pairs, wrap),
         sum(end - start for start, end in _normalise(pairs, wrap))),
    )


def test_tie_keeps_the_first_operands_endpoint_object():
    # Equal values of different types: max/min return their first
    # argument on a tie, and the kernels must pick the same object.
    a = IntervalSet([(3600, 7200)], wrap=False)
    b = IntervalSet([(3600.0, 7200.0)], wrap=False)
    assert repr((a & b).intervals) == "((3600, 7200),)"
    assert repr((b & a).intervals) == "((3600.0, 7200.0),)"
    assert repr((a | b).intervals) == repr(
        ref_union_all([a.intervals, b.intervals])[0]
    )
