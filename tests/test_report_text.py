"""Report text against a reference built from the entry tuples, on tables that break each rule.

The reference formats ``negative_entries``, ``range_entries`` and
``monotone_entries`` one line each and hands every line to
``core._report_text``, so ``describe`` must give the same text while it
formats only the lines it prints.
"""

from itertools import chain

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import kopula as ko
from kopula import core

# cells on both sides of each rule's edge, at the default tol and at 0
EDGES = [0.0, -0.0, 1.0, -1e-9, -2e-9, 1.0 + 1e-9, 1.0 + 2e-9, 1e-12, 2e-12, 0.5, 0.5 + 2e-12]
TOLS = st.sampled_from([ko.SUM_ATOL, 0.0, 1e-6])


@st.composite
def broken_values(draw, max_events=6):
    """(n, 2**n values): steps up, cells below 0 or past 1, and a total or empty entry off 1."""
    n = draw(st.integers(1, max_events))
    cell = st.one_of(st.sampled_from(EDGES), st.floats(-0.5, 1.5))
    values = np.array(draw(st.lists(cell, min_size=1 << n, max_size=1 << n)))
    if draw(st.booleans()):  # a first-kind table whose total is 1 or nearly so
        values[0] = 1.0 - (values.sum() - values[0]) + draw(st.sampled_from([0.0, 1e-10, 3e-9]))
    return n, values


def reference_epd1_text(report):
    lines = []
    negative = report.negative_entries
    if report.sum_ok and not negative:
        lines.append(f"valid first-kind table (sum deviation {report.total - 1.0:+.3e})")
    if not report.sum_ok:
        lines.append(f"total mass {report.total!r} deviates from 1 by {report.total - 1.0:+.3e}")
    label = report.context.mask_label
    cells = [f"negative probability {v:.6e} at subset {{{label(m)}}} (index {m})"
             for m, v in negative]
    return core._report_text(iter(lines + cells), len(lines) + len(cells))


def reference_epd2_text(report):
    lines = []
    ranged, mono = report.range_entries, report.monotone_entries
    if report.empty_ok and not ranged and not mono:
        lines.append("valid second-kind table")
    if not report.empty_ok:
        lines.append(f"empty-set entry {report.empty_value!r} deviates from 1")
    label = report.context.mask_label
    ranges = [f"entry {v:.6e} at {{{label(m)}}} outside [0, 1]" for m, v in ranged]
    gaps = [f"monotonicity violated: {{{label(sup)}}} exceeds {{{label(sub)}}} by {gap:.3e}"
            for sub, sup, gap in mono]
    return core._report_text(chain(lines, ranges, gaps), len(lines) + len(ranges) + len(gaps))


@given(broken_values(), TOLS)
def test_first_kind_text_is_the_reference(table, tol):
    n, values = table
    report = ko.validate_epd1(ko.Epd1(ko.EventSetContext(n), values), tol)
    assert report.describe() == reference_epd1_text(report)
    assert report.negative_entries == report.negative_entries
    assert report.nonnegative_ok == (not report.negative_entries)


@given(broken_values(), TOLS)
def test_second_kind_text_is_the_reference(table, tol):
    n, values = table
    report = ko.validate_epd2(ko.Epd2(ko.EventSetContext(n), values), tol)
    assert report.describe() == reference_epd2_text(report)
    assert report.range_entries == report.range_entries
    assert report.monotone_entries == report.monotone_entries
    assert report.range_ok == (not report.range_entries)
    assert report.monotone_ok == (not report.monotone_entries)


def test_a_report_compares_by_identity_and_leaves_its_table_out_of_repr():
    d = ko.Epd2(ko.EventSetContext(2), [1.0, 0.5, 0.5, 0.75])
    report = ko.validate_epd2(d)
    assert report.values is d.values  # a view, not a copy
    assert report != ko.validate_epd2(d) and report == report
    assert "values" not in repr(report) and "monotone_count=2" in repr(report)
    first = ko.validate_epd1(ko.Epd1(d.context, [0.5, 0.5, 0.25, -0.25]))
    assert "values" not in repr(first)
    assert first.negative_entries == ((3, -0.25),)
