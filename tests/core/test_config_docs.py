"""docs/API.md's design-space table must mirror ``DESIGN_SPACE``.

Each dimension renders to one table row — dimension, field, choices in
declared order, tutorial section or compaction primitive, constraints — and
the row must appear in the document verbatim, so a choice added to the table
without its documentation fails here with the row to paste.
"""

from pathlib import Path

import pytest

from repro.core.design_space import DESIGN_SPACE

_API_MD = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def _row(dimension) -> str:
    choices = ", ".join(f"`{choice}`" for choice in dimension.choices)
    where = dimension.section
    if dimension.primitive:
        where += f"; primitive: {dimension.primitive}"
    return (
        f"| {dimension.name} | `{dimension.field}` | {choices} | {where} | "
        f"{dimension.constraints or '—'} |"
    )


@pytest.mark.parametrize("field", list(DESIGN_SPACE))
def test_api_md_lists_the_dimension_as_the_table_declares_it(field):
    row = _row(DESIGN_SPACE[field])
    assert row in _API_MD.read_text(encoding="utf-8").splitlines(), (
        f"docs/API.md design-space table is missing or has a stale row for "
        f"{field}; expected:\n{row}"
    )
