"""docs/API.md's wire table must mirror the schema in ``protocol.py``.

Each registered message renders to one table row — type byte, class name, op
name, fields with their kinds in payload order, mutating — and the row must
appear in the document verbatim, so a message, field or kind added to the
code without its documentation fails here with the row to paste.
"""

from pathlib import Path

import pytest

from repro.server.protocol import REQUEST_TYPES, RESPONSE_TYPES

_API_MD = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def _render(kind) -> str:
    text = kind.label
    if kind.inner:
        inner = ", ".join(_render(k) for k in kind.inner)
        text = inner if kind.label == "record" else f"{kind.label}({inner})"
    return f"may_end({text})" if kind.may_end else text


def _row(cls) -> str:
    # Trailing blocks are listed by name alone: "trace", "idem".
    fields = ", ".join(
        name if kind.trailing else f"{name}: {_render(kind)}"
        for name, kind in cls.WIRE.items()
    )
    mutating = "yes" if cls.MUTATING else "no"
    return f"| `0x{cls.TYPE:02X}` | `{cls.__name__}` | {cls.OP or '—'} | `{fields}` | {mutating} |"


@pytest.mark.parametrize("cls", REQUEST_TYPES + RESPONSE_TYPES, ids=lambda c: c.__name__)
def test_api_md_lists_the_message_as_the_code_defines_it(cls):
    assert _row(cls) in _API_MD.read_text(encoding="utf-8").splitlines(), (
        f"docs/API.md wire table is missing or has a stale row for "
        f"{cls.__name__}; expected:\n{_row(cls)}"
    )
