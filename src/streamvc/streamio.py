"""Line-oriented stream file format.

First non-comment line is the header "n k"; every following data line is
"u v d" with d in {+1, -1} and u != v, both in 0..n-1 (graph.validate_event;
read_stream reports a bad event with its line). '#' starts a comment,
blank lines are ignored. Lines end at "\n", "\r\n" or "\r"; the last may
lack one. A leading UTF-8 byte-order mark is skipped. The format is
diffable and trivial to generate by hand.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import StreamError, StreamFormatError
from .graph import UpdateEvent, validate_event


def write_stream(
    path,
    n: int,
    k: int,
    events: Iterable[UpdateEvent],
    comment: str | None = None,
) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"header needs n >= 1 and k >= 1, got n={n} k={k}")
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"{n} {k}")
    for e in events:
        lines.append(f"{e.i} {e.j} {e.delta:+d}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_stream(path) -> tuple[int, int, list[UpdateEvent]]:
    """The header's n and k and the list of events, read one line at a time."""
    n = k = None
    events: list[UpdateEvent] = []
    with open(path, encoding="utf-8-sig") as lines:
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if n is None:
                if len(fields) != 2:
                    raise StreamFormatError("header must be 'n k'", line=lineno)
                try:
                    n, k = int(fields[0]), int(fields[1])
                except ValueError:
                    raise StreamFormatError("header must hold two integers", line=lineno)
                if n < 1 or k < 1:
                    raise StreamFormatError("header needs n >= 1 and k >= 1", line=lineno)
                continue
            if len(fields) != 3:
                raise StreamFormatError("event line must be 'u v d'", line=lineno)
            try:
                u, v, d = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError:
                raise StreamFormatError("event fields must be integers", line=lineno)
            event = UpdateEvent(u, v, d)
            try:
                validate_event(event, n)
            except (StreamError, ValueError) as exc:
                raise StreamFormatError(str(exc), line=lineno) from exc
            events.append(event)
    if n is None:
        raise StreamFormatError("missing header line 'n k'")
    return n, k, events
