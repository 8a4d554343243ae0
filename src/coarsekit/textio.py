"""The line grammar of the four text formats: ballean, multimap, coordmap
and certificate.  '#' starts a comment, surrounding whitespace is dropped,
blank lines do not count, and numbers are naturals in ASCII digits.  A
malformed input raises FormatError naming a 1-based line of the whole
text, also inside a block read from the middle of a certificate.
"""

from __future__ import annotations

import copy
import sys
from typing import Optional


class FormatError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def is_natural(tok: str) -> bool:
    """ASCII digits only (str.isdigit also accepts other Unicode digits, which
    int() rejects or reads unexpectedly), and no more than int() converts:
    sys.get_int_max_str_digits() is 0 for no limit, else at least 640."""
    return (
        tok.isascii()
        and tok.isdigit()
        and (len(tok) <= 640 or not 0 < getattr(sys, "get_int_max_str_digits", int)() < len(tok))
    )


def naturals(body: str) -> Optional[tuple]:
    """The whitespace-separated naturals of body; None if a token is not one."""
    toks = body.split()
    return tuple(int(t) for t in toks) if all(is_natural(t) for t in toks) else None


class Lines:
    """A cursor over the meaningful (lineno, line) items of a text.  block()
    gives a cursor over a range of the same items, so line numbers stay
    those of the whole text."""

    def __init__(self, text: str):
        self.items = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((lineno, line))
        self.start = self.pos = 0
        self.stop = len(self.items)

    def block(self, start: int, stop: int) -> "Lines":
        sub = copy.copy(self)
        sub.start = sub.pos = start
        sub.stop = stop
        return sub

    def more(self) -> bool:
        return self.pos < self.stop

    def peek(self) -> str:
        """The current line, or '' at the end of the range."""
        return self.items[self.pos][1] if self.pos < self.stop else ""

    def take(self) -> tuple:
        item = self.items[self.pos]
        self.pos += 1
        return item

    @property
    def here(self) -> int:
        """The line an error at the cursor names: the current one; at the end
        the last of the range, or for an empty range the line after it."""
        if self.pos < self.stop:
            return self.items[self.pos][0]
        if self.stop > self.start:
            return self.items[self.stop - 1][0]
        return self.items[self.stop][0] if self.stop < len(self.items) else 1

    def header(self, title: str) -> int:
        if self.peek() != title:
            raise FormatError(f"expected header '{title}'", self.here)
        return self.take()[0]

    def find(self, marker: str, start: int) -> int:
        """The index of the first line from start on that is marker."""
        for pos in range(start, self.stop):
            if self.items[pos][1] == marker:
                return pos
        raise FormatError(f"missing '{marker}' section", self.items[self.stop - 1][0])

    def key(self, name: str) -> tuple:
        """Take a 'name N' line: (lineno, N)."""
        if not self.more():
            raise FormatError(f"missing '{name} N' line", self.here)
        lineno, line = self.take()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name or not is_natural(parts[1]):
            raise FormatError(f"expected '{name} N'", lineno)
        return lineno, int(parts[1])

    def prefixed(self, prefix: str, message: Optional[str] = None) -> tuple:
        """Take a line starting with prefix: (lineno, the rest stripped)."""
        if not self.peek().startswith(prefix):
            raise FormatError(message or f"expected '{prefix}' line", self.here)
        lineno, line = self.take()
        return lineno, line[len(prefix):].strip()

    def naturals_line(self, prefix: str, message: str, missing: Optional[str] = None) -> tuple:
        """Take a line of prefix and at least one natural: the naturals."""
        lineno, body = self.prefixed(prefix, missing)
        vals = naturals(body)
        if not vals:
            raise FormatError(message, lineno)
        return vals

    def pair(self) -> tuple:
        """Take a 'pair x y' line: (lineno, (x, y))."""
        lineno, line = self.take()
        parts = line.split()
        if len(parts) != 3 or parts[0] != "pair" or not is_natural(parts[1]) or not is_natural(parts[2]):
            raise FormatError("expected 'pair x y'", lineno)
        return lineno, (int(parts[1]), int(parts[2]))

    def end(self) -> None:
        if self.more():
            raise FormatError("unexpected trailing content", self.here)
