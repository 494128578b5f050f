"""The one reader of gclkit's input files: in each, a ``#`` starts a comment to the
end of its line, a line with nothing else is skipped, and errors name the line."""


class Records:
    """``(line number, fields, text)`` of each record of ``lines`` (the file's, by
    default) numbered from ``start``; ``end`` is the line after the last one read."""

    def __init__(self, path, lines=None, start=1):
        if lines is None:
            with open(path) as fh:
                lines = fh.readlines()
        self.path = path
        self.end = start
        self._lines = enumerate(lines, start)

    def __iter__(self):
        for number, line in self._lines:
            self.end = number + 1
            text = line.split("#", 1)[0].strip()
            if text:
                yield number, text.split(), text

    def error(self, number, expected, got):
        """``ValueError("<file>: line N: expected …, got '…'")``; None is the file's end."""
        found = "the end of the file" if got is None else repr(got)
        return ValueError(f"{self.path}: line {number}: {expected}, got {found}")
