"""The log writer process behind ``sim.output.LogWriter``.

Run as ``python -I -S -bb _logwriter.py``; it imports only the standard
library, so it starts in a few tens of milliseconds. Standard input is a
stream of messages, each a 4-byte little-endian length and that many
bytes of ``marshal`` data. The first maps each log kind to its file's
path and row template; every later one maps kinds to lists of rows, and
each row is appended to its kind's file as ``template % row``, in order.

Rows hold plain values. At the end of input the writer closes the files
and exits 0. It exits 1 on an ``OSError``, or on a row holding raw bytes
(what ``marshal`` sends for a numpy scalar, which ``-bb`` refuses to
format), with one line on standard error, naming the log kind for a row,
which ``LogWriter.close`` raises again in the engine's process.
Interrupts are ignored: the engine's process decides when to stop, and
closing (or losing) its end of the pipe ends the input.
"""

import marshal
import signal
import sys


def messages(stream):
    """The messages of ``stream`` until its end; a message cut short by
    the end of the stream is dropped."""
    while True:
        head = stream.read(4)
        if len(head) < 4:
            return
        size = int.from_bytes(head, "little")
        data = stream.read(size)
        if len(data) < size:
            return
        yield marshal.loads(data)


def main() -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stream = messages(sys.stdin.buffer)
    files = {}
    try:
        for kind, (path, template) in next(stream, {}).items():
            files[kind] = (open(path, "a", encoding="utf-8", newline="\n"), template)
        for batch in stream:
            for kind, rows in batch.items():
                fh, template = files[kind]
                fh.writelines(map(template.__mod__, rows))
        for fh, _ in files.values():
            fh.close()
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 1
    except BytesWarning:
        print(f"refused a {kind} row: it holds raw bytes, not plain values", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
