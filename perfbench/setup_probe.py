"""One fresh-process set-up: import ordsplit and parse the documents on stdin.

Reads a JSON list of document texts from stdin, then times importing
ordsplit and parsing each document, and prints the seconds at the speed
meter's reference speed (speed.py).  Reading the input happens before the
clock starts.
"""

import json
import sys
from pathlib import Path

from speed import SpeedMeter


def main() -> None:
    texts = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    meter = SpeedMeter()
    meter.start()
    started = meter.mark()
    from ordsplit.document import parse_document

    for text in texts:
        parse_document(text)
    ended = meter.mark()
    meter.stop()
    print(repr(meter.reference_seconds(started, ended)))


if __name__ == "__main__":
    main()
