"""Traced ``refmet`` CLI call: ``compare_child.py SPANS_JSON <refmet args...>``.

Times ``import refmet.cli`` and one ``refmet.cli.main`` call with the
tracer's wrappers installed, writes the spans to SPANS_JSON once at the end
and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import refmet.cli
    with tracer.installed(), tracer.span("cli.main"):
        rc = refmet.cli.main(argv)
    spans_path.write_text(json.dumps([s.to_json() for s in tracer.spans]))
    return rc


if __name__ == "__main__":
    sys.exit(main())
