"""Run one ``gkm`` command under the span tracer, in a fresh interpreter.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <gkm arguments...>

Times the cold ``import gkm.cli``, runs ``gkm.cli.main`` on the arguments
with every traced function wrapped, writes {"import_s", "spans"} to
SPANS_JSON and exits with the command's exit code. The untraced passes run
``python3 -m gkm.cli`` with the same arguments instead.
"""

import json
import sys
import time

from spans import Tracer

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import gkm.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer:
        code = gkm.cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)
