"""Run one topobayes CLI command in this process, optionally traced.

    python3 perfbench/child.py [--trace FILE --prefix ID] -- <cli arguments>

The package is imported from the checkout's src/ directory. With --trace,
spans are recorded around the package's functions and written to FILE as
JSON when the command ends; span ids start with ID so they stay unique when
the parent merges them.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import topobayes.cli
    import_s = time.perf_counter() - start
    if trace_file is None:
        return topobayes.cli.main(cli_args)

    from spans import Tracer

    tracer = Tracer(run_id=None, prefix=opts[opts.index("--prefix") + 1])
    tracer.install()
    try:
        return topobayes.cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(trace_file).write_text(json.dumps(
            {"spans": tracer.spans, "absent": tracer.absent, "import_s": import_s}
        ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
