"""Child-process launcher: run one ``fsn`` command through ``fsn.cli.main``.

Usage: python3 perfbench/launch.py TRACE_FILE|- COMMAND [ARGS...]

With ``-`` the command runs exactly as the installed ``fsn`` script would run
it. With a trace file the public functions of every ``fsn`` module are
wrapped first (see spans.py) and the spans are written to that file when
``main`` returns. The package is imported from ``src/`` of the checkout that
holds this file.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import fsn.cli  # imports every layer module of the package

    tracer = None
    installing = time.perf_counter()
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(fsn)
    entered = time.perf_counter()
    code = fsn.cli.main(argv)
    if tracer is not None:
        tracer.write(trace_path, {"install_s": entered - installing, "main_entered": entered})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
