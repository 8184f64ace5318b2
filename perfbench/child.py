"""One fresh interpreter: import plates_olives from the checkout and run the CLI.

Usage: ``python3 -E -s perfbench/child.py ROOT MODE [CLI ARGS...]``

MODE is ``setup`` (import and build the parser only), ``run`` (one
``cli.main`` call) or ``trace`` (the same call with the layer spans of
``tracing.py`` installed).  The last line of stdout is one JSON object;
the CLI's own stdout and stderr are captured into it.  Exit code 3 means
``plates_olives`` resolved somewhere other than ``ROOT/src``.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback


def _enumerate_seconds(games, argv: list[str]) -> float:
    """Wall time to consume the bare game stream of an ``enumerate`` command."""
    n = int(argv[argv.index("--n") + 1])
    start = time.perf_counter()
    for _ in games.enumerate_games(n):
        pass
    return time.perf_counter() - start


def main() -> int:
    root, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    package_dir = os.path.realpath(os.path.join(root, "src", "plates_olives"))
    sys.path.insert(0, os.path.join(root, "src"))
    import plates_olives
    from plates_olives import cli

    cli.build_parser()
    ready = time.perf_counter()

    loaded = [os.path.realpath(m.__file__) for m in (plates_olives, cli)]
    if any(os.path.dirname(path) != package_dir for path in loaded):
        print(json.dumps({"guard": loaded[0], "expected": package_dir}))
        return 3
    result: dict = {"ready": ready, "module": loaded[0]}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        real_out, real_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        rc, error = None, None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        finally:
            wall1, cpu1 = time.perf_counter(), time.process_time()
            sys.stdout, sys.stderr = real_out, real_err
        result.update(
            rc=rc, error=error, wall=wall1 - wall0, cpu=cpu1 - cpu0,
            stdout=out.getvalue(), stderr=err.getvalue(),
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()
            if argv[0] == "enumerate":
                from plates_olives import games

                result["trace"]["enumerate_s"] = _enumerate_seconds(games, argv)

    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
