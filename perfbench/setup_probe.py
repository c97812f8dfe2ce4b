"""One fresh-interpreter set-up: import capflow, then run `capflow.cli.main`
on the workload's config until its first pipeline call.

Usage: python3 setup_probe.py SRC_DIR -- CLI_ARGS...

The first call into a pipeline layer raises a sentinel that no handler in
the CLI catches; at that point the probe prints one JSON line with the
import time and exits.  The parent times the whole process from spawn to
that line.
"""

import json
import os
import sys
import time


class Ready(BaseException):
    """Raised at the first pipeline call; BaseException escapes the CLI's
    stage and error handlers."""


def main() -> int:
    t0 = time.perf_counter()
    src = os.path.abspath(sys.argv[1])
    cli_args = sys.argv[3:]
    sys.path.insert(0, src)
    from capflow import capacity, cli, pde, wiener
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"capflow imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    def stop(*args, **kwargs):
        raise Ready

    for owner, attr in ((wiener, "realize_R_o_epsilon"), (wiener, "build_profile"),
                        (capacity, "delta"), (capacity, "delta_detailed"),
                        (pde, "make_grid"), (pde, "solve")):
        setattr(owner, attr, stop)
    try:
        rc = cli.main(cli_args)
    except Ready:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    print(f"capflow exited with {rc} before its first pipeline call", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
