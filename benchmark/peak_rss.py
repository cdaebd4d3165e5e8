"""Run one pass of CLI invocations in a fresh process and print its peak RSS.

Usage: python3 peak_rss.py <src dir> <JSON list of argv lists>

Prints ru_maxrss in KiB as the last line; exits with the first non-zero
CLI exit code.
"""

import contextlib
import io
import json
import resource
import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from verfair import cli

    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc:
            sys.exit(rc)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
