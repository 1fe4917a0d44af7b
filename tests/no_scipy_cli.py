"""Run a fixed set of CLI commands in this process and report them as JSON.

    python no_scipy_cli.py plain|guarded

Run from an empty directory with the package on PYTHONPATH: the commands
write their files there.  `guarded` first makes every scipy import fail
(sys.modules["scipy"] = None).  Stdout is one JSON object: each command's
argv, exit code and stdout, and the scipy modules imported by the end.  The
exit code is 1 unless every command exited 0 and no scipy module was
imported, so that `guarded` and `plain` runs can be compared byte for byte.
"""

import contextlib
import io
import json
import sys

if sys.argv[1:] == ["guarded"]:
    sys.modules["scipy"] = None
elif sys.argv[1:] != ["plain"]:
    sys.exit("usage: no_scipy_cli.py plain|guarded")

from designforge import cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


runs = [run(["generate", "-d", "2", "-n", "3", "-N", "auto", "--seed", "1", "--no-timestamp",
             "-o", "s2.json"]),
        run(["generate", "-d", "3", "-n", "3", "-N", "auto", "--seed", "1", "--no-timestamp",
             "-o", "s3.json"])]
with open("s2.json", encoding="utf-8") as fh:
    N = json.load(fh)["N"]
runs += [run(["partition", "-d", "2", "-N", str(N), "-o", "part.json"]),
         run(["verify", "s2.json", "-n", "3", "--mz", "part.json"]),
         run(["study", "-d", "2", "--n", "2..3", "--N-rule", "2*(n+1)^2", "--seed", "1",
              "-o", "study.csv"]),
         run(["kernel-info", "-d", "2", "-n", "3"])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
print(json.dumps({"runs": runs, "scipy_modules": loaded}, indent=1))
sys.exit(0 if loaded == [] and all(r["exit"] == 0 for r in runs) else 1)
