"""adpricing CLI runs of one or more studies in a fresh process, timed
from inside.

    python3 perfbench/child.py --src SRC --result OUT.json --out DIR --study S [--study S ...]
        [--trace SPANS.json] [--setup-only] [--cpu N] -- <adpricing CLI arguments>

Runs ``adpricing.cli.main`` once per ``--study``, in order, on the given
arguments plus ``--study S --out DIR/S``, and writes a JSON result: the
exit code of each run, ``setup_s`` (the ``adpricing`` import plus the
first ``load_config``), ``wall_s`` (``cli.run``: studies, artifacts and
manifest, summed), ``cpu_s`` (user plus system CPU of ``cli.run``, all
threads) and ``peak_rss_mb`` (peak resident memory of the process).
With ``--setup-only`` only the first run is made and its study is
skipped, which times set-up alone. With ``--trace`` every traced
function records spans (see tracer.py); their summary goes into the
result and the spans into SPANS.json.
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--study", action="append", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="run on this CPU only")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import adpricing
    import adpricing.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.realpath(adpricing.__file__).startswith(os.path.realpath(args.src) + os.sep):
        raise RuntimeError(f"imported adpricing from {adpricing.__file__}, not from {args.src}")

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=os.path.splitext(os.path.basename(args.trace))[0])
        tracer.install(adpricing)

    times = {"load_config_s": None, "wall_s": 0.0, "cpu_s": 0.0}
    load_config, run = cli.load_config, cli.run

    def timed_load_config(*a, **k):
        t = time.perf_counter()
        try:
            return load_config(*a, **k)
        finally:
            if times["load_config_s"] is None:
                times["load_config_s"] = time.perf_counter() - t

    def timed_run(cfg):
        if args.setup_only:
            return 0
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        try:
            return run(cfg)
        finally:
            times["wall_s"] += time.perf_counter() - t
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            times["cpu_s"] += (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    cli.load_config, cli.run = timed_load_config, timed_run
    studies = args.study[:1] if args.setup_only else args.study
    rcs = []
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            for study in studies:
                out = os.path.join(args.out, study)
                os.makedirs(out)
                rcs.append(cli.main(cli_args + ["--study", study, "--out", out]))
        finally:
            sys.stdout = stdout

    result = {
        "rc": dict(zip(studies, rcs)),
        "setup_s": import_s + times["load_config_s"],
        "wall_s": times["wall_s"],
        "cpu_s": times["cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
