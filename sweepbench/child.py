"""One fresh interpreter of the sweep benchmark.

    child.py SRC setup               import lefschetz.cli, print when done
    child.py SRC sweep VERIFY-ARGS   time one ``verify`` call
    child.py SRC trace VERIFY-ARGS   time one ``verify`` call with spans

SRC is put first on ``sys.path`` so the package comes from that source tree
and from nothing installed. The last line of stdout is one JSON object.
"""

import sys
import time

src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)

import lefschetz.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

if not os.path.abspath(lefschetz.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"lefschetz imported from {lefschetz.cli.__file__}, not from {src}")

if mode == "setup":
    result = {"ready": ready}
elif mode == "sweep":
    started = time.perf_counter()
    code = lefschetz.cli.main(argv)
    result = {"exit": code, "sweep_s": time.perf_counter() - started}
elif mode == "trace":
    import spans

    tracer = spans.Tracer()
    with tracer:
        with tracer.span(spans.ROOT) as root:
            code = lefschetz.cli.main(argv)
    metrics = spans.layer_metrics(tracer.spans)
    absent = tracer.absent
    binomial = getattr(sys.modules.get("lefschetz.prime_field"), "binomial_mod_p", None)
    if hasattr(binomial, "cache_info"):
        info = binomial.cache_info()
        metrics["prime_field.binomial_mod_p.misses"] = info.misses
        lookups = info.hits + info.misses
        metrics["prime_field.binomial_mod_p.hit_ratio"] = info.hits / lookups if lookups else 0.0
    else:
        absent.append("lefschetz.prime_field.binomial_mod_p.cache_info")
    result = {"exit": code, "sweep_s": root[3] - root[2], "metrics": metrics, "absent": absent}
else:
    sys.exit(f"unknown mode {mode!r}")

print(json.dumps(result))
