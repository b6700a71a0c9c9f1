"""Boot ``repro.serve`` with spans around its public functions.

    PERFBENCH_SPANS=<out.json> python3 perfbench/serve_boot.py --port 0

Installs ``trace.Tracer`` wrappers from outside (nothing in ``src/``
changes), runs the server's own ``main``, and after its drain writes the
recorded spans and the tuner's decision-cache counters to
``PERFBENCH_SPANS``.  Used only by the traced run.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace import Tracer  # noqa: E402


def main() -> int:
    import repro.autotune
    import repro.compiler.kernel as kernel_mod
    import repro.serve.app as app
    import repro.serve.query as query
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    tracer.wrap(app, "prepare_request", "serve.prepare")
    tracer.wrap(query.PreparedQuery, "execute", "serve.execute")
    tracer.wrap(query, "_encode_result", "serve.encode")
    tracer.wrap(repro.autotune, "tune_einsum", "autotune.tune")
    tracer.wrap(query, "plan_einsum", "tensor.plan")
    tracer.wrap(kernel_mod, "verify_expr", "analysis.streamprops")
    code = serve_main(sys.argv[1:])
    from repro.autotune import decision_cache

    out = {
        "spans": tracer.take(),
        "decision_hits": decision_cache.hits,
        "decision_misses": decision_cache.misses,
    }
    Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
