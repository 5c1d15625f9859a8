"""Run ``repro-hetsim`` with benchmark spans around the serving layers.

Usage: ``python perfbench/server_main.py serve [serve options]``.

With ``PERFBENCH_SPANS_DIR`` set, spans are recorded around the public
entry points of the ``service`` and ``perf`` layers and written to
``$PERFBENCH_SPANS_DIR/spans-<pid>.jsonl`` when the process exits.
Without the variable, this is exactly ``repro-hetsim``.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SPANS_ENV = "PERFBENCH_SPANS_DIR"


def instrument(recorder) -> None:
    import repro.core.optimizer as optimizer
    import repro.perf.batch as batch
    import repro.service.app as app
    import repro.service.http  # noqa: F401  (loaded before the scan)
    import repro.service.schemas as schemas
    from repro.perf.tensorstore import TensorStore
    from repro.service.batching import MicroBatcher
    from repro.service.respcache import ResponseCache
    from repro.service.tensor import TransportFastPath

    def marking(name, marker):
        """Span ``name`` per call, plus a ``marker`` instant whenever
        the call returns something (a served or cached response)."""

        def factory(original):
            wrapped = recorder.wrap(name, original)

            def call(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                if out is not None:
                    recorder.mark(marker)
                return out

            return call

        return factory

    for name in ("parse_speedup", "parse_sweep", "parse_optimize"):
        recorder.instrument(schemas, name, "service.parse")
    recorder.instrument(
        TransportFastPath, "response_bytes", "service.fastpath",
        wrapper=marking("service.fastpath", "service.fastpath.served"),
    )
    recorder.instrument(
        TransportFastPath, "_build", "service.fastpath.build",
        wrapper=marking("service.fastpath.build", "service.fastpath.built"),
    )
    recorder.instrument(TensorStore, "lookup", "perf.tensor.lookup")
    recorder.instrument(ResponseCache, "get", "service.respcache.get")
    recorder.instrument(MicroBatcher, "evaluate", "service.batch.wait")
    recorder.instrument(batch, "optimize_batch", "perf.batch.kernel")
    recorder.instrument(optimizer, "optimize", "core.optimize")
    recorder.instrument(app.ModelService, "handle_request", "service.request")


def install_from_env() -> None:
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    instrument(recorder)
    path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
    atexit.register(recorder.dump, path)


if __name__ == "__main__":
    from repro.cli import main

    install_from_env()
    sys.exit(main(sys.argv[1:]))
